"""Walk parameters and the scalar quantities derived from them.

Everything downstream (closed-form laws, boundary geometry, exact
oracles, simulation) is a function of a single validated parameter set:
the up-step probability p in (1/2, 1), its complement q = 1 - p and the
ratio h = q/p < 1.  Every quantity derived from p alone is defined
here once, on `WalkParams`: gamma0 and beta, the almost-sure growth
rates lambda0, kappa0 and wlimit, and the two-point rate theta(z) with
its two geometric bases.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ValidationError, require_integers

__all__ = ["WalkParams", "make_params"]


@dataclass(frozen=True)
class WalkParams:
    """Validated parameters of the drifted nearest-neighbor walk."""

    p: float
    q: float
    h: float

    @property
    def log_h(self) -> float:
        """log h within 1 ulp: log(h) would lose the bits that rounding h
        dropped as h nears 1, log1p those of gamma0/p as h nears 0."""
        if self.h >= 0.5:
            return math.log1p(-self.gamma0 / self.p)
        return math.log(self.h)

    @property
    def gamma0(self) -> float:
        """Probability of never returning to the start, p - q.  Exact in
        floating point for every p in (1/2, 1), as q = 1 - p is, so it
        equals 1 - 2q bit for bit and keeps its precision as p nears 1/2."""
        return self.p - self.q

    @property
    def beta(self) -> float:
        """sqrt(1 + 8p/q), which governs the three-site ball occupation law."""
        return math.sqrt(1.0 + 8.0 * self.p / self.q)

    @property
    def lambda0(self) -> float:
        """a.s. rate (per log n) of the maximal local time, -1/log(2q)."""
        return -1.0 / math.log(2.0 * self.q)

    @property
    def kappa0(self) -> float:
        """a.s. rate of the maximal unit-sphere occupation, -1/log(q(1+2p))."""
        return -1.0 / math.log(self.q * (1.0 + 2.0 * self.p))

    @property
    def wlimit(self) -> float:
        """a.s. rate of the maximal ball weight (local time plus sphere
        occupation), -1/log(q(1+beta)/2); `boundary.weight_limit` checks it
        against the boundary's maximum and the ball series' coefficient ratio."""
        return -1.0 / math.log(self.q * (1.0 + self.beta) / 2.0)

    def two_point_bases(self, z: int) -> tuple[float, float]:
        """Geometric bases (2q + s)/(1 + s) and (2q - s)/(1 - s), s = h^(z/2),
        of the two-point occupation law for {0, +/-z}."""
        require_integers(1, z=z)
        q = self.q
        s = math.exp(0.5 * z * self.log_h)
        return (2.0 * q + s) / (1.0 + s), (2.0 * q - s) / (1.0 - s)

    def theta(self, z: int) -> float:
        """Decay rate of the two-point occupation law for sites {0, z}, -log
        of its dominant base: strictly increasing in z > 0 to 1/lambda0."""
        return -math.log(self.two_point_bases(z)[0])


def make_params(p: float) -> WalkParams:
    """Validate p and build the parameter triple (p, q, h)."""
    if not isinstance(p, numbers.Real) or not math.isfinite(p):
        raise ValidationError(f"p must be a finite real, got {p!r}")
    if p <= 0.5:
        raise ValidationError(
            f"p={p} violates p > 1/2 (the walk must drift to the right)"
        )
    if p >= 1.0:
        raise ValidationError(f"p={p} violates p < 1 (both steps need mass)")
    q = 1.0 - p
    return WalkParams(p=p, q=q, h=q / p)
