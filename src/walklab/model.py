"""Walk parameters and the scalar quantities derived from them.

Everything downstream (closed-form laws, boundary geometry, exact
oracles, simulation) is a function of a single validated parameter set:
the up-step probability p in (1/2, 1), its complement q = 1 - p and the
ratio h = q/p < 1.  Each quantity that more than one module needs is
defined here once: gamma0 and beta on `WalkParams`, the two geometric
bases of the two-point occupation law, and the Chernoff bound on visits
late in the walk, from which the exact oracles take their certified
horizons and the simulation its escape step guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = [
    "WalkParams",
    "Constants",
    "make_params",
    "derived_constants",
    "ball_weight_rate",
    "two_point_bases",
    "escape_bound",
    "escape_steps",
]


@dataclass(frozen=True)
class WalkParams:
    """Validated parameters of the drifted nearest-neighbor walk."""

    p: float
    q: float
    h: float

    @property
    def log_h(self) -> float:
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


@dataclass(frozen=True)
class Constants:
    """Growth rates attached to one parameter set (gamma0 and beta are
    read from `params`).

    lambda0   a.s. rate (per log n) of the maximal local time, -1/log(2q)
    kappa0    a.s. rate of the maximal unit-sphere occupation,
              -1/log(q(1+2p))
    wlimit    a.s. rate of the maximal ball weight (local time plus
              sphere occupation), -1/log(q(1+beta)/2)
    """

    params: WalkParams
    lambda0: float
    kappa0: float
    wlimit: float

    def theta(self, z: int) -> float:
        """Decay rate of the two-point occupation law for sites {0, z}:
        -log of its dominant base.

        Strictly decreasing in z > 0 with limit 1/lambda0.
        """
        return -math.log(two_point_bases(self.params, z)[0])


def make_params(p: float) -> WalkParams:
    """Validate p and build the parameter triple (p, q, h)."""
    if not math.isfinite(p):
        raise ValidationError(f"p must be a finite real, got {p!r}")
    if p <= 0.5:
        raise ValidationError(
            f"p={p} violates p > 1/2 (the walk must drift to the right)"
        )
    if p >= 1.0:
        raise ValidationError(f"p={p} violates p < 1 (both steps need mass)")
    q = 1.0 - p
    return WalkParams(p=p, q=q, h=q / p)


def ball_weight_rate(params: WalkParams) -> float:
    """Closed form for wlimit: -1/log of the dominant base q(1+beta)/2.

    The boundary module cross-checks this against two independent
    routes (numeric maximization of x+y on the region boundary and the
    coefficient-ratio limit of the ball occupation generating function).
    """
    return -1.0 / math.log(params.q * (1.0 + params.beta) / 2.0)


def derived_constants(params: WalkParams) -> Constants:
    p, q = params.p, params.q
    return Constants(
        params=params,
        lambda0=-1.0 / math.log(2.0 * q),
        kappa0=-1.0 / math.log(q * (1.0 + 2.0 * p)),
        wlimit=ball_weight_rate(params),
    )


def two_point_bases(params: WalkParams, z: int) -> tuple[float, float]:
    """Geometric bases (2q + s)/(1 + s) and (2q - s)/(1 - s), s = h^(z/2),
    of the two-point occupation law for {0, +/-z}."""
    if z < 1:
        raise ValidationError(f"z must be a positive integer, got {z}")
    q = params.q
    s = math.exp(0.5 * z * params.log_h)
    return (2.0 * q + s) / (1.0 + s), (2.0 * q - s) / (1.0 - s)


def _chernoff_logs(params: WalkParams) -> tuple[float, float]:
    """log rho and log(1 - rho) for rho = 2 sqrt(pq) = sqrt(1 - gamma0^2).

    Written as log1p(-gamma0^2) / 2 and 1 - rho = gamma0^2 / (1 + rho):
    neither cancels as p nears 1/2, where rho rounds to 1.
    """
    gamma0 = params.gamma0
    rho = math.sqrt(4.0 * params.p * params.q)
    return 0.5 * math.log1p(-gamma0 * gamma0), math.log(gamma0 * gamma0 / (1.0 + rho))


def escape_bound(params: WalkParams, log_weight: float, m: int) -> float:
    """Bound on the probability that the walk from 0 stands on a site of a
    set S at some step >= m.

    By the Chernoff bound P(S_t = s) <= rho^t h^(-s/2), rho = 2 sqrt(pq),
    so summed over S and over t >= m the probability is at most
    W rho^m / (1 - rho), where W is the sum of h^(-s/2) over S; the
    caller passes log W.
    """
    log_rho, log_gap = _chernoff_logs(params)
    return math.exp(log_weight + m * log_rho - log_gap)


def escape_steps(params: WalkParams, log_weight: float, miss: float) -> int:
    """The least m >= 0 at which `escape_bound` is at most `miss`."""
    log_rho, log_gap = _chernoff_logs(params)
    return max(math.ceil((math.log(miss) - log_weight + log_gap) / log_rho), 0)
