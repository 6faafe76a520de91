"""Rational probability generating functions and their series expansion.

Independent re-derivation route for the closed-form occupation laws: the
coefficient sequence of a rational generating function is produced by the
linear recurrence of its denominator, with no root-finding involved, and
can be compared coefficientwise against the explicit mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import WalkParams
from .closedform import excursion_law

__all__ = ["RationalGF", "series_coeffs", "two_point_gf", "ball_gf"]

MAX_SERIES_TERMS = 100_000


@dataclass(frozen=True)
class RationalGF:
    """num(w) / den(w) with coefficient lists in increasing powers of w."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self):
        if not self.den or self.den[0] == 0.0:
            raise ValidationError("denominator must have a nonzero constant term")

    def value(self, w: float) -> float:
        num = sum(c * w ** i for i, c in enumerate(self.num))
        den = sum(c * w ** i for i, c in enumerate(self.den))
        return num / den


def series_coeffs(gf: RationalGF, K: int) -> np.ndarray:
    """First K+1 power-series coefficients of the rational function.

    c_n = (num_n - sum_{i>=1} den_i c_{n-i}) / den_0.  Coefficients of the
    probability generating functions built here decay geometrically, so
    plain double precision is monitored but never log-scaled.
    """
    if K < 0:
        raise ValidationError(f"K must be >= 0, got {K}")
    if K > MAX_SERIES_TERMS:
        raise ValidationError(f"K={K} exceeds the series cap {MAX_SERIES_TERMS}")
    num = np.asarray(gf.num, dtype=np.float64)
    den = np.asarray(gf.den, dtype=np.float64)
    coeffs = np.zeros(K + 1)
    for n in range(K + 1):
        acc = num[n] if n < len(num) else 0.0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * coeffs[n - i]
        coeffs[n] = acc / den[0]
        if not math.isfinite(coeffs[n]):
            raise ValidationError(f"series coefficient overflowed at order {n}")
    return coeffs


def two_point_gf(params: WalkParams, z: int, side: str) -> RationalGF:
    """Generating function of the occupation time of {0, +z} or {0, -z}.

    Shared denominator 1 - 2 Q_z w + (Q_z^2 - h^z P_z^2) w^2; the
    numerator is gamma0 P_z w on the positive side and
    gamma0 (1 - Q_z w) on the negative side.
    """
    if side not in ("pos", "neg"):
        raise ValidationError(f"side must be 'pos' or 'neg', got {side!r}")
    law = excursion_law(params, z)
    pz, qz = law.pz, law.qz
    hz = params.h ** z
    gamma0 = params.gamma0
    den = (1.0, -2.0 * qz, qz ** 2 - hz * pz ** 2)
    if side == "pos":
        num = (0.0, gamma0 * pz)
    else:
        num = (gamma0, -gamma0 * qz)
    return RationalGF(num=num, den=den)


def ball_gf(params: WalkParams) -> RationalGF:
    """Generating function of the occupation time of the ball {-1, 0, 1}:
    p gamma0 w / (1 - q w - 2 p q w^2)."""
    p, q = params.p, params.q
    return RationalGF(num=(0.0, p * params.gamma0), den=(1.0, -q, -2.0 * p * q))
