"""Exact distributions of local and occupation times of the drifted walk.

All laws here are elementary closed forms: geometric laws for single-site
visit counts, two-geometric mixtures for two-point occupation, and
negative-binomial style joint laws for the center/sphere decomposition.
Truncated tables carry an analytically exact geometric tail bound so that
normalization can be certified rather than estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .model import WalkParams

__all__ = [
    "PmfTable",
    "ExcursionLaw",
    "first_return_pmf",
    "return_tail",
    "hitting_prob",
    "green",
    "local_time_pmf",
    "gambler_ruin",
    "excursion_law",
    "excursion_visits_pmf",
    "excursion_mean_visits",
    "joint_transform",
    "two_point_occupation_pmf",
    "center_sphere_joint_pmf",
    "sphere_occupation_pmf",
    "ball_occupation_pmf",
]


@dataclass(frozen=True)
class PmfTable:
    """Finite (possibly truncated) probability mass function.

    support     strictly increasing integer outcomes
    mass        probability of each outcome
    tail_bound  exact remaining mass beyond the listed support
    """

    support: np.ndarray
    mass: np.ndarray
    tail_bound: float

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        mass = np.asarray(self.mass, dtype=np.float64)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)
        if support.shape != mass.shape:
            raise ValidationError("support and mass must have equal length")
        if len(support) > 1 and not np.all(np.diff(support) > 0):
            raise ValidationError("support must be strictly increasing")

    def total_mass(self) -> float:
        """Listed mass plus the tail certificate."""
        return float(self.mass.sum()) + self.tail_bound

    def prob(self, k: int) -> float:
        idx = np.searchsorted(self.support, k)
        if idx < len(self.support) and self.support[idx] == k:
            return float(self.mass[idx])
        return 0.0

    def mean(self) -> float:
        """Mean over the listed support (ignores the tail)."""
        return float(np.dot(self.support, self.mass))


@dataclass(frozen=True)
class ExcursionLaw:
    """Hit-before-return probabilities for the level z > 0.

    pz      probability of reaching +z before returning to 0
    qz      1 - pz, return (or escape downward) before reaching +z
    """

    z: int
    pz: float
    qz: float


def _log_binom(n: float, k: float) -> float:
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def first_return_pmf(params: WalkParams, n: int) -> float:
    """P(first return to the origin happens exactly at step 2n)."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    p, q = params.p, params.q
    log_mass = (
        _log_binom(2 * n, n) - math.log(2 * n - 1) + n * math.log(p * q)
    )
    return math.exp(log_mass)


def return_tail(params: WalkParams, n: int) -> tuple[float, float, float]:
    """Exact return-time tail quantities at horizon n.

    Returns (P(n <= T < infinity), P(no return before step n),
    P(T < n, first step up)).  The tail is computed as the exact total
    return mass 2q minus the partial sum of the return-time pmf, not as
    an asymptotic bound.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    q = params.q
    partial = sum(first_return_pmf(params, m) for m in range(1, (n - 1) // 2 + 1))
    tail = 2.0 * q - partial
    gamma0_n = 1.0 - partial
    q_n = q - tail / 2.0
    return tail, gamma0_n, q_n


def hitting_prob(params: WalkParams, z: int) -> float:
    """P(the walk ever visits z at a positive time)."""
    if z > 0:
        return 1.0
    if z == 0:
        return 2.0 * params.q
    return params.h ** (-z)


def green(params: WalkParams, z: int) -> float:
    """Expected number of visits to z, counting the start when z = 0."""
    g0 = 1.0 / params.gamma0
    if z > 0:
        return g0
    return g0 * params.h ** (-z)


def local_time_pmf(params: WalkParams, z: int, kmax: int) -> PmfTable:
    """Law of the total number of visits to site z over the infinite path.

    Geometric with ratio 2q; sites below the start carry an extra atom at
    zero (the walk may escape without ever reaching them).
    """
    if kmax < 0:
        raise ValidationError(f"kmax must be >= 0, got {kmax}")
    q = params.q
    r = 2.0 * q
    if z == 0:
        ks = np.arange(0, kmax + 1)
        mass = (1.0 - r) * r ** ks.astype(float)
        tail = r ** (kmax + 1)
    elif z > 0:
        ks = np.arange(1, kmax + 1)
        mass = (1.0 - r) * r ** (ks.astype(float) - 1.0)
        tail = r ** kmax
    else:
        atom = 1.0 - params.h ** (-z)
        hz = params.h ** (-z)
        ks = np.arange(0, kmax + 1)
        mass = np.empty(len(ks))
        mass[0] = atom
        mass[1:] = hz * (1.0 - r) * r ** (ks[1:].astype(float) - 1.0)
        tail = hz * r ** kmax
    return PmfTable(support=ks, mass=mass, tail_bound=float(tail))


def gambler_ruin(params: WalkParams, a: int, b: int, c: int) -> float:
    """Probability that, started at b, the walk hits a before c."""
    if not (0 <= a < b < c):
        raise ValidationError(f"levels must satisfy 0 <= a < b < c, got {(a, b, c)}")
    h = params.h
    return 1.0 - (1.0 - h ** (b - a)) / (1.0 - h ** (c - a))


def excursion_law(params: WalkParams, z: int) -> ExcursionLaw:
    """Hit-before-return probabilities for the level z > 0."""
    if z < 1:
        raise ValidationError(f"z must be a positive integer, got {z}")
    p, h = params.p, params.h
    pz = p * (1.0 - h) / (1.0 - h ** z)
    return ExcursionLaw(z=z, pz=pz, qz=1.0 - pz)


def excursion_mean_visits(params: WalkParams, z: int) -> float:
    """Expected visits to z during one excursion, conditioned on return.

    h^|z| / (2q) away from the origin, 1 at the origin.  This is the
    profile shape of local time around heavily visited sites.
    """
    if z == 0:
        return 1.0
    return params.h ** abs(z) / (2.0 * params.q)


def excursion_visits_pmf(
    params: WalkParams, z: int, jmax: int, side: str = "pos"
) -> tuple[PmfTable, PmfTable]:
    """Joint law of the first-excursion visit count to +/-z and the
    return event.

    Returns (finite_return, no_return) sub-probability tables.  The
    finite-return branch is identical for the two sides; the no-return
    branch is geometric for the upper site and a single atom at zero for
    the mirrored one (escape to the right cannot touch -z without first
    crossing the origin).
    """
    if z < 1:
        raise ValidationError(f"z must be a positive integer, got {z}")
    if side not in ("pos", "neg"):
        raise ValidationError(f"side must be 'pos' or 'neg', got {side!r}")
    law = excursion_law(params, z)
    pz, qz = law.pz, law.qz
    hz = params.h ** z
    gamma0 = params.gamma0

    js = np.arange(0, jmax + 1)
    fin = np.empty(jmax + 1)
    fin[0] = qz
    fin[1:] = hz * pz ** 2 * qz ** (js[1:].astype(float) - 1.0)
    # remaining finite-branch mass: sum_{j>jmax} h^z pz^2 qz^{j-1}
    fin_tail = hz * pz * qz ** jmax
    finite = PmfTable(support=js, mass=fin, tail_bound=float(fin_tail))

    if side == "pos":
        inf_js = np.arange(1, jmax + 1)
        inf_mass = gamma0 * pz * qz ** (inf_js.astype(float) - 1.0)
        inf_tail = gamma0 * qz ** jmax
        infinite = PmfTable(support=inf_js, mass=inf_mass, tail_bound=float(inf_tail))
    else:
        infinite = PmfTable(
            support=np.array([0]), mass=np.array([gamma0]), tail_bound=0.0
        )
    return finite, infinite


_RADIUS_GUARD = 1e-9


def joint_transform(
    params: WalkParams, z: int, k: int, v: float, sign: str = "pos"
) -> float:
    """E(exp(v * total visits to +/-z); total visits to 0 equals k).

    Valid strictly below the pole of the excursion transform; requests
    at or above the radius (minus a small guard band) are rejected.
    """
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    if sign not in ("pos", "neg"):
        raise ValidationError(f"sign must be 'pos' or 'neg', got {sign!r}")
    law = excursion_law(params, z)
    radius = -math.log(law.qz)
    if v >= radius - _RADIUS_GUARD:
        raise DomainError(
            f"v={v} at or above the convergence radius {radius:.12g}"
        )
    q = params.q
    hz = params.h ** z
    gamma0 = params.gamma0
    ev = math.exp(v)
    denom = 1.0 - law.qz * ev
    phi = (law.qz + hz * law.pz ** 2 * ev / denom) / (2.0 * q)
    value = gamma0 * (2.0 * q * phi) ** k
    if sign == "pos":
        psi = ev * law.pz / denom
        value *= psi
    return value


def _power_gap(a: float, b: float, d: float, k, log_c: float = 0.0):
    """a^k - c b^k with c = exp(log_c), given d = b - a exactly.

    For 0 < b < a this is -a^k expm1(k log1p(d / a) + log_c), which keeps
    its relative precision when b is close to a; the direct difference
    cancels there.  For b <= 0 no such cancellation arises.
    """
    if b > 0.0:
        return -(a ** k) * np.expm1(k * math.log1p(d / a) + log_c)
    return a ** k - math.exp(log_c) * b ** k


def two_point_occupation_pmf(
    params: WalkParams, z: int, side: str, kmax: int
) -> PmfTable:
    """Law of the total occupation time of the pair {0, +z} or {0, -z}.

    A mixture of two geometric sequences.  Support starts at 1 on the
    positive side (the upward drift visits +z almost surely) and at 0 on
    the negative side (the walk may escape without touching either site).
    """
    if side not in ("pos", "neg"):
        raise ValidationError(f"side must be 'pos' or 'neg', got {side!r}")
    a, b = params.two_point_bases(z)
    s = math.exp(0.5 * z * params.log_h)
    gamma0 = params.gamma0
    if side == "pos":
        # a - b = 2 s gamma0 / (1 - s^2) exactly; the tails use the exact
        # 1 - a = gamma0 / (1 + s) and 1 - b = gamma0 / (1 - s)
        d = -2.0 * s * gamma0 / (1.0 - s * s)
        ks = np.arange(1, kmax + 1)
        mass = gamma0 / (2.0 * s) * _power_gap(a, b, d, ks.astype(float))
        tail = (1.0 + s) / (2.0 * s) * _power_gap(
            a, b, d, kmax + 1.0, math.log1p(-2.0 * s / (1.0 + s))
        )
    else:
        ks = np.arange(0, kmax + 1)
        kf = ks.astype(float)
        mass = gamma0 / 2.0 * (a ** kf + b ** kf)
        tail = ((1.0 + s) * a ** (kmax + 1) + (1.0 - s) * b ** (kmax + 1)) / 2.0
    return PmfTable(support=ks, mass=mass, tail_bound=float(tail))


def center_sphere_joint_pmf(params: WalkParams, start: int, K: int, L: int) -> float:
    """P(total sphere occupation = L, total origin visits = K) with the
    walk started at `start` in {0, 1, -1}.

    The sphere is the pair {-1, 1}; counts exclude the starting position
    itself.  Computed in log space so that L, K of order log n and far
    beyond stay representable.
    """
    p, q = params.p, params.q
    gamma0 = params.gamma0
    if start == 0:
        if K < 0 or L < K + 1:
            raise ValidationError(
                f"start=0 requires K >= 0 and L >= K+1, got K={K}, L={L}"
            )
        log_mass = (
            _log_binom(L - 1, K)
            + K * math.log(2.0 * p)
            + (L - 1) * math.log(q)
            + math.log(p * gamma0)
        )
        return math.exp(log_mass)
    if start == -1:
        if K < 1 or L < K:
            raise ValidationError(
                f"start=-1 requires K >= 1 and L >= K, got K={K}, L={L}"
            )
        log_mass = (
            _log_binom(L, K)
            + (K - 1) * math.log(2.0 * p)
            + (L - 1) * math.log(q)
            + math.log(p * p * gamma0)
        )
        return math.exp(log_mass)
    if start == 1:
        if K == 0:
            if L < 0:
                raise ValidationError(f"start=1, K=0 requires L >= 0, got L={L}")
            return q ** L * gamma0
        if K < 1 or L < K:
            raise ValidationError(
                f"start=1 requires K >= 1 and L >= K (or K=0), got K={K}, L={L}"
            )
        log_mass = (
            _log_binom(L, K)
            + (K - 1) * math.log(2.0 * p)
            + L * math.log(q)
            + math.log(p * gamma0)
        )
        return math.exp(log_mass)
    raise ValidationError(f"start must be one of 0, 1, -1, got {start}")


def sphere_occupation_pmf(params: WalkParams, Lmax: int) -> PmfTable:
    """Law of the total occupation time of the unit sphere {-1, 1}.

    Geometric with ratio r = q(1 + 2p); since 1 - r = p gamma0 exactly,
    the tail beyond Lmax is r^Lmax.
    """
    if Lmax < 1:
        raise ValidationError(f"Lmax must be >= 1, got {Lmax}")
    p, q = params.p, params.q
    gamma0 = params.gamma0
    r = q + 2.0 * p * q
    Ls = np.arange(1, Lmax + 1)
    mass = p * gamma0 * r ** (Ls.astype(float) - 1.0)
    tail = r ** Lmax
    return PmfTable(support=Ls, mass=mass, tail_bound=float(tail))


def ball_occupation_pmf(params: WalkParams, lmax: int) -> PmfTable:
    """Law of the total occupation time of the three-site ball {-1, 0, 1}.

    Difference of two geometric sequences with bases q(1 +/- beta)/2.
    The bases satisfy (1 - b_hi)(1 - b_lo) = p gamma0, and 1 - b_lo > 1
    does not cancel, so the tail takes 1 - b_hi from that product.
    """
    if lmax < 1:
        raise ValidationError(f"lmax must be >= 1, got {lmax}")
    p, q = params.p, params.q
    gamma0, beta = params.gamma0, params.beta
    b_hi = q * (1.0 + beta) / 2.0
    b_lo = q * (1.0 - beta) / 2.0
    c = p * gamma0 / (q * beta)
    ls = np.arange(1, lmax + 1).astype(float)
    mass = c * (b_hi ** ls - b_lo ** ls)
    tail = c * (
        b_hi ** (lmax + 1) * (1.0 - b_lo) / (p * gamma0)
        - b_lo ** (lmax + 1) / (1.0 - b_lo)
    )
    return PmfTable(support=np.arange(1, lmax + 1), mass=mass, tail_bound=float(tail))
