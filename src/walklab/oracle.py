"""Exact finite-horizon laws: path enumeration and dynamic programming.

Ground truth comes in two tiers.  For horizons up to ENUM_MAX_STEPS every
one of the 2^n paths is walked and counted as an exact integer per
(#ups, counter tuple); the law weights those counts by p^#ups q^#downs,
so only the final sum is rounded.  For horizons into the thousands a
forward DP over (position, counter tuple) computes the same law at
machine precision, updating only positions that can still reach a
tracked site.  A certified bridge connects the DP at a large enough
horizon to the infinite-horizon laws: the probability of any tracked
site being revisited after the horizon is bounded explicitly and
returned as part of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ValidationError
from .model import WalkParams

__all__ = [
    "Functional",
    "JointLaw",
    "local_time",
    "set_occupation",
    "enumerate_paths",
    "dp_law",
    "infinite_law",
    "escape_certificate",
]

ENUM_MAX_STEPS = 24
ENUM_BLOCK_STEPS = 16
DP_MAX_STEPS = 5000
DP_STATE_BUDGET = 50_000_000
MASS_TOL = 1e-12


@dataclass(frozen=True)
class Functional:
    """A tracked counter: visits to one site, or to a finite site set.

    Counts above `cap` are pooled into the top bucket rather than
    rejected; the laws of interest decay geometrically, so pooled mass is
    part of the truncation certificate, not an error.
    """

    kind: str
    sites: tuple[int, ...]
    cap: int

    def __post_init__(self):
        if self.kind not in ("local_time", "set_occupation"):
            raise ValidationError(f"unknown functional kind {self.kind!r}")
        if self.kind == "local_time" and len(self.sites) != 1:
            raise ValidationError("local_time tracks exactly one site")
        if not self.sites:
            raise ValidationError("site list must be nonempty")
        if self.cap < 1:
            raise ValidationError(f"cap must be >= 1, got {self.cap}")
        object.__setattr__(self, "sites", tuple(sorted(set(self.sites))))


def local_time(site: int, cap: int) -> Functional:
    return Functional(kind="local_time", sites=(site,), cap=cap)


def set_occupation(sites, cap: int) -> Functional:
    return Functional(kind="set_occupation", sites=tuple(sites), cap=cap)


@dataclass(frozen=True)
class JointLaw:
    """Joint law of counter tuples; axis i indexes counts of axes[i].

    Index `cap` of each axis pools all counts >= cap.  overflow_mass is
    the total mass sitting in any pooled bucket.  certificate bounds the
    distance to the corresponding infinite-horizon law (0 for laws that
    are exact at their stated horizon).
    """

    axes: tuple[Functional, ...]
    table: np.ndarray
    horizon: int
    certificate: float = 0.0
    overflow_mass: float = field(init=False, default=0.0)

    def __post_init__(self):
        total = float(self.table.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"law mass {total} differs from 1 beyond tolerance")
        overflow = 0.0
        for axis, fn in enumerate(self.axes):
            sl = [slice(None)] * self.table.ndim
            sl[axis] = fn.cap
            overflow += float(self.table[tuple(sl)].sum())
        object.__setattr__(self, "overflow_mass", min(overflow, total))

    def prob(self, counts: tuple[int, ...]) -> float:
        return float(self.table[counts])

    def marginal(self, axis: int) -> np.ndarray:
        other = tuple(i for i in range(self.table.ndim) if i != axis)
        return self.table.sum(axis=other) if other else self.table.copy()

    def to_dict(self) -> dict:
        nz = np.argwhere(self.table > 0.0)
        return {
            "axes": [
                {"kind": f.kind, "sites": list(f.sites), "cap": f.cap}
                for f in self.axes
            ],
            "horizon": self.horizon,
            "certificate": self.certificate,
            "overflow_mass": self.overflow_mass,
            "entries": [
                {"counts": idx.tolist(), "mass": float(self.table[tuple(idx)])}
                for idx in nz
            ],
        }


def _validate_functionals(functionals) -> tuple[Functional, ...]:
    fns = tuple(functionals)
    if not fns:
        raise ValidationError("at least one functional is required")
    return fns


def _path_counts(n: int, fns: tuple[Functional, ...]) -> np.ndarray:
    """Exact number of n-step paths for each (#ups, counter tuple).

    The int64 table has shape (n + 1, cap_1 + 1, ...); its entries sum to
    2^n.  Paths are built by doubling: each step sends every path to its
    up and down extensions, updating position and counters in O(1) work
    per new path.  At most 2^ENUM_BLOCK_STEPS paths are held at once, so
    beyond that many steps the prefixes are extended in chunks.
    """
    dims = tuple(f.cap + 1 for f in fns)
    # position + n lies in [0, 2n] and ends at 2 * #ups; for n <= 24 it
    # and the counters, clamped at min(cap, n), fit int8
    hits = []
    for f in fns:
        hit = np.zeros(2 * n + 1, dtype=np.int8)
        hit[[s + n for s in f.sites if abs(s) <= n]] = 1
        hits.append(hit)
    tops = [min(f.cap, n) for f in fns]

    def extend(pos, counts, steps):
        for _ in range(steps):
            pos = np.concatenate((pos + 1, pos - 1))
            counts = [
                np.minimum(np.concatenate((c, c)) + hit[pos], top)
                for c, hit, top in zip(counts, hits, tops)
            ]
        return pos, counts

    head = min(n, ENUM_BLOCK_STEPS)
    prefix_pos, prefix_counts = extend(
        np.array([n], dtype=np.int8), [np.zeros(1, dtype=np.int8) for _ in fns], head
    )
    chunk = 1 << (ENUM_BLOCK_STEPS - (n - head))
    size = (n + 1) * math.prod(dims)
    table = np.zeros(size, dtype=np.int64)
    for start in range(0, prefix_pos.size, chunk):
        pos, counts = extend(
            prefix_pos[start : start + chunk],
            [c[start : start + chunk] for c in prefix_counts],
            n - head,
        )
        index = pos.astype(np.intp) >> 1
        for c, dim in zip(counts, dims):
            index = index * dim + c
        table += np.bincount(index, minlength=size)
    return table.reshape((n + 1,) + dims)


def enumerate_paths(params: WalkParams, n: int, functionals) -> JointLaw:
    """Exact law from all 2^n paths, counted by #ups and counter tuple.

    The path counts are exact integers and do not depend on p; each
    entry of the law is then a sum over u = 0..n of p^u q^(n-u) times
    the number of paths with u ups landing in that entry.
    """
    if n < 1 or n > ENUM_MAX_STEPS:
        raise ValidationError(f"enumeration requires 1 <= n <= {ENUM_MAX_STEPS}, got {n}")
    fns = _validate_functionals(functionals)
    if len(fns) > 2:
        raise ValidationError("enumeration supports at most 2 functionals")
    ups = np.arange(n + 1)
    weights = params.p**ups * params.q ** (n - ups)
    table = np.tensordot(weights, _path_counts(n, fns), axes=1)
    return JointLaw(axes=fns, table=table, horizon=n)


def _apply_visit(row: np.ndarray, axis: int, cap: int) -> None:
    """Counter increment with pooling at cap, in place along one axis."""
    moved = np.moveaxis(row, axis, 0)
    moved[cap] += moved[cap - 1]
    if cap > 1:
        moved[1:cap] = moved[0 : cap - 1].copy()
    moved[0] = 0.0


def dp_law(params: WalkParams, n: int, functionals) -> JointLaw:
    """Forward DP over (position, counter tuple) states.

    Agrees with path enumeration up to rounding (the same products,
    summed in a different order) and scales to horizons in the
    thousands.  After step t only live positions are updated: those in
    the reachability cone |position| <= t that can still reach a tracked
    site, i.e. lie in [min(sites) - (n - t), max(sites) + (n - t)].  Mass
    leaving that window visits no tracked site again, so its counters are
    final and it moves straight into the output table.
    """
    if n < 1 or n > DP_MAX_STEPS:
        raise ValidationError(f"DP requires 1 <= n <= {DP_MAX_STEPS}, got {n}")
    fns = _validate_functionals(functionals)
    dims = tuple(f.cap + 1 for f in fns)
    n_states = (2 * n + 1) * int(np.prod(dims))
    if n_states > DP_STATE_BUDGET:
        raise BudgetError(
            f"DP state space {n_states} exceeds budget {DP_STATE_BUDGET} "
            f"(positions {2 * n + 1}, counter dims {dims})"
        )
    for f in fns:
        if any(abs(s) > n for s in f.sites):
            raise ValidationError(f"tracked sites {f.sites} unreachable within n={n}")
    p, q = params.p, params.q
    # array index = position + n
    visits = [(axis, s + n, f.cap) for axis, f in enumerate(fns) for s in f.sites]
    lowest = min(s for _, s, _ in visits)
    highest = max(s for _, s, _ in visits)
    state = np.zeros((2 * n + 1,) + dims)
    state[(n,) + (0,) * len(fns)] = 1.0
    new = np.empty_like(state)
    table = np.zeros(dims)
    a = b = n  # live window of the previous step
    for t in range(1, n + 1):
        # new[a-1 : b+2] = down-steps from [a, b] plus up-steps from [a, b]
        np.multiply(state[a : b + 1], q, out=new[a - 1 : b])
        new[b : b + 2] = 0.0
        new[a + 1 : b + 2] += p * state[a : b + 1]
        for axis, s, cap in visits:
            if a - 1 <= s <= b + 1:
                _apply_visit(new[s], axis, cap)
        live_a = max(a - 1, lowest - (n - t))
        live_b = min(b + 1, highest + (n - t))
        table += new[a - 1 : live_a].sum(axis=0) + new[live_b + 1 : b + 2].sum(axis=0)
        a, b = live_a, live_b
        state, new = new, state
    table += state[a : b + 1].sum(axis=0)
    return JointLaw(axes=fns, table=table, horizon=n)


def escape_certificate(params: WalkParams, sites, n: int) -> float:
    """Upper bound on the probability that any of `sites` is visited
    after step n: an exponential bound on the point probabilities,
    summed over all later times and tracked sites."""
    p, q = params.p, params.q
    c2 = -0.5 * math.log(4.0 * p * q)
    c3 = 0.5 * math.log(p / q)
    r = math.exp(-c2)
    tail = r ** (n + 1) / (1.0 - r)
    return sum(math.exp(c3 * s) for s in sites) * tail


def infinite_law(params: WalkParams, functionals, eps: float) -> JointLaw:
    """Infinite-horizon law via DP at a horizon certified to within eps.

    The horizon doubles until the no-more-visits bound clears eps; every
    reported entry then differs from the infinite-horizon value by at
    most the returned certificate.
    """
    if eps <= 0.0:
        raise ValidationError(f"eps must be positive, got {eps}")
    fns = _validate_functionals(functionals)
    all_sites = sorted({s for f in fns for s in f.sites})
    n = 25
    while escape_certificate(params, all_sites, n) >= eps:
        n *= 2
        if n > DP_MAX_STEPS:
            raise BudgetError(
                f"horizon needed for eps={eps} exceeds DP budget {DP_MAX_STEPS}"
            )
    law = dp_law(params, n, fns)
    cert = escape_certificate(params, all_sites, n)
    return JointLaw(axes=law.axes, table=law.table, horizon=n, certificate=cert)
