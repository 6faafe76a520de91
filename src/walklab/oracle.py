"""Exact finite-horizon laws: path enumeration and dynamic programming.

A tracked counter (`Functional`) is the number of visits to a finite site
set, pooled at a cap; a local time is the counter of a single site.
Ground truth comes in two tiers.  For horizons up to ENUM_MAX_STEPS every
one of the 2^n paths is walked and counted as an exact integer per
(#ups, counter tuple); the law weights those counts by p^#ups q^#downs,
so only the final sum is rounded.  For horizons into the thousands a
forward DP over (position, counter tuple) computes the same law at
machine precision: the same path weights grouped by excursion.  It steps
only the window from the lowest to the highest of the tracked sites and
0; mass that leaves the window changes no counter until it comes back,
which it does through the first-passage law of the walk from +1 to 0
(the ballot theorem), built here from p alone.  A certified bridge
connects the DP to the infinite-horizon laws: `infinite_law` runs it at
the least horizon at which the escape bound of `model` on any visit to a
tracked site after the horizon is below the requested eps, and returns
that bound as the law's certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ValidationError
from .model import WalkParams, escape_bound, escape_steps

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
    """A tracked counter: the visits to a finite site set (one site for a
    local time).

    Counts above `cap` are pooled into the top bucket rather than
    rejected; the laws of interest decay geometrically, so pooled mass is
    part of the truncation certificate, not an error.
    """

    sites: tuple[int, ...]
    cap: int

    def __post_init__(self):
        if not self.sites:
            raise ValidationError("site list must be nonempty")
        if self.cap < 1:
            raise ValidationError(f"cap must be >= 1, got {self.cap}")
        object.__setattr__(self, "sites", tuple(sorted(set(self.sites))))


def local_time(site: int, cap: int) -> Functional:
    return Functional(sites=(site,), cap=cap)


def set_occupation(sites, cap: int) -> Functional:
    return Functional(sites=tuple(sites), cap=cap)


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
            "axes": [{"sites": list(f.sites), "cap": f.cap} for f in self.axes],
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


def _first_passage(p: float, q: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First passage to 0 of the walk started at +1 that steps up with
    probability p and down with probability q.

    Returns (f, survival).  f[j] is the probability that the first visit
    to 0 falls at step 2j + 1, for the (n + 1) // 2 odd steps up to n; by
    the ballot theorem it is Catalan(j) p^j q^(j+1), built here as a
    cumulative product of the term ratio 2(2j + 1)/(j + 2) pq.
    survival[k] = 1 - sum of f over steps <= k is the probability of no
    visit to 0 within k steps, k = 0..n.  f sums to min(1, q/p).
    """
    j = np.arange((n + 1) // 2 - 1)
    # p and q enter each ratio separately: one rounded pq, raised to the
    # j-th power by the product, would bias f[j] by up to j ulps
    f = q * np.cumprod(np.concatenate(([1.0], 2.0 * (2 * j + 1) / (j + 2) * p * q)))
    # survival takes a compensated running sum: it carries the rounding of
    # every earlier term, and where f sums to 1 it is all cancellation
    tails = []
    total = carry = 0.0
    for term in f.tolist():
        step = term - carry
        new_total = total + step
        carry = (new_total - total) - step
        total = new_total
        tails.append((1.0 - total) + carry)
    survival = np.ones(n + 1)
    survival[1::2] = tails
    survival[2::2] = tails[: n // 2]
    return f, survival


def _visit_index(row: int, axis: int, cap: int) -> tuple:
    """Index tuples (top, below, shifted, source, zero) that raise one
    counter axis at one window row, pooling at cap."""

    def at(k):
        return (row,) + (slice(None),) * axis + (k,)

    return at(cap), at(cap - 1), at(slice(1, cap)), at(slice(0, cap - 1)), at(0)


def dp_law(params: WalkParams, n: int, functionals) -> JointLaw:
    """Forward DP over (position, counter tuple) states in the window
    W = [min(sites + {0}), max(sites + {0})], with excursions outside W
    added back through first-passage kernels.

    These are the same path weights as enumeration's, grouped by
    excursion and summed in a different order, so the two agree up to
    rounding; the DP scales to horizons in the thousands.  Outside W no
    counter changes, and every path that leaves W over its top comes back
    to the top, if at all, after a first passage from +1 to 0.  So the
    mass U_s that steps above W at step s is kept as one counter vector
    and returns to the top at step t with probability f_up(t - s); below
    W, D_s returns to the bottom with the mirror law f_down (p and q
    swapped).  At the horizon each U_s and D_s enters the table weighted
    by its survival, the probability of no return by step n.  The walk
    stands on a site only at steps of the site's parity, so each edge
    sends mass out at every other step and takes returns at the steps
    between, each a single matrix-vector product over the stored exits.
    """
    if n < 1 or n > DP_MAX_STEPS:
        raise ValidationError(f"DP requires 1 <= n <= {DP_MAX_STEPS}, got {n}")
    fns = _validate_functionals(functionals)
    dims = tuple(f.cap + 1 for f in fns)
    size = math.prod(dims)
    n_states = (2 * n + 1) * size
    if n_states > DP_STATE_BUDGET:
        raise BudgetError(
            f"DP state space {n_states} exceeds budget {DP_STATE_BUDGET} "
            f"(positions {2 * n + 1}, counter dims {dims})"
        )
    for f in fns:
        if any(abs(s) > n for s in f.sites):
            raise ValidationError(f"tracked sites {f.sites} unreachable within n={n}")
    p, q = params.p, params.q
    lo = min(0, *(s for f in fns for s in f.sites))
    hi = max(0, *(s for f in fns for s in f.sites))
    width = hi - lo + 1
    # buffer t % 2 holds step t; row = position - lo, counter tuples
    # flattened in C order
    buffers = np.zeros((2, width, size))
    buffers[0, -lo, 0] = 1.0
    grids = buffers.reshape((2, width) + dims)
    # a site holds mass only at steps of its own parity
    visits = ([], [])
    for axis, f in enumerate(fns):
        for s in f.sites:
            visits[s % 2].append(_visit_index(s - lo, axis, f.cap))
    # per edge: (window row, edge site, probability of stepping out, first
    # passage kernel, exits, survival).  The kernel is stored reversed and
    # contiguous, so each step's lags are a forward slice that BLAS takes
    # as is.  The walk leaves over an edge only at steps of the parity
    # opposite to the edge's, so the exit at step s is stored at row s // 2.
    sides = []
    for row, edge, away, back in ((-1, hi, p, q), (0, lo, q, p)):
        f, survival = _first_passage(away, back, n)
        exits = np.zeros((n // 2 + 1, size))
        sides.append((row, edge, away, np.ascontiguousarray(f[::-1]), exits, survival))
    for t in range(1, n + 1):
        state, new, grid = buffers[(t - 1) % 2], buffers[t % 2], grids[t % 2]
        np.multiply(state[1:], q, out=new[:-1])
        new[-1] = 0.0
        new[1:] += p * state[:-1]
        for row, edge, away, kernel, exits, _ in sides:
            if (t - edge) % 2:
                np.multiply(state[row], away, out=exits[t // 2])
            else:
                # returns from the exits at s = t - 1, t - 3, ...: with
                # m = (t - 1) // 2, row r comes back at lag 2(m - r) + 1
                m = (t - 1) // 2
                new[row] += kernel[-(m + 1) :] @ exits[: m + 1]
        for top, below, shifted, source, zero in visits[t % 2]:
            grid[top] += grid[below]
            grid[shifted] = grid[source]
            grid[zero] = 0.0
    table = buffers[n % 2].sum(axis=0)
    for _, edge, _, _, exits, survival in sides:
        steps = np.arange(1 + edge % 2, n + 1, 2)
        table += survival[n - steps] @ exits[steps // 2]
    return JointLaw(axes=fns, table=table.reshape(dims), horizon=n)


def _log_weight(params: WalkParams, sites) -> float:
    """log of the weight W = sum of h^(-s/2) over the sites, summed in log
    space so that far sites do not overflow it."""
    logs = -0.5 * params.log_h * np.asarray(sites, dtype=float)
    return float(np.logaddexp.reduce(logs))


def escape_certificate(params: WalkParams, sites, n: int) -> float:
    """Upper bound on the probability that any of `sites` is visited
    after step n: `escape_bound` of the sites' weight at m = n + 1."""
    return escape_bound(params, _log_weight(params, sites), n + 1)


def infinite_law(params: WalkParams, functionals, eps: float) -> JointLaw:
    """Infinite-horizon law via DP at the least horizon n whose
    certificate is below eps and within which every tracked site is
    reachable.

    n is read off the inverse of the escape bound, so that
    escape_certificate(n) < eps <= escape_certificate(n - 1) unless a
    far site sets n; every reported entry differs from the
    infinite-horizon value by at most the returned certificate.
    """
    if eps <= 0.0:
        raise ValidationError(f"eps must be positive, got {eps}")
    fns = _validate_functionals(functionals)
    all_sites = sorted({s for f in fns for s in f.sites})
    steps = escape_steps(params, _log_weight(params, all_sites), eps)
    n = max(steps - 1, 1, *map(abs, all_sites))
    if n > DP_MAX_STEPS:
        raise BudgetError(
            f"eps={eps} needs horizon n={n}, beyond DP_MAX_STEPS={DP_MAX_STEPS}"
        )
    law = dp_law(params, n, fns)
    cert = escape_certificate(params, all_sites, n)
    return JointLaw(axes=law.axes, table=law.table, horizon=n, certificate=cert)
