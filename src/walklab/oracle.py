"""Exact laws of visit counters.

A tracked counter (`Functional`) is the number of visits to a finite site
set, pooled at a cap; a local time is the counter of a single site.
`enumerate_paths` walks all 2^n paths for n <= ENUM_MAX_STEPS and counts
them as exact integers per (#ups, counter tuple), so only the final sum
is rounded.  `dp_law` gives the same law for horizons into the thousands:
a forward DP over the window from the lowest to the highest tracked site
and 0, with excursions outside it returning through the first-passage
law from +1 to 0 (the ballot theorem).  `infinite_law` needs no horizon:
visits to the tracked sites and 0 form a finite absorbing Markov chain
with gambler's-ruin moves, and the mass that has not escaped when its
sweep stops is the certificate.  All three are built from p alone.
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
]

ENUM_MAX_STEPS = 24
ENUM_BLOCK_STEPS = 16
DP_MAX_STEPS = 5000
DP_STATE_BUDGET = 50_000_000
# infinite_law refuses a law estimated to take over WORK_BUDGET_S, at
# VISIT_COST_S per visit plus STATE_COST_S per state and visit
WORK_BUDGET_S, VISIT_COST_S, STATE_COST_S = 20.0, 20e-6, 3e-9
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
    for f in fns:
        if any(abs(s) > n for s in f.sites):
            raise ValidationError(f"tracked sites {f.sites} unreachable within n={n}")
    dims = tuple(f.cap + 1 for f in fns)
    size = math.prod(dims)
    lo = min(0, *(s for f in fns for s in f.sites))
    hi = max(0, *(s for f in fns for s in f.sites))
    width = hi - lo + 1
    n_states = 2 * (width + n // 2 + 1) * size
    if n_states > DP_STATE_BUDGET:
        raise BudgetError(
            f"DP state space {n_states} exceeds budget {DP_STATE_BUDGET} (2 x {width} "
            f"window rows and 2 x {n // 2 + 1} exit rows, counter dims {dims})"
        )
    p, q = params.p, params.q
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


def _chain(params: WalkParams, sites: list[int]) -> np.ndarray:
    """move[i, j]: the chance that the visit to the sorted `sites` after
    one at sites[i] is at sites[j].  Between neighbours a < a + g the walk
    reaches a + g before a from a + 1 with the gambler's-ruin probability
    (1 - h)/(1 - h^g), and from a + g - 1 with (1 - h^(g-1))/(1 - h^g),
    taken through expm1 of log h = log1p(-gamma0/p) so that nothing
    cancels near p = 1/2.  Below the lowest site the walk surely comes
    back; only the top row loses mass, the escape for good, gamma0.
    """
    log_h = math.log1p(-params.gamma0 / params.p)
    gaps = np.diff(sites)
    whole = np.expm1(gaps * log_h)
    up = np.expm1(log_h) / whole
    # a step away that comes back: p (1 - up) = q (1 - h^(g-1))/(1 - h^g)
    back = np.expm1((gaps - 1) * log_h) / whole
    move = np.diag(params.q * (np.append(back, 1.0) + np.append(1.0, back)))
    below = np.arange(len(gaps))
    move[below, below + 1] = params.p * up
    move[below + 1, below] = params.q * np.exp((gaps - 1) * log_h) * up
    return move


def _visit_bound(move: np.ndarray, eps: float, most: float) -> float:
    """The smallest power of two m for which every row of move^m sums to
    less than eps: after m visits less than eps of the mass is left from
    any start.  move^m is found by squaring, and the squaring stops once
    m passes `most` visits; m then goes on doubling on paper, since the
    row sums of a square are at most the square of the largest.  A row
    sum that rounds to 1 gives an infinite bound."""
    visits, power = 1, move
    rows = float(power.sum(axis=1).max())
    while rows >= eps and visits <= most:
        power = power @ power
        visits *= 2
        rows = float(power.sum(axis=1).max())
    if rows < eps:
        return visits
    if rows >= 1.0:
        return math.inf
    # the least number of doublings d with rows^(2^d) < eps
    return visits * 2.0 ** (math.floor(math.log2(math.log(eps) / math.log(rows))) + 1)


def infinite_law(params: WalkParams, functionals, eps: float) -> JointLaw:
    """Infinite-horizon law from the chain of visits to the tracked sites
    and 0, swept one visit at a time until less than eps of its mass is
    left.  The start at 0 is not counted.  At each visit gamma0 times the
    mass at the top escapes and enters the table at its counters; the
    state then moves and the counters of the visited site are raised.
    The left-over mass, the certificate, enters the table at its present
    counters, so each entry is within it of its exact value; `horizon` is
    the number of visits run.  The mass left after m visits is at most
    the largest row sum of move^m, so the smallest power of two m with
    that sum below eps bounds the work up front (`_visit_bound`).
    """
    if not eps > 0.0:
        raise ValidationError(f"eps must be positive, got {eps}")
    fns = _validate_functionals(functionals)
    sites = sorted({0, *(s for f in fns for s in f.sites)})
    move = _chain(params, sites)
    dims = (len(sites),) + tuple(f.cap + 1 for f in fns)
    n_states = math.prod(dims)
    cost = VISIT_COST_S + STATE_COST_S * n_states
    visits = _visit_bound(move, eps, WORK_BUDGET_S / cost)
    seconds = visits * cost
    if seconds > WORK_BUDGET_S or n_states > DP_STATE_BUDGET:
        raise BudgetError(
            f"eps={eps} may need {visits:.3g} visits of {n_states} states, about {seconds:.3g} s;"
            f" the budgets are {WORK_BUDGET_S} s and {DP_STATE_BUDGET} states"
        )
    state = np.zeros((len(sites), n_states // len(sites)))
    state[sites.index(0), 0] = 1.0
    raises = [_visit_index(sites.index(s), i, f.cap) for i, f in enumerate(fns) for s in f.sites]
    table = np.zeros(state.shape[1])
    horizon, left = 0, 1.0
    while left >= eps:
        table += params.gamma0 * state[-1]
        state = move.T @ state
        grid = state.reshape(dims)
        for top, below, shifted, source, zero in raises:
            grid[top] += grid[below]
            grid[shifted] = grid[source]
            grid[zero] = 0.0
        horizon += 1
        left = float(state.sum())
    table += state.sum(axis=0)
    return JointLaw(fns, table.reshape(dims[1:]), horizon, certificate=left)
