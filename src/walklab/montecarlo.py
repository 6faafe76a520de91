"""Walk simulation: single long paths and replica ensembles.

Single-path statistics (visit-count spectra, new-maximum counts, maximal
local and occupation times, heavy-site profiles) come from one path's
local-time field, built block by block without keeping the trajectory:
each block is binned over its own range, and the bins are added into a
field allocated once at the size of the whole range.  `PathReport` keeps
that field, and its (local time, sphere occupation) cloud is derived
from it when read.  Distributional checks come from ensembles of
independent replicas.
"Infinite-time" quantities are exact: a walk that steps just above every
tracked site returns to the highest one with probability exactly h, so
one uniform decides between a return and escape for good, and no count
is truncated.  A replica still walking after the step budget that a
Chernoff bound sets from p raises BudgetError, and so does a walk whose
budget exceeds what its step counter holds.

Two facts of the +-1 walk let every path statistic be read from the
dense counts alone:

(a) Every site is visited: S_1..S_n move by one at a time, so they cover
    exactly the interval min_site..max_site, and each count in it is > 0.
(b) New maxima step by one: a strict new maximum above 0 and every
    earlier position is exactly one above the previous one, so their
    number nu_n is max(0, max_site).

Every quantity is a pure function of (config, seed): step t of replica r
is the same counter-based draw in every routine (see `rng`), chunks
merge associatively, so results are identical under any parallel
schedule.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .model import WalkParams, derived_constants
from .closedform import excursion_mean_visits
from .rng import BLOCK_LANES, counter_steps

__all__ = [
    "SimConfig",
    "HeavyPointConfig",
    "LocalTimeField",
    "PathReport",
    "EnsembleReport",
    "simulate_path",
    "path_report",
    "heavy_deviation",
    "ensemble",
]

_CHUNK_REPLICAS = 1 << 15
_ROUND = 8  # steps an alive replica draws per round of an escape walk
_BUDGET_MISS = 1e-18  # chance that a correct replica outruns its step budget
_SLICE = 1 << 16  # sites per slice of the pair sums in _xi_star


@dataclass(frozen=True)
class HeavyPointConfig:
    """Window and threshold for the profile around heavily visited sites.

    delta_n   slack in the heaviness threshold (1 - delta_n) * rate * log n
    c         window radius coefficient, |z| <= c * log log n
    """

    delta_n: float = 0.2
    c: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.delta_n < 1.0:
            raise ValidationError(f"delta_n must be in [0, 1), got {self.delta_n}")
        if self.c <= 0.0:
            raise ValidationError(f"c must be positive, got {self.c}")

    def check_window(self, params: WalkParams) -> None:
        alpha = math.log(1.0 / params.h)
        if alpha * self.c >= 1.0:
            raise ValidationError(
                f"window too wide: alpha*c = {alpha * self.c:.6g} must be < 1"
            )


@dataclass(frozen=True)
class SimConfig:
    params: WalkParams
    n: int
    replicas: int = 1
    seed: int = 0
    heavy: HeavyPointConfig | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.replicas < 1:
            raise ValidationError(f"replicas must be >= 1, got {self.replicas}")


@dataclass(frozen=True)
class LocalTimeField:
    """Visit counts of one path over steps 1..n, stored densely.

    counts[i] is the number of visits to site min_site + i.  The counts
    sum to n by construction, and each is positive (fact (a) of the
    module docstring).
    """

    counts: np.ndarray
    min_site: int
    max_site: int
    n: int
    final_position: int

    def count(self, site: int) -> int:
        if site < self.min_site or site > self.max_site:
            return 0
        return int(self.counts[site - self.min_site])

    def spectrum(self) -> np.ndarray:
        """Qtilde(k, n): the number of sites visited exactly k times.
        Entry 0 is 0: every site of the range is visited (fact (a))."""
        return np.bincount(self.counts)

    def new_maxima(self) -> int:
        """nu_n: the steps i with S_i > max(0, S_1, ..., S_{i-1}).  Each
        is one above the previous maximum (fact (b)), so there are
        max(0, max_site) of them."""
        return max(0, self.max_site)


@dataclass(frozen=True)
class PathReport:
    """Single-path statistics at horizon n.

    `counts` is the path's local-time field at the horizon
    (`LocalTimeField.counts`); `cloud` is derived from it on each read.
    """

    n: int
    seed: int
    qtilde: np.ndarray  # qtilde[k] = number of sites visited exactly k times
    nu_n: int  # strict new maxima above the start (LocalTimeField.new_maxima)
    xi_max: int  # maximal single-site visit count within the horizon
    eta_max: int  # maximal total (infinite-time) visit count on the path
    xi_star: dict  # z -> maximal occupation of a translate of {0, z}
    counts: np.ndarray  # visits to site min_site + i within the horizon
    heavy: dict | None

    @property
    def cloud(self) -> np.ndarray:
        """(site local time, sphere occupation) / log n pairs, one row per
        site of the range and its two neighbours, built on each read."""
        return _cloud(self.counts, self.n)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "qtilde": self.qtilde.tolist(),
            "nu_n": self.nu_n,
            "xi_max": self.xi_max,
            "eta_max": self.eta_max,
            "xi_star": {str(z): int(v) for z, v in self.xi_star.items()},
            "cloud_size": len(self.counts) + 2,
            "heavy": self.heavy,
        }


@dataclass(frozen=True)
class EnsembleReport:
    """Summary of one statistic over a replica ensemble.

    Every statistic is an exact sample of infinite-time counts: replicas
    are followed until they escape for good, so the histogram carries no
    truncation bias, only sampling error.  `words` is the number of RNG
    words the replicas drew, summed over chunks; like every other field
    it does not depend on the thread count.
    """

    statistic: str
    replicas: int
    mean: float
    variance: float
    sem: float
    ci95: tuple[float, float]
    words: int
    histogram: np.ndarray

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "replicas": self.replicas,
            "words": self.words,
            "mean": self.mean,
            "variance": self.variance,
            "sem": self.sem,
            "ci95": list(self.ci95),
            "histogram": self.histogram.tolist(),
        }


def _position_blocks(params: WalkParams, n: int, seed: int):
    """S_1..S_n as consecutive int32 arrays, one per 2^16-step block."""
    carry = np.int32(0)
    for start in range(0, n, BLOCK_LANES):
        width = min(BLOCK_LANES, n - start)
        steps = counter_steps(params.p, seed, 0, width, start)
        pos = carry + np.cumsum(steps, dtype=np.int32)
        carry = pos[-1]
        yield pos


def _positions(params: WalkParams, n: int, seed: int) -> np.ndarray:
    """The full trajectory S_1..S_n as int32 (a reference for tests)."""
    out = np.empty(n, dtype=np.int32)
    start = 0
    for pos in _position_blocks(params, n, seed):
        out[start : start + len(pos)] = pos
        start += len(pos)
    return out


def simulate_path(params: WalkParams, n: int, seed: int) -> LocalTimeField:
    """One sampled path's local-time field; bit-reproducible in
    (params, n, seed).

    The path is made one block at a time, and each block is binned over
    its own range b_lo..b_hi.  The field is then allocated once at the
    size of the whole range and each block's bins are added into it.
    The bins of all blocks together are about the size of the range.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    bins = []
    for pos in _position_blocks(params, n, seed):
        b_lo = int(pos.min())
        bins.append((b_lo, np.bincount(pos - b_lo)))
    lo = min(b_lo for b_lo, _ in bins)
    hi = max(b_lo + len(b) - 1 for b_lo, b in bins)
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    for b_lo, b in bins:
        counts[b_lo - lo : b_lo - lo + len(b)] += b
    return LocalTimeField(
        counts=counts, min_site=lo, max_site=hi, n=n, final_position=int(pos[-1])
    )


def _step_budget(params: WalkParams, rise: int) -> int:
    """Steps after which a replica that walks from hi - rise has left
    the sites <= hi for good, except with probability _BUDGET_MISS.

    By the Chernoff bound P(S_t = s) <= rho^t h^(-s/2), rho = 2 sqrt(pq),
    a visit at step m or later to sites of weight W = sum of h^(-s/2) has
    probability at most W rho^m / (1 - rho).  Seen from the start the
    sites are rise, rise - 1, ..., of weight h^(-rise/2) / (1 - sqrt h);
    1 - sqrt h = gamma0 / (p (1 + sqrt h)), log rho = log1p(-gamma0^2)/2
    and 1 - rho = gamma0^2 / (1 + rho) do not cancel as p nears 1/2.  An
    exact-escape walk takes no more steps than the walk it stands for,
    and its last round draws up to _ROUND more words and a decision.
    """
    g2 = params.gamma0 * params.gamma0
    log_weight = -0.5 * rise * params.log_h - math.log(
        params.gamma0 / (params.p * (1.0 + math.sqrt(params.h)))
    )
    log_gap = math.log(g2 / (1.0 + math.sqrt(4.0 * params.p * params.q)))
    steps = (math.log(_BUDGET_MISS) - log_weight + log_gap) / (0.5 * math.log1p(-g2))
    return max(math.ceil(steps), 0) + _ROUND + 2


def _escape_visits(
    params: WalkParams,
    seed: int,
    replica_ids: np.ndarray,
    start: int,
    first_step: int,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Every visit at steps >= first_step to the sites lo..hi, with each
    walk run to the end of time.

    Replica `replica_ids[i]` walks from `start`, reading its stream from
    step `first_step` on.  Above hi the walk visits no site of lo..hi,
    and from hi + d it ever returns to hi with probability exactly h^d.
    So a replica that steps to hi + 1 decides with the uniform u of its
    next step: if u < h it is counted at hi and walks on from there,
    otherwise it is done.  The counts are exact, with no truncation.

    Each round, an alive replica draws the next `_ROUND` steps of its own
    stream, so each draws the words it uses plus at most `_ROUND - 1`
    after each step to hi + 1.  Returns the row (index into
    `replica_ids`) and site of every visit, in no fixed order, and the
    number of words drawn.  A replica still walking after `_step_budget`
    steps raises BudgetError.
    """
    p, h = params.p, params.h
    budget = _step_budget(params, hi - start)
    if first_step + budget >= 1 << 63:
        raise BudgetError(
            f"escape needs up to {budget} steps, beyond the 2^63 that a "
            f"replica's step counter holds"
        )
    ids = np.asarray(replica_ids, dtype=np.uint64)
    rows = np.arange(len(ids))
    pos = np.full(len(ids), start, dtype=np.int64)
    step = np.full(len(ids), first_step, dtype=np.int64)
    gap = start - hi  # how far above hi the replicas waiting to decide stand
    hit_rows, hit_sites = [rows[:0]], [pos[:0]]
    words = 0
    while len(rows):
        above = pos > hi
        if above.any():
            back = counter_steps(h**gap, seed, ids[above], 1, step[above])[:, 0] > 0
            words += len(back)
            hit_rows.append(rows[above][back])
            hit_sites.append(np.full(int(back.sum()), hi, dtype=np.int64))
            keep = ~above
            keep[above] = back
            pos[above] = hi
            step[above] += 1
            ids, rows, pos, step = ids[keep], rows[keep], pos[keep], step[keep]
            if not len(rows):
                break
        gap = 1
        steps = counter_steps(p, seed, ids, _ROUND, step)
        words += steps.size
        path = pos[:, None] + np.cumsum(steps, axis=1, dtype=np.int64)
        live = np.maximum.accumulate(path, axis=1) <= hi  # a prefix of each row
        r, c = np.nonzero(live & (path >= lo))
        hit_rows.append(rows[r])
        hit_sites.append(path[r, c])
        used = live.sum(axis=1)
        out = used < _ROUND
        step += used + out
        pos = np.where(out, hi + 1, path[:, -1])
        if step.max() - first_step > budget:
            raise BudgetError(f"escape not reached within {budget} steps")
    return np.concatenate(hit_rows), np.concatenate(hit_sites), words


def _xi_star(counts: np.ndarray, z: int) -> int:
    """Max occupation of a translate {s, s + z} of {0, z} given dense
    counts: both sites in the range, or only the lower (counts[-z:]) or
    only the upper one (counts[:z]).  The pairs are summed _SLICE at a
    time into one scratch array, not into a temporary of the range's
    size."""
    pairs = len(counts) - z
    scratch = np.empty(min(_SLICE, max(pairs, 0)), dtype=counts.dtype)
    both = 0
    for s in range(0, pairs, _SLICE):
        e = min(s + _SLICE, pairs)
        out = np.add(counts[s + z : e + z], counts[s:e], out=scratch[: e - s])
        both = max(both, int(out.max()))
    return int(max(both, counts[:z].max(), counts[-z:].max()))


def _cloud(counts: np.ndarray, n: int) -> np.ndarray:
    """Normalized (local time, sphere occupation) pairs for every site in
    a one-site margin around the range.  Each of these rows has a positive
    entry (fact (a)), so all of them are kept."""
    cloud = np.zeros((len(counts) + 2, 2))
    cloud[1:-1, 0] = counts
    cloud[:-2, 1] = counts  # the upper neighbour's count
    cloud[2:, 1] += counts  # the lower neighbour's count
    cloud /= math.log(n)
    return cloud


def heavy_deviation(
    params: WalkParams, counts: np.ndarray, n: int, heavy: HeavyPointConfig
) -> dict:
    """Worst relative deviation of the local-time profile around sites
    whose visit count clears the heaviness threshold.

    `counts` are dense visit counts of consecutive sites, such as
    `LocalTimeField.counts` at horizon n; `path_report` also applies this
    to the path's total counts.
    """
    heavy.check_window(params)
    rate_log_n = derived_constants(params).lambda0 * math.log(n)
    threshold = (1.0 - heavy.delta_n) * rate_log_n
    radius = max(1, int(heavy.c * math.log(max(math.log(n), math.e))))
    heavy_idx = np.flatnonzero(counts >= threshold)
    if len(heavy_idx) == 0:
        return {"set_size": 0, "deviation": None, "radius": radius}
    # the counts in a window around each heavy site; sites off the range have 0
    idx = heavy_idx[:, None] + np.arange(-radius, radius + 1)
    inside = (idx >= 0) & (idx < len(counts))
    window = np.where(inside, counts[np.clip(idx, 0, len(counts) - 1)], 0)
    worst = 0.0
    for dz in range(-radius, radius + 1):
        m_z = excursion_mean_visits(params, dz)
        profile = window[:, dz + radius] / (m_z * rate_log_n)
        worst = max(worst, float(np.abs(profile - 1.0).max()))
    return {"set_size": int(len(heavy_idx)), "deviation": worst, "radius": radius}


def path_report(config: SimConfig, xi_star_z: tuple[int, ...] = (1,)) -> PathReport:
    """All single-path statistics of one path of length config.n >= 2,
    read from its local-time field (the rates are per log n)."""
    if config.n < 2:
        raise ValidationError(f"path_report needs n >= 2, got {config.n}")
    if any(z < 1 for z in xi_star_z):
        raise ValidationError(f"xi_star_z must hold distances >= 1, got {xi_star_z}")
    params, n, seed = config.params, config.n, config.seed
    field_ = simulate_path(params, n, seed)
    counts = field_.counts

    # the same walk after the horizon: steps n, n + 1, ... of its stream
    _, later, _ = _escape_visits(
        params,
        seed,
        np.zeros(1, dtype=np.uint64),
        start=field_.final_position,
        first_step=n,
        lo=field_.min_site,
        hi=field_.max_site,
    )
    # eta_max and the path variant look at the sites on the path: by fact
    # (a) these are all sites of the range, the start site 0 among them
    # when it lies in the range
    totals = counts.copy()
    np.add.at(totals, later - field_.min_site, 1)

    heavy = None
    if config.heavy is not None:
        heavy = {
            "site_variant": heavy_deviation(params, counts, n, config.heavy),
            "path_variant": heavy_deviation(params, totals, n, config.heavy),
        }

    return PathReport(
        n=n,
        seed=seed,
        qtilde=field_.spectrum(),
        nu_n=field_.new_maxima(),
        xi_max=int(counts.max()),
        eta_max=int(totals.max()),
        xi_star={z: _xi_star(counts, z) for z in xi_star_z},
        counts=counts,
        heavy=heavy,
    )


# --- ensembles ---------------------------------------------------------

_NAMED_SITES = {
    "sphere_occupation": (-1, 1),
    "ball_occupation": (-1, 0, 1),
    "no_return": (0,),
}
# "kind:z" tracks these multiples of z
_SITE_FAMILIES = {"local_time": (1,), "two_point_pos": (0, 1), "two_point_neg": (0, -1)}


def _stat_sites(statistic: str) -> tuple[int, ...]:
    if statistic in _NAMED_SITES:
        return _NAMED_SITES[statistic]
    kind, _, arg = statistic.partition(":")
    if kind in _SITE_FAMILIES and re.fullmatch(r"[+-]?\d+", arg):
        return tuple(c * int(arg) for c in _SITE_FAMILIES[kind])
    raise ValidationError(f"unknown ensemble statistic {statistic!r}")


def ensemble(config: SimConfig, statistic: str, threads: int = 1) -> EnsembleReport:
    """Replica ensemble of a total-count statistic with merged histogram.

    `statistic` is "local_time:z", "sphere_occupation", "ball_occupation",
    "two_point_pos:z", "two_point_neg:z" (the total visits to those sites)
    or "no_return" (1 if the walk never returns to 0, else 0: the
    indicator that "local_time:0" is 0).  Each replica is walked until it
    escapes for good (see `_escape_visits`), so every value is exact and
    `config.n` plays no part.  Replicas use counter-based streams keyed by
    their index, so the result does not depend on `threads`.
    """
    name = str(statistic)
    sites = np.asarray(_stat_sites(name), dtype=np.int64)
    site_lo, site_hi = int(sites.min()), int(sites.max())
    member = np.zeros(site_hi - site_lo + 1, dtype=bool)  # member[s - site_lo]: s tracked
    member[sites - site_lo] = True
    params, seed, replicas = config.params, config.seed, config.replicas

    def run_chunk(first: int) -> tuple[np.ndarray, int]:
        ids = np.arange(first, min(first + _CHUNK_REPLICAS, replicas), dtype=np.uint64)
        rows, visited, words = _escape_visits(params, seed, ids, 0, 0, site_lo, site_hi)
        vals = np.bincount(rows[member[visited - site_lo]], minlength=len(ids))
        return (vals == 0).astype(np.int64) if name == "no_return" else vals, words

    chunks = range(0, replicas, _CHUNK_REPLICAS)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = [run_chunk(c) for c in chunks]

    hist = np.bincount(np.concatenate([vals for vals, _ in results]))
    k = np.arange(len(hist))
    mean = (k * hist).sum() / replicas  # integer sums, exact below 2^53
    variance = max((k * k * hist).sum() / replicas - mean ** 2, 0.0)
    sem = math.sqrt(variance / replicas)
    return EnsembleReport(
        statistic=name,
        replicas=replicas,
        mean=float(mean),
        variance=float(variance),
        sem=sem,
        ci95=(float(mean - 1.96 * sem), float(mean + 1.96 * sem)),
        histogram=hist,
        words=sum(words for _, words in results),
    )
