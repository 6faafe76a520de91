"""Walk simulation: single long paths and replica ensembles.

Single-path statistics (visit-count spectra, new-maximum counts, maximal
local and occupation times, heavy-site profiles) come from one long
trajectory; distributional checks come from ensembles of independent
replicas.  "Infinite-time" quantities are exact: a walk that steps just
above every tracked site returns to the highest one with probability
exactly h, so one uniform decides between a return and escape for good,
and no count is truncated.

Every quantity is a pure function of (config, seed): step t of replica r
is the same counter-based draw in every routine (see `rng`), chunks
merge associatively, so results are identical under any parallel
schedule.
"""

from __future__ import annotations

import math
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
    "heavy_point_profile",
    "ensemble",
    "reversed_walk_check",
]

_CHUNK_REPLICAS = 1 << 15
_ROUND = 8  # steps an alive replica draws per round of an escape walk
_STEP_BUDGET = 1_000_000_000  # steps one replica may take to escape


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
    sum to n by construction.
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

    def sites(self) -> np.ndarray:
        return np.arange(self.min_site, self.max_site + 1)


@dataclass(frozen=True)
class PathReport:
    """Single-path statistics at horizon n."""

    n: int
    seed: int
    qtilde: np.ndarray  # qtilde[k] = number of sites visited exactly k times
    nu_n: int  # strict new running maxima
    xi_max: int  # maximal single-site visit count within the horizon
    eta_max: int  # maximal total (infinite-time) visit count on the path
    xi_star: dict  # z -> maximal occupation of a translate of {0, z}
    cloud: np.ndarray  # (site local-time, sphere occupation) / log n pairs
    heavy: dict | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "qtilde": self.qtilde.tolist(),
            "nu_n": self.nu_n,
            "xi_max": self.xi_max,
            "eta_max": self.eta_max,
            "xi_star": {str(z): int(v) for z, v in self.xi_star.items()},
            "cloud_size": int(len(self.cloud)),
            "heavy": self.heavy,
        }


@dataclass(frozen=True)
class EnsembleReport:
    """Summary of one statistic over a replica ensemble.

    Named total-count statistics are exact samples of the infinite-time
    counts: replicas are followed until they escape for good, so the
    histogram carries no truncation bias, only sampling error.  `words`
    is the number of RNG words the replicas drew, summed over chunks;
    like every other field it does not depend on the thread count.
    """

    statistic: str
    replicas: int
    mean: float
    variance: float
    sem: float
    ci95: tuple[float, float]
    words: int
    histogram: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "replicas": self.replicas,
            "words": self.words,
            "mean": self.mean,
            "variance": self.variance,
            "sem": self.sem,
            "ci95": list(self.ci95),
            "histogram": None if self.histogram is None else self.histogram.tolist(),
        }


def _positions(params: WalkParams, n: int, seed: int, replica: int = 0) -> np.ndarray:
    """The full trajectory S_1..S_n as int32, generated blockwise."""
    out = np.empty(n, dtype=np.int32)
    carry = np.int32(0)
    for start in range(0, n, BLOCK_LANES):
        width = min(BLOCK_LANES, n - start)
        steps = counter_steps(params.p, seed, replica, 0, width, start)
        out[start : start + width] = carry + np.cumsum(steps, dtype=np.int32)
        carry = out[start + width - 1]
    return out


def _field_from_positions(positions: np.ndarray, n: int) -> LocalTimeField:
    lo = int(positions.min())
    hi = int(positions.max())
    counts = np.bincount(positions - lo, minlength=hi - lo + 1)
    return LocalTimeField(
        counts=counts,
        min_site=lo,
        max_site=hi,
        n=n,
        final_position=int(positions[-1]),
    )


def simulate_path(params: WalkParams, n: int, seed: int) -> LocalTimeField:
    """One sampled path's local-time field; bit-reproducible in
    (params, n, seed)."""
    return _field_from_positions(_positions(params, n, seed), n)


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

    Alive replicas draw `_ROUND` steps per round from their own offsets,
    so each draws the words it uses plus at most `_ROUND - 1` after each
    step to hi + 1.  Returns the row (index into `replica_ids`) and site of
    every visit, in no fixed order, and the number of words drawn.
    """
    p, h = params.p, params.h
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
            back = counter_steps(h**gap, seed, ids[above], 0, 1, step[above])[:, 0] > 0
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
        steps = counter_steps(p, seed, ids, 0, _ROUND, step)
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
        if step.max() - first_step > _STEP_BUDGET:
            raise BudgetError(f"escape not reached within {_STEP_BUDGET} steps")
    return np.concatenate(hit_rows), np.concatenate(hit_sites), words


def _xi_star(counts: np.ndarray, z: int) -> int:
    """Max occupation of a translate of {0, z} given dense counts."""
    padded = np.pad(counts, z)
    return int((padded[:-z] + padded[z:]).max())


def _cloud(counts: np.ndarray, n: int) -> np.ndarray:
    """Normalized (local time, sphere occupation) pairs for every site in
    a one-site margin around the occupied range."""
    cext = np.pad(counts, 1).astype(np.float64)
    c2 = np.pad(cext, 1)
    sphere = c2[:-2] + c2[2:]
    keep = (cext > 0) | (sphere > 0)
    scale = math.log(n)
    return np.column_stack((cext[keep], sphere[keep])) / scale


def _heavy_deviation(
    params: WalkParams,
    counts: np.ndarray,
    n: int,
    heavy: HeavyPointConfig,
    rate_log_n: float,
) -> dict:
    """Worst relative deviation of the local-time profile around sites
    whose visit count clears the heaviness threshold."""
    heavy.check_window(params)
    threshold = (1.0 - heavy.delta_n) * rate_log_n
    radius = max(1, int(heavy.c * math.log(max(math.log(n), math.e))))
    heavy_idx = np.flatnonzero(counts >= threshold)
    if len(heavy_idx) == 0:
        return {"set_size": 0, "deviation": None, "radius": radius}
    padded = np.pad(counts, radius).astype(np.float64)
    worst = 0.0
    for dz in range(-radius, radius + 1):
        m_z = excursion_mean_visits(params, dz)
        profile = padded[heavy_idx + radius + dz] / (m_z * rate_log_n)
        worst = max(worst, float(np.abs(profile - 1.0).max()))
    return {"set_size": int(len(heavy_idx)), "deviation": worst, "radius": radius}


def path_report(config: SimConfig, xi_star_z: tuple[int, ...] = (1,)) -> PathReport:
    """All single-path statistics of one trajectory of length config.n."""
    params, n, seed = config.params, config.n, config.seed
    positions = _positions(params, n, seed)
    field_ = _field_from_positions(positions, n)
    counts = field_.counts

    qtilde = np.bincount(counts[counts > 0])
    qtilde[0] = 0

    runmax = np.maximum.accumulate(positions)
    prevmax = np.empty_like(runmax)
    prevmax[0] = 0  # the walk starts at 0
    prevmax[1:] = np.maximum(runmax[:-1], 0)
    nu_n = int((positions > prevmax).sum())

    xi_max = int(counts.max())

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
    totals = counts.copy()
    np.add.at(totals, later - field_.min_site, 1)
    on_path = counts > 0
    if field_.min_site <= 0 <= field_.max_site:
        on_path = on_path.copy()
        on_path[0 - field_.min_site] = True  # j = 0 counts: the start site
    eta_max = int(totals[on_path].max())

    xi_star = {z: _xi_star(counts, z) for z in xi_star_z}
    cloud = _cloud(counts, n)

    heavy = None
    if config.heavy is not None:
        rate_log_n = derived_constants(params).lambda0 * math.log(n)
        heavy = {
            "site_variant": _heavy_deviation(
                params, counts, n, config.heavy, rate_log_n
            ),
            "path_variant": _heavy_deviation(
                params, np.where(on_path, totals, 0), n, config.heavy, rate_log_n
            ),
        }

    return PathReport(
        n=n,
        seed=seed,
        qtilde=qtilde,
        nu_n=nu_n,
        xi_max=xi_max,
        eta_max=eta_max,
        xi_star=xi_star,
        cloud=cloud,
        heavy=heavy,
    )


def heavy_point_profile(config: SimConfig) -> dict:
    """Profile deviation statistics of one path (both the horizon-count
    and total-count variants); requires config.heavy."""
    if config.heavy is None:
        raise ValidationError("heavy_point_profile requires a HeavyPointConfig")
    return path_report(config).heavy


# --- ensembles ---------------------------------------------------------

_SET_STATS = {
    "sphere_occupation": (-1, 1),
    "ball_occupation": (-1, 0, 1),
}


def _stat_sites(statistic: str) -> tuple[int, ...]:
    if statistic in _SET_STATS:
        return _SET_STATS[statistic]
    kind, _, arg = statistic.partition(":")
    if kind == "local_time":
        return (int(arg),)
    if kind == "two_point_pos":
        return (0, int(arg))
    if kind == "two_point_neg":
        return (0, -int(arg))
    raise ValidationError(f"unknown ensemble statistic {statistic!r}")


def _chunk_ranges(replicas: int):
    return [
        (s, min(s + _CHUNK_REPLICAS, replicas))
        for s in range(0, replicas, _CHUNK_REPLICAS)
    ]


def ensemble(config: SimConfig, statistic, threads: int = 1) -> EnsembleReport:
    """Replica ensemble of a statistic with merged histogram.

    `statistic` is either a named total-count statistic ("local_time:z",
    "sphere_occupation", "ball_occupation", "two_point_pos:z",
    "two_point_neg:z", "no_return") or a callable LocalTimeField -> float
    evaluated on fixed-horizon paths.  Replicas use counter-based streams
    keyed by their index and chunks merge by addition, so the result does
    not depend on `threads`.  Total-count statistics are exact (see
    `_escape_visits`); "no_return" looks at the first n steps.
    """
    replicas = config.replicas
    if callable(statistic):
        values = np.array(
            [
                float(
                    statistic(
                        _field_from_positions(
                            _positions(config.params, config.n, config.seed, replica=r),
                            config.n,
                        )
                    )
                )
                for r in range(replicas)
            ]
        )
        return _summarize("<callable>", values, histogram=None, words=replicas * config.n)

    name = str(statistic)
    if name == "no_return":
        def chunk_values(lo, hi):
            ids = np.arange(lo, hi, dtype=np.uint64)
            width = config.n
            pos = np.cumsum(
                counter_steps(config.params.p, config.seed, ids, 0, width),
                axis=1,
                dtype=np.int32,
            )
            return (~(pos == 0).any(axis=1)).astype(np.int64), pos.size
        if config.n > BLOCK_LANES:
            raise ValidationError(
                f"no_return ensembles support n <= {BLOCK_LANES}, got {config.n}"
            )
    else:
        sites = np.asarray(_stat_sites(name), dtype=np.int64)
        site_lo, site_hi = int(sites.min()), int(sites.max())

        def chunk_values(lo, hi):
            ids = np.arange(lo, hi, dtype=np.uint64)
            rows, visited, words = _escape_visits(
                config.params, config.seed, ids, 0, 0, site_lo, site_hi
            )
            tracked = np.isin(visited, sites)
            return np.bincount(rows[tracked], minlength=hi - lo), words

    def run_chunk(bounds):
        lo, hi = bounds
        vals, words = chunk_values(lo, hi)
        hist = np.bincount(vals)
        return vals.sum(), np.square(vals, dtype=np.float64).sum(), hist, words

    ranges = _chunk_ranges(replicas)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, ranges))
    else:
        results = [run_chunk(r) for r in ranges]

    total = sum(r[0] for r in results)
    total_sq = sum(r[1] for r in results)
    hist_len = max(len(r[2]) for r in results)
    hist = np.zeros(hist_len, dtype=np.int64)
    for r in results:
        hist[: len(r[2])] += r[2]
    mean = total / replicas
    variance = max(total_sq / replicas - mean ** 2, 0.0)
    sem = math.sqrt(variance / replicas)
    return EnsembleReport(
        statistic=name,
        replicas=replicas,
        mean=float(mean),
        variance=float(variance),
        sem=sem,
        ci95=(float(mean - 1.96 * sem), float(mean + 1.96 * sem)),
        histogram=hist,
        words=int(sum(r[3] for r in results)),
    )


def _summarize(name: str, values: np.ndarray, histogram, words: int) -> EnsembleReport:
    mean = float(values.mean())
    variance = float(values.var())
    sem = math.sqrt(variance / len(values))
    return EnsembleReport(
        statistic=name,
        replicas=len(values),
        mean=mean,
        variance=variance,
        sem=sem,
        ci95=(mean - 1.96 * sem, mean + 1.96 * sem),
        histogram=histogram,
        words=words,
    )


def reversed_walk_check(params: WalkParams, n: int, seed: int) -> dict:
    """Verify the time-reversal identities on one simulated path.

    Checks (a) the reversed path's increments are the negated original
    increments in reverse order and (b) the reversed walk's up-step
    frequency matches the swapped parameter q within 4 sigma.
    """
    positions = _positions(params, n, seed)
    incr = np.diff(np.concatenate(([0], positions)))
    # reversed path: S*_i = S_{n-i} - S_n, increments -incr in reverse order
    rev = (positions[::-1][1:] - positions[-1]) if n > 1 else np.array([], dtype=np.int32)
    rev_full = np.concatenate((rev, [-positions[-1] - 0])) if n >= 1 else rev
    rev_incr = np.diff(np.concatenate(([0], rev_full)))
    identity_ok = bool(np.array_equal(rev_incr, -incr[::-1]))

    up_freq = float((rev_incr == 1).mean())
    freq_sigma = math.sqrt(params.p * params.q / n)
    freq_ok = abs(up_freq - params.q) <= 4.0 * freq_sigma + 1e-12
    return {
        "increments_identity": identity_ok,
        "step_frequency": freq_ok,
        "reversed_up_frequency": up_freq,
    }
