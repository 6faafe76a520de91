"""Walk simulation: single long paths and replica ensembles.

Single-path statistics (visit-count spectra, new-maximum counts, maximal
local and occupation times, heavy-site profiles) come from one path's
local-time field, counted from the landing sites of its down-steps
without forming a position (fact (c) below).  `PathReport` keeps that
field, and its (local time, sphere occupation) cloud is derived from it
when read.  Distributional checks come from ensembles of independent
replicas.
"Infinite-time" quantities are exact: a walk that steps just above every
tracked site returns to the highest one with probability exactly h, so
one uniform decides between a return and escape for good, and no count
is truncated.  Ensembles walk their replicas on the calling thread, in
a refilled pool of up to 2^14 walkers, 8 steps a round, and count each
round's visits to the tracked sites from a table of its landings
(`_escape_visits`).  A single path walks on after its horizon alone,
1023 steps a draw, tallying its visits by depth (`_walk_on`).  A walk
still going after the step budget that a Chernoff bound sets from p raises
BudgetError, and so does a walk whose budget exceeds what its step
counter holds (`_step_budget`).

Three facts of the +-1 walk build the dense counts and let every path
statistic be read from them alone:

(a) Every site is visited: S_1..S_n move by one at a time, so they cover
    exactly the interval min_site..max_site, and each count in it is > 0.
(b) New maxima step by one: a strict new maximum above 0 and every
    earlier position is exactly one above the previous one, so their
    number nu_n is max(0, max_site).
(c) Visits are counted from the down-steps: each up-crossing of the edge
    (s - 1, s) is matched by a down-crossing, but for one net crossing,
    so V(s) = D(s) + D(s - 1) + c(s), with D(s) the down-steps that land
    on s and c(s) = [0 < s <= S_n] - [S_n < s <= 0].  Down-step k (from
    0), at step T (from 0), lands on T - 2k - 1, and S_n = n - 2 * (the
    number of down-steps).  min_site is the least of S_1 and the
    landings; max_site is the greatest of S_1, S_n and one above each
    landing of a down-step after step 1, which leaves the site above it.

Every quantity is a pure function of (config, seed): step t of replica r
is the same counter-based draw in every routine (see `rng`), and a
replica's visits do not depend on which walkers share its rounds, so
results do not depend on the size of the pool.  A single path's steps
are the bit-sliced path stream of its seed (`rng.path_step_bits`), 16
key blocks per draw; its walk after the horizon (`path_report`) is
replica 0 of the same seed from step n on, a stream that shares no word
with the path, so the pair has the law of one walk.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .model import WalkParams
from .closedform import excursion_mean_visits
from .rng import BLOCK_LANES, _below, _key, _keyed_words, counter_words, path_step_bits

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

_POOL = 1 << 14  # walkers of an escape walk that draw their rounds together
_PATH_BLOCKS = 16  # key blocks of path steps drawn per path_step_bits call
_ROUND = 8  # steps a walker draws per round of an escape walk, one byte of up-steps
_WALK_LANES = 1023  # steps of a path's walk after its horizon per counter_words draw
_LANE_MASK = BLOCK_LANES - 1  # a step's lane in its key block
_BUDGET_MISS = 1e-18  # chance that a correct replica outruns its step budget
_SLICE = 1 << 16  # sites per slice of the pair sums in _xi_star


@dataclass(frozen=True)
class HeavyPointConfig:
    """Threshold for the profile around heavily visited sites.

    delta_n   slack in the heaviness threshold (1 - delta_n) * rate * log n

    The window |z| <= c * log log n is chosen from p (`heavy_deviation`).
    """

    delta_n: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.delta_n < 1.0:
            raise ValidationError(f"delta_n must be in [0, 1), got {self.delta_n}")


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
    words the replicas drew and `steps` the number of steps they walked,
    decision steps included.  A decision read from a word its round
    already drew costs no word, so words - steps is still the number of
    lanes drawn past an exit.
    """

    statistic: str
    replicas: int
    words: int
    steps: int
    mean: float
    variance: float
    sem: float
    ci95: tuple[float, float]
    histogram: np.ndarray

    def to_dict(self) -> dict:
        return {**asdict(self), "ci95": list(self.ci95), "histogram": self.histogram.tolist()}


def simulate_path(params: WalkParams, n: int, seed: int) -> LocalTimeField:
    """One sampled path's local-time field; bit-reproducible in
    (params, n, seed).

    The field is counted from the down-steps by fact (c).  The steps are
    drawn as packed bits `_PATH_BLOCKS` key blocks at a time, and only
    the landing sites of their down-steps are kept, about q * n.  One
    bincount of them at the exact size of the range gives D; each count
    then takes the one below it in place, _SLICE sites at a time from the
    top down, with no second array of the range's size; c(s) comes last.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    chunk, landings, downs = _PATH_BLOCKS * BLOCK_LANES, [], 0
    for first in range(0, n, chunk):
        size = min(chunk, n - first)
        bits = path_step_bits(params.p, seed, size, first).astype("<u8", copy=False)
        np.invert(bits, out=bits)  # bit set: the step goes down
        # step t of the draw is bit t mod 8 of byte t div 8
        down = np.unpackbits(bits.view(np.uint8), count=size, bitorder="little")
        steps = np.flatnonzero(down.view(bool))
        # down-step k, at step T = first + t, lands on T - 2k - 1
        start = 2 * downs + 1 - first
        steps -= np.arange(start, start + 2 * len(steps), 2)
        landings.append(steps)
        downs += len(steps)
    land = np.concatenate(landings)
    del landings  # the bincount's peak holds only the landings and the field
    final = n - 2 * downs
    s1 = -1 if downs and land[0] == -1 else 1  # down-step 0 lands on -1 only at step 0
    lo = int(land.min(initial=s1))
    # a site above S_1 and S_n is left by a down-step, which lands just below it
    hi = max(s1, final, int(land[int(s1 < 0) :].max(initial=s1 - 1)) + 1)
    land -= lo
    counts = np.bincount(land, minlength=hi - lo + 1)
    del land
    for e in range(len(counts), 1, -_SLICE):  # V(s) = D(s) + D(s - 1) + c(s)
        s = max(e - _SLICE, 1)
        counts[s:e] += counts[s - 1 : e - 1]
    below, above = sorted((0, final))
    counts[below + 1 - lo : min(above, hi) + 1 - lo] += 1 if final > 0 else -1
    return LocalTimeField(counts=counts, min_site=lo, max_site=hi, n=n, final_position=final)


def _step_budget(params: WalkParams, rise: int, first_step: int) -> int:
    """Steps after which a walk from hi - rise has left the sites <= hi
    for good, except with probability _BUDGET_MISS.

    By the Chernoff bound P(S_t = s) <= rho^t h^(-s/2), rho = 2 sqrt(pq),
    a visit at step m or later to sites of weight W = sum of h^(-s/2) has
    probability at most W rho^m / (1 - rho).  Seen from the start the
    sites are rise, rise - 1, ..., of weight h^(-rise/2) / (1 - sqrt h);
    1 - sqrt h = gamma0 / (p (1 + sqrt h)), log rho = log1p(-gamma0^2)/2
    and 1 - rho = gamma0^2 / (1 + rho) do not cancel as p nears 1/2.  An
    exact-escape walk takes no more steps than the walk it stands for,
    and its last round draws up to _ROUND more words and a decision.
    A walk that reads its stream from `first_step` and could pass the
    2^63 steps that its step counter holds raises BudgetError.
    """
    g2 = params.gamma0 * params.gamma0
    log_weight = -0.5 * rise * params.log_h - math.log(
        params.gamma0 / (params.p * (1.0 + math.sqrt(params.h)))
    )
    log_gap = math.log(g2 / (1.0 + math.sqrt(4.0 * params.p * params.q)))
    steps = (math.log(_BUDGET_MISS) - log_weight + log_gap) / (0.5 * math.log1p(-g2))
    budget = max(math.ceil(steps), 0) + _ROUND + 2
    if first_step + budget >= 1 << 63:
        raise BudgetError(
            f"escape needs up to {budget} steps, beyond the 2^63 that a "
            f"replica's step counter holds"
        )
    return budget


def _round_tables():
    """Tables of one 8-step round, indexed by the byte of its up-steps
    (bit j set: step j goes up).

    _OFFSET[b, j]  position after step j, relative to the round's start;
    _USED[b * 9 + r]  steps taken before the walk passes hi from headroom
        r = hi - x (8 if it does not pass; r >= 8 acts as 8);
    _LANDS[(b * 9 + r) * 17 + e + 8]  how many of those steps land on
        x + e, for -8 <= e <= 8.
    """
    up = (np.arange(256)[:, None] >> np.arange(_ROUND)) & 1
    offset = np.cumsum(2 * up - 1, axis=1)
    headroom = np.arange(_ROUND + 1)
    live = np.maximum.accumulate(offset, axis=1)[:, None, :] <= headroom[:, None]
    reach = np.arange(-_ROUND, _ROUND + 1)
    lands = live[:, :, None, :] & (offset[:, None, None, :] == reach[:, None])
    return offset, live.sum(axis=2).astype(np.uint8).ravel(), lands.sum(axis=3, dtype=np.int8).ravel()


_OFFSET, _USED, _LANDS = _round_tables()
_LANE_SHIFTS = np.arange(_ROUND, dtype=np.uint64)[:, None]


def _escape_visits(
    params: WalkParams, seed: int, replicas: int, first_step: int, hi: int, below, vals
) -> tuple[int, int]:
    """Add to vals[r] the visits at steps >= first_step of replica r <
    `replicas`, walked from 0 to the end of time, to the tracked sites
    hi - d, d in `below` (sorted, and holding 0: hi is tracked).

    Above hi the walk visits no tracked site, and from hi + d it ever
    returns to hi with probability exactly h^d.  So a replica that steps
    to hi + 1 decides with the uniform u of its next step: if u < h it is
    counted at hi and walks on from there, otherwise it is done.  When hi
    < 0 a replica is decided on admission with h^(-hi).  The counts are
    exact, with no truncation.

    The replicas walk in a pool of at most `_POOL` slots.  Each walker
    keeps the stream key of the block its next step lies in, made once
    on admission and again only when its step enters a new 2^16-step
    block.  Each round, every walker draws the next `_ROUND` words of
    its key into buffers made once per call (a row whose lanes cross a
    block edge is drawn by `counter_words`).  A round's up-steps are
    packed into one byte per walker, and `_USED` reads how far each
    walks.  Only a walker within max(below) + 8 of hi can land on a
    tracked site, and for those `_LANDS` reads how many of its steps land
    on each.  A walker that steps to hi + 1 at lane j < `_ROUND` - 1 is
    decided by lane j + 1 of the same round; one that does so at the last
    lane is decided next round by one more word.  The slots of finished
    walkers take the next replicas, so the rounds stay full until they
    run out; then walkers from the end of the pool move into the free
    slots.

    Returns the words drawn, so a decision read from its round costs
    none, and the steps walked, decision steps included: words - steps is
    the number of lanes drawn past an exit.  A replica still walking
    after `_step_budget` steps raises BudgetError.
    """
    p, h = params.p, params.h
    budget = _step_budget(params, hi, first_step)
    below = np.asarray(below)[:, None]
    reach = below[-1, 0] + _ROUND  # a walker further below hi lands on no tracked site
    above = hi < 0  # replicas are decided on admission, and walk on from hi
    entry, entry_step = (0, first_step + 1) if above else (hi, first_step)
    size = min(_POOL, replicas)
    rows = np.empty(size, dtype=np.int64)  # the pool's slots: replica,
    headroom = np.empty_like(rows)  # hi - x,
    step = np.empty_like(rows)  # the next step of each walker
    key = np.empty(size, dtype=np.uint64)  # and the stream key of its block
    # one round's words, the mix's scratch space and the up-steps, lane by
    # lane (lane j of slot i at [j, i]), in whole 8-slot columns
    cols = -(-size // 8) * 8
    drawn = np.empty((_ROUND, cols), dtype=np.uint64)
    scratch = np.empty_like(drawn)
    up_steps = np.zeros((_ROUND, cols), dtype=bool)
    free = pending = rows[:0]  # slots of finished walkers, and of those at hi + 1
    n = queued = words = steps = 0  # n: walkers in the pool, in slots 0..n-1

    def rekey(slots):
        if len(slots):
            key[slots] = _key(seed, rows[slots], step[slots] // BLOCK_LANES)

    def decide(slots, w, h_d):
        """The walkers in `slots`, each at hi + d with decision word w, go
        back to hi where w is below h_d; the others are done.  Returns the
        slots that went back and the finished ones."""
        nonlocal steps
        back = _below(w, h_d)
        step[slots] += 1
        back, done = slots[back], slots[~back]
        vals[rows[back]] += 1
        headroom[back] = 0
        steps += int(step[done].sum()) - first_step * len(done)
        return back, done

    while True:
        if len(pending):  # walkers that stepped to hi + 1 at the last lane
            lane = (step[pending] & _LANE_MASK).view(np.uint64)
            w = _keyed_words(key[pending], lane, np.empty((len(pending), 1), np.uint64))
            words += len(pending)
            back, done = decide(pending, w[:, 0], h)
            rekey(back[(step[back] & _LANE_MASK) == 0])  # their next step opens a block
            free = np.concatenate([free, done])
        new = np.arange(queued, min(queued + len(free) + size - n, replicas))
        queued += len(new)
        if above and len(new):
            w = counter_words(seed, new, 1, first_step)[:, 0]
            words += len(new)
            back = _below(w, h ** -hi)
            steps += len(new) - int(back.sum())
            new = new[back]
            vals[new] += 1
        # new replicas take the free slots first, then the slots past n
        fill = np.concatenate([free[: len(new)], np.arange(n, n + len(new) - len(free))])
        rows[fill], headroom[fill], step[fill] = new, entry, entry_step
        rekey(fill)
        holes, n = free[len(new) :], n + max(len(new) - len(free), 0)
        if len(holes):  # the replicas ran short: walkers past the new end fill the holes
            n -= len(holes)
            movers = np.setdiff1d(np.arange(n, n + len(holes)), holes, assume_unique=True)
            targets = holes[holes < n]
            for a in (rows, headroom, step, key):
                a[targets] = a[movers]
        if not n and queued == replicas:
            return words, steps
        # a round may be empty when every replica admitted so far escaped at once
        lane = step[:n] & _LANE_MASK
        w = _keyed_words(key[:n], lane.view(np.uint64), drawn[:, :n].T, scratch[:, :n].T)
        near = np.flatnonzero(lane >= BLOCK_LANES - _ROUND)  # may enter a new block
        edge = near[lane[near] > BLOCK_LANES - _ROUND]  # its lanes cross a block edge
        if len(edge):
            w[edge] = counter_words(seed, rows[edge], _ROUND, step[edge])
        words += w.size
        _below(w, p, out=up_steps[:, :n].T)
        # byte i of a row's word j is lane j of slot i: shifted by j and or-ed
        # over the lanes, byte i is the byte of slot i's up-steps
        bits = up_steps[:, : -(-n // 8) * 8].view("<u8") << _LANE_SHIFTS
        pattern = np.bitwise_or.reduce(bits, axis=0).view(np.uint8)[:n].astype(np.intp)
        code = pattern * (_ROUND + 1) + np.minimum(headroom[:n], _ROUND)
        close = np.flatnonzero(headroom[:n] <= reach)
        e = headroom[close] - below  # tracked site hi - d is x + e, e = headroom - d
        lands = np.abs(e) <= _ROUND
        np.clip(e, -_ROUND, _ROUND, out=e)  # in place: e is (distances, walkers)
        e += code[close] * (2 * _ROUND + 1) + _ROUND
        got = np.where(lands, _LANDS[e], 0)
        vals[rows[close]] += got.sum(axis=0)  # the pool's rows are distinct
        used = _USED[code]
        step[:n] += used
        headroom[:n] -= _OFFSET[pattern, -1]
        out = np.flatnonzero(used < _ROUND)  # stepped to hi + 1 at lane used[out]
        step[out] += 1
        inside = used[out] < _ROUND - 1
        now, pending = out[inside], out[~inside]
        _, free = decide(now, w[now, used[now] + 1], h)
        rekey(near[(step[near] & _LANE_MASK) < lane[near]])
        if step[:n].max(initial=first_step) - first_step > budget:
            raise BudgetError(f"escape not reached within {budget} steps")


def _walk_on(
    params: WalkParams, seed: int, start: int, first_step: int, min_site: int, hi: int
) -> np.ndarray:
    """Visits by depth below hi that replica 0 makes at steps >= first_step,
    walked from start <= hi to the end of time: entry d counts the visits
    to hi - d, cut at d = hi - min_site.

    This is the walk of `_escape_visits` for one replica on its own: a
    step to hi + 1 is decided by the word of the next step, and a return
    is a visit to hi from which the walk goes on.  Each `counter_words`
    draw holds `_WALK_LANES` steps and one more word, so an exit at the
    last lane reads its decision from the same draw.  Each draw's visits
    are added into the tally, which grows only with the depth the walk
    reaches.  The walk never passes first_step + `_step_budget`; reaching
    it raises BudgetError.
    """
    budget = _step_budget(params, hi - start, first_step)
    x, step, tally = start, first_step, np.zeros(0, dtype=np.int64)
    while step < first_step + budget:
        lanes = min(_WALK_LANES, first_step + budget - step)
        w = counter_words(seed, 0, lanes + 1, step)
        pos = x + np.cumsum(np.where(_below(w[:lanes], params.p), 1, -1))
        j = int((pos > hi).argmax())  # the first step to hi + 1, when pos[j] > hi
        if pos[j] <= hi:
            visited, x, step = pos, int(pos[-1]), step + lanes
        elif _below(w[j + 1], params.h):  # back to hi
            visited, x, step = np.append(pos[:j], hi), hi, step + j + 2
        else:  # escaped for good: no position left
            visited, x = pos[:j], None
        more = np.bincount(hi - visited, minlength=len(tally))
        more[: len(tally)] += tally
        tally = more
        if x is None:
            return tally[: hi - min_site + 1]
    raise BudgetError(f"escape not reached within {budget} steps")


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
    to the path's total counts.  The window is |z| <= c * log log n, at
    least one site, with c = 1 / (2 max(1, alpha)), alpha = log(1/h): the
    profile result needs alpha * c < 1.  Its radius is 1 for every
    n < e^(e^4), about 5 * 10^23.
    """
    c = 0.5 / max(1.0, -params.log_h)
    rate_log_n = params.lambda0 * math.log(n)
    threshold = (1.0 - heavy.delta_n) * rate_log_n
    radius = max(1, int(c * math.log(max(math.log(n), math.e))))
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
    read from its local-time field (the rates are per log n).

    The horizon's statistics are read first.  eta_max and the path
    variant read the total counts: the path walks on alone until it
    escapes for good (`_walk_on`).  That walk's tally of visits by depth
    below the path's maximum is added into the field in place, read, and
    taken out again, so no copy of the field is made and
    `PathReport.counts` is the field at the horizon.
    """
    if config.n < 2:
        raise ValidationError(f"path_report needs n >= 2, got {config.n}")
    if any(z < 1 for z in xi_star_z):
        raise ValidationError(f"xi_star_z must hold distances >= 1, got {xi_star_z}")
    params, n, seed, heavy = config.params, config.n, config.seed, config.heavy
    field_ = simulate_path(params, n, seed)
    counts, lo = field_.counts, field_.min_site
    qtilde, xi_max = field_.spectrum(), int(counts.max())
    xi_star = {z: _xi_star(counts, z) for z in xi_star_z}
    profiles = {}
    if heavy is not None:
        profiles["site_variant"] = heavy_deviation(params, counts, n, heavy)

    # the same walk after the horizon: replica 0 from step n, a stream
    # independent of the path's (see `rng`).  Its visits are to sites of
    # the range, all on the path by fact (a); `top`, the field by depth
    # below max_site, is a view, so the tally goes in and out in place.
    tally = _walk_on(params, seed, field_.final_position, n, lo, field_.max_site)
    top = counts[::-1][: len(tally)]
    top += tally
    eta_max = int(counts.max())
    if heavy is not None:
        profiles["path_variant"] = heavy_deviation(params, counts, n, heavy)
    top -= tally
    return PathReport(
        n=n, seed=seed, qtilde=qtilde, nu_n=field_.new_maxima(), xi_max=xi_max,
        eta_max=eta_max, xi_star=xi_star, counts=counts, heavy=profiles or None,
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
        z = int(arg)
        # one spelling per pair: two_point_pos:-z is two_point_neg:z
        if kind != "local_time" and z < 1:
            raise ValidationError(f"{statistic!r}: two-point distances need z >= 1, got {z}")
        return tuple(c * z for c in _SITE_FAMILIES[kind])
    raise ValidationError(f"unknown ensemble statistic {statistic!r}")


def ensemble(config: SimConfig, statistic: str, threads: int = 1) -> EnsembleReport:
    """Replica ensemble of a total-count statistic with its histogram.

    `statistic` is "local_time:z", "sphere_occupation", "ball_occupation",
    "two_point_pos:z", "two_point_neg:z" (the total visits to those sites)
    or "no_return" (1 if the walk never returns to 0, else 0: the
    indicator that "local_time:0" is 0).  Each replica is walked until it
    escapes for good (see `_escape_visits`), so every value is exact and
    `config.n` plays no part.  All replicas are walked in one pool on the
    calling thread, which adds each round's visits to the tracked sites
    straight into the per-replica counts.

    `threads` is neither read nor checked.  It is kept only because the
    benchmark harness in perfbench/ still passes it; it goes once that
    harness stops.
    """
    name = str(statistic)
    sites = _stat_sites(name)
    hi = max(sites)
    params, seed, replicas = config.params, config.seed, config.replicas
    vals = np.zeros(replicas, dtype=np.int64)
    below = sorted(hi - s for s in sites)
    words, steps = _escape_visits(params, seed, replicas, 0, hi, below, vals)
    hist = np.bincount((vals == 0).astype(np.int64) if name == "no_return" else vals)
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
        words=words,
        steps=steps,
    )
