"""Walk simulation: single long paths and replica ensembles.

Single-path statistics (visit-count spectra, new-maximum counts, maximal
local and occupation times, heavy-site profiles) come from one path's
local-time field, counted from the landing sites of its down-steps
without forming a position (fact (c) below), and read from it in one
pass, _SLICE sites at a time (`_field_pass`).  `PathReport` keeps that
field, and the spectrum of its (local time, sphere occupation) pairs is
counted from it when read.  Distributional checks come from ensembles of
independent replicas.
"Infinite-time" quantities are exact: a walk that steps just above every
tracked site returns to the highest one with probability exactly h, so
one uniform decides between a return and escape for good, and no count
is truncated.  Below the lowest tracked site lo the walk visits nothing
and surely comes back, so both escape walks are reflected there: a
down-step from lo stays on lo and is a visit to it, which leaves the
law of the visits to the sites >= lo unchanged.  Ensembles walk their
replicas on the calling thread, in a pool of up to 2^14 walkers, 8 step
lanes a round; a walker that returns to the highest tracked site walks
on from there with the round's next lane, so a round ends only after its
step lanes or at an escape.  Each round's byte of up-steps and byte of
decisions (each lane's word below h) name one lane pattern, from which
tables read how far each walker goes, where it ends, whether it has
escaped and its visits to the tracked sites, which go straight into each
replica's count (`_escape_visits`).  A single path
walks on after its horizon alone, 1023 steps a draw, tallying its visits
by depth (`_walk_on`).  An ensemble whose replicas expect more steps in
all than a fixed work budget, or a walk after a horizon that expects
more steps than it, is refused with BudgetError before it draws a word;
a walk still going after the step budget that a Chernoff bound sets
from p raises BudgetError, and so does a walk whose budget exceeds what
its step counter holds (`_step_budget`).

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
is the same counter-based draw in every routine (see `rng`), the t-th
draw of its walk reflected at lo, and a replica's visits do not depend
on which walkers share its rounds, so results do not depend on the size
of the pool.  A single path's steps are the bit-sliced path stream of its
seed (`rng.path_step_bits`), 16 key blocks per draw; its walk after the
horizon (`path_report`) is replica 0 of the same seed from step n on, a
stream that shares no word with the path, so the pair has the law of one
walk.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BudgetError, ValidationError, require_integers
from .model import WalkParams
from .closedform import excursion_mean_visits
from .rng import BLOCK_LANES, _below, _cut, _key, _walker_words, path_step_bits

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
_SPAN = 2 * _ROUND + 2  # widest span whose headrooms each read their own round codes
_WALK_LANES = 1023  # steps of a path's walk after its horizon per draw
_BUDGET_MISS = 1e-18  # chance that a correct replica outruns its step budget
_WORK_STEPS = 1e9  # steps that the replicas of one escape walk may expect to take in all
_SLICE = 1 << 16  # sites per slice of the field in simulate_path and _field_pass


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
    """`path_report` reads params, n, seed and heavy, and ignores
    replicas; `ensemble` reads params, replicas and seed, and ignores n
    (an integer >= 1 all the same, so ensembles pass n=1) and heavy."""

    params: WalkParams
    n: int
    replicas: int = 1
    seed: int = 0
    heavy: HeavyPointConfig | None = None

    def __post_init__(self):
        require_integers(1, n=self.n, replicas=self.replicas)
        require_integers(seed=self.seed)


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
    (`LocalTimeField.counts`); `pair_spectrum` is counted from it on
    each read.  qtilde, xi_max, xi_star and the site variant's heavy set
    are read in one pass over it (`_field_pass`).  `walk_on_words` and
    `walk_on_steps` are the RNG words drawn and the steps walked by the
    path's walk after its horizon (`_walk_on`), its decision step
    included.
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
    walk_on_words: int
    walk_on_steps: int

    @property
    def pair_spectrum(self) -> np.ndarray:
        """Entry [K, L]: the sites of the range and its one-site margin
        with K visits and L visits to their two neighbours, from one
        bincount of K * (2 xi_max + 1) + L.  Row K >= 1 sums to qtilde[K]."""
        width = 2 * self.xi_max + 1
        code = np.zeros(len(self.counts) + 2, dtype=np.int64)
        np.multiply(self.counts, width, out=code[1:-1])
        code[:-2] += self.counts  # the upper neighbour's count
        code[2:] += self.counts  # the lower neighbour's count
        return np.bincount(code, minlength=(self.xi_max + 1) * width).reshape(-1, width)

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
            "walk_on_words": self.walk_on_words,
            "walk_on_steps": self.walk_on_steps,
        }


@dataclass(frozen=True)
class EnsembleReport:
    """Summary of one statistic over a replica ensemble.

    Every statistic is an exact sample of infinite-time counts: replicas
    are followed until they escape for good, so the histogram carries no
    truncation bias, only sampling error.  `words` is the number of RNG
    words the replicas drew and `steps` the number of steps they walked
    in the walk reflected at the lowest tracked site (`_escape_visits`),
    decision steps included.  Each round of a walker draws the words of
    its next 8 steps and the one after them, so an exit at the round's
    last step is decided in the round, and a walker that returns walks on
    with the round's next word; `words` is 9 per walker and round, plus
    one for each replica that starts above the highest tracked site and
    is decided on admission.
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


# the set bits of each byte (numpy before 2.0 has no bitwise_count)
_BYTE_ONES = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def simulate_path(params: WalkParams, n: int, seed: int) -> LocalTimeField:
    """One sampled path's local-time field; bit-reproducible in
    (params, n, seed).

    The field is counted from the down-steps by fact (c).  The path's
    steps are drawn first, as packed bits `_PATH_BLOCKS` key blocks at a
    time, and their down-steps counted by byte; the landing sites of the
    down-steps, about q * n, are then written chunk by chunk into one
    array of exactly that size.  One bincount of them at the exact size
    of the range gives D; each count then takes the one below it in place,
    _SLICE sites at a time from the top down, with no second array of the
    range's size; c(s) comes last.
    """
    require_integers(1, n=n)
    require_integers(seed=seed)
    chunk = _PATH_BLOCKS * BLOCK_LANES
    words = np.empty(-(-n // 64), dtype="<u8")
    for first in range(0, n, chunk):
        size = min(chunk, n - first)
        words[first // 64 : -(-(first + size) // 64)] = path_step_bits(params.p, seed, size, first)
    np.invert(words, out=words)  # bit set: the step goes down
    if n % 64:
        words[-1] &= np.uint64((1 << (n % 64)) - 1)  # bits past step n - 1
    # step t of the path is bit t mod 8 of byte t div 8
    packed = words.view(np.uint8)
    downs = int(_BYTE_ONES[packed].sum())
    land = np.empty(downs, dtype=np.int64)
    done = 0
    for first in range(0, n, chunk):
        size = min(chunk, n - first)
        part = packed[first // 8 : -(-(first + size) // 8)]
        steps = np.flatnonzero(np.unpackbits(part, count=size, bitorder="little").view(bool))
        # down-step k, at step T = first + t, lands on T - 2k - 1
        start = 2 * done + 1 - first
        end = done + len(steps)
        np.subtract(steps, np.arange(start, start + 2 * len(steps), 2), out=land[done:end])
        done = end
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
    exact-escape walk takes no more steps than the walk it stands for:
    it stops at its decision, and its reflection at lo is the free walk
    with each excursion below lo cut out (a start below lo takes one step
    to lo, where the free walk takes at least one), so on the same steps
    it is never longer.  Its last round draws up to _ROUND more words and
    a decision.  A walk that reads its stream from `first_step` and could
    pass the 2^63 steps that its step counter holds raises BudgetError.
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


@functools.lru_cache(maxsize=64)
def _round_tables(up_returns: bool, span: int, below: tuple):
    """Tables of one round of the walk reflected at lo, for one order of
    the cuts, `up_returns` = `_cut(p) <= _cut(h)` (every word below p is
    below h too), the headrooms 0..span of one span <= _SPAN, and the
    tracked sites hi - d, d in `below`.

    A round reads 9 lanes: lanes 0..7 step (up when the word is below p)
    and lanes 1..8 decide exits (a return when it is below h).  The two
    tests are nested, so lane j falls in one of three classes, 2 - up -
    back: 0 steps up and returns, 2 neither, and 1 either steps down and
    returns (up_returns) or steps up and escapes.  Lane 0 only steps and
    lane 8 only decides, so each has the classes 0 and 2 alone, digit 0
    and 1.  With the digits of lanes 1..7 their classes, a round's
    pattern, the sum of digit_j w_j with w_0 = 1 and w_j = 2 * 3^(j-1), is
    one of 2 * 3^7 * 2 = 8748; each lane's digit is (1 - up) + (1 - back)
    of its bits, so the pattern is a sum over the two bytes.  The walk
    steps lane by lane; one that steps to hi + 1 at lane j is decided by
    lane j + 1, and a return is a visit to hi from which the walk goes on
    with lane j + 2, so a round ends after its 8 step lanes, or at an
    escape.  A
    walker 8 or more below hi cannot pass it within a round, and one 8 or
    more above lo cannot step down from it, so headroom and depth are
    clipped to 8.  All patterns are walked together lane by lane: lane j
    splits each pattern so far by its digit, the most significant yet.
    A round's code is pattern * (span + 1) + hi - x.

    up_lanes[u] + back_lanes[d]  the code's pattern times span + 1, read
        from the round's byte of up-steps u (bit j: lane j) and of
        decisions d (bit j: lane j + 1);
    steps[code]  lanes used: 8, or 9 when lane 7 exits and returns, and j
        + 2 on an escape at lane j;
    offset[code]  position after the round, relative to its start: hi + 1
        after an escape, so the headroom hi - x is -1 exactly then;
    visits[code]  the round's visits to the tracked sites, every return's
        visit to hi included.
    """
    rise = np.arange(span + 1)  # hi - x
    top = np.minimum(rise, _ROUND)
    floor = -np.minimum(span - rise, _ROUND)  # lo - x
    tracked = np.isin(np.arange(-1, span + 1), below)  # site hi - d at d + 1
    # each round so far, from each headroom: where it is, the lanes it
    # used (set at an escape, and at a return by lane 8), its visits, and
    # whether it has escaped
    x = np.zeros((1, span + 1), dtype=np.int64)
    used = np.full(x.shape, _ROUND, dtype=np.uint8)
    visits = np.zeros(x.shape, dtype=np.uint8)
    gone = np.zeros(x.shape, dtype=bool)
    for j in range(_ROUND + 1):
        inner = 0 < j < _ROUND
        c = np.arange(3 if inner else 2)[:, None, None] * (1 if inner else 2)  # class of each digit
        up = (c == 0) | (c == 1) & (not up_returns)
        back = (c == 0) | (c == 1) & up_returns
        deciding = ~gone & (x > top)  # stepped to hi + 1 at lane j - 1
        stepping = ~gone & ~deciding & (j < _ROUND)
        returns, escapes = deciding & back, deciding & ~back
        x = np.where(stepping, np.maximum(x + 2 * up - 1, floor), x - returns)
        used = np.where(escapes | returns & (j == _ROUND), j + 1, used)
        visits = visits + ((returns | stepping & (x <= top)) & tracked[rise - x + 1])
        gone = gone | escapes
        x, used, visits, gone = (a.reshape(-1, span + 1) for a in (x, used, visits, gone))
    weights = np.array([1] + [2 * 3**j for j in range(_ROUND)])  # w_0..w_8
    clear = (np.arange(256)[:, None] >> np.arange(_ROUND)) & 1 == 0  # bit j of each byte
    tables = (
        clear @ weights[:-1] * (span + 1),
        clear @ weights[1:] * (span + 1),
        used.ravel(),
        x.astype(np.int8).ravel(),
        visits.ravel(),
    )
    for a in tables:  # shared by every call that reads them from the cache
        a.flags.writeable = False
    return tables


_LANE_SHIFTS = np.arange(_ROUND, dtype=np.uint64)[:, None]


def _expected_steps(params: WalkParams, hi: int, span: int) -> float:
    """Mean steps per replica of `_escape_visits` from 0, reflected at
    lo = hi - span, decision steps included.

    From lo + k the reflected walk first reaches lo + k + 1 after
    tau_k = (1 - h^(k+1)) / gamma0 steps on average (tau_0 = 1/p, tau_k =
    1/p + h tau_(k-1)).  A walk from x0 thus passes hi after the sum of
    tau_(x - lo) over x = x0..hi, decides in one more step, and returns
    to hi q/gamma0 times on average, each time for tau_(hi - lo) + 1 more
    steps.  A replica from 0 below lo takes one step to lo first; one
    from 0 above hi takes its admission step and walks on from hi with
    probability h^(-hi).
    """
    g, log_h = params.gamma0, params.log_h
    k = min(max(span - hi, 0), span)  # x0 - lo, x0 = 0 clipped to lo..hi
    m = span - k + 1  # terms in the sum of tau over k..span
    # sum of h^(j+1), j = k..span, is h^(k+1) (1 - h^m) / (1 - h), 1 - h = gamma0/p
    taus = (m + params.p * math.exp((k + 1) * log_h) * math.expm1(m * log_h) / g) / g
    tau_top = -math.expm1((span + 1) * log_h) / g
    walk = taus + 1.0 + params.q / g * (tau_top + 1.0)
    if hi < 0:
        return 1.0 + math.exp(-hi * log_h) * walk
    return walk + (hi > span)


def _check_work(params: WalkParams, replicas: int, hi: int, span: int) -> None:
    """Raise BudgetError when `replicas` walks of `_expected_steps(params,
    hi, span)` steps each expect more than `_WORK_STEPS` steps in all."""
    mean = _expected_steps(params, hi, span)
    if replicas * mean > _WORK_STEPS:
        raise BudgetError(
            f"{replicas} replicas expect about {mean:.4g} steps each, "
            f"{replicas * mean:.3g} in all, beyond the budget of {_WORK_STEPS:.3g} steps"
        )


def _escape_visits(
    params: WalkParams, seed: int, replicas: int, hi: int, below
) -> tuple[np.ndarray, int, int]:
    """The visits of each replica r < `replicas`, walked from 0 to the end
    of time, to the tracked sites hi - d, d in `below` (sorted, and
    holding 0: hi is tracked; over a span max(below) above _SPAN, only 0
    and the span, else ValueError).

    The walk is reflected at lo = hi - max(below), the lowest tracked
    site: a down-step from lo stays on lo and is a visit to it, x_t =
    max(x_(t-1) + s_t, lo).  From below lo the free walk visits no
    tracked site and surely comes back to lo, so by the strong Markov
    property cutting each of its excursions below lo out gives this walk,
    and the joint law of the visits to the sites >= lo is the same.  A
    replica that starts below lo (lo > 0) is on lo after its first step,
    whatever that step's word, and is counted there once; no word is
    drawn for it.  Above hi the walk visits no tracked site, and from hi
    + d it ever returns to hi with probability exactly h^d.  So a replica
    that steps to hi + 1 decides with the uniform u of its next step: if
    u < h it is counted at hi and walks on from there, otherwise it is
    done.  When hi < 0 a replica is decided on admission with h^(-hi).
    The counts are exact, with no truncation.

    The replicas walk in a pool of at most `_POOL` slots: each walker's
    replica, headroom hi - x, next step and stream key.  The key is made
    once, on admission (a replica admitted from above hi draws its
    decision under it first), and each round `rng._walker_words`
    draws every walker's next `_ROUND` + 1 words under its key, its 8
    step lanes and the word after them, into buffers made once per call.
    A walker that steps to hi + 1 at lane j is decided by lane j + 1 of
    the same round, and after a return it walks on from hi with lane j +
    2, so a round ends only after its step lanes or at an escape, and
    each walker starts a round on lo..hi.  A round's up-steps (lanes 0..7
    below p) and decisions (lanes 1..8 below h) are packed into two bytes
    per walker, which name its lane pattern; with the walker's headroom
    they make the round's code, from which the tables of `_round_tables`
    (one order of the cuts, one span and one tracked set, made once)
    read how far the walker goes, where it ends (hi + 1 after an escape)
    and its visits to the tracked sites, every return's visit to hi
    included.  Over a span above _SPAN the headrooms 9..span - 9 share
    one code, as they reach neither hi nor lo within a round.  Every
    visit goes straight into its replica's count.  After each round the
    walkers still walking move to the front of the pool, in order, and
    the next replicas are admitted after them.

    Returns the per-replica counts, the words drawn, `_ROUND` + 1 per
    walker and round and one per replica admitted from above hi, and the
    steps of the reflected walk, decision and admission steps included.
    A call whose replicas expect more than `_WORK_STEPS` steps in all
    (`_check_work`) raises BudgetError before it allocates the counts,
    and so does a replica still walking after `_step_budget` steps.
    """
    p, h = params.p, params.h
    budget = _step_budget(params, hi, 0)
    span = int(below[-1])  # hi - lo
    _check_work(params, replicas, hi, span)
    vals = np.zeros(replicas, dtype=np.int64)
    far = span > _SPAN  # the headrooms 9..span - 9 read one round code
    if far and len(below) > 2:
        raise ValueError(f"over a span above {_SPAN} only hi and lo can be tracked, not {below}")
    up_lanes, back_lanes, walked_by, offset, visits = _round_tables(
        _cut(p) <= _cut(h), min(span, _SPAN), (0, _SPAN) if far else tuple(below)
    )
    above, low = hi < 0, hi > span  # replicas start above hi, or below lo
    # headroom hi - x and step on entry: at hi, from 0 or at lo
    entry, entry_step = min(max(hi, 0), span), int(above or low)
    size = min(_POOL, replicas)
    rows = np.empty(size, dtype=np.int64)  # the pool's slots: replica,
    headroom = np.empty_like(rows)  # hi - x,
    step = np.empty_like(rows)  # the next step of each walker
    key = np.empty(size, dtype=np.uint64)  # and its stream key
    # one round's words (its steps and the word after them), the mix's
    # scratch space, and its up-steps (lanes 0..7 below p) and decisions
    # (lanes 1..8 below h), lane by lane (lane j of slot i at [j, i]), in
    # whole 8-slot columns
    cols = -(-size // 8) * 8
    drawn = np.empty((_ROUND + 1, cols), dtype=np.uint64)
    scratch = np.empty_like(drawn)
    lanes = np.zeros((2, _ROUND, cols), dtype=bool)
    n = queued = words = steps = 0  # n: walkers in the pool, in slots 0..n-1
    while True:
        new = np.arange(queued, min(queued + size - n, replicas))
        queued += len(new)
        new_keys = _key(seed, new, 0) if len(new) else key[:0]  # made once per walker
        if above and len(new):
            w = np.empty((len(new), 1), dtype=np.uint64)
            _walker_words(new_keys, np.zeros_like(new), w)
            words += len(new)
            back = _below(w[:, 0], h ** -hi)
            steps += len(new) - int(back.sum())
            new, new_keys = new[back], new_keys[back]
        vals[new] = above or low  # an admission step lands on hi or lo, a visit
        fill = slice(n, n + len(new))  # after the walkers still walking
        rows[fill], headroom[fill], step[fill], key[fill] = new, entry, entry_step, new_keys
        n += len(new)
        steps += entry_step * len(new)
        if not n and queued == replicas:
            return vals, words, steps
        # a round may be empty when every replica admitted so far escaped at once
        _walker_words(key[:n], step[:n], drawn[:, :n].T, scratch[:, :n].T)
        words += (_ROUND + 1) * n
        _below(drawn[:_ROUND, :n], p, out=lanes[0, :, :n])
        _below(drawn[1:, :n], h, out=lanes[1, :, :n])
        # byte i of a row's word j is lane j of slot i: shifted by j and or-ed
        # over the lanes, byte i is slot i's byte of up-steps and of decisions
        bits = lanes[:, :, : -(-n // 8) * 8].view("<u8") << _LANE_SHIFTS
        up, decide = np.bitwise_or.reduce(bits, axis=1).view(np.uint8)[:, :n]
        rise = headroom[:n]
        code = up_lanes[up]
        code += back_lanes[decide]
        code += rise
        if far:  # the code of the same walk over the span _SPAN
            code -= np.clip(rise - _ROUND - 1, 0, span - _SPAN)
        vals[rows[:n]] += visits[code]  # the pool's rows are distinct
        walked = walked_by[code]
        step[:n] += walked
        steps += int(walked.sum())
        rise -= offset[code]  # -1: escaped for good, at hi + 1
        if step[:n].max(initial=0) > budget:
            raise BudgetError(f"escape not reached within {budget} steps")
        walking = np.flatnonzero(rise >= 0)  # to the front of the pool, in order
        for a in (rows, headroom, step, key):
            a[: len(walking)] = a[walking]
        n = len(walking)


def _walk_on(
    params: WalkParams, seed: int, start: int, first_step: int, min_site: int, hi: int
) -> tuple[np.ndarray, int, int]:
    """Visits by depth below hi that replica 0 makes at steps >= first_step,
    walked from min_site <= start <= hi to the end of time: entry d counts
    the visits to hi - d, d <= hi - min_site.  Returns that tally, the
    words drawn (lanes + 1 a draw) and the steps walked, the decision
    step included.

    This is the walk of `_escape_visits` for one replica on its own,
    reflected at lo = min_site: a down-step from min_site stays there and
    is a visit to it, a step to hi + 1 is decided by the word of the next
    step, and a return is a visit to hi from which the walk goes on.  The
    reflected positions of a draw are its free positions plus the positive
    part of the running maximum of min_site - pos.  Each draw, the
    `_walker_words` of replica 0's key (made once per walk) into one
    buffer, holds `_WALK_LANES` steps and one more word, so an exit at the
    last lane reads its decision from the same draw, and after a return
    the walk goes on from hi with the draw's next lane: a draw is made
    only once the last one's lanes are spent.  The visits are added into
    the tally, which grows only with the depth the walk reaches.  A walk
    that expects more than `_WORK_STEPS` steps (`_check_work`) raises
    BudgetError before any draw, and so does one that reaches
    first_step + `_step_budget`.
    """
    budget = _step_budget(params, hi - start, first_step)
    _check_work(params, 1, hi - start, hi - min_site)
    x, step, words, tally = start, first_step, 0, np.zeros(0, dtype=np.int64)
    key = _key(seed, 0, 0)  # replica 0's, made once per walk
    drawn = np.empty((2, min(_WALK_LANES, budget) + 1), dtype=np.uint64)  # a draw and its scratch
    lane = lanes = 0  # the draw's next lane and its steps
    while step < first_step + budget:
        if lane >= lanes:  # the draw's lanes are spent
            lane, lanes = 0, min(_WALK_LANES, first_step + budget - step)
            w = _walker_words(key, np.int64(step), drawn[0, : lanes + 1], drawn[1, : lanes + 1])
            words += lanes + 1
            up = np.where(_below(w[:lanes], params.p), 1, -1)
        pos = x + np.cumsum(up[lane:])
        floor = np.maximum.accumulate(min_site - pos)
        pos += np.maximum(floor, 0, out=floor)
        j = int((pos > hi).argmax())  # the first step to hi + 1, when pos[j] > hi
        if pos[j] <= hi:
            visited, x, used = pos, int(pos[-1]), len(pos)
        elif _below(w[lane + j + 1], params.h):  # back to hi, from where it walks on
            visited, x, used = np.append(pos[:j], hi), hi, j + 2
        else:  # escaped for good: no position left
            visited, x, used = pos[:j], None, j + 2
        lane, step = lane + used, step + used  # an exit uses its step and its decision's
        more = np.bincount(hi - visited, minlength=len(tally))
        more[: len(tally)] += tally
        tally = more
        if x is None:
            return tally, words, step - first_step
    raise BudgetError(f"escape not reached within {budget} steps")


def _field_pass(
    counts: np.ndarray, xi_star_z: tuple[int, ...], threshold: float
) -> tuple[np.ndarray, dict, np.ndarray]:
    """Qtilde, Xi* of each {0, z} and the sites whose count clears
    `threshold`, read from dense counts in one pass, _SLICE sites at a
    time, so that each slice is read from memory once.

    Each slice's bincount is added into the running spectrum; its length
    is the slice's max + 1.  The pair sums counts[s + z] + counts[s] of
    the starts s in the slice go into one scratch array.  A slice whose
    max clears the threshold is scanned for its heavy sites.  The
    translates with only the lower (counts[-z:]) or only the upper site
    (counts[:z]) in the range come last.
    """
    size = len(counts)
    spectrum = np.zeros(0, dtype=np.intp)
    xi_star = dict.fromkeys(xi_star_z, 0)
    scratch = np.empty(min(_SLICE, size), dtype=counts.dtype)
    heavy = [np.zeros(0, dtype=np.intp)]
    for s in range(0, size, _SLICE):
        part = counts[s : s + _SLICE]
        bins = np.bincount(part)
        if len(bins) - 1 >= threshold:
            heavy.append(np.flatnonzero(part >= threshold) + s)
        if len(bins) > len(spectrum):
            spectrum, bins = bins, spectrum
        spectrum[: len(bins)] += bins
        for z in xi_star:
            e = min(s + len(part), size - z)  # pairs start below size - z
            if e > s:
                pairs = np.add(counts[s + z : e + z], counts[s:e], out=scratch[: e - s])
                xi_star[z] = max(xi_star[z], int(pairs.max()))
    for z in xi_star:
        xi_star[z] = max(xi_star[z], int(counts[:z].max()), int(counts[-z:].max()))
    return spectrum, xi_star, np.concatenate(heavy)


def _heavy_threshold(params: WalkParams, n: int, heavy: HeavyPointConfig) -> float:
    """The count (1 - delta_n) * lambda0 * log n that a heavy site reaches."""
    return (1.0 - heavy.delta_n) * (params.lambda0 * math.log(n))


def _heavy_profile(params: WalkParams, counts: np.ndarray, n: int, heavy_idx) -> dict:
    """Worst relative deviation of the profile of `counts` around the
    heavy sites `heavy_idx` (indices into counts) from m(z) lambda0 log n,
    over the window of `heavy_deviation`."""
    c = 0.5 / max(1.0, -params.log_h)
    rate_log_n = params.lambda0 * math.log(n)
    radius = max(1, int(c * math.log(max(math.log(n), math.e))))
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


def heavy_deviation(
    params: WalkParams, counts: np.ndarray, n: int, heavy: HeavyPointConfig
) -> dict:
    """Worst relative deviation of the local-time profile around sites
    whose visit count clears the heaviness threshold, at horizon n >= 2.

    `counts` are dense visit counts of consecutive sites, such as
    `LocalTimeField.counts` at horizon n.  This scans all of them for the
    heavy sites; `path_report` takes its site variant's heavy set from
    its one pass over the field instead, and the path variant's from that
    set and the sites its walk after the horizon raises.  The window is
    |z| <= c * log log n, at least one site, with c = 1 / (2 max(1,
    alpha)), alpha = log(1/h): the profile result needs alpha * c < 1.
    Its radius is 1 for every n < e^(e^4), about 5 * 10^23.
    """
    if n < 2:
        raise ValidationError(f"heavy_deviation needs n >= 2 (log n > 0), got {n}")
    heavy_idx = np.flatnonzero(counts >= _heavy_threshold(params, n, heavy))
    return _heavy_profile(params, counts, n, heavy_idx)


def path_report(config: SimConfig, xi_star_z: tuple[int, ...] = (1,)) -> PathReport:
    """All single-path statistics of one path of length config.n >= 2,
    read from its local-time field (the rates are per log n).  Each
    distance in `xi_star_z` is an integer >= 1.

    The horizon's statistics are read in one pass over the field
    (`_field_pass`), which also finds the site variant's heavy sites.
    eta_max and the path variant read the total counts: the path walks on
    alone, reflected at its lowest site, until it escapes for good
    (`_walk_on`).  That walk's tally of visits by depth below the path's
    maximum is added into the field in place, read, and taken out again,
    so no copy of the field is made and `PathReport.counts` is the field
    at the horizon.  The tally only raises the sites it covers, so the
    path variant's heavy set is the site variant's joined with those of
    them that clear the threshold, and the field is not scanned again.
    """
    if config.n < 2:
        raise ValidationError(f"path_report needs n >= 2, got {config.n}")
    if not all(isinstance(z, numbers.Integral) and z >= 1 for z in xi_star_z):
        raise ValidationError(f"xi_star_z must hold integer distances >= 1, got {xi_star_z}")
    params, n, seed, heavy = config.params, config.n, config.seed, config.heavy
    field_ = simulate_path(params, n, seed)
    counts, lo = field_.counts, field_.min_site
    threshold = math.inf if heavy is None else _heavy_threshold(params, n, heavy)
    qtilde, xi_star, heavy_idx = _field_pass(counts, tuple(int(z) for z in xi_star_z), threshold)
    xi_max = len(qtilde) - 1
    profiles = {}
    if heavy is not None:
        profiles["site_variant"] = _heavy_profile(params, counts, n, heavy_idx)

    # the same walk after the horizon: replica 0 from step n, a stream
    # independent of the path's (see `rng`).  Its visits are to sites of
    # the range, all on the path by fact (a); `top`, the field by depth
    # below max_site, is a view, so the tally goes in and out in place.
    tally, words, steps = _walk_on(params, seed, field_.final_position, n, lo, field_.max_site)
    top = counts[::-1][: len(tally)]
    top += tally
    eta_max = max(xi_max, int(top.max(initial=0)))  # the tally raises only `top`
    if heavy is not None:
        raised = len(counts) - 1 - np.flatnonzero(top >= threshold)
        profiles["path_variant"] = _heavy_profile(
            params, counts, n, np.union1d(heavy_idx, raised)
        )
    top -= tally
    return PathReport(
        n=n, seed=seed, qtilde=qtilde, nu_n=field_.new_maxima(), xi_max=xi_max,
        eta_max=eta_max, xi_star=xi_star, counts=counts, heavy=profiles or None,
        walk_on_words=words, walk_on_steps=steps,
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
    # one spelling per z: no "+" and no leading zeros
    if kind in _SITE_FAMILIES and re.fullmatch(r"0|-?[1-9]\d*", arg):
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
    `config.n` plays no part.  One pool on the calling thread walks all
    replicas and adds each round's visits to the tracked sites straight
    into the per-replica counts, made once the work budget is passed.

    `threads` is neither read nor checked.  It is kept only because the
    benchmark harness in perfbench/ still passes it; it goes once that
    harness stops.
    """
    name = str(statistic)
    sites = _stat_sites(name)
    hi = max(sites)
    params, seed, replicas = config.params, config.seed, config.replicas
    below = sorted(hi - s for s in sites)
    vals, words, steps = _escape_visits(params, seed, replicas, hi, below)
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
