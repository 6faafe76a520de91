"""Counter-based splittable random numbers.

Every random draw is a pure function of (seed, replica, step) through a
chain of 64-bit finalizing mixes, so any replica can generate its own
stream independently of how work is scheduled across rounds.
Callers address a draw by its step alone.  Inside this module step t is
lane t mod 2^16 of key block t div 2^16: the block index enters the
replica's key and the lane is mixed into that key.  Identical keys give
bit-identical streams on every platform.

Replica streams (`counter_words`, `counter_uniforms`, `counter_steps`)
spend one word on each step.  The word of lane l under a block's key is
mix(key ^ l), drawn by one keyed primitive (`_keyed_words`) into a
caller's buffer: `counter_words` makes the key of each row and draws
through it, and an ensemble walker keeps its key while its steps stay in
one block, so a round costs one mix per word and no key mixes.  A
single long path is drawn bit-sliced instead (`path_step_bits`): step t
is bit t mod 64 of group (t mod 2^16) div 64 of key block t div 2^16,
and its 53-bit uniform is spread over 53 plane words of its group, which
are compared with p from the top bit down and drawn only while a step of
the group is still open, about 7.5 words per 64 steps for the same law
bit for bit.  The path's planes are read under their own key domain (`_path_key`), so the
path shares no word with any replica stream of its seed: the walk after
a path's horizon, replica 0 from step n on, is independent of the path.
Ensembles stay on one word per step: each walker of an escape pool
draws the next 8 steps of its own stream per round, and at so few steps
per walker the per-plane work costs more than the words it saves
(bit-sliced ensemble prototypes were 1.5-2x slower).  An escape decision
reads the word of its step like any other step, from the round that drew
it when it lies inside that round.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BLOCK_LANES",
    "mix64",
    "counter_words",
    "counter_uniforms",
    "counter_steps",
    "path_step_bits",
]

BLOCK_LANES = 1 << 16
_GROUP = 64  # path steps per group, one bit of each plane word
_GROUPS = BLOCK_LANES // _GROUP  # groups per key block
_PLANES = 53  # bits of a step's uniform; 53 * 1024 planes fit in one block
_DENSE_PLANES = 6  # planes drawn for every group before the open ones are gathered
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)
_LANE_BITS = np.uint64(16)
_LANE_MASK = np.uint64(BLOCK_LANES - 1)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(s) for s in (30, 27, 31, 11))
_U53 = np.float64(1.0 / (1 << 53))


def _mix_inplace(z: np.ndarray, tmp: np.ndarray | None = None) -> None:
    """SplitMix64 finalizer applied to a uint64 array in place; `tmp`, an
    array of z's shape, is its scratch space (a new one when not given)."""
    if tmp is None:
        tmp = np.empty_like(z)
    with np.errstate(over="ignore"):  # modular 2**64 wraparound is intended
        z += _GOLDEN
        np.right_shift(z, _S30, out=tmp)
        z ^= tmp
        z *= _M1
        np.right_shift(z, _S27, out=tmp)
        z ^= tmp
        z *= _M2
        np.right_shift(z, _S31, out=tmp)
        z ^= tmp


def mix64(x):
    """SplitMix64 finalizer, vectorized over uint64 arrays."""
    z = np.array(x, dtype=np.uint64)
    _mix_inplace(z)
    return z if z.ndim else z[()]


def _key(seed: int, replica, block):
    h = mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    h = mix64(h ^ np.asarray(replica, dtype=np.uint64))
    return mix64(h ^ np.asarray(block, dtype=np.uint64))


def _keyed_words(keys, lane, out: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Words of lanes lane + j, j < out.shape[-1], of the key blocks
    `keys`, drawn into `out`: word j is mix(key ^ (lane + j)).

    `keys` and `lane` are uint64 arrays of out's shape without its last
    axis, and every lane + j must stay below 2^16, inside the key's block.
    `scratch` is passed on to `_mix_inplace`.  This is the one definition
    of a replica's word: `counter_words` draws every row that stays in one
    block through it, and so do the ensemble rounds of `montecarlo`,
    which keep each walker's key.
    """
    np.add(lane[..., None], np.arange(out.shape[-1], dtype=np.uint64), out=out)
    out ^= keys[..., None]
    _mix_inplace(out, scratch)
    return out


def counter_words(seed: int, replica, lanes: int, step=0) -> np.ndarray:
    """Raw 64-bit words of steps step + j, j < lanes.

    `replica` and `step` may be scalars or integer arrays that broadcast
    together; the result has shape (*broadcast shape, lanes).  A row may
    run past the end of one key block into the next ones.
    """
    replica, step = np.broadcast_arrays(
        np.asarray(replica, dtype=np.uint64), np.asarray(step, dtype=np.uint64)
    )
    first = step >> _LANE_BITS
    lane = step & _LANE_MASK
    spans = 1 + (int(lane.max(initial=0)) + lanes - 1) // BLOCK_LANES if lanes else 1
    if spans == 1:  # the usual case: one key per row, no gather
        out = np.empty((*lane.shape, lanes), dtype=np.uint64)
        return _keyed_words(_key(seed, replica, first), lane, out)
    lane = lane[..., None] + np.arange(lanes, dtype=np.uint64)
    keys = np.stack([_key(seed, replica, first + np.uint64(k)) for k in range(spans)], -1)
    words = np.take_along_axis(keys, (lane >> _LANE_BITS).astype(np.intp), -1)
    words ^= lane & _LANE_MASK
    _mix_inplace(words)
    return words


def counter_uniforms(seed: int, replica, lanes: int, step=0) -> np.ndarray:
    """Uniform [0, 1) doubles (w >> 11) * 2^-53 of `counter_words`."""
    words = counter_words(seed, replica, lanes, step)
    return (words >> _S11).astype(np.float64) * _U53


def _cut(p: float) -> int:
    """ceil(p * 2^53), clamped to [0, 2^53]: a 53-bit uniform U * 2^-53
    is below p exactly when the integer U is below the cut, since for an
    integer k and a real x, k < x exactly when k < ceil(x).  p * 2^53 is
    exact in binary floating point."""
    return min(max(math.ceil(p * 2.0**53), 0), 1 << 53)


def _below(words: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """(w >> 11) * 2^-53 < p, tested on the raw words, into the bool
    array `out` when one is given.

    The test is (w >> 11) < cut, that is w < cut * 2^11: bit for bit the
    float definition, without converting any word.  The clamped cut keeps
    the comparison within 64 bits for every p.
    """
    cut = _cut(p)
    if cut == 0:
        out = np.empty(words.shape, dtype=bool) if out is None else out
        out[...] = False
        return out
    return np.less_equal(words, np.uint64((cut << 11) - 1), out=out)


def counter_steps(p: float, seed: int, replica, lanes: int, step=0) -> np.ndarray:
    """Walk increments of `counter_words`: +1 where the step's uniform
    is below p, otherwise -1 (int8)."""
    steps = _below(counter_words(seed, replica, lanes, step), p).view(np.int8)
    steps += steps
    steps -= 1
    return steps


def _path_key(seed: int, block):
    """Key of block `block` of a path's step planes: one more mix of
    replica 0's key for that block.  Two keys give a common word only if
    they agree above their low 16 bits (a word mixes key ^ lane, lane <
    2^16), so the path shares no word with replica 0 or any other
    replica of its seed."""
    return mix64(_key(seed, 0, block))


def path_step_bits(p: float, seed: int, lanes: int, step: int = 0) -> np.ndarray:
    """Packed steps step + t, t < lanes, of the path of `seed`, for a
    step that is a multiple of 64: bit t mod 64 of word t div 64 is 1
    where the step is up (uint64).

    Step t of the path is bit t mod 64 of group (t mod 2^16) div 64 of
    key block t div 2^16.  Plane k < 53 of group g is the word at lane
    k * 1024 + g of the block under `_path_key`, and bit i of plane k is
    bit 52 - k of the 53-bit uniform U of the group's step i.  The step
    is up exactly when U < `_cut(p)`, the law of `counter_steps`.  U is
    compared with the cut from the top bit down, all 64 steps of a group
    at once (the lazy comparison of Knuth and Yao): each plane settles
    about half of the steps still open, and only groups with an open
    step draw their next plane, about 7.5 words per 64 steps.  After
    `_DENSE_PLANES` planes the open groups are gathered, and the later
    planes touch only those.
    """
    if step % _GROUP:
        raise ValueError(f"path steps start at a multiple of {_GROUP}, got {step}")
    cut = _cut(p)
    groups = -(-lanes // _GROUP)
    if cut >> _PLANES:  # p >= 1: U < 2^53 <= cut on every step
        return np.full(groups, _ALL, dtype=np.uint64)
    g = step // _GROUP + np.arange(groups)  # the groups' numbers along the path
    first, last = step // BLOCK_LANES, (step + lanes - 1) // BLOCK_LANES
    keys = _path_key(seed, np.arange(first, last + 1, dtype=np.uint64))
    # each group's key xor its lane in plane 0
    counters = keys[g // _GROUPS - first] ^ (g % _GROUPS).astype(np.uint64)
    up = np.zeros(groups, dtype=np.uint64)
    open_ = np.full(groups, _ALL, dtype=np.uint64)  # steps with U equal to the cut so far
    rows = np.arange(groups)  # the groups of counters and open_
    for k in range(_PLANES):
        if k >= _DENSE_PLANES:
            keep = np.flatnonzero(open_)
            if not len(keep):
                break
            rows, counters, open_ = rows[keep], counters[keep], open_[keep]
        w = counters ^ np.uint64(k * _GROUPS)
        _mix_inplace(w)
        if (cut >> (_PLANES - 1 - k)) & 1:  # open steps with a 0 bit are up
            w &= open_
            open_ ^= w
            up[rows] |= open_
            open_ = w
        else:  # open steps with a 1 bit are down
            np.invert(w, out=w)
            open_ &= w
    return up  # steps still open have U == cut: down
