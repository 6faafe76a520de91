"""Counter-based splittable random numbers.

Every random draw is a pure function of (seed, replica, step) through a
chain of 64-bit finalizing mixes, so any replica can generate its own
stream independently of how work is scheduled across rounds.
Identical keys give bit-identical streams on every platform.

Replica streams (`counter_words`, `counter_uniforms`, `counter_steps`)
spend one word on each step: step t of replica r is the t-th draw of its
walk, which the escape walks of `montecarlo` reflect at their lowest
tracked site, so a down-step that stays there spends its word too.  A
replica has one key, K_r = `_key(seed, r, 0)`, and the word of its step
t is mix(K_r ^ t): a key and a counter (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011), one mix per word.
`_walker_words` is that draw for walkers that keep their keys, and
`counter_words` is the same draw from the replica's number.  A single
long path is drawn bit-sliced instead (`path_step_bits`): step t is bit
t mod 64 of group (t mod 2^16) div 64 of key block t div 2^16, and its
53-bit uniform is spread over 53 plane words of its group, which are
compared with p from the top bit down and drawn only while a step of the
group is still open, about 7.5 words per 64 steps for the same law bit
for bit.  The path's planes are read under their own keys (`_path_key`),
so the walk after a path's horizon, replica 0 from step n on, reads no
word of the path.  Ensembles stay on one word per step: each walker of
an escape pool draws the next 8 steps of its own stream per round, and
at so few steps per walker the per-plane work costs more than the words
it saves (bit-sliced ensemble prototypes were 1.5-2x slower).  An escape
decision reads the word of its step like any other step, and both escape
walks draw one word past their steps, so every decision is in the draw
that holds its exit, and after a return the walk goes on with the draw's
next word: an ensemble walker draws 9 words a round, its 8 step lanes
and the word after them, and the walk after a path's horizon draws its
steps under replica 0's key one word past each batch.  A key hashes the
seed as a Python integer, so a scalar key costs a few microseconds and
an array of them two in-place mixes (`_key`).
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
_MASK = (1 << 64) - 1
_MIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)  # SplitMix64's constants
_ALL = np.uint64(_MASK)
_GOLDEN, _M1, _M2 = (np.uint64(c) for c in _MIX)
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


def _mix_int(z: int) -> int:
    """`mix64` of one word held in a Python integer."""
    golden, m1, m2 = _MIX
    z = (z + golden) & _MASK
    z = ((z ^ z >> 30) * m1) & _MASK
    z = ((z ^ z >> 27) * m2) & _MASK
    return z ^ z >> 31


def _key(seed: int, replica, block):
    """Key mix(mix(mix(seed) ^ replica) ^ block) of each (replica, block)
    pair, broadcast together (np.uint64 for scalars).  The seed is mixed
    as a Python integer, and so are scalars all through; an array of
    replicas is mixed once in place, and then with the blocks."""
    s = _mix_int(seed & _MASK)
    if np.ndim(replica) == 0 and np.ndim(block) == 0:
        return np.uint64(_mix_int(_mix_int(s ^ int(replica)) ^ int(block)))
    z = np.array(replica, dtype=np.uint64)
    z ^= np.uint64(s)
    _mix_inplace(z)
    z = z ^ np.asarray(block, dtype=np.uint64)
    _mix_inplace(z)
    return z


def _walker_words(keys, step, out: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Words of steps step + j, j < out.shape[-1], of the streams with
    keys `keys`, drawn into `out`: word t of key K is mix(K ^ t), one mix
    per word, with `scratch` passed on to `_mix_inplace`.

    `keys` (uint64) and `step` (int64 or uint64) have one entry per row
    of `out`, whose last axis holds the lanes.
    """
    np.add(step.view(np.uint64)[..., None], np.arange(out.shape[-1], dtype=np.uint64), out=out)
    out ^= keys[..., None]
    _mix_inplace(out, scratch)
    return out


def counter_words(seed: int, replica, lanes: int, step=0) -> np.ndarray:
    """Raw 64-bit words of steps step + j, j < lanes, of `replica`: the
    `_walker_words` of its key `_key(seed, replica, 0)`.  `replica` and
    `step` may be scalars or integer arrays that broadcast together; the
    result has shape (*broadcast shape, lanes).
    """
    replica, step = np.broadcast_arrays(
        np.asarray(replica, dtype=np.uint64), np.asarray(step, dtype=np.uint64)
    )
    out = np.empty((*step.shape, lanes), dtype=np.uint64)
    return _walker_words(_key(seed, replica, 0), step, out)


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
    """Key P_b of block `block` of a path's step planes: one more mix of
    replica 0's key for that block.  A plane word is mix(P_b ^ l) with l <
    2^16 and a word of replica r is mix(K_r ^ t), so replica r reads a
    word of block b only at a step t with t ^ l = K_r ^ P_b: at step 2^32
    or later unless the two keys agree in their top 32 bits, a chance of
    2^-32 for each pair (tested for 4096 replicas and 16 blocks of three
    seeds).  So the walk after a path's horizon, replica 0, reads no word
    of the path."""
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
