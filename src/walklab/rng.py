"""Counter-based splittable random numbers.

Every random draw is a pure function of (seed, replica, step) through a
chain of 64-bit finalizing mixes, so any replica can generate its own
stream independently of how work is scheduled across chunks or threads.
Step t of a replica is lane t mod 2^16 of block t div 2^16: the block
index enters the replica's key and the lane is mixed into that key.
Identical keys give bit-identical streams on every platform.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BLOCK_LANES", "mix64", "counter_words", "counter_uniforms", "counter_steps"]

BLOCK_LANES = 1 << 16
_LANE_BITS = np.uint64(16)
_LANE_MASK = np.uint64(BLOCK_LANES - 1)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = (np.uint64(s) for s in (30, 27, 31, 11))
_U53 = np.float64(1.0 / (1 << 53))


def _mix_inplace(z: np.ndarray) -> None:
    """SplitMix64 finalizer applied to a uint64 array in place."""
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


def counter_words(seed: int, replica, block: int, lanes: int, offset=0) -> np.ndarray:
    """Raw 64-bit words of steps block * 2^16 + offset + j, j < lanes.

    `replica` and `offset` may be scalars or integer arrays that
    broadcast together; the result has shape (*broadcast shape, lanes).
    A row may run past lane 2^16 - 1 of its block into the next blocks.
    """
    replica, offset = np.broadcast_arrays(
        np.asarray(replica, dtype=np.uint64), np.asarray(offset, dtype=np.uint64)
    )
    first = np.uint64(block) + (offset >> _LANE_BITS)
    lane = (offset & _LANE_MASK)[..., None] + np.arange(lanes, dtype=np.uint64)
    spans = 1 + int(lane[..., -1].max(initial=0)) // BLOCK_LANES if lanes else 1
    if spans == 1:  # the usual case: one key per row, no gather
        words = _key(seed, replica, first)[..., None] ^ lane
    else:
        keys = np.stack([_key(seed, replica, first + np.uint64(k)) for k in range(spans)], -1)
        words = np.take_along_axis(keys, (lane >> _LANE_BITS).astype(np.intp), -1)
        words ^= lane & _LANE_MASK
    _mix_inplace(words)
    return words


def counter_uniforms(seed: int, replica, block: int, lanes: int) -> np.ndarray:
    """Uniform [0, 1) doubles (w >> 11) * 2^-53 of `counter_words`."""
    words = counter_words(seed, replica, block, lanes)
    return (words >> _S11).astype(np.float64) * _U53


def _below(words: np.ndarray, p: float) -> np.ndarray:
    """(w >> 11) * 2^-53 < p, tested on the raw words.

    For an integer k and a real x, k < x exactly when k < ceil(x), so the
    test is (w >> 11) < ceil(p * 2^53), that is w < ceil(p * 2^53) * 2^11:
    bit for bit the float definition, without converting any word.
    p * 2^53 is exact in binary floating point, and the cut is clamped to
    [0, 2^53] so that the comparison fits in 64 bits for every p.
    """
    cut = min(max(math.ceil(p * 2.0**53), 0), 1 << 53)
    if cut == 0:
        return np.zeros(words.shape, dtype=bool)
    return words <= np.uint64((cut << 11) - 1)


def counter_steps(
    p: float, seed: int, replica, block: int, lanes: int, offset=0
) -> np.ndarray:
    """Walk increments of `counter_words`: +1 where the step's uniform
    is below p, otherwise -1 (int8)."""
    steps = _below(counter_words(seed, replica, block, lanes, offset), p).view(np.int8)
    steps += steps
    steps -= 1
    return steps
