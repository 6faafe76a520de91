"""Reference for the steps of a single path, made the long way.

`rng.path_step_bits` compares each step's 53-bit uniform with the cut
lazily and draws only the planes it needs.  This reference draws all 53
plane words of every group, assembles each step's uniform U from its
bit of every plane with integer shifts, and compares U with
ceil(p * 2^53) directly.
"""

import math

import numpy as np

from walklab import rng


def reference_uniforms(seed, lanes, step=0):
    """The 53-bit integer uniforms of path steps step + t, t < lanes
    (step a multiple of 64): bit i of plane k is bit 52 - k of the U of
    step i of its group, and plane k of group g of block b is the word at
    lane k * 1024 + g under one more mix of replica 0's key for block b."""
    groups = step // 64 + np.arange(-(-lanes // 64))
    keys = rng.mix64(rng._key(seed, 0, (groups // 1024).astype(np.uint64)))
    lane = (groups % 1024)[:, None] + 1024 * np.arange(53)
    planes = rng.mix64(keys[:, None] ^ lane.astype(np.uint64))
    bit = np.arange(64, dtype=np.uint64)
    u = np.zeros((len(groups), 64), dtype=np.uint64)
    for k in range(53):
        u |= ((planes[:, k, None] >> bit) & np.uint64(1)) << np.uint64(52 - k)
    return u.ravel()[:lanes]


def reference_steps(p, seed, lanes, step=0):
    """+1 where U < ceil(p * 2^53), else -1 (int8)."""
    up = reference_uniforms(seed, lanes, step) < np.uint64(math.ceil(p * 2.0**53))
    return np.where(up, 1, -1).astype(np.int8)


def reference_positions(params, n, seed):
    """S_1..S_n of the path of `seed` (int64)."""
    return np.cumsum(reference_steps(params.p, seed, n), dtype=np.int64)
