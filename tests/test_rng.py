"""Counter-based random number streams."""

import numpy as np
import pytest

from walklab import rng

from pathref import reference_steps, reference_uniforms


def test_mix64_is_deterministic_and_spreads():
    a = rng.mix64(np.uint64(1))
    b = rng.mix64(np.uint64(2))
    assert a == rng.mix64(np.uint64(1))
    assert a != b
    # vectorized call agrees with scalar calls
    vec = rng.mix64(np.array([1, 2], dtype=np.uint64))
    assert vec[0] == a and vec[1] == b


def test_counter_uniforms_shape_and_range():
    u = rng.counter_uniforms(seed=7, replica=0, lanes=1000)
    assert u.shape == (1000,)
    assert (u >= 0.0).all() and (u < 1.0).all()
    assert abs(u.mean() - 0.5) < 0.05

    arr = rng.counter_uniforms(seed=7, replica=np.arange(8), lanes=16, step=3 << 16)
    assert arr.shape == (8, 16)
    # replica rows match the scalar calls
    row = rng.counter_uniforms(seed=7, replica=5, lanes=16, step=3 << 16)
    assert np.array_equal(arr[5], row)


def test_streams_are_independent_across_keys():
    base = rng.counter_uniforms(seed=1, replica=0, lanes=64)
    for other in (
        rng.counter_uniforms(seed=2, replica=0, lanes=64),
        rng.counter_uniforms(seed=1, replica=1, lanes=64),
        rng.counter_uniforms(seed=1, replica=0, lanes=64, step=1 << 16),
    ):
        assert not np.array_equal(base, other)


def test_counter_steps_values_and_frequency():
    steps = rng.counter_steps(0.75, seed=11, replica=0, lanes=200_000)
    assert set(np.unique(steps)) == {-1, 1}
    freq_up = (steps == 1).mean()
    sigma = np.sqrt(0.75 * 0.25 / len(steps))
    assert abs(freq_up - 0.75) < 4 * sigma


IDENTITY_PS = (0.5 + 2**-40, 0.501, 0.6, 0.75, 0.9, 0.999, 1 - 2**-53)


def test_counter_steps_match_float_definition():
    """The integer cut gives the steps of ((w >> 11) * 2^-53) < p."""
    ids = np.arange(16, dtype=np.uint64)
    words = rng.counter_words(seed=5, replica=ids, lanes=1 << 16, step=2 << 16)
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    for p in IDENTITY_PS:
        steps = rng.counter_steps(p, seed=5, replica=ids, lanes=1 << 16, step=2 << 16)
        assert steps.dtype == np.int8
        assert np.array_equal(steps, np.where(u < p, 1, -1)), p


def test_below_is_exact_at_the_cut():
    """Words on both sides of each p's cut, where rounding would show."""
    for p in IDENTITY_PS + (0.5, 0.0, 1.0):
        k = min(int(np.ceil(p * 2.0**53)), 2**53)
        shifted = [max(k + d, 0) for d in (-2, -1, 0, 1)]
        words = np.array(
            [(j << 11) + low for j in shifted if j < 2**53 for low in (0, 1, 2**11 - 1)],
            dtype=np.uint64,
        )
        u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert np.array_equal(rng._below(words, p), u < p), p


def _unpack(bits, lanes):
    """The +-1 steps of packed path bits (bit t mod 64 of word t div 64)."""
    up = np.unpackbits(bits.astype("<u8").view(np.uint8), count=lanes, bitorder="little")
    return up.astype(np.int8) * 2 - 1


@pytest.mark.parametrize("p", IDENTITY_PS + (0.5, 0.0, 1.0))
def test_path_step_bits_match_reference(p):
    """The lazy comparison gives the steps of the whole 53-bit uniform,
    over block edges, from a later block, and at a group-aligned step in
    the middle of a block."""
    spans = ((3 * 65536 + 5, 0), (5000, 7 << 16), (1, 64), (70000, 65536 - 640))
    for seed in (0, 3):
        for lanes, step in spans:
            got = _unpack(rng.path_step_bits(p, seed, lanes, step), lanes)
            want = reference_steps(p, seed, lanes, step)
            assert np.array_equal(got, want), (seed, lanes, step)


def test_path_step_bits_exact_at_the_cut():
    """For a step with uniform U, p = U * 2^-53 puts the cut at U itself,
    the one case that reads all 53 planes: the step is down there and at
    (U - 1) * 2^-53, and up at (U + 1) * 2^-53."""
    lanes = 64 * 40
    u = reference_uniforms(9, lanes)
    for t in np.flatnonzero(u > np.uint64(1 << 52))[:24].tolist():
        for d, want in ((-1, -1), (0, -1), (1, 1)):
            p = (int(u[t]) + d) * 2.0**-53
            assert 0.5 < p < 1.0
            assert _unpack(rng.path_step_bits(p, 9, lanes), lanes)[t] == want, (t, d)


def test_path_step_bits_draw_few_words(monkeypatch):
    """About 7.5 words per 64 steps: 6 planes for every group, then only
    the planes of groups with a step still open (the count includes the
    34 mixes that make the 16 block keys)."""
    mixed = []
    mix = rng._mix_inplace
    monkeypatch.setattr(rng, "_mix_inplace", lambda z: (mixed.append(z.size), mix(z)))
    for p in (0.5 + 2**-40, 0.6, 0.75, 0.9):
        mixed.clear()
        rng.path_step_bits(p, 1, 16 << 16)
        assert 7.3 < sum(mixed) / (16 * 1024) < 7.7, p


def test_path_step_bits_refuses_a_step_inside_a_group():
    with pytest.raises(ValueError, match="multiple of 64"):
        rng.path_step_bits(0.75, 0, 10, 65)


def test_path_key_is_no_replica_key():
    """A word is the mix of key ^ lane with lane < 2^16, so two keys share
    a word only if they agree above their low 16 bits.  The path's keys
    agree there with no replica key of the same seed, replica 0 among
    them, so the walk after a path's horizon (replica 0) reads none of
    the path's words."""
    blocks = np.arange(16, dtype=np.uint64)
    for seed in (0, 1, 2**64 - 1):
        path_keys = rng._path_key(seed, blocks) >> np.uint64(16)
        replica_keys = rng._key(seed, np.arange(4096, dtype=np.uint64)[:, None], blocks)
        assert not np.isin(path_keys, replica_keys >> np.uint64(16)).any()


def _walker_row(seed, replica, step, lanes):
    """Steps step + j, j < lanes, of one replica through `_walker_words`,
    from a walker with no key yet."""
    out = np.empty((1, lanes), dtype=np.uint64)
    keys, blocks = np.zeros(1, dtype=np.uint64), np.full(1, -1)
    return rng._walker_words(seed, np.array([replica]), np.array([step]), keys, blocks, out)[0]


def test_keyed_words_match_counter_words():
    """Word j of a walker at step t is the word of step t + j of its
    replica: for random rows drawn together into one buffer with a
    scratch array from keys made for their blocks; for rows whose keys
    are stale (none, or made for the block before), some of which cross a
    block edge, drawn into a lane-major buffer from keys and blocks that
    are views of larger arrays and are made again in place; one at a time
    at steps 2^16 - 9 ... 2^16 + 8 by one walker, whose key is made again
    as its step enters block 1; and block by block on rows of
    `counter_words` that span 2 and 3 key blocks."""
    gen = np.random.default_rng(5)
    replicas = gen.integers(0, 2**63, 500)
    steps = gen.integers(0, 2**40, 500) & ~15  # lanes 0..8 of 16 fit
    blocks = steps >> 16
    keys = rng._key(3, replicas, blocks)
    out = np.empty((500, 9), dtype=np.uint64)
    got = rng._walker_words(3, replicas, steps, keys.copy(), blocks.copy(), out, np.empty_like(out))
    assert got is out
    assert np.array_equal(out, rng.counter_words(3, replicas, 9, steps))

    assert blocks.min() > 0
    steps[::3] = (blocks[::3] << 16) + (1 << 16) - gen.integers(1, 9, len(steps[::3]))  # crossing
    pool_keys, pool_blocks = np.zeros(600, dtype=np.uint64), np.full(600, -1)
    pool_blocks[1:500:2] = blocks[1::2] - 1
    pool_keys[1:500:2] = rng._key(3, replicas[1::2], pool_blocks[1:500:2])
    lane_major, scratch = np.empty((9, 600), dtype=np.uint64), np.empty((9, 600), dtype=np.uint64)
    out, scratch = lane_major[:, :500].T, scratch[:, :500].T  # lane j of row i at [j, i]
    rng._walker_words(3, replicas, steps, pool_keys[:500], pool_blocks[:500], out, scratch)
    assert np.array_equal(out, rng.counter_words(3, replicas, 9, steps))
    assert np.array_equal(pool_blocks[:500], blocks) and (pool_blocks[500:] == -1).all()
    assert np.array_equal(pool_keys[:500], keys) and not pool_keys[500:].any()

    edge = range((1 << 16) - 9, (1 << 16) + 9)
    for replica in (0, 7):
        whole = rng.counter_words(3, replica, len(edge) + 8, edge.start)
        key, block, word = np.zeros(1, dtype=np.uint64), np.full(1, -1), np.empty((1, 1), np.uint64)
        one_by_one = []
        for t in edge:
            rng._walker_words(3, np.array([replica]), np.array([t]), key, block, word)
            one_by_one.append(word[0, 0])
            assert block[0] == t >> 16 and key[0] == rng._key(3, replica, t >> 16), t
        assert np.array_equal(whole[: len(edge)], one_by_one)
        for t in edge:  # 8 lanes, also past the block's end, or as many as the block holds
            for lanes in (8, min(8, (1 << 16) - (t & 0xFFFF))):
                row = whole[t - edge.start :][:lanes]
                assert np.array_equal(_walker_row(3, replica, t, lanes), row), (t, lanes)
        start = (1 << 16) - 5
        for end in (start + 20, (2 << 16) + 5):  # the row ends in block 1 or 2
            whole = rng.counter_words(3, replica, end - start, start)
            edges = [start] + [e for e in (1 << 16, 2 << 16) if e < end] + [end]
            parts = [_walker_row(3, replica, a, b - a) for a, b in zip(edges, edges[1:])]
            assert np.array_equal(whole, np.concatenate(parts)), end
            assert np.array_equal(whole, _walker_row(3, replica, start, end - start)), end
