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
    33 mixes that make the 16 block keys)."""
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
    """A plane word of path block b is mix(P_b ^ lane), lane < 2^16, and a
    word of replica r is mix(K_r ^ t), so the replica reads it only at a
    step t with t ^ lane = K_r ^ P_b.  For 4096 replicas and 16 blocks the
    two keys differ above their low 32 bits, so that step is 2^32 or
    later: the walk after a path's horizon (replica 0) reads none of the
    path's words."""
    blocks = np.arange(16, dtype=np.uint64)
    for seed in (0, 1, 2**64 - 1):
        path_keys = rng._path_key(seed, blocks)
        replica_keys = rng._key(seed, np.arange(4096, dtype=np.uint64), 0)
        assert ((replica_keys[:, None] ^ path_keys) >> np.uint64(32)).all(), seed


def test_keyed_words_match_counter_words():
    """Word j of a walker at step t under its replica's key K_r =
    `_key(seed, r, 0)` is the word of step t + j of `counter_words`,
    mix(K_r ^ (t + j)): for random rows drawn together into a lane-major
    buffer with a scratch array, as the escape pool draws them, a third
    of them across step 2^16 and a third across step 2^17."""
    gen = np.random.default_rng(5)
    replicas = gen.integers(0, 2**63, 500)
    steps = gen.integers(0, 2**40, 500)
    for k, edge in enumerate((1 << 16, 1 << 17)):
        steps[k::3] = edge - gen.integers(1, 9, len(steps[k::3]))
    keys = rng._key(3, replicas, 0)
    lane_major, scratch = np.empty((9, 600), dtype=np.uint64), np.empty((9, 600), dtype=np.uint64)
    out = lane_major[:, :500].T  # lane j of row i at [j, i]
    assert rng._walker_words(keys, steps, out, scratch[:, :500].T) is out
    want = rng.counter_words(3, replicas, 9, steps)
    assert np.array_equal(out, want)
    t = (steps[:, None] + np.arange(9)).astype(np.uint64)
    assert np.array_equal(want, rng.mix64(keys[:, None] ^ t))


def test_key_is_the_chain_of_three_mixes():
    """`_key(seed, r, b)` is mix64(mix64(mix64(seed mod 2^64) ^ r) ^ b), a
    np.uint64 for scalars and an array of the broadcast shape otherwise."""
    cases = [
        (0, 0),
        (5, 3),
        (np.uint64(2**64 - 1), 0),
        (np.arange(100, dtype=np.uint64), 0),
        (0, np.arange(16, dtype=np.uint64)),
        (np.arange(4, dtype=np.uint64)[:, None], np.arange(3, dtype=np.uint64)),
    ]
    for seed in (0, 7, 2**64 - 1, -1):
        mixed_seed = rng.mix64(np.uint64(seed % 2**64))
        for replica, block in cases:
            r, b = (np.asarray(v, dtype=np.uint64) for v in (replica, block))
            want = rng.mix64(rng.mix64(mixed_seed ^ r) ^ b)
            got = rng._key(seed, replica, block)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want), (seed, replica, block)
