"""Counter-based random number streams."""

import numpy as np
import pytest

from walklab import rng


def test_mix64_is_deterministic_and_spreads():
    a = rng.mix64(np.uint64(1))
    b = rng.mix64(np.uint64(2))
    assert a == rng.mix64(np.uint64(1))
    assert a != b
    # vectorized call agrees with scalar calls
    vec = rng.mix64(np.array([1, 2], dtype=np.uint64))
    assert vec[0] == a and vec[1] == b


def test_counter_uniforms_shape_and_range():
    u = rng.counter_uniforms(seed=7, replica=0, block=0, lanes=1000)
    assert u.shape == (1000,)
    assert (u >= 0.0).all() and (u < 1.0).all()
    assert abs(u.mean() - 0.5) < 0.05

    arr = rng.counter_uniforms(seed=7, replica=np.arange(8), block=3, lanes=16)
    assert arr.shape == (8, 16)
    # replica rows match the scalar calls
    row = rng.counter_uniforms(seed=7, replica=5, block=3, lanes=16)
    assert np.array_equal(arr[5], row)


def test_streams_are_independent_across_keys():
    base = rng.counter_uniforms(seed=1, replica=0, block=0, lanes=64)
    for other in (
        rng.counter_uniforms(seed=2, replica=0, block=0, lanes=64),
        rng.counter_uniforms(seed=1, replica=1, block=0, lanes=64),
        rng.counter_uniforms(seed=1, replica=0, block=1, lanes=64),
    ):
        assert not np.array_equal(base, other)


def test_counter_steps_values_and_frequency():
    steps = rng.counter_steps(0.75, seed=11, replica=0, block=0, lanes=200_000)
    assert set(np.unique(steps)) == {-1, 1}
    freq_up = (steps == 1).mean()
    sigma = np.sqrt(0.75 * 0.25 / len(steps))
    assert abs(freq_up - 0.75) < 4 * sigma


IDENTITY_PS = (0.5 + 2**-40, 0.501, 0.6, 0.75, 0.9, 0.999, 1 - 2**-53)


def test_counter_steps_match_float_definition():
    """The integer cut gives the steps of ((w >> 11) * 2^-53) < p."""
    ids = np.arange(16, dtype=np.uint64)
    words = rng.counter_words(seed=5, replica=ids, block=2, lanes=1 << 16)
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    for p in IDENTITY_PS:
        steps = rng.counter_steps(p, seed=5, replica=ids, block=2, lanes=1 << 16)
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
