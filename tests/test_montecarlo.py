"""Simulation engine: determinism, counting identities, law agreement."""

import functools
import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklab import closedform as cf
from walklab import montecarlo as mc
from walklab import rng
from walklab.errors import BudgetError, ValidationError
from walklab.model import make_params

from escaperef import reference_escape
from pathref import reference_positions

P75 = make_params(0.75)


# --- single paths ---------------------------------------------------------


def test_single_step_path():
    field = mc.simulate_path(P75, 1, 3)
    assert field.counts.sum() == 1
    assert field.final_position in (-1, 1)
    assert field.count(field.final_position) == 1


@pytest.mark.parametrize("seed", [0, 1, 17, 991])
def test_counting_identities(seed):
    n = 20_000
    field = mc.simulate_path(P75, n, seed)
    counts = field.counts
    assert counts.sum() == n
    rep = mc.path_report(mc.SimConfig(params=P75, n=n, seed=seed), xi_star_z=(1, 2))
    # sum_k k * Qtilde(k, n) = n
    assert sum(k * v for k, v in enumerate(rep.qtilde)) == n
    assert rep.nu_n <= n and rep.xi_max <= n
    # xi(n) <= eta(n): total counts dominate horizon counts
    assert rep.xi_max <= rep.eta_max
    # sphere occupation at each site is the sum of its two neighbors,
    # and site weight = own count + sphere occupation
    padded = np.pad(counts, 1)
    sphere = padded[:-2] + padded[2:]
    weight = counts + sphere
    assert weight.max() <= rep.xi_star[2] + rep.xi_max  # coarse consistency
    assert rep.xi_star[1] == max(
        int((counts[:-1] + counts[1:]).max()), int(counts.max())
    )


def test_path_determinism():
    a = mc.simulate_path(P75, 5000, 42)
    b = mc.simulate_path(P75, 5000, 42)
    assert np.array_equal(a.counts, b.counts)
    assert a.min_site == b.min_site and a.final_position == b.final_position


def test_final_position_lln_band():
    """Drift check: mean endpoint over 100 replicas within 3 sigma."""
    n = 10**6
    endpoints = [mc.simulate_path(P75, n, s).final_position / n for s in range(100)]
    sigma = math.sqrt(4 * 0.75 * 0.25 / n) / math.sqrt(100)
    assert abs(np.mean(endpoints) - 0.5) < 3 * sigma + 1e-9


# Recorded outputs of the path statistics: (p, n, seed) -> heavy config,
# qtilde, nu_n, xi_max, eta_max, xi_star, the pair spectrum's shape, the
# first 16 hex digits of the SHA-256 of its little-endian int64 bytes,
# and the heavy-site profiles.  They were computed from the reference
# path of pathref.py by direct counting, _reference_xi_star,
# _reference_pair_spectrum and _reference_heavy_deviation, with the walk
# after the horizon taken from _walk_on, replica 0 from step n (the exact
# escape has no brute-force twin).  n = 70000 crosses a 2^16-step block
# boundary; seed 237 dips to site -1, and its walk after the horizon
# makes eta_max and the path variant differ.
RECORDED_PATHS = {
    (0.75, 3000, 5): (
        mc.HeavyPointConfig(),
        [0, 707, 334, 164, 99, 56, 23, 13, 12, 2, 3, 3, 2, 1, 1],
        1420, 14, 14, {1: 25, 2: 23, 3: 21}, (15, 29), "fd53ecfbf1d0e72e",
        {
            "site_variant": {"set_size": 10, "deviation": 0.8180642680674299, "radius": 1},
            "path_variant": {"set_size": 10, "deviation": 0.8180642680674299, "radius": 1},
        },
    ),
    (0.75, 3000, 237): (
        mc.HeavyPointConfig(),
        [0, 795, 381, 193, 86, 38, 25, 10, 8, 4, 1],
        1539, 10, 12, {1: 19, 2: 15, 3: 14}, (11, 21), "3b6835a0ac0f5ae9",
        {
            "site_variant": {"set_size": 1, "deviation": 0.22082959939967284, "radius": 1},
            "path_variant": {"set_size": 4, "deviation": 0.5583408012006543, "radius": 1},
        },
    ),
    (0.9, 70000, 77): (
        mc.HeavyPointConfig(),
        [0, 44966, 9053, 1672, 357, 66, 15, 8, 1],
        56138, 8, 8, {1: 14, 2: 11, 3: 10}, (9, 17), "79fdea22192719db",
        {
            "site_variant": {"set_size": 24, "deviation": 1.0773920319699157, "radius": 1},
            "path_variant": {"set_size": 24, "deviation": 1.0773920319699157, "radius": 1},
        },
    ),
}


@pytest.mark.parametrize("key", sorted(RECORDED_PATHS))
def test_path_report_matches_recorded_values(key):
    p, n, seed = key
    heavy, qtilde, nu_n, xi_max, eta_max, xi_star, shape, digest, profiles = (
        RECORDED_PATHS[key]
    )
    rep = mc.path_report(
        mc.SimConfig(params=make_params(p), n=n, seed=seed, heavy=heavy),
        xi_star_z=(1, 2, 3),
    )
    assert rep.qtilde.tolist() == qtilde
    assert (rep.nu_n, rep.xi_max, rep.eta_max, rep.xi_star) == (
        nu_n, xi_max, eta_max, xi_star,
    )
    spectrum = rep.pair_spectrum
    assert spectrum.dtype == np.int64 and spectrum.shape == shape
    assert hashlib.sha256(spectrum.astype("<i8").tobytes()).hexdigest()[:16] == digest
    assert rep.heavy == profiles
    assert 0 < rep.walk_on_steps <= rep.walk_on_words
    assert rep.to_dict()["walk_on_steps"] == rep.walk_on_steps


PATH_NS = (1, 2, 63, 64, 65, 65535, 65536, 65537, 3 * 65536 + 5)


@functools.lru_cache(maxsize=None)
def _reference_trajectory(p, seed):
    """The reference path of `seed` at p over the longest horizon of
    PATH_NS; every shorter path is a prefix of it."""
    return reference_positions(make_params(p), max(PATH_NS), seed)


@pytest.mark.parametrize("p", [0.501, 0.55, 0.75, 0.9, 0.999, 0.5 + 2.0**-40])
@pytest.mark.parametrize("n", PATH_NS)
def test_local_times_match_positions(p, n):
    """The field is the bincount of the first n positions of the
    reference path, which compares each step's whole 53-bit uniform with
    the cut, so the path at n is a prefix of the path at every longer
    horizon.  n runs over both edges of a 64-step group and of a key
    block.  At p = 0.501 and the largest n, seed 7 falls from -80 in its
    first block to -176, so later blocks reach below the first one's
    range."""
    params = make_params(p)
    for seed in (2, 7):
        positions = _reference_trajectory(p, seed)[:n]
        field = mc.simulate_path(params, n, seed)
        lo, hi = int(positions.min()), int(positions.max())
        assert (field.min_site, field.max_site) == (lo, hi)
        assert field.final_position == positions[-1]
        assert field.counts.dtype == np.int64
        assert np.array_equal(field.counts, np.bincount(positions - lo))
        # the counts own their memory or all of the array they view
        owner = field.counts if field.counts.base is None else field.counts.base
        assert owner.size == field.counts.size


@pytest.mark.parametrize("blocks", [1, 3, 16])
def test_local_times_do_not_depend_on_blocks_per_call(monkeypatch, blocks):
    """Step t is the same draw however many key blocks one call of
    path_step_bits draws: the field of a path over 5 blocks and a part
    of a sixth is the bincount of the reference path."""
    params, n = make_params(0.55), 5 * 65536 + 100
    monkeypatch.setattr(mc, "_PATH_BLOCKS", blocks)
    for seed in range(2):
        positions = reference_positions(params, n, seed)
        got = mc.simulate_path(params, n, seed)
        lo = int(positions.min())
        assert (got.min_site, got.max_site, got.final_position) == (
            lo, int(positions.max()), positions[-1],
        )
        assert np.array_equal(got.counts, np.bincount(positions - lo))


def test_new_maxima_below_the_start():
    """Paths that stay at or below 0 have no new maximum: on -1, 0 the
    step back to 0 is not above the start."""
    seen = set()
    for seed in range(64):
        positions = tuple(reference_positions(P75, 2, seed).tolist())
        if positions in ((-1, 0), (-1, -2)):
            assert mc.simulate_path(P75, 2, seed).new_maxima() == 0
            rep = mc.path_report(mc.SimConfig(params=P75, n=2, seed=seed))
            assert rep.nu_n == 0
            seen.add(positions)
    assert seen == {(-1, 0), (-1, -2)}


def test_down_step_identity_at_its_edges():
    """The field counted from the down-steps (fact (c)) is the bincount
    of the reference positions on short paths that meet each edge of the
    identity: a first step down at n = 1, whose field is the one site -1
    and not -1..0; S_n below the start (c(s) = -1) and at it; a minimum
    reached only at S_1; and a maximum reached only at S_n."""
    cases = {
        "first step down at n = 1": lambda pos: len(pos) == 1 and pos[0] == -1,
        "S_n < 0": lambda pos: pos[-1] < 0,
        "S_n = 0": lambda pos: pos[-1] == 0,
        "minimum only at S_1": lambda pos: len(pos) > 1 and (pos[1:] > pos[0]).all(),
        "maximum only at S_n": lambda pos: len(pos) > 1 and (pos[:-1] < pos[-1]).all(),
    }
    for p in (0.501, 0.75):
        params, seen = make_params(p), set()
        for seed in range(64):
            path = reference_positions(params, 5, seed)
            for n in (1, 2, 3, 5):
                pos = path[:n]
                field = mc.simulate_path(params, n, seed)
                lo, hi = int(pos.min()), int(pos.max())
                assert (field.min_site, field.max_site, field.final_position) == (
                    lo, hi, pos[-1],
                )
                assert np.array_equal(field.counts, np.bincount(pos - lo))
                seen.update(name for name, meets in cases.items() if meets(pos))
        assert seen == set(cases), p


def _reference_xi_star(counts, z):
    padded = np.pad(counts, z)
    return int((padded[:-z] + padded[z:]).max())


def _reference_pair_spectrum(counts):
    """Entry [K, L] counts the sites of the range and its one-site margin
    with K visits and L visits to their two neighbours, one site at a
    time over padded arrays."""
    local = np.pad(counts, 1)
    wide = np.pad(local, 1)
    sphere = wide[:-2] + wide[2:]
    xi = int(counts.max())
    spectrum = np.zeros((xi + 1, 2 * xi + 1), dtype=np.int64)
    np.add.at(spectrum, (local, sphere), 1)
    return spectrum


def _check_pair_spectrum(rep):
    """The report's pair spectrum is the reference's, int64; its total is
    cloud_size, its rows K >= 1 sum to qtilde, and no site of the range
    has 0 visits (fact (a))."""
    spectrum = rep.pair_spectrum
    assert spectrum.dtype == np.int64
    assert np.array_equal(spectrum, _reference_pair_spectrum(rep.counts))
    assert spectrum.sum() == rep.to_dict()["cloud_size"]
    assert np.array_equal(spectrum[1:].sum(axis=1), rep.qtilde[1:])
    assert spectrum[0, 0] == 0


def _reference_heavy_deviation(params, counts, heavy, rate_log_n, radius):
    padded = np.pad(counts, radius).astype(np.float64)
    heavy_idx = np.flatnonzero(counts >= (1.0 - heavy.delta_n) * rate_log_n)
    worst = 0.0
    for dz in range(-radius, radius + 1):
        m_z = cf.excursion_mean_visits(params, dz)
        profile = padded[heavy_idx + radius + dz] / (m_z * rate_log_n)
        worst = max(worst, float(np.abs(profile - 1.0).max()))
    return worst


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=0.501, max_value=0.999),
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_path_facts_on_short_paths(p, n, seed):
    """Every site of the range is visited, nu_n is the running-max count,
    and xi_star, the pair spectrum and the heavy-site profile equal their
    definitions on padded arrays."""
    params = make_params(p)
    field = mc.simulate_path(params, n, seed)
    positions = reference_positions(params, n, seed)
    runmax = np.maximum.accumulate(np.concatenate(([0], positions)))
    assert field.new_maxima() == int((positions > runmax[:-1]).sum())
    assert len(field.counts) == field.max_site - field.min_site + 1
    assert (field.counts > 0).all()
    assert field.spectrum()[0] == 0
    zs = (1, 2, 3, 5, 9)
    _, xi_star, _ = mc._field_pass(field.counts, zs, math.inf)
    assert xi_star == {z: _reference_xi_star(field.counts, z) for z in zs}
    _check_pair_spectrum(mc.path_report(mc.SimConfig(params=params, n=n, seed=seed)))
    heavy = mc.HeavyPointConfig(delta_n=0.5)
    rate_log_n = params.lambda0 * math.log(n)
    profile = mc.heavy_deviation(params, field.counts, n, heavy)
    if profile["set_size"]:
        assert profile["deviation"] == _reference_heavy_deviation(
            params, field.counts, heavy, rate_log_n, profile["radius"]
        )


def test_field_pass_over_several_slices():
    """The sliced pass equals each statistic's whole-array definition on
    a range of more than two slices: the spectrum is np.bincount of the
    counts, dtype included; the pair sums are the padded definition for z
    around one slice and the range length; and the heavy sites are
    np.flatnonzero(counts >= threshold) with no heavy site at all, and
    with one at the first or last entry of a slice."""
    counts = mc.simulate_path(P75, 300_000, 5).counts
    size, w = len(counts), mc._SLICE
    assert size > 2 * w
    zs = (1, 2, 3, 9, w - 1, w, w + 1, size - 1, size, size + 1)
    spectrum, xi_star, heavy = mc._field_pass(counts, zs, math.inf)
    expected = np.bincount(counts)
    assert spectrum.dtype == expected.dtype and np.array_equal(spectrum, expected)
    assert xi_star == {z: _reference_xi_star(counts, z) for z in zs}
    assert len(heavy) == 0
    for threshold in (counts.max() + 0.5, counts.max() - 0.5, 3.7):
        _, _, heavy = mc._field_pass(counts, (), threshold)
        assert np.array_equal(heavy, np.flatnonzero(counts >= threshold))
    # the heaviest pair starts, and the heavy site sits, at the last or
    # first entry of a slice
    for start in (0, w - 1, w, 2 * w - 1, 3 * w + 4):
        spiked = np.ones(3 * w + 5, dtype=np.int64)
        spiked[start] = 10
        spectrum, _, heavy = mc._field_pass(spiked, (), 9.5)
        assert spectrum.tolist() == [0, len(spiked) - 1] + [0] * 8 + [1]
        assert heavy.tolist() == [start]
        for z in (1, w):
            if start + z < len(spiked):
                spiked[start + z] = 10
                _, xi_star, _ = mc._field_pass(spiked, (z,), math.inf)
                assert xi_star[z] == _reference_xi_star(spiked, z) == 20
                spiked[start + z] = 1


def test_path_variant_joins_the_sites_the_tally_raises(monkeypatch):
    """The path variant's heavy set is the site variant's and the sites
    that clear the threshold only once the walk after the horizon is
    added in.  A hand-built field has a site heavy at the horizon far
    below the top and one raised over the threshold by the tally; the
    profile sees both, in a field of more than two slices."""
    params, n, heavy = P75, 10**6, mc.HeavyPointConfig()
    threshold = mc._heavy_threshold(params, n, heavy)
    level = math.ceil(threshold)
    counts = np.ones(2 * mc._SLICE + 7, dtype=np.int64)
    counts[mc._SLICE] = level  # heavy at the horizon
    counts[-3] = level - 1  # heavy once the tally's one visit to it is in
    field = mc.LocalTimeField(
        counts=counts, min_site=-len(counts) + 1, max_site=0, n=n, final_position=0
    )
    tally = np.array([1, 0, 1, 4])  # by depth below max_site
    monkeypatch.setattr(mc, "simulate_path", lambda *args: field)
    monkeypatch.setattr(mc, "_walk_on", lambda *args: (tally, 2048, 40))
    rep = mc.path_report(mc.SimConfig(params=params, n=n, seed=0, heavy=heavy))
    totals = counts.copy()
    totals[::-1][: len(tally)] += tally
    assert np.array_equal(rep.counts, field.counts)
    assert rep.heavy["site_variant"] == mc.heavy_deviation(params, counts, n, heavy)
    assert rep.heavy["path_variant"] == mc.heavy_deviation(params, totals, n, heavy)
    assert (rep.heavy["site_variant"]["set_size"], rep.heavy["path_variant"]["set_size"]) == (
        1, 2,
    )
    assert (rep.xi_max, rep.eta_max, rep.walk_on_words, rep.walk_on_steps) == (
        level, level, 2048, 40,
    )


def test_path_continuation_is_replica_0_from_step_n(monkeypatch):
    """The path draws no replica word; its walk after the horizon reads
    the words of replica 0 at steps n, n + 1, ... in one unbroken run,
    under one key, and eta_max counts the visits of the reference walk
    from there."""
    calls = []

    def recording(keys, step, out, scratch=None):
        calls.append((int(keys), int(step), out.shape[-1]))
        return rng._walker_words(keys, step, out, scratch)

    monkeypatch.setattr(mc, "_walker_words", recording)
    monkeypatch.setattr(mc, "_WALK_LANES", 7)  # several draws, so the run shows
    n, seed = 3000, 237
    field = mc.simulate_path(P75, n, seed)
    assert calls == []
    rep = mc.path_report(mc.SimConfig(params=P75, n=n, seed=seed))
    assert len(calls) > 1
    assert {key for key, _, _ in calls} == {int(rng._key(seed, 0, 0))}
    drawn = set()
    for _, step, words in calls:
        drawn.update(range(step, step + words))
    assert min(drawn) == n and len(drawn) == max(drawn) - n + 1
    _, sites, _, _ = reference_escape(
        P75, seed, [0], field.final_position, n, field.min_site, field.max_site
    )
    totals = field.counts.copy()
    np.add.at(totals, sites - field.min_site, 1)
    assert rep.eta_max == totals.max() > rep.xi_max


def test_path_report_keeps_the_field_and_derives_the_cloud():
    """The report's counts are the field at the horizon: the visits after
    it that eta_max reads are taken back out.  At seed 237 they make
    eta_max exceed xi_max, so visits left in would show."""
    for n, seed in ((300_000, 5), (3000, 237)):
        rep = mc.path_report(mc.SimConfig(params=P75, n=n, seed=seed))
        assert np.array_equal(rep.counts, mc.simulate_path(P75, n, seed).counts)
        _check_pair_spectrum(rep)
    assert rep.eta_max > rep.xi_max


def test_counter_steps_offsets_cross_block_boundary():
    """Per-row steps from any step are the same slice of the row's stream
    read 2^16 steps at a time from step 0, whether or not the row crosses
    a multiple of 2^16, and also for rows that start past 2^16 and run
    70,000 steps."""
    ids = np.arange(40, 45, dtype=np.uint64)
    offsets = np.array([0, 65530, 65535, 65536, 2 * 65536 - 3])
    rows = rng.counter_steps(0.6, 3, ids, 12, offsets)
    for r, start in zip(ids, offsets):
        whole = np.concatenate(
            [rng.counter_steps(0.6, 3, r, rng.BLOCK_LANES, b << 16) for b in range(3)]
        )
        assert np.array_equal(rows[r - 40], whole[start : start + 12])
    # a row may also start in a later block and span several blocks
    long = rng.counter_steps(0.6, 3, ids[:2], 70_000, (1 << 16) + np.array([10, 0]))
    for i, start in enumerate((10, 0)):
        whole = np.concatenate(
            [rng.counter_steps(0.6, 3, ids[i], rng.BLOCK_LANES, b << 16) for b in (1, 2)]
        )
        assert np.array_equal(long[i], whole[start : start + 70_000])


def _margin_escape_totals(params, sites, seed, replicas, eps=1e-12):
    """Visits to `sites` until the walk first exceeds max(sites) + m with
    h^m <= eps, straight from counter_steps; biased by at most
    len(sites) * eps, independent of the exact-escape code."""
    threshold = max(sites) + math.ceil(math.log(eps) / math.log(params.h))
    ids = np.arange(replicas, dtype=np.uint64)
    totals = np.zeros(replicas, dtype=np.int64)
    carry = np.zeros(replicas, dtype=np.int64)
    alive = np.ones(replicas, dtype=bool)
    block = 0
    while alive.any():
        steps = rng.counter_steps(params.p, seed, ids[alive], 256, block << 16)
        pos = carry[alive, None] + np.cumsum(steps, axis=1)
        live = np.maximum.accumulate(pos, axis=1) <= threshold
        totals[alive] += (np.isin(pos, sites) & live).sum(axis=1)
        carry[alive] = pos[:, -1]
        alive[alive] = live[:, -1]
        block += 1
    return totals


@pytest.mark.parametrize("p", [0.6, 0.9])
@pytest.mark.parametrize("statistic", ["local_time:0", "ball_occupation"])
def test_exact_escape_agrees_with_margin_escape(p, statistic):
    """Two-sample 4.5-sigma bands on each probability and on the mean."""
    params, replicas = make_params(p), 40_000
    sites = mc._stat_sites(statistic)
    config = mc.SimConfig(params=params, n=1, replicas=replicas, seed=31)
    exact = mc.ensemble(config, statistic)
    margin = np.bincount(_margin_escape_totals(params, sites, 32, replicas))
    size = max(len(exact.histogram), len(margin))
    a = np.pad(exact.histogram, (0, size - len(exact.histogram))) / replicas
    b = np.pad(margin, (0, size - len(margin))) / replicas
    pooled = (a + b) / 2
    sigma = np.sqrt(2 * pooled * (1 - pooled) / replicas)
    assert (np.abs(a - b) <= 4.5 * sigma + 1e-12).all()
    k = np.arange(size)
    mean_b, var_b = (k * b).sum(), (k * k * b).sum() - (k * b).sum() ** 2
    sem = math.sqrt((exact.variance + var_b) / replicas)
    assert abs(exact.mean - mean_b) <= 4.5 * sem


def test_escape_step_budget_guard(monkeypatch):
    """A stream that only ever steps down never escapes: the budget chosen
    from p stops the ensemble's pool and the path's walk after its horizon
    after a few hundred steps instead of running on.  That walk draws
    replica 0's words from step n on, unbroken, to the end of its budget."""
    calls = []

    def always_down(keys, step, out, scratch=None):
        calls.append((np.asarray(keys).tolist(), np.asarray(step).tolist(), out.shape[-1]))
        out[...] = np.uint64(2**64 - 1)  # no uniform is below p
        return out

    monkeypatch.setattr(mc, "_walker_words", always_down)
    config = mc.SimConfig(params=P75, n=1, replicas=64, seed=0)
    with pytest.raises(BudgetError, match="within 319 steps"):
        mc.ensemble(config, "local_time:0")
    field = mc.simulate_path(P75, 100, 0)
    rise = field.max_site - field.final_position
    budget = mc._step_budget(P75, rise, 100)
    calls.clear()
    with pytest.raises(BudgetError, match=f"within {budget} steps"):
        mc.path_report(mc.SimConfig(params=P75, n=100, seed=0))
    assert {key for key, _, _ in calls} == {int(rng._key(0, 0, 0))}
    drawn = set()
    for _, step, words in calls:
        drawn.update(range(step, step + words))
    assert (min(drawn), max(drawn), len(drawn)) == (100, 100 + budget, budget + 1)


@pytest.mark.parametrize("p", [0.501, 0.6, 0.75, 0.9, 0.999])
@pytest.mark.parametrize("rise", [0, 5])
def test_escape_step_budget_is_the_shortest_certified(p, rise):
    """Before its slack for the last round, the budget is the least m at
    which the Chernoff bound on a visit to the sites rise, rise - 1, ..., of
    weight W = h^(-rise/2) / (1 - sqrt h), is at most 1e-18: the least m
    with rho^m W / (1 - rho) <= 1e-18, 309 steps at p = 0.75 from the site
    itself."""
    params = make_params(p)
    rho = 2 * math.sqrt(params.p * params.q)
    weight = params.h ** (-rise / 2) / (1 - math.sqrt(params.h))
    m = mc._step_budget(params, rise, 0) - mc._ROUND - 2

    def bound(k):
        return rho**k * weight / (1 - rho)

    assert bound(m) <= 1e-18 * (1 + 1e-7)
    assert bound(m - 1) > 1e-18 * (1 - 1e-7)
    if (p, rise) == (0.75, 0):
        assert m == 309


def test_escape_refused_beyond_the_step_counter():
    """Just above p = 1/2 the budget exceeds what a replica's int64 step
    counter holds: the ensemble and the path's walk after its horizon
    refuse at once instead of walking on."""
    params = make_params(0.5 + 2.0**-30)
    config = mc.SimConfig(params=params, n=1, replicas=4, seed=0)
    with pytest.raises(BudgetError, match=r"2\^63"):
        mc.ensemble(config, "ball_occupation")
    with pytest.raises(BudgetError, match=r"2\^63"):
        mc.path_report(mc.SimConfig(params=params, n=100, seed=0))


def test_ensemble_refused_before_its_counts_are_made():
    """10^11 replicas of the ball at p = 0.75 expect 6.17e11 steps in all:
    the ensemble is refused with BudgetError before it makes the 800 GB
    of per-replica counts, and its traced peak stays under 1 MB."""
    config = mc.SimConfig(params=P75, n=1, replicas=10**11, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="100000000000 replicas expect about 6.167 steps"):
            mc.ensemble(config, "ball_occupation")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("p", [0.52, 0.6])
@pytest.mark.parametrize(
    "statistic", ["local_time:0", "ball_occupation", "local_time:2", "local_time:-2", "two_point_neg:3"]
)
def test_expected_steps_match_the_walk(p, statistic):
    """`_expected_steps` is the mean of steps / replicas over 16 seeds
    within 4 sem: from 0 inside lo..hi, from below lo (local_time:2) and
    from above hi (local_time:-2)."""
    params, replicas = make_params(p), 2000
    sites = mc._stat_sites(statistic)
    per_replica = [
        mc.ensemble(mc.SimConfig(params=params, n=1, replicas=replicas, seed=s), statistic).steps
        / replicas
        for s in range(16)
    ]
    sem = np.std(per_replica, ddof=1) / 4
    expected = mc._expected_steps(params, max(sites), max(sites) - min(sites))
    assert abs(np.mean(per_replica) - expected) <= 4 * sem


class _Walked(Exception):
    """Raised by a stubbed draw: the ensemble got past its work budget."""


@pytest.mark.parametrize(
    ("p", "statistic", "admitted", "refused", "steps"),
    [
        (0.6, "two_point_pos:300", 663_000, 664_000, "1508"),
        (0.501, "ball_occupation", 571_000, 572_000, "1749"),
        (0.5 + 2.0**-20, "ball_occupation", 544, 545, r"1\.835e\+06"),
    ],
)
def test_work_budget_boundary(monkeypatch, p, statistic, admitted, refused, steps):
    """README's edges of the 10^9-step work budget: `admitted` replicas
    start to walk, and `refused` replicas are refused before they draw a
    word, with their expected steps in the message."""
    def walked(*args, **kwargs):
        raise _Walked

    monkeypatch.setattr(mc, "_walker_words", walked)
    params = make_params(p)
    with pytest.raises(_Walked):
        mc.ensemble(mc.SimConfig(params=params, n=1, replicas=admitted, seed=0), statistic)
    with pytest.raises(BudgetError, match=f"{refused} replicas expect about {steps} steps each"):
        mc.ensemble(mc.SimConfig(params=params, n=1, replicas=refused, seed=0), statistic)


@pytest.mark.parametrize("rise", [0, 40])
def test_walk_on_work_budget_boundary(monkeypatch, rise):
    """The walk after a path's horizon has the ensemble's work budget: at
    p = 0.5 + 2^-24, from `rise` below the path's maximum, a walk over
    the 117 sites below it starts to walk, and one over 118 sites, which
    expects 1.002e9 steps, is refused before it draws a word."""
    def walked(*args, **kwargs):
        raise _Walked

    monkeypatch.setattr(mc, "_walker_words", walked)
    params = make_params(0.5 + 2.0**-24)
    with pytest.raises(_Walked):
        mc._walk_on(params, 0, -rise, 100, -117, 0)
    with pytest.raises(BudgetError, match=r"1 replicas expect about 1\.002e\+09 steps each"):
        mc._walk_on(params, 0, -rise, 100, -118, 0)


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        mc.SimConfig(params=P75, n=0, seed=0)
    with pytest.raises(ValidationError):
        mc.SimConfig(params=P75, n=10, replicas=0, seed=0)
    for field, kwargs in (
        ("n", dict(n=1000.0)), ("replicas", dict(n=10, replicas=100.0)),
        ("seed", dict(n=10, seed=1.5)),
    ):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            mc.SimConfig(params=P75, **kwargs)
    with pytest.raises(ValidationError):
        mc.simulate_path(P75, 0, 0)
    for z in (0, -1, 1.5, "1"):
        with pytest.raises(ValidationError, match="integer distances >= 1"):
            mc.path_report(mc.SimConfig(params=P75, n=10, seed=0), xi_star_z=(1, z))
    # an integer of any type is a distance, kept as an int key
    rep = mc.path_report(mc.SimConfig(params=P75, n=10, seed=0), xi_star_z=(np.int64(2),))
    assert [type(z) for z in rep.xi_star] == [int]
    # the heavy profiles and the rates per log n need log n > 0
    with pytest.raises(ValidationError, match="n >= 2"):
        mc.path_report(mc.SimConfig(params=P75, n=1, seed=0))
    for n in (1, 0, -5):
        with pytest.raises(ValidationError, match="n >= 2"):
            mc.heavy_deviation(P75, np.ones(3, dtype=np.int64), n, mc.HeavyPointConfig())
    with pytest.raises(ValidationError):
        mc.HeavyPointConfig(delta_n=1.5)


# --- total (infinite-horizon) counts ---------------------------------------


def test_total_local_times_origin_law():
    replicas = 40_000
    config = mc.SimConfig(params=P75, n=1, replicas=replicas, seed=5)
    rep = mc.ensemble(config, "local_time:0")
    emp = rep.histogram / replicas
    for k in range(6):
        target = 0.5 * 0.5**k
        sigma = math.sqrt(target * (1 - target) / replicas)
        assert abs(emp[k] - target) < 4 * sigma


def test_total_local_times_negative_site_atom():
    replicas = 40_000
    config = mc.SimConfig(params=P75, n=1, replicas=replicas, seed=6)
    rep = mc.ensemble(config, "local_time:-3")
    atom = rep.histogram[0] / replicas
    target = 26.0 / 27.0
    sigma = math.sqrt(target * (1 - target) / replicas)
    assert abs(atom - target) < 4 * sigma


def test_no_return_frequency():
    """The never-return frequency is gamma0 = p - q, whatever the horizon."""
    replicas = 100_000
    reports = [
        mc.ensemble(mc.SimConfig(params=P75, n=n, replicas=replicas, seed=7), "no_return")
        for n in (1, rng.BLOCK_LANES + 1)
    ]
    sigma = math.sqrt(0.25 / replicas)
    assert abs(reports[0].mean - 0.5) < 4 * sigma
    assert reports[1].to_dict() == reports[0].to_dict()


@pytest.mark.parametrize("p", [0.6, 0.999])
def test_no_return_is_the_zero_atom_of_origin_visits(p):
    """One draw stream: a replica never returns exactly when its total
    visit count at 0 is 0."""
    config = mc.SimConfig(params=make_params(p), n=1, replicas=5000, seed=12)
    no_return = mc.ensemble(config, "no_return")
    visits = mc.ensemble(config, "local_time:0")
    assert no_return.histogram[1] == visits.histogram[0]
    assert no_return.histogram.sum() == config.replicas
    assert no_return.words == visits.words


def test_first_hitting_frequencies_match_hitting_prob():
    """Empirical first-hitting of z in {-3, -1, 0, 2} within 4 sigma."""
    replicas, n = 20_000, 600
    hits = {z: 0 for z in (-3, -1, 0, 2)}
    for r in range(replicas):
        field = mc.simulate_path(P75, n, 1234 + r)
        for z in hits:
            hits[z] += field.count(z) > 0
    for z, count in hits.items():
        target = cf.hitting_prob(P75, z)
        if target == 1.0:
            assert count == replicas
            continue
        sigma = math.sqrt(target * (1 - target) / replicas)
        assert abs(count / replicas - target) < 4 * sigma


# --- ensembles --------------------------------------------------------------


def test_ensemble_thread_invariance(monkeypatch):
    """`threads` is accepted and ignored: the ensemble is walked on the
    calling thread and equals the call without the keyword."""
    config = mc.SimConfig(params=P75, n=50, replicas=30_000, seed=9)
    base = mc.ensemble(config, "sphere_occupation")

    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    rep = mc.ensemble(config, "sphere_occupation", threads=2)
    assert np.array_equal(rep.histogram, base.histogram)
    assert rep.words == base.words > 0
    assert rep.steps == base.steps > 0
    assert rep.to_dict() == base.to_dict()


def test_ensemble_two_point_law():
    replicas = 60_000
    config = mc.SimConfig(params=P75, n=1, replicas=replicas, seed=10)
    rep = mc.ensemble(config, "two_point_pos:1")
    law = cf.two_point_occupation_pmf(P75, 1, "pos", 40)
    emp = rep.histogram / replicas
    for k in range(1, 8):
        target = law.prob(k)
        sigma = math.sqrt(target * (1 - target) / replicas)
        assert abs(emp[k] - target) < 4 * sigma


def test_ensemble_rejects_unknown_statistic():
    config = mc.SimConfig(params=P75, n=10, replicas=10, seed=0)
    for statistic in (
        "nonsense", "local_time", "two_point_pos:x", lambda field: field.final_position,
        "local_time:+3", "local_time:03", "local_time:-0", "two_point_neg:+2",
    ):
        with pytest.raises(ValidationError, match="unknown ensemble statistic"):
            mc.ensemble(config, statistic)


def test_two_point_statistics_need_a_positive_distance():
    """two_point_pos:-z would be two_point_neg:z again, and z = 0 tracks
    {0, 0}, which has no closed form: both are refused."""
    config = mc.SimConfig(params=P75, n=10, replicas=10, seed=0)
    for statistic in ("two_point_pos:0", "two_point_pos:-2", "two_point_neg:0", "two_point_neg:-1"):
        with pytest.raises(ValidationError, match="z >= 1"):
            mc.ensemble(config, statistic)
    assert mc._stat_sites("two_point_neg:2") == (0, -2)
    assert mc._stat_sites("local_time:-2") == (-2,)


# --- structure statistics ----------------------------------------------------


def test_heavy_point_profile_runs_and_bounds():
    config = mc.SimConfig(
        params=P75, n=10**5, seed=21, heavy=mc.HeavyPointConfig()
    )
    heavy = mc.path_report(config).heavy
    for variant in ("site_variant", "path_variant"):
        report = heavy[variant]
        assert report["radius"] >= 1
        if report["set_size"] > 0:
            assert report["deviation"] >= 0.0


def test_heavy_profile_window_near_one():
    """At p = 0.95, alpha = log(1/h) is about 2.94, above 1: the window
    coefficient becomes 1 / (2 alpha) and both profiles come back with
    radius 1."""
    config = mc.SimConfig(
        params=make_params(0.95), n=10**5, seed=4, heavy=mc.HeavyPointConfig()
    )
    heavy = mc.path_report(config).heavy
    assert sorted(heavy) == ["path_variant", "site_variant"]
    for report in heavy.values():
        assert report["radius"] == 1
        assert report["set_size"] > 0 and report["deviation"] >= 0.0


def test_cloud_points_are_normalized_pairs():
    """The cloud's points are the pair spectrum's nonzero (K, L): the
    largest K is xi_max, and L is at most twice it."""
    rep = mc.path_report(mc.SimConfig(params=P75, n=10**5, seed=3))
    _check_pair_spectrum(rep)
    big_k, big_l = np.nonzero(rep.pair_spectrum)
    assert big_k.max() == rep.xi_max and big_l.max() <= 2 * rep.xi_max


def test_pair_spectrum_holds_one_code_per_site():
    """Reading the pair spectrum allocates one int64 code per site of the
    range and its margin, and a table of (xi_max + 1)(2 xi_max + 1)
    entries: on a field of 10^6 sites its traced peak stays under 8 bytes
    a site and 64 kB more."""
    counts = np.tile(np.arange(1, 9, dtype=np.int64), 125_000)
    rep = mc.PathReport(
        n=10**7, seed=0, qtilde=np.bincount(counts), nu_n=0, xi_max=8, eta_max=8,
        xi_star={}, counts=counts, heavy=None, walk_on_words=0, walk_on_steps=0,
    )
    tracemalloc.start()
    try:
        spectrum = rep.pair_spectrum
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (len(counts) + 2) + (1 << 16)
    assert np.array_equal(spectrum, _reference_pair_spectrum(counts))


@pytest.mark.parametrize("pool", [1, 3, 1000])
def test_escape_visits_do_not_depend_on_pool_size(monkeypatch, pool):
    """Step t of a replica is one draw however many walkers share a round
    and whichever slot it walks in: from 0 inside the tracked sites, from
    above them (local_time:-2, decided on admission) and from below them
    (local_time:3, admitted on lo)."""
    config = mc.SimConfig(params=make_params(0.6), n=1, replicas=3000, seed=8)
    statistics = ("two_point_neg:2", "local_time:-2", "local_time:3")
    base = [mc.ensemble(config, statistic) for statistic in statistics]
    monkeypatch.setattr(mc, "_POOL", pool)
    for statistic, want in zip(statistics, base):
        rep = mc.ensemble(config, statistic)
        assert np.array_equal(rep.histogram, want.histogram), statistic
        assert rep.to_dict() == want.to_dict(), statistic


def _brute_force_round(pattern, headroom, depth):
    """Walk the 8 steps of `pattern` one at a time from x = 0 with hi =
    headroom and lo = -depth, reflected at lo: the steps taken before the
    walk passes hi, how many of them land on each site x + e, -8 <= e <=
    8, and where the walk ends when it does not pass hi."""
    x = used = 0
    lands = [0] * 17
    for j in range(8):
        x = max(x + (1 if pattern >> j & 1 else -1), -depth)
        if x > headroom:
            break
        used += 1
        lands[x + 8] += 1
    return used, lands, x


def test_round_tables_match_a_step_by_step_walk():
    """Every pattern, every headroom and depth 0..12 (8 and up read the
    same entry) and every landing offset -9..9: the offsets -9 and 9 are
    never reached within a round."""
    patterns = np.arange(256)
    for headroom in range(13):
        for depth in range(13):
            code = (patterns * 9 + min(headroom, 8)) * 9 + min(depth, 8)
            expected = [_brute_force_round(b, headroom, depth) for b in range(256)]
            assert mc._USED[code].tolist() == [u for u, _, _ in expected], (headroom, depth)
            walked = [(x, c) for c, (u, _, x) in zip(code, expected) if u == 8]
            assert [mc._OFFSET[c] for _, c in walked] == [x for x, _ in walked]
            for e in range(-9, 10):
                lands = mc._LANDS[code * 19 + e + 9].tolist()
                want = [m[e + 8] if abs(e) <= 8 else 0 for _, m, _ in expected]
                assert lands == want, (headroom, depth, e)


@pytest.mark.parametrize("p", [0.52, 0.6, 0.9, 0.999])
@pytest.mark.parametrize(
    "start, lo, hi",
    [(0, -1, 1), (3, -2, 1), (0, -3, -3), (0, 0, 2), (-4, -2, 3), (0, 3, 3), (1, -1, 1), (0, -10, 0)],
)
def test_escape_visits_match_the_reference(monkeypatch, p, start, lo, hi):
    """The pool gives the per-replica visit counts, words and steps of the
    cumsum walk of escaperef.py from step 0, with more replicas than
    walkers.  The pool walks from 0, so the reference's start is folded
    into the sites: sites lo..hi seen from `start` are lo - start..hi -
    start seen from 0, so a start above hi is an hi below 0, one below lo
    a lo above 0 and one on hi an hi of 0.  Both every site of lo..hi and
    only its two ends are tracked, also 10 sites deep, where a round reads
    its depth as 8."""
    params, seed, replicas = make_params(p), 4, 300
    monkeypatch.setattr(mc, "_POOL", 37)
    rows, sites, words, steps = reference_escape(
        params, seed, np.arange(replicas), start, 0, lo, hi
    )
    for below in (list(range(hi - lo + 1)), sorted({0, hi - lo})):
        tracked = np.isin(sites, [hi - d for d in below])
        expected = np.bincount(rows[tracked], minlength=replicas)
        vals, *got = mc._escape_visits(params, seed, replicas, hi - start, below)
        assert got == [words, steps]
        assert np.array_equal(vals, expected), below
    assert words >= steps >= replicas


@pytest.mark.parametrize("p", [0.501, 0.52, 0.6, 0.9, 0.999])
@pytest.mark.parametrize(
    "start, first_step, lo, hi",
    [
        (0, 0, -3, 2),
        (-2, (1 << 16) - 3, -5, 0),
        (1, (1 << 16) - 9, -1, 1),
        (0, (1 << 16) - 40, -2, 3),
    ],
)
def test_walk_on_matches_the_reference(monkeypatch, p, start, first_step, lo, hi):
    """The path's walk after its horizon is replica 0 of the cumsum walk
    of escaperef.py: its tally by depth below hi counts the same visits
    to the sites >= lo and it walks the same steps, drawing at least one
    word a step, whatever the draw size, with exits at the last lane of a
    draw (1 and 7 lanes) and walks that start at a step other than 0, as
    the walk after a path's horizon does.  At p = 0.501 a walk of 1-step
    draws costs about 0.1 ms a step; with seed 1 these walks take
    12,000-18,000 steps."""
    params, seed = make_params(p), 1
    _, sites, _, ref_steps = reference_escape(params, seed, [0], start, first_step, lo, hi)
    expected = np.bincount(hi - sites[sites >= lo])
    for lanes in (1, 7, 1023):
        monkeypatch.setattr(mc, "_WALK_LANES", lanes)
        got, words, steps = mc._walk_on(params, seed, start, first_step, lo, hi)
        assert np.array_equal(got, expected), lanes
        assert steps == ref_steps <= words


def test_walk_on_counts_an_escape_at_its_first_step(monkeypatch):
    """A walk from hi whose first step goes up and whose decision says
    escape has visited nothing and walked two steps, the exit and its
    decision, in one draw: its step budget at p = 0.75 (319 steps) is
    shorter than _WALK_LANES, so the draw holds 319 + 1 words."""

    def up_then_escape(keys, step, out, scratch=None):
        out[...] = np.uint64(2**64 - 1)
        out[0] = 0  # below p: up to hi + 1; the next word is above h
        return out

    monkeypatch.setattr(mc, "_walker_words", up_then_escape)
    tally, words, steps = mc._walk_on(P75, 0, 3, 100, -2, 3)
    assert mc._step_budget(P75, 0, 100) == 319 < mc._WALK_LANES
    assert (tally.tolist(), words, steps) == ([], 320, 2)


def test_walk_on_walks_its_draw_on_after_a_return(monkeypatch):
    """Two returns and then an escape fall in one draw: the walk from hi
    = 3 goes up, returns, steps down and up, goes up, returns, goes up
    and escapes, 8 steps, and walks on from hi after each return with
    the draw's next lane, so it makes one draw of its whole step budget
    at p = 0.75 (319 steps) and one word more.  Its visits are hi at the
    two returns and at step 3, and hi - 1 at step 2."""
    ups = {0, 1, 3, 4, 5, 6}  # word 0 (below p and h) at these steps from 100

    def two_returns_then_escape(keys, step, out, scratch=None):
        t = step + np.arange(out.shape[-1]) - 100
        out[...] = np.where(np.isin(t, list(ups)), np.uint64(0), np.uint64(2**64 - 1))
        return out

    monkeypatch.setattr(mc, "_walker_words", two_returns_then_escape)
    tally, words, steps = mc._walk_on(P75, 0, 3, 100, -2, 3)
    lanes = mc._step_budget(P75, 0, 100)
    assert (tally.tolist(), words, steps) == ([3, 1], lanes + 1, 8)


def test_walk_on_memory_stays_flat_until_its_budget(monkeypatch):
    """A walk that never escapes keeps a tally by depth, not its visits:
    with steps that go up and down in turn from 0 below hi = 1 it runs
    its whole budget of 1,119,357 steps at p = 0.505 and raises
    BudgetError, while its traced peak stays under 1 MB (a list of every
    visit holds 8 bytes a step)."""
    params = make_params(0.505)

    def alternating(keys, step, out, scratch=None):
        t = step + np.arange(out.shape[-1])
        out[...] = np.where(t % 2 == 0, np.uint64(0), np.uint64(2**64 - 1))
        return out

    monkeypatch.setattr(mc, "_walker_words", alternating)
    assert mc._step_budget(params, 1, 0) == 1_119_357
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="1119357 steps"):
            mc._walk_on(params, 0, 0, 0, -5, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("statistic", ["ball_occupation", "two_point_pos:2", "local_time:-1"])
def test_ensemble_words_and_steps_match_the_reference(statistic):
    """`words` and `steps` are the reference walk's counts, 9 words a
    walker-round, its 8 steps and the word after them; the histogram
    counts its visits to the tracked sites."""
    replicas, seed, params = 3000, 13, make_params(0.6)
    config = mc.SimConfig(params=params, n=1, replicas=replicas, seed=seed)
    rep = mc.ensemble(config, statistic)
    sites = mc._stat_sites(statistic)
    rows, visited, words, steps = reference_escape(
        params, seed, np.arange(replicas), 0, 0, min(sites), max(sites)
    )
    counts = np.bincount(rows[np.isin(visited, sites)], minlength=replicas)
    assert (rep.words, rep.steps) == (words, steps)
    assert rep.to_dict()["steps"] == steps
    assert np.array_equal(rep.histogram, np.bincount(counts))
