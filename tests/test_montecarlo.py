"""Simulation engine: determinism, counting identities, law agreement."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklab import closedform as cf
from walklab import montecarlo as mc
from walklab import rng
from walklab.errors import BudgetError, ValidationError
from walklab.model import make_params

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


# Recorded outputs of the path statistics, from the code that kept the
# whole trajectory: (p, n, seed) -> heavy config, qtilde, nu_n, xi_max,
# eta_max, xi_star, cloud shape, the first 16 hex digits of the SHA-256
# of the cloud's float64 bytes, and the heavy-site profiles.  n = 70000
# crosses a 2^16-step block boundary; seed 244 dips to site -1, and its
# walk after the horizon makes eta_max and the path variant differ.
RECORDED_PATHS = {
    (0.75, 3000, 5): (
        mc.HeavyPointConfig(),
        [0, 682, 358, 179, 91, 45, 33, 17, 5, 7, 3, 0, 1, 0, 1],
        1420, 14, 14, {1: 23, 2: 20, 3: 18}, (1424, 2), "b833109e874524ea",
        {
            "site_variant": {"set_size": 5, "deviation": 0.48055306626644856, "radius": 1},
            "path_variant": {"set_size": 5, "deviation": 0.48055306626644856, "radius": 1},
        },
    ),
    (0.75, 3000, 244): (
        mc.HeavyPointConfig(),
        [0, 725, 375, 172, 107, 39, 24, 13, 8, 5, 3, 0, 1],
        1470, 12, 15, {1: 21, 2: 17, 3: 14}, (1474, 2), "fbddd0be306ac39d",
        {
            "site_variant": {"set_size": 4, "deviation": 0.2986173343338785, "radius": 1},
            "path_variant": {"set_size": 7, "deviation": 0.9479260015008177, "radius": 1},
        },
    ),
    (0.9, 70000, 77): (
        mc.HeavyPointConfig(c=0.4),
        [0, 45185, 8919, 1740, 320, 74, 12, 5],
        56255, 7, 7, {1: 14, 2: 11, 3: 10}, (56257, 2), "3a11aefeda939295",
        {
            "site_variant": {"set_size": 17, "deviation": 0.8177180279736764, "radius": 1},
            "path_variant": {"set_size": 17, "deviation": 0.8177180279736764, "radius": 1},
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
    assert rep.cloud.shape == shape
    cloud = np.ascontiguousarray(rep.cloud, dtype="<f8").tobytes()
    assert hashlib.sha256(cloud).hexdigest()[:16] == digest
    assert rep.heavy == profiles


@pytest.mark.parametrize("p", [0.501, 0.55, 0.75, 0.9, 0.999])
@pytest.mark.parametrize("n", [1, 2, 65535, 65536, 65537, 3 * 65536 + 5])
def test_local_times_match_positions(p, n):
    """The streamed field is the bincount of the whole trajectory.  At
    p = 0.501 and the largest n, seed 2 falls from -60 in its first block
    to -357, so later blocks reach below the first one's range."""
    params = make_params(p)
    for seed in (2, 7):
        field = mc.simulate_path(params, n, seed)
        positions = mc._positions(params, n, seed)
        lo, hi = int(positions.min()), int(positions.max())
        assert (field.min_site, field.max_site) == (lo, hi)
        assert field.final_position == positions[-1]
        assert field.counts.dtype == np.int64
        assert np.array_equal(field.counts, np.bincount(positions - lo))
        # the counts own their memory or all of the array they view
        owner = field.counts if field.counts.base is None else field.counts.base
        assert owner.size == field.counts.size


@pytest.mark.parametrize("lanes", [1, 3, 64])
def test_local_times_do_not_depend_on_block_size(monkeypatch, lanes):
    """Step t is the same draw however the blocks cut the stream; small
    blocks extend the range often, on both sides and by single sites."""
    params = make_params(0.55)
    expected = [mc.simulate_path(params, 3000, seed) for seed in range(4)]
    monkeypatch.setattr(mc, "BLOCK_LANES", lanes)
    for seed, want in enumerate(expected):
        got = mc.simulate_path(params, 3000, seed)
        assert np.array_equal(got.counts, want.counts)
        assert (got.min_site, got.max_site, got.final_position) == (
            want.min_site, want.max_site, want.final_position,
        )


def test_new_maxima_below_the_start():
    """Paths that stay at or below 0 have no new maximum: on -1, 0 the
    step back to 0 is not above the start."""
    seen = set()
    for seed in range(64):
        positions = tuple(mc._positions(P75, 2, seed).tolist())
        if positions in ((-1, 0), (-1, -2)):
            assert mc.simulate_path(P75, 2, seed).new_maxima() == 0
            rep = mc.path_report(mc.SimConfig(params=P75, n=2, seed=seed))
            assert rep.nu_n == 0
            seen.add(positions)
    assert seen == {(-1, 0), (-1, -2)}


def _reference_xi_star(counts, z):
    padded = np.pad(counts, z)
    return int((padded[:-z] + padded[z:]).max())


def _reference_cloud(counts, n):
    cext = np.pad(counts, 1).astype(np.float64)
    c2 = np.pad(cext, 1)
    sphere = c2[:-2] + c2[2:]
    keep = (cext > 0) | (sphere > 0)
    return np.column_stack((cext[keep], sphere[keep])) / math.log(n)


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
    and xi_star, the cloud and the heavy-site profile equal their
    definitions on padded arrays."""
    params = make_params(p)
    field = mc.simulate_path(params, n, seed)
    positions = mc._positions(params, n, seed)
    runmax = np.maximum.accumulate(np.concatenate(([0], positions)))
    assert field.new_maxima() == int((positions > runmax[:-1]).sum())
    assert len(field.counts) == field.max_site - field.min_site + 1
    assert (field.counts > 0).all()
    assert field.spectrum()[0] == 0
    for z in (1, 2, 3, 5, 9):
        assert mc._xi_star(field.counts, z) == _reference_xi_star(field.counts, z)
    assert np.array_equal(mc._cloud(field.counts, n), _reference_cloud(field.counts, n))
    heavy = mc.HeavyPointConfig(delta_n=0.5, c=0.1)
    rate_log_n = mc.derived_constants(params).lambda0 * math.log(n)
    profile = mc.heavy_deviation(params, field.counts, n, heavy)
    if profile["set_size"]:
        assert profile["deviation"] == _reference_heavy_deviation(
            params, field.counts, heavy, rate_log_n, profile["radius"]
        )


def test_xi_star_over_several_slices():
    """The sliced pair sums equal the padded definition on a range of
    more than two slices, for z around one slice and the range length."""
    counts = mc.simulate_path(P75, 300_000, 5).counts
    size, w = len(counts), mc._SLICE
    assert size > 2 * w
    for z in (1, 2, 3, 9, w - 1, w, w + 1, size - 1, size, size + 1):
        assert mc._xi_star(counts, z) == _reference_xi_star(counts, z)
    # the heaviest pair starts at the last or first entry of a slice
    for start in (w - 1, w, 2 * w - 1):
        for z in (1, w):
            spiked = np.ones(3 * w + 5, dtype=np.int64)
            spiked[[start, start + z]] = 10
            assert mc._xi_star(spiked, z) == _reference_xi_star(spiked, z) == 20


def test_path_report_keeps_the_field_and_derives_the_cloud():
    n, seed = 300_000, 5
    rep = mc.path_report(mc.SimConfig(params=P75, n=n, seed=seed))
    assert np.array_equal(rep.counts, mc.simulate_path(P75, n, seed).counts)
    assert np.array_equal(rep.cloud, _reference_cloud(rep.counts, n))
    assert rep.to_dict()["cloud_size"] == rep.cloud.shape[0]


def test_counter_steps_offsets_cross_block_boundary():
    """Per-row steps read the slices of whole 2^16-step blocks."""
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
    from p stops it after a few hundred steps instead of running on."""
    def always_down(p, seed, replica, lanes, step=0):
        shape = np.broadcast(np.asarray(replica), np.asarray(step)).shape
        return np.full((*shape, lanes), -1, dtype=np.int8)

    monkeypatch.setattr(mc, "counter_steps", always_down)
    config = mc.SimConfig(params=P75, n=1, replicas=64, seed=0)
    with pytest.raises(BudgetError, match="within 319 steps"):
        mc.ensemble(config, "local_time:0")
    with pytest.raises(BudgetError):
        mc.path_report(mc.SimConfig(params=P75, n=100, seed=0))


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
    m = mc._step_budget(params, rise) - mc._ROUND - 2

    def bound(k):
        return rho**k * weight / (1 - rho)

    assert bound(m) <= 1e-18 * (1 + 1e-7)
    assert bound(m - 1) > 1e-18 * (1 - 1e-7)
    if (p, rise) == (0.75, 0):
        assert m == 309


def test_escape_refused_beyond_the_step_counter():
    """Just above p = 1/2 the budget exceeds what a replica's int64 step
    counter holds: the ensemble refuses at once instead of walking on."""
    config = mc.SimConfig(params=make_params(0.5 + 2.0**-30), n=1, replicas=4, seed=0)
    with pytest.raises(BudgetError, match=r"2\^63"):
        mc.ensemble(config, "ball_occupation")


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        mc.SimConfig(params=P75, n=0, seed=0)
    with pytest.raises(ValidationError):
        mc.SimConfig(params=P75, n=10, replicas=0, seed=0)
    with pytest.raises(ValidationError):
        mc.simulate_path(P75, 0, 0)
    for z in (0, -1):
        with pytest.raises(ValidationError):
            mc.path_report(mc.SimConfig(params=P75, n=10, seed=0), xi_star_z=(1, z))
    # the cloud and heavy profiles divide by log n
    with pytest.raises(ValidationError, match="n >= 2"):
        mc.path_report(mc.SimConfig(params=P75, n=1, seed=0))
    with pytest.raises(ValidationError):
        mc.HeavyPointConfig(delta_n=1.5)
    # window coefficient must satisfy c * log(1/h) < 1
    with pytest.raises(ValidationError):
        mc.HeavyPointConfig(c=2.0).check_window(P75)


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
        pos = mc._positions(P75, n, 1234 + r)
        for z in hits:
            if (pos == z).any():
                hits[z] += 1
    for z, count in hits.items():
        target = cf.hitting_prob(P75, z)
        if target == 1.0:
            assert count == replicas
            continue
        sigma = math.sqrt(target * (1 - target) / replicas)
        assert abs(count / replicas - target) < 4 * sigma


# --- ensembles --------------------------------------------------------------


def test_ensemble_thread_invariance():
    config = mc.SimConfig(params=P75, n=50, replicas=30_000, seed=9)
    reports = [
        mc.ensemble(config, "sphere_occupation", threads=t) for t in (1, 2, 4)
    ]
    for rep in reports[1:]:
        assert np.array_equal(rep.histogram, reports[0].histogram)
        assert rep.mean == reports[0].mean
        assert rep.variance == reports[0].variance
        assert rep.words == reports[0].words > 0


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
        "nonsense", "local_time", "two_point_pos:x", lambda field: field.final_position
    ):
        with pytest.raises(ValidationError, match="unknown ensemble statistic"):
            mc.ensemble(config, statistic)


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


def test_cloud_points_are_normalized_pairs():
    rep = mc.path_report(mc.SimConfig(params=P75, n=10**5, seed=3))
    assert rep.cloud.ndim == 2 and rep.cloud.shape[1] == 2
    assert (rep.cloud >= 0.0).all()
    # the max local time appears in the cloud's first coordinate
    assert rep.cloud[:, 0].max() == pytest.approx(
        rep.xi_max / math.log(10**5), rel=1e-12
    )


def test_escape_visits_do_not_depend_on_round_width(monkeypatch):
    """Step t of a replica is one draw however the rounds cut its stream."""
    config = mc.SimConfig(params=make_params(0.6), n=1, replicas=3000, seed=8)
    base = mc.ensemble(config, "two_point_neg:2")
    for width in (1, 3, 64):
        monkeypatch.setattr(mc, "_ROUND", width)
        rep = mc.ensemble(config, "two_point_neg:2")
        assert np.array_equal(rep.histogram, base.histogram)
