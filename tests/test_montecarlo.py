"""Simulation engine: determinism, counting identities, law agreement."""

import hashlib
import math

import numpy as np
import pytest

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


# Recorded outputs of the path statistics, which exact escape leaves alone:
# (p, n, seed) -> qtilde, nu_n, xi_max, xi_star, cloud shape and the first
# 16 hex digits of the SHA-256 of the cloud's float64 bytes.  n = 70000
# crosses a 2^16-step block boundary.
RECORDED_PATHS = {
    (0.75, 3000, 5): (
        [0, 682, 358, 179, 91, 45, 33, 17, 5, 7, 3, 0, 1, 0, 1],
        1420, 14, {1: 23, 2: 20, 3: 18}, (1424, 2), "b833109e874524ea",
    ),
    (0.9, 70000, 77): (
        [0, 45185, 8919, 1740, 320, 74, 12, 5],
        56255, 7, {1: 14, 2: 11, 3: 10}, (56257, 2), "3a11aefeda939295",
    ),
}


@pytest.mark.parametrize("key", sorted(RECORDED_PATHS))
def test_path_report_matches_recorded_values(key):
    p, n, seed = key
    qtilde, nu_n, xi_max, xi_star, shape, digest = RECORDED_PATHS[key]
    rep = mc.path_report(
        mc.SimConfig(params=make_params(p), n=n, seed=seed), xi_star_z=(1, 2, 3)
    )
    assert rep.qtilde.tolist() == qtilde
    assert (rep.nu_n, rep.xi_max, rep.xi_star) == (nu_n, xi_max, xi_star)
    assert rep.cloud.shape == shape
    cloud = np.ascontiguousarray(rep.cloud, dtype="<f8").tobytes()
    assert hashlib.sha256(cloud).hexdigest()[:16] == digest


def test_counter_steps_offsets_cross_block_boundary():
    """Per-row offsets read the slices of whole 2^16-step blocks."""
    ids = np.arange(40, 45, dtype=np.uint64)
    offsets = np.array([0, 65530, 65535, 65536, 2 * 65536 - 3])
    rows = rng.counter_steps(0.6, 3, ids, 0, 12, offsets)
    for r, start in zip(ids, offsets):
        whole = np.concatenate(
            [rng.counter_steps(0.6, 3, r, b, rng.BLOCK_LANES) for b in range(3)]
        )
        assert np.array_equal(rows[r - 40], whole[start : start + 12])
    # a row may also start in a later block and span several blocks
    long = rng.counter_steps(0.6, 3, ids[:2], 1, 70_000, np.array([10, 0]))
    for i, start in enumerate((10, 0)):
        whole = np.concatenate(
            [rng.counter_steps(0.6, 3, ids[i], b, rng.BLOCK_LANES) for b in (1, 2)]
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
        steps = rng.counter_steps(params.p, seed, ids[alive], block, 256)
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
    """A replica that needs more steps than the budget raises."""
    monkeypatch.setattr(mc, "_STEP_BUDGET", 16)
    config = mc.SimConfig(params=make_params(0.501), n=1, replicas=64, seed=0)
    with pytest.raises(BudgetError):
        mc.ensemble(config, "local_time:40")


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        mc.SimConfig(params=P75, n=0, seed=0)
    with pytest.raises(ValidationError):
        mc.SimConfig(params=P75, n=10, replicas=0, seed=0)
    with pytest.raises(ValidationError):
        long_horizon = mc.SimConfig(params=P75, n=rng.BLOCK_LANES + 1, replicas=2)
        mc.ensemble(long_horizon, "no_return")
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
    replicas = 100_000
    # no-return indicator is horizon-dependent; 200 steps leave a
    # negligible residual return mass
    config = mc.SimConfig(params=P75, n=200, replicas=replicas, seed=7)
    rep = mc.ensemble(config, "no_return")
    sigma = math.sqrt(0.25 / replicas)
    assert abs(rep.mean - 0.5) < 4 * sigma


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


def test_ensemble_callable_statistic():
    config = mc.SimConfig(params=P75, n=100, replicas=500, seed=11)
    rep = mc.ensemble(config, lambda field: field.final_position)
    assert rep.replicas == 500
    # drift 0.5 per step with ample slack at this replica count
    assert abs(rep.mean - 50.0) < 5.0
    rep2 = mc.ensemble(config, lambda field: field.final_position)
    assert rep2.mean == rep.mean


def test_ensemble_rejects_unknown_statistic():
    config = mc.SimConfig(params=P75, n=10, replicas=10, seed=0)
    with pytest.raises(ValidationError):
        mc.ensemble(config, "nonsense")


# --- structure statistics ----------------------------------------------------


def test_heavy_point_profile_runs_and_bounds():
    config = mc.SimConfig(
        params=P75, n=10**5, seed=21, heavy=mc.HeavyPointConfig()
    )
    heavy = mc.heavy_point_profile(config)
    for variant in ("site_variant", "path_variant"):
        report = heavy[variant]
        assert report["radius"] >= 1
        if report["set_size"] > 0:
            assert report["deviation"] >= 0.0


def test_heavy_point_profile_requires_config():
    with pytest.raises(ValidationError):
        mc.heavy_point_profile(mc.SimConfig(params=P75, n=100, seed=0))


def test_cloud_points_are_normalized_pairs():
    rep = mc.path_report(mc.SimConfig(params=P75, n=10**5, seed=3))
    assert rep.cloud.ndim == 2 and rep.cloud.shape[1] == 2
    assert (rep.cloud >= 0.0).all()
    # the max local time appears in the cloud's first coordinate
    assert rep.cloud[:, 0].max() == pytest.approx(
        rep.xi_max / math.log(10**5), rel=1e-12
    )


def test_reversed_walk_identities():
    out = mc.reversed_walk_check(P75, 2000, 13)
    assert out["increments_identity"]
    assert out["step_frequency"]
    # the reversed walk steps up exactly where the forward walk steps down
    down = np.diff(np.concatenate(([0], mc._positions(P75, 2000, 13)))) == -1
    assert out["reversed_up_frequency"] == down.mean()


def test_reversed_walk_single_step():
    out = mc.reversed_walk_check(P75, 1, 99)
    assert out["increments_identity"]


def test_escape_visits_do_not_depend_on_round_width(monkeypatch):
    """Step t of a replica is one draw however the rounds cut its stream."""
    config = mc.SimConfig(params=make_params(0.6), n=1, replicas=3000, seed=8)
    base = mc.ensemble(config, "two_point_neg:2")
    for width in (1, 3, 64):
        monkeypatch.setattr(mc, "_ROUND", width)
        rep = mc.ensemble(config, "two_point_neg:2")
        assert np.array_equal(rep.histogram, base.histogram)
