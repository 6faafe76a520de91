"""Acceptance suite: the ten verification criteria at their stated
tolerances.  Each test prints one PASS/FAIL line with the measured and
expected values (run pytest with -s or read captured output on
failure)."""

import dataclasses
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from walklab import boundary, montecarlo, verify
from walklab.errors import BudgetError
from walklab.model import make_params

PARAMS = make_params(0.75)
SEED = 0


@pytest.mark.parametrize("number", sorted(verify._CRITERIA))
def test_criterion(number):
    name, fn = verify._CRITERIA[number]
    passed, measured, expected = fn(PARAMS, SEED)
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {name} | measured: {measured} | expected: {expected}")
    assert passed, f"criterion {number} ({name}) failed: {measured}; expected {expected}"


def test_determinism_fails_when_a_rerun_differs(monkeypatch):
    """Criterion 10 fails, and says which rerun differed, when the
    second of two identical ensemble calls gives another histogram."""
    ensemble, calls = verify.montecarlo.ensemble, []

    def drifting(config, statistic):
        rep = ensemble(config, statistic)
        calls.append(statistic)
        if len(calls) == 2:
            hist = rep.histogram.copy()
            hist[0] -= 1
            hist[1] += 1
            rep = dataclasses.replace(rep, histogram=hist)
        return rep

    monkeypatch.setattr(verify.montecarlo, "ensemble", drifting)
    passed, measured, _ = verify._check_determinism(PARAMS, SEED)
    assert len(calls) == 2
    assert not passed
    assert measured == "ensemble rerun identical: False; path rerun identical: True"


@pytest.mark.parametrize("p", [0.5 + 2.0**-30, 0.5 + 2.0**-40])
def test_fast_suite_returns_near_half(p):
    """Just above p = 1/2 the fast suite reports every criterion: the
    chain of criterion 2 would need more visits than its work budget, so
    it is refused before any visit, and the ensembles of criterion 10,
    whose escape would outrun a replica's step counter, are refused too;
    both are reported as failures.  Criterion 5's bounds scale with the
    terms of g, which grow like 1/(p - 1/2)."""
    results = {r.number: r for r in verify.run_suite(p=p, level="fast")}
    assert sorted(results) == sorted(verify.LEVELS["fast"])
    assert all(results[number].passed for number in (1, 3, 4, 5))
    for number in (2, 10):
        assert not results[number].passed
        assert results[number].measured.startswith("refused")
    assert results[2].seconds < 0.1


def test_suite_reports_a_criterion_that_cannot_run(monkeypatch):
    """A criterion that raises ValidationError is reported as failed,
    with the reason, and the suite goes on to the criteria after it."""

    def refuses(params, seed):
        raise verify.ValidationError("setting out of range")

    monkeypatch.setitem(verify._CRITERIA, 9, ("refuses", refuses))
    monkeypatch.setitem(verify.LEVELS, "desk", (1, 9, 5))
    results = verify.run_suite(p=0.9, level="desk")
    assert [r.number for r in results] == [1, 9, 5]
    assert results[0].passed and results[2].passed
    assert not results[1].passed
    assert results[1].measured == "refused: setting out of range"


def test_boundary_geometry_fails_for_a_bracket_end(monkeypatch):
    """Criterion 5 evaluates g at every root it gets: a solver that
    returns the upper bracket end 2x/p instead of the upper root fails
    it, though its root counts are right."""
    solve = boundary.boundary_solve

    def bracket_end(params, x):
        return [
            dataclasses.replace(pt, y=2.0 * x / params.p) if pt.branch == "upper" else pt
            for pt in solve(params, x)
        ]

    monkeypatch.setattr(boundary, "boundary_solve", bracket_end)
    passed, measured, _ = verify._check_boundary_geometry(PARAMS, SEED)
    assert not passed
    assert "root pattern ok" in measured


@pytest.mark.parametrize("p", [0.6, 0.9])
def test_mc_distributions_over_p(p):
    """Criterion 7 with its tables cut where the tail is below 1e-13 and
    its bands on the bins that expect >= 10 counts."""
    passed, measured, expected = verify._check_mc_distributions(make_params(p), SEED)
    print(f"criterion 7 at p={p} | measured: {measured} | expected: {expected}")
    assert passed, f"criterion 7 failed at p={p}: {measured}; expected {expected}"


def test_mc_distributions_fail_for_a_shifted_sampler(monkeypatch):
    """Replicas drawn at p + 0.002 and checked against the laws at p fail
    criterion 7 at every statistic, though each is tested at the 0.2%
    level."""
    ensemble = verify.montecarlo.ensemble

    def shifted(config, statistic):
        params = make_params(config.params.p + 0.002)
        return ensemble(dataclasses.replace(config, params=params), statistic)

    monkeypatch.setattr(verify.montecarlo, "ensemble", shifted)
    passed, measured, _ = verify._check_mc_distributions(PARAMS, SEED)
    assert not passed
    assert measured.count("FAIL") == 5, measured


def test_mc_bands_keep_their_level_near_half(monkeypatch):
    """Ensembles drawn straight from criterion 7's five laws, as seeded
    multinomial draws of its 10^6 replicas, fail it at most twice over
    seeds 0-19 at p = 0.505, where its laws keep 5,565 bins: its chi-square
    tests and its bands each fail a correct sampler at most 1% of the
    time.  With a 4-sigma normal band on each bin about half of them fail."""
    params = make_params(0.505)
    names = list(verify._MC_LAWS)
    tables = {name: verify._cut_table(lambda k: verify._MC_LAWS[name](params, k)) for name in names}

    def multinomial(config, statistic):
        table = tables[statistic]
        rng = np.random.default_rng([config.seed, names.index(statistic)])
        histogram = np.zeros(table.support[-1] + 1, dtype=np.int64)
        histogram[table.support] = rng.multinomial(config.replicas, table.mass / table.mass.sum())
        return SimpleNamespace(histogram=histogram)

    monkeypatch.setattr(verify.montecarlo, "ensemble", multinomial)
    verdicts = [verify._check_mc_distributions(params, seed) for seed in range(20)]
    assert "on the 5565 bins" in verdicts[0][2]
    failed = [seed for seed, (passed, _, _) in enumerate(verdicts) if not passed]
    assert len(failed) <= 2, [verdicts[seed][1] for seed in failed]


@pytest.mark.parametrize("statistic", sorted(verify._MC_LAWS))
def test_mc_means_near_half(statistic):
    """Near p = 1/2 the reflected walk keeps ensembles short: at p = 0.505
    the mean of each criterion-7 statistic over 10,000 replicas lies
    within 4 sem of its closed form."""
    params = make_params(0.505)
    table = verify._cut_table(lambda k: verify._MC_LAWS[statistic](params, k))
    config = montecarlo.SimConfig(params=params, n=1, replicas=10_000, seed=SEED)
    rep = montecarlo.ensemble(config, statistic)
    assert abs(rep.mean - table.mean()) <= 4 * rep.sem, (rep.mean, table.mean(), rep.sem)


def test_determinism_refused_near_half():
    """At p = 0.5 + 2^-20 the 20,000 replicas of criterion 10 expect about
    1.8e6 steps each, beyond the ensemble's work budget: the criterion is
    refused before any replica walks."""
    params = make_params(0.5 + 2.0**-20)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="replicas expect about"):
        verify._check_determinism(params, SEED)
    assert time.perf_counter() - start < 0.1


# criteria 1-6 and 10 over the whole range of p; criterion 2 compares the
# closed forms with the chain of visits, 51,700 visits at p = 0.501, and
# criterion 10 walks 2 x 20,000 replicas of about 1,750 steps there
@pytest.mark.parametrize("p", [0.501, 0.52, 0.6, 0.9, 0.999])
@pytest.mark.parametrize("number", [1, 2, 3, 4, 5, 6, 10])
def test_criterion_over_p(number, p):
    name, fn = verify._CRITERIA[number]
    passed, measured, expected = fn(make_params(p), SEED)
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number} at p={p}: {name} | measured: {measured} | expected: {expected}")
    assert passed, f"criterion {number} ({name}) failed at p={p}: {measured}; expected {expected}"


def test_single_path_lln_bands_follow_the_expected_counts():
    """Each Qtilde(k, n) band is 5% or 4 / sqrt(expected count): 5% for
    every k at p = 0.75; at p = 0.999, where about 40 sites are visited
    3 times by n = 10^7, the k = 3 band is about 63%."""
    n = 10**7
    assert [band for _, band in verify._lln_bands(PARAMS, n).values()] == [0.05] * 3
    bands = verify._lln_bands(make_params(0.999), n)
    assert [band for _, band in bands.values()][:2] == [0.05, 0.05]
    limit, band = bands[3]
    assert 39 < n * limit < 41 and band == pytest.approx(4 / math.sqrt(n * limit))


def test_single_path_lln_near_one():
    """Criterion 8 at p = 0.999, where a fixed 5% band on Qtilde(3, n)
    was under one standard deviation of its count."""
    name, fn = verify._CRITERIA[8]
    passed, measured, expected = fn(make_params(0.999), SEED)
    print(f"criterion 8 at p=0.999: {name} | measured: {measured} | expected: {expected}")
    assert passed, f"criterion 8 failed at p=0.999: {measured}; expected {expected}"
