"""Acceptance suite: the ten verification criteria at their stated
tolerances.  Each test prints one PASS/FAIL line with the measured and
expected values (run pytest with -s or read captured output on
failure)."""

import dataclasses
import math

import pytest

from walklab import verify
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
    """At p = 0.9 criterion 9's heavy-site window has alpha*c >= 1 and
    raises ValidationError; the suite reports it as failed, with the
    reason, and goes on to the criteria after it."""
    monkeypatch.setitem(verify.LEVELS, "desk", (1, 9, 5))
    results = verify.run_suite(p=0.9, level="desk")
    assert [r.number for r in results] == [1, 9, 5]
    assert results[0].passed and results[2].passed
    assert not results[1].passed
    assert results[1].measured.startswith("refused") and "alpha*c" in results[1].measured


# criteria 1-6 over the whole range of p; criterion 2 compares the closed
# forms with the chain of visits, 51,700 visits at p = 0.501
@pytest.mark.parametrize("p", [0.501, 0.52, 0.6, 0.9, 0.999])
@pytest.mark.parametrize("number", [1, 2, 3, 4, 5, 6])
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
