"""Acceptance suite: the ten verification criteria at their stated
tolerances.  Each test prints one PASS/FAIL line with the measured and
expected values (run pytest with -s or read captured output on
failure)."""

import pytest

from walklab import verify
from walklab.model import make_params

PARAMS = make_params(0.75)
SEED = 0


@pytest.mark.parametrize("number", sorted(verify._CRITERIA))
def test_criterion(number):
    name, fn = verify._CRITERIA[number]
    if number == 7:
        passed, measured, expected = fn(PARAMS, SEED, 4)
    else:
        passed, measured, expected = fn(PARAMS, SEED)
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {name} | measured: {measured} | expected: {expected}")
    assert passed, f"criterion {number} ({name}) failed: {measured}; expected {expected}"


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
