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
    certified horizon of criterion 2 is beyond the dynamic program's, and
    the ensembles of criterion 10, whose escape would outrun a replica's
    step counter, are refused and reported as failures; criterion 5's
    bounds scale with the terms of g, which grow like 1/(p - 1/2)."""
    results = {r.number: r for r in verify.run_suite(p=p, level="fast")}
    assert sorted(results) == sorted(verify.LEVELS["fast"])
    assert all(results[number].passed for number in (1, 3, 4, 5))
    for number in (2, 10):
        assert not results[number].passed
        assert results[number].measured.startswith("refused")


@pytest.mark.parametrize("p", [0.6, 0.9, 0.999])
def test_criterion_2_over_p(p):
    """The closed forms against the certified infinite-horizon law, whose
    horizon is chosen from p (1599 steps at p = 0.6)."""
    name, fn = verify._CRITERIA[2]
    passed, measured, expected = fn(make_params(p), SEED)
    assert passed, f"criterion 2 ({name}) failed at p={p}: {measured}; expected {expected}"


# criteria 1 and 3-6 over the whole range of p
@pytest.mark.parametrize("p", [0.501, 0.52, 0.6, 0.9, 0.999])
@pytest.mark.parametrize("number", [1, 3, 4, 5, 6])
def test_criterion_over_p(number, p):
    name, fn = verify._CRITERIA[number]
    passed, measured, expected = fn(make_params(p), SEED)
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number} at p={p}: {name} | measured: {measured} | expected: {expected}")
    assert passed, f"criterion {number} ({name}) failed at p={p}: {measured}; expected {expected}"
