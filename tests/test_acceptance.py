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
    escape certificate of criterion 2 stays finite, and the ensembles of
    criterion 10, whose escape would outrun a replica's step counter, are
    refused and reported as a failure."""
    results = {r.number: r for r in verify.run_suite(p=p, level="fast")}
    assert sorted(results) == sorted(verify.LEVELS["fast"])
    assert all(results[number].passed for number in (1, 3, 4))
    assert not results[10].passed and results[10].measured.startswith("refused")


# criteria 1 and 3-6 over the whole range of p; criterion 2 compares with
# the fixed horizon n = 200, which at p <= 0.6 is far from the
# infinite-time law it stands in for
@pytest.mark.parametrize("p", [0.501, 0.52, 0.6, 0.9, 0.999])
@pytest.mark.parametrize("number", [1, 3, 4, 5, 6])
def test_criterion_over_p(number, p):
    name, fn = verify._CRITERIA[number]
    passed, measured, expected = fn(make_params(p), SEED)
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number} at p={p}: {name} | measured: {measured} | expected: {expected}")
    assert passed, f"criterion {number} ({name}) failed at p={p}: {measured}; expected {expected}"
