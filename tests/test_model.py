"""Parameter validation and derived constants."""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, strategies as st

from walklab.errors import ValidationError
from walklab.model import make_params

P_STRAT = st.floats(min_value=0.501, max_value=0.999)


def test_params_reference_values():
    params = make_params(0.75)
    assert params.q == 0.25
    assert params.h == pytest.approx(1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("bad", [0.5, 0.4, 1.0, 1.5, 0.0, -0.3])
def test_params_rejects_out_of_range(bad):
    with pytest.raises(ValidationError):
        make_params(bad)


def test_constants_reference_values():
    params = make_params(0.75)
    assert params.gamma0 == pytest.approx(0.5, abs=1e-15)
    assert params.lambda0 == pytest.approx(1.0 / math.log(2.0), abs=1e-15)
    assert params.kappa0 == pytest.approx(-1.0 / math.log(0.625), abs=1e-15)
    assert params.beta == pytest.approx(5.0, abs=1e-12)
    assert params.wlimit == pytest.approx(3.476059496782, abs=1e-10)


def test_theta_reference_value_and_monotonicity():
    params = make_params(0.75)
    # theta(1) = -log((2q + sqrt(h)) / (1 + sqrt(h)))
    h = 1.0 / 3.0
    expected = -math.log((0.5 + math.sqrt(h)) / (1.0 + math.sqrt(h)))
    assert params.theta(1) == pytest.approx(expected, abs=1e-15)
    values = [params.theta(z) for z in range(1, 40)]
    assert all(a < b for a, b in zip(values, values[1:]))
    # theta(z) increases to -log(2q), i.e. 1/theta decreases to lambda0
    assert params.theta(200) == pytest.approx(math.log(2.0), abs=1e-12)
    with pytest.raises(ValidationError):
        params.theta(0)


@given(P_STRAT)
def test_constants_orderings(p):
    params = make_params(p)
    assert params.gamma0 == pytest.approx(2 * p - 1, abs=1e-12)
    assert 0.0 < params.lambda0 < params.kappa0
    # the joint weight rate exceeds both single rates but not their sum
    assert params.wlimit > params.kappa0
    assert params.wlimit < params.lambda0 + params.kappa0


@given(P_STRAT)
def test_ball_weight_rate_closed_form(p):
    params = make_params(p)
    beta = math.sqrt(1.0 + 8.0 * p / params.q)
    expected = -1.0 / math.log(params.q * (1.0 + beta) / 2.0)
    assert params.wlimit == pytest.approx(expected, rel=1e-12)


# p from next to 1/2 to next to 1, where log h and 1 - h^k lose their bits
ULP_PS = [
    0.5 + 2.0**-40, 0.5 + 2.0**-30, 0.5 + 2.0**-20, 0.5 + 2.0**-10, 0.501, 0.52,
    0.6, 2.0 / 3.0, 0.75, 0.9, 0.9999, 1.0 - 2.0**-20, 1.0 - 2.0**-30,
]


@pytest.mark.parametrize("p", ULP_PS)
def test_log_h_within_one_ulp(p):
    """log(h) alone is off by 8.4e6 ulps at p = 0.5 + 2^-30, and
    log1p(-gamma0/p) alone by 2.6e5 ulps at 1 - 2^-30; the branch at
    h = 1/2 keeps log h within 1 ulp of log(q/p) over the whole range."""
    params = make_params(p)
    with localcontext() as ctx:
        ctx.prec = 60
        exact = (Decimal(params.q) / Decimal(params.p)).ln()
        error = abs(Decimal(params.log_h) - exact)
    assert error <= Decimal(math.ulp(float(exact)))
