"""Rational generating functions and their series expansions."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from walklab import closedform as cf
from walklab import genfunc as gf
from walklab.errors import ValidationError
from walklab.model import make_params

P75 = make_params(0.75)
P_STRAT = st.floats(min_value=0.51, max_value=0.98)


def test_ball_series_reference_coefficients():
    coeffs = gf.series_coeffs(gf.ball_gf(P75), 5)
    assert coeffs[0] == 0.0
    assert coeffs[1] == pytest.approx(0.375, abs=1e-15)
    assert coeffs[2] == pytest.approx(0.09375, abs=1e-15)  # c2 = q*c1
    assert coeffs[3] == pytest.approx(0.1640625, abs=1e-15)


@given(P_STRAT, st.integers(min_value=1, max_value=8))
@settings(max_examples=40)
def test_two_point_series_matches_closed_form(p, z):
    params = make_params(p)
    for side in ("pos", "neg"):
        pmf = cf.two_point_occupation_pmf(params, z, side, 60)
        coeffs = gf.series_coeffs(gf.two_point_gf(params, z, side), 60)
        for k, mass in zip(pmf.support, pmf.mass):
            # the mixture's two bases nearly coincide for extreme p and
            # large z, costing a few ulps of cancellation
            assert coeffs[k] == pytest.approx(mass, rel=1e-9, abs=1e-11)


@given(P_STRAT)
@settings(max_examples=40)
def test_ball_series_matches_closed_form(p):
    params = make_params(p)
    pmf = cf.ball_occupation_pmf(params, 60)
    coeffs = gf.series_coeffs(gf.ball_gf(params), 60)
    for k, mass in zip(pmf.support, pmf.mass):
        assert coeffs[k] == pytest.approx(mass, abs=1e-12)


def test_coefficients_nonnegative_to_500():
    for z in (1, 2, 3, 5):
        for side in ("pos", "neg"):
            coeffs = gf.series_coeffs(gf.two_point_gf(P75, z, side), 500)
            assert (coeffs >= -1e-15).all()
    assert (gf.series_coeffs(gf.ball_gf(P75), 500) >= -1e-15).all()


def test_two_point_coefficient_ratio_limit():
    """Successive coefficient ratios approach the dominant geometric
    base, which is exp(-theta(z))."""
    for z in (1, 2, 4):
        coeffs = gf.series_coeffs(gf.two_point_gf(P75, z, "pos"), 400)
        ratio = coeffs[400] / coeffs[399]
        assert ratio == pytest.approx(math.exp(-P75.theta(z)), rel=1e-10)


def test_ball_coefficient_ratio_limit():
    """The ball law's dominant base is exp(-1/wlimit)."""
    coeffs = gf.series_coeffs(gf.ball_gf(P75), 400)
    assert coeffs[400] / coeffs[399] == pytest.approx(
        math.exp(-1.0 / P75.wlimit), rel=1e-10
    )


def test_value_matches_partial_series():
    rational = gf.ball_gf(P75)
    w = 0.3
    coeffs = gf.series_coeffs(rational, 200)
    partial = float(sum(c * w**k for k, c in enumerate(coeffs)))
    assert rational.value(w) == pytest.approx(partial, rel=1e-12)


def test_series_budget_guard():
    with pytest.raises(ValidationError):
        gf.series_coeffs(gf.ball_gf(P75), gf.MAX_SERIES_TERMS + 1)


def test_rational_gf_rejects_zero_leading_denominator():
    with pytest.raises(ValidationError):
        gf.RationalGF(num=(1.0,), den=(0.0, 1.0))
