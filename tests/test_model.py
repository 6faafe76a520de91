"""Parameter validation and derived constants."""

import math
import re
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, strategies as st

from walklab import boundary, closedform, genfunc, montecarlo, oracle, verify
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


@pytest.mark.parametrize("bad", ["0.6", None, [0.6]])
def test_params_rejects_values_that_are_not_real(bad):
    """A string, None or a list is refused with a ValidationError that
    names p, not left to raise TypeError in math.isfinite."""
    with pytest.raises(ValidationError, match=r"^p must be a finite real, got "):
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


P75 = make_params(0.75)
LT = oracle.local_time
NON_INTEGER_CASES = {
    "local_time_pmf z": ("z", lambda: closedform.local_time_pmf(P75, 0.5, 5)),
    "local_time_pmf kmax": ("kmax", lambda: closedform.local_time_pmf(P75, 0, 2.5)),
    "first_return_pmf n": ("n", lambda: closedform.first_return_pmf(P75, 2.5)),
    "return_tail n": ("n", lambda: closedform.return_tail(P75, 2.5)),
    "excursion_law z": ("z", lambda: closedform.excursion_law(P75, 1.5)),
    "sphere_occupation_pmf Lmax": ("Lmax", lambda: closedform.sphere_occupation_pmf(P75, 2.5)),
    "ball_occupation_pmf lmax": ("lmax", lambda: closedform.ball_occupation_pmf(P75, 2.5)),
    "excursion_visits_pmf jmax": ("jmax", lambda: closedform.excursion_visits_pmf(P75, 2, 2.5)),
    "two_point_occupation_pmf kmax": (
        "kmax", lambda: closedform.two_point_occupation_pmf(P75, 1, "pos", 2.5)
    ),
    "local_time cap": ("cap", lambda: LT(0, 2.5)),
    "enumerate_paths site": (r"sites\[0\]", lambda: oracle.enumerate_paths(P75, 4, [LT(0.5, 3)])),
    "set_occupation site": (r"sites\[1\]", lambda: oracle.set_occupation([0, "1"], 3)),
    "enumerate_paths n": ("n", lambda: oracle.enumerate_paths(P75, 5.0, [LT(0, 3)])),
    "dp_law n": ("n", lambda: oracle.dp_law(P75, 5.0, [LT(0, 3)])),
    "series_coeffs K": ("K", lambda: genfunc.series_coeffs(genfunc.ball_gf(P75), 2.5)),
    "boundary_polyline gridsize": ("gridsize", lambda: boundary.boundary_polyline(P75, 2.5)),
    "simulate_path n": ("n", lambda: montecarlo.simulate_path(P75, 10.5, 0)),
    "simulate_path seed": ("seed", lambda: montecarlo.simulate_path(P75, 10, 1.5)),
    "two_point_bases z": ("z", lambda: P75.two_point_bases(1.5)),
    "hitting_prob z": ("z", lambda: closedform.hitting_prob(P75, 0.5)),
    "green z": ("z", lambda: closedform.green(P75, -0.5)),
    "gambler_ruin b": ("b", lambda: closedform.gambler_ruin(P75, 0, 1.5, 3)),
    "joint_transform k": ("k", lambda: closedform.joint_transform(P75, 1, 0.5, 0.0)),
    "excursion_mean_visits z": ("z", lambda: closedform.excursion_mean_visits(P75, 0.5)),
}


@pytest.mark.parametrize("case", NON_INTEGER_CASES)
def test_entry_points_refuse_non_integers(case):
    """Sizes and sites must be integers: a float or a string is refused
    with a ValidationError that names the argument, not taken as another
    law (local_time_pmf at z = 0.5 read as z > 0) or left to raise
    IndexError or TypeError deeper down."""
    name, call = NON_INTEGER_CASES[case]
    with pytest.raises(ValidationError, match=rf"^{name} must be an integer, got "):
        call()


BELOW_BOUND_CASES = {
    "excursion_law z": ("z must be >= 1, got 0", lambda: closedform.excursion_law(P75, 0)),
    "two_point_bases z": ("z must be >= 1, got -1", lambda: P75.two_point_bases(-1)),
    "excursion_visits_pmf jmax": (
        "jmax must be >= 0, got -1", lambda: closedform.excursion_visits_pmf(P75, 2, -1)
    ),
    "joint_transform k": (
        "k must be >= 0, got -1", lambda: closedform.joint_transform(P75, 1, -1, 0.0)
    ),
    "local_time cap": ("cap must be >= 1, got 0", lambda: LT(0, 0)),
    "boundary_polyline gridsize": (
        "gridsize must be >= 2, got 1", lambda: boundary.boundary_polyline(P75, 1)
    ),
    "joint_transform sign": (
        "sign must be 'pos' or 'neg', got 'up'",
        lambda: closedform.joint_transform(P75, 1, 0, 0.0, "up"),
    ),
    "two_point_occupation_pmf side": (
        "side must be 'pos' or 'neg', got 'up'",
        lambda: closedform.two_point_occupation_pmf(P75, 1, "up", 3),
    ),
    "two_point_gf side": (
        "side must be 'pos' or 'neg', got 'up'", lambda: genfunc.two_point_gf(P75, 1, "up")
    ),
    "center_sphere_joint_pmf start": (
        "start must be one of 0, 1, -1, got 5",
        lambda: closedform.center_sphere_joint_pmf(P75, 5, 0, 1),
    ),
    "center_sphere_joint_pmf L from 1": (
        "start=1, K=0 requires L >= 0, got L=-1",
        lambda: closedform.center_sphere_joint_pmf(P75, 1, 0, -1),
    ),
    "dp_law n": (
        "DP requires 1 <= n <= 5000, got 5001", lambda: oracle.dp_law(P75, 5001, [LT(0, 3)])
    ),
    "dp_law site": (
        "tracked sites (6,) unreachable within n=5", lambda: oracle.dp_law(P75, 5, [LT(6, 3)])
    ),
    "Functional sites": ("site list must be nonempty", lambda: oracle.Functional((), 3)),
    "run_suite level": (
        "unknown level 'bogus'; choose from ['desk', 'fast']",
        lambda: verify.run_suite(level="bogus"),
    ),
    "g y below x": (
        "g requires y >= x >= 0, got x=1.0, y=0.5", lambda: boundary.g(P75, 1.0, 0.5)
    ),
}


@pytest.mark.parametrize("case", BELOW_BOUND_CASES)
def test_entry_points_refuse_sizes_below_their_bound(case):
    """An argument below its least value, or outside the values it may
    take, is refused with a ValidationError that names the argument and
    its range; a negative jmax used to raise IndexError."""
    message, call = BELOW_BOUND_CASES[case]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
