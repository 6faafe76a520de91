"""Admissible-region geometry: the implicit curve g(x,y) = 1."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklab import boundary, verify
from walklab.errors import ValidationError
from walklab.model import make_params

P75 = make_params(0.75)
P_STRAT = st.floats(min_value=0.51, max_value=0.98)


def test_g_reference_value_at_optimum():
    # at the tangent point (lambda0, lambda0/p) the curve height is 1
    assert boundary.g(P75, P75.lambda0, P75.lambda0 / 0.75) == pytest.approx(
        1.0, abs=1e-12
    )


@given(
    P_STRAT,
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=1.01, max_value=4.0),
    st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=100)
def test_g_is_positively_homogeneous(p, x, ratio, c):
    params = make_params(p)
    y = x * ratio
    assert boundary.g(params, c * x, c * y) == pytest.approx(
        c * boundary.g(params, x, y), rel=1e-9, abs=1e-12
    )


@given(P_STRAT, st.floats(min_value=0.001, max_value=3.0))
@settings(max_examples=100)
def test_g_minimum_in_y_sits_on_the_diagonal_ray(p, x):
    """min_y g(x, y) is attained at y = x/p with value x/lambda0."""
    params = make_params(p)
    y0 = x / p
    assert boundary.g(params, x, y0) == pytest.approx(
        x / params.lambda0, rel=1e-10, abs=1e-12
    )
    for dy in (0.97, 1.03):
        if y0 * dy >= x:  # stay inside the domain y >= x
            assert boundary.g(params, x, y0 * dy) > boundary.g(params, x, y0) - 1e-12


def test_g_on_the_domain_edge():
    """g(x,x) = -x log(2pq): below 1 for small x, above 1 past the
    two-root threshold."""
    threshold = -1.0 / math.log(2 * 0.75 * 0.25)
    assert boundary.g(P75, 0.5 * threshold, 0.5 * threshold) == pytest.approx(
        0.5, abs=1e-12
    )
    assert boundary.g(P75, 2 * threshold, 2 * threshold) == pytest.approx(
        2.0, abs=1e-12
    )


def test_extremal_points_reference_values():
    pts = boundary.extremal_points(P75)
    assert pts["x_max"].x == pytest.approx(P75.lambda0, abs=1e-10)
    assert pts["x_max"].y == pytest.approx(P75.lambda0 / 0.75, abs=1e-10)
    assert pts["y_max"].y == pytest.approx(P75.kappa0, abs=1e-10)
    assert pts["y_max"].x == pytest.approx(
        2 * 0.75 * P75.kappa0 / 2.5, abs=1e-10
    )
    assert pts["x_zero"].x == 0.0
    assert pts["x_zero"].y == pytest.approx(-1.0 / math.log(0.25), abs=1e-12)


def test_root_count_pattern():
    threshold = -1.0 / math.log(2 * 0.75 * 0.25)
    assert len(boundary.boundary_solve(P75, 0.5)) == 1
    assert len(boundary.boundary_solve(P75, 1.2)) == 2
    tangent = boundary.boundary_solve(P75, P75.lambda0)
    assert len(tangent) == 1 and tangent[0].branch == "tangent"
    assert 0.5 < threshold < 1.2


def test_boundary_solve_rejects_out_of_range():
    with pytest.raises(ValidationError):
        boundary.boundary_solve(P75, P75.lambda0 + 0.01)
    with pytest.raises(ValidationError):
        boundary.boundary_solve(P75, -0.1)
    with pytest.raises(ValidationError):
        boundary.boundary_solve(P75, math.nan)


@pytest.mark.parametrize("p", [0.5 + 2.0**-30, 0.5 + 2.0**-20, 0.501, 0.75])
def test_roots_on_the_criterion_grid_lie_on_the_curve(p):
    """Every root on criterion 5's x grid has |g - 1| / M < 5e-15 and is
    a member of the region.  Near p = 1/2, next to lambda0, the solver
    once returned a bracket end (g - 1 = 2.8e8 at p = 0.5 + 2^-30), and
    a band of 1e-12 rejected roots at p = 0.501."""
    params = make_params(p)
    grid = np.linspace(1e-6, params.lambda0 * (1 - 1e-9), 200)
    roots = [pt for x in grid for pt in boundary.boundary_solve(params, float(x))]
    for pt in roots:
        scale = boundary.g_scale(params, pt.x, pt.y)
        assert abs(boundary.g(params, pt.x, pt.y) - 1.0) / scale < 5e-15, pt
        assert boundary.in_region(params, pt.x, pt.y), pt


def test_classify_point():
    assert boundary.in_region(P75, 0.2, 0.5)
    assert not boundary.in_region(P75, 3.0, 4.0)
    assert not boundary.in_region(P75, 0.5, 0.2)  # y < x
    pt = boundary.boundary_solve(P75, 1.2)[1]
    assert boundary.in_region(P75, pt.x, pt.y)  # on the boundary
    assert not boundary.in_region(P75, pt.x, pt.y * (1 + 1e-6))


@given(st.floats(min_value=0.55, max_value=0.95))
@settings(max_examples=30, deadline=None)
def test_weight_limit_routes_agree(p):
    wl = boundary.weight_limit(make_params(p))
    values = list(wl.routes.values())
    assert len(values) == 3
    assert max(values) - min(values) < 1e-6


@pytest.mark.parametrize("p", [0.6, 0.9, 0.99, 0.999, 0.9999])
def test_weight_limit_series_route_near_one(p):
    """The series ratio route stays finite where the coefficients of
    order 420 underflow, and meets the closed form to rounding."""
    routes = boundary.weight_limit(make_params(p)).routes
    assert all(math.isfinite(v) for v in routes.values())
    assert routes["gf_ratio"] == pytest.approx(routes["closed_form"], rel=1e-12)


def test_weight_limit_criterion_sweeps_p_and_refuses_nan(monkeypatch):
    passed, measured, _ = verify._check_weight_limit(make_params(0.999), 0)
    assert passed and "0.999" in measured
    nan_route = boundary.WeightLimit(1.0, 0.4, 0.6, {"a": 1.0, "b": math.nan})
    real = boundary.weight_limit
    monkeypatch.setattr(
        boundary, "weight_limit",
        lambda params: nan_route if params.p == 0.9 else real(params),
    )
    passed, measured, _ = verify._check_weight_limit(make_params(0.75), 0)
    assert not passed and "inf" in measured


@pytest.mark.parametrize("p", [0.5000001, 0.5001])
def test_weight_limit_criterion_near_half(p):
    """wlimit grows like 1/(p - 1/2), so criterion 6 bounds the route
    spread relative to it: at p = 0.5000001 wlimit is 1.5e7 and the
    routes differ by about 0.05."""
    passed, measured, _ = verify._check_weight_limit(make_params(p), 0)
    assert passed, measured


def test_weight_limit_reference_values():
    wl = boundary.weight_limit(P75)
    assert wl.wlimit == pytest.approx(3.476059496782, abs=1e-9)
    # the optimum splits x:y = (beta-1):(beta+1) = 2:3 at p = 0.75
    assert wl.x_at_opt / wl.y_at_opt == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert wl.x_at_opt + wl.y_at_opt == pytest.approx(wl.wlimit, abs=1e-6)
    # the optimum lies on the boundary
    assert boundary.g(P75, wl.x_at_opt, wl.y_at_opt) == pytest.approx(1.0, abs=1e-6)


def test_boundary_polyline_covers_both_branches():
    rows = boundary.boundary_polyline(P75, 80)
    branches = {branch for _, _, branch in rows}
    assert "upper" in branches and "lower" in branches
    for x, y, _ in rows:
        assert abs(boundary.g(P75, x, y) - 1.0) < 1e-8 or x == 0.0


def test_region_summary():
    """The region spans x in [0, lambda0] and reaches up to y = kappa0; the
    lower boundary branch starts at x = -1/log(2pq)."""
    with pytest.raises(ValidationError):
        boundary.boundary_solve(P75, P75.lambda0 + 1e-6)
    assert boundary.extremal_points(P75)["y_max"].y == pytest.approx(
        P75.kappa0, abs=1e-10
    )
    threshold = -1.0 / math.log(0.375)
    assert len(boundary.boundary_solve(P75, threshold - 1e-6)) == 1
    assert len(boundary.boundary_solve(P75, threshold + 1e-6)) == 2


def test_grid_membership_matches_g_sign():
    xs = np.linspace(0.01, 1.6, 24)
    ys = np.linspace(0.02, 2.4, 24)
    for x in xs:
        for y in ys:
            if y <= x:
                continue
            val = boundary.g(P75, float(x), float(y))
            member = boundary.in_region(P75, float(x), float(y))
            if abs(val - 1.0) > 1e-6:
                assert member == (val < 1.0)


def test_boundary_polyline_grid_stays_within_lambda0():
    """The grid's last x is lambda0 itself.  Written xmax * i / (gridsize
    - 1), it rounded one ulp past lambda0 for some grids, which is beyond
    boundary_solve's slack once lambda0 is about 2e7 (p - 1/2 <= 2.3e-8):
    at this p the 8-point grid was refused."""
    params = make_params(0.5000000223517418)
    rows = boundary.boundary_polyline(params, 8)
    assert max(x for x, _, _ in rows) == params.lambda0
