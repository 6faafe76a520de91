"""Geometry of the admissible joint growth-rate region.

The pair (local-time rate, unit-sphere occupation rate), in units of
log n, of any site lives a.s. in the convex-in-y region bounded by the
level set g(x, y) = 1.  This module evaluates g, solves the boundary by
bisection on the two monotone sides of its y-minimum, locates the three
extremal points in closed form, and computes the maximal ball-weight rate
by three mutually checking routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import WalkParams
from .genfunc import ball_gf

__all__ = [
    "BoundaryPoint",
    "WeightLimit",
    "g",
    "boundary_solve",
    "extremal_points",
    "in_region",
    "weight_limit",
    "boundary_polyline",
]

MEMBER_BAND = 1e-12
_RATIO_TOL = 1e-17
_GOLDEN_TOL = 1e-9


@dataclass(frozen=True)
class BoundaryPoint:
    """A root of g(x, y) = 1; branch is relative to the minimum y = x/p."""

    x: float
    y: float
    branch: str


@dataclass(frozen=True)
class WeightLimit:
    """Maximal ball-weight rate with the location of the optimum and the
    values obtained by each independent route."""

    wlimit: float
    x_at_opt: float
    y_at_opt: float
    routes: dict


def _xlogx(t: float) -> float:
    # continuous extension 0 * log 0 = 0
    return 0.0 if t == 0.0 else t * math.log(t)


def g(params: WalkParams, x: float, y: float) -> float:
    """Rate function whose unit level set bounds the admissible region."""
    if x < 0.0 or y < x:
        raise ValidationError(f"g requires y >= x >= 0, got x={x}, y={y}")
    p, q = params.p, params.q
    return (
        _xlogx(x)
        - _xlogx(y)
        + _xlogx(y - x)
        - x * math.log(2.0 * p)
        - y * math.log(q)
    )


def _bisect_root(params: WalkParams, x: float, lo: float, hi: float) -> float:
    """Bisection for g(x, .) = 1 on an interval with a sign change.

    Stops when the midpoint is no longer strictly inside the bracket: the
    two ends are then adjacent floats.
    """
    flo = g(params, x, lo) - 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        fmid = g(params, x, mid) - 1.0
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid


def boundary_solve(params: WalkParams, x: float) -> list[BoundaryPoint]:
    """All solutions y of g(x, y) = 1 for a fixed local-time rate x.

    g is convex in y with its minimum at y = x/p, so each monotone side
    holds at most one root: one root below the two-solution threshold and
    at the right endpoint, two roots in between.
    """
    xmax = params.lambda0
    if not 0.0 <= x <= xmax + 1e-9:
        raise ValidationError(
            f"x={x} outside [0, {xmax:.12g}] (the admissible rate range)"
        )
    x = min(x, xmax)
    ystar = x / params.p
    gmin = g(params, x, ystar) if x > 0.0 else 0.0
    if abs(gmin - 1.0) < 1e-12:
        return [BoundaryPoint(x=x, y=ystar, branch="tangent")]

    roots: list[BoundaryPoint] = []
    # lower side: g decreases from g(x, x) to the minimum
    if x > 0.0 and g(params, x, x) >= 1.0:
        y = _bisect_root(params, x, x, ystar)
        roots.append(BoundaryPoint(x=x, y=y, branch="lower"))
    # upper side: g increases without bound, always one root
    hi = max(2.0 * ystar, ystar + 1.0)
    while g(params, x, hi) < 1.0:
        hi *= 2.0
    y = _bisect_root(params, x, ystar, hi)
    roots.append(BoundaryPoint(x=x, y=y, branch="upper"))
    return roots


def extremal_points(params: WalkParams) -> dict[str, BoundaryPoint]:
    """The three closed-form landmarks of the boundary: rightmost point,
    topmost point and the x = 0 intercept."""
    p, q = params.p, params.q
    lam0, kap0 = params.lambda0, params.kappa0
    return {
        "x_max": BoundaryPoint(x=lam0, y=lam0 / p, branch="tangent"),
        "y_max": BoundaryPoint(
            x=2.0 * p * kap0 / (2.0 * p + 1.0), y=kap0, branch="upper"
        ),
        "x_zero": BoundaryPoint(x=0.0, y=-1.0 / math.log(q), branch="upper"),
    }


def in_region(params: WalkParams, x: float, y: float) -> bool:
    """Membership in the closed admissible region g(x, y) <= 1; points
    within MEMBER_BAND of the boundary count as members."""
    if x < 0.0 or y < x:
        return False
    return bool(g(params, x, y) - 1.0 <= MEMBER_BAND)


def _golden_max(f, lo: float, hi: float) -> float:
    """Golden-section maximizer; returns the abscissa.

    Stops once the bracket is below _GOLDEN_TOL of its starting width.
    Near a smooth maximum f moves with the square of the abscissa's
    error, so the maximum itself is then good to about 1e-18 relative.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - inv_phi * (b - a)
    c2 = a + inv_phi * (b - a)
    f1, f2 = f(c1), f(c2)
    while b - a > _GOLDEN_TOL * (hi - lo):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + inv_phi * (b - a)
            f2 = f(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - inv_phi * (b - a)
            f1 = f(c1)
    return 0.5 * (a + b)


def _ball_series_ratio(params: WalkParams) -> float:
    """c_{K+1} / c_K of the ball occupation series, from the recurrence of
    its denominator alone.

    [c_{n+1}, c_n] = M [c_n, c_{n-1}] with M the denominator's companion
    matrix, and c_0 = 0, so the pair at n = K is the first column of M^K.
    M^K is formed by squaring and rescaled after each product, so no
    coefficient underflows however large K is.  The ratio's relative error
    shrinks like |b_lo / b_hi|^K = ((beta - 1) / (beta + 1))^K, and K is
    chosen from p to bring that below _RATIO_TOL.
    """
    den = ball_gf(params).den
    beta = params.beta
    step = np.array([[-den[1], -den[2]], [den[0], 0.0]]) / den[0]
    terms = math.ceil(math.log(_RATIO_TOL) / math.log((beta - 1.0) / (beta + 1.0)))
    power = np.eye(2)
    while terms:
        if terms & 1:
            power = power @ step
            power /= np.abs(power).max()
        step = step @ step
        step /= np.abs(step).max()
        terms >>= 1
    return power[0, 0] / power[1, 0]


def weight_limit(params: WalkParams) -> WeightLimit:
    """Maximal rate of the combined ball weight (local time plus sphere
    occupation), triple-checked.

    Routes: the closed form -1/log(q(1+beta)/2); the numeric maximum of
    x + y over the boundary; and the coefficient-ratio limit of the ball
    occupation generating function.  The optimum splits in the fixed
    proportion x : y = (beta - 1) : (beta + 1).
    """
    closed, beta = params.wlimit, params.beta
    x_opt = (beta - 1.0) / (2.0 * beta) * closed
    y_opt = (beta + 1.0) / (2.0 * beta) * closed

    def upper_y(x: float) -> float:
        pts = boundary_solve(params, x)
        return max(pt.y for pt in pts)

    x_num = _golden_max(lambda x: x + upper_y(x), 0.0, params.lambda0)
    numeric = x_num + upper_y(x_num)

    from_gf = -1.0 / math.log(_ball_series_ratio(params))

    return WeightLimit(
        wlimit=closed,
        x_at_opt=x_opt,
        y_at_opt=y_opt,
        routes={"closed_form": closed, "boundary_max": numeric, "gf_ratio": from_gf},
    )


def boundary_polyline(params: WalkParams, gridsize: int) -> list[tuple[float, float, str]]:
    """Sample both branches of the boundary on a gridsize-point x grid,
    ordered lower branch left-to-right then upper branch right-to-left.

    Rows are (x, y, branch), ready for CSV emission.
    """
    if gridsize < 2:
        raise ValidationError(f"gridsize must be >= 2, got {gridsize}")
    xmax = params.lambda0
    xs = [xmax * i / (gridsize - 1) for i in range(gridsize)]
    lower: list[tuple[float, float, str]] = []
    upper: list[tuple[float, float, str]] = []
    for x in xs:
        for pt in boundary_solve(params, x):
            if pt.branch == "lower":
                lower.append((pt.x, pt.y, pt.branch))
            else:
                upper.append((pt.x, pt.y, pt.branch))
    return lower + upper[::-1]
