"""Geometry of the admissible joint growth-rate region.

The pair (local-time rate, unit-sphere occupation rate), in units of
log n, of any site lives a.s. in the convex-in-y region bounded by the
level set g(x, y) = 1.  This module evaluates g and its rounding scale,
solves the boundary by bisection along rays through the origin, locates
the three extremal points in closed form, and computes the maximal
ball-weight rate by three mutually checking routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_integers
from .model import WalkParams
from .genfunc import ball_gf

__all__ = [
    "BoundaryPoint",
    "WeightLimit",
    "g",
    "g_scale",
    "boundary_solve",
    "extremal_points",
    "in_region",
    "weight_limit",
    "boundary_polyline",
]

# rounding error of g in units of g_scale (criterion 5's bound on |g - 1|)
G_ROUNDING = 5e-15
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


def g_scale(params: WalkParams, x: float, y: float) -> float:
    """max(1, M), M the sum of |terms| of g at (x, y): the rounding error
    of g scales with it, and on the boundary it grows like 1/(p - 1/2)."""
    logs = abs(x * math.log(2.0 * params.p)) + abs(y * math.log(params.q))
    return max(1.0, sum(abs(_xlogx(t)) for t in (x, y, y - x)) + logs)


def _bisect(f, lo: float, hi: float) -> float:
    """Bisection for a root of f on an interval with a sign change.

    Stops when the midpoint is no longer strictly inside the bracket: the
    two ends are then adjacent floats.
    """
    flo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        fmid = f(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid


def boundary_solve(params: WalkParams, x: float) -> list[BoundaryPoint]:
    """All solutions y of g(x, y) = 1 for a fixed local-time rate x.

    g is positively homogeneous, so the ray through (u, 1), u = x/y in
    [0, 1], meets the curve at (u, 1)/g(u, 1), whose x rises from 0 to
    lambda0 at u = p (the tangent point) and falls to -1/log(2pq) at
    u = 1: [0, p] holds the upper root and [p, 1] at most a lower one.
    """
    xmax, p = params.lambda0, params.p
    if not 0.0 <= x <= xmax + 1e-9:
        raise ValidationError(
            f"x={x} outside [0, {xmax:.12g}] (the admissible rate range)"
        )
    x = min(x, xmax)
    if x == 0.0:
        return [BoundaryPoint(x=0.0, y=1.0 / g(params, 0.0, 1.0), branch="upper")]
    ystar = x / p
    # g(x, ystar) = x/lambda0: half of criterion 5's bound keeps it passing
    if xmax - x <= 0.5 * G_ROUNDING * g_scale(params, x, ystar) * xmax:
        return [BoundaryPoint(x=x, y=ystar, branch="tangent")]

    def past(u: float) -> float:
        # > 0 where the ray through (u, 1) meets the curve right of x
        return u - x * g(params, u, 1.0)

    roots: list[BoundaryPoint] = []
    if past(1.0) <= 0.0:
        roots.append(BoundaryPoint(x=x, y=x / _bisect(past, p, 1.0), branch="lower"))
    roots.append(BoundaryPoint(x=x, y=x / _bisect(past, 0.0, p), branch="upper"))
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
    within G_ROUNDING * g_scale of the boundary count as members."""
    return 0.0 <= x <= y and g(params, x, y) - 1.0 <= G_ROUNDING * g_scale(params, x, y)


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

    def ray_weight(u: float) -> float:
        # x + y where the ray through (u, 1) meets the curve
        return (1.0 + u) / g(params, u, 1.0)

    numeric = ray_weight(_golden_max(ray_weight, 0.0, 1.0))

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
    require_integers(2, gridsize=gridsize)
    xmax = params.lambda0
    xs = [xmax * (i / (gridsize - 1)) for i in range(gridsize)]  # never past xmax
    lower: list[tuple[float, float, str]] = []
    upper: list[tuple[float, float, str]] = []
    for x in xs:
        for pt in boundary_solve(params, x):
            (lower if pt.branch == "lower" else upper).append((pt.x, pt.y, pt.branch))
    return lower + upper[::-1]
