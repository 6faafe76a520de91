"""Built-in verification suite.

Ten numbered checks cross-validate the analytic laws, the generating
functions, the exact finite-horizon oracles, the boundary geometry and
the Monte Carlo engine against one another at stated tolerances.  The
"fast" level runs the analytic/oracle checks (1-6, 10); the "desk"
level adds the large simulation checks (7-9) and targets a laptop
runtime of a few minutes.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np
from scipy import stats as sstats

from . import boundary, closedform, genfunc, montecarlo, oracle
from .errors import BudgetError, ValidationError
from .model import WalkParams, make_params

__all__ = ["CriterionResult", "run_suite", "LEVELS"]

LEVELS = {"fast": (1, 2, 3, 4, 5, 6, 10), "desk": tuple(range(1, 11))}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    measured: str
    expected: str
    seconds: float

    def to_dict(self) -> dict:
        return {**asdict(self), "seconds": round(self.seconds, 3)}


def _check_closedform_vs_genfunc(params: WalkParams, seed: int) -> tuple:
    worst = 0.0
    kmax = 200
    for z in (1, 2, 3, 5):
        for side in ("pos", "neg"):
            pmf = closedform.two_point_occupation_pmf(params, z, side, kmax)
            coeffs = genfunc.series_coeffs(genfunc.two_point_gf(params, z, side), kmax)
            for k, mass in zip(pmf.support, pmf.mass):
                worst = max(worst, abs(mass - coeffs[k]))
    ball = closedform.ball_occupation_pmf(params, kmax)
    bcoeffs = genfunc.series_coeffs(genfunc.ball_gf(params), kmax)
    for k, mass in zip(ball.support, ball.mass):
        worst = max(worst, abs(mass - bcoeffs[k]))
    return worst < 1e-12, f"max |pmf - series| = {worst:.3e}", "< 1e-12"


def _check_closedform_vs_infinite_law(params: WalkParams, seed: int) -> tuple:
    cap = 60
    fns = [oracle.set_occupation((-1, 1), cap), oracle.local_time(0, cap)]
    law = oracle.infinite_law(params, fns, eps=1e-15)
    # single-site total-visit law against the law's marginal
    geom = closedform.local_time_pmf(params, 0, cap - 1)
    marg = law.marginal(1)
    worst = max(abs(marg[k] - geom.prob(k)) for k in range(cap))
    # joint (sphere occupation, center local time) law
    for big_l in range(1, 40):
        for k in range(0, big_l):
            worst = max(
                worst,
                abs(
                    law.prob((big_l, k))
                    - closedform.center_sphere_joint_pmf(params, 0, k, big_l)
                ),
            )
    bound = law.certificate + 1e-14  # each entry is off by at most the certificate
    return worst < bound, f"max entry error = {worst:.3e} after {law.horizon} visits", (
        f"< {bound:.3e} (certificate {law.certificate:.3e} + 1e-14)"
    )


def _check_dp_vs_enumeration(params: WalkParams, seed: int) -> tuple:
    worst = 0.0
    for p in sorted({0.6, 0.75, 0.9, params.p}):
        par = make_params(p)
        for n in range(1, 21):
            funcs = [
                oracle.local_time(0, min(n, 12)),
                oracle.set_occupation((-1, 1), min(n, 12)),
            ]
            a = oracle.enumerate_paths(par, n, funcs)
            b = oracle.dp_law(par, n, funcs)
            worst = max(worst, float(np.abs(a.table - b.table).max()))
    return worst < 1e-14, f"max |enum - dp| = {worst:.3e}", "< 1e-14"


def _check_marginal_identities(params: WalkParams, seed: int) -> tuple:
    q, gamma0 = params.q, params.gamma0
    worst_sum = 0.0
    for big_k in range(0, 31):
        total = sum(
            closedform.center_sphere_joint_pmf(params, 0, big_k, big_l)
            for big_l in range(big_k + 1, big_k + 2500)
        )
        target = (2 * q) ** big_k * gamma0
        worst_sum = max(worst_sum, abs(total - target))

    worst_v0 = 0.0
    for z in (1, 2, 4):
        for sign in ("pos", "neg"):
            for k in range(0, 51):
                val = closedform.joint_transform(params, z, k, 0.0, sign)
                worst_v0 = max(worst_v0, abs(val - (2 * q) ** k * gamma0))

    # truncate each first-excursion law where its geometric tail q_z^j
    # drops below 1e-17: the least such j grows without bound as p -> 1/2
    worst_mean = 0.0
    for z in range(1, 11):
        qz = closedform.excursion_law(params, z).qz
        jmax = math.floor(math.log(1e-17) / math.log(qz)) + 1
        finite, _ = closedform.excursion_visits_pmf(params, z, jmax)
        worst_mean = max(worst_mean, abs(finite.mean() - params.h**z))

    ok = worst_sum < 1e-12 and worst_v0 < 1e-13 and worst_mean < 1e-12
    return ok, (
        f"marginal sum err {worst_sum:.3e}, v=0 err {worst_v0:.3e}, "
        f"excursion mean err {worst_mean:.3e}"
    ), "< 1e-12 / 1e-13 / 1e-12"


def _g_scale(params: WalkParams, x: float, y: float) -> float:
    """max(1, M), M the sum of |terms| of g at (x, y): the rounding error
    of g scales with it, and on the boundary it grows like 1/(p - 1/2)."""
    logs = abs(x * math.log(2.0 * params.p)) + abs(y * math.log(params.q))
    return max(1.0, sum(abs(boundary._xlogx(t)) for t in (x, y, y - x)) + logs)


def _check_boundary_geometry(params: WalkParams, seed: int) -> tuple:
    worst_g = max(
        abs(boundary.g(params, pt.x, pt.y) - 1.0) / _g_scale(params, pt.x, pt.y)
        for pt in boundary.extremal_points(params).values()
    )

    threshold = -1.0 / math.log(2 * params.p * params.q)
    pattern_ok = True
    for x in np.linspace(1e-6, params.lambda0 * (1 - 1e-9), 200):
        roots = boundary.boundary_solve(params, float(x))
        want = 1 if x < threshold else 2
        if len(roots) != want:
            pattern_ok = False
            break

    worst_min = max(
        abs(boundary.g(params, x, x / params.p) - x / params.lambda0)
        / _g_scale(params, x, x / params.p)
        for x in map(float, np.linspace(1e-6, params.lambda0, 50))
    )
    ok = worst_g < 5e-15 and pattern_ok and worst_min < 5e-15
    return ok, (
        f"|g-1| / M at extremes {worst_g:.3e}, root pattern "
        f"{'ok' if pattern_ok else 'violated'}, |g(x,x/p)-x/lambda0| / M {worst_min:.3e}"
    ), (
        f"< 5e-15, one root below {threshold:.6g} / two above, < 5e-15 "
        "(M = max(1, sum of |terms| of g))"
    )


def _check_weight_limit(params: WalkParams, seed: int) -> tuple:
    # the spread is taken relative to wlimit, which grows like 1/(p - 1/2)
    worst = 0.0
    sweep = sorted({0.6, 0.75, 0.9, params.p})
    for p in sweep:
        wl = boundary.weight_limit(make_params(p))
        vals = list(wl.routes.values())
        # a NaN route would slip through max - min: it must count as a failure
        spread = max(vals) - min(vals) if all(map(math.isfinite, vals)) else math.inf
        worst = max(worst, spread / wl.wlimit)
    wl75 = boundary.weight_limit(make_params(0.75))
    ref_ok = abs(wl75.wlimit - 3.47606) < 5e-5
    ratio_ok = abs(wl75.x_at_opt / wl75.y_at_opt - 2.0 / 3.0) < 1e-6
    ok = worst < 1e-8 and ref_ok and ratio_ok
    return ok, (
        f"relative route spread {worst:.3e} over p in {sweep}; p=0.75 value "
        f"{wl75.wlimit:.6f}, x:y = {wl75.x_at_opt / wl75.y_at_opt:.6f}"
    ), "all routes finite, spread / wlimit < 1e-8; ~3.47606; ratio 2/3"


def _band_and_chisq(histogram: np.ndarray, replicas: int, table) -> tuple[bool, float]:
    """Chi-square test at the 1% level against the PmfTable `table`, bins
    with expected count < 10 pooled into the tail, and a 4-sigma
    multinomial band on each bin the chi-square keeps: a bin that
    expects far less than one count says nothing on its own."""
    probs = np.zeros(len(histogram))
    listed = table.support < len(histogram)
    probs[table.support[listed]] = table.mass[listed]
    tail_p = max(1.0 - probs.sum(), 0.0)

    keep = probs * replicas >= 10
    sigma = np.sqrt(probs[keep] * (1 - probs[keep]) / replicas)
    band_ok = bool((np.abs(histogram[keep] / replicas - probs[keep]) <= 4 * sigma).all())

    obs = np.append(histogram[keep], histogram[~keep].sum() + 0.0)
    exp = np.append(probs[keep], probs[~keep].sum() + tail_p) * replicas
    # replicas not in any retained bin fall in the pooled remainder
    obs[-1] += replicas - histogram.sum()
    chisq = float(((obs - exp) ** 2 / exp).sum())
    pvalue = float(sstats.chi2.sf(chisq, df=len(obs) - 1))
    return band_ok and pvalue > 0.01, pvalue


def _cut_table(build):
    """build(kmax) with kmax doubled from 16 until the table's tail_bound
    is below 1e-13, so that the cut is chosen from p."""
    kmax = 16
    while (table := build(kmax)).tail_bound >= 1e-13:
        kmax *= 2
    return table


def _check_mc_distributions(params: WalkParams, seed: int) -> tuple:
    replicas = 1_000_000
    config = montecarlo.SimConfig(params=params, n=1, replicas=replicas, seed=seed)
    checks = {
        "local_time:0": lambda k: closedform.local_time_pmf(params, 0, k),
        "local_time:-2": lambda k: closedform.local_time_pmf(params, -2, k),
        "sphere_occupation": lambda k: closedform.sphere_occupation_pmf(params, k),
        "ball_occupation": lambda k: closedform.ball_occupation_pmf(params, k),
        "two_point_pos:1": lambda k: closedform.two_point_occupation_pmf(params, 1, "pos", k),
    }
    details = []
    all_ok = True
    for name, build in checks.items():
        table = _cut_table(build)
        rep = montecarlo.ensemble(config, name)
        ok, pvalue = _band_and_chisq(rep.histogram, replicas, table)
        all_ok = all_ok and ok
        details.append(
            f"{name} p={pvalue:.3g} (cut at {table.support[-1]}){'' if ok else ' FAIL'}"
        )
    return all_ok, "; ".join(details), (
        "chi-square p > 0.01 and 4-sigma bands on the bins expecting >= 10 counts, "
        "tables cut where the tail is < 1e-13"
    )


def _lln_bands(params: WalkParams, n: int) -> dict:
    """Relative band of Qtilde(k, n) / n around its limit
    gamma0^2 (2q)^(k - 1), k = 1, 2, 3: 5%, or 4 / sqrt(count) where that
    is wider, four standard deviations of a Poisson count of the expected
    count n gamma0^2 (2q)^(k - 1).  At p = 0.999 and n = 10^7 about 40
    sites are visited 3 times, and a 5% band is under one deviation."""
    limits = {k: params.gamma0**2 * (2 * params.q) ** (k - 1) for k in (1, 2, 3)}
    return {k: (limit, max(0.05, 4.0 / math.sqrt(n * limit))) for k, limit in limits.items()}


def _check_single_path_lln(params: WalkParams, seed: int) -> tuple:
    n = 10**7
    bands = _lln_bands(params, n)
    ok_seeds = 0
    for s in range(20):
        field = montecarlo.simulate_path(params, n, seed + s)
        qtilde = field.spectrum()
        good = abs(field.new_maxima() / n / params.gamma0 - 1.0) <= 0.02
        for k, (limit, band) in bands.items():
            count = qtilde[k] if k < len(qtilde) else 0
            good = good and abs(count / n / limit - 1.0) <= band
        ok_seeds += good
    widths = ", ".join(f"{100 * band:.3g}%" for _, band in bands.values())
    return ok_seeds >= 18, f"{ok_seeds}/20 seeds in band ({widths})", ">= 18/20"


def _check_limit_trends(params: WalkParams, seed: int) -> tuple:
    lam0 = params.lambda0
    horizons = (10**4, 10**5, 10**6)

    xi_medians = []
    star_values = []
    cloud_points = set()
    for n in horizons:
        xs, stars = [], []
        for s in range(50):
            cfg = montecarlo.SimConfig(params=params, n=n, seed=seed + 1000 + s)
            rep = montecarlo.path_report(cfg)
            xs.append(rep.xi_max / math.log(n))
            stars.append(rep.xi_star[1] / math.log(n))
            if n == horizons[-1] and s < 5:
                x, y = rep.cloud.T.tolist()
                cloud_points.update(zip(x, y))
        xi_medians.append(float(np.median(xs)))
        star_values.append(float(np.median(stars)))
    # many sites share a (local time, sphere occupation) pair: test each once
    cloud_ok = all(
        boundary.in_region(params, x / 1.25, max(y, x) / 1.25) for x, y in cloud_points
    )

    # ξ(n)/log n moves on a 1/log n lattice, so adjacent-horizon medians
    # wobble; require net increase and shrinking distance to the limit
    increasing = (
        xi_medians[-1] > xi_medians[0]
        and abs(xi_medians[-1] - lam0) <= abs(xi_medians[0] - lam0)
    )
    in_band = 0.7 * lam0 <= xi_medians[-1] <= 1.3 * lam0
    star_bound = 1.3 * (1.0 / params.theta(1))
    star_ok = star_values[-1] < star_bound

    # heavy-point deviation with a slack sequence shrinking in n, as the
    # a.s. statement requires; 300 seeds keep the median stable
    heavy_medians = []
    rng_seed = seed + 1000
    for n in horizons:
        heavy = montecarlo.HeavyPointConfig(
            delta_n=0.45 / math.log(math.log(n))
        )
        devs = []
        for s in range(300):
            counts = montecarlo.simulate_path(params, n, rng_seed + s).counts
            dev = montecarlo.heavy_deviation(params, counts, n, heavy)["deviation"]
            if dev is not None:
                devs.append(dev)
        heavy_medians.append(float(np.median(devs)))
    heavy_ok = heavy_medians[0] > heavy_medians[1] > heavy_medians[2]

    ok = increasing and in_band and star_ok and cloud_ok and heavy_ok
    return ok, (
        f"xi/log n medians {[round(v, 4) for v in xi_medians]} (lambda0 {lam0:.4f}); "
        f"Xi*({{0,1}})/log n median {star_values[-1]:.4f} vs bound {star_bound:.4f}; "
        f"cloud in 1.25*D: {cloud_ok}; heavy-deviation medians "
        f"{[round(v, 4) for v in heavy_medians]}"
    ), "medians increase into [0.7, 1.3]*lambda0; star below bound; cloud contained; deviations decrease"


def _check_determinism(params: WalkParams, seed: int) -> tuple:
    config = montecarlo.SimConfig(params=params, n=200, replicas=20_000, seed=seed)
    ra = montecarlo.ensemble(config, "ball_occupation")
    rb = montecarlo.ensemble(config, "ball_occupation")
    # to_dict holds words, steps, the summaries and the histogram as a list
    same_ensemble = ra.to_dict() == rb.to_dict() and np.array_equal(ra.histogram, rb.histogram)
    pa = montecarlo.path_report(montecarlo.SimConfig(params=params, n=50_000, seed=seed))
    pb = montecarlo.path_report(montecarlo.SimConfig(params=params, n=50_000, seed=seed))
    # to_dict holds qtilde; the cloud is a function of counts
    same_path = pa.to_dict() == pb.to_dict() and np.array_equal(pa.counts, pb.counts)
    ok = same_ensemble and same_path
    return ok, (
        f"ensemble rerun identical: {same_ensemble}; path rerun identical: {same_path}"
    ), "bit-identical"


_CRITERIA = {
    1: ("closed form vs generating functions", _check_closedform_vs_genfunc),
    2: ("closed form vs certified infinite-horizon law", _check_closedform_vs_infinite_law),
    3: ("dynamic program vs exhaustive enumeration", _check_dp_vs_enumeration),
    4: ("marginal-consistency identities", _check_marginal_identities),
    5: ("boundary geometry", _check_boundary_geometry),
    6: ("weight-limit triple agreement", _check_weight_limit),
    7: ("Monte Carlo distributional checks", _check_mc_distributions),
    8: ("single-path law of large numbers", _check_single_path_lln),
    9: ("limit-theorem trend checks", _check_limit_trends),
    10: ("determinism under rerun", _check_determinism),
}


def run_suite(p: float = 0.75, level: str = "desk", seed: int = 0) -> list[CriterionResult]:
    """Run the verification criteria for one level and return results.

    A criterion that cannot run at this p, because its work is beyond its
    budget (BudgetError) or one of its settings is out of range there
    (ValidationError), fails with the reason rather than ending the suite.
    """
    if level not in LEVELS:
        raise ValidationError(f"unknown level {level!r}; choose from {sorted(LEVELS)}")
    params = make_params(p)
    results = []
    for number in LEVELS[level]:
        name, fn = _CRITERIA[number]
        start = time.perf_counter()
        try:
            passed, measured, expected = fn(params, seed)
        except (BudgetError, ValidationError) as err:
            passed, measured, expected = False, f"refused: {err}", "a result"
        results.append(
            CriterionResult(
                number=number,
                name=name,
                passed=bool(passed),
                measured=measured,
                expected=expected,
                seconds=time.perf_counter() - start,
            )
        )
    return results
