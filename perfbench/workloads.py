"""The benchmark's three workloads.

Each follows one family of the verify criteria (README.md says why):

  ensemble  replica ensembles (criteria 7 and 10): narrow many-replica
            RNG blocks, two threads, against closed-form laws
  paths     long single paths (criteria 8 and 9): wide one-replica RNG
            blocks and path statistics over arrays of 40 MB and more
  exact     exact laws (criteria 1-6): enumeration, DP, the certified
            infinite-horizon law, closed forms, series and the boundary

A workload is built afresh for every round from (seed, round): a fixed
list of timed calls on fresh inputs of the same size, so no round can
reuse another's results.  Every call's output is checked outside its
timing window; the calls look walklab functions up at call time so that
a traced run sees them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from walklab import boundary, closedform, genfunc, montecarlo, oracle
from walklab.model import make_params

from checks import Checks, lln_band, multinomial_fit


@dataclass(frozen=True)
class Call:
    label: str  # the same in every round, so timings can be compared
    fn: Callable[[], object]
    check: Callable[[object, Checks], None]
    replicas: int = 0  # counted in replicas_per_s
    steps: int = 0  # horizon steps, counted in steps_per_s


@dataclass(frozen=True)
class Workload:
    sizes: dict
    calls: tuple[Call, ...]
    # (threads=1 label, threads=2 label) of the serial baseline: the two
    # outputs must be bit-identical, and their time ratio is the speed-up
    serial_pair: tuple[str, str] | None = None


def _inputs(seed: int, round_index: int) -> np.random.Generator:
    """The generator of one round's inputs."""
    return np.random.default_rng([seed, round_index])


# --- ensemble ----------------------------------------------------------

ENSEMBLE_PS = (0.6, 0.9)
ENSEMBLE_STATS = ("local_time:0", "ball_occupation", "two_point_pos:1")
# the serial baseline repeats one threads=2 call with threads=1
SERIAL = ("ball_occupation", 0.6)

# Closed-form law of each ensemble statistic, listed up to kmax.
REFERENCE_LAWS = {
    "local_time:0": lambda params, kmax: closedform.local_time_pmf(params, 0, kmax),
    "ball_occupation": lambda params, kmax: closedform.ball_occupation_pmf(params, kmax),
    "two_point_pos:1": lambda params, kmax: closedform.two_point_occupation_pmf(
        params, 1, "pos", kmax
    ),
}


def _ensemble_label(statistic: str, p: float, threads: int) -> str:
    return f"ensemble {statistic} p={p} threads={threads}"


def _ensemble_call(config, statistic: str, threads: int) -> Call:
    label = _ensemble_label(statistic, config.params.p, threads)

    def check(report, checks: Checks) -> None:
        law = REFERENCE_LAWS[statistic](config.params, len(report.histogram))
        multinomial_fit(checks, f"{label} seed={config.seed}", report.histogram, law)

    return Call(
        label,
        lambda: montecarlo.ensemble(config, statistic, threads=threads),
        check,
        replicas=config.replicas if threads == 2 else 0,
    )


def ensemble_workload(seed: int, round_index: int, smoke: bool = False) -> Workload:
    # 131072 = 4 chunks of 32768 replicas: whole chunks for both threads
    replicas = 32768 if smoke else 131072
    sim_seed = int(_inputs(seed, round_index).integers(2**32))
    configs = {
        p: montecarlo.SimConfig(params=make_params(p), n=1, replicas=replicas, seed=sim_seed)
        for p in ENSEMBLE_PS
    }
    calls = [
        _ensemble_call(configs[p], statistic, threads=2)
        for p in ENSEMBLE_PS
        for statistic in ENSEMBLE_STATS
    ]
    statistic, p = SERIAL
    serial = _ensemble_call(configs[p], statistic, threads=1)
    return Workload(
        sizes={"replicas": replicas, "p": ENSEMBLE_PS, "statistics": ENSEMBLE_STATS,
               "threads": 2, "serial_baseline": serial.label},
        calls=tuple(calls) + (serial,),
        serial_pair=(serial.label, _ensemble_label(statistic, p, threads=2)),
    )


# --- paths -------------------------------------------------------------

PATH_P = 0.75
XI_STAR_Z = (1, 2, 3)
# Standard deviation of sqrt(n) * (statistic / n - limit) at p = 0.75,
# rounded up from 120 seeds at n = 1e5 and 1e6 (measured 0.88-0.92,
# 0.89-0.97, 0.43 and 0.24-0.26; nu_n's is sqrt(4pq) = 0.87 in theory).
LLN_SIGMA = {"nu_n": 1.0, 1: 1.0, 2: 0.5, 3: 0.3}


def lln_targets(params) -> dict:
    """Almost-sure limits of nu_n / n and qtilde[k] / n."""
    gamma0 = 1.0 - 2.0 * params.q
    targets = {"nu_n": gamma0}
    targets.update({k: gamma0**2 * (2.0 * params.q) ** (k - 1) for k in (1, 2, 3)})
    return targets


def _check_path(report, checks: Checks) -> None:
    n = report.n
    label = f"path_report seed={report.seed}"
    values = {"nu_n": report.nu_n}
    values.update({k: int(report.qtilde[k]) if k < len(report.qtilde) else 0 for k in (1, 2, 3)})
    for key, target in lln_targets(make_params(PATH_P)).items():
        lln_band(checks, f"{label} {key}/n", values[key] / n, target,
                 LLN_SIGMA[key] / math.sqrt(n))
    visits = int((np.arange(len(report.qtilde)) * report.qtilde).sum())
    checks.expect(f"{label} visits sum to n", visits == n, f"{visits} != {n}")
    ordered = report.xi_max <= report.eta_max and all(
        report.xi_max <= report.xi_star[z] <= 2 * report.xi_max for z in XI_STAR_Z
    )
    checks.expect(
        f"{label} xi_max <= eta_max and xi_max <= xi_star <= 2 xi_max",
        ordered,
        f"xi_max {report.xi_max}, eta_max {report.eta_max}, xi_star {report.xi_star}",
    )


def paths_workload(seed: int, round_index: int, smoke: bool = False) -> Workload:
    n, count = (10**5, 2) if smoke else (10**7, 6)
    params = make_params(PATH_P)
    calls = []
    for i, path_seed in enumerate(_inputs(seed, round_index).integers(2**32, size=count)):
        config = montecarlo.SimConfig(
            params=params, n=n, seed=int(path_seed), heavy=montecarlo.HeavyPointConfig()
        )
        calls.append(
            Call(
                f"path_report {i}",
                lambda config=config: montecarlo.path_report(config, xi_star_z=XI_STAR_Z),
                _check_path,
                steps=n,
            )
        )
    return Workload(
        sizes={"n": n, "paths": count, "p": PATH_P, "xi_star_z": XI_STAR_Z},
        calls=tuple(calls),
    )


# --- exact -------------------------------------------------------------

# Each call runs at its nominal p plus a jitter in [-P_JITTER, P_JITTER]
# drawn per round.  The work does not depend on p in this range (the
# infinite_law horizon stays 1600 for p in [0.595, 0.605]).
P_JITTER = 0.005
ENUM_PS = (0.6, 0.75, 0.9)
DP_P = 0.75
INFINITE_P, INFINITE_CAP, INFINITE_EPS = 0.6, 30, 1e-9
SERIES_KMAX = 200
WEIGHT_PS = (0.6, 0.75, 0.9)


def _enumerate_call(p: float, jitter: float, n: int) -> Call:
    params = make_params(p + jitter)
    fns = [oracle.local_time(0, min(n, 12)), oracle.set_occupation((-1, 1), min(n, 12))]

    def check(laws, checks: Checks) -> None:
        enum, dp = laws
        error = float(np.abs(enum.table - dp.table).max())
        checks.within(f"enumerate_paths vs dp_law n={n} p={params.p}", error, 1e-14)

    return Call(
        f"enumerate_paths n={n} p~{p}",
        lambda: (oracle.enumerate_paths(params, n, fns), oracle.dp_law(params, n, fns)),
        check,
    )


def _dp_call(jitter: float, n: int, cap: int) -> Call:
    params = make_params(DP_P + jitter)
    fns = [oracle.set_occupation((-1, 1), cap), oracle.local_time(0, cap)]

    def check(law, checks: Checks) -> None:
        worst = max(
            abs(law.prob((big_l, k)) - closedform.center_sphere_joint_pmf(params, 0, k, big_l))
            for big_l in range(1, cap)
            for k in range(big_l)
        )
        checks.within(f"dp_law vs center_sphere_joint_pmf p={params.p}", worst, 1e-12)

    return Call(
        f"dp_law n={n} caps {cap}x{cap} p~{DP_P}", lambda: oracle.dp_law(params, n, fns), check
    )


def _infinite_call(jitter: float) -> Call:
    params = make_params(INFINITE_P + jitter)
    fns = [oracle.set_occupation((-1, 0, 1), INFINITE_CAP)]

    def check(law, checks: Checks) -> None:
        ref = REFERENCE_LAWS["ball_occupation"](params, INFINITE_CAP - 1)
        marginal = law.marginal(0)
        worst = max(abs(marginal[k] - ref.prob(k)) for k in range(INFINITE_CAP))
        # the certificate bounds the truncation; 1e-14 allows for rounding
        checks.within(
            f"infinite_law vs ball_occupation_pmf p={params.p}", worst, law.certificate + 1e-14
        )

    return Call(
        f"infinite_law ball cap {INFINITE_CAP} p~{INFINITE_P}",
        lambda: oracle.infinite_law(params, fns, INFINITE_EPS),
        check,
    )


def _series_call(jitter: float) -> Call:
    params = make_params(DP_P + jitter)

    def compute():
        pairs = [
            (
                closedform.two_point_occupation_pmf(params, z, side, SERIES_KMAX),
                genfunc.series_coeffs(genfunc.two_point_gf(params, z, side), SERIES_KMAX),
            )
            for z in (1, 2, 3, 5)
            for side in ("pos", "neg")
        ]
        pairs.append(
            (
                closedform.ball_occupation_pmf(params, SERIES_KMAX),
                genfunc.series_coeffs(genfunc.ball_gf(params), SERIES_KMAX),
            )
        )
        return pairs

    def check(pairs, checks: Checks) -> None:
        worst = max(float(np.abs(pmf.mass - coeffs[pmf.support]).max()) for pmf, coeffs in pairs)
        checks.within(f"closed forms vs series p={params.p}", worst, 1e-12)

    return Call(f"closed forms and series to order {SERIES_KMAX} p~{DP_P}", compute, check)


def _weight_limit_call(jitters) -> Call:
    ps = [p + j for p, j in zip(WEIGHT_PS, jitters)]

    def check(limits, checks: Checks) -> None:
        for p, wl in zip(ps, limits):
            routes = list(wl.routes.values())
            checks.within(f"weight_limit route spread p={p}", max(routes) - min(routes), 1e-6)

    return Call(
        "weight_limit routes",
        lambda: [boundary.weight_limit(make_params(p)) for p in ps],
        check,
    )


def exact_workload(seed: int, round_index: int, smoke: bool = False) -> Workload:
    enum_n, dp_n, dp_cap = (12, 400, 10) if smoke else (20, 1000, 20)
    jitter = iter(_inputs(seed, round_index).uniform(-P_JITTER, P_JITTER, size=9))
    calls = [_enumerate_call(p, next(jitter), enum_n) for p in ENUM_PS]
    calls += [
        _dp_call(next(jitter), dp_n, dp_cap),
        _infinite_call(next(jitter)),
        _series_call(next(jitter)),
        _weight_limit_call([next(jitter) for _ in WEIGHT_PS]),
    ]
    return Workload(
        sizes={"enumerate_n": enum_n, "enumerate_p": ENUM_PS, "dp_n": dp_n,
               "dp_caps": [dp_cap, dp_cap], "infinite_p": INFINITE_P,
               "infinite_cap": INFINITE_CAP, "series_kmax": SERIES_KMAX,
               "p_jitter": P_JITTER},
        calls=tuple(calls),
    )


WORKLOADS = {
    "ensemble": ensemble_workload,
    "paths": paths_workload,
    "exact": exact_workload,
}


def warm_up(name: str) -> None:
    """First calls of the functions a workload times, at tiny sizes."""
    if name == "ensemble":
        config = montecarlo.SimConfig(params=make_params(0.6), n=1, replicas=4096)
        montecarlo.ensemble(config, "ball_occupation", threads=2)
    elif name == "paths":
        config = montecarlo.SimConfig(
            params=make_params(PATH_P), n=1 << 17, heavy=montecarlo.HeavyPointConfig()
        )
        montecarlo.path_report(config, xi_star_z=XI_STAR_Z)
    else:
        fns = [oracle.local_time(0, 4), oracle.set_occupation((-1, 1), 4)]
        oracle.enumerate_paths(make_params(0.75), 8, fns)
        oracle.infinite_law(make_params(0.9), fns, INFINITE_EPS)
        boundary.weight_limit(make_params(0.75))
