"""Exact finite-horizon oracles: path enumeration and the forward DP."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklab import closedform as cf
from walklab import oracle
from walklab.errors import BudgetError, ValidationError
from walklab.model import make_params

P75 = make_params(0.75)


def test_enumeration_single_step():
    law = oracle.enumerate_paths(P75, 1, [oracle.local_time(1, 2)])
    assert law.prob((1,)) == pytest.approx(0.75, abs=1e-15)
    assert law.prob((0,)) == pytest.approx(0.25, abs=1e-15)


def test_gambler_ruin_matches_linear_system():
    """Absorbing-chain linear solve as an independent oracle for the
    ruin probability on levels (0, 1, 3)."""
    # unknowns u(1), u(2) with u(0)=1, u(3)=0 and u(x) = p u(x+1) + q u(x-1)
    p, q = 0.75, 0.25
    A = np.array([[1.0, -p], [-q, 1.0]])
    b = np.array([q * 1.0, 0.0])
    u = np.linalg.solve(A, b)
    assert u[0] == pytest.approx(cf.gambler_ruin(P75, 0, 1, 3), abs=1e-14)
    assert u[0] == pytest.approx(4.0 / 13.0, abs=1e-14)


@pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_dp_matches_enumeration(p, n):
    params = make_params(p)
    funcs = [
        oracle.local_time(0, min(n, 8)),
        oracle.set_occupation((-1, 1), min(n, 8)),
    ]
    a = oracle.enumerate_paths(params, n, funcs)
    b = oracle.dp_law(params, n, funcs)
    assert np.abs(a.table - b.table).max() < 1e-14


# tracked sets away from the origin: the DP's live window is cut on both
# sides, and a site at |s| = n sits at the edge of the reachability cone
OFF_ORIGIN = [
    (7, [oracle.local_time(3, 4)]),
    (13, [oracle.set_occupation((-2, 4), 8)]),
    (16, [oracle.local_time(3, 6), oracle.set_occupation((-2, 4), 8)]),
    (10, [oracle.local_time(10, 2), oracle.local_time(-10, 2)]),
    (9, [oracle.set_occupation((-9, 3), 5)]),
]


@pytest.mark.parametrize("n, funcs", OFF_ORIGIN)
def test_dp_matches_enumeration_off_origin(n, funcs):
    a = oracle.enumerate_paths(P75, n, funcs)
    b = oracle.dp_law(P75, n, funcs)
    assert np.abs(a.table - b.table).max() < 1e-14


@given(st.floats(min_value=0.501, max_value=0.999), st.sampled_from(OFF_ORIGIN))
@settings(max_examples=40, deadline=None)
def test_dp_matches_enumeration_over_p(p, case):
    n, funcs = case
    params = make_params(p)
    a = oracle.enumerate_paths(params, n, funcs)
    b = oracle.dp_law(params, n, funcs)
    assert np.abs(a.table - b.table).max() < 1e-14


# the window DP's edge cases: n = 1, a single-site window, a start below
# or above the tracked span, and sites at +-n, the far ends of the cone
WINDOW_CASES = [
    (1, [oracle.local_time(0, 2)]),
    (1, [oracle.local_time(1, 1)]),
    (1, [oracle.local_time(-1, 3), oracle.local_time(1, 3)]),
    (12, [oracle.local_time(0, 12)]),
    (15, [oracle.set_occupation((3, 5), 6)]),
    (14, [oracle.set_occupation((-4, -2), 6)]),
    (20, [oracle.local_time(20, 2), oracle.local_time(-20, 2)]),
    (17, [oracle.local_time(-17, 2), oracle.set_occupation((2, 4), 5)]),
    (20, [oracle.local_time(0, 12), oracle.set_occupation((-1, 1), 12)]),
]


@pytest.mark.parametrize("p", [0.501, 0.6, 0.9, 0.999])
@pytest.mark.parametrize("n, funcs", WINDOW_CASES)
def test_window_dp_matches_enumeration(p, n, funcs):
    params = make_params(p)
    a = oracle.enumerate_paths(params, n, funcs)
    b = oracle.dp_law(params, n, funcs)
    assert np.abs(a.table - b.table).max() <= 1e-15


@pytest.mark.parametrize("p", [0.501, 0.75, 0.999])
def test_first_passage_kernel_matches_path_count(p):
    """Every one of the 2^15 paths from +1, cut at its first visit to 0,
    counted by the number of up-steps before it: f and the survival for
    both kernels, the mirror one stepping up with probability q."""
    k = 15
    params = make_params(p)
    steps = np.array(list(itertools.product((1, -1), repeat=k)))
    positions = 1 + np.cumsum(steps, axis=1)
    hit = positions == 0
    first = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, k + 1)
    ups_before = np.cumsum(steps == 1, axis=1)
    for up, down in ((params.p, params.q), (params.q, params.p)):
        f, survival = oracle._first_passage(up, down, k)
        for t in range(1, k + 1):
            # each t-step prefix appears in 2^(k - t) of the paths
            u = ups_before[:, t - 1]
            weight = up**u * down ** (t - u) / 2.0 ** (k - t)
            passage = weight[first == t].sum()
            alive = weight[first > t].sum()
            assert (f[(t - 1) // 2] if t % 2 else 0.0) == pytest.approx(passage, rel=1e-14)
            assert survival[t] == pytest.approx(alive, rel=1e-14, abs=1e-16)


@pytest.mark.parametrize("p", [0.6, 0.75, 0.9, 0.999])
def test_first_passage_sums_to_h_above_and_one_below(p):
    """From above, a right-drifting walk comes back with probability h;
    from below it surely does."""
    params = make_params(p)
    f_up, surv_up = oracle._first_passage(params.p, params.q, oracle.DP_MAX_STEPS)
    f_down, surv_down = oracle._first_passage(params.q, params.p, oracle.DP_MAX_STEPS)
    assert f_up.sum() == pytest.approx(params.h, rel=1e-14)
    assert surv_up[-1] == pytest.approx(1.0 - params.h, rel=1e-14)
    assert f_down.sum() == pytest.approx(1.0, rel=1e-14)
    assert surv_down[-1] < 1e-16
    assert np.all(np.diff(surv_up) <= 0.0) and np.all(np.diff(surv_down) <= 0.0)


# dp_law tables of the earlier position-by-position DP, which stepped
# every reachable position and used no first-passage kernels
RECORDED_TABLES = [
    (
        0.9,
        200,
        [oracle.local_time(-3, 4), oracle.set_occupation((0, 2), 5)],
        [
            [2.951266543065215e-106, 0.6480000000000004, 0.24552791208791222,
             0.07502209240429902, 0.02160243578494395, 0.008475817610362112],
            [3.53889925315859e-51, 2.1023015177568645e-51, 0.0005704528438594371,
             0.00032390437848590215, 0.00013185064434839404, 7.118582329254861e-05],
            [1.2160327913476862e-50, 2.5760774660019166e-50, 0.00011346369751489894,
             6.492712269482729e-05, 2.6605243758962485e-05, 1.4482674028567592e-05],
            [1.7924944995389306e-50, 4.234799424997129e-50, 2.25680541210953e-05,
             1.3013961374898393e-05, 5.367837861469184e-06, 2.9458942419883894e-06],
            [2.9851073789228227e-49, 8.568548182382479e-49, 5.6033165924804475e-06,
             3.2621331453740806e-06, 1.3564890872206154e-06, 7.519980747876685e-07],
        ],
    ),
    (
        0.52,
        1000,
        [oracle.local_time(-2, 4), oracle.set_occupation((1, 3), 5)],
        [
            [4.190737952618184e-302, 2.0999089424244254e-299, 0.0077874244667333,
             0.010217247553544785, 0.010581543810999452, 0.1250424515769636],
            [0.00047725756955174835, 0.00015952416863376713, 0.0007400260131256571,
             0.0011282605187300113, 0.0013377371604377042, 0.03308401301449619],
            [0.00040924381458383083, 0.0001505344853928849, 0.0006182624697698127,
             0.0009486692048231156, 0.0011389964705763624, 0.03228608148153811],
            [0.00035042033788720443, 0.00014068203920855217, 0.0005177302029499154,
             0.0007983615442079916, 0.0009698203956419678, 0.03144843889080248],
            [0.0019856508927739132, 0.0012311387053743229, 0.0028698083901206946,
             0.004408290455113383, 0.0056280324233656965, 0.7235443519426537],
        ],
    ),
]


@pytest.mark.parametrize("p, n, funcs, table", RECORDED_TABLES)
def test_dp_matches_recorded_tables(p, n, funcs, table):
    law = oracle.dp_law(make_params(p), n, funcs)
    assert np.abs(law.table - np.array(table)).max() <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 7, 16, 17, 20, oracle.ENUM_MAX_STEPS])
def test_path_counts_are_exact_integers(n):
    funcs = (oracle.local_time(0, 4), oracle.set_occupation((-1, 1), 30))
    counts = oracle._path_counts(n, funcs)
    assert counts.dtype == np.int64
    assert counts.shape == (n + 1, 5, 31)
    assert int(counts.sum()) == 2**n
    assert counts.sum(axis=(1, 2)).tolist() == [math.comb(n, u) for u in range(n + 1)]


def test_path_counts_match_path_by_path_loop():
    n = 9
    funcs = (oracle.local_time(1, 3), oracle.set_occupation((-2, 0, 2), 4))
    expected = np.zeros((n + 1, 4, 5), dtype=np.int64)
    for steps in itertools.product((1, -1), repeat=n):
        positions = np.cumsum(steps)
        counts = [min(int(np.isin(positions, f.sites).sum()), f.cap) for f in funcs]
        expected[(steps.count(1), *counts)] += 1
    assert np.array_equal(oracle._path_counts(n, funcs), expected)


def test_enumeration_at_max_steps_matches_dp():
    n = oracle.ENUM_MAX_STEPS
    funcs = [oracle.local_time(0, 12), oracle.set_occupation((-1, 1), 12)]
    a = oracle.enumerate_paths(P75, n, funcs)
    b = oracle.dp_law(P75, n, funcs)
    assert np.abs(a.table - b.table).max() < 1e-14


def test_dp_matches_local_time_law_at_n200():
    cap = 40
    law = oracle.dp_law(P75, 200, [oracle.local_time(0, cap)])
    cert = oracle.escape_certificate(P75, (0,), 200)
    geom = cf.local_time_pmf(P75, 0, cap - 1)
    for k in range(cap):
        assert law.prob((k,)) == pytest.approx(geom.prob(k), abs=max(cert, 1e-12))


def test_dp_matches_center_sphere_joint_law():
    law = oracle.dp_law(
        P75, 200, [oracle.set_occupation((-1, 1), 50), oracle.local_time(0, 50)]
    )
    for big_l in range(1, 25):
        for big_k in range(0, big_l):
            assert law.prob((big_l, big_k)) == pytest.approx(
                cf.center_sphere_joint_pmf(P75, 0, big_k, big_l), abs=1e-9
            )


def test_joint_law_mass_and_overflow():
    law = oracle.dp_law(P75, 30, [oracle.local_time(0, 4)])
    assert float(law.table.sum()) == pytest.approx(1.0, abs=1e-12)
    # pooled bucket carries the geometric tail mass beyond the cap
    assert law.overflow_mass == pytest.approx(0.5**4, abs=1e-3)


def test_marginal_of_joint_matches_single_axis():
    funcs = [oracle.local_time(0, 10), oracle.set_occupation((-1, 1), 10)]
    joint = oracle.dp_law(P75, 60, funcs)
    single = oracle.dp_law(P75, 60, [oracle.local_time(0, 10)])
    assert np.abs(joint.marginal(0) - single.table).max() < 1e-14


def test_escape_certificate_decreases_in_horizon():
    values = [oracle.escape_certificate(P75, (0,), n) for n in (25, 50, 100, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-9


def test_infinite_law_certified_horizon():
    law = oracle.infinite_law(P75, [oracle.local_time(0, 12)], eps=1e-10)
    assert law.certificate < 1e-10
    assert 160 <= law.horizon <= 200
    geom = cf.local_time_pmf(P75, 0, 11)
    for k in range(12):
        assert law.prob((k,)) == pytest.approx(geom.prob(k), abs=1e-10)


# the least certified horizon for the ball at eps = 1e-9
BALL_HORIZONS = {0.56: 3689, 0.6: 1260, 0.75: 166}


@pytest.mark.parametrize("p", [0.56, 0.6, 0.75, 0.9, 0.999])
def test_infinite_law_least_certified_horizon(p):
    """The horizon is the least n whose certificate is below eps, and the
    law lies within that certificate of the closed form."""
    params = make_params(p)
    law = oracle.infinite_law(params, [oracle.set_occupation((-1, 0, 1), 30)], eps=1e-9)
    n = law.horizon
    assert law.certificate == oracle.escape_certificate(params, (-1, 0, 1), n)
    assert law.certificate < 1e-9 <= oracle.escape_certificate(params, (-1, 0, 1), n - 1)
    if p in BALL_HORIZONS:
        assert n == BALL_HORIZONS[p]
    ref = cf.ball_occupation_pmf(params, 29)
    worst = max(abs(law.prob((k,)) - ref.prob(k)) for k in range(30))
    assert worst <= law.certificate + 1e-14


def test_infinite_law_horizon_reaches_far_sites():
    """A far site below 0 has a tiny weight, so the certificate alone would
    stop before the walk can reach it."""
    law = oracle.infinite_law(P75, [oracle.local_time(-40, 3)], eps=1e-3)
    assert law.horizon == 40
    assert law.prob((0,)) == pytest.approx(1.0 - (1.0 / 3.0) ** 40, abs=1e-12)


def test_infinite_law_budget_error():
    """At p = 0.55 the origin's certified horizon for eps = 1e-9 lies
    beyond the DP's; the error names both."""
    with pytest.raises(BudgetError, match=r"n=5177, beyond DP_MAX_STEPS=5000"):
        oracle.infinite_law(make_params(0.55), [oracle.local_time(0, 4)], eps=1e-9)


@pytest.mark.parametrize("p", [0.5 + 2.0**-30, 0.5 + 2.0**-40])
def test_escape_certificate_near_half(p):
    """Where rho = 2 sqrt(pq) rounds to 1 the certificate stays finite and
    positive and never grows with n (at 2^-40 its decrease per step is
    below double resolution); infinite_law refuses with the horizon it
    needs."""
    params = make_params(p)
    values = [
        oracle.escape_certificate(params, (-1, 0, 1), n) for n in (1, 10, 100, 1000, 5000)
    ]
    assert all(math.isfinite(v) and v > 0.0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(BudgetError, match=r"horizon n=\d+, beyond DP_MAX_STEPS=5000"):
        oracle.infinite_law(params, [oracle.local_time(0, 4)], eps=1e-9)


def test_validation_errors():
    with pytest.raises(ValidationError):
        oracle.enumerate_paths(P75, 25, [oracle.local_time(0, 2)])  # depth cap
    with pytest.raises(ValidationError):
        oracle.enumerate_paths(P75, 0, [oracle.local_time(0, 2)])
    with pytest.raises(ValidationError):
        oracle.dp_law(P75, 10, [])
    with pytest.raises(ValidationError):
        oracle.enumerate_paths(
            P75,
            4,
            [oracle.local_time(0, 2), oracle.local_time(1, 2), oracle.local_time(2, 2)],
        )
    with pytest.raises(ValidationError):
        oracle.local_time(0, 0)  # cap must allow at least one real count
    with pytest.raises(ValidationError):
        oracle.infinite_law(P75, [oracle.local_time(0, 2)], eps=0.0)


def test_parity_invariant():
    """The origin's visit count at odd horizons has the same parity
    structure as at the preceding even horizon (visits only at even
    times), so the n=9 and n=8 laws for xi(0) coincide."""
    a = oracle.dp_law(P75, 8, [oracle.local_time(0, 8)])
    b = oracle.dp_law(P75, 9, [oracle.local_time(0, 8)])
    assert np.abs(a.table - b.table).max() < 1e-15
