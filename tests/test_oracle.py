"""Exact finite-horizon oracles: path enumeration and the forward DP."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklab import closedform as cf
from walklab import oracle
from walklab.errors import BudgetError, ValidationError
from walklab.model import make_params

from dpref import reference_dp_table

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


# windows with edges of both parities, counter sizes 2 to 441
BLOCK_CASES = [
    [oracle.local_time(0, 1)],
    [oracle.set_occupation((-1, 1), 15)],
    [oracle.set_occupation((2, 4), 6)],
    [oracle.set_occupation((-3, 0, 2), 5), oracle.local_time(2, 3)],
    [oracle.local_time(0, 20), oracle.set_occupation((-1, 1), 20)],
]


@pytest.mark.parametrize("p", [0.52, 0.75])
@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 1000])
@pytest.mark.parametrize("funcs", BLOCK_CASES)
def test_dp_blocks_match_per_step_reference(p, n, funcs):
    """Blocks of DP_BLOCK_STEPS return steps, on either side of a block
    edge and over many blocks, against the DP that adds each return
    step's returns from all earlier exits at once (dpref.py)."""
    params = make_params(p)
    law = oracle.dp_law(params, n, funcs)
    assert np.abs(law.table - reference_dp_table(params, n, funcs)).max() <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 7, 16, 17, 20, oracle.ENUM_MAX_STEPS])
def test_path_counts_are_exact_integers(n):
    funcs = (oracle.local_time(0, 4), oracle.set_occupation((-1, 1), 30))
    counts = oracle._path_counts(n, funcs)
    assert counts.dtype == np.int64
    assert counts.shape == (n + 1, 5, 31)
    assert int(counts.sum()) == 2**n
    assert counts.sum(axis=(1, 2)).tolist() == [math.comb(n, u) for u in range(n + 1)]


@pytest.mark.parametrize(
    "n, funcs",
    [
        (9, (oracle.local_time(1, 3), oracle.set_occupation((-2, 0, 2), 4))),
        (10, (oracle.set_occupation((-8, -4, 0, 4, 8, 9, 11, 13), 6),)),
        (10, (oracle.set_occupation((-25, 25), 2), oracle.local_time(0, 3))),
        (9, (oracle.local_time(-1, 4), oracle.local_time(-1, 4))),
        (10, (oracle.local_time(0, 1),)),
        (10, (oracle.set_occupation((-3, -2, -1, 0, 1, 2, 5), 8), oracle.local_time(3, 2))),
    ],
    ids=["runs", "gapped", "beyond-n", "identical", "cap-1", "both-parities"],
)
def test_path_counts_match_path_by_path_loop(n, funcs):
    dims = tuple(f.cap + 1 for f in funcs)
    expected = np.zeros((n + 1, *dims), dtype=np.int64)
    for steps in itertools.product((1, -1), repeat=n):
        positions = np.cumsum(steps)
        counts = [min(int(np.isin(positions, f.sites).sum()), f.cap) for f in funcs]
        expected[(steps.count(1), *counts)] += 1
    assert np.array_equal(oracle._path_counts(n, funcs), expected)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_path_counts_do_not_depend_on_the_block_size(monkeypatch, n):
    """Blocks of 2^1 to 2^16 paths give one table, so the chunked tail
    (n > ENUM_BLOCK_STEPS, with chunks of chunks once n > 2 ENUM_BLOCK_STEPS)
    keeps each step's parity."""
    funcs = (oracle.set_occupation((-3, -2, 0, 1, 4), 6), oracle.local_time(-1, 3))
    expected = oracle._path_counts(n, funcs)
    assert int(expected.sum()) == 2**n
    for steps in range(1, 17):
        monkeypatch.setattr(oracle, "ENUM_BLOCK_STEPS", steps)
        assert np.array_equal(oracle._path_counts(n, funcs), expected), steps


def test_enumeration_at_max_steps_matches_dp():
    n = oracle.ENUM_MAX_STEPS
    funcs = [oracle.local_time(0, 12), oracle.set_occupation((-1, 1), 12)]
    a = oracle.enumerate_paths(P75, n, funcs)
    b = oracle.dp_law(P75, n, funcs)
    assert np.abs(a.table - b.table).max() < 1e-14


def test_dp_matches_local_time_law_at_n200():
    cap = 40
    law = oracle.dp_law(P75, 200, [oracle.local_time(0, cap)])
    # Chernoff: a visit to 0 after step 200 has probability at most
    # rho^201 / (1 - rho), rho = 2 sqrt(pq)
    rho = 2.0 * math.sqrt(P75.p * P75.q)
    cert = rho**201 / (1.0 - rho)
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


def test_dp_state_budget_counts_window_and_exit_rows(monkeypatch):
    """The DP holds two window buffers and two exit tables of counter
    vectors, and two blocks of returns once an edge has more return steps
    than a block: on {-1, 2}, 7 states a row, n = 10 holds 2 x 4 + 2 x 6
    rows and n = 65 holds 2 x 4 + 2 x 33 + 2 x 32."""
    funcs = [oracle.set_occupation((-1, 2), 6)]
    for n, states, rows in (
        (10, 140, "2 x 6 exit rows and 2 x 0 block rows"),
        (65, 966, "2 x 33 exit rows and 2 x 32 block rows"),
    ):
        monkeypatch.setattr(oracle, "DP_STATE_BUDGET", states)
        law = oracle.dp_law(P75, n, funcs)
        monkeypatch.undo()
        assert np.array_equal(law.table, oracle.dp_law(P75, n, funcs).table)
        monkeypatch.setattr(oracle, "DP_STATE_BUDGET", states - 1)
        message = rf"state space {states} exceeds budget {states - 1} \(2 x 4 window rows, {rows}"
        with pytest.raises(BudgetError, match=message):
            oracle.dp_law(P75, n, funcs)
        monkeypatch.undo()


def test_joint_law_mass_and_overflow():
    law = oracle.dp_law(P75, 30, [oracle.local_time(0, 4)])
    assert float(law.table.sum()) == pytest.approx(1.0, abs=1e-12)
    # pooled bucket carries the geometric tail mass beyond the cap
    assert law.overflow_mass == pytest.approx(0.5**4, abs=1e-3)


def test_overflow_mass_counts_a_cell_pooled_on_two_axes_once():
    """At p = 0.75, n = 200 the (3, 3) cell of 0.125 is pooled on both
    axes; adding each axis's top slice would report 0.5156."""
    law = oracle.dp_law(P75, 200, [oracle.local_time(0, 3), oracle.set_occupation((-1, 1), 3)])
    pooled = law.table[3, :].sum() + law.table[:3, 3].sum()
    assert law.table[3, 3] == pytest.approx(0.125, abs=1e-12)
    assert law.overflow_mass == pytest.approx(pooled, abs=1e-15)
    assert law.overflow_mass == pytest.approx(0.390625, abs=1e-12)


def test_marginal_of_joint_matches_single_axis():
    funcs = [oracle.local_time(0, 10), oracle.set_occupation((-1, 1), 10)]
    joint = oracle.dp_law(P75, 60, funcs)
    single = oracle.dp_law(P75, 60, [oracle.local_time(0, 10)])
    assert np.abs(joint.marginal(0) - single.table).max() < 1e-14


def test_infinite_law_certified_horizon():
    """For the origin alone the chain stays at 0 with probability 2q per
    visit, so after m visits 0.5^m of the mass is left at p = 0.75: the
    sweep stops at the first m with 0.5^m < eps."""
    law = oracle.infinite_law(P75, [oracle.local_time(0, 12)], eps=1e-10)
    assert law.horizon == 34
    assert law.certificate == 0.5**34
    geom = cf.local_time_pmf(P75, 0, 11)
    for k in range(12):
        assert law.prob((k,)) == pytest.approx(geom.prob(k), abs=law.certificate)


@pytest.mark.parametrize("p", [0.501, 0.55, 0.56, 0.6, 0.75, 0.9, 0.999])
def test_infinite_law_least_certified_horizon(p):
    """The ball {-1, 0, 1} holds every site of its chain, so the mass left
    after m visits is the closed-form tail P(ball occupation >= m), the
    tail beyond m - 1: the horizon is the least m at which it is below
    eps, and the law lies within that certificate of the closed form."""
    params = make_params(p)
    law = oracle.infinite_law(params, [oracle.set_occupation((-1, 0, 1), 30)], eps=1e-9)
    n = law.horizon
    tail = cf.ball_occupation_pmf(params, n - 1).tail_bound
    assert law.certificate == pytest.approx(tail, rel=1e-9, abs=0.0)
    assert law.certificate < 1e-9 <= cf.ball_occupation_pmf(params, n - 2).tail_bound
    ref = cf.ball_occupation_pmf(params, 29)
    worst = max(abs(law.prob((k,)) - ref.prob(k)) for k in range(30))
    assert worst <= law.certificate + 1e-14


def test_infinite_law_horizon_reaches_far_sites():
    """A far site is one move of the chain away, so the horizon does not
    grow with its distance: from 0 the walk reaches -40 with probability
    h^40."""
    law = oracle.infinite_law(P75, [oracle.local_time(-40, 3)], eps=1e-3)
    assert law.horizon == 10
    assert law.prob((0,)) == pytest.approx(1.0 - (1.0 / 3.0) ** 40, abs=1e-12)


def test_infinite_law_budget_error():
    """Just above p = 1/2 the origin alone would take about 10^7 visits at
    eps = 1e-9; the law is refused up front, with no visit run.  The
    squaring stops at 2^20 visits, past the budget, and the bound doubles
    on from there to 2^24."""
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"1\.68e\+07 visits of 5 states.*budgets are"):
        oracle.infinite_law(make_params(0.5 + 2.0**-20), [oracle.local_time(0, 4)], eps=1e-9)
    assert time.perf_counter() - start < 0.01


def test_infinite_law_refuses_too_many_states():
    """2 x 10^10 states take over the work budget per visit, so the move
    matrix is not squared even once and its row sums of 1 give no finite
    bound; the law is refused at once, naming the states."""
    fns = [oracle.local_time(0, 10**5), oracle.local_time(1, 10**5)]
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"inf visits of 20000400002 states"):
        oracle.infinite_law(P75, fns, eps=1e-9)
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize("p", [0.5 + 2.0**-30, 0.5 + 2.0**-40])
def test_infinite_law_refuses_near_half(p):
    """Where gamma0 is below 1e-9 the escape per visit is too rare for
    any budget; the refusal comes at once."""
    fns = [oracle.set_occupation((-1, 1), 60), oracle.local_time(0, 60)]
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"beyond|budgets are"):
        oracle.infinite_law(make_params(p), fns, eps=1e-15)
    assert time.perf_counter() - start < 0.1


# site sets of the chain: a far site, one above 0, gaps on either side of
# 0, a gap above 0, the ball, and two functionals
CHAIN_CASES = [
    [oracle.local_time(-40, 4)],
    [oracle.local_time(3, 6)],
    [oracle.set_occupation((-2, 5), 6)],
    [oracle.set_occupation((-1, 1), 6)],
    [oracle.set_occupation((2, 4), 6)],
    [oracle.set_occupation((-1, 0, 1), 8)],
    [oracle.local_time(-3, 5), oracle.local_time(2, 5)],
]


@pytest.mark.parametrize("p, n", [(0.6, 2500), (0.75, 600), (0.9, 300)])
@pytest.mark.parametrize("funcs", CHAIN_CASES)
def test_infinite_law_matches_long_dp(p, n, funcs):
    """The chain against the window DP at a horizon after which a visit
    to any of these sites has probability below 1e-20.  The bound allows
    for the DP's rounding over n steps: at p = 0.6, n = 2500 on {2, 4} it
    is 2.6e-15 against a 40-digit evaluation, the chain's 7.8e-16."""
    params = make_params(p)
    law = oracle.infinite_law(params, funcs, 1e-17)
    dp = oracle.dp_law(params, n, funcs)
    assert np.abs(law.table - dp.table).max() <= 4e-15


@pytest.mark.parametrize("p", [0.52, 0.75, 0.999])
@pytest.mark.parametrize("sites", [(0,), (-1, 0, 1), (-3, 0, 2), (0, 4)])
def test_infinite_law_certificate_is_left_over_mass(p, sites):
    """With one counter over every site of the chain, each visit raises
    it, so the mass left after the last visit sits alone at count
    horizon: that entry is the certificate, below eps."""
    cap = 4000
    law = oracle.infinite_law(make_params(p), [oracle.set_occupation(sites, cap)], eps=1e-12)
    assert law.horizon < cap
    assert law.certificate < 1e-12
    assert law.table[law.horizon] == law.certificate
    assert not law.table[law.horizon + 1 :].any()


@pytest.mark.parametrize("p", [0.52, 0.6, 0.9, 0.999])
@pytest.mark.parametrize("funcs", CHAIN_CASES)
def test_infinite_law_visits_within_bound(p, funcs):
    """After m visits the mass left is at most the largest row sum of
    move^m, so the smallest power of two m with that sum below eps bounds
    the visits run.  The bound, doubled on paper from an early stop of
    the squaring, is never below it."""
    params = make_params(p)
    sites = sorted({0, *(s for f in funcs for s in f.sites)})
    move = oracle._chain(params, sites)
    bound = 1
    while np.linalg.matrix_power(move, bound).sum(axis=1).max() >= 1e-12:
        bound *= 2
    assert oracle._visit_bound(move, 1e-12, math.inf) == bound
    assert oracle._visit_bound(move, 1e-12, 1) >= bound
    law = oracle.infinite_law(params, funcs, 1e-12)
    assert law.horizon <= bound


def test_infinite_law_far_site_near_half():
    """{-40} at p = 0.501 takes 26,518 visits within a bound of 2^15; the
    bound of len(sites) log eps / log(1 - escape within len(sites)
    visits), 2.0e6 visits, refused it."""
    law = oracle.infinite_law(make_params(0.501), [oracle.local_time(-40, 4)], 1e-12)
    assert law.horizon <= 1 << 15
    assert law.certificate < 1e-12
    assert law.table.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.501, 0.6, 0.75, 0.999])
def test_chain_moves_match_ruin_and_escape(p):
    """Row sums are 1 except the top row's 1 - gamma0, and across a gap
    the moves are the gambler's-ruin probabilities of `closedform`."""
    params = make_params(p)
    sites = [-3, 0, 1, 5]
    move = oracle._chain(params, sites)
    sums = move.sum(axis=1)
    assert sums[:-1] == pytest.approx(1.0, abs=1e-15)
    assert sums[-1] == pytest.approx(1.0 - params.gamma0, abs=1e-15)
    # from 1 the walk steps to 2 and then reaches 5 before 1 (levels
    # shifted by 1); from 0 it steps to -1 and then reaches -3 before 0
    # (levels shifted by 3)
    up = params.p * (1.0 - cf.gambler_ruin(params, 0, 1, 4))
    down = params.q * cf.gambler_ruin(params, 0, 2, 3)
    assert move[2, 3] == pytest.approx(up, rel=1e-12)
    assert move[1, 0] == pytest.approx(down, rel=1e-12)


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
    for eps in (0.0, math.nan):
        with pytest.raises(ValidationError):
            oracle.infinite_law(P75, [oracle.local_time(0, 2)], eps=eps)


def test_parity_invariant():
    """The origin's visit count at odd horizons has the same parity
    structure as at the preceding even horizon (visits only at even
    times), so the n=9 and n=8 laws for xi(0) coincide."""
    a = oracle.dp_law(P75, 8, [oracle.local_time(0, 8)])
    b = oracle.dp_law(P75, 9, [oracle.local_time(0, 8)])
    assert np.abs(a.table - b.table).max() < 1e-15
