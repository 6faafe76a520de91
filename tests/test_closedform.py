"""Closed-form visit-count distributions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walklab import closedform as cf
from walklab.errors import DomainError, ValidationError
from walklab.genfunc import series_coeffs, two_point_gf
from walklab.model import make_params

from test_model import ULP_PS

P75 = make_params(0.75)
P_STRAT = st.floats(min_value=0.51, max_value=0.98)


# --- return and hitting times ------------------------------------------


def test_first_return_reference_values():
    assert cf.first_return_pmf(P75, 1) == pytest.approx(0.375, abs=1e-15)
    # C(4,2) (pq)^2 / 3 = 2 p^2 q^2
    assert cf.first_return_pmf(P75, 2) == pytest.approx(
        2 * 0.75**2 * 0.25**2, abs=1e-15
    )


def test_return_tail_consistency():
    tail, gamma0_n, q_n = cf.return_tail(P75, 400)
    assert tail == pytest.approx(0.0, abs=1e-12)
    assert gamma0_n == pytest.approx(0.5, abs=1e-12)  # never-return prob
    assert q_n == pytest.approx(0.25, abs=1e-12)


def test_hitting_prob_values():
    assert cf.hitting_prob(P75, 3) == 1.0
    assert cf.hitting_prob(P75, -2) == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert cf.hitting_prob(P75, 0) == pytest.approx(0.5, abs=1e-15)


def test_green_function_values():
    assert cf.green(P75, 0) == pytest.approx(2.0, abs=1e-12)
    assert cf.green(P75, 5) == pytest.approx(2.0, abs=1e-12)
    assert cf.green(P75, -1) == pytest.approx(2.0 / 3.0, abs=1e-12)


# --- single-site total visit counts ------------------------------------


def test_local_time_pmf_at_origin():
    t = cf.local_time_pmf(P75, 0, 40)
    assert t.prob(0) == pytest.approx(0.5, abs=1e-15)
    assert t.prob(1) == pytest.approx(0.25, abs=1e-15)
    assert t.prob(2) == pytest.approx(0.125, abs=1e-15)


def test_local_time_pmf_signed_sites():
    assert cf.local_time_pmf(P75, -1, 20).prob(0) == pytest.approx(
        2.0 / 3.0, abs=1e-15
    )
    assert cf.local_time_pmf(P75, 3, 20).prob(1) == pytest.approx(0.5, abs=1e-15)
    assert cf.local_time_pmf(P75, 3, 20).prob(0) == 0.0


@given(P_STRAT, st.integers(min_value=-6, max_value=6))
@settings(max_examples=60)
def test_local_time_mean_matches_green(p, z):
    """Mean total visits equals the Green function minus the time-0 term."""
    params = make_params(p)
    t = cf.local_time_pmf(params, z, 3000)
    indicator = 1.0 if z == 0 else 0.0
    assert t.mean() == pytest.approx(cf.green(params, z) - indicator, rel=1e-9)


@given(P_STRAT, st.integers(min_value=-6, max_value=6))
@settings(max_examples=60)
def test_local_time_normalization_certificate(p, z):
    t = cf.local_time_pmf(make_params(p), z, 50)
    assert t.total_mass() == pytest.approx(1.0, abs=1e-10)


# --- gambler's ruin ------------------------------------------------------


def test_gambler_ruin_values():
    assert cf.gambler_ruin(P75, 0, 1, 2) == pytest.approx(0.25, abs=1e-15)
    assert cf.gambler_ruin(P75, 0, 1, 3) == pytest.approx(4.0 / 13.0, abs=1e-15)


def test_gambler_ruin_rejects_unordered_levels():
    with pytest.raises(ValidationError):
        cf.gambler_ruin(P75, 1, 1, 3)
    with pytest.raises(ValidationError):
        cf.gambler_ruin(P75, 2, 1, 3)


# --- excursions ----------------------------------------------------------


def test_excursion_law_values():
    assert cf.excursion_law(P75, 1).pz == pytest.approx(0.75, abs=1e-15)
    law2 = cf.excursion_law(P75, 2)
    assert law2.pz == pytest.approx(0.5625, abs=1e-15)
    assert cf.excursion_law(P75, 400).pz == pytest.approx(0.5, abs=1e-12)


def test_excursion_visits_reference_masses():
    finite, infinite = cf.excursion_visits_pmf(P75, 1, 60)
    assert finite.prob(1) == pytest.approx(0.1875, abs=1e-15)  # path 0,1,0
    assert infinite.prob(1) == pytest.approx(0.375, abs=1e-15)
    # the finite-return branch carries the full return mass 2q and the
    # no-return branch the remaining 1-2q
    assert finite.total_mass() == pytest.approx(0.5, abs=1e-10)
    assert infinite.total_mass() == pytest.approx(0.5, abs=1e-10)


@given(P_STRAT, st.integers(min_value=1, max_value=10))
@settings(max_examples=60)
def test_excursion_finite_branch_mean_is_exact(p, z):
    params = make_params(p)
    finite, _ = cf.excursion_visits_pmf(params, z, 800)
    assert finite.mean() == pytest.approx(params.h**z, rel=1e-10)


def test_excursion_mean_visits_profile():
    assert cf.excursion_mean_visits(P75, 0) == 1.0
    assert cf.excursion_mean_visits(P75, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert cf.excursion_mean_visits(P75, -3) == pytest.approx(2.0 / 27.0, abs=1e-15)


# --- joint transforms ----------------------------------------------------


def test_joint_transform_at_zero_is_marginal():
    for z in (1, 2, 5):
        for sign in ("pos", "neg"):
            for k in range(0, 30):
                assert cf.joint_transform(P75, z, k, 0.0, sign) == pytest.approx(
                    0.5 * 0.5**k, abs=1e-14
                )


def test_joint_transform_rejects_radius():
    radius = -math.log(cf.excursion_law(P75, 1).qz)
    with pytest.raises(DomainError):
        cf.joint_transform(P75, 1, 0, radius, "pos")
    assert cf.joint_transform(P75, 1, 0, radius - 1e-6, "pos") > 0.0


def test_joint_transform_derivative_matches_mean_bookkeeping():
    """d/dv at 0 of the k=0 'pos' transform is E(xi(z,inf); xi(0,inf)=0),
    which equals P(xi(0)=0) times the one-sided mean h^z P_z / (1-Q_z)^...
    computed here by a fine central difference against series summation."""
    z = 2
    eps = 1e-6
    deriv = (
        cf.joint_transform(P75, z, 0, eps, "pos")
        - cf.joint_transform(P75, z, 0, -eps, "pos")
    ) / (2 * eps)
    # series: sum_j j * P(xi(z,inf)=j, xi(0,inf)=0) via the transform's
    # own coefficients, extracted numerically from a Fourier-free probe
    law = cf.excursion_law(P75, z)
    expected = sum(
        j * (1 - 2 * P75.q) * law.pz * law.qz ** (j - 1) for j in range(1, 4000)
    )
    assert deriv == pytest.approx(expected, rel=1e-4)


# --- two-point and sphere/ball laws --------------------------------------


def test_two_point_reference_masses():
    pos = cf.two_point_occupation_pmf(P75, 1, "pos", 60)
    neg = cf.two_point_occupation_pmf(P75, 1, "neg", 60)
    assert pos.prob(1) == pytest.approx(0.375, abs=1e-12)
    assert pos.prob(0) == 0.0
    assert neg.prob(0) == pytest.approx(0.5, abs=1e-12)


@given(P_STRAT, st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_two_point_normalization(p, z):
    params = make_params(p)
    for side in ("pos", "neg"):
        t = cf.two_point_occupation_pmf(params, z, side, 80)
        assert t.total_mass() == pytest.approx(1.0, abs=1e-10)


@given(st.floats(min_value=0.501, max_value=0.9999), st.integers(min_value=1, max_value=6))
@example(0.999, 5)
@example(0.9999, 6)
@settings(max_examples=80, deadline=None)
def test_two_point_matches_series_up_to_p_near_one(p, z):
    """Near p = 1 the positive side's two bases almost coincide and their
    difference is divided by 2 h^(z/2), which is tiny: the closed form
    still meets the series and its tail certificate to 1e-12."""
    params = make_params(p)
    for side in ("pos", "neg"):
        law = cf.two_point_occupation_pmf(params, z, side, 200)
        coeffs = series_coeffs(two_point_gf(params, z, side), 200)
        assert np.abs(law.mass - coeffs[law.support]).max() <= 1e-12
        for kmax in (0, 1, 3, 200):  # short tables lean on the tail bound
            law = cf.two_point_occupation_pmf(params, z, side, kmax)
            assert abs(law.total_mass() - 1.0) <= 1e-12


def test_two_point_bases_values():
    b_plus, b_minus = P75.two_point_bases(1)
    s = math.sqrt(1.0 / 3.0)
    assert b_plus == pytest.approx((0.5 + s) / (1 + s), abs=1e-15)
    assert b_minus == pytest.approx((0.5 - s) / (1 - s), abs=1e-15)


def test_center_sphere_joint_reference_values():
    assert cf.center_sphere_joint_pmf(P75, 0, 0, 1) == pytest.approx(0.375, abs=1e-15)
    assert cf.center_sphere_joint_pmf(P75, 0, 1, 2) == pytest.approx(
        0.140625, abs=1e-15
    )


def test_center_sphere_joint_rejects_bad_pairs():
    with pytest.raises(ValidationError):
        cf.center_sphere_joint_pmf(P75, 0, 3, 3)  # needs L >= K+1
    with pytest.raises(ValidationError):
        cf.center_sphere_joint_pmf(P75, 0, -1, 2)


def test_center_sphere_marginal_sum():
    for big_k in range(0, 31):
        total = sum(
            cf.center_sphere_joint_pmf(P75, 0, big_k, big_l)
            for big_l in range(big_k + 1, big_k + 2000)
        )
        assert total == pytest.approx(0.5 * 0.5**big_k, abs=1e-12)


def test_sphere_occupation_values():
    t = cf.sphere_occupation_pmf(P75, 120)
    assert t.prob(1) == pytest.approx(0.375, abs=1e-15)
    assert t.prob(2) == pytest.approx(0.234375, abs=1e-15)
    assert t.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_ball_occupation_values():
    t = cf.ball_occupation_pmf(P75, 160)
    assert t.prob(1) == pytest.approx(0.375, abs=1e-15)
    assert t.prob(2) == pytest.approx(0.09375, abs=1e-15)
    assert t.prob(3) == pytest.approx(0.1640625, abs=1e-15)
    assert t.total_mass() == pytest.approx(1.0, abs=1e-10)


@given(
    st.floats(min_value=0.5 + 2.0**-30, max_value=0.999, exclude_min=True),
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=6),
)
@example(0.5 + 2.0**-29, 50, 1)
@example(0.501, 2000, 6)
@settings(max_examples=60, deadline=None)
def test_tables_and_tails_sum_to_one(p, kmax, z):
    """Listed mass plus tail is 1 to 1e-12 for every table, also near
    p = 1/2, where the tails must not take 1 - base by subtraction."""
    params = make_params(p)
    tables = [cf.sphere_occupation_pmf(params, kmax), cf.ball_occupation_pmf(params, kmax)]
    tables += [cf.local_time_pmf(params, site, kmax) for site in (-z, 0, z)]
    tables += [cf.two_point_occupation_pmf(params, z, side, kmax) for side in ("pos", "neg")]
    for t in tables:
        assert abs(math.fsum(t.mass) + t.tail_bound - 1.0) <= 1e-12


def _to_tail(build, below=1e-18):
    """The table from build(kmax) at the least power-of-two kmax >= 64
    whose tail is below `below`."""
    kmax = 64
    while (table := build(kmax)).tail_bound >= below:
        kmax *= 2
    return table


@pytest.mark.parametrize("p", [0.51, 0.6, 0.75, 0.9, 0.999])
def test_table_means_match_green(p):
    """Each table's mean is the sum of the Green function over its sites,
    less the start's visit to 0."""
    params = make_params(p)

    def green(*sites):
        return sum(cf.green(params, z) for z in sites) - (0 in sites)

    cases = [
        (_to_tail(lambda k: cf.sphere_occupation_pmf(params, k)), green(-1, 1)),
        (_to_tail(lambda k: cf.ball_occupation_pmf(params, k)), green(-1, 0, 1)),
    ]
    for z in range(1, 6):
        for site in (-z, 0, z):
            cases.append((_to_tail(lambda k: cf.local_time_pmf(params, site, k)), green(site)))
        for side, site in (("pos", z), ("neg", -z)):
            table = _to_tail(lambda k: cf.two_point_occupation_pmf(params, z, side, k))
            cases.append((table, green(0, site)))
    for table, mean in cases:
        assert table.mean() == pytest.approx(mean, rel=1e-12, abs=0.0)


def test_pmf_table_validation():
    with pytest.raises(ValidationError):
        cf.PmfTable(support=np.array([0, 1]), mass=np.array([0.5]), tail_bound=0.0)
    with pytest.raises(ValidationError):
        cf.PmfTable(support=np.array([1, 0]), mass=np.array([0.5, 0.5]), tail_bound=0.0)


def _ulps(x, exact):
    return abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("p", ULP_PS)
def test_one_minus_h_power_without_cancellation(p):
    """1 - h^k is taken through expm1 of log h: against exact rationals in
    p, the hit-before-return probability pz and the atom at 0 of the
    visits to z < 0 are within 3 ulps for |z| <= 10, and the ruin
    probability within 4 for levels up to 10, its factor h^(b - a)
    carrying the rounding of h.  1 - h^k itself was 3.8e7 ulps off at
    p = 0.5 + 2^-30, and the ruin probability 9e15 at 0.9999."""
    params = make_params(p)
    P = Fraction(p)
    H = (1 - P) / P
    for z in range(1, 11):
        assert _ulps(cf.excursion_law(params, z).pz, (2 * P - 1) / (1 - H**z)) <= 3, z
        assert _ulps(cf.local_time_pmf(params, -z, 1).mass[0], 1 - H**z) <= 3, z
    for c in range(2, 11):
        for b in range(1, c):
            for a in range(b):
                exact = (H ** (b - a) - H ** (c - a)) / (1 - H ** (c - a))
                assert _ulps(cf.gambler_ruin(params, a, b, c), exact) <= 4, (a, b, c)
