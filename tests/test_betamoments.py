"""Exact uniform order-statistic moments and the gamma-ratio series."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paretotail.betamoments import (
    RankSpec,
    beta_ratio,
    gamma_ratio,
    gamma_ratio_coeffs,
    joint_beta_moment,
    merge_ties,
    n_free_factor,
    suffix_sums,
)
from paretotail.errors import InfiniteMomentError, UnsupportedOrderError


def test_rank_spec_validation():
    RankSpec(5, (2, 4))
    with pytest.raises(ValueError):
        RankSpec(5, (4, 2))
    with pytest.raises(ValueError):
        RankSpec(5, (0, 2))
    with pytest.raises(ValueError):
        RankSpec(0, ())
    assert RankSpec(5, (2, 4)).s == (3, 1)


def test_suffix_sums():
    assert suffix_sums((1, 2, 3)) == (6, 5, 3)
    assert suffix_sums(()) == ()


def test_gamma_ratio_cases():
    assert gamma_ratio(3, 2) == 12  # Gamma(5)/Gamma(3)
    assert gamma_ratio(5, -2) == pytest.approx(1 / 12)
    # exact scalar types flow through unchanged
    assert gamma_ratio(Fraction(5), -2) == Fraction(1, 12)
    assert gamma_ratio(2.0, 0.5) == pytest.approx(
        math.gamma(2.5) / math.gamma(2.0)
    )
    with pytest.raises(InfiniteMomentError):
        gamma_ratio(1, -1)


def test_float_exponents_stay_float():
    # an integral float exponent takes the product form, but in float
    for got, want in (
        (n_free_factor((5, 3, 1), (-1.0,) * 3), Fraction(1, 6)),
        (gamma_ratio(11, 2.0), 132),
        (gamma_ratio(11, -2.0), Fraction(1, 90)),
        (beta_ratio(2, 4, -2.0), Fraction(10, 3)),
    ):
        assert type(got) is float and got == pytest.approx(float(want), rel=1e-15)
    assert type(n_free_factor((5, 3, 1), (-1,) * 3)) is Fraction
    assert type(n_free_factor((5, 3, 1), (Fraction(-1),) * 3)) is Fraction


def test_beta_ratio_examples():
    # theta-th moments of Beta(beta, alpha) variables
    assert beta_ratio(1, 2, 1) == pytest.approx(2 / 3)
    assert beta_ratio(2, 3, -1) == pytest.approx(2.0)
    assert beta_ratio(1, 2, Fraction(1)) == Fraction(2, 3)
    with pytest.raises(InfiniteMomentError):
        beta_ratio(1, 1, -1)
    with pytest.raises(ValueError):
        beta_ratio(-1, 2, 1)


def test_beta_ratio_product_vs_gamma_form():
    # the integer fast path and the gamma route agree
    got = beta_ratio(3, 4, 0.7)
    want = (
        math.gamma(4.7)
        / math.gamma(4.0)
        / (math.gamma(7.7) / math.gamma(7.0))
    )
    assert got == pytest.approx(want, rel=1e-12)


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.floats(-0.9, 4.0),
)
@settings(max_examples=200, deadline=None)
def test_product_vs_gamma_form_random(alpha, beta, theta):
    got = beta_ratio(alpha, beta, theta)
    want = math.exp(
        math.lgamma(beta + theta)
        - math.lgamma(beta)
        - math.lgamma(alpha + beta + theta)
        + math.lgamma(alpha + beta)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_merge_ties():
    assert merge_ties((1, 1, 3), (2, 5, 1)) == ((1, 3), (7, 1))
    assert merge_ties((2, 3), (1, 1)) == ((2, 3), (1, 1))


def test_joint_moment_small_case():
    # n = 2: E (1 - U_{2,1})(1 - U_{2,2}) = E (1-U)(1-V) over the joint
    # order-statistic density = 2/3 * 1/... direct: integral gives 5/12? use
    # the factorized form checked by brute-force quadrature below instead;
    # here pin the single-rank case E (1 - U_{2,2}) = 1/3.
    assert joint_beta_moment(RankSpec(2, (2,)), (Fraction(1),)) == Fraction(
        1, 3
    )
    got = joint_beta_moment(RankSpec(2, (1, 2)), (1, 1))
    # E (1-U_{2,1})(1-U_{2,2}) = 2 int_0^1 int_0^u (1-u)(1-v) dv du = 1/4
    assert got == pytest.approx(0.25)


def test_joint_moment_brute_force_n3():
    # E (1-U_{3,2})^2 (1-U_{3,3}) by direct double integration:
    # density of (U_{3,2}, U_{3,3}) is 6 u1 on 0 < u1 < u2 < 1
    from scipy.integrate import dblquad

    want, _ = dblquad(
        lambda u2, u1: 6 * u1 * (1 - u1) ** 2 * (1 - u2),
        0,
        1,
        lambda u1: u1,
        lambda u1: 1,
    )
    got = joint_beta_moment(RankSpec(3, (2, 3)), (2, 1))
    assert got == pytest.approx(want, rel=1e-10)


def test_joint_moment_tie_merge_consistency():
    tied = joint_beta_moment(RankSpec(6, (4, 4)), (1.0, 0.5))
    merged = joint_beta_moment(RankSpec(6, (4,)), (1.5,))
    assert tied == pytest.approx(merged, rel=1e-14)


def test_joint_moment_infinite_guard():
    with pytest.raises(InfiniteMomentError):
        joint_beta_moment(RankSpec(5, (5,)), (-1.0,))


@given(
    st.integers(5, 40),
    st.lists(st.integers(0, 4), min_size=1, max_size=3),
    st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_factorization_matches_direct(n, depths, theta):
    s = tuple(sorted(depths, reverse=True))
    th = tuple(theta[: len(s)])
    ranks = RankSpec(n, tuple(n - si for si in s))
    direct = joint_beta_moment(ranks, th)
    tbar1 = sum(th)
    nfree = n_free_factor(s, th)
    via = nfree / gamma_ratio(n + 1, tbar1)
    assert via == pytest.approx(direct, rel=1e-12)


def test_n_free_factor_validation():
    with pytest.raises(ValueError):
        n_free_factor((1, 2), (1, 1))
    with pytest.raises(ValueError):
        n_free_factor((2,), (1, 1))
    with pytest.raises(InfiniteMomentError):
        n_free_factor((0,), (-1.5,))


def test_moment_monotone_in_rank():
    # deeper order statistics are smaller, so (1-U) moments grow with depth
    vals = [
        joint_beta_moment(RankSpec(10, (r,)), (1.0,)) for r in (10, 9, 8)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_e_polynomials_exact():
    # expand prod_{j=1}^{p} 1/(1 + j/n) in powers of 1/n and compare with the
    # generated e_i(theta) at theta = p, at orders 7 and 12
    for order in (7, 12):
        for p in (1, 2, 3, 5, 8, 12):
            # series inversion of prod (1 + j x) with x = 1/n
            prod = [Fraction(1)] + [Fraction(0)] * order
            for j in range(1, p + 1):
                new = [Fraction(0)] * (order + 1)
                for i in range(order + 1):
                    new[i] += prod[i]
                    if i < order:
                        new[i + 1] += j * prod[i]
                prod = new
            inv = [Fraction(1)] + [Fraction(0)] * order
            for i in range(1, order + 1):
                inv[i] = -sum(prod[m] * inv[i - m] for m in range(1, i + 1))
            got = gamma_ratio_coeffs(Fraction(p), order)
            assert [Fraction(g) for g in got] == inv


def test_e_polynomials_float_track_exact():
    # the float recurrence stays within rounding of the exact one at order
    # 12, across theta in [-6, 6]
    for k in range(-24, 24):
        theta = Fraction(k, 4) + Fraction(1, 7)
        exact = gamma_ratio_coeffs(theta, 12)
        approx = gamma_ratio_coeffs(float(theta), 12)
        assert all(type(x) is float for x in approx)
        scale = max(abs(e) for e in exact)
        assert max(abs(Fraction(x) - e) for x, e in zip(approx, exact)) <= 1e-13 * scale


def test_e_polynomials_vanish_at_minus_one():
    # n!/Gamma(n) = n exactly, so every correction term vanishes at theta = -1
    es = gamma_ratio_coeffs(Fraction(-1), 7)
    assert es[0] == 1
    assert all(e == 0 for e in es[1:])


def test_e_polynomials_float_vanish_exactly_at_negative_integers():
    # n!/Gamma(n+1-p) is a polynomial in n, so e_k(-p) = 0 for k >= p; a float
    # theta gives exact zeros there too, or an expansion would carry a
    # spurious last term
    for p in range(1, 13):
        es = gamma_ratio_coeffs(-float(p), 12)
        assert all(e == 0.0 and type(e) is float for e in es[p:])
        exact = gamma_ratio_coeffs(Fraction(-p), 12)
        assert es[:p] == pytest.approx([float(e) for e in exact[:p]], rel=1e-12)


def _truncated_series(n, theta, imax):
    """n^{-theta} sum_{i <= imax} e_i n^{-i}, the series of n!/Gamma(n+1+theta)."""
    return n ** (-theta) * sum(e * n ** (-i) for i, e in enumerate(gamma_ratio_coeffs(theta, imax)))


def test_gamma_ratio_eval_agreement():
    assert _truncated_series(50, 0.5, 7) == pytest.approx(1 / gamma_ratio(51, 0.5), rel=1e-13)
    # integer theta: truncation error is the genuine n^{-8} remainder
    assert _truncated_series(20, 1, 7) == pytest.approx(Fraction(1) / gamma_ratio(21, 1), rel=1e-10)
    with pytest.raises(InfiniteMomentError):  # n + 1 + theta <= 0 is a pole
        gamma_ratio(3, -4)
    with pytest.raises(UnsupportedOrderError):
        gamma_ratio_coeffs(1.0, -1)


def test_gamma_ratio_eval_exact_side_stays_exact():
    # 10!/Gamma(13) = 1 / gamma_ratio(11, 2) = 1/132: an int theta gives an
    # int ratio, a Fraction theta keeps 1 / ratio a Fraction, and a float
    # theta keeps the float
    assert (type(gamma_ratio(11, 2)), gamma_ratio(11, 2)) == (int, 132)
    exact = 1 / gamma_ratio(11, Fraction(2))
    assert type(exact) is Fraction and exact == Fraction(1, 132)
    exact = 1 / gamma_ratio(11, -2)
    assert type(exact) is Fraction and exact == Fraction(90)
    exact = 1 / gamma_ratio(11, 2.0)
    assert type(exact) is float and exact == pytest.approx(1 / 132, rel=1e-15)
