"""Expansion machinery: term grids, closed-form specializations, rescaling."""

import collections
import itertools
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import paretotail
from paretotail import expansion
from paretotail.betamoments import (
    RankSpec,
    gamma_ratio_coeffs,
    joint_beta_moment,
    n_free_factor,
)
from paretotail.errors import InfiniteMomentError, UnsupportedOrderError
from paretotail.expansion import (
    CovarianceReport,
    MomentQuery,
    covariance_expansion,
    joint_cumulant_expansion,
    mean_expansion,
    moment_expansion,
    normalized_moment_expansion,
    third_cumulant_expansion,
)
from paretotail.quantile import TailModel, quantile_series
from paretotail.series import FormalSeries

unit_tails = st.builds(
    TailModel,
    alpha=st.just(1.0),
    beta=st.floats(0.5, 2.5),
    c=st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=5).map(
        lambda rest: FormalSeries([1.2] + rest)
    ),
)


def make_tail(alpha, beta, coeffs):
    return TailModel(alpha, beta, FormalSeries(coeffs))


def test_query_validation():
    tail = make_tail(1.0, 1.0, [1.0, 0.1, 0.1])
    with pytest.raises(InfiniteMomentError):
        MomentQuery(tail, (1,), (2.5,))
    with pytest.raises(ValueError):
        MomentQuery(tail, (1, 2), (1.0, 1.0))
    with pytest.raises(UnsupportedOrderError):
        MomentQuery(tail, (3,), (1.0,), jmax=5)
    # the cumulant grids check the orders before they cut the tail to
    # c_0..c_jmax, which at jmax = -1 would leave no coefficient
    cauchy = make_tail(1.0, 2.0, [(-1.0) ** i / ((2 * i + 1) * math.pi) for i in range(3)])
    for name in ("imax", "jmax"):
        with pytest.raises(UnsupportedOrderError, match=f"{name} must be >= 0, got -1"):
            MomentQuery(tail, (3,), (1.0,), **{name: -1})
        orders = {"imax": 1, "jmax": 1, name: -1}
        with pytest.raises(UnsupportedOrderError, match=f"{name} must be >= 0, got -1"):
            joint_cumulant_expansion(cauchy, (3, 2, 1), **orders)


def test_leading_coefficient_structure():
    # the j = 0 coefficient is c_0^{psibar_1} times the n-free beta factor
    tail = make_tail(2.0, 1.5, [1.7, 0.2, -0.1, 0.05])
    q = MomentQuery(tail, (4, 2), (1.5, 1.0))
    psi = q.psi
    want = tail.c[0] ** q.psibar1 * n_free_factor(q.s, tuple(-p for p in psi))
    assert moment_expansion(q).terms[(0, 0)] == pytest.approx(want, rel=1e-12)


def test_pair_leading_coefficient():
    # unit tail index: raw E X_{n,n-s1} X_{n,n-s2} leads with
    # c_0^2 / ((s_1 - 1) s_2) * n^2
    tail = make_tail(1.0, 1.0, [1.4, 0.3, 0.1])
    for s1, s2 in ((3, 2), (4, 1), (2, 2), (5, 3)):
        q = MomentQuery(tail, (s1, s2), (1.0, 1.0))
        exp = moment_expansion(q)
        assert exp.lead == pytest.approx(2.0)
        want = tail.c[0] ** 2 / ((s1 - 1) * s2)
        assert exp.terms[(0, 0)] == pytest.approx(want, rel=1e-12)


@given(
    unit_tails,
    st.floats(0.3, 3.0),
    st.integers(1, 5),
    st.integers(0, 3),
)
@settings(max_examples=120, deadline=None)
def test_scale_equivariance(tail, lam, s1, gap):
    s2 = max(s1 - gap, 1)
    q = MomentQuery(tail, (s1 + 2, s2), (1.0, 1.0))
    qs = MomentQuery(tail.rescaled(lam), (s1 + 2, s2), (1.0, 1.0))
    raw, raw_s = moment_expansion(q), moment_expansion(qs)
    # raw terms pick up lam^{thetabar_1}; normalized terms are invariant
    for ij, c in raw.terms.items():
        assert raw_s.terms[ij] == pytest.approx(
            lam**2 * c, rel=1e-10, abs=1e-10
        )
    norm = normalized_moment_expansion(q)
    norm_s = normalized_moment_expansion(qs)
    for ij, c in norm.terms.items():
        assert norm_s.terms[ij] == pytest.approx(c, rel=1e-10, abs=1e-10)


def test_pure_pareto_terms_are_exact():
    # single-coefficient tail, theta = alpha: the expansion terminates and
    # reproduces the exact finite-n moment
    tail = make_tail(2.0, 1.0, [3.0, 0.0, 0.0])
    exp = normalized_moment_expansion(MomentQuery(tail, (2,), (2.0,)))
    for n in (5, 12, 40):
        exact = joint_beta_moment(RankSpec(n, (n - 2,)), (-1.0,)) / n
        value, _ = exp.evaluate(n)
        assert value == pytest.approx(exact, rel=1e-13)


def test_orders_past_seven_keep_closing_on_the_exact_moment():
    # theta = alpha / 2 on a pure Pareto tail: E Y = E (1-U)^{-1/2} / n^{1/2}
    # has a nonterminating series in 1/n, so each order added past 7 shows
    tail = make_tail(2.0, 1.0, [3.0, 0.0, 0.0])
    n = 6
    exact = joint_beta_moment(RankSpec(n, (n - 2,)), (-0.5,)) / n**0.5
    errs = []
    for imax in (7, 10, 12):
        value, _ = normalized_moment_expansion(MomentQuery(tail, (2,), (1.0,), imax=imax)).evaluate(n)
        errs.append(abs(value - exact) / exact)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2e-12


@given(unit_tails, st.integers(2, 6))
@settings(max_examples=120, deadline=None)
def test_tie_invariance(tail, s):
    # a tied pair at depth s is the same object as a single power-2 moment
    pair = normalized_moment_expansion(MomentQuery(tail, (s, s), (1, 1)))
    single = normalized_moment_expansion(MomentQuery(tail, (s,), (2.0,)))
    assert pair.lead == pytest.approx(single.lead)
    for ij, c in pair.terms.items():
        assert single.terms[ij] == pytest.approx(c, rel=1e-10, abs=1e-12)


def _product_moment_grid(tail, s):
    return normalized_moment_expansion(MomentQuery(tail, s, (1.0,) * len(s)))


def test_product_moment_leading():
    # alpha = 1: E prod Y_{n,s_i} leads with m0 = prod_i 1/(s_i - k + i)
    tail = make_tail(1.0, 0.5, [1.3, 0.2, -0.1])
    for s in ((4, 2, 1), (5, 3, 2), (3, 2)):
        k = len(s)
        m0 = 1.0
        for i, si in enumerate(s, start=1):
            m0 /= si - k + i
        assert _product_moment_grid(tail, s).terms[(0, 0)] == pytest.approx(m0, rel=1e-12)


def test_product_moment_first_order():
    # the 1/n correction carries a minus sign: m1 = -<k>_2 m0 / 2
    tail = make_tail(1.0, 0.5, [1.3, 0.2, -0.1])
    for s in ((4, 2, 1), (5, 3, 2), (3, 2)):
        k = len(s)
        terms = _product_moment_grid(tail, s).terms
        assert terms[(1, 0)] == pytest.approx(-k * (k - 1) / 2 * terms[(0, 0)], rel=1e-12)


def test_product_moment_tail_term():
    # the n^{-a} coefficient is ma = Ec * sum_j B(s : a I_j - 1bar), with
    # Ec = c_0^{-a-1} c_1 at alpha = 1
    tail = make_tail(1.0, 0.5, [1.3, 0.2, -0.1])
    a = tail.a
    Ec = tail.c[0] ** (-a - 1) * tail.c[1]
    for s in ((4, 2, 1), (5, 3, 2)):
        k = len(s)
        ma = Ec * sum(
            n_free_factor(s, tuple(a - 1 if m == j else -1 for m in range(k))) for j in range(k)
        )
        assert _product_moment_grid(tail, s).terms[(0, 1)] == pytest.approx(ma, rel=1e-12)


def test_product_moment_guards():
    tail = make_tail(1.0, 1.0, [1.0, 0.1])
    with pytest.raises(InfiniteMomentError):
        joint_cumulant_expansion(tail, (2, 1, 1))
    with pytest.raises(ValueError):
        joint_cumulant_expansion(tail, (1, 2))


def test_covariance_matches_term_combination():
    tail = make_tail(1.0, 2.0, [0.9, -0.2, 0.05])
    s1, s2 = 4, 2
    rep = covariance_expansion(tail, s1, s2)
    pair = normalized_moment_expansion(MomentQuery(tail, (s1, s2), (1, 1)))
    m1 = mean_expansion(tail, s1)
    m2 = mean_expansion(tail, s2)
    f0 = pair.terms[(0, 0)] - m1.terms[(0, 0)] * m2.terms[(0, 0)]
    f1 = (
        pair.terms[(1, 0)]
        - m1.terms[(0, 0)] * m2.terms[(1, 0)]
        - m1.terms[(1, 0)] * m2.terms[(0, 0)]
    )
    fa = (
        pair.terms[(0, 1)]
        - m1.terms[(0, 0)] * m2.terms[(0, 1)]
        - m1.terms[(0, 1)] * m2.terms[(0, 0)]
    )
    assert rep.F0 == pytest.approx(f0, rel=1e-12)
    assert rep.F1 == pytest.approx(f1, rel=1e-12)
    assert rep.Ec * rep.F2 == pytest.approx(fa, rel=1e-12)
    assert isinstance(rep, CovarianceReport)
    assert rep.evaluate(100) == pytest.approx(
        rep.F0 + rep.F1 / 100 + rep.Ec * rep.F2 * 100 ** (-rep.a)
    )


def test_covariance_guards():
    tail = make_tail(1.0, 1.0, [1.0, 0.0])
    with pytest.raises(InfiniteMomentError):
        covariance_expansion(tail, 1, 1)
    with pytest.raises(ValueError):
        covariance_expansion(tail, 2, 3)


def test_third_cumulant_pareto_exact():
    # exact tail (1 - F = 1/x): finite-n cumulants of the normalized top
    # block are exactly kappa0 + kappa1/n + 2/n^2 at s = (3, 2, 1)
    tail = make_tail(1.0, 1.0, [1.0, 0.0, 0.0])
    k0, k1, ka = third_cumulant_expansion(3, 2, 1, tail)
    assert k0 == pytest.approx(0.5, rel=1e-12)
    assert k1 == pytest.approx(-13.0 / 6.0, rel=1e-12)
    assert ka == pytest.approx(0.0, abs=1e-12)

    def norm_moment(n, s, th):
        ranks = RankSpec(n, tuple(n - si for si in s))
        return joint_beta_moment(ranks, tuple(-t for t in th)) / n ** sum(th)

    for n in (30, 100):
        m111 = norm_moment(n, (3, 2, 1), (1, 1, 1))
        singles = {s: norm_moment(n, (s,), (1,)) for s in (1, 2, 3)}
        pairs = {
            (3, 2): norm_moment(n, (3, 2), (1, 1)),
            (3, 1): norm_moment(n, (3, 1), (1, 1)),
            (2, 1): norm_moment(n, (2, 1), (1, 1)),
        }
        kappa_n = (
            m111
            - singles[1] * pairs[(3, 2)]
            - singles[2] * pairs[(3, 1)]
            - singles[3] * pairs[(2, 1)]
            + 2 * singles[1] * singles[2] * singles[3]
        )
        assert kappa_n == pytest.approx(
            k0 + k1 / n + 2.0 / n**2, rel=1e-12
        )


def test_third_cumulant_leading_closed_form():
    tail = make_tail(1.0, 1.0, [1.0, 0.0, 0.0])
    for s1, s2, s3 in ((4, 3, 2), (5, 3, 1), (3, 2, 1)):
        k0, _, _ = third_cumulant_expansion(s1, s2, s3, tail)
        D = (s1 * (s1 - 1) * (s1 - 2)) * (s2 * (s2 - 1)) * s3
        assert k0 == pytest.approx(2 * (s1 + s2 - 2) / D, rel=1e-12)


def test_cauchy_type_mean_second_order():
    # alpha = 1, beta = 2 tail of the standard Cauchy: the n^{-2} term of the
    # normalized mean is -pi^2 (s+1)/3
    coeffs = [(-1.0) ** i / ((2 * i + 1) * math.pi) for i in range(5)]
    tail = make_tail(1.0, 2.0, coeffs)
    for s in (1, 2, 4):
        exp = mean_expansion(tail, s)
        assert exp.terms[(0, 0)] == pytest.approx(1.0 / s, rel=1e-12)
        assert exp.terms[(0, 1)] == pytest.approx(
            -math.pi**2 * (s + 1) / 3, rel=1e-12
        )


def test_truncated_and_evaluate():
    tail = make_tail(1.0, 2.0, [1.0, 0.5, 0.25])
    exp = mean_expansion(tail, 2)
    cut = exp.truncated(2.0)
    assert all(i + 2 * j <= 2.0 for (i, j) in cut.terms)
    assert cut.remainder_order <= 3.0
    value, last = cut.evaluate(50)
    full, _ = exp.evaluate(50)
    assert value == pytest.approx(full, abs=10 * last + 1e-6)
    with pytest.raises(ValueError):
        exp.evaluate(0)


def _exact_tail(beta):
    c = [Fraction(6, 5), Fraction(-3, 10), Fraction(1, 20), Fraction(-1, 100)]
    return TailModel(Fraction(1), Fraction(beta), FormalSeries(c))


def test_quantile_series_once_per_distinct_power(monkeypatch):
    calls = []
    original = expansion.quantile_series

    def counting(tail, theta):
        calls.append(theta)
        return original(tail, theta)

    monkeypatch.setattr(expansion, "quantile_series", counting)
    tail = _exact_tail(1)
    one = Fraction(1)
    for theta, want in (
        ((one, one, one), [one]),
        ((one, 2 * one, one), [one, 2 * one]),
        ((one, 1.0, one), [one, 1.0]),  # equal, but each needs its own scalar type
    ):
        calls.clear()
        moment_expansion(MomentQuery(tail, (5, 3, 1), theta, imax=3, jmax=1))
        assert [(type(t), t) for t in calls] == [(type(t), t) for t in want], theta


@pytest.mark.parametrize("exact", [False, True])
def test_cumulants_revert_the_tail_once(monkeypatch, exact):
    calls = []
    original = expansion.quantile_series

    def counting(tail, theta):
        calls.append(theta)
        return original(tail, theta)

    monkeypatch.setattr(expansion, "quantile_series", counting)
    tail = _exact_tail(1)
    if not exact:
        tail = make_tail(1.0, 1.0, [float(c) for c in tail.c])
    third_cumulant_expansion(5, 3, 1, tail)
    assert len(calls) == 1
    calls.clear()
    covariance_expansion(tail, 3, 1)
    assert len(calls) == 1


def test_third_cumulant_computes_each_depth_set_once(monkeypatch):
    calls = []
    original = expansion.normalized_moment_expansion

    def counting(query):
        calls.append(query.s)
        return original(query)

    monkeypatch.setattr(expansion, "normalized_moment_expansion", counting)
    tail = TailModel(Fraction(1), Fraction(1), FormalSeries([Fraction(1), Fraction(0), Fraction(0)]))
    assert third_cumulant_expansion(5, 3, 1, tail) == (Fraction(1, 30), Fraction(-7, 30), 0)
    assert sorted(calls) == [(1,), (3,), (3, 1), (5,), (5, 1), (5, 3), (5, 3, 1)]


def _deep_tail(alpha, beta, order=6):
    """A tail of the given order in the scalar type of alpha."""
    c = [Fraction(6, 5)] + [Fraction((-1) ** i * (2 * i + 1), 10 ** (i + 1)) for i in range(1, order + 1)]
    if isinstance(alpha, float):
        c = [float(x) for x in c]
    return TailModel(alpha, beta, FormalSeries(c))


def _brute_force_cj(query, j):
    """C_j as the plain sum over compositions i_1 + ... + i_k = j of the
    quantile-coefficient product against the public n-free factor."""
    tail = TailModel(query.tail.alpha, query.tail.beta, query.tail.c.truncate(query.jmax))
    C = [quantile_series(tail, t).C for t in query.theta]
    a, psi, k = tail.a, query.psi, query.k
    total = 0
    for comp in itertools.product(range(j + 1), repeat=k):
        if sum(comp) == j:
            prod = 1
            for m in range(k):
                prod = prod * C[m][comp[m]]
            total = total + prod * n_free_factor(query.s, tuple(comp[m] * a - psi[m] for m in range(k)))
    return total


_DEPTHS = {1: (3,), 2: (5, 2), 3: (5, 3, 1), 4: (7, 5, 3, 1)}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "alpha, beta, mixed",
    [
        (Fraction(1), Fraction(1), False),
        (Fraction(1), Fraction(2), False),
        (Fraction(1), Fraction(1), True),
        (Fraction(1), Fraction(2), True),
        (1.5, 1.2, False),
        (2.5, 0.75, True),
    ],
)
def test_grid_matches_the_sum_over_compositions(k, alpha, beta, mixed):
    # the convolution over the depths against the brute-force sum it
    # replaces: equal value and type in Fraction, 1e-13 relative in float
    one = 1 + 0 * alpha
    theta = tuple(one * (2 if mixed and m == 1 else 1) for m in range(k))
    tail = _deep_tail(alpha, beta)
    for jmax in range(7):
        q = MomentQuery(tail, _DEPTHS[k], theta, imax=2, jmax=jmax)
        terms = moment_expansion(q).terms
        for j in range(jmax + 1):
            want = _brute_force_cj(q, j)
            got = terms[(0, j)]  # e_0 = 1, so the i = 0 row is C_j
            es = gamma_ratio_coeffs(j * tail.a - q.psibar1, 2)
            if isinstance(alpha, Fraction):
                assert (type(got), got) == (type(want), want), (jmax, j)
                for i, e in enumerate(es):
                    assert (type(terms[(i, j)]), terms[(i, j)]) == (type(e * want), e * want)
            else:
                assert type(got) is float
                assert got == pytest.approx(want, rel=1e-13, abs=1e-300)
                for i, e in enumerate(es):
                    assert terms[(i, j)] == pytest.approx(e * want, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("alpha", [Fraction(1), 1.0])
def test_grid_of_no_depths_is_one(alpha):
    # the empty product: E 1 = 1 at every n
    grid = moment_expansion(MomentQuery(_deep_tail(alpha, alpha), (), (), imax=2, jmax=2))
    assert grid.lead == 0 and len(grid.terms) == 9
    assert all(c == (ij == (0, 0)) for ij, c in grid.terms.items()), grid.terms


@pytest.mark.parametrize(
    "alpha, s, theta",
    [
        (Fraction(1), (1,), (Fraction(2),)),
        (Fraction(1), (3, 0), (Fraction(1), Fraction(1))),
        (1.0, (4, 2, 0), (1.0, 1.0, 1.0)),
        (1.0, (6, 4, 3, 0), (1.0, 1.0, 1.0, 1.0)),
    ],
)
def test_grid_refuses_what_the_composition_sum_refuses(alpha, s, theta):
    tail = _deep_tail(alpha, alpha)
    psi = tuple(t / alpha for t in theta)
    with pytest.raises(InfiniteMomentError):
        n_free_factor(s, tuple(-p for p in psi))
    with pytest.raises(InfiniteMomentError):
        moment_expansion(MomentQuery(tail, s, theta, imax=2, jmax=3))


@pytest.mark.parametrize("exact", [False, True])
def test_grid_evaluates_each_gap_factor_once(monkeypatch, exact):
    # one gap factor per depth and suffix sum Q <= jmax; summing over
    # compositions took one per depth of each of the C(jmax + k, k)
    # compositions, 840 here
    calls = []
    for name in ("gamma_ratio", "beta_ratio"):
        original = getattr(expansion, name)
        monkeypatch.setattr(expansion, name, lambda *args, _f=original: calls.append(args) or _f(*args))
    k, jmax = 4, 6
    alpha = Fraction(1) if exact else 1.0
    tail = _deep_tail(alpha, 2 * alpha)
    moment_expansion(MomentQuery(tail, (7, 5, 3, 1), (alpha,) * k, imax=2, jmax=jmax))
    assert len(calls) == k * (jmax + 1)


def test_cumulant_computes_each_gamma_ratio_argument_once(monkeypatch):
    calls = collections.Counter()
    original = expansion.gamma_ratio_coeffs

    def counting(x, imax):
        calls[x] += 1
        return original(x, imax)

    monkeypatch.setattr(expansion, "gamma_ratio_coeffs", counting)
    tail = _exact_tail(2)  # a = 2, so j*a - k at (j, k) = (1, 3) and (0, 1) meet
    joint_cumulant_expansion(tail, (5, 3, 1), 1, 1)
    assert set(calls) == {j * 2 - k for j in (0, 1) for k in (1, 2, 3)} == {-3, -2, -1, 0, 1}
    assert max(calls.values()) == 1


@pytest.mark.parametrize("alpha", [2.0, 2.5])
def test_third_cumulant_any_alpha(alpha):
    # pure Pareto tail at alpha != 1: the exact finite-n third cumulant of
    # the normalized top three differs from kappa0 + kappa1/n by O(n^-2)
    tail = make_tail(alpha, 1.0, [1.0, 0.0])
    s = (5, 3, 1)
    k0, k1, ka = third_cumulant_expansion(*s, tail)
    assert ka == 0

    def M(n, *depths):
        ranks = RankSpec(n, tuple(n - d for d in depths))
        return joint_beta_moment(ranks, (-1 / alpha,) * len(depths)) / n ** (len(depths) / alpha)

    scaled = []
    for n in (100, 200, 400, 800, 1600):
        a, b, c = s
        kappa_n = (
            M(n, a, b, c)
            - M(n, a) * M(n, b, c)
            - M(n, b) * M(n, a, c)
            - M(n, c) * M(n, a, b)
            + 2 * M(n, a) * M(n, b) * M(n, c)
        )
        scaled.append((kappa_n - (k0 + k1 / n)) * n**2)
    assert max(map(abs, scaled)) <= 1.2 * min(map(abs, scaled)), scaled


def test_grid_algebra_needs_a_shared_gap():
    m1 = mean_expansion(make_tail(1.0, 1.0, [1.0, 0.2, 0.1]), 2)
    m2 = mean_expansion(make_tail(1.0, 2.0, [1.0, 0.2, 0.1]), 2)
    for op in (lambda: m1 + m2, lambda: m1 - m2, lambda: m1 * m2):
        with pytest.raises(ValueError):
            op()
    raw = moment_expansion(MomentQuery(make_tail(1.0, 1.0, [1.0, 0.2, 0.1]), (2,), (1.0,)))
    assert (raw * raw).lead == 2 * raw.lead
    with pytest.raises(ValueError):  # sums need equal leads
        raw + raw * raw


def test_second_cumulant_is_pair_minus_mean_product():
    tail = make_tail(1.5, 2.0, [1.2, -0.3, 0.05])
    s1, s2 = 5, 2
    got = joint_cumulant_expansion(tail, (s1, s2), imax=2, jmax=2)
    pair = normalized_moment_expansion(MomentQuery(tail, (s1, s2), (1, 1), imax=2, jmax=2)).terms
    m1 = mean_expansion(tail, s1, imax=2, jmax=2).terms
    m2 = mean_expansion(tail, s2, imax=2, jmax=2).terms
    assert set(got.terms) == set(pair)
    for (i, j), c in pair.items():
        prod = sum(
            m1[(i1, j1)] * m2[(i - i1, j - j1)] for i1 in range(i + 1) for j1 in range(j + 1)
        )
        assert got.terms[(i, j)] == pytest.approx(c - prod, rel=1e-12, abs=1e-15), (i, j)
    assert got.lead == 0
    assert got.remainder_order == pytest.approx(min(3, 3 * tail.a))


def test_float_tail_gives_float_displays():
    for tail in (
        make_tail(1.0, 1.0, [1.2, -0.3, 0.05]),
        make_tail(1.0, 2.0, [0.9, -0.2, 0.05]),
        make_tail(2.0, 1.0, [1.5, 0.3, -0.2]),
    ):
        rep = covariance_expansion(tail, 3, 1)
        numbers = [getattr(rep, f) for f in ("F0", "F1", "F2", "Ec", "B20", "Da", "a", "a0")]
        numbers += third_cumulant_expansion(5, 3, 1, tail)
        assert [type(x) for x in numbers] == [float] * len(numbers), (tail, numbers)


def test_exact_pipeline_needs_no_sympy():
    # a Fraction tail with integral moment exponents stays in Fraction
    # arithmetic end to end, also with int alpha, beta and theta (whose
    # ratios are Fractions, not int / int floats); sympy is blocked in a
    # fresh interpreter
    src = str(Path(paretotail.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "sys.modules['sympy'] = None\n"
        "from fractions import Fraction\n"
        "from paretotail import FormalSeries, TailModel, MomentQuery, covariance_expansion, "
        "gamma_ratio_coeffs, moment_expansion, quantile_series, third_cumulant_expansion\n"
        "out = []\n"
        "for one in (Fraction(1), 1):\n"
        "  for beta in (1, 2):\n"
        "    tail = TailModel(one, one * beta, FormalSeries("
        "[Fraction(6, 5), Fraction(-3, 10), Fraction(1, 20), Fraction(-1, 100)]))\n"
        "    q = quantile_series(tail, one)\n"
        "    out += [q.psi, q.a, *q.C]\n"
        "    for s in ((2,), (3, 1), (5, 3, 1)):\n"
        "        e = moment_expansion(MomentQuery(tail, s, (one,) * len(s)))\n"
        "        out += [e.lead, e.a, e.remainder_order, *e.terms.values()]\n"
        "    cov = covariance_expansion(tail, 3, 1)\n"
        "    out += [cov.F0, cov.F1, cov.F2, cov.Ec, cov.B20, cov.Da, cov.a, cov.a0]\n"
        "    out += third_cumulant_expansion(5, 3, 1, tail)\n"
        "out += gamma_ratio_coeffs(Fraction(-2), 7) + gamma_ratio_coeffs(Fraction(3), 7)\n"
        "print(len(out), [repr(x) for x in out if type(x) is not Fraction])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    count, not_fractions = proc.stdout.split(" ", 1)
    assert int(count) > 100 and not_fractions.strip() == "[]", proc.stdout
