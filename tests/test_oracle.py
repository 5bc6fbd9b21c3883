"""Quadrature and Monte Carlo oracles against independently known values."""

import math
import os
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from paretotail import catalog, oracle
from paretotail.betamoments import RankSpec, joint_beta_moment
from paretotail.catalog import DistributionSpec, make_rng, parse_distribution, tail_of
from paretotail.errors import CapabilityError, InfiniteMomentError, ParetoTailError
from paretotail.oracle import (
    OracleResult,
    RateFit,
    _gauss_jacobi,
    convergence_rate_probe,
    mc_top_order_stats,
    quad_joint_moment,
    quad_moment,
)


# (epsabs, epsrel) that the quadrature oracle asks over one depth and over two
_TOL = {1: (1e-10, 1e-11), 2: (1e-8, 1e-9)}


def _adaptive(dist, n, s, theta):
    return oracle._adaptive(dist, n, s, theta, *_TOL[len(s)])


def test_quad_moment_pareto_exact():
    # E X_{n,n-s}^theta for the unit Pareto is the exact beta-ratio value
    dist = parse_distribution("pareto(1)")
    for n, s, theta in ((5, 2, 1.0), (20, 3, 2.0), (12, 1, 0.5)):
        res = quad_moment(dist, n, s, theta)
        want = joint_beta_moment(RankSpec(n, (n - s,)), (-theta,))
        assert res.value == pytest.approx(want, rel=1e-9)
        assert res.method == "gauss_jacobi"
        assert res.cost > 0


def test_quad_joint_vs_exact_beta():
    # with the identity quantile X = (1 - U)^{-1} the 2-D oracle must hit
    # the closed-form joint beta moment
    dist = parse_distribution("pareto(1)")
    res = quad_joint_moment(dist, 10, 3, 1, 1.0, 1.0)
    want = joint_beta_moment(RankSpec(10, (7, 9)), (-1.0, -1.0))
    assert res.value == pytest.approx(want, rel=1e-8)
    # tie delegates to the 1-D path
    res_tie = quad_joint_moment(dist, 10, 3, 3, 1.0, 1.0)
    want_tie = joint_beta_moment(RankSpec(10, (7,)), (-2.0,))
    assert res_tie.value == pytest.approx(want_tie, rel=1e-8)
    with pytest.raises(ValueError):
        quad_joint_moment(dist, 10, 1, 3, 1.0, 1.0)


def test_quad_refuses_infinite_moment():
    dist = parse_distribution("pareto(1)")
    with pytest.raises(InfiniteMomentError):
        quad_moment(dist, 10, 1, 2.0)
    with pytest.raises(InfiniteMomentError):
        quad_joint_moment(dist, 10, 1, 0, 1.0, 1.0)


def test_quad_moment_f_dist_second_moment_closed_form():
    # f_dist(2,6) has X = 3 (V^{-1/3} - 1) with V = 1 - U, so
    # E X_{n,n}^2 = 9 (E V^{-2/3} - 2 E V^{-1/3} + 1) with V ~ Beta(1, n) and
    # E V^{-c} = n Gamma(1 - c) Gamma(n) / Gamma(n + 1 - c); the integrand
    # needs the quantile down to v ~ 1e-300
    def ev(n, c):
        return n * math.exp(math.lgamma(1 - c) + math.lgamma(n) - math.lgamma(n + 1 - c))

    dist = parse_distribution("f_dist(2,6)")
    for n in (50, 200):
        want = 9.0 * (ev(n, 2 / 3) - 2.0 * ev(n, 1 / 3) + 1.0)
        res = quad_moment(dist, n, 0, 2.0)
        assert res.value == pytest.approx(want, rel=1e-10)
        # u = v^(1/3) makes the integrand 9 (1 - u)^2: the rule, not the
        # fallback, meets the closed form
        assert res.method == "gauss_jacobi"
    assert 9.0 * (ev(50, 2 / 3) - 2.0 * ev(50, 1 / 3) + 1.0) == pytest.approx(
        246.963313346, rel=1e-11
    )


@pytest.mark.filterwarnings("ignore")
def test_quad_refuses_non_finite_integral():
    # the adaptive path's endpoint substitution has p = 200: y^200 underflows
    # x to 0 and the integrand to inf * 0, though the moment is finite
    with pytest.raises(ParetoTailError, match="nan"):
        _adaptive(parse_distribution("pareto"), 50, (0,), (0.99,))


def test_quad_moment_near_finiteness_boundary():
    # E X_{50,50}^0.99 = 50 Gamma(0.01) Gamma(50) / Gamma(50.01): the Jacobi
    # weight takes v^-0.99 exactly, where the adaptive path underflows
    want = 50 * math.exp(math.lgamma(0.01) + math.lgamma(50) - math.lgamma(50.01))
    res = quad_moment(parse_distribution("pareto"), 50, 0, 0.99)
    assert res.method == "gauss_jacobi"
    assert res.value == pytest.approx(want, rel=1e-13)
    assert want == pytest.approx(4781.3679987, rel=1e-10)


QUANTILE_LAWS = (
    "pareto",
    "pareto(1.5)",
    "cauchy",
    "student_t(3)",
    "student_t(4)",
    "f_dist(2,6)",
    "f_dist(3,5)",
    "frechet(1)",
    "frechet(2.5)",
)


@pytest.mark.parametrize("n", (20, 200, 1000))
@pytest.mark.parametrize("law", QUANTILE_LAWS)
def test_quad_moment_against_adaptive_referee(law, n):
    # the public oracle (Gauss-Jacobi where a rung agrees) against the
    # adaptive path at every depth where the mean is finite
    dist = parse_distribution(law)
    alpha = tail_of(dist, 0).alpha
    for s in (0, 1, 3):
        if s + 1 - 1 / alpha <= 0:
            continue
        res = quad_moment(dist, n, s, 1.0)
        ref = _adaptive(dist, n, (s,), (1.0,))
        assert res.value == pytest.approx(ref.value, rel=1e-10), s
        assert res.method in ("gauss_jacobi", "quad1d")
        assert 0 <= res.abserr <= 1e-10 * abs(res.value) + 1e-10
    for s1, s2 in ((2, 1), (3, 1), (5, 2)):
        res = quad_joint_moment(dist, n, s1, s2, 1.0, 1.0)
        ref = _adaptive(dist, n, (s1, s2), (1.0, 1.0))
        assert res.value == pytest.approx(ref.value, rel=1e-10), (s1, s2)
        assert res.method in ("gauss_jacobi", "quad2d")
        assert 0 <= res.abserr <= 1e-8 * abs(res.value) + 1e-8


def test_quad_gauss_jacobi_covers_the_integer_gap_laws():
    # with an integer gap the integrand is smooth in v and the rule always
    # confirms itself; only fractional gaps at large n fall back
    for law in ("pareto(1.5)", "cauchy", "frechet(1)", "frechet(2.5)"):
        dist = parse_distribution(law)
        for n in (20, 200, 1000):
            assert quad_moment(dist, n, 1, 1.0).method == "gauss_jacobi"
            assert quad_joint_moment(dist, n, 5, 2, 1.0, 1.0).method == "gauss_jacobi"


def test_quad_falls_back_to_adaptive():
    # at n = 5 the weight (1-v)^(n-s-1) leaves the Cauchy quantile's pole
    # at v = 1, the lower tail, in the integrand, so no rung agrees and the
    # adaptive value comes back under its own name, with both costs counted
    dist = parse_distribution("cauchy")
    res = quad_moment(dist, 5, 1, 1.0)
    ref = _adaptive(dist, 5, (1,), (1.0,))
    assert res.method == "quad1d"
    assert res.value == ref.value and res.abserr == ref.abserr > 0
    assert res.cost > ref.cost
    res = quad_joint_moment(dist, 5, 2, 1, 1.0, 1.0)
    ref = _adaptive(dist, 5, (2, 1), (1.0, 1.0))
    assert res.method == "quad2d"
    assert res.value == ref.value and res.abserr == ref.abserr > 0
    assert res.cost > ref.cost


def _frechet_mean(alpha, n, s):
    # E X_{n,n-s} for F(x) = exp(-x^-alpha): expand (1 - F)^s in the order
    # statistic's density; E max of m draws is m^(1/alpha) Gamma(1 - 1/alpha)
    total = sum(
        math.comb(s, j) * (-1) ** j * (n - s + j) ** (1 / alpha - 1) for j in range(s + 1)
    )
    coef = math.factorial(n) / (math.factorial(s) * math.factorial(n - s - 1))
    return coef * math.gamma(1 - 1 / alpha) * total


@pytest.mark.parametrize("n", (3, 5))
def test_adaptive_fallback_against_frechet_finite_sum(n):
    dist = parse_distribution("frechet(2.5)")
    for s in range(n):
        want = _frechet_mean(2.5, n, s)
        res = _adaptive(dist, n, (s,), (1.0,))
        assert res.method == "quad1d"
        assert res.value == pytest.approx(want, rel=1e-11, abs=1e-10), s
    assert _frechet_mean(2.5, 3, 0) == pytest.approx(
        3 ** 0.4 * math.gamma(0.6), rel=1e-15
    )


def _fallback_or_none(dist, n, s):
    # the fallback's value and tolerance, or None for an infinite moment
    try:
        oracle._require_moment(dist, n, s, (1.0,) * len(s))
    except InfiniteMomentError:
        return None
    value = _adaptive(dist, n, s, (1.0,) * len(s)).value
    epsabs, epsrel = _TOL[len(s)]
    return value, max(epsabs, epsrel * abs(value))


@pytest.mark.parametrize("law", ("cauchy", "student_t(3)", "student_t(7)"))
def test_adaptive_fallback_reflects_symmetric_laws(law):
    # X -> -X maps the depth s to n - 1 - s with the sign flipped, and the
    # pair (s1, s2) to (n - 1 - s2, n - 1 - s1) with the product kept; the
    # median of 3 is 0
    dist = parse_distribution(law)
    median = _fallback_or_none(dist, 3, (1,))
    assert abs(median[0]) <= median[1]
    checked = 0
    for n in (3, 5):
        for s in range(n // 2):
            here = _fallback_or_none(dist, n, (s,))
            there = _fallback_or_none(dist, n, (n - 1 - s,))
            if here and there:
                assert abs(here[0] + there[0]) <= here[1] + there[1], (n, s)
                checked += 1
    here, there = _fallback_or_none(dist, 5, (2, 1)), _fallback_or_none(dist, 5, (3, 2))
    assert abs(here[0] - there[0]) <= here[1] + there[1]
    assert checked == (1 if law == "cauchy" else 3)


def test_gauss_jacobi_three_depths():
    # the k-generic rule on the unit Pareto, where the integrand is 1 and
    # the rule reproduces the product of beta ratios
    res, nodes = _gauss_jacobi(
        parse_distribution("pareto"), 30, (5, 3, 1), (1.0, 0.5, 0.25), 1e-10, 1e-11
    )
    want = joint_beta_moment(RankSpec(30, (25, 27, 29)), (-1, -0.5, -0.25))
    assert res.method == "gauss_jacobi"
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.cost == nodes == 16**3 + 24**3
    # ties merge: depths (3, 3, 1) are the pair (3, 1) with powers summed
    tied, _ = _gauss_jacobi(
        parse_distribution("pareto"), 30, (3, 3, 1), (0.5, 0.5, 0.25), 1e-10, 1e-11
    )
    want = joint_beta_moment(RankSpec(30, (27, 29)), (-1, -0.25))
    assert tied.value == pytest.approx(want, rel=1e-12)


def test_quad_three_depths_have_no_adaptive_fallback():
    # at n = 5 no rung confirms three depths of student_t(3), whose quantile
    # has its lower tail pole at v = 1, and the adaptive fallback integrates
    # one or two
    with pytest.raises(ParetoTailError, match="no Gauss-Jacobi rule"):
        oracle._quad(parse_distribution("student_t(3)"), 5, (3, 2, 1), (1.0, 1.0, 1.0))


def test_gauss_jacobi_ladder_skips_rungs_past_the_node_cap(monkeypatch):
    # no rung confirms student_t(3) at n = 5 over three depths, so every
    # rung runs, except those whose tensor passes _GJ_MAX_NODES
    sizes = []
    rule = oracle._gauss_jacobi_rule

    def counting(*args):
        sizes.append(args[-1])
        return rule(*args)

    monkeypatch.setattr(oracle, "_gauss_jacobi_rule", counting)
    t3 = parse_distribution("student_t(3)")
    res, nodes = _gauss_jacobi(t3, 5, (3, 2, 1), (1.0, 1.0, 1.0), 1e-8, 1e-9)
    assert res is None
    assert sizes == [16, 24, 32, 48, 64, 96] and nodes == sum(m**3 for m in sizes)
    sizes.clear()
    monkeypatch.setattr(oracle, "_GJ_MAX_NODES", 48**3)
    res, nodes = _gauss_jacobi(t3, 5, (3, 2, 1), (1.0, 1.0, 1.0), 1e-8, 1e-9)
    assert res is None and sizes == [16, 24, 32, 48]


def _outcome(call):
    try:
        return call()
    except ParetoTailError as exc:
        return repr(exc)


@pytest.mark.parametrize("law", ("student_t(3)", "f_dist(2,6)", "cauchy", "frechet(1)"))
def test_quad_cached_rules_give_the_cold_results(law):
    # every rule comes out of the per-process cache: a call on a cold cache
    # and the same call again on the warm one agree in every field
    dist = parse_distribution(law)
    for n in (5, 50, 200):
        for call in (
            lambda: quad_moment(dist, n, 1, 1.0),
            lambda: quad_joint_moment(dist, n, 2, 1, 1.0, 1.0),
            lambda: oracle._quad(dist, n, (3, 2, 1), (1.0, 1.0, 1.0)),
        ):
            oracle._jacobi_coordinate.cache_clear()
            cold = _outcome(call)
            assert oracle._jacobi_coordinate.cache_info().currsize > 0
            assert _outcome(call) == cold


def test_cached_jacobi_rules_are_read_only_and_bounded():
    quad_moment(parse_distribution("cauchy"), 50, 1, 1.0)  # loads numpy
    for q in (1, 3):
        rule = oracle._jacobi_coordinate(16, 49, 0.5, q)
        assert oracle._jacobi_coordinate(16, 49, 0.5, q) is rule
        x, w, _ = rule
        for arr in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
    assert oracle._jacobi_coordinate.cache_info().maxsize is not None


def jacobi_rule(m, a, b):
    if oracle.np is None:
        oracle._load_numpy()
    return oracle._jacobi_rule(m, a, b)


@pytest.mark.parametrize(
    "m, a, b", [(16, 0, 0.0), (24, 0, -0.5), (16, 3, -0.6), (48, 49, 0.5), (96, 900, 0.0)]
)
def test_jacobi_rule_matches_scipy_where_its_weights_are_finite(m, a, b):
    from scipy.special import roots_jacobi

    x, w = jacobi_rule(m, a, b)
    xs, ws = roots_jacobi(m, a, b)
    assert np.abs(x - xs).max() <= 1e-14
    assert np.abs(w - ws / ws.sum()).max() <= 1e-10 * w.max()
    assert w.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("a", (1_500, 20_000))
@pytest.mark.parametrize("m", (16, 96))
def test_jacobi_rule_stays_finite_past_scipys_overflow(a, m):
    # scipy's rule scales its weights by 2^(a+b+1) B(a+1, b+1), which
    # overflows past a + b of about 1020; these weights sum to 1 instead,
    # and the rule is exact for (1+x)^2, the Beta moment
    # 4 (b+1) (b+2) / ((a+b+2) (a+b+3))
    for b in (0.0, 0.5, 3.0):
        x, w = jacobi_rule(m, a, b)
        assert np.isfinite(w).all() and w.sum() == pytest.approx(1.0, abs=1e-13)
        want = 4 * (b + 1) * (b + 2) / ((a + b + 2) * (a + b + 3))
        assert w @ (1 + x) ** 2 == pytest.approx(want, rel=1e-11), b


def test_jacobi_rule_against_mpmath():
    # a 40-digit integral of exp(x) cos(3x) against (1-x)^3 (1+x)^-0.6,
    # divided by the weight's mass; 96 nodes integrate it to rounding
    mpmath = pytest.importorskip("mpmath")
    a, b = 3, mpmath.mpf(-0.6)
    with mpmath.workdps(40):
        weight = lambda x: (1 - x) ** a * (1 + x) ** b
        mass = mpmath.quad(weight, [-1, 0, 1])
        want = mpmath.quad(lambda x: weight(x) * mpmath.exp(x) * mpmath.cos(3 * x), [-1, 0, 1])
        want = float(want / mass)
    x, w = jacobi_rule(96, 3, -0.6)
    assert abs(w @ (np.exp(x) * np.cos(3 * x)) - want) <= 1e-15


def test_quad_refuses_lower_tail_infinite_moments():
    # the lowest of the order statistics needs (n - s) alpha above the
    # powers at or above its depth: here n - s = 1 draw against theta 1
    cauchy = parse_distribution("cauchy")
    with pytest.raises(InfiniteMomentError, match="lower tail"):
        quad_moment(cauchy, 2, 1, 1.0)
    with pytest.raises(InfiniteMomentError, match="lower tail"):
        quad_moment(cauchy, 3, 2, 1.0)
    with pytest.raises(InfiniteMomentError, match="lower tail"):
        quad_joint_moment(cauchy, 3, 2, 1, 1.0, 1.0)
    with pytest.raises(InfiniteMomentError, match="lower tail"):
        quad_joint_moment(cauchy, 4, 3, 1, 1.0, 1.0)
    with pytest.raises(InfiniteMomentError, match="lower tail"):
        mc_top_order_stats(cauchy, 3, [((2,), (1.0,))], reps=10_000, seed=1)
    # finite ones still integrate: the median of three Cauchy draws has mean 0
    t3 = parse_distribution("student_t(3)")
    assert math.isfinite(quad_moment(t3, 2, 1, 1.0).value)
    assert math.isfinite(quad_moment(t3, 3, 2, 2.0).value)
    assert abs(quad_moment(cauchy, 3, 1, 1.0).value) < 1e-12


def test_gauss_jacobi_confirms_past_n_minus_s_1020():
    # the outer Jacobi exponent n - s - 1 is 2998, past the ~1020 where
    # scipy.special.roots_jacobi's weights overflow
    dist = parse_distribution("cauchy")
    res = quad_moment(dist, 3000, 1, 1.0)
    ref = _adaptive(dist, 3000, (1,), (1.0,))
    assert res.method == "gauss_jacobi"
    epsabs, epsrel = _TOL[1]
    assert abs(res.value - ref.value) <= max(epsabs, epsrel * abs(ref.value))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_gauss_jacobi_stops_at_first_non_finite_rule(monkeypatch):
    # an integrand that overflows stays non-finite with more nodes, so the
    # first non-finite rule ends the ladder; the smallest v of the 16-node
    # rule is 1.4e-3 over one depth and 1.7e-5 over two, of the 24-node
    # rule 8.1e-4 and 4.8e-6
    sizes = []
    rule = oracle._gauss_jacobi_rule

    def counting(*args):
        sizes.append(args[-1])
        return rule(*args)

    monkeypatch.setattr(oracle, "_gauss_jacobi_rule", counting)
    dist = parse_distribution("pareto")
    for s, threshold, rules in (
        ((1,), 0.1, [16]),
        ((1,), 1e-3, [16, 24]),
        ((3, 1), 0.1, [16]),
        ((3, 1), 1e-5, [16, 24]),
    ):
        sizes.clear()
        with monkeypatch.context() as patch:
            overflowing_below(threshold, patch)
            res, nodes = _gauss_jacobi(dist, 50, s, (1.0,) * len(s), *_TOL[len(s)])
        assert res is None, (s, threshold)
        assert sizes == rules and nodes == sum(m ** len(s) for m in rules)


def test_quad_refuses_complex_powers_on_two_sided_laws():
    with pytest.raises(CapabilityError):
        quad_moment(parse_distribution("cauchy"), 50, 0, 0.9)
    with pytest.raises(CapabilityError):
        quad_moment(parse_distribution("student_t(3)"), 50, 0, 2.5)
    with pytest.raises(CapabilityError):
        quad_joint_moment(parse_distribution("cauchy"), 50, 2, 1, 0.5, 1.0)
    # integer powers and one-sided laws still integrate, and so do tied
    # fractional powers that sum to an integer: X^0.5 X^0.5 is X
    assert quad_moment(parse_distribution("student_t(3)"), 50, 0, 2.0).value > 0
    assert quad_moment(parse_distribution("frechet(2)"), 50, 0, 0.9).value > 0
    cauchy = parse_distribution("cauchy")
    tied = quad_joint_moment(cauchy, 50, 3, 3, 0.5, 0.5)
    assert tied == quad_moment(cauchy, 50, 3, 1.0)


def test_mc_shares_the_quadrature_guard():
    # fractional powers of a two-sided law, depths outside the sample and
    # increasing depths are refused before any draw
    for law in ("student_t(3)", "cauchy"):
        with pytest.raises(CapabilityError):
            mc_top_order_stats(parse_distribution(law), 5, [((4,), (1.5,))], 10_000, 1)
    for law in ("pareto", "cauchy"):
        with pytest.raises(ValueError, match="depth s=5 too large for n=3"):
            mc_top_order_stats(parse_distribution(law), 3, [((5,), (1.0,))], 10_000, 1)
    with pytest.raises(ValueError, match="nonincreasing"):
        mc_top_order_stats(parse_distribution("pareto"), 50, [((1, 3), (1.0, 1.0))], 10_000, 1)


def test_mc_uniform_top_block():
    # moments of v_s = 1 - U_{n,n-s} have exact values (via the unit Frechet
    # trick: use pareto with theta = -1 powers of X = v^{-1}): v_s is the
    # (s+1)-th smallest of n uniforms, so E v_s = (s+1)/(n+1) and, for t < s,
    # E v_t v_s = (t+1)(s+2)/((n+1)(n+2)), also at n = 1 and with v_s near 1
    dist = parse_distribution("pareto(1)")
    for n in (1, 5, 100, 200):
        depths = range(min(n, 5))
        specs = [((s,), (-1.0,)) for s in depths]
        specs += [((s, t), (-1.0, -1.0)) for s in depths for t in range(s)]
        results = mc_top_order_stats(dist, n, specs, reps=200_000, seed=5)
        for (s_vec, _), res in zip(specs, results):
            if len(s_vec) == 1:
                want = (s_vec[0] + 1) / (n + 1)
            else:
                s, t = s_vec
                want = (t + 1) * (s + 2) / ((n + 1) * (n + 2))
            assert abs(res.value - want) <= 4 * res.std_error, (n, s_vec)
            assert res.std_error > 0
            assert res.method == "mc"


@pytest.mark.parametrize("n, s", [(1, 0), (5, 4), (200, 3), (10_000, 3)])
def test_mc_top_block_matches_uniform_spacings(n, s):
    # the former construction of the top block, v_s = S_s / (S_s + G) with
    # S_s the running sum of s + 1 exponential spacings and G ~ Gamma(n - s),
    # is a referee in law: a two-sample Kolmogorov-Smirnov test per depth
    # against Renyi's form, both through the same quantile
    from scipy import stats

    dist = parse_distribution("pareto(1)")
    x = oracle._per_batch(dist, n, range(s + 1), 20_000, 8, 2, lambda top: top).reshape(-1, s + 1)
    rng = make_rng(9)
    tops = np.cumsum(rng.standard_exponential((20_000, s + 1)), axis=1)
    v = tops / (tops[:, -1] + rng.standard_gamma(n - s, 20_000))[:, None]
    y = catalog.upper_quantile(dist, v)
    for c in range(s + 1):
        assert stats.ks_2samp(x[:, c], y[:, c]).pvalue > 1e-3, c


def test_mc_stream_draws_one_exponential_block(monkeypatch):
    # Renyi's form needs only the s_max + 1 spacings of each row: one
    # standard_exponential call per stream and no gamma draw for the rest of
    # the sample; 100,000 reps in 25 batches are 9 streams of 3 batches
    calls = []
    rng = oracle.make_rng

    class Recording:
        def __init__(self, gen):
            self.gen = gen

        def __getattr__(self, name):
            calls.append(name)
            return getattr(self.gen, name)

    monkeypatch.setattr(oracle, "make_rng", lambda seed, stream: Recording(rng(seed, stream)))
    specs = [((4,), (0.5,)), ((4, 1), (0.5, 0.5))]
    for law in ("pareto(2)", "stable(0.5,-0.5)"):
        calls.clear()
        mc_top_order_stats(parse_distribution(law), 50, specs, reps=100_000, seed=3)
        assert calls == ["standard_exponential"] * 9, law


def test_mc_matches_quadrature():
    dist = parse_distribution("cauchy")
    n = 50
    res_mc = mc_top_order_stats(
        dist, n, [((2,), (1.0,)), ((3, 1), (1.0, 1.0))], reps=400_000, seed=9
    )
    res_q1 = quad_moment(dist, n, 2, 1.0)
    res_q2 = quad_joint_moment(dist, n, 3, 1, 1.0, 1.0)
    assert abs(res_mc[0].value - res_q1.value) <= 4 * res_mc[0].std_error
    assert abs(res_mc[1].value - res_q2.value) <= 4 * res_mc[1].std_error


def test_mc_direct_sampling_path():
    # the one-sided stable law at alpha = 1/2 is the Levy law, whose quantile
    # 1/(4 erfinv(v)^2), independent of the catalog's table, makes E X_{n,n-s}
    # a one-dimensional integral against the beta law of v_s = 1 - U_{n,n-s}
    from scipy import integrate, special, stats

    dist = DistributionSpec("stable", (0.5, -0.5))
    s = 4
    for n in (50, 10_000):
        v = stats.beta(s + 1, n - s)
        want, err = integrate.quad(
            lambda x: v.pdf(x) / (4.0 * special.erfinv(x) ** 2),
            0.0, 1.0, points=v.ppf([1e-9, 0.5, 1 - 1e-9]), limit=200,
        )
        assert err <= 1e-8 * want
        (res,) = mc_top_order_stats(dist, n, [((s,), (1.0,))], reps=50_000, seed=3)
        assert abs(res.value - want) <= 4 * res.std_error, n
        assert res.std_error < 0.05 * want


def overflowing_below(threshold, monkeypatch):
    """Make the oracles' quantile return inf wherever v < threshold, as a
    quantile that overflows a float does."""
    quantile = oracle.upper_quantile

    def overflowing(dist, v):
        return np.where(np.less(v, threshold), np.inf, quantile(dist, v))

    monkeypatch.setattr(oracle, "upper_quantile", overflowing)


def test_mc_refuses_non_finite_draws(monkeypatch):
    dist = parse_distribution("stable(0.99,-0.99)")
    overflowing_below(1e-3, monkeypatch)
    with pytest.raises(ParetoTailError, match=r"stable\(0.99,-0.99\) at n=50 .* batch"):
        mc_top_order_stats(dist, 50, [((1,), (0.2,))], reps=20_000, seed=3)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_quadrature_refuses_a_quantile_that_overflows():
    # at alpha = 0.01, Q(v) ~ v^-100 overflows a float below v ~ 1e-3
    dist = parse_distribution("stable(0.01,-0.01)")
    assert math.isinf(catalog.upper_quantile(dist, 1e-4))
    with pytest.raises(ParetoTailError, match="overflow"):
        quad_moment(dist, 50, 0, 0.005)
    # at n = 20 the 16-node rule stays finite and the 24-node one does not:
    # their infinite difference confirms no rule
    with pytest.raises(ParetoTailError, match="overflow"):
        quad_moment(dist, 20, 0, 0.005)


def mc_by_batch(dist, n, specs, reps, seed, batches=25, stream_rows=None, top=None):
    """(means, standard errors) of mc_top_order_stats, recomputed from one
    top-block draw per stream: stream c holds ceil(stream_rows / bsize)
    consecutive whole batches (``oracle._MC_STREAM_ROWS`` by default) and
    draws them as ``top(make_rng(seed, c), rows, smax)``, by default
    ``spacings_top``, whose rows are split into the batches."""
    bsize = reps // batches
    group = -(-(stream_rows or oracle._MC_STREAM_ROWS) // bsize)
    smax = max(max(s) for s, _ in specs)
    top = top or spacings_top(dist, n)

    sums = np.zeros((batches, len(specs)))
    for c, first in enumerate(range(0, batches, group)):
        held = min(group, batches - first)
        x = top(make_rng(seed, c), held * bsize, smax)
        for i in range(held):
            xb = x[i * bsize : (i + 1) * bsize]
            if not np.all(np.isfinite(xb)):
                return None
            for j, (s, t) in enumerate(specs):
                prod = np.ones(bsize)
                for si, ti in zip(s, t):
                    prod = prod * xb[:, si] ** ti
                sums[first + i, j] = prod.mean()
    means = [sums[:, j].mean() for j in range(len(specs))]
    ses = [sums[:, j].std(ddof=1) / math.sqrt(batches) for j in range(len(specs))]
    return means, ses


def spacings_top(dist, n):
    """The top block of n draws from ``dist`` at every depth up to smax, one
    row per draw, through the quantile of Renyi's form v_s = 1 - U_{n,n-s} =
    1 - exp(-T_s), T_s = E_0 / n + ... + E_s / (n - s), from depth-major
    exponential spacings E."""

    def top(rng, rows, smax):
        steps = rng.standard_exponential((smax + 1, rows)) / (n - np.arange(smax + 1.0))[:, None]
        v = -np.expm1(-np.cumsum(steps, axis=0))
        return catalog.upper_quantile(dist, v).T

    return top


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [1, 5, 200])
def test_mc_stable_matches_spacings_per_batch(alpha, n):
    # 400-row batches, all 25 in one stream, reduced whole, against a
    # reduction batch by batch; near alpha = 1 every draw is finite
    dist = DistributionSpec("stable", (alpha, -alpha))
    specs = [((0,), (0.2,))]
    if n > 1:
        specs.append(((min(n - 1, 4), 1), (0.2, 0.2)))
    want = mc_by_batch(dist, n, specs, 10_000, 17)
    got = mc_top_order_stats(dist, n, specs, reps=10_000, seed=17)
    for res, mean, se in zip(got, *want):
        assert math.isfinite(res.value)
        assert res.value == mean and res.std_error == se


@pytest.mark.parametrize("law", ["pareto(2)", "stable(0.5,-0.5)"])
def test_mc_large_batches_draw_one_stream_each(law):
    # batches of _MC_STREAM_ROWS rows or more keep the values of one stream
    # per batch, (seed, b) for batch b
    dist = parse_distribution(law)
    specs = [((3,), (0.5,)), ((3, 1), (0.5, 0.5))]
    top = spacings_top(dist, 50)
    for reps, batches in ((250_000, 25), (200_000, 20), (20_000, 2)):
        assert reps // batches >= oracle._MC_STREAM_ROWS
        got = mc_top_order_stats(dist, 50, specs, reps, 11, batches)
        want = mc_by_batch(dist, 50, specs, reps, 11, batches, stream_rows=1, top=top)
        for res, mean, se in zip(got, *want):
            assert res.value == mean and res.std_error == se


@pytest.mark.parametrize("law", ["pareto(2)", "stable(0.5,-0.5)"])
def test_mc_small_batches_group_into_streams(monkeypatch, law):
    # a stream holds ceil(_MC_STREAM_ROWS / bsize) whole batches, drawn in
    # one sampler call from make_rng(seed, stream)
    dist = parse_distribution(law)
    specs = [((2,), (0.5,))]
    top = spacings_top(dist, 50)
    streams = []
    rng = oracle.make_rng

    def recording(seed, stream):
        streams.append(stream)
        return rng(seed, stream)

    monkeypatch.setattr(oracle, "make_rng", recording)
    for reps, batches in ((100_000, 25), (100_000, 20), (200_000, 25), (30_000, 10_000)):
        bsize = reps // batches
        group = math.ceil(oracle._MC_STREAM_ROWS / bsize)
        assert 1 < group < batches
        streams.clear()
        got = mc_top_order_stats(dist, 50, specs, reps, 4, batches)
        assert sorted(streams) == list(range(math.ceil(batches / group)))
        want = mc_by_batch(dist, 50, specs, reps, 4, batches, top=top)
        assert got[0].value == want[0][0] and got[0].std_error == want[1][0]
        # one stream per batch draws other values
        apart = mc_by_batch(dist, 50, specs, reps, 4, batches, stream_rows=1, top=top)
        assert got[0].value != apart[0][0]


def test_mc_builds_the_kanter_table_once(monkeypatch):
    # the stable quantile's table, solved from Kanter's integral, is built
    # once per alpha and process, whatever the threads, reps, n or powers of
    # the calls that read it
    solves = []
    solve = catalog._kanter_log_x

    def counting(alpha, target, upper):
        solves.append(alpha)
        return solve(alpha, target, upper)

    monkeypatch.setattr(catalog, "_kanter_log_x", counting)
    monkeypatch.setattr(oracle, "_worker_count", lambda streams, nbytes: streams)
    catalog._stable_table.cache_clear()
    try:
        dist = parse_distribution("stable(0.7,-0.7)")
        mc_top_order_stats(dist, 50, [((4,), (1.0,))], reps=10_000, seed=2)
        mc_top_order_stats(dist, 60, [((4,), (2.0,)), ((4, 1), (1.0, 1.0))], 20_000, 3)
        assert solves == [0.7]
        mc_top_order_stats(parse_distribution("stable(0.6,-0.6)"), 50, [((4,), (1.0,))], 10_000, 2)
        assert solves == [0.7, 0.6]
    finally:
        catalog._stable_table.cache_clear()


@pytest.mark.parametrize("law", ["pareto(2)", "student_t(3)", "stable(0.7,-0.7)"])
def test_mc_results_do_not_depend_on_the_thread_count(monkeypatch, law):
    dist = parse_distribution(law)
    specs = [((3,), (1.0,)), ((3, 1), (1.0, 1.0))]
    runs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)  # the threads trade the lock often
        for count in (1, 2, 25):
            monkeypatch.setattr(oracle, "_worker_count", lambda streams, nbytes: count)
            threads = threading.active_count()
            runs.append(mc_top_order_stats(dist, 50, specs, reps=100_000, seed=5))
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("count", [1, 2, 25])
def test_mc_names_the_lowest_failing_batch(monkeypatch, count):
    # at seed 2 with the quantile overflowing below v = 1e-5, the top blocks
    # of batches 7, 8 and 15 fail: the last two batches of stream 2 and the
    # middle one of stream 5, three 4000-row batches to a stream; stream 2
    # is held back, so that on several threads stream 5 fails first
    dist = parse_distribution("stable(0.5,-0.5)")
    group = math.ceil(oracle._MC_STREAM_ROWS / 4000)
    assert group == 3
    failing = []
    for c, first in enumerate(range(0, 25, group)):
        held = min(group, 25 - first)
        # pareto(1) maps v to 1/v
        x = spacings_top(parse_distribution("pareto(1)"), 1)(make_rng(2, c), held * 4000, 0)
        failing += [first + i for i in range(held) if x[i * 4000 : (i + 1) * 4000].max() > 1e5]
    assert failing == [7, 8, 15]
    overflowing_below(1e-5, monkeypatch)
    rng = oracle.make_rng

    def late_stream_2(seed, stream):
        if stream == 2:
            time.sleep(0.05)
        return rng(seed, stream)

    monkeypatch.setattr(oracle, "make_rng", late_stream_2)
    monkeypatch.setattr(oracle, "_worker_count", lambda streams, nbytes: count)
    with pytest.raises(ParetoTailError, match=r"in batch 7:"):
        mc_top_order_stats(dist, 1, [((0,), (0.2,))], reps=100_000, seed=2)


def test_mc_small_call_draws_one_stream_on_the_callers_thread(monkeypatch):
    # 10000 reps make one stream: one generator, and no helper thread even
    # on four CPUs, where 20000 reps in two streams start one
    dist = parse_distribution("stable(0.5,-0.5)")
    streams = []
    started = []
    rng = oracle.make_rng

    def recording(seed, stream):
        streams.append(stream)
        return rng(seed, stream)

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(oracle, "make_rng", recording)
    monkeypatch.setattr(threading, "Thread", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    mc_top_order_stats(dist, 50, [((4,), (0.2,))], reps=10_000, seed=1)
    assert streams == [0] and started == []
    mc_top_order_stats(dist, 50, [((4,), (0.2,))], reps=20_000, seed=1)
    assert sorted(streams) == [0, 0, 1] and len(started) == 1
    for t in started:
        t.join(timeout=10)
        assert not t.is_alive()


_GRID_CASES = [
    ("pareto", (20, 40, 80), [((3,), (1.0,))], 100_000),
    ("stable(0.5,-0.5)", (50, 100, 200), [((4,), (1.0,))], 100_000),
    ("student_t(3)", (50, 100, 200), [((1,), (1.0,))], 100_000),
    ("pareto(2)", (5, 10, 20), [(b, (1.0,) * len(b)) for b in oracle._depth_blocks((3, 1))], 100_000),
    ("pareto(4)", (50, 100, 200), [(b, (1.0,) * len(b)) for b in oracle._depth_blocks((7, 5, 3, 1))], 20_000),
]


@pytest.mark.parametrize("law, ns, specs, reps", _GRID_CASES)
def test_mc_grid_matches_calls_per_n(monkeypatch, law, ns, specs, reps):
    # one draw per stream serves every n of a grid, bit for bit as a call
    # per n does, on any number of threads
    dist = parse_distribution(law)
    want = [mc_top_order_stats(dist, n, specs, reps, 3) for n in ns]
    for count in (1, 2, 25):
        monkeypatch.setattr(oracle, "_worker_count", lambda streams, nbytes: count)
        threads = threading.active_count()
        grid = dict.fromkeys(ns)
        assert [mc_top_order_stats(dist, n, specs, reps, 3, grid=grid) for n in ns] == want
        assert threading.active_count() == threads


def test_mc_grid_draws_each_stream_once(monkeypatch):
    # 100,000 reps in 25 batches are 9 streams: the first call of a grid
    # draws each once, from make_rng(seed, c), and the later calls draw
    # nothing and start no thread
    calls = []
    started = []
    rng = oracle.make_rng

    class Recording:
        def __init__(self, stream, gen):
            self.stream, self.gen = stream, gen

        def __getattr__(self, name):
            calls.append((self.stream, name))
            return getattr(self.gen, name)

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(oracle, "make_rng", lambda seed, stream: Recording(stream, rng(seed, stream)))
    monkeypatch.setattr(threading, "Thread", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    dist = parse_distribution("pareto")
    grid = dict.fromkeys((20, 40, 80))
    mc_top_order_stats(dist, 20, [((3,), (1.0,))], 100_000, 1, grid=grid)
    assert sorted(calls) == [(c, "standard_exponential") for c in range(9)]
    assert len(started) == 3
    for t in started:
        t.join(timeout=10)
        assert not t.is_alive()
    calls.clear()
    started.clear()
    for n in (40, 80, 20):
        mc_top_order_stats(dist, n, [((3,), (1.0,))], 100_000, 1, grid=grid)
    assert calls == [] and started == []


def test_mc_grid_refuses_another_requests_results(monkeypatch):
    dist = parse_distribution("pareto")
    spec = [((3,), (1.0,))]
    grid = dict.fromkeys((20, 40, 80))
    mc_top_order_stats(dist, 20, spec, 20_000, 1, grid=grid)

    def no_draw(seed, stream):
        raise AssertionError("drew for a grid that another request filled")

    monkeypatch.setattr(oracle, "make_rng", no_draw)
    for args in (
        (dist, 40, spec, 20_000, 2),
        (dist, 40, spec, 30_000, 1),
        (dist, 40, [((2,), (1.0,))], 20_000, 1),
        (parse_distribution("pareto(2)"), 40, spec, 20_000, 1),
    ):
        with pytest.raises(ValueError, match="another request"):
            mc_top_order_stats(*args, grid=grid)
    with pytest.raises(ValueError, match="another request"):
        mc_top_order_stats(dist, 40, spec, 20_000, 1, 20, grid=grid)
    with pytest.raises(ValueError, match="not an n of the grid"):
        mc_top_order_stats(dist, 30, spec, 20_000, 1, grid=grid)
    # the request that filled it is served, as often as it asks
    for n in (40, 40, 80):
        assert mc_top_order_stats(dist, n, spec, 20_000, 1, grid=grid)[0].cost == 20_000


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ns, n, batch", [((1, 6, 16), 1, 7), ((6, 1), 6, 6), ((16, 1), 16, 0)])
@pytest.mark.parametrize("count", [1, 2, 25])
def test_mc_grid_names_the_first_error_of_the_calls_per_n(monkeypatch, count, ns, n, batch):
    # as in test_mc_names_the_lowest_failing_batch, where batches 7, 8 and
    # 15 fail at n = 1; at n = 6 batches 6, 7, 8, 11, 15, 17, 21 and 23 fail,
    # and at n = 16 batches 0 and 1 too.  A grid raises the error that a
    # call per n raises first, at its first failing n, and not the lowest
    # failing batch of any n; a stream that fails at a later n leaves the
    # other streams to be drawn at the earlier ones
    dist = parse_distribution("stable(0.5,-0.5)")
    spec = [((0,), (0.2,))]
    overflowing_below(1e-5, monkeypatch)
    rng = oracle.make_rng

    def late_stream_2(seed, stream):
        if stream == 2:
            time.sleep(0.05)
        return rng(seed, stream)

    monkeypatch.setattr(oracle, "make_rng", late_stream_2)
    monkeypatch.setattr(oracle, "_worker_count", lambda streams, nbytes: count)
    with pytest.raises(ParetoTailError) as per_n:
        for m in ns:
            mc_top_order_stats(dist, m, spec, reps=100_000, seed=2)
    grid = dict.fromkeys(ns)
    with pytest.raises(ParetoTailError, match=rf"at n={n} has non-finite values in batch {batch}:") as got:
        mc_top_order_stats(dist, ns[0], spec, reps=100_000, seed=2, grid=grid)
    assert str(got.value) == str(per_n.value)


def test_mc_warns_when_its_standard_error_means_nothing():
    # at pareto depths (3, 2, 1) the product has a finite mean and its
    # square does not (suffix sums 2 tbar = (6, 4, 2) against (s + 1) alpha
    # = 4 at depth 3), so the batch standard error means nothing
    dist = parse_distribution("pareto")
    with pytest.warns(RuntimeWarning, match=r"pareto at n=400, s=\(3, 2, 1\).*infinite mean"):
        (res,) = mc_top_order_stats(dist, 400, [((3, 2, 1), (1.0, 1.0, 1.0))], 10_000, 1)
    assert math.isfinite(res.value)


@pytest.mark.filterwarnings("error")
def test_mc_with_a_finite_variance_warns_nothing():
    mc_top_order_stats(parse_distribution("pareto(2)"), 400, [((3, 1), (1.0, 1.0))], 10_000, 1)
    grid = dict.fromkeys((20, 40))
    mc_top_order_stats(parse_distribution("pareto"), 20, [((3,), (1.0,))], 10_000, 1, grid=grid)


def test_mc_thread_count():
    cpus = len(os.sched_getaffinity(0))
    assert oracle._worker_count(25, 1000) == min(cpus, 25)
    assert oracle._worker_count(2, 1000) == min(cpus, 2)
    # a batch whose arrays alone pass the byte budget runs on the caller's
    # thread, two that fit it together may share it
    assert oracle._worker_count(25, oracle._MC_WORK_BYTES + 1) == 1
    assert oracle._worker_count(25, oracle._MC_WORK_BYTES // 2) == min(cpus, 2)
    # a count of threads, whatever the type of the bytes
    for nbytes in (1000, 1000.5, np.float64(oracle._MC_WORK_BYTES / 2.5)):
        assert type(oracle._worker_count(25, nbytes)) is int


def test_mc_stable_streams_share_the_budget_on_four_cpus(monkeypatch):
    # three 40000-row streams at n = 50 on the spacings path, which declares
    # its bytes as an int: on four CPUs they run on three threads, with the
    # one-thread result
    dist = parse_distribution("stable(0.5,-0.5)")
    args = (dist, 50, [4], 120_000, 1, 3, lambda x: x.sum(axis=1))
    threads = []
    count = oracle._worker_count

    def counted(streams, nbytes):
        threads.append(count(streams, nbytes))
        return threads[-1]

    monkeypatch.setattr(oracle, "_worker_count", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    sums = oracle._per_batch(*args)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert sums.tolist() == oracle._per_batch(*args).tolist()
    assert threads == [3, 1]


def declared_and_peak(monkeypatch, dist, n, depths):
    """(declared bytes, tracemalloc peak) of ``_per_batch`` on one
    thread over two batches of 20000 rows, a stream each, drawn one after
    the other."""
    import tracemalloc

    declared = []

    def one_thread(streams, nbytes):
        declared.append(nbytes)
        return 1

    monkeypatch.setattr(oracle, "_worker_count", one_thread)
    args = (dist, n, depths, 40_000, 1, 2, lambda x: x.sum(axis=1))
    oracle._per_batch(*args)  # numpy's allocations on first use
    tracemalloc.start()
    try:
        sums = oracle._per_batch(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shape(sums)[-2:] == (2, len(depths))
    return declared[-1], peak


@pytest.mark.parametrize(
    "law, depths", [("pareto(2)", [3]), ("student_t(3)", [0, 1]), ("f_dist(3,5)", [1, 2, 4])]
)
def test_mc_spacings_path_declares_its_peak_bytes(monkeypatch, law, depths):
    # a grid of n holds the spacings while its earlier n are mapped, and
    # declares so
    for n in (50, (50, 100, 200)):
        declared, peak = declared_and_peak(monkeypatch, parse_distribution(law), n, depths)
        assert 0 < peak <= declared, n


@pytest.mark.parametrize("n, depths", [(50, [4]), (200, [1, 4]), ((50, 100, 200), [4])])
def test_mc_stable_path_declares_its_peak_bytes(monkeypatch, n, depths):
    # the stable sampler's declared bytes bound its peak, and by no more
    # than a quarter
    dist = parse_distribution("stable(0.5,-0.5)")
    declared, peak = declared_and_peak(monkeypatch, dist, n, depths)
    assert 0 < peak <= declared <= 1.25 * peak


def test_mc_refuses_batches_with_no_rows():
    dist = parse_distribution("pareto(2)")
    with pytest.raises(ValueError, match="no rows"):
        mc_top_order_stats(dist, 50, [((1,), (1.0,))], 10_000, 1, batches=10_001)
    (res,) = mc_top_order_stats(dist, 50, [((1,), (1.0,))], 10_000, 1, batches=10_000)
    assert math.isfinite(res.value) and res.cost == 10_000


def test_oracles_refuse_non_integer_or_negative_depths():
    # a fractional n or depth names no order statistic, and neither does a
    # negative depth: each is a ValueError, not a moment or an infinite one
    dist = parse_distribution("pareto")
    for args, name in (((20, 1.5, 1.0), "depths"), ((20, -1, 1.0), "depths"), ((20.0, 1, 1.0), "n")):
        with pytest.raises(ValueError, match=name):
            quad_moment(dist, *args)
    with pytest.raises(ValueError, match="depths"):
        quad_joint_moment(dist, 20, 2.5, 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="depths"):
        mc_top_order_stats(dist, 20, [((1, -1), (1.0, 1.0))], 10_000, 1)
    assert quad_moment(dist, np.int64(20), np.int64(1), 1.0) == quad_moment(dist, 20, 1, 1.0)


def test_mc_refuses_bad_arguments_before_any_draw(monkeypatch):
    def no_draw(seed, stream):
        raise AssertionError("drew before refusing the arguments")

    monkeypatch.setattr(oracle, "make_rng", no_draw)
    dist = parse_distribution("pareto(2)")
    spec = [((1,), (1.0,))]
    for args, kwargs, name in (
        ((dist, 50, [], 10_000, 1), {}, "specs"),
        ((dist, 50, spec, 10_000.0, 1), {}, "reps"),
        ((dist, 50, spec, 10_000, 1), {"batches": 25.0}, "batches"),
        ((dist, 50, spec, 10_000, -1), {}, "seed"),
        ((dist, 50, spec, 10_000, 1.5), {}, "seed"),
    ):
        with pytest.raises(ValueError, match=name):
            mc_top_order_stats(*args, **kwargs)


@pytest.mark.parametrize("depths", [[2, 1], [1, 1], [-1, 2], [0, 50], []])
def test_mc_sampler_refuses_depths_it_would_leave_unset(depths):
    # the sampler writes a depth's column only when its loop reaches that
    # depth: unsorted, tied, negative or out-of-sample depths are refused
    with pytest.raises(ValueError, match="strictly increasing"):
        oracle._per_batch(parse_distribution("pareto(2)"), 50, depths, 10_000, 1, 2, lambda x: x)


def test_mc_guard_refuses_near_boundary():
    dist = parse_distribution("pareto(1)")
    with pytest.raises(InfiniteMomentError):
        mc_top_order_stats(dist, 50, [((1,), (1.97,))], reps=20_000, seed=1)
    with pytest.raises(ValueError):
        mc_top_order_stats(dist, 50, [((1,), (1.0,))], reps=100, seed=1)
    for batches in (0, 1):
        with pytest.raises(ValueError, match="batches"):
            mc_top_order_stats(dist, 50, [((1,), (1.0,))], 20_000, 1, batches)


def test_mc_determinism():
    dist = parse_distribution("frechet(2)")
    a = mc_top_order_stats(dist, 40, [((1,), (1.0,))], reps=20_000, seed=42)
    b = mc_top_order_stats(dist, 40, [((1,), (1.0,))], reps=20_000, seed=42)
    c = mc_top_order_stats(dist, 40, [((1,), (1.0,))], reps=20_000, seed=43)
    assert a[0].value == b[0].value
    assert a[0].value != c[0].value


def test_joint_cumulant_recursion():
    rng = np.random.default_rng(7)
    s = (5, 3, 2, 1, 0)
    m = {b: rng.uniform(0.5, 2.0) for b in oracle._depth_blocks(s)}
    assert oracle._depth_blocks((3, 2, 1)) == [
        (3, 2, 1), (2, 1), (3, 1), (1,), (3, 2), (2,), (3,)
    ]
    assert oracle._joint_cumulant(s[:1], m.__getitem__) == m[(5,)]
    m1, m2, m3 = m[(5,)], m[(3,)], m[(2,)]
    kappa2 = m[(5, 3)] - m1 * m2
    kappa3 = (
        m[(5, 3, 2)] - m1 * m[(3, 2)] - m2 * m[(5, 2)] - m3 * m[(5, 3)]
        + 2.0 * m1 * m2 * m3
    )
    assert oracle._joint_cumulant(s[:2], m.__getitem__) == pytest.approx(kappa2, rel=1e-14)
    assert oracle._joint_cumulant(s[:3], m.__getitem__) == pytest.approx(kappa3, rel=1e-14)
    # moments that factor over a split of the depths (two independent
    # groups) have a zero joint cumulant, whatever the split
    for k in range(2, 6):
        for split in range(1, 2 ** k - 1):
            left = {x for i, x in enumerate(s[:k]) if split >> i & 1}

            def factored(b):
                inner = tuple(x for x in b if x in left)
                outer = tuple(x for x in b if x not in left)
                return m.get(inner, 1.0) * m.get(outer, 1.0)

            assert abs(oracle._joint_cumulant(s[:k], factored)) < 1e-12


def test_rate_probe():
    n = [50, 100, 200, 400]
    diffs = [2.0 * x ** (-1.5) for x in n]
    fit = convergence_rate_probe(n, diffs)
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    assert not fit.saturated
    sat = convergence_rate_probe(n, [1e-12, 1e-12, 1e-13, 1e-14])
    assert sat.saturated and math.isnan(sat.slope)
    with pytest.raises(ValueError):
        convergence_rate_probe([10, 20], [0.1, 0.2])
    with pytest.raises(ValueError, match="floor >= 0"):
        convergence_rate_probe(n, [0.0, 1e-3, 1e-4, 1e-5], floor=-1.0)


@pytest.mark.parametrize(
    "n_grid, diffs, match",
    [
        ([50, 100, 200], [1e-3, 1e-4], "one diff per n"),
        ([50, 100], [1e-3, 1e-4, 1e-5], "one diff per n"),
        ([50, 50, 50], [1e-3, 1e-4, 1e-5], "3 distinct"),
        ([50, 100, 100, 50], [1e-3, 1e-4, 1e-4, 1e-3], "3 distinct"),
        ([0, 100, 200], [1e-3, 1e-4, 1e-5], "n > 0"),
        ([50, 100, 200], [1e-3, math.nan, 1e-5], "finite diffs"),
        ([50, 100, 200], [1e-3, 1e-4, math.inf], "finite diffs"),
    ],
)
def test_rate_probe_refuses_a_grid_it_cannot_fit(n_grid, diffs, match):
    with pytest.raises(ValueError, match=match):
        convergence_rate_probe(n_grid, diffs)


def test_rate_probe_is_the_least_squares_line():
    rng = np.random.default_rng(18)
    for points in range(3, 9):
        for _ in range(20):
            n = np.sort(rng.choice(np.arange(10, 5000), points, replace=False))
            diffs = rng.uniform(0.5, 2.0, points) * n ** rng.uniform(-3.0, 0.5)
            fit = convergence_rate_probe(list(n), list(diffs), floor=0.0)
            x, y = np.log(n), np.log(diffs)
            slope, intercept = np.polyfit(x, y, 1)
            resid = np.sqrt(np.mean((y - (slope * x + intercept)) ** 2))
            assert fit.slope == pytest.approx(slope, rel=1e-12, abs=1e-12)
            assert fit.residual == pytest.approx(resid, rel=1e-9, abs=1e-12)


def test_gap_denominator_is_the_lowest_terms_one():
    examples = [DistributionSpec(name, law.example) for name, law in catalog._LAWS.items()]
    for spec in ["pareto(1.5)", "f_dist(3,5)", "stable(0.3,-0.3)", "frechet(0.7)"]:
        examples.append(parse_distribution(spec))
    for dist in examples:
        tail = tail_of(dist, 0)
        want = (Fraction(tail.beta) / Fraction(tail.alpha)).denominator
        assert oracle._gap_denominator(tail.alpha, tail.beta) == want
    assert oracle._gap_denominator.cache_info().maxsize is not None


def test_oracle_result_validation():
    with pytest.raises(ValueError):
        OracleResult(1.0, -1.0, "mc", 10)
    assert isinstance(RateFit(-1.0, 0.0), RateFit)
