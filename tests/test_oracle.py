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
from paretotail.catalog import (
    DistributionSpec,
    make_rng,
    parse_distribution,
    sample_top,
    tail_of,
)
from paretotail.errors import CapabilityError, InfiniteMomentError, ParetoTailError
from paretotail.oracle import (
    OracleResult,
    RateFit,
    _adaptive_joint_moment,
    _adaptive_moment,
    _gauss_jacobi,
    convergence_rate_probe,
    mc_third_cumulant,
    mc_top_order_stats,
    quad_joint_moment,
    quad_moment,
)


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
    # the adaptive path's endpoint substitution has p = 200: w^200 underflows
    # v to 0 and the integrand to inf * 0, though the moment is finite
    with pytest.raises(ParetoTailError, match="nan"):
        _adaptive_moment(parse_distribution("pareto"), 50, 0, 0.99)


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
        ref = _adaptive_moment(dist, n, s, 1.0)
        assert res.value == pytest.approx(ref.value, rel=1e-10), s
        assert res.method in ("gauss_jacobi", "quad1d")
        assert 0 <= res.abserr <= 1e-10 * abs(res.value) + 1e-10
    for s1, s2 in ((2, 1), (3, 1), (5, 2)):
        res = quad_joint_moment(dist, n, s1, s2, 1.0, 1.0)
        ref = _adaptive_joint_moment(dist, n, s1, s2, 1.0, 1.0)
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
    # student_t(31) has gap 2/31: in u = v^(1/31) no rung agrees, so the
    # adaptive value comes back under its own name, with both costs counted
    dist = parse_distribution("student_t(31)")
    res = quad_moment(dist, 50, 1, 1.0)
    ref = _adaptive_moment(dist, 50, 1, 1.0)
    assert res.method == "quad1d"
    assert res.value == ref.value and res.abserr == ref.abserr > 0
    assert res.cost > ref.cost
    res = quad_joint_moment(dist, 200, 2, 1, 1.0, 1.0)
    ref = _adaptive_joint_moment(dist, 200, 2, 1, 1.0, 1.0)
    assert res.method == "quad2d"
    assert res.value == ref.value and res.abserr == ref.abserr > 0
    assert res.cost > ref.cost


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
    # student_t(31) has gap 2/31: no rung confirms three depths at n = 100,
    # and the adaptive fallback integrates one or two
    with pytest.raises(ParetoTailError, match="no Gauss-Jacobi rule"):
        oracle._quad(parse_distribution("student_t(31)"), 100, (3, 2, 1), (1.0, 1.0, 1.0), 1e-8)


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
            lambda: oracle._quad(dist, n, (3, 2, 1), (1.0, 1.0, 1.0), 1e-8),
        ):
            oracle._jacobi_coordinate.cache_clear()
            cold = _outcome(call)
            assert oracle._jacobi_coordinate.cache_info().currsize > 0
            assert _outcome(call) == cold


def test_cached_jacobi_rules_are_read_only_and_bounded():
    quad_moment(parse_distribution("cauchy"), 50, 1, 1.0)  # loads numpy and scipy
    for q in (1, 3):
        rule = oracle._jacobi_coordinate(16, 49, 0.5, q)
        assert oracle._jacobi_coordinate(16, 49, 0.5, q) is rule
        x, w, _ = rule
        for arr in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
    assert oracle._jacobi_coordinate.cache_info().maxsize is not None


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


def test_gauss_jacobi_stops_at_first_non_finite_rule(monkeypatch):
    # roots_jacobi's weights overflow once n - s passes ~1020, so the first
    # rule is not finite and no further rule is tried
    sizes = []
    rule = oracle._gauss_jacobi_rule

    def counting(*args):
        sizes.append(args[-1])
        return rule(*args)

    monkeypatch.setattr(oracle, "_gauss_jacobi_rule", counting)
    dist = parse_distribution("cauchy")
    res = quad_moment(dist, 3000, 1, 1.0)
    ref = _adaptive_moment(dist, 3000, 1, 1.0)
    assert res.method == "quad1d"
    assert len(sizes) <= 2
    assert res.value == ref.value and res.cost == ref.cost + sum(sizes)


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
    # moments of 1 - U_{n,n-s} have the exact value (via the unit Frechet
    # trick: use pareto with theta = -1 powers of X = v^{-1})
    dist = parse_distribution("pareto(1)")
    n = 100
    specs = [((s,), (-1.0,)) for s in (0, 1, 2, 3)]
    results = mc_top_order_stats(dist, n, specs, reps=200_000, seed=5)
    for (s_vec, _), res in zip(specs, results):
        s = s_vec[0]
        want = (s + 1) / (n + 1)  # E(1 - U_{n,n-s})
        assert abs(res.value - want) <= 4 * res.std_error
        assert res.std_error > 0
        assert res.method == "mc"


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
    # the one-sided stable has a sampler but no quantile; the direct path
    # must agree with the tail prediction roughly (loose check)
    dist = DistributionSpec("stable", (0.5, -0.5))
    res = mc_top_order_stats(dist, 30, [((0,), (0.2,))], reps=50_000, seed=3)
    assert res[0].value > 0 and math.isfinite(res[0].value)


@pytest.mark.filterwarnings("ignore")
def test_mc_refuses_non_finite_draws():
    # near alpha = 1, sin(u)^(1/(1-alpha)) in Kanter's representation
    # underflows and some draws come out inf or nan
    dist = parse_distribution("stable(0.99,-0.99)")
    with pytest.raises(ParetoTailError, match=r"stable\(0.99,-0.99\) at n=50 .* batch"):
        mc_top_order_stats(dist, 50, [((1,), (0.2,))], reps=20_000, seed=3)


def mc_by_batch(dist, n, specs, reps, seed, batches=25):
    """(means, standard errors) of mc_top_order_stats, recomputed from one
    sample_top call per batch."""
    bsize = reps // batches
    smax = max(max(s) for s, _ in specs)
    sums = np.zeros((batches, len(specs)))
    for b in range(batches):
        x = sample_top(dist, make_rng(seed, b), bsize, n, smax + 1)
        if not np.all(np.isfinite(x)):
            return None
        for j, (s, t) in enumerate(specs):
            prod = np.ones(bsize)
            for si, ti in zip(s, t):
                prod = prod * x[:, si] ** ti
            sums[b, j] = prod.mean()
    means = [sums[:, j].mean() for j in range(len(specs))]
    ses = [sums[:, j].std(ddof=1) / math.sqrt(batches) for j in range(len(specs))]
    return means, ses


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [1, 5, 200])
def test_mc_stable_matches_sample_top_per_batch(alpha, n):
    dist = DistributionSpec("stable", (alpha, -alpha))
    specs = [((0,), (0.2,))]
    if n > 1:
        specs.append(((min(n - 1, 4), 1), (0.2, 0.2)))
    with np.errstate(all="ignore"):
        want = mc_by_batch(dist, n, specs, 10_000, 17)
        if want is None:  # near alpha = 1 some draws under- or overflow
            with pytest.raises(ParetoTailError, match="non-finite"):
                mc_top_order_stats(dist, n, specs, reps=10_000, seed=17)
            return
        got = mc_top_order_stats(dist, n, specs, reps=10_000, seed=17)
    for res, mean, se in zip(got, *want):
        assert res.value == mean and res.std_error == se


def test_mc_builds_the_kanter_table_once(monkeypatch):
    calls = []
    bounds = catalog._kanter_bounds

    def counting(alpha):
        calls.append(alpha)
        return bounds(alpha)

    monkeypatch.setattr(catalog, "_kanter_bounds", counting)
    monkeypatch.setattr(oracle, "_worker_count", lambda batches, nbytes: batches)
    dist = parse_distribution("stable(0.7,-0.7)")
    mc_top_order_stats(dist, 50, [((4,), (1.0,))], reps=10_000, seed=2)
    assert calls == [0.7]
    mc_third_cumulant(dist, 50, (5, 3, 1), reps=10_000, seed=2)
    assert calls == [0.7, 0.7]


@pytest.mark.parametrize("law", ["pareto(2)", "student_t(3)", "stable(0.7,-0.7)"])
def test_mc_results_do_not_depend_on_the_thread_count(monkeypatch, law):
    dist = parse_distribution(law)
    specs = [((3,), (1.0,)), ((3, 1), (1.0, 1.0))]
    runs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)  # the threads trade the lock often
        for count in (1, 2, 25):
            monkeypatch.setattr(oracle, "_worker_count", lambda batches, nbytes: count)
            threads = threading.active_count()
            runs.append(
                (
                    mc_top_order_stats(dist, 50, specs, reps=10_000, seed=5),
                    mc_third_cumulant(dist, 50, (5, 3, 1), reps=10_000, seed=5),
                )
            )
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("count", [1, 2, 25])
def test_mc_names_the_lowest_failing_batch(monkeypatch, count):
    # at seed 13 the top blocks of batches 7 and 18 under- or overflow;
    # batch 7 is held back, so that on several threads batch 18 fails first
    dist = parse_distribution("stable(0.99,-0.99)")
    with np.errstate(all="ignore"):  # must reach every thread
        failing = [
            b
            for b in range(25)
            if not np.all(np.isfinite(sample_top(dist, make_rng(13, b), 400, 1, 1)))
        ]
        assert failing == [7, 18]
        rng = oracle.make_rng

        def late_batch_7(seed, stream):
            if stream == 7:
                time.sleep(0.05)
            return rng(seed, stream)

        monkeypatch.setattr(oracle, "make_rng", late_batch_7)
        monkeypatch.setattr(oracle, "_worker_count", lambda batches, nbytes: count)
        with pytest.raises(ParetoTailError, match=r"in batch 7:"):
            mc_top_order_stats(dist, 1, [((0,), (0.2,))], reps=10_000, seed=13)


def test_mc_thread_count():
    cpus = len(os.sched_getaffinity(0))
    assert oracle._worker_count(25, 1000) == min(cpus, 25)
    assert oracle._worker_count(2, 1000) == min(cpus, 2)
    # the CLI default, --reps 1000000 in 25 batches, at n = 200: one
    # sampler's work arrays alone pass the byte budget
    dist = parse_distribution("stable(0.5,-0.5)")
    _, nbytes = catalog._top_sampler(dist, 1_000_000 // 25, 200, 5)
    assert nbytes > oracle._MC_WORK_BYTES
    assert oracle._worker_count(25, nbytes) == 1


def test_mc_guard_refuses_near_boundary():
    dist = parse_distribution("pareto(1)")
    with pytest.raises(InfiniteMomentError):
        mc_top_order_stats(dist, 50, [((1,), (1.97,))], reps=20_000, seed=1)
    with pytest.raises(ValueError):
        mc_top_order_stats(dist, 50, [((1,), (1.0,))], reps=100, seed=1)
    with pytest.raises(ValueError):
        mc_third_cumulant(dist, 50, (3, 2, 1), reps=10, seed=1)
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


def test_mc_third_cumulant_pareto():
    dist = parse_distribution("pareto(1)")
    n = 200
    res = mc_third_cumulant(dist, n, (3, 2, 1), reps=400_000, seed=20260823)
    exact = 0.5 - (13.0 / 6.0) / n + 2.0 / n**2
    # infinite-variance estimator; allow a generous bracket
    assert abs(res.value - exact) <= 6 * res.std_error + 0.05


def test_mc_third_cumulant_stable():
    # the one-sided stable law has no quantile: its top blocks come from the
    # sampler, and each batch's cumulant is that of one sample_top draw
    dist = parse_distribution("stable(0.7,-0.7)")
    n, reps, seed, batches = 50, 10_000, 11, 25
    res = mc_third_cumulant(dist, n, (5, 3, 1), reps=reps, seed=seed)
    tail = tail_of(dist, 0)
    scale = (n * tail.c[0]) ** (1.0 / tail.alpha)
    kappas = np.zeros(batches)
    for b in range(batches):
        x = sample_top(dist, make_rng(seed, b), reps // batches, n, 6)
        y1, y2, y3 = x[:, 5] / scale, x[:, 3] / scale, x[:, 1] / scale
        m1, m2, m3 = y1.mean(), y2.mean(), y3.mean()
        kappas[b] = (
            (y1 * y2 * y3).mean()
            - m1 * (y2 * y3).mean()
            - m2 * (y1 * y3).mean()
            - m3 * (y1 * y2).mean()
            + 2.0 * m1 * m2 * m3
        )
    assert res.method == "mc" and res.cost == reps
    assert res.value == kappas.mean()
    assert res.std_error == kappas.std(ddof=1) / math.sqrt(batches)


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
    examples = [example for example, _, _ in catalog._LAWS.values()]
    for spec in examples + ["pareto(1.5)", "f_dist(3,5)", "stable(0.3,-0.3)", "frechet(0.7)"]:
        tail = tail_of(parse_distribution(spec), 0)
        want = (Fraction(tail.beta) / Fraction(tail.alpha)).denominator
        assert oracle._gap_denominator(tail.alpha, tail.beta) == want
    assert oracle._gap_denominator.cache_info().maxsize is not None


def test_oracle_result_validation():
    with pytest.raises(ValueError):
        OracleResult(1.0, -1.0, "mc", 10)
    assert isinstance(RateFit(-1.0, 0.0), RateFit)
