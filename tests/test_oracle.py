"""Quadrature and Monte Carlo oracles against independently known values."""

import math

import numpy as np
import pytest

from paretotail.betamoments import RankSpec, joint_beta_moment
from paretotail.catalog import DistributionSpec, parse_distribution
from paretotail.errors import CapabilityError, InfiniteMomentError, ParetoTailError
from paretotail.oracle import (
    OracleResult,
    RateFit,
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
        assert res.method == "quad1d"
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
        assert quad_moment(dist, n, 0, 2.0).value == pytest.approx(want, rel=1e-10)
    assert 9.0 * (ev(50, 2 / 3) - 2.0 * ev(50, 1 / 3) + 1.0) == pytest.approx(
        246.963313346, rel=1e-11
    )


@pytest.mark.filterwarnings("ignore")
def test_quad_refuses_non_finite_integral():
    # p = 200 in the endpoint substitution: w^200 underflows v to 0 and the
    # integrand to inf * 0; the moment itself is finite
    with pytest.raises(ParetoTailError, match="nan"):
        quad_moment(parse_distribution("pareto"), 50, 0, 0.99)


def test_quad_refuses_complex_powers_on_two_sided_laws():
    with pytest.raises(CapabilityError):
        quad_moment(parse_distribution("cauchy"), 50, 0, 0.9)
    with pytest.raises(CapabilityError):
        quad_moment(parse_distribution("student_t(3)"), 50, 0, 2.5)
    with pytest.raises(CapabilityError):
        quad_joint_moment(parse_distribution("cauchy"), 50, 2, 1, 0.5, 1.0)
    # integer powers and one-sided laws still integrate
    assert quad_moment(parse_distribution("student_t(3)"), 50, 0, 2.0).value > 0
    assert quad_moment(parse_distribution("frechet(2)"), 50, 0, 0.9).value > 0


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


def test_mc_guard_refuses_near_boundary():
    dist = parse_distribution("pareto(1)")
    with pytest.raises(InfiniteMomentError):
        mc_top_order_stats(dist, 50, [((1,), (1.97,))], reps=20_000, seed=1)
    with pytest.raises(ValueError):
        mc_top_order_stats(dist, 50, [((1,), (1.0,))], reps=100, seed=1)


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


def test_oracle_result_validation():
    with pytest.raises(ValueError):
        OracleResult(1.0, -1.0, "mc", 10)
    assert isinstance(RateFit(-1.0, 0.0), RateFit)
