"""Acceptance gate: one test per release criterion, one printed verdict each.

Each test prints a single PASS/FAIL line so the gate can be read off a bare
pytest run.  Expected values come from independent oracles (exact beta
moments, quadrature, Monte Carlo) or exact-arithmetic regeneration, never
from the expansion machinery under test.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from paretotail.betamoments import (
    RankSpec,
    beta_ratio,
    gamma_ratio,
    gamma_ratio_coeffs,
    joint_beta_moment,
    n_free_factor,
    suffix_sums,
)
from paretotail.catalog import parse_distribution, tail_of
from paretotail.expansion import (
    MomentQuery,
    covariance_expansion,
    mean_expansion,
    normalized_moment_expansion,
    third_cumulant_expansion,
)
from paretotail.ledger import LEDGER
from paretotail.oracle import (
    _joint_cumulant,
    _per_batch,
    convergence_rate_probe,
    quad_joint_moment,
    quad_moment,
)
from paretotail.quantile import TailModel, quantile_series
from paretotail.series import FormalSeries, series_multiply

from test_inversion import compose_identity_defect


@pytest.fixture
def verdict(capsys):
    def _verdict(criterion, passed):
        with capsys.disabled():
            print(f"[{'PASS' if passed else 'FAIL'}] {criterion}")
        assert passed, criterion

    return _verdict


def test_inversion_roundtrip(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for case in range(100):
        a = float(rng.choice([0.5, 1.0, 2.0]))
        k = int(rng.integers(1, 4))
        c0 = float(rng.uniform(0.5, 2.0))
        body = rng.uniform(-0.5, 0.5, 8).tolist()
        x = FormalSeries([c0] + body)
        defect = compose_identity_defect(x, a, k)
        worst = max(worst, max(abs(d) for d in defect))
    elapsed = time.perf_counter() - t0
    verdict(
        f"criterion 1: inversion round-trip, 100 cases, max defect "
        f"{worst:.2e}, {elapsed:.2f}s",
        worst < 1e-9 and elapsed < 5.0,
    )


def test_cauchy_bernoulli_coefficients(verdict):
    # coefficients of cot(pi v): C_i = (-4 pi^2)^i pi^{-1} B_{2i} / (2i)!
    t0 = time.perf_counter()
    pi = sp.pi
    coeffs = [sp.Integer(-1) ** i / ((2 * i + 1) * pi) for i in range(7)]
    tail = TailModel(sp.Integer(1), sp.Integer(2), FormalSeries(coeffs))
    q = quantile_series(tail, sp.Integer(1))
    ok = True
    for i in range(7):
        want = (-4 * pi**2) ** i / pi * sp.bernoulli(2 * i) / sp.factorial(2 * i)
        if sp.simplify(q.C[i] - want) != 0:
            ok = False
    elapsed = time.perf_counter() - t0
    verdict(
        f"criterion 2: Cauchy quantile coefficients vs Bernoulli closed "
        f"form, i <= 6 exact, {elapsed:.2f}s",
        ok and elapsed < 1.0,
    )


def test_pareto_exactness(verdict):
    tail = TailModel(1.0, 1.0, FormalSeries([1.0] + [0.0] * 2))
    ok = True
    for n in (20, 50):
        for s in range(1, 6):
            exp = mean_expansion(tail, s)
            value, _ = exp.evaluate(n)
            exact = joint_beta_moment(RankSpec(n, (n - s,)), (-1,)) / n
            if abs(value - exact) > 1e-12 * abs(exact):
                ok = False
    verdict(
        "criterion 3: Pareto k=1 expansion equals exact beta moments at "
        "n in {20,50}, s in 1..5",
        ok,
    )


def test_gamma_ratio_remainder(verdict):
    # truncated after e_imax, the remainder is O(n^{-imax-1}), so doubling n
    # shrinks it by about 2^{imax+1}: 256 at imax 7, 2048 at imax 10
    t0 = time.perf_counter()
    ok = True
    ratios = []
    windows = {7: (200, 320), 10: (1600, 2560)}
    for imax, (lo, hi) in windows.items():
        for theta in (sp.Rational(1, 2), sp.Rational(3, 2)):
            rels = {}
            for n in (20, 40):
                exact = sp.gamma(n + 1) / sp.gamma(n + 1 + theta)
                es = gamma_ratio_coeffs(theta, imax)
                series = sp.Integer(n) ** (-theta) * sum(
                    e * sp.Rational(1, n**i) for i, e in enumerate(es)
                )
                rels[n] = sp.Abs((exact - series) / exact).evalf(40)
            ratio = float(rels[20] / rels[40])
            ratios.append(ratio)
            if not lo <= ratio <= hi:
                ok = False
    elapsed = time.perf_counter() - t0
    verdict(
        f"criterion 4: gamma-ratio remainder shrinks by "
        f"{ratios[0]:.1f} / {ratios[1]:.1f} at imax 7 (target [200, 320]) and "
        f"{ratios[2]:.1f} / {ratios[3]:.1f} at imax 10 (target [1600, 2560]), "
        f"{elapsed:.2f}s",
        ok and elapsed < 1.0,
    )


def test_cauchy_mean_rate(verdict):
    dist = parse_distribution("cauchy")
    tail = tail_of(dist, 2)
    s = 1
    exp = mean_expansion(tail, s)
    # derived second-order coefficient carries the /3
    assert exp.terms[(0, 1)] == pytest.approx(-math.pi**2 * (s + 1) / 3, rel=1e-12)
    two_term = exp.truncated(2.0)
    n_grid = (50, 100, 200)
    diffs = []
    for n in n_grid:
        value, _ = two_term.evaluate(n)
        oracle = quad_moment(dist, n, s, 1.0).value / (n * tail.c[0])
        diffs.append(abs(value - oracle))
    fit = convergence_rate_probe(n_grid, diffs)
    verdict(
        f"criterion 5: Cauchy mean two-term remainder slope "
        f"{fit.slope:.3f} (target -3 +/- 0.3)",
        abs(fit.slope - (-3.0)) <= 0.3,
    )


def test_frechet_covariance_rate(verdict):
    dist = parse_distribution("frechet(1)")
    tail = tail_of(dist, 2)
    rep = covariance_expansion(tail, 2, 1)
    n_grid = (50, 100, 200)
    diffs = []
    for n in n_grid:
        pair = quad_joint_moment(dist, n, 2, 1, 1.0, 1.0).value
        m1 = quad_moment(dist, n, 2, 1.0).value
        m2 = quad_moment(dist, n, 1, 1.0).value
        norm = float(n * tail.c[0]) ** 2
        oracle = (pair - m1 * m2) / norm
        diffs.append(abs(rep.evaluate(n) - oracle))
    fit = convergence_rate_probe(n_grid, diffs)
    verdict(
        f"criterion 6: Frechet covariance remainder slope {fit.slope:.3f} "
        f"(target -2 +/- 0.3)",
        abs(fit.slope - (-2.0)) <= 0.3,
    )


def test_third_cumulant_mc(verdict):
    tail = TailModel(1, 1, FormalSeries([Fraction(1), Fraction(0)]))
    k0, k1, _ = third_cumulant_expansion(3, 2, 1, tail)
    # the derived 1/n coefficient is -13/6; the printed closed form gives
    # -8/3 and is recorded in the correction ledger, the exact finite-n
    # beta-moment computation (see the closed-form suite) is the arbiter
    assert Fraction(k0) == Fraction(1, 2)
    assert Fraction(k1) == Fraction(-13, 6)
    # at alpha = 1 the squared product at these depths has an infinite mean,
    # so no batch standard error holds there; the Monte Carlo cumulant runs
    # on pareto(3), whose variance is finite, against its exact finite-n
    # value from the beta moments of the uniform top block
    n, s, batches = 400, (3, 2, 1), 50

    def exact(b):
        return joint_beta_moment(RankSpec(n, tuple(n - si for si in b)), [-1 / 3] * len(b))

    def batch_kappa(x):
        # a stream's batches, each row of each batch a top block
        return _joint_cumulant(s, lambda b: np.prod(x[:, :, list(b)], axis=2).mean(axis=1))

    depths = range(max(s) + 1)  # column s = depth s
    kappas = _per_batch(parse_distribution("pareto(3)"), n, depths, 10_000_000, 20260823, batches, batch_kappa)
    want = _joint_cumulant(s, exact)
    z = abs(kappas.mean() - want) / (kappas.std(ddof=1) / math.sqrt(batches))
    verdict(
        f"criterion 7: third cumulant kappa0=1/2, kappa1=-13/6 (derived); "
        f"pareto(3) MC at n=400 within {z:.2f} SE of the exact cumulant (limit 4)",
        z <= 4.0,
    )


def test_closed_form_regeneration(verdict):
    t0 = time.perf_counter()
    import test_closed_forms as cf

    cf.test_quantile_coefficients_exact()
    cf.test_bkj_table_exact()
    cf.test_covariance_closed_forms()
    cf.test_covariance_unit_index_display()
    cf.test_pair_d2_closed_form()
    cf.test_cauchy_coefficient_closed_forms()
    cf.test_third_cumulant_closed_forms()
    # e-polynomials pinned at 20 rational points (degree <= 14, so 20
    # matches determine them): exact series inversion of prod (1 + j/n)
    for p in range(1, 21):
        prod = [Fraction(1)] + [Fraction(0)] * 7
        for j in range(1, p + 1):
            new = [Fraction(0)] * 8
            for i in range(8):
                new[i] += prod[i]
                if i + 1 < 8:
                    new[i + 1] += j * prod[i]
            prod = new
        inv = [Fraction(1)] + [Fraction(0)] * 7
        for i in range(1, 8):
            inv[i] = -sum(prod[m] * inv[i - m] for m in range(1, i + 1))
        assert [Fraction(e) for e in gamma_ratio_coeffs(Fraction(p), 7)] == inv
    # every display that failed regeneration is ledgered
    ledgered = {e.id for e in LEDGER}
    required = {
        "quantile-third-coefficient-grouping",
        "cauchy-second-coefficient-denominator",
        "cauchy-third-coefficient-display",
        "third-cumulant-first-order",
        "third-cumulant-leading-divisor",
        "product-moment-correction-direction",
        "product-moment-leading-index",
        "product-moment-first-order-sign",
        "pair-correction-table-garbled",
        "pair-second-order-sign",
        "covariance-unit-case-factor",
        "tail-slope-constant-definition",
    }
    elapsed = time.perf_counter() - t0
    verdict(
        f"criterion 8: closed forms regenerate exactly or are ledgered "
        f"({len(LEDGER)} ledger entries), {elapsed:.1f}s",
        required <= ledgered and elapsed < 30.0,
    )


def test_property_suites(verdict):
    rng = np.random.default_rng(777)
    checks = 0

    def rand_tail(alpha=None, beta=None, order=4):
        alpha = alpha if alpha is not None else float(rng.uniform(0.5, 3.0))
        beta = beta if beta is not None else float(rng.uniform(0.5, 3.0))
        c = [float(rng.uniform(0.5, 2.0))] + rng.uniform(-0.4, 0.4, order).tolist()
        return TailModel(alpha, beta, FormalSeries(c))

    # scale equivariance of quantile coefficients
    for _ in range(100):
        tail = rand_tail()
        theta = float(rng.uniform(-2.0, 2.0))
        lam = float(rng.uniform(0.5, 2.0))
        base = quantile_series(tail, theta)
        scaled = quantile_series(tail.rescaled(lam), theta)
        for cb, cs in zip(base.C, scaled.C):
            assert cs == pytest.approx(lam**theta * cb, rel=1e-12, abs=1e-12)
        checks += 1

    # tie invariance: tied pair equals a single squared power
    for _ in range(100):
        tail = rand_tail(alpha=float(rng.uniform(1.0, 3.0)))
        s = int(rng.integers(max(2, math.ceil(2 / tail.alpha)), 7))
        pair = normalized_moment_expansion(
            MomentQuery(tail, (s, s), (1.0, 1.0))
        )
        single = normalized_moment_expansion(MomentQuery(tail, (s,), (2.0,)))
        for ij, c in pair.terms.items():
            assert single.terms[ij] == pytest.approx(c, rel=1e-10, abs=1e-12)
        checks += 1

    # power consistency of quantile series
    for _ in range(100):
        tail = rand_tail()
        t1, t2 = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))
        prod = series_multiply(
            quantile_series(tail, t1).C, quantile_series(tail, t2).C
        )
        direct = quantile_series(tail, t1 + t2).C
        for a_c, b_c in zip(prod, direct):
            assert a_c == pytest.approx(b_c, rel=1e-10, abs=1e-10)
        checks += 1

    # product form of the beta ratio equals the gamma form
    for _ in range(100):
        al = int(rng.integers(1, 9))
        be = int(rng.integers(1, 9))
        th = float(rng.uniform(-0.9, 4.0))
        got = beta_ratio(al, be, th)
        want = math.exp(
            math.lgamma(be + th)
            - math.lgamma(be)
            - math.lgamma(al + be + th)
            + math.lgamma(al + be)
        )
        assert float(got) == pytest.approx(want, rel=1e-12)
        checks += 1

    # factorization: joint moment = n-free factor * gamma ratio
    for _ in range(100):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(1, 4))
        s = tuple(sorted(rng.integers(0, 5, k).tolist(), reverse=True))
        th = tuple(float(x) for x in rng.uniform(0.1, 2.0, k))
        direct = joint_beta_moment(RankSpec(n, tuple(n - si for si in s)), th)
        via = n_free_factor(s, th) / gamma_ratio(n + 1, suffix_sums(th)[0])
        assert float(via) == pytest.approx(float(direct), rel=1e-12)
        checks += 1

    verdict(
        f"criterion 9: property suites, {checks} randomized cases across "
        "5 invariants",
        checks == 500,
    )
