"""Distribution catalog: tail coefficients, quantiles, samplers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretotail import catalog
from paretotail.catalog import (
    CATALOG_NAMES,
    DistributionSpec,
    cdf,
    make_rng,
    parse_distribution,
    sample,
    tail_of,
    upper_quantile,
)
from paretotail.errors import CapabilityError, ParetoTailError, UnsupportedOrderError


def survival_partial(tail, x, order):
    """Truncated tail series sum_{i<=order} c_i x^{-alpha-i*beta}."""
    return sum(
        tail.c[i] * x ** (-tail.alpha - i * tail.beta) for i in range(order + 1)
    )


def test_parse_distribution():
    assert parse_distribution("cauchy") == DistributionSpec("cauchy")
    assert parse_distribution(" student_t( 3 ) ") == DistributionSpec(
        "student_t", (3.0,)
    )
    assert parse_distribution("stable(0.5,-0.5)") == DistributionSpec(
        "stable", (0.5, -0.5)
    )
    with pytest.raises(ValueError):
        parse_distribution("pareto(2")
    with pytest.raises(ValueError):
        parse_distribution("gaussian")


def test_spec_validation():
    # accepted and rejected tuples per law, at the contract's edges
    accepted = {
        "pareto": [(), (0.25,)],
        "cauchy": [()],
        "student_t": [(1.0,)],
        "f_dist": [(1.0, 3.0)],
        "stable": [(0.5, -0.5), (0.5, 0.4999)],
        "frechet": [(0.25,)],
    }
    rejected = {
        "pareto": [(1.0, 2.0), (0.0,)],
        "cauchy": [(1.0,)],
        "student_t": [(1.5,), (0.5,), ()],
        "f_dist": [(1.0, 2.0), (3.0, 2.0), (1.5, 6.0), (0.0, 6.0), (2.0,)],
        "stable": [(0.5, 0.5), (0.5, -0.5001), (1.5, 0.5), (0.0, 0.0), (0.5,)],
        "frechet": [(0.0,), (-1.0,), ()],
    }
    assert set(accepted) == set(rejected) == set(CATALOG_NAMES)
    for name in CATALOG_NAMES:
        for params in accepted[name]:
            assert DistributionSpec(name, params).params == params
        for params in rejected[name]:
            with pytest.raises(ValueError, match=rf"^{name} needs .*, got "):
                DistributionSpec(name, params)
    expected = r"f_dist needs integer parameters \(M >= 1, N > 2\), got \(1\.5, 6\.0\)"
    with pytest.raises(ValueError, match=expected):
        DistributionSpec("f_dist", (1.5, 6.0))
    for params in ((math.inf,), (math.nan,)):
        with pytest.raises(ValueError, match="finite"):
            DistributionSpec("student_t", params)
    for params in (("2",), (None,), (1 + 2j,)):
        with pytest.raises(ValueError, match=r"^pareto needs real parameters, got "):
            DistributionSpec("pareto", params)
    with pytest.raises(ParetoTailError, match=r"student_t\(400\)"):
        tail_of(parse_distribution("student_t(400)"), 0)
    with pytest.raises(ParetoTailError, match=r"f_dist\(3,400\)"):
        tail_of(parse_distribution("f_dist(3,400)"), 0)
    # the largest t tail whose coefficients fit a float is unchanged
    big = tail_of(parse_distribution("student_t(171)"), 2)
    assert list(big.c) == [2.540648119592714e189, -3.693083169474512e193, 2.7157044880066033e197]


def test_capability_flags():
    assert DistributionSpec("pareto", (2.0,)).has_exact_quantile
    assert not DistributionSpec("student_t", (3.0,)).has_exact_quantile
    assert DistributionSpec("f_dist", (3.0, 5.0)).has_numeric_quantile
    assert DistributionSpec("stable", (0.5, -0.5)).has_sampler
    assert DistributionSpec("stable", (0.5, -0.5)).has_numeric_quantile
    assert not DistributionSpec("stable", (0.5, 0.0)).has_sampler
    assert not DistributionSpec("stable", (0.5, 0.0)).has_numeric_quantile
    assert DistributionSpec("cauchy").two_sided
    assert DistributionSpec("student_t", (3.0,)).two_sided
    assert DistributionSpec("stable", (0.5, 0.0)).two_sided
    assert not DistributionSpec("stable", (0.5, -0.5)).two_sided
    assert not DistributionSpec("f_dist", (3.0, 5.0)).two_sided
    with pytest.raises(CapabilityError):
        upper_quantile(DistributionSpec("stable", (0.5, 0.0)), 0.1)
    with pytest.raises(CapabilityError):
        sample(DistributionSpec("stable", (0.5, 0.0)), make_rng(1), 2)
    with pytest.raises(UnsupportedOrderError):
        tail_of(DistributionSpec("cauchy"), 13)
    with pytest.raises(UnsupportedOrderError, match="got -1"):
        tail_of(DistributionSpec("cauchy"), -1)


def test_tail_matches_survival():
    # truncated tail series vs the true survival function, with the first
    # omitted coefficient bounding the defect
    cases = [
        "pareto(1.5)",
        "cauchy",
        "student_t(3)",
        "f_dist(3,5)",
        "frechet(2)",
    ]
    for text in cases:
        dist = parse_distribution(text)
        tail = tail_of(dist, 4)
        for x in (5.0, 10.0, 20.0):
            true = 1.0 - cdf(dist, x)
            approx = survival_partial(tail, x, 3)
            bound = 2 * abs(tail.c[4]) * x ** (-tail.alpha - 4 * tail.beta)
            assert abs(approx - true) <= bound + 1e-13, (text, x)


def test_f_dist_tail_matches_cdf():
    # M = 2 closed form: 1 - F = (1 + nu x)^{-N/2} pins the tail index and
    # the sign of the nu power in the coefficients
    dist = DistributionSpec("f_dist", (2.0, 6.0))
    tail = tail_of(dist, 5)
    nu = 2.0 / 6.0
    assert tail.alpha == pytest.approx(3.0)
    for i in range(6):
        # binom(-3, i) nu^{-3-i} from the binomial expansion of the survival
        want = (-1.0) ** i * math.comb(i + 2, i) * nu ** (-3.0 - i)
        assert tail.c[i] == pytest.approx(want, rel=1e-12)
    for x in (4.0, 9.0):
        true = (1 + nu * x) ** (-3.0)
        assert 1.0 - cdf(dist, x) == pytest.approx(true, rel=1e-10)
        approx = survival_partial(tail, x, 5)
        next_term = math.comb(8, 6) * nu ** (-9.0) * x ** (-9.0)
        assert abs(approx - true) <= 2 * next_term
    # non-closed-form cases against the scipy survival function
    from scipy.stats import f as scipy_f

    for M, N in ((3, 5), (1, 4)):
        dist = DistributionSpec("f_dist", (float(M), float(N)))
        tail = tail_of(dist, 4)
        assert tail.alpha == pytest.approx(N / 2)
        for x in (15.0, 30.0):
            true = float(scipy_f.sf(x, M, N))
            approx = survival_partial(tail, x, 3)
            bound = 2 * abs(tail.c[4]) * x ** (-tail.alpha - 4 * tail.beta)
            assert abs(approx - true) <= bound + 1e-13


def test_f_dist_quantile_deep_tail():
    # M = 2 closed form: 1 - F(x) = (1 + x/3)^{-3} at N = 6, so the upper
    # quantile is 3 (v^{-1/3} - 1) all the way down the tail
    dist = DistributionSpec("f_dist", (2.0, 6.0))
    v = np.logspace(-300, math.log10(0.5), 601)
    want = 3.0 * (v ** (-1.0 / 3.0) - 1.0)
    np.testing.assert_allclose(upper_quantile(dist, v), want, rtol=1e-12)
    for x in v[::60]:
        got = float(upper_quantile(dist, float(x)))
        assert got == pytest.approx(3.0 * (x ** (-1.0 / 3.0) - 1.0), rel=1e-12)


def test_f_dist_quantile_inverts_scipy_survival():
    from scipy.stats import f as scipy_f

    v = np.logspace(-250, math.log10(0.5), 501)
    for M, N in ((3, 5), (1, 4)):
        dist = DistributionSpec("f_dist", (float(M), float(N)))
        x = upper_quantile(dist, v)
        np.testing.assert_allclose(scipy_f.sf(x, M, N), v, rtol=1e-12)


def test_student_t_quantile_closed_forms():
    # N = 2: F^{-1}(1 - v) = (1 - 2v) / sqrt(2 v (1 - v)); N = 1 is Cauchy
    v = np.logspace(-150, math.log10(0.45), 601)
    t2 = upper_quantile(DistributionSpec("student_t", (2.0,)), v)
    np.testing.assert_allclose(t2, (1 - 2 * v) / np.sqrt(2 * v * (1 - v)), rtol=1e-12)
    t1 = upper_quantile(DistributionSpec("student_t", (1.0,)), v)
    np.testing.assert_allclose(t1, upper_quantile(DistributionSpec("cauchy"), v), rtol=1e-12)
    # the centre and the lower half, where the quantile crosses zero
    u = np.linspace(0.45, 0.999, 123)
    t2 = upper_quantile(DistributionSpec("student_t", (2.0,)), u)
    np.testing.assert_allclose(t2, (1 - 2 * u) / np.sqrt(2 * u * (1 - u)), atol=1e-12)


def test_student_t_quantile_deep_tail():
    # stdtrit loses the upper tail past v ~ 1e-160 (N = 3: a factor 2 off,
    # then -inf); below 1e-150 the quantile inverts the beta variable
    from scipy import special

    v = np.logspace(-300, -100, 201)
    for N in (3, 6, 9):
        dist = DistributionSpec("student_t", (float(N),))
        x = upper_quantile(dist, v)
        np.testing.assert_allclose(special.stdtr(N, -x), v, rtol=1e-14)
        assert [float(upper_quantile(dist, float(y))) for y in v[::40]] == list(x[::40])
        assert upper_quantile(dist, 0.0) == math.inf
        # from the switch up, the values are stdtrit's, bit for bit
        w = np.array([1e-150, 1e-100, 1e-3, 0.3, 0.7])
        assert np.array_equal(upper_quantile(dist, w), -special.stdtrit(N, w))
    # N = 1 is the Cauchy law, whose beta variable would underflow
    v = np.append(v, 0.0)
    t1 = upper_quantile(DistributionSpec("student_t", (1.0,)), v)
    with np.errstate(divide="ignore"):
        np.testing.assert_allclose(t1, upper_quantile(DistributionSpec("cauchy"), v), rtol=1e-14)


def test_student_t_quantile_deep_tail_mpmath():
    # the survival function 0.5 I_w(N/2, 1/2), w = N / (N + x^2), at 40
    # digits, independent of scipy
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for N in (3, 6, 9):
            dist = DistributionSpec("student_t", (float(N),))
            for v in (1e-151, 1e-200, 1e-250, 1e-300):
                x = mpmath.mpf(float(upper_quantile(dist, v)))
                sf = mpmath.betainc(N / 2, 0.5, 0, N / (N + x**2), regularized=True) / 2
                assert float(sf / v) == pytest.approx(1.0, rel=1e-14)


def test_t_and_f_cdf_match_scipy_stats():
    from scipy.stats import f as scipy_f
    from scipy.stats import t as scipy_t

    for x in (-30.0, -1.0, 0.0, 0.3, 2.0, 50.0, 1e8):
        for N in (1, 3, 4):
            got = cdf(DistributionSpec("student_t", (float(N),)), x)
            assert got == pytest.approx(float(scipy_t.cdf(x, N)), rel=1e-14, abs=1e-300)
        for M, N in ((2, 6), (3, 5), (1, 4)):
            got = cdf(DistributionSpec("f_dist", (float(M), float(N))), x)
            assert got == pytest.approx(float(scipy_f.cdf(x, M, N)), rel=1e-14, abs=1e-300)


def test_student_t_reduces_to_cauchy():
    t1 = tail_of(DistributionSpec("student_t", (1.0,)), 6)
    ca = tail_of(DistributionSpec("cauchy"), 6)
    assert t1.alpha == ca.alpha and t1.beta == ca.beta
    for a, b in zip(t1.c, ca.c):
        assert a == pytest.approx(b, rel=1e-12)


def test_levy_tail_coefficients():
    # one-sided positive stable at alpha = 1/2 is the Levy law with survival
    # erf(1/(2 sqrt(x))); its expansion fixes the alpha^{-1} prefactor
    tail = tail_of(DistributionSpec("stable", (0.5, -0.5)), 4)
    root_pi = math.sqrt(math.pi)
    assert tail.c[0] == pytest.approx(1.0 / root_pi, rel=1e-12)
    assert tail.c[1] == pytest.approx(0.0, abs=1e-14)
    assert tail.c[2] == pytest.approx(-1.0 / (12 * root_pi), rel=1e-12)
    assert tail.c[3] == pytest.approx(0.0, abs=1e-14)
    assert tail.c[4] == pytest.approx(1.0 / (160 * root_pi), rel=1e-12)
    # direct check against the erf survival at a concrete point
    x = 30.0
    true = math.erf(0.5 / math.sqrt(x))
    approx = survival_partial(tail, x, 4)
    next_term = x ** (-3.5) / (896 * root_pi)  # z^7/21 term of erf
    assert abs(approx - true) <= 2 * next_term


def test_positive_stable_sampler_matches_levy():
    dist = DistributionSpec("stable", (0.5, -0.5))
    draws = sample(dist, make_rng(7), 200_000)
    assert np.all(draws > 0)
    for x in (0.5, 2.0, 10.0):
        want = math.erfc(0.5 / math.sqrt(x))
        got = float(np.mean(draws <= x))
        assert got == pytest.approx(want, abs=4 / math.sqrt(len(draws)))


def test_vanishing_stable_tail_coefficients_are_exact_zeros():
    # at alpha = 1/2 the tail is the erf series, odd powers of x^(-1/2) only:
    # c_2k = (2/sqrt(pi)) (-1)^k / (k! (2k+1) 2^(2k+1)), c_2k+1 = 0
    mpmath = pytest.importorskip("mpmath")
    tail = tail_of(DistributionSpec("stable", (0.5, -0.5)), 12)
    with mpmath.workdps(40):
        for k in range(7):
            want = 2 / mpmath.sqrt(mpmath.pi) * (-1) ** k / (
                math.factorial(k) * (2 * k + 1) * mpmath.mpf(2) ** (2 * k + 1)
            )
            # five roundings in the general formula: within 2 ulp
            assert abs(tail.c[2 * k] - want) <= 2 * math.ulp(float(want)), k
    assert [tail.c[i] for i in range(1, 13, 2)] == [0.0] * 6
    # zeros only where k (gamma - alpha) / 2 is an integer in float: 0.2 -
    # 0.7 is not -0.5, so no coefficient of stable(0.7,0.2) vanishes
    assert all(c != 0.0 for c in tail_of(parse_distribution("stable(0.7,0.2)"), 12).c)


def test_kanter_draws_stay_finite_near_alpha_1():
    # in logs no power of sin under- or overflows: once, 1.9e-4 of these
    # draws were nan and 1.6e-4 inf at alpha = 0.99, 1.0 % and 0.5 % at 0.995
    for alpha in (0.99, 0.995):
        draws = sample(DistributionSpec("stable", (alpha, -alpha)), make_rng(1), 1_000_000)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0), alpha


def test_stable_quantile_matches_levy():
    # alpha = 1/2: Q(v) = 1/(4 erfinv(v)^2), which overflows a float below
    # about v = 1e-154, where Q is inf as well
    from scipy.special import erfinv

    dist = parse_distribution("stable(0.5,-0.5)")
    v = np.unique(np.concatenate((np.logspace(-300, -2, 400), np.linspace(0.01, 0.99, 99))))
    with np.errstate(over="ignore", divide="ignore"):
        want = 1.0 / (4.0 * erfinv(v) ** 2)
        got = upper_quantile(dist, v)
    finite = np.isfinite(want)
    assert np.all(np.isinf(got[~finite])) and finite.sum() > 250
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-13, atol=0)
    for vi in (1e-5, 0.3, 0.7):
        assert upper_quantile(dist, vi) == upper_quantile(dist, np.array([vi]))[0]
    assert upper_quantile(dist, 1.0) == 0.0
    with np.errstate(divide="ignore"):
        assert upper_quantile(dist, 0.0) == math.inf


def stable_survival(alpha, x, mpmath):
    """P(X > x) of the positive stable law with Laplace transform
    exp(-s^alpha), by its everywhere convergent series
    sum_k (-1)^(k+1) Gamma(k alpha) sin(pi k alpha) x^(-k alpha) / (pi k!)."""
    a = mpmath.mpf(alpha)
    total, k = mpmath.mpf(0), 1
    while True:
        term = (-1) ** (k + 1) * mpmath.gamma(k * a) * mpmath.sin(k * mpmath.pi * a)
        term *= x ** (-k * a) / (mpmath.pi * mpmath.factorial(k))
        total += term
        if k > 10 and abs(term) < mpmath.eps * abs(total):
            return total
        k += 1


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_stable_quantile_matches_the_series_referee(alpha):
    mpmath = pytest.importorskip("mpmath")
    dist = DistributionSpec("stable", (alpha, -alpha))
    with mpmath.workdps(60):
        for v in (1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5):
            got = float(upper_quantile(dist, v))
            log_want = mpmath.findroot(
                lambda t: mpmath.log(stable_survival(alpha, mpmath.exp(t), mpmath) / v),
                mpmath.log(got),
            )
            assert abs(got / mpmath.exp(log_want) - 1) <= 1e-12, v


@pytest.mark.parametrize("alpha", [0.9, 0.99])
def test_stable_quantile_is_finite_and_decreasing_near_alpha_1(alpha):
    dist = DistributionSpec("stable", (alpha, -alpha))
    v = np.unique(np.concatenate((
        np.logspace(-200, -3, 400), np.linspace(1e-3, 1 - 1e-3, 999), [0.5, 1 - 2.0**-53],
    )))
    q = upper_quantile(dist, v)
    assert np.all(np.isfinite(q)) and np.all(np.diff(q) < 0)


def test_stable_tables_are_built_once_and_bounded():
    catalog._stable_table.cache_clear()
    for v in (0.1, 0.9, np.array([0.01, 0.6])):
        upper_quantile(parse_distribution("stable(0.6,-0.6)"), v)
    info = catalog._stable_table.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert info.maxsize is not None
    assert catalog._kanter_rule.cache_info().maxsize is not None


@pytest.mark.parametrize("alpha", [0.01, 0.15, 0.5, 0.9, 0.99])
def test_kanter_table_is_nondecreasing(alpha):
    # Kanter's function A increases on (0, pi): log A at the nodes of u in
    # (0, pi/2], and on the grid of y = -log(pi - u) that places the pieces
    # above, which np.interp reads and needs increasing
    catalog._load_numpy()
    bulk_log_a, _, _, _, grid_log_a = catalog._kanter_rule(alpha)
    for log_a in (bulk_log_a, grid_log_a):
        assert np.all(np.isfinite(log_a)) and np.all(np.diff(log_a) > 0)
    assert bulk_log_a[-1] < grid_log_a[0]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
def test_kanter_draws_match_the_stable_quantile(alpha):
    # two-sample Kolmogorov-Smirnov, Kanter's draws against inverse-CDF
    # draws through the quantile; a quantile 5 % off fails
    from scipy.stats import ks_2samp

    dist = DistributionSpec("stable", (alpha, -alpha))
    kanter = sample(dist, make_rng(1), 1_000_000)
    through = upper_quantile(dist, make_rng(2).random(1_000_000))
    assert ks_2samp(kanter, through).pvalue > 1e-4
    assert ks_2samp(kanter, 1.05 * through).pvalue < 1e-4


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_sorted_kanter_rows_match_quadrature_through_the_quantile(alpha):
    from paretotail.oracle import quad_moment

    dist = DistributionSpec("stable", (alpha, -alpha))
    n, s, theta, reps = 50, 2, alpha, 20_000
    rows = np.sort(sample(dist, make_rng(3), (reps, n)), axis=1)
    x = rows[:, n - 1 - s] ** theta
    want = quad_moment(dist, n, s, theta).value
    assert abs(x.mean() - want) <= 8 * x.std(ddof=1) / math.sqrt(reps)


def test_inverse_cdf_samplers_match_cdf():
    rng_seed = 11
    for text in ("pareto(2)", "cauchy", "frechet(1.5)", "student_t(4)"):
        dist = parse_distribution(text)
        draws = np.asarray(sample(dist, make_rng(rng_seed), 100_000))
        for q in (0.25, 0.75, 0.95):
            x = float(upper_quantile(dist, 1 - q))
            got = float(np.mean(draws <= x))
            assert got == pytest.approx(q, abs=4 / math.sqrt(len(draws))), text


def examples():
    """The example spec of every catalog row."""
    return [DistributionSpec(name, law.example) for name, law in catalog._LAWS.items()]


# besides the examples: other parameters, and the two-sided stable case
MORE_SPECS = ("pareto(1.5)", "student_t(1)", "f_dist(3,5)", "stable(0.7,0.1)", "frechet(2)")


def test_quantile_cdf_roundtrip():
    specs = examples() + [parse_distribution(text) for text in MORE_SPECS]
    for dist in filter(lambda d: d.has_numeric_quantile, specs):
        for u in (0.3, 0.9, 0.999):
            x = float(upper_quantile(dist, 1 - u))
            assert cdf(dist, x) == pytest.approx(u, rel=1e-9), dist


@pytest.mark.parametrize("text", [str(d) for d in examples()] + list(MORE_SPECS))
def test_capability_flags_match_what_each_law_does(text):
    dist = parse_distribution(text)
    law = catalog._LAWS[dist.name]
    try:
        q = upper_quantile(dist, 0.999)
    except CapabilityError:
        q = None
    assert dist.has_numeric_quantile == (q is not None)
    assert (law.cdf is None) == (law.quantile is None)
    if q is None:
        with pytest.raises(CapabilityError):
            cdf(dist, 1.0)
    assert not dist.has_exact_quantile or dist.has_numeric_quantile
    try:
        draws = sample(dist, make_rng(1), 1000)
    except CapabilityError:
        draws = None
    assert dist.has_sampler == (draws is not None)
    if q is not None:
        assert dist.two_sided == (q < 0)
    else:
        # no quantile: sampled only when one-sided, and then never below 0
        assert dist.two_sided == (draws is None)
        assert draws is None or np.all(draws >= 0)


def test_cauchy_and_f_quantiles_keep_their_digits_near_v_1():
    # F(x) = 1 - v at 50 digits, independent of scipy; 1 - v is exact here
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for text in ("cauchy", "f_dist(2,6)", "f_dist(3,5)", "f_dist(1,4)"):
            dist = parse_distribution(text)
            v = 1 - np.logspace(-3, -12, 10)
            x = upper_quantile(dist, v)
            for vi, xi in zip(v, x):
                e = 1 - mpmath.mpf(float(vi))
                if text == "cauchy":
                    want = mpmath.tan(mpmath.pi * (e - mpmath.mpf(0.5)))
                else:
                    # Newton steps on F(x) = I_y(M/2, N/2), y = M x / (M x + N)
                    a, b = dist.params[0] / 2, dist.params[1] / 2
                    y = mpmath.mpf(a * xi / (a * xi + b))
                    for _ in range(8):
                        f = mpmath.betainc(a, b, 0, y, regularized=True) - e
                        y -= f * mpmath.beta(a, b) / (y ** (a - 1) * (1 - y) ** (b - 1))
                    want = b * y / (a * (1 - y))
                assert abs(xi / want - 1) <= 1e-14, (text, vi)
                assert upper_quantile(dist, float(vi)) == xi
    with np.errstate(divide="ignore"):
        assert upper_quantile(parse_distribution("cauchy"), 1.0) == -math.inf
    assert upper_quantile(parse_distribution("f_dist(2,6)"), 1.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-300, max_value=1e300), st.floats(1e-300, 1.0))
def test_spec_text_round_trips(alpha, share):
    # the shortest text that parses back: pareto(2.0000001) printed as
    # pareto(2) named another law
    for dist in (
        DistributionSpec("pareto", (alpha,)),
        DistributionSpec("stable", (share * 0.999, -share * 0.999)),
    ):
        assert parse_distribution(str(dist)) == dist
    assert str(parse_distribution("pareto(2.0000001)")) == "pareto(2.0000001)"
    assert str(DistributionSpec("pareto", (Fraction(3, 2),))) == "pareto(1.5)"


def test_make_rng_streams():
    a = make_rng(3, 0).random(4)
    b = make_rng(3, 0).random(4)
    c = make_rng(3, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_catalog_names_round_trip():
    # every row's example prints as list-distributions shows it, and the
    # text parses back to the same spec
    texts = [str(d) for d in examples()]
    assert [parse_distribution(t) for t in texts] == examples()
    assert [parse_distribution(t).name for t in texts] == list(CATALOG_NAMES)
    assert texts == [
        "pareto(1)", "cauchy", "student_t(3)", "f_dist(2,6)", "stable(0.5,-0.5)", "frechet(1)"
    ]


def test_tail_models_are_built_once_and_errors_are_not_cached():
    catalog._tail_model.cache_clear()
    for dist in examples():
        for k in (0, 3):
            assert tail_of(dist, k) is tail_of(dist, k)
    assert catalog._tail_model.cache_info().misses == 2 * len(CATALOG_NAMES)
    for _ in range(2):
        with pytest.raises(UnsupportedOrderError):
            tail_of(DistributionSpec("cauchy"), 13)
        with pytest.raises(ParetoTailError, match="overflow"):
            tail_of(parse_distribution("student_t(400)"), 0)
    info = catalog._tail_model.cache_info()
    assert (info.misses, info.currsize) == (2 * len(CATALOG_NAMES) + 4, 2 * len(CATALOG_NAMES))
    assert info.maxsize is not None


def test_tail_models_keep_integer_and_float_parameters_apart():
    # equal specs with equal hashes, but an integer alpha gives an exact gap
    exact = tail_of(DistributionSpec("pareto", (2,)), 1)
    inexact = tail_of(DistributionSpec("pareto", (2.0,)), 1)
    assert DistributionSpec("pareto", (2,)) == DistributionSpec("pareto", (2.0,))
    assert type(exact.a) is Fraction and type(inexact.a) is float
