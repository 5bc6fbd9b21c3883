"""Distribution catalog: tail coefficients, quantiles, samplers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from paretotail import catalog
from paretotail.catalog import (
    CATALOG_NAMES,
    DistributionSpec,
    cdf,
    make_rng,
    parse_distribution,
    sample,
    sample_top,
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
    assert not DistributionSpec("stable", (0.5, 0.0)).has_sampler
    assert DistributionSpec("cauchy").two_sided
    assert DistributionSpec("student_t", (3.0,)).two_sided
    assert DistributionSpec("stable", (0.5, 0.0)).two_sided
    assert not DistributionSpec("stable", (0.5, -0.5)).two_sided
    assert not DistributionSpec("f_dist", (3.0, 5.0)).two_sided
    with pytest.raises(CapabilityError):
        upper_quantile(DistributionSpec("stable", (0.5, -0.5)), 0.1)
    with pytest.raises(CapabilityError):
        sample(DistributionSpec("stable", (0.5, 0.0)), make_rng(1), 2)
    with pytest.raises(UnsupportedOrderError):
        tail_of(DistributionSpec("cauchy"), 13)


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


def sorted_top(dist, rng, reps, n, k):
    """The k largest of each row of ``sample``, descending: what sample_top
    must return bit for bit."""
    with np.errstate(all="ignore"):
        draws = sample(dist, rng, (reps, n))
    return np.sort(np.partition(draws, n - k, axis=1)[:, n - k :], axis=1)[:, ::-1]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("alpha", [0.01, 0.15, 0.5, 0.9, 0.99])
def test_sample_top_matches_sorted_sample(alpha):
    # at 0.99 the sampler's powers underflow near u = 0 and some draws are
    # inf or nan; those must come through as well
    dist = DistributionSpec("stable", (alpha, -alpha))
    for n, k in ((1, 1), (5, 1), (5, 5), (200, 1), (200, 5)):
        for seed in (1, 2, 3):
            want = sorted_top(dist, make_rng(seed), 300, n, k)
            with np.errstate(all="ignore"):
                got = sample_top(dist, make_rng(seed), 300, n, k)
            assert same_bits(got, want), (n, k, seed)


def test_top_sampler_draws_are_fresh_arrays():
    # one sampler reuses its work arrays across draws; no result may be a
    # view of them, so a later draw leaves an earlier result unchanged
    dist = parse_distribution("stable(0.5,-0.5)")
    draw = catalog._top_sampler(dist, 300, 50, 5)
    first = draw(make_rng(1))
    kept = first.copy()
    second = draw(make_rng(2))
    assert same_bits(first, kept)
    assert same_bits(first, sample_top(dist, make_rng(1), 300, 50, 5))
    assert same_bits(second, sample_top(dist, make_rng(2), 300, 50, 5))
    assert not np.shares_memory(first, second)


def test_sample_top_other_laws_and_errors():
    dist = parse_distribution("frechet(2)")
    got = sample_top(dist, make_rng(4), 50, 30, 3)
    assert same_bits(got, sorted_top(dist, make_rng(4), 50, 30, 3))
    with pytest.raises(CapabilityError):
        sample_top(DistributionSpec("stable", (0.5, 0.0)), make_rng(1), 10, 20, 2)
    with pytest.raises(ValueError):
        sample_top(dist, make_rng(1), 10, 20, 21)


def test_sample_top_evaluates_few_draws(monkeypatch):
    sizes = []
    kanter = catalog._kanter

    def counting(alpha, u):
        sizes.append(np.size(u))
        return kanter(alpha, u)

    monkeypatch.setattr(catalog, "_kanter", counting)
    reps, k = 400, 5
    sample_top(parse_distribution("stable(0.5,-0.5)"), make_rng(1), reps, 200, k)
    table = catalog._KANTER_BINS + 1
    assert sum(sizes) - table < 3 * k * reps


@pytest.mark.parametrize("alpha", [0.01, 0.15, 0.5, 0.9, 0.99])
def test_kanter_table_is_nondecreasing(alpha):
    catalog._load_numpy()
    edges = np.arange(1, catalog._KANTER_BINS + 1) * (np.pi / catalog._KANTER_BINS)
    with np.errstate(all="ignore"):
        a = catalog._kanter(alpha, edges)
    a = a[np.isfinite(a)]
    assert len(a) >= catalog._KANTER_BINS - 1
    assert np.all(np.diff(a) >= 0)
    lo, hi = catalog._kanter_bounds(alpha)
    assert np.all(lo <= hi)
    assert np.all(np.diff(hi[np.isfinite(hi)]) >= 0)
    assert np.all(np.diff(lo[lo > 0]) >= 0)


def test_inverse_cdf_samplers_match_cdf():
    rng_seed = 11
    for text in ("pareto(2)", "cauchy", "frechet(1.5)", "student_t(4)"):
        dist = parse_distribution(text)
        draws = np.asarray(sample(dist, make_rng(rng_seed), 100_000))
        for q in (0.25, 0.75, 0.95):
            x = float(upper_quantile(dist, 1 - q))
            got = float(np.mean(draws <= x))
            assert got == pytest.approx(q, abs=4 / math.sqrt(len(draws))), text


def test_quantile_cdf_roundtrip():
    for text in ("pareto(1.5)", "cauchy", "frechet(2)", "f_dist(3,5)"):
        dist = parse_distribution(text)
        for u in (0.3, 0.9, 0.999):
            x = float(upper_quantile(dist, 1 - u))
            assert cdf(dist, x) == pytest.approx(u, rel=1e-9)


def test_make_rng_streams():
    a = make_rng(3, 0).random(4)
    b = make_rng(3, 0).random(4)
    c = make_rng(3, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_catalog_names_round_trip():
    for name in CATALOG_NAMES:
        assert parse_distribution(str_default(name)).name == name


def str_default(name):
    defaults = {
        "pareto": "pareto(1)",
        "cauchy": "cauchy",
        "student_t": "student_t(3)",
        "f_dist": "f_dist(3,5)",
        "stable": "stable(0.5,-0.5)",
        "frechet": "frechet(1)",
    }
    return defaults[name]


def test_tail_models_are_built_once_and_errors_are_not_cached(monkeypatch):
    calls = []
    coefficients = catalog._tail_coefficients

    def counting(*args):
        calls.append(args)
        return coefficients(*args)

    monkeypatch.setattr(catalog, "_tail_coefficients", counting)
    catalog._tail_model.cache_clear()
    for name in CATALOG_NAMES:
        dist = parse_distribution(catalog._LAWS[name][0])
        for k in (0, 3):
            assert tail_of(dist, k) is tail_of(dist, k)
    assert len(calls) == 2 * len(CATALOG_NAMES)
    for _ in range(2):
        with pytest.raises(UnsupportedOrderError):
            tail_of(DistributionSpec("cauchy"), 13)
        with pytest.raises(ParetoTailError, match="overflow"):
            tail_of(parse_distribution("student_t(400)"), 0)
    assert catalog._tail_model.cache_info().maxsize is not None


def test_tail_models_keep_integer_and_float_parameters_apart():
    # equal specs with equal hashes, but an integer alpha gives an exact gap
    exact = tail_of(DistributionSpec("pareto", (2,)), 1)
    inexact = tail_of(DistributionSpec("pareto", (2.0,)), 1)
    assert DistributionSpec("pareto", (2,)) == DistributionSpec("pareto", (2.0,))
    assert type(exact.a) is Fraction and type(inexact.a) is float
