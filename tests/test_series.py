"""Formal series kernel: Bell table, power and log transforms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paretotail.errors import SingularInputError, UnsupportedOrderError
from paretotail.series import (
    BellTable,
    FormalSeries,
    binomial_coefficient,
    falling_factorial,
    rising_factorial,
    series_general_power,
    series_log,
    series_multiply,
    series_power,
)

coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
small_series = st.lists(coeff, min_size=2, max_size=7).map(FormalSeries)


def brute_power_coeff(x, r, i):
    """Coefficient of t^r in (x_1 t + ... )^i by direct convolution."""
    acc = [1] + [0] * x.order
    for _ in range(i):
        new = [0] * (x.order + 1)
        for p in range(x.order + 1):
            for q in range(1, x.order + 1 - p):
                new[p + q] += acc[p] * x[q]
        acc = new
    return acc[r]


def test_factorial_powers():
    assert rising_factorial(3, 4) == 3 * 4 * 5 * 6
    assert falling_factorial(3, 3) == 6
    assert rising_factorial(0.5, 0) == 1
    assert binomial_coefficient(5, 2) == 10
    assert binomial_coefficient(-1, 3) == -1
    with pytest.raises(ValueError):
        rising_factorial(2, -1)


@given(small_series, st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=100)
def test_bell_matches_brute_force(x, r, i):
    if not (0 <= i <= r <= x.order):
        with pytest.raises(UnsupportedOrderError):
            BellTable(x).value(r, i)
        return
    got = BellTable(x).value(r, i)
    want = brute_power_coeff(x, r, i)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_series_is_immutable():
    x = FormalSeries([1.0, 2.0])
    with pytest.raises(AttributeError):
        x.coeffs = (0.0,)
    assert x.truncate(0) == FormalSeries([1.0])
    with pytest.raises(UnsupportedOrderError):
        x.truncate(5)


def test_log_matches_analytic_composition():
    # log(1 + S) for S = t expanded directly: t - t^2/2 + t^3/3 - t^4/4
    x = FormalSeries([Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    got = series_log(x, Fraction(1))
    want = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)]
    assert list(got) == want
    # the r = i = 3 coefficient of log(1 + x1 t) is x1^3/3, not x1^3/6
    y = series_log(FormalSeries([Fraction(0), Fraction(2), 0, 0]), Fraction(1))
    assert y[3] == Fraction(8, 3)


@given(small_series, st.floats(min_value=-1.5, max_value=1.5))
@settings(max_examples=100)
def test_exp_log_roundtrip(x, lam):
    # exp(L) = 1 + lam S for L = log(1 + lam S), differentiated so that no
    # exp is needed: (1 + lam S) L' = lam S'
    body = FormalSeries((0.0,) + x.coeffs[1:])
    logd = series_log(body, lam)
    dlog = FormalSeries([(r + 1) * logd[r + 1] for r in range(body.order)])
    lhs = series_multiply(series_power(body, 1.0, lam), dlog)
    rhs = [lam * (r + 1) * body[r + 1] for r in range(body.order)]
    for a, b in zip(lhs, rhs):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


@given(small_series, st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=100)
def test_power_addition_law(x, p, q):
    body = FormalSeries((0.0,) + x.coeffs[1:])
    table = BellTable(body)
    lhs = series_multiply(
        series_power(body, p, 0.5, table), series_power(body, q, 0.5, table)
    )
    rhs = series_power(body, p + q, 0.5, table)
    for a, b in zip(lhs, rhs):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_general_power_rejects_zero_constant():
    with pytest.raises(SingularInputError):
        series_general_power(FormalSeries([0.0, 1.0]), 2.0)


def test_general_power_square():
    x = FormalSeries([2.0, 1.0, 3.0])
    sq = series_general_power(x, 2)
    assert list(sq) == pytest.approx([4.0, 4.0, 13.0])

