"""Quantile power series built from tail models."""

import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from paretotail.catalog import parse_distribution, tail_of
from paretotail.inversion import invert_series
from paretotail.quantile import TailModel, quantile_series
from paretotail.series import FormalSeries, series_multiply, series_power

tails = st.builds(
    TailModel,
    alpha=st.floats(0.5, 3.0),
    beta=st.floats(0.5, 3.0),
    c=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=6).map(
        lambda rest: FormalSeries([1.5] + rest)
    ),
)


def test_tail_model_validation():
    with pytest.raises(ValueError):
        TailModel(0.0, 1.0, FormalSeries([1.0]))
    with pytest.raises(ValueError):
        TailModel(1.0, -1.0, FormalSeries([1.0]))
    with pytest.raises(ValueError):
        TailModel(1.0, 1.0, FormalSeries([-1.0]))


def test_pareto_quantile_is_exact():
    tail = TailModel(1.0, 1.0, FormalSeries([1.0, 0.0, 0.0]))
    q = quantile_series(tail, 1.0)
    assert list(q.C) == pytest.approx([1.0, 0.0, 0.0])
    value = sum(ci * 0.1 ** q.exponent(i) for i, ci in enumerate(q.C))
    assert value == pytest.approx(10.0)


def test_leading_coefficients_closed_form():
    tail = TailModel(2.0, 3.0, FormalSeries([1.25, 0.4, -0.3, 0.1]))
    theta = 1.7
    psi = theta / tail.alpha
    a = tail.a
    c0, c1, c2 = tail.c[0], tail.c[1], tail.c[2]
    q = quantile_series(tail, theta)
    assert q.C[0] == pytest.approx(c0**psi, rel=1e-12)
    assert q.C[1] == pytest.approx(psi * c0 ** (psi - a - 1) * c1, rel=1e-12)
    want2 = psi * c0 ** (psi - 2 * a - 2) * (
        c0 * c2 + (psi - 2 * a - 1) * c1**2 / 2
    )
    assert q.C[2] == pytest.approx(want2, rel=1e-12)


@given(tails, st.floats(-2, 2), st.floats(0.5, 2.0))
@settings(max_examples=120, deadline=None)
def test_scale_equivariance(tail, theta, lam):
    base = quantile_series(tail, theta)
    scaled = quantile_series(tail.rescaled(lam), theta)
    for c_base, c_scaled in zip(base.C, scaled.C):
        assert c_scaled == pytest.approx(
            lam**theta * c_base, rel=1e-12, abs=1e-12
        )


@given(tails, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=120, deadline=None)
def test_power_consistency(tail, t1, t2):
    q1 = quantile_series(tail, t1)
    q2 = quantile_series(tail, t2)
    q12 = quantile_series(tail, t1 + t2)
    prod = series_multiply(q1.C, q2.C)
    for a, b in zip(prod, q12.C):
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_partial_sum_tracks_cot_quantile():
    # tail of 1/tan(pi v): alpha=1, beta=2, c_i = (-1)^i/((2i+1) pi)
    coeffs = [(-1.0) ** i / ((2 * i + 1) * math.pi) for i in range(7)]
    tail = TailModel(1.0, 2.0, FormalSeries(coeffs))
    q = quantile_series(tail, 1.0)
    for u in (0.99, 0.999):
        terms = [ci * (1.0 - u) ** q.exponent(i) for i, ci in enumerate(q.C)]
        value, last = sum(terms), abs(terms[-1])
        true = 1.0 / math.tan(math.pi * (1.0 - u))
        assert abs(value - true) <= 2.0 * last + 1e-12


def _two_step_quantile(tail, theta):
    """Revert at k = 1, then raise (1 + c_0 S(xstar))^(-psi) and scale by c_0^psi."""
    c0, psi = tail.c[0], theta / tail.alpha
    xstar = invert_series(tail.c, tail.a, 1)
    body = FormalSeries((0,) + xstar.coeffs[1:])
    return series_power(body, -psi, c0).scale(c0**psi)


def _rational_tail(beta, order, seed):
    rng = random.Random(seed)
    c = [Fraction(rng.randint(60, 140), 100)]
    c += [Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), 10 ** (i + 1)) for i in range(1, order + 1)]
    return TailModel(Fraction(1), Fraction(beta), FormalSeries(c))


@pytest.mark.parametrize(
    "tail",
    [
        _rational_tail(1, 10, 1),
        _rational_tail(2, 12, 2),
        TailModel(Fraction(1), Fraction(2), FormalSeries([Fraction((-1) ** i, 2 * i + 1) for i in range(13)])),
    ],
    ids=["beta1", "beta2", "cauchy_shape"],
)
@pytest.mark.parametrize("theta", [-2, -1, 1, 2])
def test_exact_one_pass_matches_two_step_route(tail, theta):
    q = quantile_series(tail, Fraction(theta))
    old = _two_step_quantile(tail, Fraction(theta))
    assert q.C == old
    assert all(type(c) is Fraction for c in q.C)


def test_float_cauchy_order_12_against_bernoulli():
    # C_i of cot(pi v) = (-1)^i 2^(2i) B_2i pi^(2i-1) / (2i)!; theta = 2 squares it
    one = [
        (-1) ** i * 2 ** (2 * i) * sp.bernoulli(2 * i) * sp.pi ** (2 * i - 1) / sp.factorial(2 * i)
        for i in range(13)
    ]
    two = sum(one[j] * one[12 - j] for j in range(13))
    tail = tail_of(parse_distribution("cauchy"), 12)
    for theta, want, bound in ((1.0, one[12], 0.2), (2.0, two, 0.02)):
        got = quantile_series(tail, theta).C[12]
        assert abs(got / float(want) - 1) < bound
