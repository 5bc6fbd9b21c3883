"""Series reversion on the stretched exponent grid."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretotail.errors import SingularInputError
from paretotail.inversion import invert_series
from paretotail.series import FormalSeries, series_general_power, series_multiply


def compose_identity_defect(x, a, k):
    """Relative coefficients of X(u^a)^k * Xstar(v^a) - 1 expressed in v^a.

    The forward relation v = u * sum x_i u^{ia} and its reversion
    (u/v)^k = sum xstar_i v^{ia} imply this product is exactly 1.  Each
    defect coefficient is scaled by the absolute mass of the cancelling
    convolution, so the bound is conditioning-free.
    """
    xstar = invert_series(x, a, k)
    g = series_general_power(xstar, a / k)  # G(t) with u^a = t * G(t)
    m = x.order
    # powers of G up to m
    gp = [FormalSeries([1] + [0] * m)]
    for _ in range(m):
        gp.append(series_multiply(gp[-1], g))
    # X(W(t)) coefficients: sum_i x_i t^i G(t)^i
    comp = [0] * (m + 1)
    for j in range(m + 1):
        comp[j] = sum(x[i] * gp[i][j - i] for i in range(j + 1))
    comp = FormalSeries(comp)
    powk = comp
    for _ in range(k - 1):
        powk = series_multiply(powk, comp)
    prod = series_multiply(powk, xstar)
    out = []
    for j in range(m + 1):
        mass = 1.0 + sum(
            abs(powk[i]) * abs(xstar[j - i]) for i in range(j + 1)
        )
        out.append((prod[j] - (1 if j == 0 else 0)) / mass)
    return out


def test_low_order_closed_forms():
    c0, c1, c2, c3 = (
        Fraction(3, 2),
        Fraction(1, 3),
        Fraction(-2, 5),
        Fraction(1, 7),
    )
    a = Fraction(2)
    x = FormalSeries([c0, c1, c2, c3])
    xs = invert_series(x, a, 1)
    assert xs[0] == c0**-1
    # first coefficient carries a minus sign
    assert xs[1] == -(c0 ** (-a - 2)) * c1
    assert xs[2] == c0 ** (-2 * a - 3) * (-c0 * c2 + (a + 1) * c1**2)
    # third coefficient is cubic in c1
    n3 = 1 + 3 * a
    expect3 = (
        -(c0 ** (-n3 - 3))
        * (
            c0**2 * c3
            - (n3 + 1) * c0 * c1 * c2
            + (n3 + 1) * (n3 + 2) * c1**3 / 6
        )
    )
    assert xs[3] == expect3


def test_rejects_singular_and_bad_k():
    with pytest.raises(SingularInputError):
        invert_series(FormalSeries([0, 1]), 1.0, 1)
    with pytest.raises(ValueError):
        invert_series(FormalSeries([1.0, 1.0]), 1.0, float("nan"))
    # k = 0 is the theta = 0 quantile: (u/v)^0 = 1
    assert list(invert_series(FormalSeries([2.0, 1.0]), 1.0, 0)) == [1.0, 0.0]


RATIONAL_X = FormalSeries(
    [Fraction(3, 2), Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7), Fraction(-3, 11), Fraction(2, 9)]
)


@pytest.mark.parametrize("k", [-2, -1, 2, 3])
def test_integer_power_matches_power_of_reversion(k):
    x, a = RATIONAL_X, Fraction(2)
    # a Fraction power keeps the binomials of series_general_power exact
    assert invert_series(x, a, k) == series_general_power(invert_series(x, a, 1), Fraction(k))


def test_real_power_matches_power_of_reversion():
    x, a = RATIONAL_X, Fraction(2)
    got = invert_series(x, a, 0.7)
    want = series_general_power(invert_series(x, a, 1), 0.7)
    assert list(got) == pytest.approx(list(want), rel=1e-12, abs=0)


@given(
    st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=8),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.integers(1, 3),
    st.floats(0.5, 2.0),
)
@settings(max_examples=100, deadline=None)
def test_roundtrip_identity(tail, a, k, c0):
    x = FormalSeries([c0] + tail)
    defect = compose_identity_defect(x, a, k)
    assert max(abs(d) for d in defect) < 1e-9


def test_pareto_style_inversion_is_exact():
    # single-term tail: (u/v)^k = x0^{-k} exactly, no corrections
    x = FormalSeries([2.0, 0.0, 0.0, 0.0])
    xs = invert_series(x, 1.5, 2)
    assert list(xs) == [2.0**-2, 0.0, 0.0, 0.0]


def test_numpy_scalars_flow_through():
    x = FormalSeries([np.float64(1.5), np.float64(0.2), np.float64(-0.1)])
    xs = invert_series(x, 1.0, 1)
    assert isinstance(float(xs[1]), float)
