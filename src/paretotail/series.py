"""Truncated formal power series and partial ordinary Bell polynomials.

A series S = x_1 t + x_2 t^2 + ... + x_m t^m (the constant slot x_0 is
carried but ignored by the transforms below) is the common currency for
powers and logs of series, and for the tail inversion built on top of
them.

Coefficients are plain Python scalars: float in the default build,
``fractions.Fraction`` or sympy expressions in the exact referee mode used
by the test suite.  Everything here is written as products and ratios of
factorial powers so that all three scalar types flow through unchanged.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import SingularInputError, UnsupportedOrderError

__all__ = [
    "FormalSeries",
    "BellTable",
    "rising_factorial",
    "falling_factorial",
    "binomial_coefficient",
    "series_power",
    "series_log",
    "series_multiply",
    "series_general_power",
]


def rising_factorial(x, i: int):
    """(x)_i = x (x+1) ... (x+i-1), an empty product for i = 0."""
    if i < 0:
        raise ValueError(f"rising factorial needs i >= 0, got {i}")
    out = 1
    for j in range(i):
        out = out * (x + j)
    return out


def falling_factorial(x, i: int):
    """<x>_i = x (x-1) ... (x-i+1), an empty product for i = 0."""
    if i < 0:
        raise ValueError(f"falling factorial needs i >= 0, got {i}")
    out = 1
    for j in range(i):
        out = out * (x - j)
    return out


def binomial_coefficient(alpha, i: int):
    """Generalized binomial (alpha choose i) = <alpha>_i / i!."""
    return falling_factorial(alpha, i) / math.factorial(i)


class FormalSeries:
    """Immutable truncated series: coefficients x_0 .. x_m of t^0 .. t^m."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        for c in coeffs:
            if isinstance(c, float) and not math.isfinite(c):
                raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, j):
        return self.coeffs[j]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, FormalSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"FormalSeries({list(self.coeffs)!r})"

    def truncate(self, order: int) -> "FormalSeries":
        if order > self.order:
            raise UnsupportedOrderError(
                f"cannot extend a series of order {self.order} to {order}"
            )
        return FormalSeries(self.coeffs[: order + 1])

    def scale(self, factor) -> "FormalSeries":
        return FormalSeries([factor * c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FormalSeries):
            return series_multiply(self, other)
        return NotImplemented


class BellTable:
    """Triangular table of partial ordinary Bell polynomial values B_{ri}(x).

    Built once per input series by the convolution recurrence
    B_{ri} = sum_{j>=1} x_j B_{r-j, i-1}, with B_{r0} = delta_{r0}.
    """

    def __init__(self, x: FormalSeries):
        c = x.coeffs
        m = len(c) - 1
        rows = [[0] * (m + 1) for _ in range(m + 1)]
        rows[0][0] = 1
        for i in range(1, m + 1):
            for r in range(i, m + 1):
                acc = 0
                for j in range(1, r - i + 2):
                    acc = acc + c[j] * rows[r - j][i - 1]
                rows[r][i] = acc
        self.order = m
        self._rows = rows

    def value(self, r: int, i: int):
        if not (0 <= i <= r <= self.order):
            raise UnsupportedOrderError(
                f"Bell index (r={r}, i={i}) outside triangle of order {self.order}"
            )
        return self._rows[r][i]


def series_power(x: FormalSeries, alpha, lam, table: BellTable | None = None) -> FormalSeries:
    """(1 + lam*S)^alpha as a series: coefficient r is
    sum_i B_{ri}(x) (alpha choose i) lam^i."""
    if table is None:
        table = BellTable(x)
    m = x.order
    binoms = [binomial_coefficient(alpha, i) for i in range(m + 1)]
    lams = [lam**i for i in range(m + 1)]
    out = []
    for r in range(m + 1):
        acc = 1 if r == 0 else 0
        for i in range(1, r + 1):
            acc = acc + table.value(r, i) * binoms[i] * lams[i]
        out.append(acc)
    return FormalSeries(out)


def series_log(x: FormalSeries, lam, table: BellTable | None = None) -> FormalSeries:
    """log(1 + lam*S) as a series; the constant slot is 0.

    Coefficient r is -sum_i B_{ri}(x) (-lam)^i / i, the composition of the
    analytic log expansion with S.
    """
    if table is None:
        table = BellTable(x)
    out = [0]
    for r in range(1, x.order + 1):
        acc = 0
        for i in range(1, r + 1):
            acc = acc + table.value(r, i) * (-lam) ** i / i
        out.append(-acc)
    return FormalSeries(out)


def series_multiply(x: FormalSeries, y: FormalSeries) -> FormalSeries:
    """Truncated product; the result is valid to min(order x, order y)."""
    m = min(x.order, y.order)
    out = []
    for r in range(m + 1):
        acc = 0
        for j in range(r + 1):
            acc = acc + x[j] * y[r - j]
        out.append(acc)
    return FormalSeries(out)


def series_general_power(x: FormalSeries, p) -> FormalSeries:
    """x^p for a series with nonzero constant term: x_0^p (1 + S/x_0)^p."""
    x0 = x[0]
    if x0 == 0:
        raise SingularInputError("general power needs a nonzero constant term")
    tail = FormalSeries((0,) + x.coeffs[1:])
    return series_power(tail, p, 1 / (x0 * 1)).scale(x0**p)
