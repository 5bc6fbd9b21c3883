"""Quantile expansions near the upper endpoint for Pareto-type tails.

A tail model 1 - F(x) = x^{-alpha} * (c_0 + c_1 x^{-beta} + ...) is turned
into the expansion of {F^{-1}(u)}^theta in powers of (1-u)^a on the grid of
exponents i*a - psi, where a = beta/alpha and psi = theta/alpha.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction

from .inversion import invert_series
from .series import FormalSeries

__all__ = [
    "TailModel",
    "QuantilePowerSeries",
    "quantile_series",
]


def _exact_ratio(x, y):
    """x / y, a ``Fraction`` when both are integers (int / int is a float)."""
    if isinstance(x, numbers.Integral) and isinstance(y, numbers.Integral):
        return Fraction(x, y)
    return x / y


@dataclass(frozen=True)
class TailModel:
    """Upper-tail description (alpha, beta, c_0..c_m) with c_0 > 0."""

    alpha: float
    beta: float
    c: FormalSeries

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"tail index alpha must be positive, got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"gap beta must be positive, got {self.beta}")
        if not self.c[0] > 0:
            raise ValueError(f"leading tail coefficient must be positive, got {self.c[0]}")

    @property
    def a(self):
        """beta / alpha, a ``Fraction`` when both are integers."""
        return _exact_ratio(self.beta, self.alpha)

    @property
    def order(self) -> int:
        return self.c.order

    def rescaled(self, lam) -> "TailModel":
        """Tail of lam*X: c_i picks up the factor lam^(alpha + i*beta)."""
        coeffs = [
            lam ** (self.alpha + i * self.beta) * ci for i, ci in enumerate(self.c)
        ]
        return TailModel(self.alpha, self.beta, FormalSeries(coeffs))


@dataclass(frozen=True)
class QuantilePowerSeries:
    """{F^{-1}(u)}^theta = sum_i (1-u)^{i*a - psi} C_i."""

    theta: float
    psi: float
    a: float
    C: FormalSeries = field(compare=True)

    @property
    def order(self) -> int:
        return self.C.order

    def exponent(self, i: int):
        return i * self.a - self.psi


def quantile_series(tail: TailModel, theta) -> QuantilePowerSeries:
    """Quantile power series for {F^{-1}(u)}^theta built from a tail model.

    With v = 1-u, x = F^{-1}(u) and w = x^{-alpha}, the tail reads
    v/w = sum_i c_i w^{i*a}, so x^theta = w^{-psi} = (w/v)^{-psi} v^{-psi}
    and C_i = [v^{ia}] (w/v)^{-psi}: one reversion straight to the power
    -psi, from one table of Bell polynomial values.
    """
    psi = _exact_ratio(theta, tail.alpha)
    return QuantilePowerSeries(theta, psi, tail.a, invert_series(tail.c, tail.a, -psi))
