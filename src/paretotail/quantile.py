"""Quantile expansions near the upper endpoint for Pareto-type tails.

A tail model 1 - F(x) = x^{-alpha} * (c_0 + c_1 x^{-beta} + ...) is turned
into the expansion of {F^{-1}(u)}^theta in powers of (1-u)^a on the grid of
exponents i*a - psi, where a = beta/alpha and psi = theta/alpha.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import SingularInputError
from .inversion import invert_series
from .series import FormalSeries, series_power

__all__ = [
    "TailModel",
    "QuantilePowerSeries",
    "quantile_series",
    "quantile_from_known",
    "eval_quantile_partial",
]


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
        if isinstance(self.alpha, numbers.Integral) and isinstance(self.beta, numbers.Integral):
            return Fraction(self.beta, self.alpha)
        return self.beta / self.alpha

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

    Reverts the tail series at k = 1, then raises the reverted series to the
    power -psi: C_i = c_0^psi * [ (1 + c_0*S(xstar))^{-psi} ]_i.
    """
    c0 = tail.c[0]
    psi = theta / tail.alpha
    xstar = invert_series(tail.c, tail.a, 1)
    body = FormalSeries((0,) + xstar.coeffs[1:])
    chat = series_power(body, -psi, c0)
    return QuantilePowerSeries(theta, psi, tail.a, chat.scale(c0**psi))


def quantile_from_known(d: FormalSeries, alpha, a, theta) -> QuantilePowerSeries:
    """Rebase known theta=1 quantile coefficients d_i to an arbitrary power.

    C_i = d_0^theta * [ (1 + S(d)/d_0)^theta ]_i, bypassing the tail model.
    """
    d0 = d[0]
    if d0 == 0:
        raise SingularInputError("known quantile series has zero leading coefficient")
    body = FormalSeries((0,) + d.coeffs[1:])
    chat = series_power(body, theta, 1 / (d0 * 1))
    return QuantilePowerSeries(theta, theta / alpha, a, chat.scale(d0**theta))


def eval_quantile_partial(q: QuantilePowerSeries, u: float):
    """Partial sum of the quantile series at u, with a truncation indicator.

    Returns (value, |last retained nonzero term|).
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    v = 1.0 - u
    total = 0.0
    last = 0.0
    for i, ci in enumerate(q.C):
        term = ci * v ** (i * q.a - q.psi)
        total += term
        if term != 0.0:
            last = abs(term)
    return total, last
