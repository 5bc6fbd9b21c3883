"""Exact finite-n moments of uniform order statistics.

E prod (1 - U_{n,r_i})^{theta_i} factorizes into beta-function ratios, one
per rank gap, each carrying the cumulative tail sum of the exponents.  The
n-dependence separates into a single gamma ratio, leaving an n-free factor
that drives the asymptotic expansions.

All rank arguments are integers here, so beta ratios are evaluated by the
pole-free product form; gamma ratios fall back to log-gamma only for
non-integer shifts.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InfiniteMomentError, UnsupportedOrderError
from .series import FormalSeries, rising_factorial, series_log

__all__ = [
    "RankSpec",
    "suffix_sums",
    "gamma_ratio",
    "beta_ratio",
    "joint_beta_moment",
    "n_free_factor",
    "gamma_ratio_coeffs",
]


@dataclass(frozen=True)
class RankSpec:
    """Sample size n and nondecreasing ranks r_1 <= ... <= r_k in [1, n]."""

    n: int
    r: tuple

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(self.r))
        if self.n < 1:
            raise ValueError(f"sample size must be >= 1, got {self.n}")
        prev = 1
        for ri in self.r:
            if not (prev <= ri <= self.n):
                raise ValueError(
                    f"ranks must be nondecreasing within [1, {self.n}], got {self.r}"
                )
            prev = ri

    @property
    def s(self) -> tuple:
        """Depths below the maximum: s_i = n - r_i."""
        return tuple(self.n - ri for ri in self.r)


def suffix_sums(theta: Sequence) -> tuple:
    """Cumulative sums from each index outward: out[i] = sum_{j >= i} theta[j]."""
    out = []
    acc = 0
    for t in reversed(tuple(theta)):
        acc = acc + t
        out.append(acc)
    return tuple(reversed(out))


def require_finite(alpha, s, theta, margin=0) -> None:
    """Refuse E prod X_{n,n-s_i}^theta_i when the upper tail makes it
    infinite: over nonincreasing depths s, it needs (s_i + 1) alpha to exceed
    the suffix sum thetabar_i by more than ``margin`` at every depth; a nan
    power is a ``ValueError``."""
    if any(t != t for t in theta):
        raise ValueError(f"theta must not be nan, got {tuple(theta)}")
    for si, tb in zip(s, suffix_sums(theta)):
        if not (si + 1) * alpha - tb > margin:
            raise InfiniteMomentError(
                f"moment infinite at depth {si}: (s + 1) alpha - cumulative "
                f"power = {(si + 1) * alpha - tb} <= {margin}"
            )


def _is_integral(x) -> bool:
    if isinstance(x, numbers.Integral):
        return True
    if isinstance(x, numbers.Rational):
        return x.denominator == 1
    if isinstance(x, float):
        return x.is_integer()
    return False


def gamma_ratio(x, t):
    """Gamma(x + t) / Gamma(x), stable across scalar types.

    An integral t (int, float or ``Fraction``) uses the plain product, so
    rational inputs give an exact ``Fraction`` (or int) without sympy, and a
    float t gives a float; other float arguments use log-gamma; anything
    else (sympy expressions, or a non-integral ``Fraction`` t, whose ratio is
    irrational) is handed to sympy's gamma.
    """
    if _is_integral(t):
        n = int(t)
        if isinstance(t, float):
            x = x + 0.0  # a float exponent keeps the product in float
        if n >= 0:
            out = rising_factorial(x, n)
        else:
            denom = rising_factorial(x + n, -n)
            if denom == 0:
                raise InfiniteMomentError(f"gamma ratio pole at Gamma({x}+{n})/Gamma({x})")
            out = Fraction(1, denom) if isinstance(denom, numbers.Integral) else 1 / denom
        # a Fraction t keeps an all-integer product a Fraction, so that a
        # caller's 1 / out stays exact instead of turning into a float
        return Fraction(out) if isinstance(t, Fraction) and isinstance(out, int) else out
    if isinstance(x, (int, float)) and isinstance(t, (int, float)):
        if x + t <= 0 or x <= 0:
            raise InfiniteMomentError(
                f"gamma ratio outside the positive domain: x={x}, t={t}"
            )
        return math.exp(math.lgamma(x + t) - math.lgamma(x))
    import sympy

    return sympy.gamma(x + t) / sympy.gamma(x)


def beta_ratio(alpha, beta, theta):
    """b(alpha, beta : theta) = B(alpha, beta + theta) / B(alpha, beta).

    This is the theta-th moment of a Beta(beta, alpha) variable, so it is
    declared infinite when beta + theta <= 0.  For integer alpha, beta the
    product form prod_{j=beta}^{alpha+beta-1} (1 + theta/j)^{-1} is used,
    in ``Fraction`` for an int or ``Fraction`` theta and in float for a float.
    """
    if _is_integral(alpha) and _is_integral(beta):
        alpha, beta = int(alpha), int(beta)
        if alpha < 0 or beta < 1:
            raise ValueError(f"need alpha >= 0 and beta >= 1, got ({alpha}, {beta})")
        if isinstance(theta, numbers.Real) and beta + theta <= 0:
            raise InfiniteMomentError(
                f"moment b({alpha}, {beta} : {theta}) is infinite (beta + theta <= 0)"
            )
        if _is_integral(theta) and not isinstance(theta, float):
            th = int(theta)
            out = Fraction(1)
            for j in range(beta, alpha + beta):
                out *= Fraction(j, j + th)
            return out
        out = 1
        for j in range(beta, alpha + beta):
            out = out * j / (j + theta)
        return out
    if not alpha > 0 or not beta > 0:
        raise ValueError(f"beta ratio needs alpha, beta > 0, got ({alpha}, {beta})")
    if beta + theta <= 0:
        raise InfiniteMomentError(
            f"moment b({alpha}, {beta} : {theta}) is infinite (beta + theta <= 0)"
        )
    return gamma_ratio(beta, theta) / gamma_ratio(alpha + beta, theta)


def merge_ties(r: Sequence[int], theta: Sequence):
    """Collapse tied ranks by summing their exponents."""
    out_r: list = []
    out_t: list = []
    for ri, ti in zip(r, theta):
        if out_r and ri == out_r[-1]:
            out_t[-1] = out_t[-1] + ti
        else:
            out_r.append(ri)
            out_t.append(ti)
    return tuple(out_r), tuple(out_t)


def joint_beta_moment(ranks: RankSpec, theta: Sequence):
    """E prod (1 - U_{n,r_i})^{theta_i} for uniform order statistics.

    Evaluates the product of beta ratios over rank gaps with the suffix sums
    of theta; tied ranks are merged first.
    """
    if len(theta) != len(ranks.r):
        raise ValueError(
            f"theta has {len(theta)} entries for {len(ranks.r)} ranks"
        )
    r, th = merge_ties(ranks.r, theta)
    tbar = suffix_sums(th)
    out = 1
    prev = 0
    for i, (ri, tb) in enumerate(zip(r, tbar)):
        si = ranks.n - ri
        if isinstance(tb, numbers.Real) and si + 1 + tb <= 0:
            raise InfiniteMomentError(
                f"moment infinite at index {i + 1}: n - r + 1 + thetabar = "
                f"{si + 1 + tb} <= 0"
            )
        out = out * beta_ratio(ri - prev, si + 1, tb)
        prev = ri
    return out


def n_free_factor(s: Sequence[int], theta: Sequence):
    """n-free factor B(s : thetabar) in the factorization
    b_n(r : thetabar) = B(s : thetabar) * n! / Gamma(n + 1 + thetabar_1).

    B(s : thetabar) = Gamma(s_1 + 1 + thetabar_1) / s_1!
                      * prod_{i>=2} b(s_{i-1} - s_i, s_i + 1 : thetabar_i)
    for nonincreasing depths s_1 >= ... >= s_k >= 0.
    """
    s = tuple(s)
    if len(theta) != len(s):
        raise ValueError(f"theta has {len(theta)} entries for {len(s)} depths")
    if any(s[i] < s[i + 1] for i in range(len(s) - 1)) or (s and s[-1] < 0):
        raise ValueError(f"depths must be nonincreasing and >= 0, got {s}")
    tbar = suffix_sums(theta)
    if isinstance(tbar[0], numbers.Real) and s[0] + 1 + tbar[0] <= 0:
        raise InfiniteMomentError(
            f"moment infinite: s_1 + 1 + thetabar_1 = {s[0] + 1 + tbar[0]} <= 0"
        )
    out = gamma_ratio(s[0] + 1, tbar[0])
    for i in range(1, len(s)):
        out = out * beta_ratio(s[i - 1] - s[i], s[i] + 1, tbar[i])
    return out


@functools.lru_cache(maxsize=None)
def _lambda_coeffs(order: int) -> tuple:
    """The nonzero (j, lambda_j) of log((1 - e^{-t})/t) = sum_j lambda_j t^j
    to t^order, exact and in float; lambda_j = 0 at odd j >= 3."""
    body = [0] + [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(1, order + 1)]
    exact = tuple((j, x) for j, x in enumerate(series_log(FormalSeries(body), 1)) if x)
    return exact, tuple((j, float(x)) for j, x in exact)


def gamma_ratio_coeffs(theta, imax: int) -> list:
    """e_0(theta) .. e_imax(theta) of n!/Gamma(n+1+theta) = n^{-theta} sum_i e_i n^{-i}:
    e_k = binom(-theta, k) B_k^(1-theta)(1) (Tricomi & Erdelyi, 1951) = (-1)^k (theta)_k h_k
    with h = exp(l), l(t) = (theta - 1) log((1 - e^{-t})/t) + theta t.  A float
    theta runs in float; any other (int, Fraction, sympy) in exact rationals."""
    if imax < 0:
        raise UnsupportedOrderError(f"imax must be >= 0, got {imax}")
    exact, approx = _lambda_coeffs(imax)
    # h_0 = 1 and h_m = (1/m) sum_j j l_j h_{m-j} over the nonzero
    # l_j = (theta - 1) lambda_j, plus theta at j = 1
    jl = [(j, j * ((theta - 1) * x + (theta if j == 1 else 0)))
          for j, x in (approx if isinstance(theta, float) else exact)]
    h = [1 + 0 * theta]
    out = [h[0]]
    poch = 1  # (-1)^m (theta)_m
    for m in range(1, imax + 1):
        acc = 0
        for j, c in jl:
            if j > m:
                break
            acc = acc + c * h[m - j]
        h.append(acc / m)
        poch = -poch * (theta + m - 1)
        out.append(poch * h[m])
    if isinstance(theta, float) and theta.is_integer() and 0 < -theta <= imax:
        out[int(-theta)] = 0.0  # e_p(-p) = 0, which float h_p misses by rounding
    return out

