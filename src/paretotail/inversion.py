"""Series reversion on a stretched exponent grid.

Given the forward relation v/u = sum_i x_i u^{i*a} with x_0 != 0, produce
the coefficients of (u/v)^k = sum_i xstar_i v^{i*a} for any real power k.
This is a Lagrange-Bürmann reversion in which every series lives on the
grid of powers of u^a or v^a, so coefficients can be indexed by the integer
i throughout.
"""

from __future__ import annotations

import math

from .errors import SingularInputError
from .series import BellTable, FormalSeries

__all__ = ["invert_series"]


def invert_series(x: FormalSeries, a, k) -> FormalSeries:
    """Coefficients xstar_0 .. xstar_m of (u/v)^k as a series in v^a.

    For each index i, with n = k + a*i,

        xstar_i = k * x_0^{-n} * sum_{j=1..i} (n+1)_{j-1} B_{ij}(x)
                  * (-x_0)^{-j} / j!

    and xstar_0 = x_0^{-k}.  The j = 0 term of the defining sum contributes
    only at i = 0.  The Lagrange-Bürmann formula (Comtet, Advanced
    Combinatorics, 1974, sec. 3.8) holds for every real k, k = 0 and n = 0
    included, from one table of Bell polynomial values.
    """
    if any(isinstance(y, float) and not math.isfinite(y) for y in (a, k)):
        raise ValueError(f"exponent gap a and power k must be finite, got a={a}, k={k}")
    x0 = x[0]
    if x0 == 0:
        raise SingularInputError("forward series has zero constant term")

    table = BellTable(x)
    m = x.order
    powers = [(-x0) ** (-j) for j in range(m + 1)]
    facts = [math.factorial(j) for j in range(m + 1)]
    out = [x0 ** (-k)]
    for i in range(1, m + 1):
        n = k + a * i
        n1 = n + 1
        rf = 1  # (n+1)_{j-1}, extended by one factor per j
        acc = 0
        for j in range(1, i + 1):
            if j > 1:
                rf = rf * (n1 + (j - 2))
            acc = acc + rf * table.value(i, j) * powers[j] / facts[j]
        out.append(k * x0 ** (-n) * acc)
    return FormalSeries(out)
