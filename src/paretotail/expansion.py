"""Asymptotic expansions for joint moments of top order statistics.

For X_{n,n-s_i} from a Pareto-type tail, the raw joint moment
E prod X_{n,n-s_i}^{theta_i} expands as

    n^{psibar_1} * sum_{i,j} e_i(j*a - psibar_1) * C_j(s : psi) * n^{-i-j*a}

where the C_j collect quantile-series coefficients against the n-free beta
factor, and the e_i come from the gamma-ratio asymptotic series.  The
normalized variables Y_{ns} = X_{n,n-s} / (n c_0)^{1/alpha} are obtained by
an exact final rescaling of the same terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .betamoments import (
    falling_general,
    beta_ratio,
    gamma_ratio_coeffs,
    n_free_factor,
    suffix_sums,
)
from .errors import InfiniteMomentError, UnsupportedOrderError
from .quantile import QuantilePowerSeries, TailModel, quantile_series

__all__ = [
    "MomentQuery",
    "ExpansionSeries",
    "CovarianceReport",
    "cj_coeff",
    "moment_expansion",
    "normalized_moment_expansion",
    "dm_coeffs",
    "mean_expansion",
    "pair_moment_expansion",
    "covariance_expansion",
    "third_cumulant_expansion",
    "leading_product_moment",
]


@dataclass(frozen=True)
class MomentQuery:
    """Identifies E prod X_{n,n-s_i}^{theta_i} and its truncation orders."""

    tail: TailModel
    s: tuple
    theta: tuple
    imax: int = 7
    jmax: int = 2

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(self.s))
        object.__setattr__(self, "theta", tuple(self.theta))
        if len(self.s) != len(self.theta):
            raise ValueError("s and theta must have the same length")
        if any(self.s[i] < self.s[i + 1] for i in range(len(self.s) - 1)):
            raise ValueError(f"depths must be nonincreasing, got {self.s}")
        if self.s and self.s[-1] < 0:
            raise ValueError(f"depths must be >= 0, got {self.s}")
        if self.jmax > self.tail.order:
            raise UnsupportedOrderError(
                f"jmax={self.jmax} exceeds the tail model order {self.tail.order}"
            )
        tbar = suffix_sums(self.theta)
        for si, tb in zip(self.s, tbar):
            if not tb < (si + 1) * self.tail.alpha:
                raise InfiniteMomentError(
                    f"moment infinite: cumulative power {tb} >= "
                    f"(s+1)*alpha = {(si + 1) * self.tail.alpha} at depth {si}"
                )

    @property
    def k(self) -> int:
        return len(self.s)

    @property
    def psi(self) -> tuple:
        return tuple(t / self.tail.alpha for t in self.theta)

    @property
    def psibar1(self):
        return sum(self.psi)


@dataclass(frozen=True)
class ExpansionSeries:
    """lead exponent plus a map (i, j) -> coefficient of n^{lead - i - j*a}.

    ``remainder_order`` is the exponent (relative to the lead) of the first
    omitted correction, used by convergence-rate probes.
    """

    lead: float
    a: float
    terms: dict = field(compare=False)
    remainder_order: float = math.inf

    def order_of(self, i: int, j: int):
        return i + j * self.a

    def evaluate(self, n: int):
        """Partial-sum value at n plus the magnitude of the smallest-order
        retained nonzero correction."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        total = 0.0
        last = 0.0
        last_order = -1.0
        for (i, j), coeff in sorted(self.terms.items(), key=lambda kv: self.order_of(*kv[0])):
            term = coeff * float(n) ** (self.lead - i - j * self.a)
            total += term
            o = self.order_of(i, j)
            if coeff != 0 and o > last_order:
                last_order = o
                last = abs(term)
        if last_order <= 0:
            last = 0.0
        return total, last

    def rescaled(self, factor, lead_shift=0.0) -> "ExpansionSeries":
        terms = {ij: factor * c for ij, c in self.terms.items()}
        return ExpansionSeries(self.lead + lead_shift, self.a, terms, self.remainder_order)

    def truncated(self, max_order) -> "ExpansionSeries":
        """Keep terms with i + j*a <= max_order; retag the remainder order."""
        kept = {ij: c for ij, c in self.terms.items() if self.order_of(*ij) <= max_order}
        dropped = [
            self.order_of(*ij)
            for ij, c in self.terms.items()
            if self.order_of(*ij) > max_order and c != 0
        ]
        rem = min(dropped) if dropped else self.remainder_order
        rem = min(rem, self.remainder_order)
        return ExpansionSeries(self.lead, self.a, kept, rem)


@dataclass(frozen=True)
class CovarianceReport:
    """Covar(Y_{ns1}, Y_{ns2}) = F0 + F1/n + Ec*F2/n^a + O(n^{-2*a0})."""

    F0: float
    F1: float
    F2: float
    Ec: float
    B20: float
    Da: float
    a: float
    a0: float

    def evaluate(self, n: int) -> float:
        return self.F0 + self.F1 / n + self.Ec * self.F2 * float(n) ** (-self.a)


def _quantile_tables(query: MomentQuery) -> list[QuantilePowerSeries]:
    """One quantile series per entry of theta, built once per distinct power.

    The key carries the type, so that 1 and 1.0 (equal, with equal hashes)
    do not share a series of the wrong scalar type.
    """
    built = {}
    for t in query.theta:
        key = (type(t), t)
        if key not in built:
            built[key] = quantile_series(query.tail, t)
    return [built[(type(t), t)] for t in query.theta]


def cj_coeff(query: MomentQuery, j: int, tables=None):
    """C_j(s : psi): sum over compositions i_1 + ... + i_k = j of the
    quantile-coefficient product against the n-free beta factor."""
    if j > query.jmax:
        raise UnsupportedOrderError(f"j={j} exceeds jmax={query.jmax}")
    if tables is None:
        tables = _quantile_tables(query)
    a = query.tail.a
    psi = query.psi
    k = query.k
    total = 0
    for comp in _compositions(j, k):
        prod = 1
        for m in range(k):
            prod = prod * tables[m].C[comp[m]]
        tau = tuple(comp[m] * a - psi[m] for m in range(k))
        total = total + prod * n_free_factor(query.s, tau)
    return total


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def moment_expansion(query: MomentQuery) -> ExpansionSeries:
    """Full (i, j) term grid for the raw moment E prod X_{n,n-s_i}^{theta_i}."""
    tables = _quantile_tables(query)
    psibar1 = query.psibar1
    a = query.tail.a
    terms = {}
    for j in range(query.jmax + 1):
        cj = cj_coeff(query, j, tables)
        es = gamma_ratio_coeffs(j * a - psibar1, query.imax)
        for i, ei in enumerate(es):
            terms[(i, j)] = ei * cj
    remainder = min(query.imax + 1, (query.jmax + 1) * a)
    return ExpansionSeries(psibar1, a, terms, remainder)


def normalized_moment_expansion(query: MomentQuery) -> ExpansionSeries:
    """Expansion of E prod Y_{n,s_i}^{theta_i} with Y = X/(n c_0)^{1/alpha}."""
    raw = moment_expansion(query)
    c0 = query.tail.c[0]
    psibar1 = query.psibar1
    return raw.rescaled(c0 ** (-psibar1), lead_shift=-psibar1)


def dm_coeffs(query: MomentQuery, M: int, N: int, mmax: int) -> list:
    """Regrouped coefficients d_m of the single-index expansion in n^{-1/N}
    when a = M/N in lowest terms: d_m = sum{e_i(ja - psibar_1) C_j : iN + jM = m}."""
    if M < 1 or N < 1 or math.gcd(M, N) != 1:
        raise ValueError(f"need a = M/N in lowest terms, got M={M}, N={N}")
    a = query.tail.a
    if abs(a - Fraction(M, N)) > 1e-12:
        raise ValueError(f"a = {a} does not equal {M}/{N}")
    if mmax > N * query.imax:
        raise UnsupportedOrderError(
            f"mmax={mmax} exceeds N*imax = {N * query.imax}"
        )
    tables = _quantile_tables(query)
    psibar1 = query.psibar1
    cjs = {}
    es = {}
    out = []
    for m in range(mmax + 1):
        acc = 0
        for j in range(min(m // M, query.jmax) + 1):
            rem = m - j * M
            if rem % N:
                continue
            i = rem // N
            if i > query.imax:
                continue
            if j not in cjs:
                cjs[j] = cj_coeff(query, j, tables)
                es[j] = gamma_ratio_coeffs(j * a - psibar1, query.imax)
            acc = acc + es[j][i] * cjs[j]
        out.append(acc)
    return out


def mean_expansion(tail: TailModel, s: int, imax: int = 7, jmax: int = 2) -> ExpansionSeries:
    """Expansion of E Y_{ns} for Y_{ns} = X_{n,n-s} / (n c_0)^{1/alpha}."""
    lam = 1 / tail.alpha
    if not s > lam - 1:
        raise InfiniteMomentError(f"mean infinite: need s > 1/alpha - 1, got s={s}")
    q = MomentQuery(tail, (s,), (1,), imax=imax, jmax=jmax)
    return normalized_moment_expansion(q)


def pair_moment_expansion(
    tail: TailModel, s1: int, s2: int, imax: int = 7, jmax: int = 2
) -> ExpansionSeries:
    """Expansion of E Y_{ns1} Y_{ns2} for s1 >= s2."""
    lam = 1 / tail.alpha
    if s1 < s2:
        raise ValueError(f"need s1 >= s2, got ({s1}, {s2})")
    if not (s1 > 2 * lam - 1 and s2 > lam - 1):
        raise InfiniteMomentError(
            f"product moment infinite: need s1 > 2/alpha - 1 and s2 > 1/alpha - 1, "
            f"got ({s1}, {s2}) with alpha={tail.alpha}"
        )
    q = MomentQuery(tail, (s1, s2), (1, 1), imax=imax, jmax=jmax)
    return normalized_moment_expansion(q)


def pi_s(s1: int, s2: int, lam):
    """pi_s(lam) = b(s1 - s2, s2 + 1 : lam)."""
    return beta_ratio(s1 - s2, s2 + 1, lam)


def covariance_expansion(tail: TailModel, s1: int, s2: int) -> CovarianceReport:
    """Leading covariance terms of the normalized top order statistics.

    Derived by subtracting the product of the two mean displays from the
    pair-moment display; the tail-driven correction enters at n^{-a}.
    """
    lam = 1 / tail.alpha
    a = tail.a
    if s1 < s2:
        raise ValueError(f"need s1 >= s2, got ({s1}, {s2})")
    if not (s1 > 2 * lam - 1 and s2 > lam - 1):
        raise InfiniteMomentError(
            f"covariance undefined: need s1 > 2/alpha - 1 and s2 > 1/alpha - 1, "
            f"got ({s1}, {s2}) with alpha={tail.alpha}"
        )
    c0, c1 = tail.c[0], tail.c[1] if tail.order >= 1 else 0.0
    Ec = lam * c0 ** (-a - 1) * c1
    B20 = pi_s(s1, s2, -lam) / falling_general(s1, 2 * lam)
    Da = (pi_s(s1, s2, -lam) + pi_s(s1, s2, a - lam)) / falling_general(s1, 2 * lam - a)
    f1 = 1 / falling_general(s1, lam)
    f2 = 1 / falling_general(s2, lam)
    g1 = 1 / falling_general(s1, lam - a)
    g2 = 1 / falling_general(s2, lam - a)
    F0 = B20 - f1 * f2
    F1 = falling_general(lam, 2) * f1 * f2 - falling_general(2 * lam, 2) * B20 / 2
    F2 = Da - f1 * g2 - g1 * f2
    return CovarianceReport(F0, F1, F2, Ec, B20, Da, a, min(a, 1 + 0 * a))


def _require_unit_alpha(tail: TailModel):
    if tail.alpha != 1:
        raise ValueError(f"this display requires alpha = 1, got {tail.alpha}")


def leading_product_moment(s: Sequence[int], tail: TailModel):
    """(m0, m1, ma) in E prod Y_{n,s_i} = m0 + m1/n + ma/n^a + O(n^{-2*a0})
    for alpha = 1 tails.

    m0 = B(s : -1bar); m1 = -<k>_2/2 * m0; ma = Ec * sum_j B(s : a I_j - 1bar).
    """
    _require_unit_alpha(tail)
    s = tuple(s)
    k = len(s)
    if any(s[i] < s[i + 1] for i in range(k - 1)):
        raise ValueError(f"depths must be nonincreasing, got {s}")
    for i, si in enumerate(s):
        if not si > k - (i + 1):
            raise InfiniteMomentError(
                f"product moment infinite: need s_i > k - i, got s={s}"
            )
    a = tail.a
    c0, c1 = tail.c[0], tail.c[1] if tail.order >= 1 else 0.0
    Ec = c0 ** (-a - 1) * c1
    m0 = n_free_factor(s, (-1,) * k)
    m1 = -falling_general(k, 2) * m0 / 2
    bkdot = 0
    for j in range(1, k + 1):
        tau = tuple(a - 1 if m == j else -1 for m in range(1, k + 1))
        bkdot = bkdot + n_free_factor(s, tau)
    return m0, m1, Ec * bkdot


def _sym3(f, s1, s2, s3):
    """Sum of f(a, {b, c}) over the three splits of {s1, s2, s3}."""
    return f(s1, s2, s3) + f(s2, s3, s1) + f(s3, s1, s2)


def third_cumulant_expansion(s1: int, s2: int, s3: int, tail: TailModel):
    """(kappa0, kappa1, kappa_a) for the third joint cumulant of
    (Y_{ns1}, Y_{ns2}, Y_{ns3}) at alpha = 1, s1 >= s2 >= s3.

    Assembled from the single, pair and triple product-moment coefficients by
    the moment-to-cumulant combination; for a = 1 kappa_a vanishes.
    """
    _require_unit_alpha(tail)
    if not (s1 >= s2 >= s3):
        raise ValueError(f"need s1 >= s2 >= s3, got {(s1, s2, s3)}")
    if not (s1 > 2 and s2 > 1 and s3 > 0):
        raise InfiniteMomentError(
            f"third cumulant undefined: need s > (2, 1, 0), got {(s1, s2, s3)}"
        )

    moments = {}  # depth tuple -> (m0, m1, ma), each computed once per call

    def moment(*s):
        s = tuple(sorted(s, reverse=True))
        if s not in moments:
            moments[s] = leading_product_moment(s, tail)
        return moments[s]

    m_123 = moment(s1, s2, s3)

    def k0_term(a, b, c):
        return moment(a)[0] * moment(b, c)[0]

    def k1_term(a, b, c):
        return moment(a)[0] * moment(b, c)[1] + moment(a)[1] * moment(b, c)[0]

    def ka_term(a, b, c):
        return moment(a)[0] * moment(b, c)[2] + moment(a)[2] * moment(b, c)[0]

    def triple_prod_a(a, b, c):
        return moment(a)[0] * moment(b)[0] * moment(c)[2]

    prod_m0 = moment(s1)[0] * moment(s2)[0] * moment(s3)[0]
    kappa0 = m_123[0] - _sym3(k0_term, s1, s2, s3) + 2 * prod_m0
    kappa1 = m_123[1] - _sym3(k1_term, s1, s2, s3) + 2 * _sym3(
        lambda a, b, c: moment(a)[1] * moment(b)[0] * moment(c)[0], s1, s2, s3
    )
    kappa_a = m_123[2] - _sym3(ka_term, s1, s2, s3) + 2 * _sym3(
        triple_prod_a, s1, s2, s3
    )
    return kappa0, kappa1, kappa_a
