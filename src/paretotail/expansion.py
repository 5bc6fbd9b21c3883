"""Asymptotic expansions for joint moments of top order statistics.

For X_{n,n-s_i} from a Pareto-type tail, the raw joint moment
E prod X_{n,n-s_i}^{theta_i} expands as

    n^{psibar_1} * sum_{i,j} e_i(j*a - psibar_1) * C_j(s : psi) * n^{-i-j*a}

where the C_j collect quantile-series coefficients against the n-free beta
factor, and the e_i come from the gamma-ratio asymptotic series.  The
normalized variables Y_{ns} = X_{n,n-s} / (n c_0)^{1/alpha} are obtained by
an exact final rescaling of the same terms.  C_j sums over the compositions
of j into k parts, but the beta factor is a product of one gap factor per
depth that sees a composition only through its suffix sum; so C_0..C_jmax
come from one convolution over the depths, in O(k jmax^2) products.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

from .betamoments import beta_ratio, gamma_ratio, gamma_ratio_coeffs, require_finite, suffix_sums
from .errors import UnsupportedOrderError
from .quantile import QuantilePowerSeries, TailModel, _exact_ratio, quantile_series
from .series import FormalSeries

__all__ = [
    "MomentQuery",
    "ExpansionSeries",
    "CovarianceReport",
    "moment_expansion",
    "normalized_moment_expansion",
    "mean_expansion",
    "joint_cumulant_expansion",
    "covariance_expansion",
    "third_cumulant_expansion",
]


def _require_orders(imax: int, jmax: int) -> None:
    for name, value in (("imax", imax), ("jmax", jmax)):
        if value < 0:
            raise UnsupportedOrderError(f"{name} must be >= 0, got {value}")


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
        _require_orders(self.imax, self.jmax)
        if self.jmax > self.tail.order:
            raise UnsupportedOrderError(
                f"jmax={self.jmax} exceeds the tail model order {self.tail.order}"
            )
        require_finite(self.tail.alpha, self.s, self.theta)

    @property
    def k(self) -> int:
        return len(self.s)

    @property
    def psi(self) -> tuple:
        return tuple(_exact_ratio(t, self.tail.alpha) for t in self.theta)

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
        """Partial-sum value at n plus the magnitude of the highest-order
        retained nonzero correction, the last and smallest term (0 when only
        the leading term is nonzero)."""
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

    # Grid algebra.  A coefficient outside the index box (i <= imax,
    # j <= jmax) of either operand would miss omitted terms, so results keep
    # the smaller box; the remainder tag is the smaller of the two.

    def _combine(self, other: "ExpansionSeries", lead, pairs) -> "ExpansionSeries":
        if self.a != other.a:
            raise ValueError(f"grids on different gaps: a = {self.a} and {other.a}")
        imax, jmax = map(min, self._box(), other._box())
        terms = {}
        for ij, c in pairs:
            if ij[0] <= imax and ij[1] <= jmax:
                terms[ij] = terms[ij] + c if ij in terms else c
        return ExpansionSeries(lead, self.a, terms, min(self.remainder_order, other.remainder_order))

    def _box(self) -> tuple:
        return tuple(max((ij[k] for ij in self.terms), default=-1) for k in (0, 1))

    def __add__(self, other: "ExpansionSeries") -> "ExpansionSeries":
        if self.lead != other.lead:
            raise ValueError(f"sum of grids with different leads {self.lead} and {other.lead}")
        return self._combine(other, self.lead, [*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "ExpansionSeries") -> "ExpansionSeries":
        return self + other.rescaled(-1)

    def __mul__(self, other: "ExpansionSeries") -> "ExpansionSeries":
        imax, jmax = map(min, self._box(), other._box())
        pairs = (
            ((i1 + i2, j1 + j2), c1 * c2)
            for (i1, j1), c1 in self.terms.items()
            for (i2, j2), c2 in other.terms.items()
            if i1 + i2 <= imax and j1 + j2 <= jmax
        )
        return self._combine(other, self.lead + other.lead, pairs)


@dataclass(frozen=True)
class CovarianceReport:
    """Covar(Y_{ns1}, Y_{ns2}) = F0 + F1/n + Ec*F2/n^a + O(n^{-2*a0}).

    ``F2`` and ``Da`` are n^{-a} coefficients per unit ``Ec``, the slope
    constant lam * c_0^{-a-1} * c_1: ``Ec*F2`` is the covariance's and
    ``Ec*Da`` the pair moment's.  ``B20`` is the pair moment's leading term.
    """

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


@dataclass(frozen=True)
class _SharedTablesQuery(MomentQuery):
    """A query that carries its quantile tables and gamma-ratio coefficients
    (by argument), built once by a caller that asks for several depth tuples
    on one tail, power, imax and jmax."""

    tables: tuple = field(default=(), compare=False, repr=False)
    ecoeffs: dict = field(default_factory=dict, compare=False, repr=False)


def _cut_tail(tail: TailModel, jmax: int) -> TailModel:
    """The tail cut to c_0..c_jmax: reversion and powers are triangular
    (C_0..C_j depend on c_0..c_j only)."""
    if tail.order > jmax:
        tail = TailModel(tail.alpha, tail.beta, tail.c.truncate(jmax))
    return tail


def _quantile_tables(query: MomentQuery) -> Sequence[QuantilePowerSeries]:
    """One quantile series per entry of theta, built once per distinct power.

    The key carries the type, so that 1 and 1.0 (equal, with equal hashes)
    do not share a series of the wrong scalar type.
    """
    if isinstance(query, _SharedTablesQuery):
        return query.tables
    tail = _cut_tail(query.tail, query.jmax)
    built = {}
    for t in query.theta:
        key = (type(t), t)
        if key not in built:
            built[key] = quantile_series(tail, t)
    return [built[(type(t), t)] for t in query.theta]


def _cj_upto(query: MomentQuery, jtop: int, tables) -> list:
    """C_0..C_jtop: with F_i(Q) the gap factor of depth i at suffix sum Q,
    D_i(Q) = F_i(Q) sum_c C^(i)_c D_{i+1}(Q - c) from the empty product
    D_{k+1} = (1, 0, 0, ...), and C_j = D_1(j)."""
    s, a = query.s, query.tail.a
    Psi = suffix_sums(query.psi)
    D = [1] + [0] * jtop
    for m in reversed(range(query.k)):
        if m:
            F = [beta_ratio(s[m - 1] - s[m], s[m] + 1, q * a - Psi[m]) for q in range(jtop + 1)]
        else:
            F = [gamma_ratio(s[0] + 1, q * a - Psi[0]) for q in range(jtop + 1)]
        C = tables[m].C
        D = [F[q] * sum(C[c] * D[q - c] for c in range(q + 1)) for q in range(jtop + 1)]
    return D


def moment_expansion(query: MomentQuery) -> ExpansionSeries:
    """Full (i, j) term grid for the raw moment E prod X_{n,n-s_i}^{theta_i}."""
    tables = _quantile_tables(query)
    ecoeffs = query.ecoeffs if isinstance(query, _SharedTablesQuery) else {}
    psibar1 = query.psibar1
    a = query.tail.a
    terms = {}
    for j, cj in enumerate(_cj_upto(query, query.jmax, tables)):
        x = j * a - psibar1
        if x not in ecoeffs:
            ecoeffs[x] = gamma_ratio_coeffs(x, query.imax)
        for i, ei in enumerate(ecoeffs[x]):
            terms[(i, j)] = ei * cj
    remainder = min(query.imax + 1, (query.jmax + 1) * a)
    return ExpansionSeries(psibar1, a, terms, remainder)


def normalized_moment_expansion(query: MomentQuery) -> ExpansionSeries:
    """Expansion of E prod Y_{n,s_i}^{theta_i} with Y = X/(n c_0)^{1/alpha}."""
    raw = moment_expansion(query)
    c0 = query.tail.c[0]
    psibar1 = query.psibar1
    return raw.rescaled(c0 ** (-psibar1), lead_shift=-psibar1)


def mean_expansion(tail: TailModel, s: int, imax: int = 7, jmax: int = 2) -> ExpansionSeries:
    """Expansion of E Y_{ns} for Y_{ns} = X_{n,n-s} / (n c_0)^{1/alpha}."""
    q = MomentQuery(tail, (s,), (1,), imax=imax, jmax=jmax)
    return normalized_moment_expansion(q)


def _set_partitions(items: list):
    """Set partitions of ``items``, the one-block partition first; each block
    keeps the order of ``items``."""
    if not items:
        yield []
        return
    first = items[0]
    for rest in _set_partitions(items[1:]):
        for b in range(len(rest)):
            yield rest[:b] + [[first] + rest[b]] + rest[b + 1 :]
        yield [[first]] + rest


def _moment_grids(tail: TailModel, imax: int, jmax: int):
    """A function from depth tuples to the grid of E prod Y_{n,s_i}, which
    builds each grid once and, for all of them, reverts the tail once and
    gets each gamma-ratio coefficient list once; all live as long as it."""
    _require_orders(imax, jmax)
    one = 1 + 0 * tail.c[0]
    table = quantile_series(_cut_tail(tail, jmax), one)
    ecoeffs = {}
    grids = {}

    def grid(depths: tuple) -> ExpansionSeries:
        if depths not in grids:
            k = len(depths)
            q = _SharedTablesQuery(tail, depths, (one,) * k, imax, jmax, (table,) * k, ecoeffs)
            grids[depths] = normalized_moment_expansion(q)
        return grids[depths]

    return grid


def _cumulant(grid, s: tuple) -> ExpansionSeries:
    """kappa = sum_pi (-1)^{|pi|-1} (|pi|-1)! prod_{B in pi} E prod_{i in B} Y_{n,s_i}."""
    total = None
    for blocks in _set_partitions(list(range(len(s)))):
        term = functools.reduce(operator.mul, (grid(tuple(s[i] for i in b)) for b in blocks))
        m = len(blocks)
        term = term.rescaled((-1) ** (m - 1) * math.factorial(m - 1))
        total = term if total is None else total + term
    return total


def joint_cumulant_expansion(
    tail: TailModel, s: Sequence[int], imax: int = 1, jmax: int = 1
) -> ExpansionSeries:
    """Term grid of the joint cumulant of (Y_{n,s_1}, ..., Y_{n,s_k}) for
    s_1 >= ... >= s_k, combined from the product-moment grids by the
    partition formula."""
    return _cumulant(_moment_grids(tail, imax, jmax), tuple(s))


def covariance_expansion(tail: TailModel, s1: int, s2: int) -> CovarianceReport:
    """Leading covariance terms of the normalized top order statistics, read
    off the k = 2 cumulant grid and the pair-moment grid.

    The normalized grids do not depend on the scale of X, and their n^{-a}
    column is linear in c_1; so every coefficient but Ec comes from the tail
    (c_0, c_1) = (1, alpha), for which Ec = 1.
    """
    one = 1 + 0 * tail.c[0]
    lam = one / tail.alpha
    a = tail.a
    c1 = tail.c[1] if tail.order >= 1 else 0 * one
    Ec = lam * tail.c[0] ** (-a - 1) * c1
    unit = TailModel(tail.alpha, tail.beta, FormalSeries([one, tail.alpha * one]))
    grid = _moment_grids(unit, 1, 1)
    kappa = _cumulant(grid, (s1, s2)).terms
    pair = grid((s1, s2)).terms
    return CovarianceReport(
        kappa[(0, 0)], kappa[(1, 0)], kappa[(0, 1)], Ec, pair[(0, 0)], pair[(0, 1)], a, min(a, 1 + 0 * a)
    )


def third_cumulant_expansion(s1: int, s2: int, s3: int, tail: TailModel):
    """(kappa0, kappa1, kappa_a) in the third joint cumulant of
    (Y_{ns1}, Y_{ns2}, Y_{ns3}) = kappa0 + kappa1/n + kappa_a/n^a + ...,
    for s1 >= s2 >= s3."""
    jmax = min(tail.order, 1)  # a tail without c_1 has no n^{-a} term
    kappa = joint_cumulant_expansion(tail, (s1, s2, s3), imax=1, jmax=jmax).terms
    return kappa[(0, 0)], kappa[(1, 0)], kappa.get((0, 1), 0 * kappa[(0, 0)])
