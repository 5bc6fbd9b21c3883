"""Exact-arithmetic regeneration of every closed-form display.

Sympy scalars flow through the generic machinery unchanged, so each printed
coefficient table can be re-derived symbolically and compared.  Displays
that disagree with the regenerated values are recorded in the typo ledger;
the last test checks that every ledger entry points at a real test.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from paretotail.betamoments import n_free_factor
from paretotail.expansion import (
    MomentQuery,
    covariance_expansion,
    mean_expansion,
    moment_expansion,
    normalized_moment_expansion,
    third_cumulant_expansion,
)
from paretotail.ledger import LEDGER
from paretotail.quantile import TailModel, quantile_series
from paretotail.series import FormalSeries

C0, C1, C2, C3 = sp.symbols("c0 c1 c2 c3", positive=True)
A = sp.Symbol("a", positive=True)
PSI = sp.Symbol("psi", positive=True)


def test_quantile_coefficients_exact():
    # defining identity: with S(t) = sum c_i t^i and the exponent grid
    # i*a - psi, the coefficients satisfy S(t)^psi = sum_i C_i t^i S(t)^{i a}
    tail = TailModel(sp.Integer(1), A, FormalSeries([C0, C1, C2, C3]))
    q = quantile_series(tail, PSI)
    t = sp.Symbol("t")
    S = C0 + C1 * t + C2 * t**2 + C3 * t**3
    lhs = sp.series(S**PSI, t, 0, 4).removeO()
    rhs = sum(
        q.C[i] * t**i * sp.series(S ** (i * A), t, 0, 4 - i).removeO()
        for i in range(4)
    )
    diff = sp.expand(lhs - rhs)
    for k in range(4):
        assert sp.simplify(diff.coeff(t, k)) == 0, k
    # printed low-order forms
    assert sp.simplify(q.C[0] - C0**PSI) == 0
    assert sp.simplify(q.C[1] - PSI * C0 ** (PSI - A - 1) * C1) == 0
    want2 = PSI * C0 ** (PSI - 2 * A - 2) * (
        C0 * C2 + (PSI - 2 * A - 1) * C1**2 / 2
    )
    assert sp.simplify(q.C[2] - want2) == 0


def _rf(x, t):
    return sp.gamma(x + t) / sp.gamma(x)


def _ff(x, t):
    return sp.gamma(x + 1) / sp.gamma(x - t + 1)


def bkj_closed(s, j, a):
    """Corrected closed form for the tail-correction coefficients B_kj."""
    k = len(s)
    if j == 0:
        out = sp.Integer(1)
        for i, si in enumerate(s, start=1):
            out /= si - k + i
        return out
    out = sp.Integer(1)
    for i in range(1, j):
        out /= s[i - 1] - k + a + i
    if j < k:
        out *= _rf(s[j - 1] - k + j + 1, a - 1)
        for i in range(j + 1, k + 1):
            out /= s[i - 1] - k + i
    else:
        out /= _ff(s[k - 1], 1 - a)
    return out


def test_bkj_table_exact():
    # general pipeline (suffix-sum beta factors) vs the corrected closed
    # form, with the tail-gap exponent a kept symbolic
    for s in ((5, 3), (6, 4, 2), (7, 5, 3, 1)):
        k = len(s)
        for j in range(k + 1):
            tau = tuple(A - 1 if m == j else sp.Integer(-1) for m in range(1, k + 1))
            pipeline = n_free_factor(s, tau)
            closed = bkj_closed(s, j, A)
            assert sp.simplify(pipeline - closed) == 0, (s, j)
    # a = 1 specializations of the pair table
    s1, s2 = 6, 4
    assert sp.simplify(bkj_closed((s1, s2), 1, sp.Integer(1)) - sp.Rational(1, s2)) == 0
    assert sp.simplify(bkj_closed((s1, s2), 2, sp.Integer(1)) - sp.Rational(1, s1)) == 0
    # sum lines are plain sums of the entries (no separate display)
    for s in ((6, 4, 2), (7, 5, 3, 1)):
        total = sum(bkj_closed(s, j, A) for j in range(1, len(s) + 1))
        pipeline_total = sum(
            n_free_factor(
                s,
                tuple(A - 1 if m == j else sp.Integer(-1) for m in range(1, len(s) + 1)),
            )
            for j in range(1, len(s) + 1)
        )
        assert sp.simplify(total - pipeline_total) == 0


def test_bkk_fixed_point():
    # B_kk at a = 1 reduces to shifting every factor, matching B_k0 with
    # s_i -> s_i + delta_{ik}... concretely: pipeline agreement suffices
    s = (5, 3, 2)
    got = bkj_closed(s, 3, sp.Integer(1))
    tau = (sp.Integer(-1), sp.Integer(-1), sp.Integer(0))
    assert sp.simplify(got - n_free_factor(s, tau)) == 0


def test_covariance_closed_forms():
    # alpha = 2, beta = 1 (lam = a = 1/2), symbolic tail coefficients
    tail = TailModel(sp.Integer(2), sp.Integer(1), FormalSeries([C0, C1, C2]))
    s1, s2 = 5, 3
    rep = covariance_expansion(tail, s1, s2)
    pair = normalized_moment_expansion(MomentQuery(tail, (s1, s2), (1, 1)))
    m1 = mean_expansion(tail, s1)
    m2 = mean_expansion(tail, s2)
    f0 = pair.terms[(0, 0)] - m1.terms[(0, 0)] * m2.terms[(0, 0)]
    f1 = (
        pair.terms[(1, 0)]
        - m1.terms[(0, 0)] * m2.terms[(1, 0)]
        - m1.terms[(1, 0)] * m2.terms[(0, 0)]
    )
    fa = (
        pair.terms[(0, 1)]
        - m1.terms[(0, 0)] * m2.terms[(0, 1)]
        - m1.terms[(0, 1)] * m2.terms[(0, 0)]
    )
    assert sp.simplify(rep.F0 - f0) == 0
    assert sp.simplify(rep.F1 - f1) == 0
    assert sp.simplify(rep.Ec * rep.F2 - fa) == 0
    # the slope constant multiplies c1, not c0
    lam = sp.Rational(1, 2)
    assert sp.simplify(rep.Ec - lam * C0 ** (-lam - 1) * C1) == 0


def test_covariance_unit_index_display():
    # alpha = beta = 1: leading and 1/n terms collapse to
    # <s1>_2^{-1} s2^{-1} (1 - n^{-1} s1)
    tail = TailModel(sp.Integer(1), sp.Integer(1), FormalSeries([C0, C1]))
    for s1, s2 in ((6, 3), (4, 2), (5, 5)):
        rep = covariance_expansion(tail, s1, s2)
        base = sp.Rational(1, s1 * (s1 - 1) * s2)
        assert sp.simplify(rep.F0 - base) == 0
        assert sp.simplify(rep.F1 + s1 * base) == 0


def test_pair_d2_closed_form():
    # second-order pair coefficient at alpha = beta = 1:
    # C_2(s : 1, 1) = D_2s H_c + c0^{-2} c1^2 with
    # D_2s = (s2+1)/(s1+1) + s1/s2 and H_c = c0^{-2}(c0 c2 - c1^2)
    tail = TailModel(sp.Integer(1), sp.Integer(1), FormalSeries([C0, C1, C2]))
    Hc = C0**-2 * (C0 * C2 - C1**2)
    for s1, s2 in ((7, 4), (5, 2), (4, 3)):
        q = MomentQuery(tail, (s1, s2), (sp.Integer(1), sp.Integer(1)))
        got = moment_expansion(q).terms[(0, 2)]  # C_2, as e_0 = 1
        d2s = sp.Rational(s2 + 1, s1 + 1) + sp.Rational(s1, s2)
        assert sp.simplify(got - (d2s * Hc + C0**-2 * C1**2)) == 0, (s1, s2)


def test_cauchy_coefficient_closed_forms():
    pi = sp.pi
    coeffs = [sp.Integer(-1) ** i / ((2 * i + 1) * pi) for i in range(5)]
    tail = TailModel(sp.Integer(1), sp.Integer(2), FormalSeries(coeffs))
    # theta = 1: the quantile is cot(pi v) and the exponent grid is 2i - 1,
    # so the coefficients are the Laurent coefficients of cot
    v = sp.Symbol("v", positive=True)
    cot = sp.series(sp.cot(pi * v), v, 0, 10).removeO()
    q1 = quantile_series(tail, sp.Integer(1))
    for i in range(5):
        assert sp.simplify(q1.C[i] - cot.coeff(v, 2 * i - 1)) == 0, i
    # general power theta = psi
    qp = quantile_series(tail, PSI)
    assert sp.simplify(qp.C[1] + PSI * pi ** (2 - PSI) / 3) == 0
    want2 = PSI * pi ** (4 - PSI) * (sp.Rational(1, 5) + (PSI - 5) / 18)
    assert sp.simplify(qp.C[2] - want2) == 0
    # the printed third coefficient does not reproduce the kernel value
    printed3 = -PSI * pi ** (6 - PSI) * (
        sp.Rational(1, 105) - 2 * PSI / 15 + _rf(PSI + 1, 2) / 162
    )
    assert sp.simplify(qp.C[3].subs(PSI, 1) - printed3.subs(PSI, 1)) != 0
    assert sp.simplify(qp.C[3].subs(PSI, 1) + 2 * pi**5 / 945) == 0


def test_third_cumulant_closed_forms():
    tail = TailModel(1, 1, FormalSeries([Fraction(1), Fraction(0), Fraction(0)]))
    for s1, s2, s3 in ((3, 2, 1), (4, 3, 2), (5, 3, 1), (6, 4, 2)):
        k0, k1, ka = third_cumulant_expansion(s1, s2, s3, tail)
        D = Fraction(s1 * (s1 - 1) * (s1 - 2) * s2 * (s2 - 1) * s3)
        assert Fraction(k0) == Fraction(2 * (s1 + s2 - 2)) / D, (s1, s2, s3)
        derived = Fraction(2 * (s2 * (1 - 2 * s1) + 2 * s1 - s1**2)) / D
        assert Fraction(k1) == derived, (s1, s2, s3)
        assert ka == 0
    # the display missing the extra s1 term disagrees with the derivation
    s1, s2, s3 = 3, 2, 1
    D = Fraction(s1 * (s1 - 1) * (s1 - 2) * s2 * (s2 - 1) * s3)
    printed = Fraction(2 * (s2 * (1 - 2 * s1) + s1 - s1**2)) / D
    assert printed == Fraction(-8, 3)
    assert Fraction(2 * (s2 * (1 - 2 * s1) + 2 * s1 - s1**2)) / D == Fraction(-13, 6)
    # kappa_a vanishes at a = 1 even with a nonzero slope coefficient
    slope_tail = TailModel(1, 1, FormalSeries([Fraction(1), Fraction(1, 3)]))
    _, _, ka = third_cumulant_expansion(4, 3, 2, slope_tail)
    assert abs(ka) < 1e-12


def test_e_series_recurrence_exact():
    # n!/Gamma(n+1+theta) satisfies f(n) = f(n-1) n/(n+theta); in terms of
    # x = 1/n the coefficient series must satisfy
    # E(x) = (1-x)^{-theta} E(x/(1-x)) / (1 + theta x).
    # Each factor is its explicit truncated series (a list of coefficients
    # of x^0 .. x^8), so the identity is checked exactly at every order.
    # e_i enters the x^i coefficient once on each side and cancels, so the
    # x^i coefficient checks e_0 .. e_{i-1}; e_8 is set to 0 to check e_7.
    from paretotail.betamoments import gamma_ratio_coeffs

    th = sp.Symbol("theta")
    es = gamma_ratio_coeffs(th, 7) + [0]
    order = 9

    def mul(p, q):
        return [sp.expand(sum(p[j] * q[k - j] for j in range(k + 1))) for k in range(order)]

    sub = [0] + [1] * (order - 1)  # x/(1-x)
    sub_pow = [[1] + [0] * (order - 1)]
    for _ in range(1, order):
        sub_pow.append(mul(sub_pow[-1], sub))
    e_shift = [sum(es[i] * sub_pow[i][k] for i in range(order)) for k in range(order)]
    binom = [sp.rf(th, k) / sp.factorial(k) for k in range(order)]  # (1-x)^{-theta}
    geom = [(-th) ** k for k in range(order)]  # 1/(1 + theta x)
    rhs = mul(mul(e_shift, binom), geom)
    for i in range(order):
        assert sp.expand(rhs[i] - es[i]) == 0, i


def test_ledger_entries_name_real_tests():
    tests_dir = Path(__file__).parent
    for entry in LEDGER:
        path_part, name = entry.verified_by.split("::")
        f = tests_dir / Path(path_part).name
        assert f.exists(), entry.id
        text = f.read_text()
        assert re.search(rf"^def {re.escape(name)}\(", text, re.M), (
            entry.id,
            entry.verified_by,
        )
    ids = [e.id for e in LEDGER]
    assert len(ids) == len(set(ids))
