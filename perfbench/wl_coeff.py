"""coeff: the coefficient pipeline in one process, no oracles, no scipy.

One operation is one call of quantile_series, moment_expansion (k = 1, 2, 3),
covariance_expansion, third_cumulant_expansion or gamma_ratio_coeffs.  A
round is a fixed cycle of 48 such calls: 33 in float arithmetic on catalog
tails, seed-drawn raw tails and the float twins of the exact tails, and 15
in exact arithmetic, mostly on two seed-drawn Fraction tails of order 10 and
12.  Float calls are most of the calls; the exact calls take most of the
time, so the median latency follows the float path and throughput the exact
path.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import reference as ref

NAME = "coeff"
TRACE_ROUNDS = 20  # fixed work for the traced pass, so its counts repeat
CHECK_N = 10_000  # n at which Pareto moment expansions meet their exact value
CUMULANT_N = 100_000  # n for covariance / cumulant (remainder O(n^-2))
REL = 1e-9
# A float quantile coefficient C_i must lie within QUANTILE_REL of the
# reference, or within QUANTILE_FLOOR of its natural size |C_0| g^i (g the
# reference's geometric growth), where rounding alone can exceed the first.
QUANTILE_REL = 1e-8
QUANTILE_FLOOR = 1e-10


class Op:
    __slots__ = ("label", "exact", "call", "check", "twin", "tail", "theta", "s", "known_fault", "ref")

    def __init__(self, label, exact, call, check, twin=None, tail=None, theta=None, s=None,
                 known_fault=False):
        self.label = label
        self.exact = exact
        self.call = call
        self.check = check  # name of the check its output must pass
        self.twin = twin  # index of the float twin of an exact op
        self.tail = tail
        self.theta = theta
        self.s = s
        self.known_fault = known_fault
        self.ref = None  # reference output, computed at the first check


def _raw_float_tail(rng, pt, order):
    alpha = rng.choice((0.75, 1.5, 2.0, 3.0))
    a = rng.choice((0.5, 1.0, 1.5, 2.0))
    c = [rng.uniform(0.5, 2.0)] + [rng.uniform(-1.0, 1.0) / math.factorial(i) for i in range(1, order + 1)]
    return pt.TailModel(alpha, alpha * a, pt.FormalSeries(c))


def _exact_tail(rng, pt, beta, order):
    """alpha = 1 and an integer beta keep every exponent of the moment grid an
    integer, so the whole pipeline stays exact.  Numerators are drawn from the
    seed; denominators are fixed powers of 10, so the cost of the rational
    arithmetic does not depend on the seed."""
    c = [Fraction(rng.randint(60, 140), 100)]
    for i in range(1, order + 1):
        c.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), 10 ** (i + 1)))
    return pt.TailModel(Fraction(1), Fraction(beta), pt.FormalSeries(c))


def _float_twin(pt, tail):
    return pt.TailModel(float(tail.alpha), float(tail.beta), pt.FormalSeries([float(x) for x in tail.c]))


def build_ops(seed: int) -> list:
    import paretotail as pt
    from paretotail import betamoments, catalog, expansion, quantile

    rng = random.Random(seed)
    ops = []

    def qs(label, tail, theta, check, known_fault=False):
        ops.append(Op(label, False, lambda: quantile.quantile_series(tail, theta), check, tail=tail, theta=theta,
                      known_fault=known_fault))

    def cat(spec, order):
        return catalog.tail_of(catalog.parse_distribution(spec), order)

    def mom(tail, s, theta):
        q = expansion.MomentQuery(tail, s, theta, imax=7, jmax=2)
        return lambda: expansion.moment_expansion(q)

    cauchy = cat("cauchy", 12)
    # Known fault: in float arithmetic the reversion loses the Cauchy
    # quantile coefficients from order 7 on (at theta = 1 order 12 is 53% off,
    # at theta = 2 5%), so these two calls fail their checks on every run and
    # count as failed operations.
    ops.append(Op("quantile_series cauchy theta=1", False, lambda: quantile.quantile_series(cauchy, 1.0),
                  "cauchy", tail=cauchy, theta=1.0, known_fault=True))
    # the Cauchy tail over pi: 1 - F = x^-1 sum_i (-1)^i x^-2i / (2i+1), whose
    # quantile coefficients are exactly (-1)^i 2^2i B_2i / (2i)!
    shape = pt.TailModel(Fraction(1), Fraction(2),
                         pt.FormalSeries([Fraction((-1) ** i, 2 * i + 1) for i in range(13)]))
    ops.append(Op("quantile_series cauchy shape exact", True,
                  lambda: quantile.quantile_series(shape, Fraction(1)), "cauchy_exact", tail=shape))
    qs("quantile_series cauchy theta=2", cauchy, 2.0, "quantile", known_fault=True)
    for spec in ("student_t(3)", "f_dist(2,6)", "frechet(2.5)", "stable(0.7,0.2)"):
        qs(f"quantile_series {spec}", cat(spec, 8), 1.0, "quantile")

    pareto2 = cat("pareto(2)", 8)
    qs("quantile_series pareto(2)", pareto2, 1.0, "pareto_quantile")
    pareto1 = cat("pareto", 8)
    shapes = {1: (2,), 2: (3, 1), 3: (5, 3, 1)}
    for tail, spec in ((pareto2, "pareto(2)"), (pareto1, "pareto")):
        for k, s in shapes.items():
            ops.append(Op(f"moment_expansion {spec} k={k}", False, mom(tail, s, (1.0,) * k),
                          "pareto_moment", tail=tail, s=s))
    ops.append(Op("covariance_expansion pareto", False,
                  lambda: expansion.covariance_expansion(pareto1, 3, 1), "pareto_cov", tail=pareto1))
    ops.append(Op("third_cumulant_expansion pareto", False,
                  lambda: expansion.third_cumulant_expansion(5, 3, 1, pareto1), "pareto_k3", tail=pareto1))

    for j in range(3):
        qs(f"quantile_series raw#{j}", _raw_float_tail(rng, pt, 8), 1.0, "quantile")
    for j in range(3):
        theta = rng.uniform(-2.5, 2.5)
        ops.append(Op(f"gamma_ratio_coeffs theta={theta:.3f}", False,
                      lambda theta=theta: betamoments.gamma_ratio_coeffs(theta, 7), "gamma_float", theta=theta))

    exact_tails = (_exact_tail(rng, pt, 1, 10), _exact_tail(rng, pt, 2, 12))
    for e, tail in enumerate(exact_tails):
        for exact, t in ((False, _float_twin(pt, tail)), (True, tail)):
            one = Fraction(1) if exact else 1.0
            kind = "exact" if exact else "float"
            calls = [
                ("quantile_series", lambda t=t, one=one: quantile.quantile_series(t, one)),
                ("moment_expansion k=1", mom(t, shapes[1], (one,))),
                ("moment_expansion k=2", mom(t, shapes[2], (one,) * 2)),
                ("moment_expansion k=3", mom(t, shapes[3], (one,) * 3)),
                ("covariance_expansion", lambda t=t: expansion.covariance_expansion(t, 3, 1)),
                ("third_cumulant_expansion", lambda t=t: expansion.third_cumulant_expansion(5, 3, 1, t)),
            ]
            base = len(ops)
            for i, (what, fn) in enumerate(calls):
                check = "twin" if exact else ("quantile" if what == "quantile_series" else None)
                twin = base - len(calls) + i if exact else None
                ops.append(Op(f"{what} exact#{e} {kind}", exact, fn, check, twin=twin, tail=t, theta=1.0))
    for theta in (-2, 3):
        ops.append(Op(f"gamma_ratio_coeffs theta={theta} exact", True,
                      lambda theta=theta: betamoments.gamma_ratio_coeffs(Fraction(theta), 7),
                      "gamma_exact", theta=theta))
    return ops


class State:
    def __init__(self, seed):
        self.ops_list = build_ops(seed)
        # warm-up: one untimed round lets lazy imports finish (the exact
        # moment path imports sympy on its first call)
        for op in self.ops_list:
            op.call()

    def ops(self):
        return len(self.ops_list)

    def label(self, i):
        return self.ops_list[i].label

    def run_op(self, i):
        try:
            return True, self.ops_list[i].call()
        except Exception as exc:  # a raising call is a failed operation
            return False, repr(exc)


def setup(seed):
    return State(seed)


def describe(state) -> str:
    n_exact = sum(op.exact for op in state.ops_list)
    n = len(state.ops_list)
    return f"{n} calls per round, {n - n_exact} float and {n_exact} exact"


# --- checks ----------------------------------------------------------------

def canon(out):
    """A program output as nested tuples of numbers, for checks and equality."""
    from paretotail.expansion import CovarianceReport, ExpansionSeries
    from paretotail.quantile import QuantilePowerSeries

    if isinstance(out, QuantilePowerSeries):
        return ("q", out.theta, out.psi, out.a, tuple(out.C))
    if isinstance(out, ExpansionSeries):
        return ("e", out.lead, out.a, out.remainder_order, tuple(sorted(out.terms.items())))
    if isinstance(out, CovarianceReport):
        return ("cov",) + tuple(getattr(out, f) for f in ("F0", "F1", "F2", "Ec", "B20", "Da", "a", "a0"))
    return ("t",) + tuple(out)


def _close(x, y, rel=REL, scale=0.0) -> bool:
    x, y = float(x), float(y)
    return math.isfinite(x) and abs(x - y) <= rel * max(abs(x), abs(y), scale)


def _eval_expansion(c, n):
    _, lead, a, _, terms = c
    return sum(float(v) * float(n) ** (float(lead) - i - j * float(a)) for (i, j), v in terms)


def check_output(op, c, twin_c=None):
    """None when the output passes, else a one-line reason."""
    kind = op.check
    if kind is None:
        return None
    if kind == "cauchy":
        want = ref.cot_laurent(len(c[4]) - 1)
        bad = [i for i, (x, y) in enumerate(zip(c[4], want)) if not _close(x, y)]
        return f"cot coefficient mismatch at {bad}" if bad else None
    if kind == "cauchy_exact":
        b = ref.bernoulli_numbers(2 * (len(c[4]) - 1))
        want = [(-1) ** i * 2 ** (2 * i) * b[2 * i] / math.factorial(2 * i) for i in range(len(c[4]))]
        return None if list(c[4]) == want else "coefficients differ from (-1)^i 2^2i B_2i / (2i)!"
    if kind == "pareto_quantile":
        return None if list(c[4]) == [1.0] + [0.0] * (len(c[4]) - 1) else f"not [1, 0, ...]: {c[4][:3]}"
    if kind == "quantile":
        return _quantile_coeffs(op, c) or _roundtrip(op, c)
    if kind == "pareto_moment":
        got = _eval_expansion(c, CHECK_N)
        want = float(ref.pareto_joint_moment(CHECK_N, op.s, (1,) * len(op.s), op.tail.alpha))
        return None if _close(got, want, 1e-10) else f"expansion {got!r} vs log-gamma {want!r}"
    if kind == "pareto_cov":
        n = CUMULANT_N
        m = ref.pareto_joint_moment
        exact = (m(n, (3, 1), (1, 1), 1) - m(n, (3,), (1,), 1) * m(n, (1,), (1,), 1)) / n**2
        F0, F1, F2, Ec, *_rest, a, _a0 = c[1:]
        got = F0 + F1 / n + Ec * F2 * n ** (-a)
        return None if abs(got - float(exact)) <= 1e-9 else f"covariance {got!r} vs exact {float(exact)!r}"
    if kind == "pareto_k3":
        n = CUMULANT_N

        def M(*s):
            return ref.pareto_joint_moment(n, s, (1,) * len(s), 1)

        a, b, d = 5, 3, 1
        exact = (M(a, b, d) - M(a) * M(b, d) - M(b) * M(a, d) - M(d) * M(a, b) + 2 * M(a) * M(b) * M(d)) / n**3
        k0, k1, ka = c[1:]
        got = float(k0) + float(k1) / n + float(ka) * n ** (-float(op.tail.a))
        return None if abs(got - float(exact)) <= 1e-9 else f"cumulant {got!r} vs exact {float(exact)!r}"
    if kind == "gamma_float":
        n = 200
        got = sum(float(e) * n ** (-i) for i, e in enumerate(c[1:]))
        want = ref.gamma_ratio_scaled(n, op.theta)
        return None if _close(got, want, 1e-11) else f"series {got!r} vs log-gamma {want!r}"
    if kind == "gamma_exact":
        want = ref.gamma_ratio_exact_coeffs(op.theta, len(c) - 2)
        return None if list(c[1:]) == want else "coefficients differ from the exact expansion"
    if kind == "twin":
        return _twin(c, twin_c)
    raise ValueError(kind)


def _flatten(c):
    for x in c:
        if isinstance(x, tuple):
            yield from _flatten(x)
        elif not isinstance(x, str):
            yield x


def _twin(exact_c, float_c):
    xs, ys = list(_flatten(exact_c)), list(_flatten(float_c))
    if len(xs) != len(ys):
        return f"exact output has {len(xs)} numbers, float twin {len(ys)}"
    scale = max(abs(float(y)) for y in ys) * 1e-3
    bad = [i for i, (x, y) in enumerate(zip(xs, ys)) if not _close(x, y, REL, scale)]
    return f"exact and float twin differ at {bad[:5]}" if bad else None


def _quantile_coeffs(op, c):
    """Each coefficient against the benchmark's own high-precision reversion
    of the same tail (``reference.quantile_coeffs``)."""
    if op.ref is None:
        t = op.tail
        op.ref = ref.quantile_coeffs(t.alpha, t.beta, list(t.c), op.theta)
    want = op.ref
    r0 = abs(want[0])
    growth = max([(abs(r) / r0) ** (1 / i) for i, r in enumerate(want) if i] or [0.0])
    bad = [
        i for i, (x, r) in enumerate(zip(c[4], want))
        if not abs(float(x) - r) <= QUANTILE_REL * abs(r) + QUANTILE_FLOOR * r0 * growth**i
    ]
    if len(c[4]) != len(want):
        return f"{len(c[4])} coefficients, reference has {len(want)}"
    return f"coefficients {bad} differ from the reference reversion" if bad else None


def _roundtrip(op, c):
    """The partial sum x(v) of the quantile series must satisfy 1 - F(x) = v,
    with 1 - F(x) = x^-alpha sum_i c_i x^(-i beta), up to O(v^((order+1) a)).

    At a v this small only the first few coefficients are visible; each
    coefficient is checked by ``_quantile_coeffs``."""
    tail = op.tail
    alpha, beta = float(tail.alpha), float(tail.beta)
    coeffs = [float(x) for x in tail.c]
    theta, psi, a, C = float(c[1]), float(c[2]), float(c[3]), c[4]
    order = len(C) - 1
    v = 10.0 ** (-16.0 / ((order + 1) * a))  # truncation well under rounding
    v = min(v, 1e-3)
    xt = sum(float(ci) * v ** (i * a - psi) for i, ci in enumerate(C))
    x = xt ** (1.0 / theta)
    sf = x ** (-alpha) * sum(ci * x ** (-i * beta) for i, ci in enumerate(coeffs))
    return None if _close(sf, v, 1e-10) else f"1 - F(x(v)) = {sf!r} at v = {v!r}"


def check_round(state, oks, outputs):
    """(failures, known faults) of one round.

    An output that fails its check counts as a failed operation, not as an
    incorrect one, when the op carries a known fault of the program.
    """
    ops = state.ops_list
    canons = [canon(o) if ok else None for ok, o in zip(oks, outputs)]
    bad, known = [], 0
    for op, c in zip(ops, canons):
        if c is None:
            continue
        twin = canons[op.twin] if op.twin is not None else None
        if op.twin is not None and twin is None:
            continue
        why = check_output(op, c, twin)
        if why and op.known_fault:
            known += 1
        elif why:
            bad.append(f"{op.label}: {why}")
    return bad, known
