"""Independent ground truth: quadrature and Monte Carlo oracles.

Nothing here reuses the expansion machinery.  Moments of top order
statistics are computed by integrating quantiles against the exact
multivariate beta density of uniform order statistics, or by simulating the
top block of uniforms directly through exponential spacings (for a law with
a sampler but no quantile, its own top block, through top-block samplers
that share one Kanter table per call).  The Monte Carlo batches of one call
run on one thread per usable CPU, at most one per batch, and only as many as
keep their work arrays within ``_MC_WORK_BYTES`` together; the threads live
for that call alone.  Each batch draws from its own stream and lands in its
own slot, so a seeded result is bit for bit that of one thread.

The quadrature oracles first try a tensor Gauss-Jacobi rule whose weights
absorb the density's endpoint singularities exactly, with nodes and weights
from ``scipy.special.roots_jacobi`` (weights rescaled to sum to 1), and fall
back to nested adaptive ``quad`` when two rules of the node ladder do not
agree or a rule comes out non-finite.  A rule depends only on its size and
exponents, never on the law, so each (m, a, b, q) is built once per process
and shared, read-only, by every law and block that asks for it.  A law's
constants are built once per process too: its tail model (``tail_of``) and
the denominator q of its gap beta/alpha that picks the rules' coordinate.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass, replace
from fractions import Fraction

from .betamoments import merge_ties, require_finite, suffix_sums
from .catalog import (
    DistributionSpec,
    _top_sampler,
    make_rng,
    tail_of,
    upper_quantile,
)
from .errors import CapabilityError, InfiniteMomentError, ParetoTailError

__all__ = [
    "OracleResult",
    "RateFit",
    "quad_moment",
    "quad_joint_moment",
    "mc_top_order_stats",
    "mc_third_cumulant",
    "convergence_rate_probe",
]

_MC_MARGIN = 0.05
# Gauss-Jacobi node ladder: nodes per coordinate of the two rules of each
# rung; the second rule is accepted when the two agree
_GJ_LADDER = ((16, 24), (32, 48))
# relative tolerances of the 1-D and 2-D oracles, adaptive or Gauss-Jacobi
_EPSREL_1D = 1e-11
_EPSREL_2D = 1e-9
# Gauss-Jacobi rules kept per process, about 1 kB each
_JACOBI_CACHE_SIZE = 1024
# gap denominators kept per process, one per (alpha, beta)
_GAP_CACHE_SIZE = 256
# bytes of work arrays that the threads of one Monte Carlo call may hold
# together: a shape too large for two runs on the caller's thread alone
_MC_WORK_BYTES = 64 << 20

# numpy, scipy.integrate.quad and scipy.special.roots_jacobi are bound on
# the first call that needs them, so that importing the oracles loads none.
np = None
_scipy_quad = None
_roots_jacobi = None


def _load_numpy() -> None:
    global np
    import numpy as np


def _load_quad() -> None:
    global _scipy_quad
    from scipy.integrate import quad as _scipy_quad


def _load_roots_jacobi() -> None:
    global _roots_jacobi
    from scipy.special import roots_jacobi as _roots_jacobi


def quad(func, a, b, **kwargs):
    """``scipy.integrate.quad``; every adaptive integral goes through here."""
    if _scipy_quad is None:
        _load_quad()
    return _scipy_quad(func, a, b, **kwargs)


@dataclass(frozen=True)
class OracleResult:
    """An oracle value with its provenance: ``method`` is ``"gauss_jacobi"``,
    ``"quad1d"``, ``"quad2d"`` or ``"mc"``; ``cost`` counts integrand
    evaluations or simulated replicates; ``abserr`` is the quadrature's own
    error estimate (the last rung's rule difference, or adaptive ``quad``'s
    summed ``abserr``), and ``std_error`` the Monte Carlo one."""

    value: float
    std_error: float
    method: str
    cost: int
    abserr: float = 0.0

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error cannot be negative")


@dataclass(frozen=True)
class RateFit:
    slope: float
    residual: float
    saturated: bool = False


def _power_sub(exponent_gap: float, target: float = 2.0) -> int:
    """Power p for the substitution v = w^p that lifts an endpoint exponent
    above target - 1."""
    if exponent_gap <= 0:
        raise InfiniteMomentError(
            f"endpoint singularity not integrable (exponent gap {exponent_gap})"
        )
    return max(1, math.ceil(target / exponent_gap))


def _check_lower_tail(
    dist: DistributionSpec, alpha: float, n: int, s, theta, margin=0.0
) -> None:
    """Refuse a moment that the lower tail of a two-sided law makes infinite.

    With the depths sorted deepest first, the i deepest order statistics all
    fall below -x when n - s_(i) draws do, with probability ~ x^(-(n -
    s_(i)) alpha), so E prod X^theta needs (n - s_(i)) alpha to exceed
    theta_(1) + ... + theta_(i), by more than ``margin``, for every i.
    """
    if not dist.two_sided:
        return
    total = 0.0
    for si, ti in sorted(zip(s, theta), reverse=True):
        total += ti
        if (n - si) * alpha - total <= margin:
            raise InfiniteMomentError(
                f"moment infinite through the lower tail of {dist}: cumulative "
                f"power {total} reaches (n - s) alpha = {(n - si) * alpha} at "
                f"depth {si}"
            )


def _require_moment(dist: DistributionSpec, n: int, s, theta, margin=0.0) -> None:
    """The one existence check of every oracle: refuse E prod
    X_{n,n-s_i}^theta_i over depths s unless they are nonincreasing, the
    powers stay real on the law's support, both tails leave the moment finite
    (by more than ``margin``) and the deepest order statistic is in the
    sample."""
    if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
        raise ValueError(f"depths must be nonincreasing, got {s}")
    if dist.two_sided and not all(float(t).is_integer() for t in theta):
        raise CapabilityError(
            f"{dist} takes negative values, so X^theta needs an integer "
            f"theta; got {theta}"
        )
    alpha = tail_of(dist, 0).alpha
    require_finite(alpha, s, theta, margin)
    if n - s[0] < 1:
        raise ValueError(f"depth s={s[0]} too large for n={n}")
    _check_lower_tail(dist, alpha, n, s, theta, margin)


def _finite(value: float, dist: DistributionSpec, n: int, s, theta) -> float:
    """Pass a finite integral through; a nan or inf means the integrand
    under- or overflowed, not that the moment is infinite."""
    if not math.isfinite(value):
        raise ParetoTailError(
            f"quadrature for {dist} at n={n}, s={s}, theta={theta} came out "
            f"{value}: the integrand under- or overflowed"
        )
    return value


def _log_beta(x: float, y: float) -> float:
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


@functools.lru_cache(maxsize=_GAP_CACHE_SIZE)
def _gap_denominator(alpha: float, beta: float) -> int:
    """q in the gap beta/alpha = p/q in lowest terms; ``Fraction`` takes a
    float exactly."""
    return (Fraction(beta) / Fraction(alpha)).denominator


@functools.lru_cache(maxsize=_JACOBI_CACHE_SIZE)
def _jacobi_coordinate(m: int, a: float, b: float, q: int):
    """Nodes x, weights w and log scale c of an m-node rule
    ``int_0^1 x^b (1-x)^a f(x) dx ~ exp(c) sum w f(x)``; x and w are
    read-only, since every caller with the same arguments shares them.

    For q > 1 the rule runs in u = x^(1/q), where f is smooth when it is a
    series in x^(p/q): the weight becomes q u^bu (1-u^q)^a, bu = q(b+1) - 1.
    The Jacobi weight u^bu (1-u)^a' takes a' where u^bu (1-u^q)^a peaks,
    u*^q = bu/(qa + bu), a' = bu (1/u* - 1), rounded to an integer so that the
    ratio (1-u^q)^a / (1-u)^a', carried in the weights, is a polynomial.
    """
    if q == 1:
        xi, w = _roots_jacobi(m, a, b)
        return _frozen((1.0 + xi) / 2.0, w / w.sum(), _log_beta(b + 1.0, a + 1.0))
    bu = q * (b + 1.0) - 1.0
    peak = bu if bu > 0 else 1.0  # for bu <= 0 the weight has no interior peak
    u_star = (peak / (q * a + peak)) ** (1.0 / q)
    a_j = round(peak * (1.0 / u_star - 1.0))
    xi, w = _roots_jacobi(m, a_j, bu)
    u = (1.0 + xi) / 2.0
    log_ratio = a * np.log1p(-(u**q)) - a_j * np.log1p(-u)
    top = log_ratio.max()
    w = w / w.sum() * np.exp(log_ratio - top)
    return _frozen(u**q, w, math.log(q) + _log_beta(bu + 1.0, a_j + 1.0) + top)


def _frozen(x, w, log_c):
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w, log_c


def _gauss_jacobi_rule(dist, theta, psi, coords, log_c, q, m) -> float:
    """E prod X_{n,n-s_i}^theta_i by one tensor rule of m nodes per
    coordinate, for strictly decreasing depths s.

    Coordinates v_1 = V_{s_1} and v_{i+1} = v_i t_i (V_s = 1 - U_{n,n-s})
    factor the density into Jacobi weights v_1^(s_1 - sum psi)
    (1-v_1)^(n-s_1-1) and t_i^(s_{i+1} - sum_{j>i} psi_j)
    (1-t_i)^(s_i-s_{i+1}-1), which leave the integrand prod q(v_i)^theta_i
    v_i^psi_i bounded.  ``coords`` holds each coordinate's Jacobi exponents
    (a, b) and ``log_c`` the log of the density's normalizing constant, both
    independent of m.
    """
    v = integrand = None
    weights = []
    for (a, b), t, p in zip(coords, theta, psi):
        x, w, c = _jacobi_coordinate(m, a, b, q)
        log_c += c
        weights.append(w)
        v = x if v is None else v[..., None] * x
        g = upper_quantile(dist, v) ** t * v ** p
        integrand = g if integrand is None else integrand[..., None] * g
    for w in reversed(weights):
        integrand = integrand @ w
    return float(integrand) * math.exp(log_c)


def _gauss_jacobi(dist, n, s, theta, epsabs, epsrel):
    """(result, nodes): E prod X_{n,n-s_i}^theta_i by the tensor Gauss-Jacobi
    rule over non-increasing depths s (ties are merged), as an OracleResult,
    or None when no rung of ``_GJ_LADDER`` agrees within
    max(epsabs, epsrel |I|); ``nodes`` counts the integrand nodes spent."""
    if np is None:
        _load_numpy()
    if _roots_jacobi is None:
        _load_roots_jacobi()
    depths, powers = merge_ties(s, theta)
    k = len(depths)
    tail = tail_of(dist, 0)
    psi = [t / tail.alpha for t in powers]
    q = _gap_denominator(tail.alpha, tail.beta)
    psibar = suffix_sums(psi)
    uppers = (n,) + depths[:-1]
    coords = [(u - si - 1, si - pb) for u, si, pb in zip(uppers, depths, psibar)]
    log_c = math.lgamma(n + 1) - math.lgamma(n - depths[0]) - math.lgamma(depths[-1] + 1)
    log_c -= sum(math.lgamma(depths[i] - depths[i + 1]) for i in range(k - 1))
    nodes = 0

    def rule(m):
        nonlocal nodes
        nodes += m**k
        return _gauss_jacobi_rule(dist, powers, psi, coords, log_c, q, m)

    # a non-finite rule (inf weights once n - s passes ~1020, or an
    # overflowing integrand) stays non-finite with more nodes: fall back
    with np.errstate(all="ignore"):
        for m1, m2 in _GJ_LADDER:
            i1 = rule(m1)
            if not math.isfinite(i1):
                break
            i2 = rule(m2)
            err = abs(i2 - i1)
            if err <= max(epsabs, epsrel * abs(i2)):
                return OracleResult(i2, 0.0, "gauss_jacobi", nodes, err), nodes
            if not math.isfinite(err):
                break
    return None, nodes


def quad_moment(
    dist: DistributionSpec, n: int, s: int, theta: float, epsabs: float = 1e-10
) -> OracleResult:
    """E X_{n,n-s}^theta against the beta density: the tensor Gauss-Jacobi
    rule, or adaptive quadrature when the rule cannot confirm its accuracy
    to max(epsabs, 1e-11 |I|)."""
    return _quad(dist, n, (s,), (theta,), epsabs)


def _quad(dist: DistributionSpec, n: int, s, theta, epsabs: float) -> OracleResult:
    """E prod X_{n,n-s_i}^theta_i over one to three distinct depths: ties
    are merged before the existence check (a two-sided law's X^0.5 X^0.5 is
    X^1), then the Gauss-Jacobi rule runs, and adaptive quadrature when it
    cannot confirm its accuracy; three depths have no adaptive fallback."""
    s, theta = merge_ties(s, theta)
    _require_moment(dist, n, s, theta)
    one_d = len(s) == 1
    res, nodes = _gauss_jacobi(
        dist, n, s, theta, epsabs, _EPSREL_1D if one_d else _EPSREL_2D
    )
    if res is None and len(s) > 2:
        raise ParetoTailError(f"no Gauss-Jacobi rule confirms {dist} at n={n}, s={s}")
    if res is None:
        adaptive = _adaptive_moment if one_d else _adaptive_joint_moment
        res = adaptive(dist, n, *s, *theta, epsabs)
        res = replace(res, cost=res.cost + nodes)
    return res


def _adaptive_moment(
    dist: DistributionSpec, n: int, s: int, theta: float, epsabs: float = 1e-10
) -> OracleResult:
    """E X_{n,n-s}^theta by adaptive quadrature against the beta density."""
    alpha = tail_of(dist, 0).alpha
    psi = theta / alpha
    r = n - s
    log_b = math.lgamma(r) + math.lgamma(s + 1) - math.lgamma(n + 1)
    evals = 0

    def weight(v):
        return math.exp(s * math.log(v) + (r - 1) * math.log1p(-v) - log_b)

    def integrand_v(v):
        nonlocal evals
        evals += 1
        return float(upper_quantile(dist, v)) ** theta * weight(v)

    p = _power_sub(s + 1 - psi)

    def integrand_w(w):
        nonlocal evals
        evals += 1
        v = w**p
        q = float(upper_quantile(dist, v))
        # v^s dv = p w^{p s + p - 1} dw, with the quantile singularity
        # v^{-psi} pulled in through the same substitution
        return (
            q**theta
            * p
            * math.exp(
                (p * s + p - 1) * math.log(w) + (r - 1) * math.log1p(-v) - log_b
            )
        )

    cut = 0.5
    lo, err_lo = quad(
        integrand_w,
        0.0,
        cut ** (1.0 / p),
        epsabs=epsabs / 2,
        epsrel=_EPSREL_1D,
        limit=400,
    )
    hi, err_hi = quad(
        integrand_v, cut, 1.0, epsabs=epsabs / 2, epsrel=_EPSREL_1D, limit=400
    )
    value = _finite(lo + hi, dist, n, s, theta)
    return OracleResult(value, 0.0, "quad1d", evals, err_lo + err_hi)


def quad_joint_moment(
    dist: DistributionSpec,
    n: int,
    s1: int,
    s2: int,
    theta1: float,
    theta2: float,
    epsabs: float = 1e-8,
) -> OracleResult:
    """E X_{n,n-s1}^theta1 X_{n,n-s2}^theta2 for s1 > s2 (ties delegate to
    the 1-D oracle): the tensor Gauss-Jacobi rule, or nested adaptive
    quadrature over the ordered triangle when the rule cannot confirm its
    accuracy to max(epsabs, 1e-9 |I|)."""
    return _quad(dist, n, (s1, s2), (theta1, theta2), epsabs)


def _adaptive_joint_moment(
    dist: DistributionSpec,
    n: int,
    s1: int,
    s2: int,
    theta1: float,
    theta2: float,
    epsabs: float = 1e-8,
) -> OracleResult:
    """E X_{n,n-s1}^theta1 X_{n,n-s2}^theta2 by nested quadrature over the
    ordered triangle, for s1 > s2."""
    alpha = tail_of(dist, 0).alpha
    psi1, psi2 = theta1 / alpha, theta2 / alpha
    r1 = n - s1
    gap = s1 - s2
    log_b = (
        math.lgamma(r1) + math.lgamma(gap) + math.lgamma(s2 + 1) - math.lgamma(n + 1)
    )
    evals = 0
    p_in = _power_sub(s2 + 1 - psi2)
    p_out = _power_sub(s1 + 1 - psi1 - psi2, target=3.0)

    def inner(v1):
        # integral over v2 = v1 * t, t = y^{p_in}, of the second coordinate
        def f(y):
            nonlocal evals
            evals += 1
            t = y**p_in
            q2 = float(upper_quantile(dist, v1 * t))
            return (
                q2**theta2
                * p_in
                * math.exp((p_in * s2 + p_in - 1) * math.log(y))
                * (1.0 - t) ** (gap - 1)
            )

        val, _ = quad(f, 0.0, 1.0, epsabs=epsabs * 1e-3, epsrel=1e-10, limit=200)
        return val

    def outer(w):
        nonlocal evals
        evals += 1
        v1 = w**p_out
        if v1 >= 1.0:
            return 0.0
        q1 = float(upper_quantile(dist, v1))
        log_w = (p_out * s1 + p_out - 1) * math.log(w) + (r1 - 1) * math.log1p(-v1)
        return q1**theta1 * inner(v1) * p_out * math.exp(log_w - log_b)

    val, err = quad(outer, 0.0, 1.0, epsabs=epsabs, epsrel=_EPSREL_2D, limit=300)
    val = _finite(val, dist, n, (s1, s2), (theta1, theta2))
    return OracleResult(val, 0.0, "quad2d", evals, err)


def _worker_count(batches: int, nbytes: int) -> int:
    """Threads for one Monte Carlo call: one per usable CPU and batch, no
    more than keep their work arrays of ``nbytes`` each within
    ``_MC_WORK_BYTES`` together, and at least one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, batches, _MC_WORK_BYTES // max(nbytes, 1)))


def _per_batch(dist, n, smax, reps, seed, batches, reduce) -> list:
    """``[reduce(x_0), ..., reduce(x_{batches - 1})]``, where the top block
    x_b is a ``reps // batches`` x ``smax + 1`` array whose column s holds
    X_{n,n-s}, drawn from stream (seed, b).

    A law with a quantile maps through it the top block of v_s = 1 -
    U_{n,n-s}, built from exponential spacings (never sorting n draws); one
    without draws through top-block samplers that share one Kanter table.
    The batches run on ``_worker_count`` threads that live for this call:
    the caller's and the others', each with its own sampler and under a copy
    of the caller's context, so that its ``np.errstate`` holds in all.  Each
    result lands in its batch's slot, so the list is bit for bit that of
    drawing the batches in order on one thread, and an error raised is that
    of the lowest failing batch, as on one thread.
    """
    if reps < 10_000:
        raise ValueError(f"reps must be >= 10000, got {reps}")
    if batches < 2:
        raise ValueError(f"a standard error needs batches >= 2, got {batches}")
    bsize = reps // batches
    if dist.has_numeric_quantile:

        def block(rng):
            # the running sum of the spacings: the same additions as
            # np.cumsum(axis=1), as smax column adds instead of a short
            # loop per row
            tops = rng.exponential(1.0, (bsize, smax + 1))
            for c in range(1, smax + 1):
                tops[:, c] += tops[:, c - 1]
            total = rng.gamma(n - smax, 1.0, bsize) + tops[:, -1]
            return upper_quantile(dist, tops / total[:, None])

        # the spacings, the uniforms and the quantiles with one temporary
        new_draw, nbytes = (lambda: block), 4 * 8 * bsize * (smax + 1)
    else:
        # column s = depth s
        new_draw, nbytes = _top_sampler(dist, bsize, n, smax + 1)

    results = [None] * batches
    errors = []  # (batch, exception); no batch is handed out after one
    unclaimed = iter(range(batches))
    lock = threading.Lock()

    def claim():
        with lock:
            return None if errors else next(unclaimed, None)

    def work():
        b = -1  # an error before the first batch sorts first
        try:
            draw = new_draw()
            for b in iter(claim, None):
                x = draw(make_rng(seed, b))
                if not np.all(np.isfinite(x)):
                    raise ParetoTailError(
                        f"Monte Carlo top block for {dist} at n={n} has "
                        f"non-finite values in batch {b}: the simulation "
                        "under- or overflowed"
                    )
                results[b] = reduce(x)
        except Exception as exc:  # raised on the caller's thread below
            with lock:
                errors.append((b, exc))

    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(work,))
        for _ in range(_worker_count(batches, nbytes) - 1)
    ]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        with lock:  # after an interrupt, hand out no more batches
            for _ in unclaimed:
                pass
        for t in helpers:
            t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


def mc_top_order_stats(
    dist: DistributionSpec,
    n: int,
    specs,
    reps: int,
    seed: int,
    batches: int = 25,
):
    """Monte Carlo estimates of E prod X_{n,n-s_i}^{theta_i}.

    ``specs`` is a list of (s-vector, theta-vector) pairs, all served from
    the same simulated top block.  Returns one OracleResult per spec, with
    batch-mean standard errors; deterministic for fixed (seed, reps,
    batches), whatever the number of threads.
    """
    if np is None:
        _load_numpy()
    specs = [(tuple(s), tuple(t)) for s, t in specs]
    for s, t in specs:
        _require_moment(dist, n, s, t, _MC_MARGIN)
    smax = max(max(s) for s, _ in specs)

    def spec_means(x_by_s):
        row = []
        for s, t in specs:
            prod = np.ones(len(x_by_s))
            for si, ti in zip(s, t):
                prod = prod * x_by_s[:, si] ** ti
            row.append(prod.mean())
        return row

    sums = np.array(_per_batch(dist, n, smax, reps, seed, batches, spec_means))
    bsize = reps // batches
    out = []
    for j in range(len(specs)):
        means = sums[:, j]
        se = float(means.std(ddof=1) / math.sqrt(batches))
        out.append(OracleResult(float(means.mean()), se, "mc", bsize * batches))
    return out


def mc_third_cumulant(
    dist: DistributionSpec,
    n: int,
    s: tuple,
    reps: int,
    seed: int,
    batches: int = 25,
) -> OracleResult:
    """Third joint cumulant of the normalized (Y_{ns1}, Y_{ns2}, Y_{ns3})
    estimated per batch from sample moments."""
    if np is None:
        _load_numpy()
    s1, s2, s3 = s
    _require_moment(dist, n, (s1, s2, s3), (1.0, 1.0, 1.0), _MC_MARGIN)
    alpha = tail_of(dist, 0).alpha
    c0 = tail_of(dist, 0).c[0]
    scale = (n * c0) ** (1.0 / alpha)

    def kappa(x):
        y1, y2, y3 = x[:, s1] / scale, x[:, s2] / scale, x[:, s3] / scale
        m123 = (y1 * y2 * y3).mean()
        m12, m13, m23 = (y1 * y2).mean(), (y1 * y3).mean(), (y2 * y3).mean()
        m1, m2, m3 = y1.mean(), y2.mean(), y3.mean()
        return m123 - m1 * m23 - m2 * m13 - m3 * m12 + 2.0 * m1 * m2 * m3

    kappas = np.array(_per_batch(dist, n, max(s), reps, seed, batches, kappa))
    se = float(kappas.std(ddof=1) / math.sqrt(batches))
    return OracleResult(float(kappas.mean()), se, "mc", reps // batches * batches)


def convergence_rate_probe(n_grid, diffs, floor: float = 1e-9) -> RateFit:
    """Ordinary least-squares slope of log |diff| against log n, with the
    root-mean-square residual of the fitted line.

    Needs one finite diff per n, at least 3 distinct n > 0 and a floor
    >= 0; raises ``ValueError`` otherwise.  Reports saturation instead of a slope when any
    difference sits at or below the oracle's resolution floor.
    """
    n_grid = [float(n) for n in n_grid]
    diffs = [abs(float(d)) for d in diffs]
    if len(n_grid) != len(diffs):
        raise ValueError(
            f"a rate fit needs one diff per n, got {len(diffs)} diffs for "
            f"{len(n_grid)} values of n"
        )
    if len(set(n_grid)) < 3 or not all(0.0 < n < math.inf for n in n_grid):
        raise ValueError(f"a rate fit needs 3 distinct finite n > 0, got {n_grid}")
    if not all(math.isfinite(d) for d in diffs):
        raise ValueError(f"a rate fit needs finite diffs, got {diffs}")
    if not floor >= 0.0:
        raise ValueError(f"a rate fit needs a floor >= 0, got {floor}")
    if any(d <= floor for d in diffs):
        return RateFit(math.nan, math.nan, saturated=True)
    x = [math.log(n) for n in n_grid]
    y = [math.log(d) for d in diffs]
    x_mean = math.fsum(x) / len(x)
    y_mean = math.fsum(y) / len(y)
    dx = [xi - x_mean for xi in x]
    dy = [yi - y_mean for yi in y]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    sq = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    return RateFit(slope, math.sqrt(sq / len(y)))
