"""Independent ground truth: quadrature and Monte Carlo oracles.

Nothing here reuses the expansion machinery.  Moments of top order
statistics are computed by integrating quantiles against the exact
multivariate beta density of uniform order statistics, or by simulating the
top block of uniforms directly by Renyi's representation, from s_max + 1
exponential spacings and so in O(s_max) work per replicate rather than O(n),
and mapping only the depths that are read through the quantile; every law
with a sampler has one.  The batches of a Monte Carlo call give its
standard error; its random streams, each the rows of whole batches and at
least ``_MC_STREAM_ROWS`` of them, are its units of work, each drawn in one
sampler call and checked and reduced in one pass over all its batches.  The
streams run on one thread per usable CPU, at most one per stream, and only
as many as keep their work arrays within ``_MC_WORK_BYTES`` together; the
threads live for that call alone.  The layout depends only on the rows per
batch, and each stream lands in its own slot, so a seeded result is bit for
bit that of one thread.  The spacings do not depend on n, so a caller that
loops over n (``verify``) passes its grid of n, and each stream is drawn
once and mapped at every n: the n of a seeded request share common random
numbers, and their errors are correlated.

The quadrature oracles first try a tensor Gauss-Jacobi rule whose weights
absorb the density's endpoint singularities exactly; numpy builds each rule
by Golub and Welsch's eigenvalue method, so its weights sum to 1 at any
exponent.  When no rung of the node ladder has two rules that agree, or a
rule comes out non-finite, one or two depths fall back to one nested
adaptive ``quad`` in the rule's own coordinates, and three or more are
refused.  A rule depends only on its size and exponents, never on the law,
so each (m, a, b, q) is built once per process and shared, read-only, by
every law and block that asks for it.  A law's constants are built once
per process too: its tail model (``tail_of``) and the denominator q of its
gap beta/alpha that picks the rules' coordinate.
"""

from __future__ import annotations

import contextvars
import functools
import math
import numbers
import os
import threading
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

from .betamoments import merge_ties, require_finite, suffix_sums
from .catalog import DistributionSpec, make_rng, tail_of, upper_quantile
from .errors import CapabilityError, InfiniteMomentError, ParetoTailError

__all__ = [
    "OracleResult",
    "RateFit",
    "quad_moment",
    "quad_joint_moment",
    "mc_top_order_stats",
    "convergence_rate_probe",
]

_MC_MARGIN = 0.05
# Gauss-Jacobi node ladder: nodes per coordinate of the two rules of each
# rung; the second rule is accepted when the two agree
_GJ_LADDER = ((16, 24), (32, 48), (64, 96))
# nodes of the largest tensor rule run (four depths at 48 nodes): a rung
# with more is skipped, since each of its arrays holds that many floats
_GJ_MAX_NODES = 48**4
# absolute and relative tolerances of the oracles over one depth and over
# more, adaptive or Gauss-Jacobi: each asks max(epsabs, epsrel |I|)
_EPSABS_1D, _EPSREL_1D = 1e-10, 1e-11
_EPSABS_2D, _EPSREL_2D = 1e-8, 1e-9
# Gauss-Jacobi rules kept per process, about 1 kB each
_JACOBI_CACHE_SIZE = 1024
# gap denominators kept per process, one per (alpha, beta)
_GAP_CACHE_SIZE = 256
# bytes of work arrays that the threads of one Monte Carlo call may hold
# together: a stream too large for two runs on the caller's thread alone
_MC_WORK_BYTES = 64 << 20
# rows that one Monte Carlo stream draws at the least, in whole batches: a
# sampler call and a reduction on fewer cost more in numpy's per-call
# overhead and in handing the interpreter lock between threads than they
# save; a 10,000-rep call is one stream on the caller's thread
_MC_STREAM_ROWS = 10_000

# numpy and scipy.integrate.quad are bound on the first call that needs
# them, so that importing the oracles loads neither.
np = None
_scipy_quad = None


def _load_numpy() -> None:
    global np
    import numpy as np


def _load_quad() -> None:
    global _scipy_quad
    from scipy.integrate import quad as _scipy_quad


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
    error estimate (the last rung's rule difference, or the outer adaptive
    ``quad``'s ``abserr``), and ``std_error`` the Monte Carlo one."""

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
    X_{n,n-s_i}^theta_i over depths s unless n and the depths are integers,
    the depths >= 0 and nonincreasing, the powers stay real on the law's
    support, both tails leave the moment finite (by more than ``margin``) and
    the deepest order statistic is in the sample."""
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n!r}")
    if not all(isinstance(si, numbers.Integral) and si >= 0 for si in s):
        raise ValueError(f"depths must be integers >= 0, got {s}")
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


def _jacobi_rule(m: int, a: float, b: float):
    """Nodes on (-1, 1) and weights, summing to 1, of the m-point Gauss rule
    for the weight (1-x)^a (1+x)^b, a, b > -1 (Golub & Welsch, Math. Comp.
    23, 1969): the eigenvalues of the monic Jacobi matrix and the squared
    first components of its eigenvectors."""
    k = np.arange(1, m)
    s = 2.0 * k + a + b
    diag = np.concatenate(([(b - a) / (a + b + 2.0)], (b - a) * (b + a) / (s * (s + 2.0))))
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    x, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, -1), UPLO="L")
    return x, vectors[0] ** 2


@functools.lru_cache(maxsize=_JACOBI_CACHE_SIZE)
def _jacobi_coordinate(m: int, a: float, b: float, q: int):
    """Nodes x, weights w and log scale c of an m-node rule
    ``int_0^1 x^b (1-x)^a f(x) dx ~ exp(c) sum w f(x)``; x and w are
    read-only, since every caller with the same arguments shares them.

    The rule runs in u = x^(1/q), where f is smooth when it is a series in
    x^(p/q): the weight becomes q u^bu (1-u^q)^a, bu = q(b+1) - 1.  The
    Jacobi weight u^bu (1-u)^a' takes a' where u^bu (1-u^q)^a peaks, u*^q =
    bu/(qa + bu), a' = bu (1/u* - 1), rounded to an integer so that the ratio
    (1-u^q)^a / (1-u)^a', carried in the weights, is a polynomial; at q = 1,
    a' = a and the ratio is 1.
    """
    bu = q * (b + 1.0) - 1.0
    peak = bu if bu > 0 else 1.0  # for bu <= 0 the weight has no interior peak
    u_star = (peak / (q * a + peak)) ** (1.0 / q)
    a_j = round(peak * (1.0 / u_star - 1.0))
    xi, w = _jacobi_rule(m, a_j, bu)
    u = (1.0 + xi) / 2.0
    log_ratio = a * np.log1p(-(u**q)) - a_j * np.log1p(-u)
    top = log_ratio.max()
    w = w * np.exp(log_ratio - top)
    return _frozen(u**q, w, math.log(q) + _log_beta(bu + 1.0, a_j + 1.0) + top)


def _frozen(x, w, log_c):
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w, log_c


def _coordinates(n: int, depths, powers, alpha: float):
    """(psi, psibar, uppers, log_c) of the coordinates x_1 = V_{s_1}, x_{i+1}
    = V_{s_{i+1}} / V_{s_i} (V_s = 1 - U_{n,n-s}) over strictly decreasing
    depths: the density is exp(log_c) prod x_i^s_i (1-x_i)^(u_i-s_i-1), u =
    ``uppers`` = (n, s_1, ...), and X_{n,n-s_i}^theta_i ~ V_{s_i}^-psi_i
    leaves x_i the pole x_i^-psibar_i, psibar_i = psi_i + psi_{i+1} + ..."""
    psi = [t / alpha for t in powers]
    psibar = suffix_sums(psi)
    uppers = (n,) + depths[:-1]
    log_c = math.lgamma(n + 1) - math.lgamma(n - depths[0]) - math.lgamma(depths[-1] + 1)
    log_c -= sum(math.lgamma(depths[i] - depths[i + 1]) for i in range(len(depths) - 1))
    return psi, psibar, uppers, log_c


def _gauss_jacobi_rule(dist, theta, psi, coords, log_c, q, m) -> float:
    """E prod X_{n,n-s_i}^theta_i by one tensor rule of m nodes per
    coordinate of ``_coordinates``, for strictly decreasing depths s.

    The Jacobi weights x_i^(s_i - psibar_i) (1-x_i)^(u_i-s_i-1) take the
    poles, which leaves the integrand prod q(v_i)^theta_i v_i^psi_i bounded,
    v_i = x_1 ... x_i.  ``coords`` holds each coordinate's Jacobi exponents
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
    or None when no rung of ``_GJ_LADDER`` within ``_GJ_MAX_NODES`` agrees
    within max(epsabs, epsrel |I|); ``nodes`` counts the integrand nodes
    spent."""
    if np is None:
        _load_numpy()
    depths, powers = merge_ties(s, theta)
    k = len(depths)
    tail = tail_of(dist, 0)
    q = _gap_denominator(tail.alpha, tail.beta)
    psi, psibar, uppers, log_c = _coordinates(n, depths, powers, tail.alpha)
    coords = [(u - si - 1, si - pb) for u, si, pb in zip(uppers, depths, psibar)]
    nodes = 0

    def rule(m):
        nonlocal nodes
        nodes += m**k
        return _gauss_jacobi_rule(dist, powers, psi, coords, log_c, q, m)

    # a non-finite rule (an overflowing integrand) stays non-finite with
    # more nodes: fall back
    with np.errstate(all="ignore"):
        for m1, m2 in _GJ_LADDER:
            if m2**k > _GJ_MAX_NODES:
                break
            i1 = rule(m1)
            if not math.isfinite(i1):
                break
            i2 = rule(m2)
            err = abs(i2 - i1)
            if not math.isfinite(err):
                break
            if err <= max(epsabs, epsrel * abs(i2)):
                return OracleResult(i2, 0.0, "gauss_jacobi", nodes, err), nodes
    return None, nodes


def _adaptive(dist, n, s, theta, epsabs, epsrel) -> OracleResult:
    """E prod X_{n,n-s_i}^theta_i over one or two strictly decreasing depths
    by nested adaptive ``quad`` in the coordinates of ``_coordinates``, each
    run in x_i = y^p_i, p_i = ceil((k + 1 - i) / (s_i + 1 - psibar_i)), which
    lifts the exponent s_i - psibar_i of x_i above k - i - 1 (i from 0), so
    that inner integrals are smooth in the outer y (``_require_moment`` has
    made each s_i + 1 - psibar_i positive).  The outer integral asks
    max(epsabs, epsrel |I|), the inner ones epsabs / 1000 and epsrel / 10.
    A node whose v_i underflows to 0 makes inf * 0, and the integral nan."""
    k = len(s)
    _, psibar, uppers, log_c = _coordinates(n, s, theta, tail_of(dist, 0).alpha)
    subs = [max(1, math.ceil((k + 1 - i) / (s[i] + 1 - psibar[i]))) for i in range(k)]
    evals = 0

    def integral(i, v, shift):
        si, t, p, a = s[i], theta[i], subs[i], uppers[i] - s[i] - 1

        def f(y):
            nonlocal evals
            evals += 1
            x = y**p
            g = float(upper_quantile(dist, v * x)) ** t * p * math.exp(
                (p * si + p - 1) * math.log(y) + a * math.log1p(-x) + shift
            )
            return g if i == k - 1 else g * integral(i + 1, v * x, 0.0)[0]

        tol = (epsabs, epsrel, 400) if i == 0 else (epsabs * 1e-3, epsrel / 10, 200)
        return quad(f, 0.0, 1.0, epsabs=tol[0], epsrel=tol[1], limit=tol[2])

    value, err = integral(0, 1.0, log_c)
    return OracleResult(_finite(value, dist, n, s, theta), 0.0, f"quad{k}d", evals, err)


def quad_moment(dist: DistributionSpec, n: int, s: int, theta: float) -> OracleResult:
    """E X_{n,n-s}^theta against the beta density: the tensor Gauss-Jacobi
    rule, or the adaptive fallback when the rule cannot confirm its accuracy
    to max(1e-10, 1e-11 |I|)."""
    return _quad(dist, n, (s,), (theta,))


def _quad(dist: DistributionSpec, n: int, s, theta) -> OracleResult:
    """E prod X_{n,n-s_i}^theta_i over distinct depths: ties are merged
    before the existence check (a two-sided law's X^0.5 X^0.5 is X^1), then
    the Gauss-Jacobi rule runs, and ``_adaptive`` when it cannot confirm its
    accuracy; three or more depths have no adaptive fallback."""
    s, theta = merge_ties(s, theta)
    _require_moment(dist, n, s, theta)
    tol = (_EPSABS_1D, _EPSREL_1D) if len(s) == 1 else (_EPSABS_2D, _EPSREL_2D)
    res, nodes = _gauss_jacobi(dist, n, s, theta, *tol)
    if res is None and len(s) > 2:
        raise ParetoTailError(f"no Gauss-Jacobi rule confirms {dist} at n={n}, s={s}")
    if res is None:
        res = _adaptive(dist, n, s, theta, *tol)
        res = replace(res, cost=res.cost + nodes)
    return res


def quad_joint_moment(
    dist: DistributionSpec,
    n: int,
    s1: int,
    s2: int,
    theta1: float,
    theta2: float,
) -> OracleResult:
    """E X_{n,n-s1}^theta1 X_{n,n-s2}^theta2 for s1 > s2 (ties delegate to
    the 1-D oracle): the tensor Gauss-Jacobi rule, or the nested adaptive
    fallback when the rule cannot confirm its accuracy to max(1e-8, 1e-9
    |I|)."""
    return _quad(dist, n, (s1, s2), (theta1, theta2))


def _worker_count(streams: int, nbytes: int) -> int:
    """Threads for one Monte Carlo call: one per usable CPU and stream, no
    more than keep their work arrays of ``nbytes`` each within
    ``_MC_WORK_BYTES`` together, and at least one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, streams, int(_MC_WORK_BYTES // max(nbytes, 1))))


def _per_batch(dist, n, depths, reps, seed, batches, reduce):
    """The rows that ``reduce`` returns for batches 0, ..., batches - 1, in
    order, where the top block of batch b holds ``reps // batches`` rows
    whose column i is X_{n,n-s} at depth s = depths[i]; the depths must be
    strictly increasing within [0, n).  ``n`` may also be a sequence of
    sample sizes, a grid: then the result is a list of those arrays, one
    per n in order, each bit for bit that of a call at that n alone.

    The batch is the unit of the standard error, the stream the unit of
    work: stream c draws the rows of ``ceil(_MC_STREAM_ROWS / bsize)``
    consecutive whole batches (one when a batch holds ``_MC_STREAM_ROWS``
    rows or more; the last stream may hold fewer) in one sampler call, from
    ``make_rng(seed, c)``.  ``reduce`` gets the stream whole, shaped
    (batches held, bsize, len(depths)), and returns one row per batch held.
    The sampler maps through the law's quantile, at the given depths only,
    the top block of v_s = 1 - U_{n,n-s} in Renyi's form (Renyi, Acta Math.
    Acad. Sci. Hungar. 4, 1953): v_s = 1 - exp(-T_s), T_s = E_0 / n + ... +
    E_s / (n - s), from one call's s_max + 1 standard exponentials E per row,
    never sorting n draws nor drawing the rest of the sample.  None of the
    spacings E depends on n, so a stream draws them once and maps, checks
    and reduces them at each n of the grid in turn: the n share common
    random numbers.

    The streams run on ``_worker_count`` threads that live for this call:
    the caller's and the others', each under a copy of the caller's
    context, so that its ``np.errstate`` holds in all.  The layout depends
    only on the batch size, and each stream's rows land in its own slot, so
    the arrays are bit for bit those of drawing the streams in order on one
    thread.  An error raised is the one that a call per n would raise
    first: at the first failing n of the grid, that of its lowest failing
    batch, as on one thread.
    """
    if reps < 10_000:
        raise ValueError(f"reps must be >= 10000, got {reps}")
    if batches < 2:
        raise ValueError(f"a standard error needs batches >= 2, got {batches}")
    bsize = reps // batches
    if bsize < 1:
        raise ValueError(f"reps={reps} leave no rows for each of {batches} batches")
    grid = [n] if isinstance(n, numbers.Integral) else list(n)
    depths = list(depths)
    # the uniforms of a depth are written only when its loop reaches it
    increasing = all(a < b for a, b in zip(depths, depths[1:]))
    if not (depths and increasing and 0 <= depths[0] and depths[-1] < min(grid)):
        raise ValueError(
            f"depths must be strictly increasing within [0, n={min(grid)}), got {depths}"
        )
    if np is None:
        _load_numpy()
    group = -(-_MC_STREAM_ROWS // bsize)  # batches per stream
    streams = -(-batches // group)
    smax = depths[-1]

    def uniforms(e, n, keep):
        # Renyi's form: v_s = -expm1(-T_s), T_s = sum_{c<=s} E_c / (n - c),
        # with the spacings E depth-major, so that each step is a contiguous
        # row added into one running sum, which holds -T_s.  Spacings that a
        # later n reads again are kept, each step going through one scratch
        # row; otherwise each row is divided in place
        v = np.empty((len(depths), e.shape[1]))
        step = np.empty(e.shape[1]) if keep else None
        neg_t = np.divide(e[0], -n, out=None if keep else e[0])
        j = 0
        for c in range(smax + 1):
            if c:
                neg_t += np.divide(e[c], c - n, out=step if keep else e[c])
            if c == depths[j]:
                np.negative(np.expm1(neg_t, out=v[j]), out=v[j])
                j += 1
        return v

    # a table that the quantile builds on first use is built here, once,
    # before the threads share it
    upper_quantile(dist, 0.5)
    # a stream's peak, in floats per row: the spacings and the uniforms (and
    # a spare) while it draws at its last n, or after, per depth the
    # uniforms and the quantile with its temporaries, ten arrays in all for
    # the stable law's Chebyshev sums (and a spare); the last n frees the
    # spacings before its quantile runs, an earlier one holds them through it
    quantile = 10 * len(depths) + 1
    per_row = max(smax + 2 + len(depths), quantile) if len(grid) == 1 else smax + 1 + quantile
    nbytes = 8 * group * bsize * per_row

    results = [[None] * streams for _ in grid]
    errors = []  # ((index in the grid, batch), exception)
    unclaimed = iter(range(streams))
    lock = threading.Lock()

    def beaten(key) -> bool:
        # whether an error raised yet sorts before one at key; call under
        # the lock
        return any(k < key for k, _ in errors)

    def claim():
        # streams go out in order, so an error that sorts before a stream's
        # first batch at the first n sorts before every later stream's
        with lock:
            c = next(unclaimed, None)
            return None if c is None or beaten((0, c * group)) else c

    def work():
        for c in iter(claim, None):
            first = c * group
            held = min(group, batches - first)
            key = (0, first)
            try:
                e = make_rng(seed, c).standard_exponential((smax + 1, held * bsize))
                for k, m in enumerate(grid):
                    key = (k, first)
                    with lock:
                        if beaten(key):
                            break
                    keep = k + 1 < len(grid)
                    v = uniforms(e, m, keep)
                    if not keep:
                        del e  # the quantile runs without the spacings
                    x = upper_quantile(dist, v).T.reshape(held, bsize, len(depths))
                    del v
                    finite = np.isfinite(x).all(axis=(1, 2))
                    if not finite.all():
                        key = (k, first + int(finite.argmin()))
                        raise ParetoTailError(
                            f"Monte Carlo top block for {dist} at n={m} has "
                            f"non-finite values in batch {key[1]}: the "
                            "simulation under- or overflowed"
                        )
                    results[k][c] = reduce(x)
                    del x  # before the next n's uniforms
            except Exception as exc:  # raised on the caller's thread below
                with lock:
                    errors.append((key, exc))
            e = v = x = None  # before the next stream's draw

    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(work,))
        for _ in range(_worker_count(streams, nbytes) - 1)
    ]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        with lock:  # after an interrupt, hand out no more streams
            for _ in unclaimed:
                pass
        for t in helpers:
            t.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    out = [np.concatenate(r) for r in results]
    return out[0] if isinstance(n, numbers.Integral) else out


def _infinite_square(dist: DistributionSpec, n: int, s, theta):
    """The ``InfiniteMomentError`` with which ``_require_moment`` refuses the
    square of prod X_{n,n-s_i}^theta_i under the Monte Carlo margin, or None:
    a product whose square has an infinite mean has no standard error, so a
    Monte Carlo batch standard error of it means nothing."""
    try:
        _require_moment(dist, n, s, tuple(2.0 * t for t in theta), _MC_MARGIN)
    except InfiniteMomentError as exc:
        return exc
    return None


def mc_top_order_stats(
    dist: DistributionSpec,
    n: int,
    specs,
    reps: int,
    seed: int,
    batches: int = 25,
    *,
    grid=None,
):
    """Monte Carlo estimates of E prod X_{n,n-s_i}^{theta_i}.

    ``specs`` is a list of (s-vector, theta-vector) pairs, all served from
    the same simulated top block, which every law maps through its quantile
    (``_per_batch``).  Returns one OracleResult per spec, with
    batch-mean standard errors; deterministic for fixed (seed, reps,
    batches), whatever the number of threads.  Empty specs, a non-integer
    reps, batches or seed, and a negative seed are refused with a
    ``ValueError`` before any draw.  A spec whose squared product has an
    infinite mean is served with a ``RuntimeWarning`` that names it: its
    standard error means nothing.

    ``grid`` serves a caller that loops over n: a dict keyed by every n of
    its loop, each value None at first.  The first call checks every n of
    the grid, in its order and before any draw, runs one draw per stream
    for the whole grid and stores each n's results in the dict under the
    request (dist, specs, reps, seed, batches); each call returns its own
    n's results, bit for bit those of a call without ``grid``, and its
    errors are those that the calls without it would raise first.  The
    results stay in the dict, so an n that the loop repeats (``verify
    --n 20,40,80,80``) is served again.  A grid that holds another
    request's results is refused with a ``ValueError``.
    """
    specs = [(tuple(s), tuple(t)) for s, t in specs]
    if not specs:
        raise ValueError("specs must hold at least one (depths, powers) pair")
    for name, value in (("reps", reps), ("batches", batches), ("seed", seed)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if grid is None:
        return _mc_results(dist, [n], specs, reps, seed, batches)[0]
    if not (isinstance(n, numbers.Integral) and n in grid):
        raise ValueError(f"n={n!r} is not an n of the grid {list(grid)}")
    request = (dist, specs, reps, seed, batches)
    if all(stored is None for stored in grid.values()):
        results = _mc_results(dist, list(grid), specs, reps, seed, batches)
        grid.update((m, (request, res)) for m, res in zip(grid, results))
    if grid[n] is None or grid[n][0] != request:
        raise ValueError(
            f"the grid holds the results of another request, not of {dist} "
            f"with specs {specs}, reps={reps}, seed={seed}, batches={batches}"
        )
    return list(grid[n][1])


def _mc_results(dist, grid, specs, reps, seed, batches):
    """``mc_top_order_stats``'s results at each n of the grid, from one
    ``_per_batch`` pass, once every n's specs pass the existence check."""
    for n in grid:
        for s, t in specs:
            _require_moment(dist, n, s, t, _MC_MARGIN)
            refusal = _infinite_square(dist, n, s, t)
            if refusal is not None:
                warnings.warn(
                    f"the Monte Carlo standard error of {dist} at n={n}, s={s}, "
                    f"theta={t} means nothing: the squared product has an "
                    f"infinite mean ({refusal})",
                    RuntimeWarning,
                    stacklevel=3,
                )
    depths = sorted({si for s, _ in specs for si in s})
    column = {si: i for i, si in enumerate(depths)}

    def spec_means(x):
        # one mean per batch of the stream x and spec; a product starts
        # from its first factor and skips a power of 1, which leave its bits
        out = np.empty((len(x), len(specs)))
        for j, (s, t) in enumerate(specs):
            prod = None
            for si, ti in zip(s, t):
                factor = x[:, :, column[si]]
                if ti != 1:
                    factor = factor**ti
                prod = factor if prod is None else prod * factor
            out[:, j] = prod.mean(axis=1)
        return out

    grid_sums = _per_batch(dist, grid, depths, reps, seed, batches, spec_means)
    bsize = reps // batches
    out = []
    for sums in grid_sums:
        res = []
        for j in range(len(specs)):
            means = sums[:, j]
            se = float(means.std(ddof=1) / math.sqrt(batches))
            res.append(OracleResult(float(means.mean()), se, "mc", bsize * batches))
        out.append(res)
    return out


def _block(s, mask) -> tuple:
    return tuple(x for i, x in enumerate(s) if mask >> i & 1)


def _depth_blocks(s) -> list:
    """The 2^k - 1 nonempty sub-tuples of the depths s, whole tuple first."""
    return [_block(s, mask) for mask in range(2 ** len(s) - 1, 0, -1)]


def _joint_cumulant(s, moment):
    """Joint cumulant of the variables at the depths s from ``moment(b)``,
    the raw moment of each block b of ``_depth_blocks(s)``, by the
    moment-cumulant recursion kappa(S) = m(S) - sum_B kappa(B) m(S \\ B) over
    the proper subsets B of S that hold S's first element (McCullagh, *Tensor
    Methods in Statistics*, 1987, ch. 2); it shares no code with the
    expansion's cumulants."""

    @functools.cache
    def kappa(mask):
        first = mask & -mask
        rest = mask ^ first
        out = moment(_block(s, mask))
        sub = rest
        while sub:  # B = first | sub over the proper subsets of the rest
            sub = (sub - 1) & rest
            out -= kappa(first | sub) * moment(_block(s, rest ^ sub))
        return out

    return kappa(2 ** len(s) - 1)


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
