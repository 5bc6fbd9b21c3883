"""Independent ground truth: quadrature and Monte Carlo oracles.

Nothing here reuses the expansion machinery.  Moments of top order
statistics are computed by integrating quantiles against the exact
multivariate beta density of uniform order statistics, or by simulating the
top block of uniforms directly through exponential spacings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .betamoments import suffix_sums
from .catalog import DistributionSpec, tail_of, upper_quantile, make_rng, sample_top
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

# numpy and scipy.integrate.quad are bound on the first call that needs them,
# so that importing the oracles loads neither.
np = None
_scipy_quad = None


def _load_numpy() -> None:
    global np
    import numpy as np


def _load_quad() -> None:
    global _scipy_quad
    from scipy.integrate import quad as _scipy_quad


def quad(func, a, b, **kwargs):
    """``scipy.integrate.quad``; every oracle integral goes through here."""
    if _scipy_quad is None:
        _load_quad()
    return _scipy_quad(func, a, b, **kwargs)


@dataclass(frozen=True)
class OracleResult:
    value: float
    std_error: float
    method: str
    cost: int

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


def _require_real_powers(dist: DistributionSpec, *thetas) -> None:
    """Refuse powers that turn complex on the negative part of the support."""
    if dist.two_sided and not all(float(t).is_integer() for t in thetas):
        raise CapabilityError(
            f"{dist} takes negative values, so X^theta needs an integer "
            f"theta; got {thetas}"
        )


def _finite(value: float, dist: DistributionSpec, n: int, s, theta) -> float:
    """Pass a finite integral through; a nan or inf means the integrand
    under- or overflowed, not that the moment is infinite."""
    if not math.isfinite(value):
        raise ParetoTailError(
            f"quadrature for {dist} at n={n}, s={s}, theta={theta} came out "
            f"{value}: the integrand under- or overflowed"
        )
    return value


def quad_moment(
    dist: DistributionSpec, n: int, s: int, theta: float, epsabs: float = 1e-10
) -> OracleResult:
    """E X_{n,n-s}^theta by adaptive quadrature against the beta density."""
    _require_real_powers(dist, theta)
    alpha = tail_of(dist, 0).alpha
    psi = theta / alpha
    if s + 1 - psi <= 0:
        raise InfiniteMomentError(
            f"moment infinite: s + 1 - theta/alpha = {s + 1 - psi} <= 0"
        )
    r = n - s
    if r < 1:
        raise ValueError(f"depth s={s} too large for n={n}")
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
        integrand_w, 0.0, cut ** (1.0 / p), epsabs=epsabs / 2, epsrel=1e-11, limit=400
    )
    hi, err_hi = quad(integrand_v, cut, 1.0, epsabs=epsabs / 2, epsrel=1e-11, limit=400)
    return OracleResult(_finite(lo + hi, dist, n, s, theta), 0.0, "quad1d", evals)


def quad_joint_moment(
    dist: DistributionSpec,
    n: int,
    s1: int,
    s2: int,
    theta1: float,
    theta2: float,
    epsabs: float = 1e-8,
) -> OracleResult:
    """E X_{n,n-s1}^theta1 X_{n,n-s2}^theta2 by nested quadrature over the
    ordered triangle, for s1 > s2 (ties delegate to the 1-D oracle)."""
    if s1 == s2:
        inner = quad_moment(dist, n, s1, theta1 + theta2, epsabs=epsabs)
        return OracleResult(inner.value, 0.0, "quad2d", inner.cost)
    if s1 < s2:
        raise ValueError(f"need s1 >= s2, got ({s1}, {s2})")
    _require_real_powers(dist, theta1, theta2)
    alpha = tail_of(dist, 0).alpha
    psi1, psi2 = theta1 / alpha, theta2 / alpha
    if s2 + 1 - psi2 <= 0 or s1 + 1 - psi1 - psi2 <= 0:
        raise InfiniteMomentError(
            f"joint moment infinite for s=({s1},{s2}), theta=({theta1},{theta2})"
        )
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

    val, err = quad(outer, 0.0, 1.0, epsabs=epsabs, epsrel=1e-9, limit=300)
    val = _finite(val, dist, n, (s1, s2), (theta1, theta2))
    return OracleResult(val, 0.0, "quad2d", evals)


def _check_mc_finiteness(alpha: float, s, theta):
    tbar = suffix_sums(theta)
    for si, tb in zip(s, tbar):
        if (si + 1) * alpha - tb < _MC_MARGIN:
            raise InfiniteMomentError(
                f"Monte Carlo refused: cumulative power {tb} too close to the "
                f"finiteness boundary {(si + 1) * alpha} at depth {si}"
            )


def _top_block_v(dist, n, smax, bsize, rng):
    """Matrix of v_s = 1 - U_{n,n-s}, columns s = 0..smax, via exponential
    spacings (never sorting n draws)."""
    if dist.has_numeric_quantile:
        exps = rng.exponential(1.0, (bsize, smax + 1))
        tops = np.cumsum(exps, axis=1)
        total = rng.gamma(n - smax, 1.0, bsize) + tops[:, -1]
        return tops / total[:, None]
    if not dist.has_sampler:
        raise CapabilityError(f"{dist} has neither quantile nor sampler")
    return None


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
    batches).
    """
    if reps < 10_000:
        raise ValueError(f"reps must be >= 10000, got {reps}")
    if np is None:
        _load_numpy()
    specs = [(tuple(s), tuple(t)) for s, t in specs]
    alpha = tail_of(dist, 0).alpha
    for s, t in specs:
        _check_mc_finiteness(alpha, s, t)
    smax = max(max(s) for s, _ in specs)
    bsize = reps // batches
    sums = np.zeros((batches, len(specs)))
    direct = not dist.has_numeric_quantile
    for b in range(batches):
        rng = make_rng(seed, b)
        if direct:
            x_by_s = sample_top(dist, rng, bsize, n, smax + 1)  # column s = depth s
        else:
            v = _top_block_v(dist, n, smax, bsize, rng)
            x_by_s = upper_quantile(dist, v)
        if not np.all(np.isfinite(x_by_s)):
            raise ParetoTailError(
                f"Monte Carlo top block for {dist} at n={n} has non-finite "
                f"values in batch {b}: the simulation under- or overflowed"
            )
        for j, (s, t) in enumerate(specs):
            prod = np.ones(bsize)
            for si, ti in zip(s, t):
                prod = prod * x_by_s[:, si] ** ti
            sums[b, j] = prod.mean()
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
    alpha = tail_of(dist, 0).alpha
    c0 = tail_of(dist, 0).c[0]
    _check_mc_finiteness(alpha, (s1, s2, s3), (1.0, 1.0, 1.0))
    smax = max(s)
    bsize = reps // batches
    kappas = np.zeros(batches)
    for b in range(batches):
        rng = make_rng(seed, b)
        v = _top_block_v(dist, n, smax, bsize, rng)
        if v is None:
            raise CapabilityError(f"{dist} has no quantile for the top-block path")
        x = upper_quantile(dist, v)
        scale = (n * c0) ** (1.0 / alpha)
        y1, y2, y3 = x[:, s1] / scale, x[:, s2] / scale, x[:, s3] / scale
        m123 = (y1 * y2 * y3).mean()
        m12, m13, m23 = (y1 * y2).mean(), (y1 * y3).mean(), (y2 * y3).mean()
        m1, m2, m3 = y1.mean(), y2.mean(), y3.mean()
        kappas[b] = (
            m123 - m1 * m23 - m2 * m13 - m3 * m12 + 2.0 * m1 * m2 * m3
        )
    se = float(kappas.std(ddof=1) / math.sqrt(batches))
    return OracleResult(float(kappas.mean()), se, "mc", bsize * batches)


def convergence_rate_probe(n_grid, diffs, floor: float = 1e-9) -> RateFit:
    """Least-squares slope of log |diff| against log n.

    Reports saturation instead of a slope when any difference sits at or
    below the oracle's resolution floor.
    """
    if np is None:
        _load_numpy()
    n_grid = np.asarray(n_grid, dtype=float)
    diffs = np.abs(np.asarray(diffs, dtype=float))
    if len(n_grid) < 3:
        raise ValueError("need at least 3 grid points for a rate fit")
    if np.any(diffs <= floor):
        return RateFit(math.nan, math.nan, saturated=True)
    x = np.log(n_grid)
    y = np.log(diffs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(float(slope), resid)
