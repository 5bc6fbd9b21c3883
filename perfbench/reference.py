"""References computed apart from paretotail.

Nothing here imports the package under test.  The formulas are written from
the definitions: Bernoulli numbers from their own recurrence, quantile
coefficients by a fixed-point reversion in mpmath, order-statistic moments
of Pareto laws from the Renyi representation of uniform order
statistics, and every other moment by quadrature of the order-statistic
density in x-space with the law taken from ``scipy.stats``.
"""

from __future__ import annotations

import math
from fractions import Fraction


# --- Bernoulli numbers and the Cauchy quantile -----------------------------

def bernoulli_numbers(m: int) -> list:
    """B_0 .. B_m as Fractions, from sum_{j<=k} C(k+1, j) B_j = 0."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        acc = sum(math.comb(k + 1, j) * b[j] for j in range(k))
        b.append(-acc / (k + 1))
    return b


def cot_laurent(order: int) -> list:
    """Coefficients of v^{2i-1}, i = 0..order, in cot(pi v).

    cot z = sum_i (-1)^i 2^{2i} B_{2i} z^{2i-1} / (2i)!, so the Cauchy upper
    quantile F^{-1}(1 - v) = cot(pi v) has coefficient
    (-1)^i 2^{2i} B_{2i} pi^{2i-1} / (2i)! on v^{2i-1}.
    """
    b = bernoulli_numbers(2 * order)
    return [
        float((-1) ** i * 2 ** (2 * i) * b[2 * i] / math.factorial(2 * i))
        * math.pi ** (2 * i - 1)
        for i in range(order + 1)
    ]


# --- quantile coefficients by fixed-point reversion ------------------------

def _series_power(f, p, m):
    """f^p to order m for f[0] != 0 (J. C. P. Miller's recurrence)."""
    g = [f[0] ** p]
    for k in range(1, m + 1):
        acc = sum((p * j - (k - j)) * f[j] * g[k - j] for j in range(1, k + 1))
        g.append(acc / (k * f[0]))
    return g


def quantile_coeffs(alpha, beta, c, theta, dps: int = 40) -> list:
    """C_0 .. C_m of {F^{-1}(1 - v)}^theta = sum_i C_i v^{i a - theta/alpha}
    for 1 - F(x) = x^{-alpha} sum_i c_i x^{-i beta}, a = beta/alpha, at
    ``dps`` digits from the exact values of the inputs.

    With z = x^{-alpha} = v h(s), s = v^a, the tail equation becomes
    h sum_i c_i s^i h^{ia} = 1, solved for the power series h by fixed-point
    iteration (each pass fixes one more coefficient); then
    x^theta = v^{-theta/alpha} h^{-theta/alpha}.
    """
    import mpmath

    def mp(x):
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / x.denominator
        return mpmath.mpf(x)

    with mpmath.workdps(dps):
        alpha, beta, theta = mp(alpha), mp(beta), mp(theta)
        c = [mp(x) for x in c]
        m = len(c) - 1
        a = beta / alpha
        h = [1 / c[0]] + [mpmath.mpf(0)] * m
        for _ in range(m + 1):
            tail = [mpmath.mpf(0)] * (m + 1)
            for i in range(m + 1):
                for k, x in enumerate(_series_power(h, i * a, m - i)):
                    tail[i + k] += c[i] * x
            h = _series_power(tail, -1, m)
        return [float(x) for x in _series_power(h, -theta / alpha, m)]


# --- gamma ratio n!/Gamma(n+1+theta) ---------------------------------------

def gamma_ratio_exact_coeffs(theta: int, imax: int) -> list:
    """Exact coefficients e_i of n!/Gamma(n+1+theta) = n^{-theta} sum e_i n^{-i}
    for integer theta, as Fractions.

    theta >= 0: n^theta / prod_{j=1..theta} (n + j) = prod 1/(1 + j x), x = 1/n.
    theta < 0:  n^theta * n (n-1) ... (n+theta+1) = prod_{j<-theta} (1 - j x).
    """
    poly = [Fraction(1)] + [Fraction(0)] * imax
    if theta >= 0:
        factors = [[Fraction((-j) ** k) for k in range(imax + 1)] for j in range(1, theta + 1)]
    else:
        factors = [[Fraction(1), Fraction(-j)] + [Fraction(0)] * (imax - 1) for j in range(-theta)]
    for f in factors:
        poly = [sum(poly[k] * f[i - k] for k in range(i + 1)) for i in range(imax + 1)]
    return poly


def gamma_ratio_scaled(n: int, theta: float) -> float:
    """n^theta * n!/Gamma(n+1+theta) by log-gamma."""
    return math.exp(theta * math.log(n) + math.lgamma(n + 1) - math.lgamma(n + 1 + theta))


# --- Pareto order statistics (Renyi representation) ------------------------

def _beta_log_moment(p, q, t):
    """log E R^t for R ~ Beta(p, q)."""
    return math.lgamma(p + t) - math.lgamma(p) + math.lgamma(p + q) - math.lgamma(p + q + t)


def _beta_moment_exact(p: int, q: int, t: int) -> Fraction:
    """E R^t for R ~ Beta(p, q) with integer t, as a Fraction."""
    out = Fraction(1)
    if t >= 0:
        for j in range(t):
            out *= Fraction(p + j, p + q + j)
    else:
        for j in range(1, -t + 1):
            out *= Fraction(p + q - j, p - j)
    return out


def pareto_joint_moment(n: int, s, theta, alpha) -> float | Fraction:
    """E prod_i X_{n,n-s_i}^{theta_i} for X ~ Pareto(alpha) on [1, inf).

    X_{n,n-s} = W_{(s+1)}^{-1/alpha} with W_{(m)} the m-th smallest of n
    uniforms.  For ranks m_1 > m_2 > ... the ratios R_1 = W_{(m_1)} ~
    Beta(m_1, n+1-m_1) and R_i = W_{(m_i)} / W_{(m_{i-1})} ~
    Beta(m_i, m_{i-1} - m_i) are independent, and W_{(m_i)} = R_1 ... R_i.
    Exact (a Fraction) when every theta_i/alpha is an integer.
    """
    ranks = {}
    for si, ti in zip(s, theta):
        ranks[si + 1] = ranks.get(si + 1, 0) + Fraction(ti) / Fraction(alpha)
    ms = sorted(ranks, reverse=True)
    powers = []
    acc = 0
    for m in reversed(ms):
        acc += ranks[m]
        powers.append(-acc)
    powers.reverse()  # exponent of R_i: minus the psi carried by ranks m_i and below
    exact = all(p.denominator == 1 for p in powers)
    prev = n + 1
    if exact:
        out = Fraction(1)
        for m, t in zip(ms, powers):
            out *= _beta_moment_exact(m, prev - m, int(t))
            prev = m
        return out
    log_out = 0.0
    for m, t in zip(ms, powers):
        log_out += _beta_log_moment(m, prev - m, float(t))
        prev = m
    return math.exp(log_out)


def frechet_mean(n: int, s: int, alpha: float) -> float:
    """E X_{n,n-s} for Frechet(alpha): a finite binomial sum.

    With r = n - s and F^{-1}(u) = (-log u)^{-1/alpha},
    E X_{n,r} = n!/((r-1)! s!) Gamma(1 - 1/alpha)
                sum_{k=0..s} C(s, k) (-1)^k (r + k)^{1/alpha - 1}.
    """
    r = n - s
    lead = math.exp(math.lgamma(n + 1) - math.lgamma(r) - math.lgamma(s + 1))
    total = sum(
        math.comb(s, k) * (-1) ** k * (r + k) ** (1 / alpha - 1) for k in range(s + 1)
    )
    return lead * math.gamma(1 - 1 / alpha) * total


# --- the laws, written directly with scipy.stats --------------------------

def law(spec: str):
    """(frozen scipy.stats law, tail index alpha, leading tail coefficient c0)."""
    from scipy import stats

    name, _, rest = spec.partition("(")
    params = [float(p) for p in rest.rstrip(")").split(",")] if rest else []
    if name == "pareto":
        a = params[0] if params else 1.0
        return stats.pareto(a), a, 1.0
    if name == "cauchy":
        return stats.cauchy(), 1.0, 1 / math.pi
    if name == "frechet":
        return stats.invweibull(params[0]), params[0], 1.0
    if name == "student_t":
        N = params[0]
        c0 = math.gamma((N + 1) / 2) * N ** ((N - 1) / 2) / (
            math.sqrt(N * math.pi) * math.gamma(N / 2)
        )
        return stats.t(N), N, c0
    if name == "f_dist":
        M, N = params
        c0 = (N / M) ** (N / 2) * (2 / N) / math.exp(
            math.lgamma(M / 2) + math.lgamma(N / 2) - math.lgamma((M + N) / 2)
        )
        return stats.f(M, N), N / 2, c0
    if name == "stable" and params == [0.5, -0.5]:
        # the one-sided stable law with Laplace transform exp(-sqrt(s)) is
        # Levy with scale 1/2: 1 - F(x) = erf(1/(2 sqrt x)) ~ x^{-1/2}/sqrt(pi)
        return stats.levy(scale=0.5), 0.5, 1 / math.sqrt(math.pi)
    raise ValueError(f"no reference law for {spec!r}")


def normalization(spec: str, n: int) -> float:
    """(n c0)^{1/alpha}, the scale of Y = X / (n c0)^{1/alpha}."""
    _, alpha, c0 = law(spec)
    return (n * c0) ** (1 / alpha)


def _log_density_1(d, n, r, x):
    """log of the density of X_{n,r} at x."""
    return (
        math.lgamma(n + 1) - math.lgamma(r) - math.lgamma(n - r + 1)
        + (r - 1) * d.logcdf(x) + (n - r) * d.logsf(x) + d.logpdf(x)
    )


def _mode_t(d, n, s):
    """log of the (n - s)-th quantile, where the order statistic sits."""
    return math.log(d.isf((s + 1) / (n + 1)))


def quad_moment_x(spec: str, n: int, s: int, theta: float = 1.0) -> float:
    """E X_{n,n-s}^theta by quadrature of the order-statistic density in x-space.

    Integrates over t = log|x| on both half-lines; the upper tail decays like
    exp(-(alpha (s+1) - theta) t).
    """
    from scipy.integrate import quad

    d, alpha, _ = law(spec)
    r = n - s
    tm = _mode_t(d, n, s)
    decay = alpha * (s + 1) - theta
    hi = tm + 50.0 / decay
    support_lo = d.support()[0]
    lo = max(tm - 40.0, math.log(support_lo)) if support_lo > 0 else tm - 40.0

    def pos(t):
        return math.exp(_log_density_1(d, n, r, math.exp(t)) + (theta + 1) * t)

    pts = [p for p in (tm - 2, tm, tm + 2) if lo < p < hi]
    val, _ = quad(pos, lo, hi, points=pts, epsabs=0.0, epsrel=1e-13, limit=500)
    if support_lo < 0:
        def neg(t):
            x = -math.exp(t)
            return math.exp(_log_density_1(d, n, r, x) + (theta + 1) * t) * (-1.0) ** theta

        neg_val, _ = quad(neg, -40.0, 40.0, epsabs=0.0, epsrel=1e-12, limit=500)
        val += neg_val
    return val


def quad_pair_moment_x(spec: str, n: int, s1: int, s2: int, per_unit: int = 10, nodes: int = 16) -> float:
    """E X_{n,n-s1} X_{n,n-s2} (s1 > s2) by quadrature in x-space.

    The joint density of X_{n,r1} < X_{n,r2} (r = n - s, g = r2 - r1) is
    n!/((r1-1)! (g-1)! s2!) F1^{r1-1} (S1 - S2)^{g-1} S2^{s2} f1 f2,
    with F1 = F(x1), S1 = 1 - F(x1) and so on.  Expanding (S1 - S2)^{g-1}
    leaves inner integrals H_k(x2) = int_{x1 < x2} x1 F1^{r1-1} S1^k f1 dx1.
    Both coordinates run over t = log x on composite Gauss-Legendre panels
    (``per_unit`` panels per unit of t, ``nodes`` nodes each); H_k at an
    outer node is the sum of the full panels below it plus its own partial
    panel.  For a two-sided law the part of H_k with x1 < 0 is added by
    adaptive quadrature; an upper coordinate below 0 has probability under
    n 2^-n and is left out.
    """
    import numpy as np
    from scipy.integrate import quad

    d, alpha, _ = law(spec)
    r1 = n - s1
    g = s1 - s2
    logc = math.lgamma(n + 1) - math.lgamma(r1) - math.lgamma(g) - math.lgamma(s2 + 1)
    t1m, t2m = _mode_t(d, n, s1), _mode_t(d, n, s2)
    lo = min(t1m, t2m) - 35.0
    hi = t2m + 40.0 / (alpha * (s2 + 1) - 1.0)
    edges = np.linspace(lo, hi, int((hi - lo) * per_unit) + 1)
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    a, b = edges[:-1, None], edges[1:, None]
    t2 = (a + b) / 2 + (b - a) / 2 * gx  # outer nodes, panels x nodes
    w2 = (b - a) / 2 * gw

    def h_integrand(t, k):
        x = np.exp(t)
        return np.exp((r1 - 1) * d.logcdf(x) + k * d.logsf(x) + d.logpdf(x) + 2 * t)

    # partial panel [a_p, t2] for every outer node: nodes x nodes inner points
    half = (t2 - a) / 2
    inner_t = (a + half)[..., None] + half[..., None] * gx
    inner_w = half[..., None] * gw

    def neg_part(k):
        def f(t):
            x = -math.exp(t)
            return -math.exp((r1 - 1) * d.logcdf(x) + k * d.logsf(x) + d.logpdf(x) + 2 * t)

        return quad(f, -40.0, 40.0, epsabs=0.0, epsrel=1e-12, limit=500)[0]

    x2 = np.exp(t2)
    sf2 = d.sf(x2)
    inner = np.zeros_like(t2)
    for k in range(g):
        full = (h_integrand(t2, k) * w2).sum(axis=1)
        below = np.concatenate(([0.0], np.cumsum(full)[:-1]))[:, None]
        h = below + (h_integrand(inner_t, k) * inner_w).sum(axis=2)
        if d.support()[0] < 0:
            h = h + neg_part(k)
        inner += math.comb(g - 1, k) * (-sf2) ** (g - 1 - k) * h
    outer = np.exp(logc + s2 * d.logsf(x2) + d.logpdf(x2) + 2 * t2) * inner
    return float((outer * w2).sum())


def normalized_mean(spec: str, n: int, s: int) -> float:
    return quad_moment_x(spec, n, s) / normalization(spec, n)


def normalized_covariance(spec: str, n: int, s1: int, s2: int) -> float:
    norm = normalization(spec, n)
    pair = quad_pair_moment_x(spec, n, s1, s2)
    m1 = quad_moment_x(spec, n, s1)
    m2 = quad_moment_x(spec, n, s2)
    return pair / norm**2 - m1 * m2 / norm**2
