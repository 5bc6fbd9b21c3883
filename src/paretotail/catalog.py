"""Catalog of heavy-tailed distributions with tail models and samplers.

Each law is one row of ``_LAWS``: its example and parameter contract, its
Pareto-type tail coefficients, and its quantile and CDF where it has them.
The capability flags are read from the row, and honest: the general stable
law carries coefficients only, and only its one-sided case gets a sampler.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import CapabilityError, ParetoTailError, UnsupportedOrderError
from .quantile import TailModel
from .series import FormalSeries, binomial_coefficient

__all__ = [
    "DistributionSpec",
    "parse_distribution",
    "tail_of",
    "upper_quantile",
    "cdf",
    "sample",
    "sample_top",
    "make_rng",
    "CATALOG_NAMES",
]


def _integers(p) -> bool:
    return all(x == int(x) for x in p)


class _Law(NamedTuple):
    """A catalog law; each function takes the law's parameters p first."""

    example: tuple  # the example spec's parameters
    contract: str  # the parameter contract, and its check on finite p
    check: Callable
    tail: Callable  # (p, k) -> (alpha, beta, [c_0, ..., c_k])
    quantile: Callable | None = None  # (p, v) -> F^{-1}(1 - v), v float or array
    cdf: Callable | None = None  # (p, x) -> F(x)
    exact: bool = False  # whether the quantile is in closed form
    two_sided: Callable = lambda p: False  # whether the support reaches below 0


def _pareto_tail(p, k):
    alpha = p[0] if p else 1.0
    return alpha, alpha, [1.0] + [0.0] * k


def _cauchy_tail(p, k):
    return 1.0, 2.0, [(-1.0) ** i / ((2 * i + 1) * math.pi) for i in range(k + 1)]


def _student_t_tail(p, k):
    N = int(p[0])
    gam = (N + 1) / 2
    g_n = math.gamma(gam) / (math.sqrt(N * math.pi) * math.gamma(N / 2))
    return float(N), 2.0, [
        binomial_coefficient(-gam, i) * N ** (gam + i) * g_n / (N + 2 * i)
        for i in range(k + 1)
    ]


def _f_tail(p, k):
    # tail index N/2 with d_i carrying nu^{-i}: fixed points of the
    # closed-form check 1 - F = (1 + nu x)^{-N/2} at M = 2
    M, N = int(p[0]), int(p[1])
    nu = M / N
    gam = (M + N) / 2
    h_mn = nu ** (-N / 2) / math.exp(
        math.lgamma(M / 2) + math.lgamma(N / 2) - math.lgamma(gam)
    )
    return N / 2, 1.0, [
        h_mn * binomial_coefficient(-gam, i) * nu ** (-i) / (N / 2 + i)
        for i in range(k + 1)
    ]


def _stable_tail(p, k):
    alpha, gamma = p
    return alpha, alpha, [
        _stable_density_coeff(i + 1, alpha, gamma) / (alpha * (i + 1))
        for i in range(k + 1)
    ]


def _stable_density_coeff(k: int, alpha: float, gamma: float) -> float:
    """Coefficient of |x|^{-1-alpha*k} in the stable density for alpha < 1."""
    return (
        math.gamma(k * alpha + 1)
        * ((-1.0) ** k / math.factorial(k))
        * math.sin(k * math.pi * (gamma - alpha) / 2)
        / math.pi
    )


def _frechet_tail(p, k):
    return p[0], p[0], [(-1.0) ** i / math.factorial(i + 1) for i in range(k + 1)]


def _cot(v):
    """1 / tan(pi v), the Cauchy upper quantile.  It loses digits as v nears
    1, where -_cot(1 - v) does not: 1 - v is exact above v = 1/2."""
    return 1.0 / np.tan(np.pi * v)


def _t_quantile(p, v):
    N = int(p[0])
    stdtrit = _special().stdtrit
    deep = np.less(v, _T_DEEP_TAIL)
    return _split(v, deep, lambda v: -stdtrit(N, v), lambda v: _t_deep_tail(N, v))


def _t_deep_tail(N: int, v):
    """Student t upper quantile sqrt(N (1/w - 1)), with w = N / (N + x^2) the
    beta variable and ``betaincinv(N/2, 1/2, 2v)`` its inverse; +inf at
    v = 0.  Accurate to rounding deep in the tail, but 4e-10 off ``stdtrit``
    near v = 0.5 and slower, so used only below ``_T_DEEP_TAIL``."""
    with np.errstate(divide="ignore"):
        if N == 1:
            # w ~ (pi v)^2 would underflow; t(1) is the Cauchy law
            return _cot(v)
        w = _special().betaincinv(N / 2, 0.5, 2.0 * v)
        return np.sqrt(N * (1.0 / w - 1.0))


def _f_quantile(p, v):
    """(N / M) (1/w - 1) through the beta variable w = N / (N + M x), whose
    lower-tail inverse ``betaincinv(N/2, M/2, v)`` stays accurate down to
    v = 1e-300; above v = 1/2, (N / M) (1 - w) / w with 1 - w =
    ``betaincinv(M/2, N/2, 1 - v)``, where 1 - v is exact."""
    M, N = int(p[0]), int(p[1])
    inv = _special().betaincinv

    def upper_half(v):
        return (N / M) * (1.0 / inv(N / 2, M / 2, v) - 1.0)

    def lower_half(v):
        z = inv(M / 2, N / 2, 1.0 - v)
        return (N / M) * z / (1.0 - z)

    return _split(v, np.greater(v, 0.5), upper_half, lower_half)


def _split(v, where, f, g):
    """f(v), but g(v) where ``where`` holds; v a float or an array."""
    if np.ndim(v) == 0:
        return g(v) if where else f(v)
    v = np.asarray(v)
    x = np.empty(v.shape)
    x[~where], x[where] = f(v[~where]), g(v[where])
    return x


# stable needs gamma < alpha, since gamma = alpha leaves no upper Pareto tail
_LAWS = {
    "pareto": _Law(
        (1.0,), "at most one parameter alpha > 0",
        lambda p: len(p) <= 1 and all(x > 0 for x in p),
        _pareto_tail, lambda p, v: np.power(v, -1.0 / (p[0] if p else 1.0)),
        lambda p, x: 1.0 - x ** -(p[0] if p else 1.0) if x >= 1.0 else 0.0,
        exact=True,
    ),
    "cauchy": _Law(
        (), "no parameters", lambda p: not p,
        _cauchy_tail,
        lambda p, v: _split(v, np.greater(v, 0.5), _cot, lambda v: -_cot(1.0 - v)),
        lambda p, x: 0.5 + math.atan(x) / math.pi,
        exact=True, two_sided=lambda p: True,
    ),
    "student_t": _Law(
        (3.0,), "one integer parameter N >= 1",
        lambda p: len(p) == 1 and p[0] >= 1 and _integers(p),
        _student_t_tail, _t_quantile, lambda p, x: float(_special().stdtr(p[0], x)),
        two_sided=lambda p: True,
    ),
    "f_dist": _Law(
        (2.0, 6.0), "integer parameters (M >= 1, N > 2)",
        lambda p: len(p) == 2 and p[0] >= 1 and p[1] > 2 and _integers(p),
        _f_tail, _f_quantile,
        lambda p, x: float(_special().fdtr(*p, x)) if x > 0 else 0.0,
    ),
    "stable": _Law(
        (0.5, -0.5),
        "parameters (alpha, gamma) with 0 < alpha < 1, -alpha <= gamma < alpha",
        lambda p: len(p) == 2 and 0 < p[0] < 1 and -p[0] <= p[1] < p[0],
        _stable_tail, two_sided=lambda p: p[1] != -p[0],
    ),
    "frechet": _Law(
        (1.0,), "one parameter alpha > 0", lambda p: len(p) == 1 and p[0] > 0,
        _frechet_tail, lambda p, v: (-np.log1p(-v)) ** (-1.0 / p[0]),
        lambda p, x: math.exp(-(x ** (-p[0]))) if x > 0 else 0.0, exact=True,
    ),
}
CATALOG_NAMES = tuple(_LAWS)
MAX_TAIL_ORDER = 12
# tail models kept per process, one per (law, parameter types, order)
_TAIL_CACHE_SIZE = 256
# sample_top's table of Kanter's function: bins over [0, pi), the relative
# slack on each bound, and the least power in A that keeps full precision
_KANTER_BINS = 2048
_KANTER_SLACK = 1e-9
_KANTER_TINY = 1e-200
# the stable top-block sampler: its threshold leaves a row about k +
# _TOP_SPARE (1 + sqrt(k)) draws above it, found in at most this many Newton
# steps; tables kept per process, one per (alpha, n, k), about 100 kB each
_TOP_SPARE = 3.5
_TOP_NEWTON_STEPS = 30
_TOP_CACHE_SIZE = 8
# below this v, stdtrit loses the Student t upper tail (N = 3: a factor 2 off
# from v = 1e-165, -inf from 1e-250); the beta inversion keeps it
_T_DEEP_TAIL = 1e-150

# numpy and scipy.special are loaded on the first call that needs them, so
# that tail coefficients and everything built on them load neither.
np = None


def _load_numpy() -> None:
    global np
    import numpy as np


@functools.cache
def _special():
    from scipy import special

    return special


@dataclass(frozen=True)
class DistributionSpec:
    name: str
    params: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if self.name not in CATALOG_NAMES:
            raise ValueError(f"unknown distribution {self.name!r}")
        p = self.params
        try:
            finite = all(math.isfinite(x) for x in p)
        except TypeError:
            raise ValueError(f"{self.name} needs real parameters, got {p}") from None
        if not finite:
            raise ValueError(f"{self.name} needs finite parameters, got {p}")
        law = _LAWS[self.name]
        if not law.check(p):
            raise ValueError(f"{self.name} needs {law.contract}, got {p}")

    @property
    def has_exact_quantile(self) -> bool:
        return _LAWS[self.name].exact

    @property
    def has_numeric_quantile(self) -> bool:
        return _LAWS[self.name].quantile is not None

    @property
    def two_sided(self) -> bool:
        """Whether the support reaches below 0."""
        return _LAWS[self.name].two_sided(self.params)

    @property
    def has_sampler(self) -> bool:
        """Inverse-CDF where there is a quantile, else Kanter's if one-sided."""
        return self.has_numeric_quantile or not self.two_sided

    def __str__(self):
        if not self.params:
            return self.name
        return f"{self.name}({','.join(map(_shortest, self.params))})"


def _shortest(x) -> str:
    """x in ``g`` form where that reads back as x, else in full."""
    text = format(float(x), "g")
    return text if float(text) == x else repr(float(x))


_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([^)]*)\s*\))?\s*$")


def parse_distribution(text: str) -> DistributionSpec:
    """Parse e.g. 'cauchy', 'student_t(3)', 'stable(0.5,-0.5)'."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse distribution spec {text!r}")
    name, args = m.group(1), m.group(2)
    params = tuple(float(tok) for tok in args.split(",")) if args else ()
    return DistributionSpec(name, params)


def tail_of(dist: DistributionSpec, order: int) -> TailModel:
    """Tail model (alpha, beta, c_0..c_order) for a catalog distribution.

    Built once per (law, order) and process, and shared: a ``TailModel`` is
    immutable.  The parameters' types are part of the key, since an integer
    alpha gives an exact gap ``a`` where an equal float does not.  A call
    that raises leaves nothing in the cache.
    """
    return _tail_model(dist, tuple(map(type, dist.params)), order)


@functools.lru_cache(maxsize=_TAIL_CACHE_SIZE)
def _tail_model(dist: DistributionSpec, param_types: tuple, order: int) -> TailModel:
    if order < 0:
        raise UnsupportedOrderError(f"tail order must be >= 0, got {order}")
    if order > MAX_TAIL_ORDER:
        raise UnsupportedOrderError(
            f"catalog tail coefficients stop at order {MAX_TAIL_ORDER}"
        )
    try:
        alpha, beta, c = _LAWS[dist.name].tail(dist.params, order)
    except OverflowError:
        c = None
    if c is None or not all(math.isfinite(ci) for ci in c):
        raise ParetoTailError(f"the tail coefficients of {dist} overflow a float")
    return TailModel(alpha, beta, FormalSeries(c))


def upper_quantile(dist: DistributionSpec, v):
    """F^{-1}(1 - v) evaluated stably for small v; accepts numpy arrays."""
    quantile = _LAWS[dist.name].quantile
    if quantile is None:
        raise CapabilityError(f"{dist} has no quantile function")
    if np is None:
        _load_numpy()
    return quantile(dist.params, v)


def cdf(dist: DistributionSpec, x: float) -> float:
    law_cdf = _LAWS[dist.name].cdf
    if law_cdf is None:
        raise CapabilityError(f"{dist} has no CDF")
    return law_cdf(dist.params, x)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic per-stream generator: streams split as seed-sequence
    (seed, stream) pairs, one stream per worker."""
    if np is None:
        _load_numpy()
    return np.random.default_rng([seed, stream])


def sample(dist: DistributionSpec, rng: np.random.Generator, size: int = 1):
    """Draw ``size`` variates: inverse-CDF where a quantile exists, else
    (a one-sided law) by Kanter's representation of the positive stable law
    with Laplace transform exp(-s^alpha), alpha the first parameter."""
    if not dist.has_sampler:
        raise CapabilityError(f"{dist} has no sampler: two-sided, with no quantile")
    if np is None:
        _load_numpy()
    if dist.has_numeric_quantile:
        return upper_quantile(dist, rng.random(size))
    alpha = dist.params[0]
    u = rng.random(size) * np.pi
    w = rng.exponential(1.0, size)
    return (_kanter(alpha, u) / w) ** ((1 - alpha) / alpha)


def _kanter(alpha: float, u):
    """Kanter's function A(u), increasing on (0, pi) (Kanter, Ann. Probab. 3,
    1975)."""
    return (
        np.sin(alpha * u) ** (alpha / (1 - alpha))
        * np.sin((1 - alpha) * u)
        / np.sin(u) ** (1 / (1 - alpha))
    )


def sample_top(
    dist: DistributionSpec, rng: np.random.Generator, reps: int, n: int, k: int
):
    """The ``k`` largest of ``n`` draws per row, ``reps`` rows, in descending
    order.

    Equal in distribution to sorting each row of ``sample(dist, rng, (reps,
    n))``; for a law with a quantile it is that sort, of the same draws.  For
    the positive stable law, each row draws the few variates that can pass a
    threshold, and all the others only when its k-th largest does not pass
    it (see ``_top_sampler``).
    """
    return _top_sampler(dist, reps, n, k)[0](rng)


def _top_sampler(dist: DistributionSpec, reps: int, n: int, k: int):
    """``(draw, nbytes)`` for drawing many blocks of one shape, on one thread
    or several: ``draw(rng)`` is ``sample_top(dist, rng, reps, n, k)``, and
    its arrays take at most about ``nbytes`` bytes at their peak.  Each draw
    returns a fresh array.

    The positive stable law draws X = (A(U)/W)^((1-alpha)/alpha), with U
    uniform on (0, pi), W exponential and A Kanter's function.  In bin j of
    the Kanter table A <= hi_j, so A/W can pass the threshold t only when W <
    hi_j/t, with probability p_j = 1 - exp(-hi_j/t): such a draw is a
    candidate.  Each row draws its count M ~ Binomial(n, mean p_j) of
    candidates, their bins from the law proportional to p_j, U uniform in
    the bin and W = -log1p(-e p_j), e uniform: the exponential cut at
    hi_j/t.  Kanter's function is evaluated only on the candidates whose
    upper bound hi_j/W reaches the row's k-th largest lower bound lo_j/W.
    No other draw passes t, so a row whose k-th largest passes t is
    complete; any other row also draws its n - M other draws, from bins
    proportional to 1 - p_j and W = hi_j/t + Exp(1) by memorylessness.

    A row thus draws about k + ``_TOP_SPARE`` (1 + sqrt(k)) candidates and
    evaluates A on little more than k of them, plus every draw in the few
    bins at the ends of (0, pi) whose bound is infinite or nearly so (4 of
    2048 at alpha = 1/2).  Each ``(alpha, n, k)`` builds its table once per
    process (``_top_table``), and the draws only read it.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if np is None:
        _load_numpy()
    if dist.has_numeric_quantile or not dist.has_sampler:

        def sorted_draw(rng):
            return _top_of_rows(sample(dist, rng, (reps, n)), k)

        # the draws and their partitioned copy
        return sorted_draw, 16 * reps * n
    alpha = dist.params[0]
    tab = _top_table(alpha, n, k)

    def top_of(rng, counts, bins):
        """Each row's k largest A/W, descending and padded with -inf, of its
        ``counts`` draws, laid end to end, whose bins j and exponentials w
        ``bins(rng, total)`` draws.  A row's draws are sorted in a rows x width
        array, at the places that the mask ``slots`` marks, and only those
        that can reach their row's top k outlive the first sort."""
        j, w = bins(rng, int(counts.sum()))
        width = max(counts.max(initial=0), k)
        # counts[r] places then width - counts[r] gaps in row r, built
        # without a broadcast comparison, whose buffers take about 128 kB
        gaps = np.column_stack((counts, width - counts)).ravel()
        slots = np.tile((True, False), len(counts)).repeat(gaps).reshape(-1, width)
        del gaps
        dense = np.full(slots.shape, -np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            # w = 0 makes a lower bound inf or nan; nan sorts above every
            # number, as a nan draw does, and a nan threshold keeps the row
            bound = tab.bounds[0].take(j)
            bound /= w
            dense[slots] = bound
            dense.sort(axis=1)  # cheaper than a partition on short rows
            kth = dense[:, width - k].copy()
            del dense
            # j is in range; mode="raise" would copy through a buffer
            tab.bounds[1].take(j, out=bound, mode="clip")
            bound /= w
            keep = np.flatnonzero(~(bound < kth.repeat(counts)))
        del bound
        u = rng.random(len(keep))
        u += j.take(keep)
        u *= np.pi / _KANTER_BINS  # uniform in its bin
        del j
        w = w.take(keep)
        at = np.flatnonzero(slots).take(keep)
        del slots, keep
        x = _kanter(alpha, u)
        x /= w
        dense = np.full((len(counts), width), -np.inf)
        dense.ravel()[at] = x
        dense.sort(axis=1)
        return dense[:, : -k - 1 : -1].copy()

    def candidates(rng, total):
        j = _alias_draw(tab.cand, rng.random(total))
        # the exponential cut at hi_j / t: -log1p(-e p_j)
        w = rng.random(total)
        w *= tab.minus_p.take(j)
        return j, np.negative(np.log1p(w, out=w), out=w)

    def others(rng, total):
        j = _alias_draw(tab.rest, rng.random(total))
        return j, tab.bounds[1].take(j) * tab.s + rng.standard_exponential(total)

    def draw(rng):
        m = tab.m0 + _alias_draw(tab.count, rng.random(reps))
        top = top_of(rng, m, candidates)
        short = np.flatnonzero(~(top[:, -1] > tab.t))  # nan rows too
        if len(short):
            rest = top_of(rng, n - m[short], others)
            top[short] = _top_of_rows(np.concatenate((top[short], rest), axis=1), k)
        top **= (1 - alpha) / alpha  # X, increasing in A/W
        return top

    # bytes at the peak, beside m and the k-th bound of each row: the rows
    # x width array and its mask, whose places suffice, but with chance
    # about 1/100, for the largest count of the rows, with j, w and a bound
    # per candidate at the first sort; or the mask with j, w, the bound and
    # the k-th bounds per candidate at the second; or the mask, j and w
    # with the place, u and bin of each draw kept for Kanter's function (k
    # and one or so more a row, and about two for each bin with lo = 0); or
    # u, w, the place and the function's temporaries per kept draw.  A row
    # that falls short holds about n draws instead, beside the top blocks.
    # numpy's and the generator's small objects add about 32 kB.
    mean = -n * tab.minus_p.mean()
    cands = reps * mean + 6 * math.sqrt(reps * mean)
    kept = reps * min(mean, k + 1 + 2 * n * np.mean(tab.bounds[0] == 0))
    # the count's sub-Gaussian quantile at 1 - 1/(100 reps)
    var = mean * max(0.0, 1.0 - mean / n)
    widest = mean + math.sqrt(2 * math.log(100 * reps) * var)
    places = reps * max(k, widest)
    nbytes = (1 << 15) + 16 * reps + max(
        9 * places + 24 * cands,
        places + 34 * cands,
        places + 16 * cands + 24 * kept,
        48 * kept,
        8 * reps * k + 33 * n * (reps * tab.p_short + 4 * math.sqrt(reps * tab.p_short) + 1),
    )
    return draw, math.ceil(nbytes)


class _TopTable(NamedTuple):
    """What the positive stable law's top-block draws of one (alpha, n, k)
    read: the threshold t = 1/s on A/W; the Kanter bounds lo and
    hi as the rows of ``bounds``; each bin's candidate probability p, as -p;
    alias tables of the candidate count M - ``m0``, and of the bins of a
    candidate and of another draw; and a bound on the chance that a row
    has fewer than k draws above t."""

    t: float
    s: float
    bounds: object
    minus_p: object
    m0: int
    count: tuple
    cand: tuple
    rest: tuple
    p_short: float


@functools.lru_cache(maxsize=_TOP_CACHE_SIZE)
def _top_table(alpha: float, n: int, k: int) -> _TopTable:
    """The table of ``_top_sampler`` for the positive stable law.  t is set
    so that n mean(1 - exp(-lo_j/t)), a lower bound on the expected number
    of draws above t, is k + ``_TOP_SPARE`` (1 + sqrt(k)); where no t gives
    that many, t = 0 and every draw is a candidate."""
    lo, hi = _kanter_bounds(alpha)
    target = k + _TOP_SPARE * (1.0 + math.sqrt(k))
    s, p_short = math.inf, 0.0
    if target < n * np.mean(lo > 0):
        # in s = 1/t the count n mean(1 - exp(-lo s)) grows and is concave,
        # so Newton's steps from below stay below the root
        s = target / (n * lo.mean())
        for _ in range(_TOP_NEWTON_STEPS):
            e = np.exp(-lo * s)
            short = target - n * (1.0 - e.mean())
            if short <= 1e-3 * target:
                break
            s += short / (n * (lo * e).mean())
        # bins with lo = 0 keep the chance below 1
        p_short = float(_binomial_pmf(n, 1.0 - np.exp(-lo * s).mean())[:k].sum())
    p = -np.expm1(-hi * s)
    counts = _binomial_pmf(n, float(p.mean()))
    m0, m1 = np.flatnonzero(counts)[[0, -1]]
    return _TopTable(
        1.0 / s, s, _frozen(np.stack((lo, hi))),
        _frozen(-p), int(m0), _alias(counts[m0 : m1 + 1]), _alias(p),
        _alias(1.0 - p), p_short,
    )


def _binomial_pmf(n: int, p: float):
    """P(Binomial(n, p) = m) for m = 0, ..., n; 0 where it underflows."""
    m = np.arange(n + 1)
    # log C(n, m) from the ratios C(n, m) / C(n, m - 1) = (n - m + 1) / m
    log_c = np.concatenate(([0.0], np.cumsum(np.log((n - m[1:] + 1) / m[1:]))))
    with np.errstate(divide="ignore"):  # p = 1 puts all the mass on n
        log_q = np.multiply(n - m, np.log1p(-p), out=np.zeros(n + 1), where=m < n)
        return np.exp(log_c + m * np.log(p) + log_q)


def _alias(weights):
    """Walker's alias table ``(keep, alias)`` of the law proportional to
    ``weights`` over B bins (Walker, ACM TOMS 3, 1977): bin j is drawn with
    probability (keep_j + the sum of 1 - keep_i over the bins i aliased to
    j) / B.

    Built in one vectorized sweep.  Scaled to mean 1, the light bins' (q <
    1) deficits 1 - q lie end to end, as do the heavy bins' excesses q - 1.
    A light bin aliases the heavy one whose excess holds the start of its
    deficit.  Heavy bin j pays those deficits in full, and overshoots its
    excess, which ends at E_j, by the end P_j >= E_j of the deficit that
    straddles E_j; it keeps 1 - (P_j - E_j) and aliases heavy bin j + 1,
    which pays that overshoot first.  An all-zero law, which is never drawn
    from, gets the uniform table.
    """
    size = len(weights)
    total = weights.sum()
    q = weights * (size / total) if total > 0 else np.ones(size)
    alias = np.arange(size)
    light, heavy = np.flatnonzero(q < 1.0), np.flatnonzero(q >= 1.0)
    if len(light) and len(heavy):  # else every q is 1 up to rounding
        deficit = 1.0 - q[light]
        ends = np.cumsum(deficit)
        excess = np.cumsum(q[heavy] - 1.0)
        to = np.searchsorted(excess, ends - deficit, "right")
        # past the last excess only by rounding
        alias[light] = heavy[np.minimum(to, len(heavy) - 1)]
        straddle = np.minimum(np.searchsorted(ends, excess), len(ends) - 1)
        q[heavy] = 1.0 - np.maximum(ends[straddle] - excess, 0.0)
        alias[heavy[:-1]] = heavy[1:]
    q[heavy[-1:]] = 1.0  # its excess ends at the total deficit
    return _frozen(np.clip(q, 0.0, 1.0)), _frozen(alias)


def _alias_draw(table, r):
    """Bins drawn from an alias table, one per uniform in r, which it
    overwrites: the integer part of r B picks the bin, its fraction whether
    to keep it."""
    keep, alias = table
    r *= len(keep)
    j = r.astype(np.intp)
    r -= j
    far = r >= keep.take(j)
    del r
    np.copyto(j, alias.take(j), where=far)
    return j


def _frozen(a):
    a.flags.writeable = False
    return a


def _top_of_rows(x, k: int):
    """The k largest entries of each row of x, in descending order."""
    m = x.shape[1]
    return np.sort(np.partition(x, m - k, axis=1)[:, m - k :], axis=1)[:, ::-1]


def _kanter_bounds(alpha: float):
    """Bounds ``lo[j] <= A(u) <= hi[j]`` on Kanter's function, as computed,
    for u in bin j of ``_KANTER_BINS`` equal bins over [0, pi).

    Bin j takes A at edge j - 1 and edge j + 2: one bin of slack on each
    side for the rounding of u and of the edges.  The bin is left unbounded,
    [0, inf], unless both powers in A are at least ``_KANTER_TINY`` at both
    of those edges.  sin(alpha u) and sin(u) are unimodal on [0, pi), so
    the powers then stay that large inside the bin and A keeps full
    precision there; nearer to 0 or pi they underflow, and A comes out
    imprecise, inf or nan.  The relative slack covers the rounding of A,
    which the powers amplify in proportion to 1 / (1 - alpha).
    """
    edges = np.arange(_KANTER_BINS + 1) * (np.pi / _KANTER_BINS)
    with np.errstate(all="ignore"):
        num = np.sin(alpha * edges) ** (alpha / (1 - alpha))
        den = np.sin(edges) ** (1 / (1 - alpha))
        a = num * np.sin((1 - alpha) * edges) / den  # _kanter(alpha, edges)
    # index i + 1 holds edge i; edges -1 and B + 1 do not exist
    a = np.concatenate(([np.nan], a, [np.nan]))
    sound = np.concatenate(([False], np.minimum(num, den) >= _KANTER_TINY, [False]))
    ok = sound[:-3] & sound[3:]
    slack = _KANTER_SLACK + 64 * np.finfo(float).eps / (1 - alpha)
    lo = np.where(ok, a[:-3] * (1 - slack), 0.0)
    hi = np.where(ok, a[3:] * (1 + slack), np.inf)
    return lo, hi
