"""Catalog of heavy-tailed distributions with tail models and samplers.

Each law's example spec and parameter contract are one row of ``_LAWS``.
Each law knows its Pareto-type tail coefficients; where a closed-form or
numerically invertible CDF exists it also exposes quantiles and an exact
sampler.  Capability flags are honest: the general stable law carries
coefficients only, and only the one-sided positive case gets a sampler.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

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


# name: (example spec, parameter contract, check on the finite parameters);
# stable needs gamma < alpha, since gamma = alpha leaves no upper Pareto tail
_LAWS = {
    "pareto": (
        "pareto(1)",
        "at most one parameter alpha > 0",
        lambda p: len(p) <= 1 and all(x > 0 for x in p),
    ),
    "cauchy": ("cauchy", "no parameters", lambda p: not p),
    "student_t": (
        "student_t(3)",
        "one integer parameter N >= 1",
        lambda p: len(p) == 1 and p[0] >= 1 and _integers(p),
    ),
    "f_dist": (
        "f_dist(2,6)",
        "integer parameters (M >= 1, N > 2)",
        lambda p: len(p) == 2 and p[0] >= 1 and p[1] > 2 and _integers(p),
    ),
    "stable": (
        "stable(0.5,-0.5)",
        "parameters (alpha, gamma) with 0 < alpha < 1, -alpha <= gamma < alpha",
        lambda p: len(p) == 2 and 0 < p[0] < 1 and -p[0] <= p[1] < p[0],
    ),
    "frechet": (
        "frechet(1)",
        "one parameter alpha > 0",
        lambda p: len(p) == 1 and p[0] > 0,
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
# below this v, stdtrit loses the Student t upper tail (N = 3: a factor 2 off
# from v = 1e-165, -inf from 1e-250); the beta inversion keeps it
_T_DEEP_TAIL = 1e-150

# numpy and scipy.special are bound on the first call that needs them, so
# that tail coefficients and everything built on them load neither.
np = None
special = None


def _load_numpy() -> None:
    global np
    import numpy as np


def _load_special() -> None:
    global special
    from scipy import special


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
        _, contract, check = _LAWS[self.name]
        if not check(p):
            raise ValueError(f"{self.name} needs {contract}, got {p}")

    @property
    def has_exact_quantile(self) -> bool:
        return self.name in ("pareto", "cauchy", "frechet")

    @property
    def has_numeric_quantile(self) -> bool:
        return self.has_exact_quantile or self.name in ("student_t", "f_dist")

    @property
    def two_sided(self) -> bool:
        """Whether the support reaches below 0."""
        if self.name == "stable":
            return self.params[1] != -self.params[0]
        return self.name in ("cauchy", "student_t")

    @property
    def has_sampler(self) -> bool:
        if self.name == "stable":
            return self.params[1] == -self.params[0]
        return True

    def __str__(self):
        if not self.params:
            return self.name
        inner = ",".join(format(p, "g") for p in self.params)
        return f"{self.name}({inner})"


_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([^)]*)\s*\))?\s*$")


def parse_distribution(text: str) -> DistributionSpec:
    """Parse e.g. 'cauchy', 'student_t(3)', 'stable(0.5,-0.5)'."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse distribution spec {text!r}")
    name, args = m.group(1), m.group(2)
    params = ()
    if args:
        params = tuple(float(tok) for tok in args.split(","))
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
        alpha, beta, c = _tail_coefficients(dist.name, dist.params, order)
    except OverflowError:
        c = None
    if c is None or not all(math.isfinite(ci) for ci in c):
        raise ParetoTailError(f"the tail coefficients of {dist} overflow a float")
    return TailModel(alpha, beta, FormalSeries(c))


def _tail_coefficients(name: str, p: tuple, order: int) -> tuple:
    """(alpha, beta, [c_0, ..., c_order]) of a catalog law."""
    if name == "pareto":
        alpha = p[0] if p else 1.0
        return alpha, alpha, [1.0] + [0.0] * order
    if name == "cauchy":
        c = [(-1.0) ** i / ((2 * i + 1) * math.pi) for i in range(order + 1)]
        return 1.0, 2.0, c
    if name == "student_t":
        N = int(p[0])
        gam = (N + 1) / 2
        g_n = math.gamma(gam) / (math.sqrt(N * math.pi) * math.gamma(N / 2))
        c = [
            binomial_coefficient(-gam, i) * N ** (gam + i) * g_n / (N + 2 * i)
            for i in range(order + 1)
        ]
        return float(N), 2.0, c
    if name == "f_dist":
        # tail index N/2 with d_i carrying nu^{-i}: fixed points of the
        # closed-form check 1 - F = (1 + nu x)^{-N/2} at M = 2
        M, N = int(p[0]), int(p[1])
        nu = M / N
        gam = (M + N) / 2
        h_mn = nu ** (-N / 2) / math.exp(
            math.lgamma(M / 2) + math.lgamma(N / 2) - math.lgamma(gam)
        )
        c = [
            h_mn * binomial_coefficient(-gam, i) * nu ** (-i) / (N / 2 + i)
            for i in range(order + 1)
        ]
        return N / 2, 1.0, c
    if name == "stable":
        alpha, gamma = p
        c = [
            _stable_density_coeff(i + 1, alpha, gamma) / (alpha * (i + 1))
            for i in range(order + 1)
        ]
        return alpha, alpha, c
    if name == "frechet":
        alpha = p[0]
        c = [(-1.0) ** i / math.factorial(i + 1) for i in range(order + 1)]
        return alpha, alpha, c
    raise AssertionError(name)


def _stable_density_coeff(k: int, alpha: float, gamma: float) -> float:
    """Coefficient of |x|^{-1-alpha*k} in the stable density for alpha < 1."""
    return (
        math.gamma(k * alpha + 1)
        * ((-1.0) ** k / math.factorial(k))
        * math.sin(k * math.pi * (gamma - alpha) / 2)
        / math.pi
    )


def upper_quantile(dist: DistributionSpec, v):
    """F^{-1}(1 - v) evaluated stably for small v; accepts numpy arrays.

    Student t and F go through ``scipy.special``: ``stdtrit`` for t, and for
    F the beta variable w = N / (N + M x), whose lower-tail inverse
    ``betaincinv(N/2, M/2, v)`` stays accurate down to v = 1e-300.  Below
    v = 1e-150 the t quantile comes from its own beta variable (see
    ``_t_deep_tail``).
    """
    if np is None:
        _load_numpy()
    name, p = dist.name, dist.params
    if name == "pareto":
        alpha = p[0] if p else 1.0
        return np.power(v, -1.0 / alpha)
    if name == "cauchy":
        return 1.0 / np.tan(np.pi * v)
    if name == "frechet":
        alpha = p[0]
        return (-np.log1p(-v)) ** (-1.0 / alpha)
    if special is None and name in ("student_t", "f_dist"):
        _load_special()
    if name == "student_t":
        N = int(p[0])
        x = -special.stdtrit(N, v)
        deep = np.less(v, _T_DEEP_TAIL)
        if deep.any():
            if np.ndim(x) == 0:
                return _t_deep_tail(N, v)
            x[deep] = _t_deep_tail(N, np.asarray(v)[deep])
        return x
    if name == "f_dist":
        M, N = int(p[0]), int(p[1])
        w = special.betaincinv(N / 2, M / 2, v)
        return (N / M) * (1.0 / w - 1.0)
    raise CapabilityError(f"{dist} has no quantile function")


def _t_deep_tail(N: int, v):
    """Student t upper quantile sqrt(N (1/w - 1)), with w = N / (N + x^2) the
    beta variable and ``betaincinv(N/2, 1/2, 2v)`` its inverse; +inf at
    v = 0.  Accurate to rounding deep in the tail, but 4e-10 off ``stdtrit``
    near v = 0.5 and slower, so used only below ``_T_DEEP_TAIL``."""
    with np.errstate(divide="ignore"):
        if N == 1:
            # w ~ (pi v)^2 would underflow; t(1) is the Cauchy law
            return 1.0 / np.tan(np.pi * v)
        w = special.betaincinv(N / 2, 0.5, 2.0 * v)
        return np.sqrt(N * (1.0 / w - 1.0))


def cdf(dist: DistributionSpec, x: float) -> float:
    name, p = dist.name, dist.params
    if name == "pareto":
        alpha = p[0] if p else 1.0
        return 1.0 - x ** (-alpha) if x >= 1.0 else 0.0
    if name == "cauchy":
        return 0.5 + math.atan(x) / math.pi
    if name == "frechet":
        return math.exp(-(x ** (-p[0]))) if x > 0 else 0.0
    if special is None and name in ("student_t", "f_dist"):
        _load_special()
    if name == "student_t":
        return float(special.stdtr(int(p[0]), x))
    if name == "f_dist":
        return float(special.fdtr(int(p[0]), int(p[1]), x)) if x > 0 else 0.0
    raise CapabilityError(f"{dist} has no CDF")


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic per-stream generator: streams split as seed-sequence
    (seed, stream) pairs, one stream per worker."""
    if np is None:
        _load_numpy()
    return np.random.default_rng([seed, stream])


def sample(dist: DistributionSpec, rng: np.random.Generator, size: int = 1):
    """Draw ``size`` variates; inverse-CDF where a quantile exists."""
    if np is None:
        _load_numpy()
    if dist.name == "stable":
        if not dist.has_sampler:
            raise CapabilityError(
                f"{dist} has no sampler (only the one-sided case gamma = -alpha)"
            )
        return _sample_positive_stable(dist.params[0], rng, size)
    if not dist.has_sampler:
        raise CapabilityError(f"{dist} has no sampler")
    v = rng.random(size)
    return upper_quantile(dist, v)


def _sample_positive_stable(alpha: float, rng: np.random.Generator, size: int):
    """Kanter's representation of the positive stable law with Laplace
    transform exp(-s^alpha)."""
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

    The numbers are those of sorting each row of ``sample(dist, rng, (reps,
    n))``, from the same draws.  For the positive stable law, Kanter's
    function is evaluated only on draws whose tabulated upper bound reaches
    the row's k-th largest lower bound: any other draw lies below k draws
    of its row, and the final power is increasing.
    """
    new_draw, _ = _top_sampler(dist, reps, n, k)
    return new_draw()(rng)


def _top_sampler(dist: DistributionSpec, reps: int, n: int, k: int):
    """``(new_draw, nbytes)`` for drawing many blocks of one shape, on one
    thread or several: each ``new_draw()`` returns a function ``draw(rng)``,
    equal to ``sample_top(dist, rng, reps, n, k)``, that works in its own
    arrays of ``nbytes`` bytes.  The positive stable law's Kanter table is
    built once, here, and only read by the draws; its ``reps x n`` work
    arrays are allocated per ``new_draw()`` call and filled in place on each
    draw.  Each draw returns a fresh array."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if np is None:
        _load_numpy()
    if dist.name != "stable" or not dist.has_sampler:

        def sorted_draw(rng):
            return _top_of_rows(sample(dist, rng, (reps, n)), k)

        # the draws and their partitioned copy, made afresh by each draw
        return (lambda: sorted_draw), 16 * reps * n
    alpha = dist.params[0]
    lo, hi = _kanter_bounds(alpha)

    def new_draw():
        r, w, bounds = (np.empty((reps, n)) for _ in range(3))
        j = np.empty((reps, n), np.intp)
        mask = np.empty((reps, n), bool)

        def draw(rng):
            rng.random(out=r)  # u = r pi, as in sample
            rng.standard_exponential(out=w)  # the draws of exponential(1.0)
            # floor(r B) < B, exact; take with mode "raise" would write
            # through a copy of out
            np.multiply(r, _KANTER_BINS, out=bounds)
            j[...] = bounds
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(np.take(lo, j, out=bounds, mode="clip"), w, out=bounds)
                # w = 0 makes a lower bound inf or nan; nan sorts above every
                # number, as a nan draw does, and a nan threshold keeps the
                # whole row
                bounds.partition(n - k, axis=1)
                threshold = bounds[:, n - k, None].copy()
                np.divide(np.take(hi, j, out=bounds, mode="clip"), w, out=bounds)
            np.less(bounds, threshold, out=mask)
            flat = np.flatnonzero(np.logical_not(mask, out=mask))
            u = r.ravel()[flat] * np.pi
            x = (_kanter(alpha, u) / w.ravel()[flat]) ** ((1 - alpha) / alpha)
            # each row's candidates, left-aligned and padded with -inf
            rows = flat // n
            counts = np.bincount(rows, minlength=reps)
            starts = np.cumsum(counts) - counts
            dense = np.full((reps, counts.max(initial=k)), -np.inf)
            dense[rows, np.arange(len(rows)) - starts[rows]] = x
            return _top_of_rows(dense, k)

        return draw

    # u and w, the bounds, the bin index and the keep mask
    return new_draw, (3 * 8 + 8 + 1) * reps * n


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
