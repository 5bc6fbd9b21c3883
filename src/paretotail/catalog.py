"""Catalog of heavy-tailed distributions with tail models and samplers.

Each law is one row of ``_LAWS``: its example and parameter contract, its
Pareto-type tail coefficients, and its quantile, CDF and own sampler where
it has them.  The capability flags are read from the row, and honest: the
general stable law carries coefficients only, and only its one-sided case
gets a quantile, tabulated from Kanter's integral, and a sampler.
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
    served: Callable = lambda p: True  # whether the quantile and CDF serve p
    sampler: Callable | None = None  # (p, rng, size) -> draws, if not inverse-CDF


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
    """Coefficient of |x|^{-1-alpha*k} in the stable density for alpha < 1;
    exactly 0 where k (gamma - alpha) / 2 is an integer and the sine
    vanishes, which in float it does only to rounding."""
    half_turns = k * (gamma - alpha) / 2
    if half_turns == math.floor(half_turns):
        return 0.0
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


def _stable_quantile(p, v):
    """The positive stable upper quantile Q from the tables of
    ``_stable_table``: Q = exp(g) (v/c0)^(-1/alpha) for v <= 1/2, and Q =
    exp(h) above, where 1 - v is exact; Q(1) = 0."""
    from numpy.polynomial.chebyshev import chebval

    alpha = p[0]
    c0, sigma_max, g, h = _stable_table(alpha)

    def upper_half(v):
        s = np.log1p(v / c0) * (2.0 / sigma_max) - 1.0
        return np.exp(chebval(s, g)) * np.power(v / c0, -1.0 / alpha)

    def lower_half(v):
        lo, hi = _STABLE_Y
        with np.errstate(divide="ignore"):  # v = 1
            s = (np.log(-np.log(1.0 - v)) - lo) * (2.0 / (hi - lo)) - 1.0
        return np.exp(chebval(np.minimum(s, 1.0), h)) * (v < 1.0)

    return _split(v, np.greater(v, 0.5), upper_half, lower_half)


def _stable_cdf(p, x):
    """P(X <= x) by Kanter's integral."""
    if x <= 0:
        return 0.0
    alpha = p[0]
    zeta = np.array([-alpha / (1.0 - alpha) * math.log(x)])
    return float(_kanter_integrals(alpha, zeta)[1][0])


def _kanter_sample(p, rng, size):
    """Kanter's representation X = (A(U)/W)^((1-alpha)/alpha) of the
    positive stable law with Laplace transform exp(-s^alpha), U uniform on
    (0, pi) and W exponential (Kanter, Ann. Probab. 3, 1975).  It runs in
    logs, where A's powers of sin cannot under- or overflow, and takes log A
    straight from u, apart from the quantile's integrand, which it
    referees."""
    alpha = p[0]
    u = rng.random(size) * np.pi
    w = rng.exponential(1.0, size)
    log_a = (
        alpha * np.log(np.sin(alpha * u))
        + (1 - alpha) * np.log(np.sin((1 - alpha) * u))
        - np.log(np.sin(u))
    ) / (1 - alpha)
    return np.exp((1 - alpha) / alpha * (log_a - np.log(w)))


def _split(v, where, f, g):
    """f(v), but g(v) where ``where`` holds; v a float or an array."""
    if np.ndim(v) == 0:
        return g(v) if where else f(v)
    v = np.asarray(v)
    x = np.empty(v.shape)
    for part, h in ((~where, f), (where, g)):
        if part.any():  # the stable law's tables cost as much on no entries
            x[part] = h(v[part])
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
        _stable_tail, _stable_quantile, _stable_cdf,
        two_sided=lambda p: p[1] != -p[0], served=lambda p: p[1] == -p[0],
        sampler=_kanter_sample,
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
# the positive stable quantile: Chebyshev degrees of its tables below and
# above v = 1/2, which span y = log(-log(1 - v)) over v in [1/2, 1 - 2^-53]
# above; Gauss-Legendre nodes of Kanter's integral over u in (0, pi/2] and
# its four pieces above; a cap on the Newton steps to a node; and the tables
# kept per process, one per alpha, about 30 kB each
_STABLE_DEGREES = (24, 32)
_STABLE_Y = (math.log(math.log(2.0)), math.log(53 * math.log(2.0)))
_KANTER_NODES = (64, 32, 64, 32, 64)
_KANTER_NEWTON_STEPS = 50
_STABLE_CACHE_SIZE = 16
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
        law = _LAWS[self.name]
        return law.quantile is not None and law.served(self.params)

    @property
    def two_sided(self) -> bool:
        """Whether the support reaches below 0."""
        return _LAWS[self.name].two_sided(self.params)

    # a sampler wherever there is a quantile: the law's own if it has one
    # (Kanter's, for the one-sided stable law), else inverse-CDF
    has_sampler = has_numeric_quantile

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
    if not dist.has_numeric_quantile:
        raise CapabilityError(f"{dist} has no quantile function")
    if np is None:
        _load_numpy()
    return _LAWS[dist.name].quantile(dist.params, v)


def cdf(dist: DistributionSpec, x: float) -> float:
    law = _LAWS[dist.name]
    if law.cdf is None or not law.served(dist.params):
        raise CapabilityError(f"{dist} has no CDF")
    if np is None:
        _load_numpy()
    return law.cdf(dist.params, x)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic per-stream generator: streams split as seed-sequence
    (seed, stream) pairs, one stream per worker."""
    if np is None:
        _load_numpy()
    return np.random.default_rng([seed, stream])


def sample(dist: DistributionSpec, rng: np.random.Generator, size: int = 1):
    """Draw ``size`` variates: by the law's own sampler where it has one,
    else inverse-CDF."""
    if not dist.has_sampler:
        raise CapabilityError(f"{dist} has no sampler: two-sided, with no quantile")
    if np is None:
        _load_numpy()
    own = _LAWS[dist.name].sampler
    if own is not None:
        return own(dist.params, rng, size)
    return upper_quantile(dist, rng.random(size))


@functools.lru_cache(maxsize=_STABLE_CACHE_SIZE)
def _stable_table(alpha: float):
    """(c0, sigma_max, g, h) at one alpha: the Chebyshev coefficients of g =
    log(Q(v) (v/c0)^(1/alpha)) in sigma = log1p(v/c0) over v in [0, 1/2],
    sigma_max at v = 1/2, and of h = log Q(v) in y = log(-log(1 - v)) over
    ``_STABLE_Y``, each coordinate mapped onto [-1, 1].  Q is the positive
    stable upper quantile, interpolated at the Chebyshev points of each
    table, in one Newton solve of Kanter's integral.  g tends to 0 as v
    does, and the tail's leading term c0 x^-alpha carries Q down to where it
    overflows; sigma straightens the near-geometric tail sum c0 xi / (1 -
    xi), xi = x^-alpha, of alpha near 1."""
    from numpy.polynomial import chebyshev

    c0 = 1.0 / math.gamma(1.0 - alpha)
    sigma_max = math.log1p(0.5 / c0)
    low, high = (chebyshev.chebpts1(d + 1) for d in _STABLE_DEGREES)
    v = c0 * np.expm1((low + 1.0) * (sigma_max / 2))
    lo, hi = _STABLE_Y
    w = np.exp(-np.exp(lo + (high + 1.0) * ((hi - lo) / 2)))
    upper = np.arange(len(v) + len(w)) < len(v)
    log_x = _kanter_log_x(alpha, np.concatenate((v, w)), upper)
    g = log_x[upper] + np.log(v / c0) / alpha
    fit = chebyshev.chebfit
    return c0, sigma_max, fit(low, g, len(low) - 1), fit(high, log_x[~upper], len(high) - 1)


def _kanter_log_x(alpha: float, target, upper):
    """log x where P(X > x) = target, or P(X <= x) = target where ``upper``
    is False, for the positive stable law: Newton's method on log v or log w
    of ``_kanter_integrals`` in zeta = log z.  A solve for v starts from the
    tail's leading term c0 z^(1-alpha), or from w ~ exp(-A(0) z) where that
    gives the smaller zeta, and a solve for w from the latter: starts from
    which the steps approach the root without overshooting it."""
    r = 1.0 - alpha
    tail = (np.log(np.where(upper, target, 1.0 - target)) + math.log(math.gamma(r))) / r
    least = r * alpha ** (alpha / r)  # A(0)
    body = np.log(-np.log(np.where(upper, 1.0 - target, target)) / least)
    zeta = np.where(upper, np.minimum(tail, body), body)
    log_target = np.log(target)
    for _ in range(_KANTER_NEWTON_STEPS):
        v, w, d = _kanter_integrals(alpha, zeta)
        step = np.where(upper, (np.log(v) - log_target) * v, (log_target - np.log(w)) * w) / d
        zeta = zeta - step
        if np.all(np.abs(step) <= 1e-13 * (1.0 + np.abs(zeta))):
            break
    return -(r / alpha) * zeta


def _kanter_integrals(alpha: float, zeta):
    """(v, w, d) at z = exp(zeta) for an array zeta: v = P(X > x) = (1/pi)
    int_0^pi -expm1(-A(u) z) du with x = z^(-(1-alpha)/alpha), w = 1 - v
    summed apart, and d = dv/dzeta = (1/pi) int A z exp(-A z) du, with A
    Kanter's function.

    Over u in (0, pi/2] log A is bounded and one Gauss-Legendre rule serves.
    Above, A grows without bound, and the integrand turns from A z to 1 in
    a layer at u near pi that narrows as z falls.  There the rules run in y
    = -log(pi - u), with log A from pi - u so that no digits are lost, over
    four pieces cut where A z is e^-60, 1 and 45, and 40 past the last;
    beyond it v gains exp(-y) and w nothing.
    """
    bulk_log_a, bulk_weights, layer, grid_y, grid_log_a = _kanter_rule(alpha)
    r = 1.0 - alpha
    # where log A z reaches each cut: log A is increasing in y, and near
    # u = pi about y / (1 - alpha)
    cuts = [
        np.interp(c - zeta, grid_log_a, grid_y)
        + r * np.maximum(c - zeta - grid_log_a[-1], 0.0)
        for c in (-60.0, 0.0, math.log(45.0))
    ]
    edges = [np.full_like(zeta, grid_y[0]), *cuts, cuts[-1] + 40.0]
    pieces = [(bulk_log_a + zeta[:, None], bulk_weights)]
    for lo, hi, (x, x_weights) in zip(edges, edges[1:], layer):
        half = ((hi - lo) / 2)[:, None]
        y = lo[:, None] + half * (x + 1.0)
        t = np.exp(-y)
        log_az = (y + r * zeta[:, None]) / r + _log_kanter_near_pi(alpha, t)
        pieces.append((log_az, half * x_weights * t))
    v, w, d = np.exp(-edges[-1]), 0.0, 0.0
    with np.errstate(over="ignore"):  # A z = inf adds 1 to v, 0 to w and d
        for s, weights in pieces:
            e = np.exp(s)
            v = v + np.sum(-np.expm1(-e) * weights, axis=-1)
            w = w + np.sum(np.exp(-e) * weights, axis=-1)
            d = d + np.sum(np.exp(s - e) * weights, axis=-1)
    return v / np.pi, w / np.pi, d / np.pi


@functools.lru_cache(maxsize=_STABLE_CACHE_SIZE)
def _kanter_rule(alpha: float):
    """What ``_kanter_integrals`` reads at one alpha: log A at the
    Gauss-Legendre nodes of u in (0, pi/2] and their weights, the rules of
    the four pieces above, and log A on a grid of y = -log(pi - u), in
    steps of 0.05 from -log(pi/2) up 60, which places the pieces."""
    roots_legendre = _special().roots_legendre
    r = 1.0 - alpha
    x, weights = roots_legendre(_KANTER_NODES[0])
    u = (x + 1.0) * (np.pi / 4)
    bulk = (alpha / r) * np.log(np.sin(alpha * u) / np.sin(u)) + np.log(np.sin(r * u) / np.sin(u))
    grid_y = np.arange(1201) * 0.05 - math.log(np.pi / 2)
    layer = [roots_legendre(m) for m in _KANTER_NODES[1:]]
    grid_log_a = grid_y / r + _log_kanter_near_pi(alpha, np.exp(-grid_y))
    return bulk, weights * (np.pi / 4), layer, grid_y, grid_log_a


def _log_kanter_near_pi(alpha: float, t):
    """log A(pi - t) + log(t) / (1 - alpha), computed from t."""
    r = 1.0 - alpha
    return (
        (alpha / r) * np.log(np.sin(alpha * (np.pi - t)))
        + np.log(np.sin(r * (np.pi - t)))
        - np.log(np.sin(t) / t) / r
    )
