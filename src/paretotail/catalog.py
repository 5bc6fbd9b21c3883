"""Catalog of heavy-tailed distributions with tail models and samplers.

Each entry knows its Pareto-type tail coefficients; where a closed-form or
numerically invertible CDF exists it also exposes quantiles and an exact
sampler.  Capability flags are honest: the general stable law carries
coefficients only, and only the one-sided positive case gets a sampler.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import CapabilityError, UnsupportedOrderError
from .quantile import TailModel
from .series import FormalSeries, binomial_coefficient

__all__ = [
    "DistributionSpec",
    "parse_distribution",
    "tail_of",
    "exact_quantile",
    "upper_quantile",
    "cdf",
    "sample",
    "make_rng",
    "CATALOG_NAMES",
]

CATALOG_NAMES = ("pareto", "cauchy", "student_t", "f_dist", "stable", "frechet")
MAX_TAIL_ORDER = 12


@dataclass(frozen=True)
class DistributionSpec:
    name: str
    params: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if self.name not in CATALOG_NAMES:
            raise ValueError(f"unknown distribution {self.name!r}")
        p = self.params
        if self.name == "pareto":
            if len(p) > 1:
                raise ValueError("pareto takes at most one parameter (alpha)")
            if p and not p[0] > 0:
                raise ValueError(f"pareto needs alpha > 0, got {p[0]}")
        elif self.name == "cauchy":
            if p:
                raise ValueError("cauchy takes no parameters")
        elif self.name == "student_t":
            if len(p) != 1 or p[0] < 1 or p[0] != int(p[0]):
                raise ValueError("student_t needs one integer parameter N >= 1")
        elif self.name == "f_dist":
            if len(p) != 2 or p[0] < 1 or p[1] <= 2:
                raise ValueError("f_dist needs parameters (M >= 1, N > 2)")
            if p[0] != int(p[0]) or p[1] != int(p[1]):
                raise ValueError("f_dist degrees of freedom must be integers")
        elif self.name == "stable":
            if len(p) != 2:
                raise ValueError("stable needs parameters (alpha, gamma)")
            alpha, gamma = p
            if not 0 < alpha < 1:
                raise ValueError(f"stable needs 0 < alpha < 1, got {alpha}")
            if abs(gamma) > alpha:
                raise ValueError(f"stable needs |gamma| <= alpha, got {gamma}")
            if gamma >= alpha:
                raise ValueError(
                    "stable with gamma = alpha has no upper Pareto tail"
                )
        elif self.name == "frechet":
            if len(p) != 1 or not p[0] > 0:
                raise ValueError("frechet needs one parameter alpha > 0")

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
    """Tail model (alpha, beta, c_0..c_order) for a catalog distribution."""
    if order > MAX_TAIL_ORDER:
        raise UnsupportedOrderError(
            f"catalog tail coefficients stop at order {MAX_TAIL_ORDER}"
        )
    name, p = dist.name, dist.params
    if name == "pareto":
        alpha = p[0] if p else 1.0
        return TailModel(alpha, alpha, FormalSeries([1.0] + [0.0] * order))
    if name == "cauchy":
        c = [(-1.0) ** i / ((2 * i + 1) * math.pi) for i in range(order + 1)]
        return TailModel(1.0, 2.0, FormalSeries(c))
    if name == "student_t":
        N = int(p[0])
        gam = (N + 1) / 2
        g_n = math.gamma(gam) / (math.sqrt(N * math.pi) * math.gamma(N / 2))
        c = [
            binomial_coefficient(-gam, i) * N ** (gam + i) * g_n / (N + 2 * i)
            for i in range(order + 1)
        ]
        return TailModel(float(N), 2.0, FormalSeries(c))
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
        return TailModel(N / 2, 1.0, FormalSeries(c))
    if name == "stable":
        alpha, gamma = p
        c = [
            _stable_density_coeff(i + 1, alpha, gamma) / (alpha * (i + 1))
            for i in range(order + 1)
        ]
        return TailModel(alpha, alpha, FormalSeries(c))
    if name == "frechet":
        alpha = p[0]
        c = [(-1.0) ** i / math.factorial(i + 1) for i in range(order + 1)]
        return TailModel(alpha, alpha, FormalSeries(c))
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
    ``betaincinv(N/2, M/2, v)`` stays accurate down to v = 1e-300.
    """
    name, p = dist.name, dist.params
    if name == "pareto":
        alpha = p[0] if p else 1.0
        return np.power(v, -1.0 / alpha)
    if name == "cauchy":
        return 1.0 / np.tan(np.pi * v)
    if name == "frechet":
        alpha = p[0]
        return (-np.log1p(-v)) ** (-1.0 / alpha)
    if name == "student_t":
        return -special.stdtrit(int(p[0]), v)
    if name == "f_dist":
        M, N = int(p[0]), int(p[1])
        w = special.betaincinv(N / 2, M / 2, v)
        return (N / M) * (1.0 / w - 1.0)
    raise CapabilityError(f"{dist} has no quantile function")


def exact_quantile(dist: DistributionSpec, u: float) -> float:
    """F^{-1}(u) for u in (0, 1)."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    return float(upper_quantile(dist, 1.0 - u))


def cdf(dist: DistributionSpec, x: float) -> float:
    name, p = dist.name, dist.params
    if name == "pareto":
        alpha = p[0] if p else 1.0
        return 1.0 - x ** (-alpha) if x >= 1.0 else 0.0
    if name == "cauchy":
        return 0.5 + math.atan(x) / math.pi
    if name == "frechet":
        return math.exp(-(x ** (-p[0]))) if x > 0 else 0.0
    if name == "student_t":
        return float(special.stdtr(int(p[0]), x))
    if name == "f_dist":
        return float(special.fdtr(int(p[0]), int(p[1]), x)) if x > 0 else 0.0
    raise CapabilityError(f"{dist} has no CDF")


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic per-stream generator: streams split as seed-sequence
    (seed, stream) pairs, one stream per worker."""
    return np.random.default_rng([seed, stream])


def sample(dist: DistributionSpec, rng: np.random.Generator, size: int = 1):
    """Draw ``size`` variates; inverse-CDF where a quantile exists."""
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
    ratio = (
        np.sin(alpha * u) ** (alpha / (1 - alpha))
        * np.sin((1 - alpha) * u)
        / np.sin(u) ** (1 / (1 - alpha))
    )
    return (ratio / w) ** ((1 - alpha) / alpha)
