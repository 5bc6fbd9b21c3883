"""Pareto-type tail expansions for extreme order statistics.

From a tail model 1 - F(x) = x^{-alpha} (c_0 + c_1 x^{-beta} + ...) this
package builds quantile power series near u = 1 and asymptotic expansions in
powers of (1/n, n^{-beta/alpha}) for joint moments, covariances and third
cumulants of the largest order statistics, and checks them against
independent quadrature and Monte Carlo oracles.
"""

from .errors import (
    CapabilityError,
    InfiniteMomentError,
    ParetoTailError,
    SingularInputError,
    UnsupportedOrderError,
)
from .series import (
    BellTable,
    FormalSeries,
    binomial_coefficient,
    falling_factorial,
    rising_factorial,
    series_general_power,
    series_log,
    series_multiply,
    series_power,
)
from .inversion import invert_series
from .quantile import (
    QuantilePowerSeries,
    TailModel,
    quantile_series,
)
from .betamoments import (
    RankSpec,
    beta_ratio,
    gamma_ratio,
    gamma_ratio_coeffs,
    gamma_ratio_eval,
    joint_beta_moment,
    n_free_factor,
    suffix_sums,
)
from .expansion import (
    CovarianceReport,
    ExpansionSeries,
    MomentQuery,
    cj_coeff,
    covariance_expansion,
    dm_coeffs,
    joint_cumulant_expansion,
    mean_expansion,
    moment_expansion,
    normalized_moment_expansion,
    pair_moment_expansion,
    third_cumulant_expansion,
)
from .catalog import (
    CATALOG_NAMES,
    DistributionSpec,
    cdf,
    make_rng,
    parse_distribution,
    sample,
    tail_of,
    upper_quantile,
)
from .ledger import LEDGER, TypoEntry, ledger_rows

__version__ = "0.1.0"

__all__ = [
    "ParetoTailError",
    "SingularInputError",
    "InfiniteMomentError",
    "UnsupportedOrderError",
    "CapabilityError",
    "FormalSeries",
    "BellTable",
    "binomial_coefficient",
    "rising_factorial",
    "falling_factorial",
    "series_power",
    "series_log",
    "series_multiply",
    "series_general_power",
    "invert_series",
    "TailModel",
    "QuantilePowerSeries",
    "quantile_series",
    "RankSpec",
    "suffix_sums",
    "gamma_ratio",
    "beta_ratio",
    "joint_beta_moment",
    "n_free_factor",
    "gamma_ratio_coeffs",
    "gamma_ratio_eval",
    "MomentQuery",
    "ExpansionSeries",
    "CovarianceReport",
    "cj_coeff",
    "moment_expansion",
    "normalized_moment_expansion",
    "dm_coeffs",
    "mean_expansion",
    "pair_moment_expansion",
    "covariance_expansion",
    "joint_cumulant_expansion",
    "third_cumulant_expansion",
    "DistributionSpec",
    "parse_distribution",
    "tail_of",
    "upper_quantile",
    "cdf",
    "sample",
    "make_rng",
    "CATALOG_NAMES",
    "OracleResult",
    "RateFit",
    "quad_moment",
    "quad_joint_moment",
    "mc_top_order_stats",
    "convergence_rate_probe",
    "TypoEntry",
    "LEDGER",
    "ledger_rows",
]


def __getattr__(name):
    # The oracle names in __all__ are the only ones not bound above: they
    # are looked up on first access (PEP 562), so that importing the package
    # does not import the oracles.
    if name in __all__:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
