"""Pareto-type tail expansions for extreme order statistics.

From a tail model 1 - F(x) = x^{-alpha} (c_0 + c_1 x^{-beta} + ...) this
package builds quantile power series near u = 1 and asymptotic expansions in
powers of (1/n, n^{-beta/alpha}) for joint moments, covariances and third
cumulants of the largest order statistics, and checks them against
independent quadrature and Monte Carlo oracles.

Each module's ``__all__`` declares its public names, and the package
re-exports them: the oracle's on first access, the others at import.
"""

from . import errors, series, inversion, quantile, betamoments, expansion, catalog, ledger
from .errors import *
from .series import *
from .inversion import *
from .quantile import *
from .betamoments import *
from .expansion import *
from .catalog import *
from .ledger import *

__version__ = "0.1.0"

# oracle.__all__, looked up on first access (PEP 562) so that importing the
# package imports neither the oracles nor numpy and scipy
_ORACLE_NAMES = (
    "OracleResult",
    "RateFit",
    "quad_moment",
    "quad_joint_moment",
    "mc_top_order_stats",
    "convergence_rate_probe",
)

__all__ = [
    *errors.__all__,
    *series.__all__,
    *inversion.__all__,
    *quantile.__all__,
    *betamoments.__all__,
    *expansion.__all__,
    *catalog.__all__,
    *_ORACLE_NAMES,
    *ledger.__all__,
]


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
