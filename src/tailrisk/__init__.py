"""Tail-risk analytics: closed-form superquantile (CVaR) and buffered
probability of exceedance (bPOE) for eleven distribution families, with
parametric portfolio optimization and superquantile-based density fitting
built on top.

The closed forms are pure Python. numpy loads only when an array path runs:
sampling, Monte Carlo, the portfolio solvers and the fits. The names from
``estimation``, ``oracle`` and ``portfolio``, and those submodules
themselves, resolve on first use (PEP 562), so ``import tailrisk`` stays
numpy-free."""

from importlib import import_module as _import_module

from .distributions import (GEV, GPD, Distribution, Exponential, Laplace,
                            LogLogistic, LogNormal, Logistic, Normal, Pareto,
                            StudentT, SupportBound, Weibull, make)
from .errors import (ConvergenceError, DomainError, OracleError,
                     ParameterError, TailRiskError)
from .tail_metrics import (TailResult, bpoe, bpoe_by_minimization,
                           bpoe_by_root, bpoe_closed, left_superquantile,
                           partial_expectation, superdistribution_cdf,
                           superquantile)

__version__ = "0.1.0"

# submodule -> the names it exports; each lookup goes to the submodule
# afresh, so a name rebound there is seen here as well
_LAZY = {
    "estimation": ("FitProblem", "FitResult", "empirical_superquantile",
                   "ls_mos_fit", "mos_solve", "reference_fits"),
    "oracle": ("OracleConfig", "OracleResult", "mc_superquantile", "oracle_bpoe",
               "oracle_superquantile"),
    "portfolio": ("AssetUniverse", "PortfolioProblem", "PortfolioReport",
                  "QualifiedFamily", "cvar_cross_evaluate",
                  "markowitz_equivalence_check", "markowitz_solve",
                  "min_bpoe_portfolio", "min_cvar_portfolio"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_HOME))


__all__ = [
    "AssetUniverse", "ConvergenceError", "Distribution", "DomainError",
    "Exponential", "FitProblem", "FitResult", "GEV", "GPD", "Laplace",
    "LogLogistic", "LogNormal", "Logistic", "Normal", "OracleConfig",
    "OracleError", "OracleResult", "ParameterError", "Pareto",
    "PortfolioProblem", "PortfolioReport", "QualifiedFamily", "StudentT",
    "SupportBound", "TailResult", "TailRiskError", "Weibull", "bpoe",
    "bpoe_by_minimization", "bpoe_by_root", "bpoe_closed",
    "cvar_cross_evaluate", "empirical_superquantile", "left_superquantile",
    "ls_mos_fit", "make", "markowitz_equivalence_check", "markowitz_solve",
    "mc_superquantile", "min_bpoe_portfolio", "min_cvar_portfolio",
    "mos_solve", "oracle_bpoe", "oracle_superquantile", "partial_expectation",
    "reference_fits", "superdistribution_cdf", "superquantile",
]
