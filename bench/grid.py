"""Pinned inputs shared by the workloads and the reference generator.

Everything here is fixed; the workload seed only reorders these inputs and
generates the synthetic data of the apps and cli workloads.
"""

from __future__ import annotations

import numpy as np

# Eleven families with three settings each, so every family has an equal
# share of the tail-grid cases. Student-t is 3 of 33 settings (9%), which
# puts the p99 of the superquantile and bPOE latencies inside it.
SETTINGS: list[tuple[str, dict[str, float]]] = [
    ("exponential", {"lam": 1.0}), ("exponential", {"lam": 0.25}),
    ("exponential", {"lam": 4.0}),
    ("pareto", {"a": 1.5, "xm": 2.0}), ("pareto", {"a": 3.0, "xm": 1.0}),
    ("pareto", {"a": 2.2, "xm": 0.5}),
    ("gpd", {"mu": -1.0, "s": 2.0, "xi": 0.3}), ("gpd", {"mu": 0.0, "s": 1.0, "xi": -0.5}),
    ("gpd", {"mu": 0.5, "s": 2.0, "xi": 0.0}),
    ("laplace", {"mu": 0.0, "b": 1.0}), ("laplace", {"mu": 1.0, "b": 2.0}),
    ("laplace", {"mu": -3.0, "b": 0.5}),
    ("normal", {"mu": 0.0, "sigma": 1.0}), ("normal", {"mu": 1.0, "sigma": 2.0}),
    ("normal", {"mu": -2.0, "sigma": 0.3}),
    ("lognormal", {"mu": 0.0, "s": 1.0}), ("lognormal", {"mu": 0.5, "s": 0.8}),
    ("lognormal", {"mu": -1.0, "s": 1.5}),
    ("logistic", {"mu": 0.0, "s": 1.0}), ("logistic", {"mu": -2.0, "s": 1.5}),
    ("logistic", {"mu": 3.0, "s": 0.4}),
    ("student-t", {"nu": 2.5, "s": 2.0, "mu": 1.0}), ("student-t", {"nu": 3.0, "s": 1.0, "mu": 0.0}),
    ("student-t", {"nu": 6.0, "s": 0.5, "mu": -1.0}),
    ("weibull", {"lam": 0.5, "k": 1.4}), ("weibull", {"lam": 2.0, "k": 0.8}),
    ("weibull", {"lam": 1.0, "k": 3.0}),
    ("loglogistic", {"a": 2.0, "b": 3.0}), ("loglogistic", {"a": 1.0, "b": 1.5}),
    ("loglogistic", {"a": 0.5, "b": 4.0}),
    ("gev", {"mu": 1.0, "s": 2.0, "xi": 0.3}), ("gev", {"mu": 1.0, "s": 2.0, "xi": -0.2}),
    ("gev", {"mu": 0.0, "s": 1.0, "xi": 0.0}),
]

ALPHAS: list[float] = [i / 20 for i in range(20)] + [
    0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]

EPSILONS: list[float] = [10.0 ** -i for i in range(1, 11)] + [
    1e-12, 1e-15, 1e-20, 1e-30, 1e-40, 1e-50, 1e-75, 1e-100, 1e-150,
    1e-200, 1e-250, 1e-300]

# Single bPOE calls outside the grid, at thresholds where the engines are
# known to misbehave; kept so that the defects stay visible.
PROBES: list[dict] = [
    {"family": "weibull", "params": {"lam": 1.0, "k": 0.01}, "engine": "bpoe", "x": 1e200},
    {"family": "normal", "params": {"mu": 0.0, "sigma": 1.0},
     "engine": "bpoe_by_minimization", "x": 38.0},
    {"family": "logistic", "params": {"mu": 0.0, "s": 1.0},
     "engine": "bpoe_by_minimization", "x": 80.0},
]

# Portfolio levels: the published tables use 0.9/0.95/0.99 and the frontier
# sweeps numpy.linspace(0.9, 0.99, 10), exactly as the CLI builds it.
FRONTIER_LEVELS: list[float] = [float(v) for v in np.linspace(0.9, 0.99, 10)]
PORTFOLIO_LEVELS: list[float] = [0.9, 0.95, 0.99]
ZETA_LEVELS: list[float] = sorted(set(PORTFOLIO_LEVELS + FRONTIER_LEVELS))

# Exact-target superquantile matching (MOS): family, parameters, levels.
MOS_CASES: list[tuple[str, dict[str, float], tuple[float, ...]]] = [
    ("normal", {"mu": 1.0, "sigma": 2.0}, (0.5, 0.9)),
    ("weibull", {"lam": 0.5, "k": 1.4}, (0.15, 0.75)),
    ("logistic", {"mu": -1.0, "s": 0.7}, (0.2, 0.8)),
    ("gev", {"mu": 1.0, "s": 2.0, "xi": 0.2}, (0.1, 0.5, 0.9)),
    ("student-t", {"nu": 4.0, "s": 1.5, "mu": 0.5}, (0.1, 0.5, 0.9)),
]


def setting_id(family: str, params: dict[str, float]) -> str:
    """Stable, readable name of one parameterised distribution."""
    inner = ",".join(f"{k}={v:g}" for k, v in params.items())
    return f"{family}({inner})"
