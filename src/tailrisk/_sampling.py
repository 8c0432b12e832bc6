"""Draws for ``Distribution.sample``.

This module imports numpy when it loads; ``distributions`` imports it inside
``sample``, so the scalar evaluators and ``import tailrisk`` never load numpy.
Normal, LogNormal and Student-t draw from numpy's own generators
(``standard_normal``, ``standard_t``), so their draws are not monotone in a
uniform. The other families are inverse-transform samplers: their closed-form
array quantile at clipped uniforms. Both tables are looked up along the
type's method resolution order, as a method would be, so a subclass of a
family samples as that family does (Exponential(lam) as GPD(0, 1/lam, 0),
Pareto(a, xm) as GPD(xm, xm/a, 1/a)); any other ``Distribution`` raises
``DomainError``.
"""

from __future__ import annotations

import numpy as np

from .distributions import (GEV, GPD, Distribution, Laplace, LogLogistic,
                            LogNormal, Logistic, Normal, StudentT, Weibull)
from .errors import DomainError, _typed

# --- per-family array quantiles ----------------------------------------------

def _gpd(d: GPD, u: np.ndarray) -> np.ndarray:
    y = -np.log1p(-u)
    return d.mu + d.s * (y if d.xi == 0.0 else np.expm1(d.xi * y) / d.xi)


def _gev(d: GEV, u: np.ndarray) -> np.ndarray:
    y = -np.log(u)
    if d.xi == 0.0:
        return d.mu - d.s * np.log(y)
    return d.mu + d.s * np.expm1(-d.xi * np.log(y)) / d.xi


_QUANTILE_ARRAYS = {
    GPD: _gpd,
    Laplace: lambda d, u: np.where(u < 0.5, d.mu + d.b * np.log(2.0 * u),
                                   d.mu - d.b * np.log(2.0 * (1.0 - u))),
    Logistic: lambda d, u: d.mu + d.s * (np.log(u) - np.log1p(-u)),
    Weibull: lambda d, u: d.lam * (-np.log1p(-u)) ** (1.0 / d.k),
    LogLogistic: lambda d, u: d.a * (u / (1.0 - u)) ** (1.0 / d.b),
    GEV: _gev,
}


_DRAWS = {
    Normal: lambda d, n, rng: d.mu + d.sigma * rng.standard_normal(n),
    LogNormal: lambda d, n, rng: np.exp(d.mu + d.s * rng.standard_normal(n)),
    StudentT: lambda d, n, rng: d.mu + d.s * rng.standard_t(d.nu, n),
}


def draw(d: Distribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of d from rng: its generator expression, or its quantiles at clipped uniforms."""
    rng = _typed(rng, np.random.Generator)
    for cls in type(d).__mro__:
        if cls in _DRAWS:
            return _DRAWS[cls](d, n, rng)
        if cls in _QUANTILE_ARRAYS:
            return _QUANTILE_ARRAYS[cls](d, np.clip(rng.random(n), 1e-300, 1.0 - 1e-16))
    raise DomainError(f"no sampler for {type(d).__name__}")
