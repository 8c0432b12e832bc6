"""Inverse-transform sampling for ``Distribution.sample``.

This module imports numpy when it loads; ``distributions`` imports it inside
``sample``, so the scalar evaluators and ``import tailrisk`` never load numpy.
Each family's array quantile is looked up in ``_QUANTILE_ARRAYS`` along the
type's method resolution order, as a method would be, so a subclass of a
family samples as that family does and any other ``Distribution`` falls back
to its scalar ``quantile``, one level at a time.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .distributions import (GEV, GPD, Distribution, Exponential, Laplace,
                            LogLogistic, LogNormal, Logistic, Normal, Pareto,
                            StudentT, Weibull)

# --- vectorized special-function kernels ------------------------------------

_ACK_A, _ACK_B, _ACK_C, _ACK_D = (specfun._ACKLAM_A, specfun._ACKLAM_B,
                                  specfun._ACKLAM_C, specfun._ACKLAM_D)


def _norm_ppf_arr(p: np.ndarray) -> np.ndarray:
    """Acklam's rational normal quantile, |rel err| < 1.2e-9 (sampling grade)."""
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    lo = p < 0.02425
    hi = p > 1.0 - 0.02425
    mid = ~(lo | hi)

    def _tail(q):
        return (((((_ACK_C[0] * q + _ACK_C[1]) * q + _ACK_C[2]) * q + _ACK_C[3]) * q
                 + _ACK_C[4]) * q + _ACK_C[5]) / \
               ((((_ACK_D[0] * q + _ACK_D[1]) * q + _ACK_D[2]) * q + _ACK_D[3]) * q + 1.0)

    if lo.any():
        out[lo] = _tail(np.sqrt(-2.0 * np.log(p[lo])))
    if hi.any():
        out[hi] = -_tail(np.sqrt(-2.0 * np.log(1.0 - p[hi])))
    if mid.any():
        q = p[mid] - 0.5
        r = q * q
        out[mid] = (((((_ACK_A[0] * r + _ACK_A[1]) * r + _ACK_A[2]) * r + _ACK_A[3]) * r
                     + _ACK_A[4]) * r + _ACK_A[5]) * q / \
                   (((((_ACK_B[0] * r + _ACK_B[1]) * r + _ACK_B[2]) * r + _ACK_B[3]) * r
                     + _ACK_B[4]) * r + 1.0)
    return out


def _beta_cf_arr(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Vectorized Lentz continued fraction; converged lanes retire early."""
    x = np.asarray(x, dtype=float).ravel()
    out = np.empty_like(x)
    idx = np.arange(x.size)
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < tiny, tiny, d)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < 1e-15
        if done.any():
            out[idx[done]] = h[done]
            keep = ~done
            if not keep.any():
                return out
            idx, x, c, d, h = idx[keep], x[keep], c[keep], d[keep], h[keep]
    out[idx] = h
    return out


def _betainc_arr(x: np.ndarray, a: float, b: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    edge0 = x <= 0.0
    edge1 = x >= 1.0
    direct = (~edge0) & (~edge1) & (x < (a + 1.0) / (a + b + 2.0))
    swapped = (~edge0) & (~edge1) & (~direct)
    out[edge0] = 0.0
    out[edge1] = 1.0
    ln_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    if direct.any():
        xd = x[direct]
        front = np.exp(ln_norm + a * np.log(xd) + b * np.log1p(-xd))
        out[direct] = front * _beta_cf_arr(a, b, xd) / a
    if swapped.any():
        xs = x[swapped]
        front = np.exp(ln_norm + a * np.log(xs) + b * np.log1p(-xs))
        out[swapped] = 1.0 - front * _beta_cf_arr(b, a, 1.0 - xs) / b
    return out


def _t_cdf_arr(t: np.ndarray, nu: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    z = nu / (t * t + nu)
    ib = _betainc_arr(z, 0.5 * nu, 0.5)
    return np.where(t <= 0.0, 0.5 * ib, 1.0 - 0.5 * ib)


def _t_ppf_arr(u: np.ndarray, nu: float) -> np.ndarray:
    """Standardized Student-t quantile, safeguarded vector Newton.

    Iterates only on unconverged lanes so a handful of slow tail points do
    not drag full-array continued-fraction evaluations along.
    """
    u = np.asarray(u, dtype=float)
    upper_half = u > 0.5
    uu = np.where(upper_half, 1.0 - u, u)   # lower-tail probability <= 0.5
    ln_c = math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu) \
        - 0.5 * math.log(nu * math.pi)
    # survival asymptote S(t) ~ K * |t|^-nu: outer bracket and tail guess
    k_tail = math.exp(ln_c) * nu ** (0.5 * (nu + 1.0)) / nu
    uu_safe = np.maximum(uu, 1e-300)
    with np.errstate(over="ignore"):
        tail_guess = -(k_tail / uu_safe) ** (1.0 / nu)
        lo = 2.0 * tail_guess - 10.0
    hi = np.zeros_like(uu)
    t = np.where(uu < 0.1, tail_guess,
                 np.minimum(_norm_ppf_arr(uu_safe), -1e-12))
    t = np.maximum(t, lo * 0.75)
    active = np.ones(u.shape, dtype=bool)
    for _ in range(120):
        ta = t[active]
        resid = _t_cdf_arr(ta, nu) - uu[active]
        hi_a = hi[active]
        lo_a = lo[active]
        hi_a = np.where(resid > 0.0, ta, hi_a)
        lo_a = np.where(resid <= 0.0, ta, lo_a)
        pdf = np.exp(ln_c - 0.5 * (nu + 1.0) * np.log1p(ta * ta / nu))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_new = ta - resid / pdf
        bad = ~np.isfinite(t_new) | (t_new <= lo_a) | (t_new >= hi_a)
        t_new = np.where(bad, 0.5 * (lo_a + hi_a), t_new)
        done = np.abs(t_new - ta) <= 1e-12 * (1.0 + np.abs(t_new))
        hi[active] = hi_a
        lo[active] = lo_a
        t[active] = t_new
        still = ~done
        if not still.any():
            break
        idx = np.flatnonzero(active)
        active = np.zeros_like(active)
        active[idx[still]] = True
    return np.where(upper_half, -t, t)


# --- per-family array quantiles ----------------------------------------------

def _scalar(d: Distribution, u: np.ndarray) -> np.ndarray:
    return np.array([d.quantile(float(p)) for p in u])


def _exponential(d: Exponential, u: np.ndarray) -> np.ndarray:
    return -np.log1p(-u) / d.lam


def _pareto(d: Pareto, u: np.ndarray) -> np.ndarray:
    return d.xm * (1.0 - u) ** (-1.0 / d.a)


def _gpd(d: GPD, u: np.ndarray) -> np.ndarray:
    if d._xi0:
        return d.mu - d.s * np.log1p(-u)
    return d.mu + d.s * np.expm1(-d.xi * np.log1p(-u)) / d.xi


def _laplace(d: Laplace, u: np.ndarray) -> np.ndarray:
    return np.where(u < 0.5,
                    d.mu + d.b * np.log(2.0 * u),
                    d.mu - d.b * np.log(2.0 * (1.0 - u)))


def _normal(d: Normal, u: np.ndarray) -> np.ndarray:
    return d.mu + d.sigma * _norm_ppf_arr(u)


def _lognormal(d: LogNormal, u: np.ndarray) -> np.ndarray:
    return np.exp(d.mu + d.s * _norm_ppf_arr(u))


def _logistic(d: Logistic, u: np.ndarray) -> np.ndarray:
    return d.mu + d.s * (np.log(u) - np.log1p(-u))


def _student(d: StudentT, u: np.ndarray) -> np.ndarray:
    return d.mu + d.s * _t_ppf_arr(u, d.nu)


def _weibull(d: Weibull, u: np.ndarray) -> np.ndarray:
    return d.lam * (-np.log1p(-u)) ** (1.0 / d.k)


def _loglogistic(d: LogLogistic, u: np.ndarray) -> np.ndarray:
    return d.a * (u / (1.0 - u)) ** (1.0 / d.b)


def _gev(d: GEV, u: np.ndarray) -> np.ndarray:
    y = -np.log(u)
    if d._xi0:
        return d.mu - d.s * np.log(y)
    return d.mu + d.s * np.expm1(-d.xi * np.log(y)) / d.xi


_QUANTILE_ARRAYS = {
    Distribution: _scalar,
    Exponential: _exponential,
    Pareto: _pareto,
    GPD: _gpd,
    Laplace: _laplace,
    Normal: _normal,
    LogNormal: _lognormal,
    Logistic: _logistic,
    StudentT: _student,
    Weibull: _weibull,
    LogLogistic: _loglogistic,
    GEV: _gev,
}


def quantile_array(d: Distribution, u: np.ndarray) -> np.ndarray:
    """Quantiles of d at every level of u, levels in (0, 1)."""
    owner = next(cls for cls in type(d).__mro__ if cls in _QUANTILE_ARRAYS)
    return _QUANTILE_ARRAYS[owner](d, u)


def inverse_transform(d: Distribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of d: its quantiles at n clipped uniforms from rng."""
    u = np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)
    return quantile_array(d, u)
