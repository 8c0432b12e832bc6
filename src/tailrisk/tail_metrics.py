"""Superquantile (CVaR) and buffered probability of exceedance (bPOE).

The superquantile has a closed form for every supported family. bPOE has a
closed form for the exponential-tailed families (Exponential, Pareto, GPD,
Laplace); everywhere else it is recovered from the superquantile by
one-dimensional root finding, and for the Normal and Logistic additionally
by direct convex minimization of E[X - g]+ / (x - g).

Conventions, applied uniformly:
  * superquantile(d, 0) is the mean; infinite-mean parameterizations give
    superquantile = inf and bPOE = 1 for every finite threshold.
  * bPOE is clamped to 1 below the mean and to 0 at or above the essential
    supremum, so the functions are total on real thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun
from ._optim import cantelli_level, golden_section_min, level_root
from .distributions import (GEV, GPD, Distribution, Exponential, Laplace,
                            LogLogistic, LogNormal, Logistic, Normal, Pareto,
                            StudentT, Weibull)
from .errors import ConvergenceError, DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: families whose bPOE evaluates in closed form
CLOSED_BPOE_FAMILIES = (Exponential, Pareto, GPD, Laplace)
#: families with a convex-minimization bPOE engine
MINIMIZATION_BPOE_FAMILIES = (Normal, Logistic)


@dataclass(frozen=True)
class TailResult:
    """A tail-metric value together with its dual companion quantities.

    For bPOE: ``alpha_star = 1 - value`` is the probability level at which
    the superquantile meets the threshold and ``quantile_star`` is the
    quantile there (the argmin of the underlying minimization). ``clamped``
    marks thresholds outside [mean, sup) where the value was pinned to 1
    or 0 by convention.
    """

    value: float
    alpha_star: float
    quantile_star: float
    clamped: bool = False

    def to_json(self, metric: str) -> dict:
        return {
            "metric": metric,
            "value": self.value,
            "alpha_star": self.alpha_star,
            "quantile_star": self.quantile_star,
        }


# --- superquantile ----------------------------------------------------------

def _sq_exponential(d: Exponential, alpha: float) -> float:
    return (-math.log1p(-alpha) + 1.0) / d.lam


def _sq_pareto(d: Pareto, alpha: float) -> float:
    return d.xm * d.a / ((1.0 - alpha) ** (1.0 / d.a) * (d.a - 1.0))


def _sq_gpd(d: GPD, alpha: float) -> float:
    if d._xi0:
        return d.mu + d.s * (1.0 - math.log1p(-alpha))
    u = (1.0 - alpha) ** (-d.xi)
    return d.mu + d.s * (u / (1.0 - d.xi) + (u - 1.0) / d.xi)


def _sq_laplace(d: Laplace, alpha: float) -> float:
    if alpha < 0.5:
        return d.mu + d.b * (alpha / (1.0 - alpha)) * (1.0 - math.log(2.0 * alpha))
    return d.mu + d.b * (1.0 - math.log(2.0 * (1.0 - alpha)))


def _sq_normal(d: Normal, alpha: float) -> float:
    z = -specfun.erfc_inv(2.0 * alpha) * _SQRT2   # full precision for alpha near 0 and 1
    density = math.exp(-0.5 * z * z) / _SQRT_2PI
    return d.mu + d.sigma * density / (1.0 - alpha)


def _sq_lognormal(d: LogNormal, alpha: float) -> float:
    # 1 + erf(s/sqrt2 - z) written as erfc(z - s/sqrt2) to survive alpha -> 1
    z = -specfun.erfc_inv(2.0 * alpha)
    return 0.5 * math.exp(d.mu + 0.5 * d.s ** 2) \
        * specfun.erfc(z - d.s / _SQRT2) / (1.0 - alpha)


def _sq_logistic(d: Logistic, alpha: float) -> float:
    return d.mu + d.s * specfun.binary_entropy(alpha) / (1.0 - alpha)


def _sq_student(d: StudentT, alpha: float) -> float:
    """sq = mu + s (nu + t^2) pdf(t) / ((nu - 1)(1 - alpha)) at t = q_alpha, where
    (nu + t^2) pdf(t) = nu c (1 + t^2/nu)^(-(nu-1)/2) neither overflows nor
    underflows; past t^2 = nu the log1p splits off ln(t^2/nu), which stays
    finite where t^2 does not."""
    nu = d.nu
    t = (d.quantile(alpha) - d.mu) / d.s
    if t * t > nu:
        ln_1p = 2.0 * math.log(abs(t)) - math.log(nu) + math.log1p(nu / (t * t))
    else:
        ln_1p = math.log1p(t * t / nu)
    tail = nu * math.exp(d._ln_c() - 0.5 * (nu - 1.0) * ln_1p)
    return d.mu + d.s * tail / ((nu - 1.0) * (1.0 - alpha))


def _sq_weibull(d: Weibull, alpha: float) -> float:
    y = -math.log1p(-alpha)
    return d.lam / (1.0 - alpha) * specfun.upper_inc_gamma(1.0 + 1.0 / d.k, y)


def _sq_loglogistic(d: LogLogistic, alpha: float) -> float:
    c = math.pi / d.b
    partial = specfun.inc_beta(alpha, 1.0 / d.b + 1.0, 1.0 - 1.0 / d.b)
    return d.a / (1.0 - alpha) * (c / math.sin(c) - partial)


def _sq_gev(d: GEV, alpha: float) -> float:
    if d._xi0:
        bracket = specfun.EULER_GAMMA + alpha * math.log(-math.log(alpha)) \
            - specfun.log_integral(alpha)
        return d.mu + d.s * bracket / (1.0 - alpha)
    y = -math.log(alpha)
    gl = specfun.lower_inc_gamma(1.0 - d.xi, y)
    return d.mu + d.s * (gl - (1.0 - alpha)) / (d.xi * (1.0 - alpha))


_SQ_FORMULAS = {
    Exponential: _sq_exponential,
    Pareto: _sq_pareto,
    GPD: _sq_gpd,
    Laplace: _sq_laplace,
    Normal: _sq_normal,
    LogNormal: _sq_lognormal,
    Logistic: _sq_logistic,
    StudentT: _sq_student,
    Weibull: _sq_weibull,
    LogLogistic: _sq_loglogistic,
    GEV: _sq_gev,
}


def superquantile(d: Distribution, alpha: float) -> float:
    """Closed-form superquantile (CVaR) at probability level alpha in [0, 1).

    Returns inf when the mean diverges; superquantile(d, 0) is the mean, which
    is -inf where it lies below the floats (GEV with xi < -170.6).
    """
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"superquantile level must lie in [0, 1), got {alpha}")
    m = d.mean()
    if m == math.inf:
        return math.inf
    if alpha == 0.0:
        return m
    return _SQ_FORMULAS[type(d)](d, alpha)


def left_superquantile(d: Distribution, alpha: float) -> float:
    """Average of the lower alpha-fraction of outcomes, alpha in (0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"left superquantile level must lie in (0, 1], got {alpha}")
    m = d.mean()
    if not math.isfinite(m):
        raise DomainError("left superquantile requires a finite mean")
    if alpha == 1.0:
        return m
    return (m - (1.0 - alpha) * superquantile(d, alpha)) / alpha


# --- bPOE engines -----------------------------------------------------------

def _clamped_one(d: Distribution) -> TailResult:
    return TailResult(1.0, 0.0, d.support().lower, clamped=True)


def _clamped_zero(d: Distribution) -> TailResult:
    return TailResult(0.0, 1.0, d.support().upper, clamped=True)


def _result_from_value(d: Distribution, value: float) -> TailResult:
    value = min(1.0, max(0.0, value))
    alpha_star = 1.0 - value
    if alpha_star <= 0.0:
        return TailResult(1.0, 0.0, d.support().lower)
    if alpha_star >= 1.0:
        return TailResult(0.0, 1.0, d.support().upper)
    return TailResult(value, alpha_star, d.quantile(alpha_star))


def _bpoe_edges(d: Distribution, x: float) -> TailResult | None:
    if not math.isfinite(x):
        raise DomainError(f"bPOE threshold must be finite, got {x}")
    m = d.mean()
    if m == math.inf:
        # infinite mean: the tail average exceeds every finite threshold
        return _clamped_one(d)
    if x < m:
        return _clamped_one(d)
    upper = d.support().upper
    if math.isfinite(upper) and x >= upper:
        return _clamped_zero(d)
    return None


def bpoe_closed(d: Distribution, x: float) -> TailResult:
    """Closed-form bPOE; defined for Exponential, Pareto, GPD and Laplace."""
    if not isinstance(d, CLOSED_BPOE_FAMILIES):
        raise DomainError(f"no closed-form bPOE for family {d.family!r}")
    edge = _bpoe_edges(d, x)
    if edge is not None:
        return edge
    if isinstance(d, Exponential):
        value = math.exp(1.0 - d.lam * x)
    elif isinstance(d, Pareto):
        value = (d.xm * d.a / (x * (d.a - 1.0))) ** d.a
    elif isinstance(d, GPD):
        z = (x - d.mu) / d.s
        if d._xi0:
            value = math.exp(1.0 - z)
        else:
            t = 1.0 + d.xi * z
            if t <= 0.0:
                return _clamped_zero(d)
            value = math.exp(-(math.log(t) + math.log1p(-d.xi)) / d.xi)
    else:
        z = (x - d.mu) / d.b
        if z >= 1.0:
            value = 0.5 * math.exp(1.0 - z)
        elif z <= 0.0:
            # x == mean; the Lambert argument would be 0 (removable case)
            value = 1.0
        else:
            w = specfun.lambert_w(-2.0 * z * math.exp(-z - 1.0), specfun.WBranch.LOWER)
            value = 1.0 + z / w
    return _result_from_value(d, value)


def bpoe_by_root(d: Distribution, x: float) -> TailResult:
    """bPOE by solving superquantile(d, alpha) = x with ``_optim.level_root``.

    The level, in [0, nextafter(1, 0)], has relative precision about 1e-13 in
    1 - alpha, and in alpha where alpha is small. A residual above
    1e-6 max(1, |x|) raises ``ConvergenceError`` unless the root lies within
    one float of alpha.
    """
    edge = _bpoe_edges(d, x)
    if edge is not None:
        return edge
    m = d.mean()
    if x == m:
        return TailResult(1.0, 0.0, d.support().lower)
    alpha_cap = math.nextafter(1.0, 0.0)

    def sq(alpha: float) -> float:
        return superquantile(d, alpha)

    alpha = level_root(sq, d.quantile, x, 0.0, alpha_cap,
                       cantelli_level(x, m, d.variance()))
    residual = sq(alpha) - x
    if alpha == alpha_cap and residual < 0.0:
        return _clamped_zero(d)
    if abs(residual) > 1e-6 * max(1.0, abs(x)):
        # near alpha = 1 the slope of the superquantile blows up, so a root
        # between two adjacent floats can leave a large residual
        neighbour = math.nextafter(alpha, 0.0 if residual > 0.0 else 1.0)
        if (sq(neighbour) - x) * residual > 0.0:
            raise ConvergenceError(
                "bPOE root engine stalled",
                {"alpha": alpha, "residual": residual, "threshold": x})
    return TailResult(1.0 - alpha, alpha, d.quantile(alpha))


def _pe_normal_std(g: float) -> float:
    """E[Z - g]+ for standard normal Z."""
    density = math.exp(-0.5 * g * g) / _SQRT_2PI
    return density - g * 0.5 * math.erfc(g / _SQRT2)


def _pe_logistic(d: Logistic, g: float) -> float:
    """E[X - g]+ = s ln(1 + exp(-(g - mu)/s)), overflow-safe."""
    t = (g - d.mu) / d.s
    return d.s * (math.log1p(math.exp(-abs(t))) + max(-t, 0.0))


def bpoe_by_minimization(d: Distribution, x: float,
                         max_iter: int = 200) -> TailResult:
    """bPOE as the minimum over g < x of E[X - g]+ / (x - g).

    Available for Normal and Logistic, whose partial expectations are
    closed-form. Golden-section localizes the convex minimum; a Newton
    polish on the stationarity condition pins the argmin, which is the
    quantile at level 1 - bPOE.
    """
    if not isinstance(d, MINIMIZATION_BPOE_FAMILIES):
        raise DomainError(f"no minimization bPOE engine for family {d.family!r}")
    m = d.mean()
    if x <= m:
        raise DomainError(f"minimization engine requires x > mean, got x={x}, mean={m}")
    if isinstance(d, Normal):
        zx = (x - d.mu) / d.sigma

        def objective(g: float) -> float:
            return _pe_normal_std(g) / (zx - g)

        g_lo = -specfun.erfc_inv(2e-9) * _SQRT2   # standard quantile at 1e-9
        g = golden_section_min(objective, g_lo, zx - 1e-12 * (1.0 + abs(zx)),
                               xtol=1e-9)
        # stationarity: exp(-g^2/2) - zx sqrt(pi/2) erfc(g/sqrt2) = 0,
        # with derivative exp(-g^2/2) (zx - g)
        converged = False
        for _ in range(max_iter):
            num = math.exp(-0.5 * g * g) - zx * math.sqrt(math.pi / 2.0) \
                * math.erfc(g / _SQRT2)
            dnum = math.exp(-0.5 * g * g) * (zx - g)
            if dnum == 0.0:
                break
            step = num / dnum
            g -= step
            if abs(step) <= 1e-13 * (1.0 + abs(g)):
                converged = True
                break
        value = objective(g)
        quantile_star = d.mu + d.sigma * g
    else:
        def objective(g: float) -> float:
            return _pe_logistic(d, g) / (x - g)

        g_lo = d.quantile(1e-9)
        g = golden_section_min(objective, g_lo, x - 1e-12 * (1.0 + abs(x)),
                               xtol=1e-9)
        converged = False
        for _ in range(max_iter):
            tail = 1.0 - d.cdf(g)
            resid = _pe_logistic(d, g) - (x - g) * tail
            dresid = (x - g) * d.pdf(g)
            if dresid == 0.0:
                break
            step = resid / dresid
            g -= step
            if abs(step) <= 1e-13 * (1.0 + abs(g)):
                converged = True
                break
        value = objective(g)
        quantile_star = g
    if not converged:
        raise ConvergenceError(
            "bPOE minimization engine did not converge",
            {"threshold": x, "gamma": quantile_star, "value": value})
    value = min(1.0, max(0.0, value))
    return TailResult(value, 1.0 - value, quantile_star)


def bpoe(d: Distribution, x: float) -> TailResult:
    """bPOE at threshold x: closed form where available, else the root engine."""
    if isinstance(d, CLOSED_BPOE_FAMILIES):
        return bpoe_closed(d, x)
    return bpoe_by_root(d, x)


def partial_expectation(d: Distribution, gamma: float) -> float:
    """E[X - gamma]+ via (superquantile(F(gamma)) - gamma) * (1 - F(gamma))."""
    m = d.mean()
    if m == math.inf:
        return math.inf
    upper = d.support().upper
    if math.isfinite(upper) and gamma >= upper:
        return 0.0
    prob = d.cdf(gamma)
    if prob <= 0.0:
        return m - gamma
    if prob >= 1.0:
        return 0.0
    return (superquantile(d, prob) - gamma) * (1.0 - prob)


def superdistribution_cdf(d: Distribution, x: float) -> float:
    """CDF whose inverse is the superquantile: 1 - bPOE, clamped to [0, 1]."""
    return min(1.0, max(0.0, 1.0 - bpoe(d, x).value))
