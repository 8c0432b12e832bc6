"""Superquantile (CVaR) and buffered probability of exceedance (bPOE).

The superquantile has a closed form for every supported family. bPOE has a
closed form for the exponential-tailed families (Exponential, Pareto, GPD,
Laplace); everywhere else it is recovered from the superquantile by root
finding in the tail mass eps = 1 - alpha, which bPOE is, and for the Normal
and Logistic additionally by minimizing E[X - g]+ / (x - g) with one Newton
phase on their standardized tails, which also give their partial expectation.

Conventions, applied uniformly:
  * superquantile(d, 0) is the mean; infinite-mean parameterizations give
    superquantile = inf and bPOE = 1 for every finite threshold.
  * bPOE is clamped to 1 below the mean and to 0 at or above the essential
    supremum, so the functions are total on real thresholds.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from . import specfun
from ._optim import cantelli_level, level_root
from .distributions import (GEV, GPD, Distribution, Exponential, Laplace,
                            LogLogistic, LogNormal, Logistic, Normal, Pareto,
                            StudentT, Weibull, _exp_or_inf, _neg_log, _scaled_power)
from .errors import ConvergenceError, DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: families whose bPOE evaluates in closed form
CLOSED_BPOE_FAMILIES = (Exponential, Pareto, GPD, Laplace)
#: families with a convex-minimization bPOE engine
MINIMIZATION_BPOE_FAMILIES = (Normal, Logistic)
#: families symmetric about their location mu
_SYMMETRIC_FAMILIES = (Normal, Laplace, Logistic, StudentT)


class TailResult(NamedTuple):
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
# Each formula takes the pair (alpha, eps), alpha + eps = 1, and reads its
# precision from the smaller one, as ``Distribution._quantile`` does.

def _sq_exponential(d: Exponential, alpha: float, eps: float) -> float:
    return (_neg_log(eps, alpha) + 1.0) / d.lam


def _sq_pareto(d: Pareto, alpha: float, eps: float) -> float:
    return _scaled_power(d.xm * d.a / (d.a - 1.0), eps, -1.0 / d.a)


def _sq_gpd(d: GPD, alpha: float, eps: float) -> float:
    if d._xi0:
        return d.mu + d.s * (1.0 + _neg_log(eps, alpha))
    u = _scaled_power(1.0, eps, -d.xi)
    return d.mu + d.s * (u / (1.0 - d.xi) + (u - 1.0) / d.xi)


def _sq_laplace(d: Laplace, alpha: float, eps: float) -> float:
    if alpha < 0.5:
        return d.mu + d.b * (alpha / eps) * (1.0 - math.log(2.0 * alpha))
    return d.mu + d.b * (1.0 - math.log(2.0 * eps))


def _sq_normal(d: Normal, alpha: float, eps: float,
               pair: bool = False) -> float | tuple[float, float]:
    w = specfun.erfc_inv(2.0 * (alpha if alpha < eps else eps))   # |z| / sqrt2
    sq = d.mu + d.sigma * math.exp(-w * w) / (_SQRT_2PI * eps)
    if not pair:
        return sq
    t = -_SQRT2 * w   # the lower-half quantile, mirrored as Normal._quantile does
    return sq, d.mu + d.sigma * (t if alpha <= eps else -t)


def _sq_lognormal(d: LogNormal, alpha: float, eps: float,
                  pair: bool = False) -> float | tuple[float, float]:
    # 1 + erf(s/sqrt2 - z) written as erfc(z - s/sqrt2) to survive eps -> 0
    z = -specfun.erfc_inv(2.0 * alpha) if alpha < eps else specfun.erfc_inv(2.0 * eps)
    sq = 0.5 * math.exp(d.mu + 0.5 * d.s ** 2) * specfun.erfc(z - d.s / _SQRT2) / eps
    if not pair:
        return sq
    return sq, _exp_or_inf(d.mu + d.s * (_SQRT2 * z))   # sqrt2 z: the standard normal quantile


def _sq_logistic(d: Logistic, alpha: float, eps: float) -> float:
    return d.mu + d.s * specfun.binary_entropy(alpha if alpha < eps else eps) / eps


def _sq_student(d: StudentT, alpha: float, eps: float,
                pair: bool = False) -> float | tuple[float, float]:
    """sq = mu + s (nu + t^2) pdf(t) / ((nu - 1) eps) at t = |q| standardized, where
    (nu + t^2) pdf(t) = nu c (1 + t^2/nu)^(-(nu-1)/2) neither overflows nor
    underflows; past t^2 = nu the log1p splits off ln(t^2/nu), which stays
    finite where t^2 does not."""
    nu = d.nu
    t = d._std_lower_quantile(alpha if alpha < eps else eps)
    if t * t > nu:
        ln_1p = 2.0 * math.log(-t) - math.log(nu) + math.log1p(nu / (t * t))
    else:
        ln_1p = math.log1p(t * t / nu)
    tail = nu * math.exp(d._ln_c() - 0.5 * (nu - 1.0) * ln_1p)
    sq = d.mu + d.s * tail / ((nu - 1.0) * eps)
    if not pair:
        return sq
    return sq, d.mu + d.s * (t if alpha <= eps else -t)


def _sq_weibull(d: Weibull, alpha: float, eps: float) -> float:
    return d.lam * (specfun.upper_inc_gamma(1.0 + 1.0 / d.k, _neg_log(eps, alpha)) / eps)


def _sq_loglogistic(d: LogLogistic, alpha: float, eps: float) -> float:
    # (a / eps) times the integral of (1 - r)^(1/b) r^(-1/b) over r in [0, eps]
    return d.a * (specfun.inc_beta(eps, 1.0 - 1.0 / d.b, 1.0 + 1.0 / d.b) / eps)


def _sq_gev(d: GEV, alpha: float, eps: float) -> float:
    y = _neg_log(alpha, eps)
    if not d._xi0:
        gl = specfun.lower_inc_gamma(1.0 - d.xi, y)
        return d.mu + d.s * (gl - eps) / (d.xi * eps)
    if eps > 0.5:
        bracket = specfun.EULER_GAMMA + alpha * math.log(y) - specfun.log_integral(alpha)
        return d.mu + d.s * bracket / eps
    # Ein(y) = sum (-1)^(n+1) y^n / (n n!), alternating and fast for y <= ln 2
    ein, term, n = 0.0, -1.0, 0
    while abs(term) > 1e-17 * ein:
        n += 1
        term *= -y / n
        ein += term / n
    return d.mu + d.s * (ein / eps - math.log(y))


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


#: families whose formula holds its quantile and returns (sq, q) given ``pair``
_SQ_HOLDS_QUANTILE = (Normal, LogNormal, StudentT)


def superquantile(d: Distribution, alpha: float,
                  _eps: float | None = None) -> float | tuple[float, float]:
    """Closed-form superquantile (CVaR) at probability level alpha in [0, 1).

    Returns inf when the mean diverges; superquantile(d, 0) is the mean, which
    is -inf where it lies below the floats (GEV with xi < -170.6).

    The root engines pass the tail mass ``_eps`` = 1 - alpha too, unchecked,
    and get the pair (sq, q) of the superquantile and the quantile at alpha,
    the slope of sq in log(eps) being q - sq: Normal, LogNormal and Student-t
    read q off the quantile their formula holds, the other families add
    ``_level_quantile``. At alpha = 0 the pair is (mean, lower end of the
    support), so no quantile is evaluated at level 0.
    """
    if _eps is None:
        if not 0.0 <= alpha < 1.0:
            raise DomainError(f"superquantile level must lie in [0, 1), got {alpha}")
        m = d.mean()
        if alpha == 0.0 or m == math.inf:
            return m
        return _SQ_FORMULAS[type(d)](d, alpha, 1.0 - alpha)
    if alpha == 0.0:
        return d.mean(), d.support().lower
    if d.mean() == math.inf:
        return math.inf, d._level_quantile(alpha, _eps)
    formula = _SQ_FORMULAS[type(d)]
    if isinstance(d, _SQ_HOLDS_QUANTILE):
        return formula(d, alpha, _eps, True)
    return formula(d, alpha, _eps), d._level_quantile(alpha, _eps)


def left_superquantile(d: Distribution, alpha: float) -> float:
    """Average of the lower alpha-fraction of outcomes, alpha in (0, 1].

    For the symmetric families it is 2 mu - sq at the pair (1 - alpha, alpha),
    which keeps its precision as alpha -> 0. Elsewhere it is
    (mean - (1 - alpha) sq(alpha)) / alpha, which cancels as alpha -> 0: where
    1e-14 relative error in each term leaves less than 1e-8 relative in the
    result, it raises ``DomainError`` instead of returning a wrong value.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"left superquantile level must lie in (0, 1], got {alpha}")
    m = d.mean()
    if not math.isfinite(m):
        raise DomainError("left superquantile requires a finite mean")
    if alpha == 1.0:
        return m
    if isinstance(d, _SYMMETRIC_FAMILIES):
        return 2.0 * d.mu - _SQ_FORMULAS[type(d)](d, 1.0 - alpha, alpha)
    upper = (1.0 - alpha) * superquantile(d, alpha)
    if 1e-14 * (abs(m) + abs(upper)) > 1e-8 * abs(m - upper):
        raise DomainError(f"left superquantile of {d.family} at alpha={alpha} cancels "
                          "below 1e-8 relative precision")
    return (m - upper) / alpha


# --- bPOE engines -----------------------------------------------------------

def _clamped_one(d: Distribution) -> TailResult:
    return TailResult(1.0, 0.0, d.support().lower, clamped=True)


def _clamped_zero(d: Distribution) -> TailResult:
    return TailResult(0.0, 1.0, d.support().upper, clamped=True)


def _result_from_value(d: Distribution, value: float) -> TailResult:
    value = min(1.0, max(0.0, value))
    if value == 0.0 or value == 1.0:   # underflowed, or at the mean: an end of the support
        return TailResult(value, 1.0 - value, d.support()[value == 0.0])
    return TailResult(value, 1.0 - value, d.quantile(1.0 - value, value))


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
    """bPOE as the tail mass eps in [smallest normal float, 1] that solves
    superquantile(d, 1 - eps, eps) = x with ``_optim.level_root``, to about
    1e-13 relative. Each step evaluates the pair (sq, q) once, and the
    residual and ``quantile_star`` are read from the engine's last pair, so
    no family's ``quantile`` is called. Beyond sq at the smallest normal eps
    it underflows and reads 0.0. A residual above 1e-6 max(1, |x|) raises
    ``ConvergenceError``.
    """
    edge = _bpoe_edges(d, x)
    if edge is not None:
        return edge
    m = d.mean()
    if x == m:   # what level_root returns at its top pair, without evaluating it
        return TailResult(1.0, 0.0, d.support().lower)
    alpha, eps, sq, q = level_root(lambda a, e: superquantile(d, a, e), x, sys.float_info.min,
                                   cantelli_level(x, m, d.variance()))
    residual = sq - x
    if eps == sys.float_info.min and residual < 0.0:
        return _result_from_value(d, 0.0)
    if abs(residual) > 1e-6 * max(1.0, abs(x)):
        raise ConvergenceError("bPOE root engine stalled",
                               {"alpha": alpha, "eps": eps, "residual": residual, "threshold": x})
    return TailResult(eps, alpha, q)


def _std_normal_tail(g: float) -> tuple[float, float, float]:
    """(E[Z - g | Z > g], hazard, ln P(Z > g)) for the standard normal Z; from g = 4 the mean
    excess is Laplace's continued fraction 1/(g + 2/(g + ...)): no cancellation, no underflow."""
    if g < 4.0:
        survival = 0.5 * math.erfc(g / _SQRT2)
        hazard = math.exp(-0.5 * g * g) / (_SQRT_2PI * survival)
        return hazard - g, hazard, math.log(survival)
    cf = g
    for k in range(10 + int(500.0 / (g * g)), 1, -1):
        cf = g + k / cf
    return 1.0 / cf, g + 1.0 / cf, -0.5 * g * g - math.log(_SQRT_2PI * (g + 1.0 / cf))


def _std_logistic_tail(g: float) -> tuple[float, float, float]:
    """The same for the standard logistic Z, whose hazard is its cdf; the
    survival 1/(1 + e^g) is formed as an upper tail, never as 1 - cdf."""
    t = math.exp(-abs(g))
    if g > 0.0:
        excess = (1.0 + t) * (math.log1p(t) / t if t else 1.0)
        return excess, 1.0 / (1.0 + t), -g - math.log1p(t)
    return (1.0 + t) * (math.log1p(t) - g), t / (1.0 + t), -math.log1p(t)


# family -> (scale of its standardization (X - mu) / scale, standardized tail)
_STD_TAILS = {Normal: (lambda d: d.sigma, _std_normal_tail),
              Logistic: (lambda d: d.s, _std_logistic_tail)}


def bpoe_by_minimization(d: Distribution, x: float) -> TailResult:
    """bPOE as the minimum over g < x of E[X - g]+ / (x - g), for Normal and Logistic.

    In standardized units the argmin g, the quantile at level 1 - bPOE, solves
    s(g) = g + E[Z - g | Z > g] = zx, slope hazard * excess, by Newton from g = zx
    (s > zx there), bisecting steps that leave the bracket. The value,
    exp(ln S + ln(excess / (zx - g))), is flat to first order in g and precise
    into the subnormals. ``ConvergenceError`` if 100 steps do not settle.
    """
    if not isinstance(d, MINIMIZATION_BPOE_FAMILIES):
        raise DomainError(f"no minimization bPOE engine for family {d.family!r}")
    if x <= d.mean():
        raise DomainError(f"minimization engine requires x > mean, got x={x}, mean={d.mean()}")
    scale_of, tail = _STD_TAILS[type(d)]
    scale = scale_of(d)
    zx = (x - d.mu) / scale
    lo, hi, g = -math.inf, zx, zx
    for _ in range(100):
        excess, hazard, ln_survival = tail(g)
        residual = g + excess - zx
        lo, hi = (lo, g) if residual > 0.0 else (g, hi)
        new = g - residual / (hazard * excess) if hazard * excess > 0.0 else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        # g + excess cancels near the mean, so a residual at its rounding level ends the loop too
        if abs(new - g) <= 1e-14 * max(1.0, abs(g)) or abs(residual) <= 4e-16 * (abs(g) + excess):
            # g = zx only where the excess is below the rounding of zx
            value = min(1.0, math.exp(ln_survival + math.log(excess / (zx - g) if g < zx else 1.0)))
            return TailResult(value, 1.0 - value, d.mu + scale * g)
        g = new
    raise ConvergenceError("bPOE minimization engine did not converge",
                           {"threshold": x, "gamma": d.mu + scale * g, "residual": residual})


def bpoe(d: Distribution, x: float) -> TailResult:
    """bPOE at threshold x: closed form where available, else the root engine."""
    if isinstance(d, CLOSED_BPOE_FAMILIES):
        return bpoe_closed(d, x)
    return bpoe_by_root(d, x)


def partial_expectation(d: Distribution, gamma: float) -> float:
    """E[X - gamma]+: for Normal and Logistic scale S e, survival S and mean excess e
    of the standardized tail, precise into the subnormals; elsewhere
    (superquantile(F(gamma)) - gamma) (1 - F(gamma)), which raises ``DomainError``
    where 1 - F(gamma), at 1e-14 absolute error in F, keeps less than 1e-8 relative.
    """
    if isinstance(d, MINIMIZATION_BPOE_FAMILIES):
        scale_of, tail = _STD_TAILS[type(d)]
        excess, _, ln_survival = tail((gamma - d.mu) / scale_of(d))
        return scale_of(d) * excess * math.exp(ln_survival)
    m = d.mean()
    if m == math.inf:
        return math.inf
    upper = d.support().upper
    if math.isfinite(upper) and gamma >= upper:
        return 0.0
    prob = d.cdf(gamma)
    if prob <= 0.0:
        return m - gamma
    if 1e-14 > 1e-8 * (1.0 - prob):
        raise DomainError(f"partial expectation of {d.family} at gamma={gamma}: "
                          "1 - F(gamma) keeps less than 1e-8 relative precision")
    return (superquantile(d, prob) - gamma) * (1.0 - prob)


def superdistribution_cdf(d: Distribution, x: float) -> float:
    """CDF whose inverse is the superquantile: 1 - bPOE, clamped to [0, 1]."""
    return min(1.0, max(0.0, 1.0 - bpoe(d, x).value))
