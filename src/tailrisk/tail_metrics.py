"""Superquantile (CVaR) and buffered probability of exceedance (bPOE).

The superquantile has a closed form for every supported family. bPOE has a
closed form for the exponential-tailed families (Exponential, Pareto, GPD,
Laplace). For Normal, Logistic, Student-t and LogNormal it is the minimum of
E[X - g]+ / (x - g), found by Newton on one tail per family, one survival
function per step; ``bpoe`` runs that engine for Logistic, Student-t and
LogNormal, and the same tails give their partial expectation. Everywhere else
bPOE is recovered from the superquantile by root finding in the tail mass
eps = 1 - alpha, which bPOE is: ``level_root`` is the one solver of sq = x,
shared with the oracle and the portfolio layer's GEV zeta inversion.

Conventions, applied uniformly:
  * superquantile(d, 0) is the mean; infinite-mean parameterizations give
    superquantile = inf and bPOE = 1 for every finite threshold.
  * bPOE is clamped to 1 below the mean and to 0 at or above the essential
    supremum, so the functions are total on real thresholds.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from . import specfun
from .distributions import (_LN_SQRT_2PI, GEV, GPD, Distribution, Exponential, Laplace,
                            LogLogistic, LogNormal, Logistic, Normal, Pareto, StudentT,
                            Weibull, _exp_or_inf, _expm1_ratio, _log1p_ratio, _neg_log,
                            _scaled_power, _student_ln_1p)
from .errors import ConvergenceError, DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LEAST_FLOAT = math.ulp(0.0)   # the smallest positive float
#: below this ln S, S times any binary64 value underflows
_LN_NEGLIGIBLE = math.log(5e-324) - math.log(sys.float_info.max)

#: families whose bPOE evaluates in closed form
CLOSED_BPOE_FAMILIES = (Exponential, Pareto, GPD, Laplace)
#: families with a convex-minimization bPOE engine
MINIMIZATION_BPOE_FAMILIES = (Normal, Logistic, StudentT, LogNormal)
#: families whose ``bpoe`` runs that engine (see ``bpoe`` for the Normal)
_MINIMIZED_BPOE_FAMILIES = (Logistic, StudentT, LogNormal)
#: families symmetric about their location mu
_SYMMETRIC_FAMILIES = (Normal, Laplace, Logistic, StudentT)


class TailResult(NamedTuple):
    """A tail-metric value together with its dual companion quantities.

    For bPOE: ``alpha_star`` is the probability level 1 - value at which the
    superquantile meets the threshold, carried with its own relative precision
    (the level of the root engine, the lower tail at the argmin of the
    minimization engine), and ``quantile_star`` is the quantile there (the
    argmin of the underlying minimization). ``clamped``
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

def _sq_gpd(d: GPD, alpha: float, eps: float) -> float:
    excess = d._excess(alpha, eps)   # s (u - 1) / xi, u = eps^-xi
    return d.mu + ((d.s + d.xi * excess) / d._g1 + excess)


def _sq_laplace(d: Laplace, alpha: float, eps: float) -> float:
    if alpha < 0.5:
        return d.mu + d.b * (alpha / eps) * (1.0 - math.log(2.0 * alpha))
    return d.mu + d.b * (1.0 - math.log(2.0 * eps))


def _sq_normal(d: Normal, alpha: float, eps: float,
               pair: bool = False) -> float | tuple[float, float]:
    w = specfun.erfc_inv(2.0 * (alpha if alpha < eps else eps))   # |z| / sqrt2
    sq = d.mu + d.sigma * (math.exp(-w * w) / (_SQRT_2PI * eps))
    if not pair:
        return sq
    t = -_SQRT2 * w   # the lower-half quantile, mirrored as Normal._quantile does
    return sq, d.mu + d.sigma * (t if alpha <= eps else -t)


def _sq_lognormal(d: LogNormal, alpha: float, eps: float) -> float:
    # 1 + erf(s/sqrt2 - z) written as erfc(z - s/sqrt2) to survive eps -> 0
    z = -specfun.erfc_inv(2.0 * alpha) if alpha < eps else specfun.erfc_inv(2.0 * eps)
    return d.mean() * (0.5 * specfun.erfc(z - d.s / _SQRT2) / eps)


def _sq_logistic(d: Logistic, alpha: float, eps: float) -> float:
    return d.mu + d.s * (specfun.binary_entropy(alpha if alpha < eps else eps) / eps)


def _sq_student(d: StudentT, alpha: float, eps: float) -> float:
    """sq = mu + s (nu + t^2) pdf(t) / ((nu - 1) eps) at t = |q| standardized, where
    (nu + t^2) pdf(t) = nu c (1 + t^2/nu)^(-(nu-1)/2), in logs, neither overflows
    nor underflows."""
    nu = d.nu
    ln_1p = _student_ln_1p(nu, d._std_lower_quantile(alpha if alpha < eps else eps))
    tail = nu * math.exp(d._ln_c - 0.5 * (nu - 1.0) * ln_1p)
    return d.mu + d.s * (tail / ((nu - 1.0) * eps))


def _sq_weibull(d: Weibull, alpha: float, eps: float) -> float:
    a, y = 1.0 + 1.0 / d.k, _neg_log(eps, alpha)
    if y >= a + 1.0:
        # Gamma(a, y) / eps = e^y Gamma(a, y) = y^a cf(a, y), formed as q y cf / lam, q the
        # quantile: neither a rounded e^-y nor the rounding of a meets y
        sq = _scaled_power(d.lam, y, 1.0 / d.k) * (y * specfun._gamma_q_cf(a, y))
    else:
        sq = d.lam * (specfun.upper_inc_gamma(a, y) / eps)   # in logs where Gamma(a, y) overflows
    return sq if sq < math.inf else _exp_or_inf(
        math.log(d.lam) + specfun.ln_inc_gamma(a, y, True) - math.log(eps))


def _sq_loglogistic(d: LogLogistic, alpha: float, eps: float) -> float:
    # (a / eps) times the integral of (1 - r)^(1/b) r^(-1/b) over r in [0, eps]
    return d.a * (specfun.inc_beta(eps, 1.0 - 1.0 / d.b, 1.0 + 1.0 / d.b) / eps)


def _gev_tail(d: GEV, alpha: float, eps: float) -> tuple[float, float]:
    """((sq - mu) / s, (sq - m) / (s G)) of GEV(mu, s, xi < 1) at the pair (alpha, eps), m the
    mean, G = Gamma(1 - xi), which QualifiedFamily.zeta shares with the stdev. With y = -ln alpha,
    q = (y^-xi - 1) / xi, g = (G - 1) / xi: below xi = -1 the paper's incomplete gammas, P read
    as 1 - Q where it nears eps; for y <= 2, I / eps and (I / eps - g) / G, I = int_0^y q e^-t dt
    = sum (-1)^n y^(n+1) (q + 1/(n+1)) / (n! (n+1-xi)); beyond, g + f and f / G, f = alpha (g - L)
    / eps, L = q - e^y Gamma(-xi, y) the lower-tail average from the continued fraction."""
    xi, y = d.xi, _neg_log(alpha, eps)
    if xi < -1.0:
        lower, upper = specfun._reg_gamma(1.0 - xi, y)
        return ((eps - specfun.lower_inc_gamma(1.0 - xi, y)) / (-xi * eps),
                (eps - lower if y < 2.0 - xi else upper - alpha) / (-xi * eps))
    q = -_expm1_ratio(-xi, math.log(y))
    g = _expm1_ratio(xi, d._lg1)
    if y <= 2.0:   # I >= y / 8, so terms below 1e-18 y are negligible
        total, term, k, cut = 0.0, y, 1.0, 1e-18 * y   # term = (-1)^n y^(n+1) / n!, k = n + 1
        while term > cut or -term > cut:
            total += term * (q + 1.0 / k) / (k - xi)
            term *= -y / k
            k += 1.0
        sq = total / eps
        excess = sq - g
    else:
        excess = alpha * (g - q + (1.0 + xi * q) * specfun._gamma_q_cf(-xi, y)) / eps
        sq = g + excess
    return sq, excess * math.exp(-xi * d._lg1)


def _sq_gev(d: GEV, alpha: float, eps: float) -> float:
    return d.mu + d.s * _gev_tail(d, alpha, eps)[0]


_SQ_FORMULAS = {
    Exponential: _sq_gpd,
    Pareto: _sq_gpd,
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


def superquantile(d: Distribution, alpha: float,
                  _eps: float | None = None) -> float | tuple[float, float]:
    """Closed-form superquantile (CVaR) at probability level alpha in [0, 1).

    Returns inf when the mean diverges; superquantile(d, 0) is the mean, which
    is -inf where it lies below the floats (GEV with xi < -170.6).

    The root engines pass the tail mass ``_eps`` = 1 - alpha too, unchecked,
    and get the pair (sq, q) of the superquantile and the quantile at alpha,
    the slope of sq in log(eps) being q - sq: the Normal reads q off the
    quantile its formula holds, the other families add ``_quantile``, which
    returns +-inf itself where the quantile leaves binary64.
    At alpha = 0 the pair is (mean, lower end of the support), so no quantile
    is evaluated at level 0.
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
        return math.inf, d._quantile(alpha, _eps)
    if isinstance(d, Normal):
        return _sq_normal(d, alpha, _eps, True)
    return _SQ_FORMULAS[type(d)](d, alpha, _eps), d._quantile(alpha, _eps)


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
    if x == m:   # the infimum, over g -> -inf, of E[X - g]+ / (x - g)
        return TailResult(1.0, 0.0, d.support().lower)
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
    if isinstance(d, GPD):
        h = d.s + d.xi * (x - d.mu)   # s (1 + xi z)
        if h <= 0.0:
            return _clamped_zero(d)
        # ((1 + xi z)(1 - xi))^(-1/xi), e^(1 - z) at xi = 0
        value = d._tail_power(x, h, d._g1, math.log(d._g1) / d.xi if d.xi > 0.5
                              else _log1p_ratio(d.xi, -1.0))
    else:
        z = (x - d.mu) / d.b
        if z >= 1.0:
            value = 0.5 * math.exp(1.0 - z)
        elif z <= 0.0:
            # x == mean; the Lambert argument would be 0 (removable case)
            value = 1.0
        else:
            w = specfun.lambert_w(-2.0 * z * math.exp(-z - 1.0))
            value = 1.0 + z / w
    return _result_from_value(d, value)


def cantelli_level(x: float, mean: float, variance: float, survival: float = 0.0) -> float:
    """Start for ``level_root``: e S, S = ``survival`` the tail mass beyond x (e S is the
    exact bPOE of the exponential law), where it is positive and below the Cantelli tail
    mass 1 / (1 + t^2), t = (x - mean) / sd, or 0.5 if sd is inf or 0 (underflowed); else
    that Cantelli mass. Since sq(1 - eps) <= mean + sd sqrt((1 - eps) / eps) for every
    finite-variance law, the Cantelli mass lies at or above the root of sq = x, on the
    tail-grid benchmark's root-engine thresholds up to 5e11 times above; e S lies within
    0.52-1.18 times the root there.
    """
    t = (x - mean) / math.sqrt(variance) if 0.0 < variance < math.inf else 1.0
    cantelli = 1.0 / (1.0 + t * t)
    start = math.e * survival
    return start if 0.0 < start < cantelli else cantelli


def level_root(f: Callable[[float, float], tuple[float, float]], x: float, lo: float,
               start: float) -> tuple[float, float, float, float]:
    """The point (alpha, eps, sq, q), eps in [lo, 1], where the superquantile sq
    equals x; f(alpha, eps), with alpha + eps = 1, returns the pair (sq, q) of the
    superquantile and its quantile, evaluated once per step.

    Safeguarded Newton on log(sq - sq(0)), sq(0) the mean at the top pair
    (0, 1), whose slope in t = log(-u), u = log(eps), is
    (q - sq) u / (sq - sq(0)). Near the top (alpha < eps, or while the bracket
    reaches u = 0) sq - sq(0) grows like a power of alpha and the step is
    taken in t; elsewhere the tail is nearer a power of eps and the step is
    taken in u. A step leaving the bracket, a start outside (lo, 1), sq
    rounding to sq(0), or a step onto the bracket's other end, evaluated
    already (sq's rounding drives such a step), becomes bisection in u. f is
    evaluated at lo only when the iteration reaches it: a step below the
    bracket while its lower end is still the unevaluated lo, or the bracket
    collapsing onto lo. Returns the point at lo or at the top when x lies
    outside [sq(0), sq(lo)]. Stops when the next step or the bracket falls to
    1e-13 min(|u|, 1) in u, or the bracket to adjacent floats (1.1e-13 apart
    from |u| = 512), and returns the last evaluated point, which is within
    that step of the root: relative precision 1e-13 in eps, and in alpha too
    where alpha is small.
    """
    s_top, q = f(0.0, 1.0)
    if x <= s_top:
        return 0.0, 1.0, s_top, q
    bottom = math.log(lo)
    u_lo, u_hi = bottom, 0.0   # sq <= x at u_hi; sq > x at u_lo once evaluated there
    above = False   # whether some evaluated point, the one at u_lo, has sq > x
    u = math.log(start) if lo < start < 1.0 else 0.5 * bottom
    for _ in range(100):
        alpha, eps = -math.expm1(u), math.exp(u) if u > bottom else lo
        s, q = f(alpha, eps)
        if s > x:
            u_lo, above = u, True
        else:
            u_hi = u
        slope = (q - s) * u / (s - s_top) if s > s_top else 0.0
        k = math.log((s - s_top) / (x - s_top)) / slope if 0.0 < slope < math.inf else math.nan
        if u_hi == 0.0 or alpha < eps:
            new = u * math.exp(-k) if k > -700.0 else math.nan
        else:
            new = u * (1.0 - k)
        if not u_lo <= new <= u_hi:
            new = u_lo if new < u_lo and not above else 0.5 * (u_lo + u_hi)
        new = min(new, -_LEAST_FLOAT)
        tol = 1e-13 * min(1.0, abs(new))
        if not above and u_lo < u_hi <= u_lo + 2.0 * tol:
            # collapsed onto lo, not yet evaluated (2 tol: near u = -708 floats lie 1.1 tol apart)
            new = u_lo
        elif abs(new - u) <= tol or u_hi - u_lo <= tol:
            break
        elif new == u_hi or above and new == u_lo:
            # onto the bracket's other end, evaluated already: sq's rounding drives
            # the step, and only bisection moves on, until the ends are adjacent floats
            new = 0.5 * (u_lo + u_hi)
            if new == u_lo or new == u_hi:
                break
        u = new
    return alpha, eps, s, q


def bpoe_by_root(d: Distribution, x: float) -> TailResult:
    """bPOE as the tail mass eps in [smallest normal float, 1] that solves
    superquantile(d, 1 - eps, eps) = x with ``level_root``, to about
    1e-13 relative, started at e (1 - F(x)) or the Cantelli tail mass
    (``cantelli_level``). Each step evaluates the pair (sq, q) once, and
    the residual and ``quantile_star`` are read from the engine's last pair, so
    no family's ``quantile`` is called. Beyond sq at the smallest normal eps,
    which the engine evaluates only if its steps reach it, the bPOE underflows
    and reads 0.0. A residual above 1e-6 max(1, |x|) raises ``ConvergenceError``.
    """
    edge = _bpoe_edges(d, x)
    if edge is not None:
        return edge
    alpha, eps, sq, q = level_root(lambda a, e: superquantile(d, a, e), x, sys.float_info.min,
                                   cantelli_level(x, d.mean(), d.variance(), 1.0 - d.cdf(x)))
    residual = sq - x
    if eps == sys.float_info.min and residual < 0.0:
        return _result_from_value(d, 0.0)
    if abs(residual) > 1e-6 * max(1.0, abs(x)):
        raise ConvergenceError("bPOE root engine stalled",
                               {"alpha": alpha, "eps": eps, "residual": residual, "threshold": x})
    return TailResult(eps, alpha, q)


def _normal_ln_tail(g: float) -> tuple[float, float, float]:
    """(ln h, ln S, F) of the standard normal at g, h = phi / S its hazard, from erfc."""
    lower = 0.5 * math.erfc(-g / _SQRT2)
    ln_survival = math.log1p(-lower) if g < 0.0 else math.log(0.5 * math.erfc(g / _SQRT2))
    return -0.5 * g * g - _LN_SQRT_2PI - ln_survival, ln_survival, lower


def _std_normal_tail(d: Distribution, g: float) -> tuple[float, ...]:
    """The standard normal's tail at g, s = E[Z | Z > g] being its hazard (see _STD_TAILS);
    from g = 4 the mean excess is Laplace's continued fraction 1/(g + 2/(g + ...))."""
    if g < 4.0:
        ln_s, ln_survival, lower = _normal_ln_tail(g)
        excess = math.exp(ln_s) - g
        return g, ln_s, excess, excess, ln_survival, lower
    cf = g
    for k in range(10 + int(500.0 / (g * g)), 1, -1):
        cf = g + k / cf
    s = g + 1.0 / cf
    return (g, math.log(s), 1.0 / cf, 1.0 / cf, -0.5 * g * g - math.log(_SQRT_2PI * s),
            0.5 * math.erfc(-g / _SQRT2))


def _std_logistic_tail(d: Distribution, g: float) -> tuple[float, ...]:
    """The standard logistic's, with E[Z - g]+ = ln(1 + e^-g), S = 1/(1 + e^g) and the
    hazard F(g); s is g + excess above g = 0 and t ((1 + t) log1p(t)/t - g), t = e^g,
    below, so neither cancels."""
    t = math.exp(-abs(g))
    ratio = math.log1p(t) / t if t else 1.0
    if g > 0.0:
        excess = (1.0 + t) * ratio
        s = g + excess
        return g, math.log(s), excess / ((1.0 + t) * s), excess, -g - math.log1p(t), 1.0 / (1.0 + t)
    v = (1.0 + t) * ratio - g   # s / t
    excess = (1.0 + t) * (math.log1p(t) - g)
    return g, g + math.log(v), (math.log1p(t) - g) / v, excess, -math.log1p(t), t / (1.0 + t)


def _std_student_tail(d: StudentT, g: float) -> tuple[float, ...]:
    """The standardized Student-t's: s = (nu + g^2) f / ((nu - 1) S) with
    (nu + g^2) f in logs, as ``_sq_student`` forms it, and both tails from one
    incomplete beta. Where S is below the smallest normal float, ln S is its
    asymptote ln c - (nu ln(1 + g^2/nu) + ln nu) / 2 where that is exact to
    rounding, as in ``_std_tails``, and -inf, an underflow, elsewhere (huge nu)."""
    nu, ln_c, ln_1p = d.nu, d._ln_c, _student_ln_1p(d.nu, g)
    lower, upper = d._std_tails(g)
    if upper >= sys.float_info.min:
        ln_survival = math.log(upper)
    else:
        ln_survival = ln_c - 0.5 * (nu * ln_1p + math.log(nu)) if ln_1p > 40.0 else -math.inf
    ln_s = math.log(nu / (nu - 1.0)) + ln_c - 0.5 * (nu - 1.0) * ln_1p - ln_survival
    hazard = math.exp(ln_c - 0.5 * (nu + 1.0) * ln_1p - ln_survival)
    # d ln s / dg = hazard (s - g) / s, and hazard / s = (nu - 1) / (nu + g^2)
    slope = hazard - (nu - 1.0) / (g + nu / g) if g else hazard
    return g, ln_s, slope, _exp_or_inf(ln_s) - g, ln_survival, lower


def _lognormal_tail(d: LogNormal, g: float) -> tuple[float, ...]:
    """LogNormal's at the standard normal quantile g, q = exp(mu + s g), with m the mean:
    s - m = m (F(g) - F(g - s)) / S(g), F and S the standard normal tails, the
    difference taken between upper tails from g = s/2 so that it does not cancel;
    deep in the tail s - q cancels, and s / q = h(g) / h(g - s), h the normal hazard,
    gives it. Up to g = 8 erfc's hazard keeps that difference within 4e-14; beyond,
    the continued fraction's does. Where S times any binary64 value underflows only
    ln S and F are formed, and the mean excess reads 0."""
    if g < 8.0:
        ln_h, ln_survival, lower = _normal_ln_tail(g)
        ln_h_shift, ln_survival_shift, lower_shift = _normal_ln_tail(g - d.s)
    else:
        _, ln_h, _, _, ln_survival, lower = _std_normal_tail(d, g)
        _, ln_h_shift, _, _, ln_survival_shift, lower_shift = _std_normal_tail(d, g - d.s)
    if ln_survival < _LN_NEGLIGIBLE:
        return math.nan, math.nan, math.nan, 0.0, ln_survival, lower
    h, h_shift = math.exp(ln_h), math.exp(ln_h_shift)
    if 2.0 * g > d.s:
        ln_band = ln_survival_shift + math.log1p(-math.exp(ln_survival - ln_survival_shift))
    else:   # -inf where both lower tails underflow, far below any root
        ln_band = math.log(lower - lower_shift) if lower > lower_shift else -math.inf
    ln_s = d.mu + 0.5 * d.s * d.s + ln_band - ln_survival
    q = _exp_or_inf(d.mu + d.s * g)
    excess = q * ((h - h_shift) / h_shift) if g > 0.0 else d.mean() - q + math.exp(ln_s)
    return q, ln_s, math.exp(ln_h - ln_s) * excess, excess, ln_survival, lower


def _location_scale(d: Distribution, x: float) -> tuple[float, float, float]:
    scale = d.sigma if isinstance(d, Normal) else d.s
    return d.mu, scale, (x - d.mu) / scale


# family -> (reduce, tail). reduce(d, x) gives (loc, scale, g): the tail's units are
# (X - loc) / scale and g is the standardized quantile at x. tail(d, g) gives
# (q, ln(s - m), its slope in g, e, ln S, F) in those units: the quantile q at g, the
# conditional tail mean s = E[X | X > q] less the mean m, formed as a product so that
# it does not cancel near the mean, the mean excess e = s - q without its
# cancellation deep in the tail, the survival S formed as an upper tail and the
# lower tail F formed directly.
_STD_TAILS = {Normal: (_location_scale, _std_normal_tail),
              Logistic: (_location_scale, _std_logistic_tail),
              StudentT: (_location_scale, _std_student_tail),
              LogNormal: (lambda d, x: (0.0, 1.0, (math.log(x) - d.mu) / d.s), _lognormal_tail)}


def bpoe_by_minimization(d: Distribution, x: float) -> TailResult:
    """bPOE as the minimum over g < x of E[X - g]+ / (x - g), for Normal, Logistic,
    Student-t and LogNormal.

    The argmin, the quantile at level 1 - bPOE, is where the conditional tail mean
    s = E[X | X > q] meets x. Newton solves ln(s - m) = ln(x - m), m the mean, in the
    standardized quantile g from the g whose quantile is x (s > x there), bisecting
    steps that leave the bracket; one tail evaluation, no quantile, per step.
    ``value`` is the objective S e / (x - q) at the argmin, flat to first order in g
    and precise into the subnormals, ``alpha_star`` the lower tail F there and
    ``quantile_star`` q; where the value underflows it is 0.0 with the top of the
    support, and where x rounds to the mean in standardized units it is 1.0 with
    the bottom, as at x == mean.
    ``DomainError`` for a non-finite x or x <= mean, ``ConvergenceError`` if 100
    steps do not settle.
    """
    if not isinstance(d, MINIMIZATION_BPOE_FAMILIES):
        raise DomainError(f"no minimization bPOE engine for family {d.family!r}")
    if not math.isfinite(x):
        raise DomainError(f"bPOE threshold must be finite, got {x}")
    if x <= d.mean():
        raise DomainError(f"minimization engine requires x > mean, got x={x}, mean={d.mean()}")
    reduce, tail = _STD_TAILS[type(d)]
    loc, scale, g = reduce(d, x)
    zx = (x - loc) / scale
    gap = zx - (d.mean() - loc) / scale
    if gap <= 0.0:
        return TailResult(1.0, 0.0, d.support().lower)
    ln_zx = math.log(gap)
    lo, hi, tolerance = -math.inf, g, 4e-16 * max(1.0, abs(ln_zx))
    for _ in range(100):
        q, ln_s, slope, excess, ln_survival, lower = tail(d, g)
        if ln_survival < _LN_NEGLIGIBLE:   # so does S at the argmin, a modest multiple of S(g)
            return TailResult(0.0, 1.0, d.support().upper)
        residual = ln_s - ln_zx
        lo, hi = (lo, g) if residual > 0.0 else (g, hi)
        new = g - residual / slope if slope > 0.0 else math.nan
        if new < g < -1.0 and isinstance(d, StudentT):   # ln s falls like a power of -g:
            new = g * math.exp(-residual / (g * slope))   # the step in ln(-g)
        if not lo < new < hi:
            new = 0.5 * (lo + hi) if lo > -math.inf else hi - 1.0 - abs(hi)
        if abs(new - g) <= 1e-14 * max(1.0, abs(g)) or abs(residual) <= tolerance:
            # the objective S e / (zx - q); q = zx, or e <= 0, only where e is below the
            # rounding of zx
            ratio = excess / (zx - q) if q < zx else 1.0
            value = math.exp(ln_survival + math.log(ratio if ratio > 0.0 else 1.0))
            if value == 0.0:
                return TailResult(0.0, 1.0, d.support().upper)
            return TailResult(min(1.0, value), lower, loc + scale * q)
        g = new
    raise ConvergenceError("bPOE minimization engine did not converge",
                           {"threshold": x, "g": g, "residual": residual})


def bpoe(d: Distribution, x: float) -> TailResult:
    """bPOE at threshold x: the closed form for Exponential, Pareto, GPD and
    Laplace; ``bpoe_by_minimization`` for Logistic, Student-t and LogNormal, one
    survival function per Newton step where the root engine pays a quantile;
    ``bpoe_by_root`` for Weibull, LogLogistic and GEV, and for the Normal, whose
    minimization engine is just as exact: the benchmark's tracer self-test
    expects the Normal bPOE to evaluate superquantiles, so it moves with that
    test. Thresholds at or below the mean, or at or above the top of the
    support, read 1 or 0 as in every engine.
    """
    if isinstance(d, CLOSED_BPOE_FAMILIES):
        return bpoe_closed(d, x)
    if not isinstance(d, _MINIMIZED_BPOE_FAMILIES):
        return bpoe_by_root(d, x)
    edge = _bpoe_edges(d, x)
    return bpoe_by_minimization(d, x) if edge is None else edge


def partial_expectation(d: Distribution, gamma: float) -> float:
    """E[X - gamma]+: for Normal, Logistic, Student-t and LogNormal scale S e, the
    survival S and mean excess e of the bPOE minimization engine's tail, formed as
    exp(ln S + ln scale + ln e) so that a subnormal S keeps its digits; elsewhere
    (superquantile(F(gamma)) - gamma) (1 - F(gamma)),
    which raises ``DomainError`` where 1 - F(gamma), at 1e-14 absolute error in F,
    keeps less than 1e-8 relative.
    """
    m = d.mean()
    if m == math.inf:
        return math.inf
    if isinstance(d, MINIMIZATION_BPOE_FAMILIES):
        if gamma <= d.support().lower:
            return m - gamma
        reduce, tail = _STD_TAILS[type(d)]
        _, scale, g = reduce(d, gamma)
        _, _, _, excess, ln_survival, _ = tail(d, g)
        if ln_survival == -math.inf:
            raise DomainError(f"partial expectation of {d.family} at gamma={gamma}: "
                              "the survival underflows")
        return _exp_or_inf(ln_survival + math.log(scale) + math.log(excess)) if excess else 0.0
    upper = d.support().upper
    if math.isfinite(upper) and gamma >= upper:
        return 0.0
    prob = d.cdf(gamma)
    if 1e-14 > 1e-8 * (1.0 - prob):
        raise DomainError(f"partial expectation of {d.family} at gamma={gamma}: "
                          "1 - F(gamma) keeps less than 1e-8 relative precision")
    return (superquantile(d, prob) - gamma) * (1.0 - prob)


def superdistribution_cdf(d: Distribution, x: float) -> float:
    """CDF whose inverse is the superquantile: 1 - bPOE, clamped to [0, 1]."""
    return min(1.0, max(0.0, 1.0 - bpoe(d, x).value))
