"""Superquantile (CVaR) and buffered probability of exceedance (bPOE).

The superquantile has a closed form for every supported family, written in its class as
``_sq`` (see ``distributions``); this module checks the arguments and runs the engines over
those formulas. bPOE has a closed form for the exponential-tailed families (Exponential,
Pareto, GPD, Laplace). For Normal, Logistic, Student-t and LogNormal it is the minimum of
E[X - g]+ / (x - g), found by Newton on the family's ``_excess_tail``, one survival
function per step; ``bpoe`` runs that engine for Logistic, Student-t and
LogNormal, and the same tails give their partial expectation. Everywhere else
bPOE is recovered from the superquantile by root finding in the tail mass
eps = 1 - alpha, which bPOE is: ``level_root`` is the one solver of sq = x,
shared with the oracle and the portfolio layer's GEV zeta inversion.

Conventions, applied uniformly:
  * superquantile(d, 0) is the mean; infinite-mean parameterizations give
    superquantile = inf and bPOE = 1 for every finite threshold.
  * every bPOE engine starts from one rule, ``_bpoe_edges``: 1 at the mean, clamped to
    1 below it and to 0 at or above the essential supremum, so each engine is total on
    real thresholds; NaN and +-inf raise ``DomainError``, in ``partial_expectation`` too.
  * a distribution argument that is not a ``Distribution`` raises ``ParameterError``.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from . import specfun
from .distributions import (_LN_NEGLIGIBLE, GPD, Distribution, Exponential, Laplace, LogNormal,
                            Logistic, Normal, Pareto, StudentT, _exp_or_inf, _log1p_ratio,
                            _Symmetric)
from .errors import _BELOW_ONE, _LEAST, _MAX, ConvergenceError, DomainError, _require, _typed

#: families whose bPOE evaluates in closed form
CLOSED_BPOE_FAMILIES = (Exponential, Pareto, GPD, Laplace)
#: families with a convex-minimization bPOE engine
MINIMIZATION_BPOE_FAMILIES = (Normal, Logistic, StudentT, LogNormal)
#: families whose ``bpoe`` runs that engine (see ``bpoe`` for the Normal)
_MINIMIZED_BPOE_FAMILIES = (Logistic, StudentT, LogNormal)
_SQ_LEVEL = "superquantile level must lie in [0, 1), got {}"   # for every such level


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

def superquantile(d: Distribution, alpha: float,
                  _eps: float | None = None) -> float | tuple[float, float]:
    """Closed-form superquantile (CVaR) at probability level alpha in [0, 1).

    Returns inf when the mean diverges; superquantile(d, 0) is the mean, which
    is -inf where it lies below the floats (GEV with xi < -170.6).

    The root engines pass the tail mass ``_eps`` = 1 - alpha too, unchecked,
    and get the pair (sq, q) of the superquantile and the quantile at alpha,
    the slope of sq in log(eps) being q - sq: the family's ``_sq_pair``, ``_sq`` and
    ``_quantile`` (which returns +-inf itself where the quantile leaves binary64),
    the Normal's from the one ``erfc_inv`` its superquantile holds.
    At alpha = 0 the pair is (mean, lower end of the support), so no quantile
    is evaluated at level 0.
    """
    if _eps is None:
        try:   # errors._require, written out: a call would cost 15-25% of a closed form
            if not 0.0 <= alpha <= _BELOW_ONE or getattr(alpha, "ndim", 0):
                raise ValueError
            alpha = float(alpha)
        except (TypeError, ValueError):   # out of range, or not a number (text, an array)
            raise DomainError(_SQ_LEVEL.format(f"{alpha!r:.40}")) from None
        try:
            m = d.mean()
            return m if alpha == 0.0 or m == math.inf else d._sq(alpha, 1.0 - alpha)
        except AttributeError:   # the type test, run only here, would cost 3% of a closed form
            _typed(d, Distribution)
            raise
    if alpha == 0.0:
        return d.mean(), d.support().lower
    if d.mean() == math.inf:
        return math.inf, d._quantile(alpha, _eps)
    return d._sq_pair(alpha, _eps)


def left_superquantile(d: Distribution, alpha: float) -> float:
    """Average of the lower alpha-fraction of outcomes, alpha in (0, 1].

    For the symmetric families it is 2 mu - sq at the pair (1 - alpha, alpha),
    which keeps its precision as alpha -> 0. Elsewhere it is
    (mean - (1 - alpha) sq(alpha)) / alpha, which cancels as alpha -> 0: where
    1e-14 relative error in each term leaves less than 1e-8 relative in the
    result, it raises ``DomainError`` instead of returning a wrong value.
    """
    alpha = _require(alpha, "left superquantile level must lie in (0, 1], got {}", _LEAST, 1.0,
                     DomainError)
    m = _typed(d, Distribution).mean()
    if not math.isfinite(m):
        raise DomainError("left superquantile requires a finite mean")
    if alpha == 1.0:
        return m
    if isinstance(d, _Symmetric):
        return 2.0 * d.mu - d._sq(1.0 - alpha, alpha)
    upper = (1.0 - alpha) * superquantile(d, alpha)
    if 1e-14 * (abs(m) + abs(upper)) > 1e-8 * abs(m - upper):
        raise DomainError(f"left superquantile of {d.family} at alpha={alpha} cancels "
                          "below 1e-8 relative precision")
    return (m - upper) / alpha


# --- bPOE engines -----------------------------------------------------------

def _end(d: Distribution, value: float, clamped: bool = False) -> TailResult:
    """bPOE 1 at the bottom of the support or 0 at the top, with that end."""
    return TailResult(value, 1.0 - value, d.support()[value == 0.0], clamped)


def _result_from_value(d: Distribution, value: float) -> TailResult:
    if 0.0 < value < 1.0:
        return TailResult(value, 1.0 - value, d._quantile(1.0 - value, value))
    return _end(d, 1.0 if value >= 1.0 else 0.0)   # at the mean, or underflowed


def _bpoe_edges(d: Distribution, x: float) -> TailResult | None:
    """Every engine's threshold rule: ``DomainError`` for a non-finite x, 1 at the mean,
    clamped below it (every x if it diverges) and 0 clamped from the top of the support."""
    try:   # errors._require's rule, written out, as in superquantile
        if getattr(x, "ndim", 0) or not math.isfinite(x):   # no float() of a size-1 array
            raise ValueError
    except (TypeError, ValueError):   # NaN or +-inf, or not a number (text, an array)
        raise DomainError(f"bPOE threshold must be finite, got {x!r:.40}") from None
    try:
        m = d.mean()
        if x < m:
            return _end(d, 1.0, True)
        if x == m:   # the infimum, over g -> -inf, of E[X - g]+ / (x - g)
            return _end(d, 1.0)
        return _end(d, 0.0, True) if x >= d.support().upper else None
    except AttributeError:   # the type test runs only here, as in superquantile
        _typed(d, Distribution)
        raise


def bpoe_closed(d: Distribution, x: float) -> TailResult:
    """Closed-form bPOE; defined for Exponential, Pareto, GPD and Laplace."""
    if not isinstance(d, CLOSED_BPOE_FAMILIES):
        raise DomainError(f"no closed-form bPOE for family {_typed(d, Distribution).family!r}")
    edge = _bpoe_edges(d, x)
    if edge is not None:
        return edge
    if isinstance(d, GPD):
        h = d.s + d.xi * (x - d.mu)   # s (1 + xi z)
        if h <= 0.0:
            return _end(d, 0.0, True)
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
    """Start for ``level_root``: e S, S = ``survival`` the tail mass beyond x, ``sf(x)`` (e S is
    the exact bPOE of the exponential law), where it is positive and below the Cantelli tail
    mass 1 / (1 + t^2), t = (x - mean) / sd, or 0.5 if sd is inf or 0 (underflowed); else
    that Cantelli mass. Since sq(1 - eps) <= mean + sd sqrt((1 - eps) / eps) for every
    finite-variance law, the Cantelli mass lies at or above the root of sq = x, on the
    tail-grid benchmark's root-engine thresholds up to 5e11 times above; e S lies within
    0.17-1.18 times the root there, 0.17 at Weibull(1, 0.01) at 1e200, where S is 3.7e-44.
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
        new = min(new, -_LEAST)
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
    1e-13 relative, started at e S(x), S the survival formed as an upper tail, or the
    Cantelli tail mass (``cantelli_level``). Each step evaluates the pair (sq, q) once, and
    the residual and ``quantile_star`` are read from the engine's last pair, so
    no family's ``quantile`` is called. Beyond sq at the smallest normal eps,
    which the engine evaluates only if its steps reach it, the bPOE underflows
    and reads 0.0. A residual above 1e-6 max(1, |x|) raises ``ConvergenceError``.
    """
    edge = _bpoe_edges(d, x)
    if edge is not None:
        return edge
    alpha, eps, sq, q = level_root(lambda a, e: superquantile(d, a, e), x, sys.float_info.min,
                                   cantelli_level(x, d.mean(), d.variance(), d._tails(x)[1]))
    residual = sq - x
    if eps == sys.float_info.min and residual < 0.0:
        return _result_from_value(d, 0.0)
    if abs(residual) > 1e-6 * max(1.0, abs(x)):
        raise ConvergenceError("bPOE root engine stalled",
                               {"alpha": alpha, "eps": eps, "residual": residual, "threshold": x})
    return TailResult(eps, alpha, q)


def bpoe_by_minimization(d: Distribution, x: float) -> TailResult:
    """bPOE as the minimum over g < x of E[X - g]+ / (x - g), for Normal, Logistic,
    Student-t and LogNormal.

    The argmin, the quantile at level 1 - bPOE, is where the conditional tail mean
    s = E[X | X > q] meets x. Newton solves ln(s - m) = ln(x - m), m the mean, in the
    standardized quantile g (the family's ``_reduce``) from the g whose quantile is x
    (s > x there), bisecting steps that leave the bracket; one ``_excess_tail``
    evaluation, no quantile, per step.
    ``value`` is the objective S e / (x - q) at the argmin, flat to first order in g
    and precise into the subnormals, ``alpha_star`` the lower tail F there and
    ``quantile_star`` q; where the value underflows it is 0.0 with the top of the
    support, and where x rounds to the mean in standardized units it is 1.0 with
    the bottom, as at x == mean.
    Thresholds outside (mean, sup) read ``_bpoe_edges``, as in every engine, 1 below
    the mean among them; ``ConvergenceError`` if 100 steps do not settle.
    """
    if not isinstance(d, MINIMIZATION_BPOE_FAMILIES):
        raise DomainError(
            f"no minimization bPOE engine for family {_typed(d, Distribution).family!r}")
    edge = _bpoe_edges(d, x)
    if edge is not None:
        return edge
    loc, scale, g = d._reduce(x)
    zx = (x - loc) / scale
    gap = zx - (d.mean() - loc) / scale
    if gap <= 0.0:
        return _end(d, 1.0)
    ln_zx = math.log(gap)
    lo, hi, tolerance = -math.inf, g, 4e-16 * max(1.0, abs(ln_zx))
    tail = d._excess_tail
    for _ in range(100):
        q, ln_s, slope, excess, ln_survival, lower = tail(g)
        if ln_survival < _LN_NEGLIGIBLE:   # so does S at the argmin, a modest multiple of S(g)
            return _end(d, 0.0)
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
                return _end(d, 0.0)
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
    test. Each engine applies ``_bpoe_edges`` itself, so ``bpoe`` only picks one.
    """
    if isinstance(d, CLOSED_BPOE_FAMILIES):
        return bpoe_closed(d, x)
    if isinstance(d, _MINIMIZED_BPOE_FAMILIES):
        return bpoe_by_minimization(d, x)
    return bpoe_by_root(d, x)


def partial_expectation(d: Distribution, gamma: float) -> float:
    """E[X - gamma]+ at a finite gamma (``DomainError`` else): mean - gamma from the bottom
    of the support down, 0 from its top up; between, from each family's closed tail where it
    has one: S(gamma) h / (1 - xi), h = s + xi (gamma - mu), for the GPD members, in
    ``GPD._tail_power`` so that a subnormal value keeps its digits; b e^-z / 2 for Laplace at
    z = (gamma - mu) / b >= 0, and mu - gamma + b e^z / 2 below; for Normal, Logistic,
    Student-t and LogNormal scale S e, the survival S and mean excess e of the bPOE
    minimization engine's tail, formed as exp(ln S + ln scale + ln e); elsewhere
    (sq - gamma) S at the tails (F, S) of gamma, sq the superquantile at that pair and 0.0
    where S underflows, which raises ``DomainError`` where sq - gamma, at 1e-14 relative
    error in each term, keeps less than 1e-8 relative, as ``left_superquantile`` does.
    """
    gamma = _require(gamma, "partial expectation threshold must be finite, got {}", -_MAX, _MAX,
                     DomainError)
    m = _typed(d, Distribution).mean()
    if m == math.inf:
        return math.inf
    lower, upper = d.support()
    if gamma <= lower:
        return m - gamma
    if gamma >= upper:
        return 0.0
    if isinstance(d, GPD):
        h = d.s + d.xi * (gamma - d.mu)   # s (1 + xi z); <= 0 only by rounding at the top
        return d._tail_power(gamma, h, d=d._g1 / h) if h > 0.0 else 0.0
    if isinstance(d, Laplace):   # b e^-z / 2 in logs where e^-z leaves the normal floats
        z = (gamma - d.mu) / d.b
        if z < 0.0:
            return (d.mu - gamma) + 0.5 * d.b * math.exp(z)
        return 0.5 * d.b * math.exp(-z) if z < 708.0 else math.exp(math.log(0.5 * d.b) - z)
    if isinstance(d, MINIMIZATION_BPOE_FAMILIES):
        _, scale, g = d._reduce(gamma)
        _, _, _, excess, ln_survival, _ = d._excess_tail(g)
        if ln_survival == -math.inf:
            raise DomainError(f"partial expectation of {d.family} at gamma={gamma}: "
                              "the survival underflows")
        return _exp_or_inf(ln_survival + math.log(scale) + math.log(excess)) if excess else 0.0
    prob, survival = d._tails(gamma)
    if survival == 0.0:
        return 0.0
    sq = d._sq(prob, survival) if prob else m
    if 1e-14 * (abs(sq) + abs(gamma)) > 1e-8 * (sq - gamma):
        raise DomainError(f"partial expectation of {d.family} at gamma={gamma}: "
                          "sq - gamma keeps less than 1e-8 relative precision")
    return (sq - gamma) * survival


def superdistribution_cdf(d: Distribution, x: float) -> float:
    """CDF whose inverse is the superquantile: 1 - bPOE, clamped to [0, 1]."""
    return min(1.0, max(0.0, 1.0 - bpoe(d, x).value))
