"""Validated parameter containers and elementary evaluators for the eleven
supported distribution families. Exponential(lam) = GPD(0, 1/lam, 0) and
Pareto(a, xm) = GPD(xm, xm/a, 1/a) subclass GPD and run its evaluators.

Each family is an immutable value whose ``__init__`` validates its parameters,
with ``pdf``, ``cdf``, ``sf``, ``quantile``, ``tail_quantile`` (the upper quantile as a
stable function of the tail probability), ``mean``, ``variance``, ``support``
and ``sample`` (numpy's normal and Student-t generators for Normal, LogNormal
and Student-t, the inverse transform for the rest). Moments that diverge or
leave binary64 are reported as ``math.inf``, never as errors. ``make`` builds a family
from its name and parameters, as the CLI does; ``from_json``/``to_json`` read and write
the form ``{"family": ..., "params": {...}}``.

Each family writes its quantile once, as the private ``_quantile(alpha, eps)``
with alpha + eps = 1: ``quantile(alpha)`` passes (alpha, 1 - alpha) and
``tail_quantile(eps)`` passes (1 - eps, eps). The smaller one keeps full
precision, and each formula reads its precision from it. So ``quantile(a)`` equals
``tail_quantile(1 - a)`` bit for bit on [0.5, 1). Each formula returns a
quantile beyond binary64 itself, as +inf, or -inf below the median of a law
unbounded below; none raises ``OverflowError``. The CDF side is written once too:
``_tails(x)`` returns (F, S), S = P(X > x), the smaller one formed directly; ``cdf`` and
``sf`` read it, as ``pdf`` reads ``_pdf(x)``, after one check of x: a non-number raises
``DomainError``, NaN is NaN unevaluated, and +-inf passes. ``_Symmetric`` is the one place
where the symmetric laws (Normal, Laplace, Logistic, Student-t) mirror their lower half, for
both: it reads ``_std_lower_quantile(p)`` at p = min(alpha, eps) and the smaller tail
``_tail_beyond(h)`` at h = |x - mu|. Student-t forms its own centre, 1/2 +- half, in ``_tails``.

Each family writes its superquantile once, beside its quantile, as ``_sq(alpha, eps)`` at the
same pair; ``_sq_pair`` returns (sq, q), which the Normal forms from one ``erfc_inv``.
``tail_metrics`` reads both. Normal, Logistic, Student-t and LogNormal also own the tail of
the bPOE minimization engine. ``_reduce(x)`` gives (loc, scale, g): the tail's units are
(X - loc) / scale, and g is the standardized quantile at x. ``_excess_tail(g)`` gives
(q, ln(s - m), its slope in g, e, ln S, F) in those units: the quantile q at g; the
conditional tail mean s = E[X | X > q] less the mean m, formed as a product so that it does
not cancel near the mean; the mean excess e = s - q without its cancellation deep in the tail;
the survival S formed as an upper tail; and the lower tail F formed directly.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, ClassVar, NamedTuple

from . import specfun
from .errors import _BELOW_ONE, _LEAST, _MAX, DomainError, ParameterError, _real, _require

if TYPE_CHECKING:
    import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN_SQRT_2PI = math.log(_SQRT_2PI)

_TINY = sys.float_info.min   # smallest normal float
#: below this ln S, S times any binary64 value underflows
_LN_NEGLIGIBLE = math.log(5e-324) - math.log(sys.float_info.max)
# a GPD power b^(-1/xi) is taken as that power where b exceeds e^2: the power multiplies
# the rounding of b by 1/xi, the exponential by ln(b)/xi
_E2 = math.exp(2.0)


class SupportBound(NamedTuple):
    lower: float
    upper: float


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _scaled_power(scale: float, base: float, p: float) -> float:
    """scale * base ** p, in logs only where the power leaves the normal range."""
    try:
        power = base ** p
        if power >= _TINY or base == 0.0:
            return scale * power
    except OverflowError:
        pass
    return _exp_or_inf(math.log(scale) + p * math.log(base))


def _log1p_ratio(xi: float, z: float) -> float:
    """ln(1 + xi z) / xi, and its limit z at xi = 0."""
    return z if xi == 0.0 else math.log1p(xi * z) / xi


def _expm1_ratio(x: float, r: float, c: float = 1.0) -> float:
    """c expm1(x r) / x for c > 0, c r at x r = 0; in logs where e^(x r) leaves binary64."""
    u = x * r
    if u < -40.0:   # e^u is below the rounding of 1: the limit -c / x, exactly
        return -c / x
    if u < 709.0:
        return c * (r * (math.expm1(u) / u if u else 1.0))   # c last: c r may be subnormal
    return math.copysign(_exp_or_inf(math.log(c) + u - math.log(abs(x))), x)


def _ln_gamma_1m(x: float) -> float:
    """ln Gamma(1 - x) / x = gamma + x T(x) for x < 1, T = specfun.ln_gamma_1m_remainder."""
    return specfun.EULER_GAMMA + x * specfun.ln_gamma_1m_remainder(x)


def _ln_gamma_gap(x: float) -> float:
    """(ln Gamma(1 - 2x) - 2 ln Gamma(1 - x)) / x^2 = 4 T(2x) - 2 T(x) for x < 1/2."""
    return 4.0 * specfun.ln_gamma_1m_remainder(2.0 * x) - 2.0 * specfun.ln_gamma_1m_remainder(x)


def _gamma_variance(c: float, x: float, ln_g: float) -> float:
    """c^2 (Gamma(1 - 2x) - Gamma(1 - x)^2) / x^2 = (c G)^2 expm1(x^2 D) / x^2 for c > 0,
    x < 1/2, G = e^ln_g = Gamma(1 - x), D = _ln_gamma_gap(x): the GEV variance at (s, xi),
    the Weibull one at (lam / k, -1/k); in logs where G, x^2 or the product leaves binary64."""
    w = _expm1_ratio(x * x, _ln_gamma_gap(x)) if x * x < math.inf else math.inf
    if ln_g < 709.0:
        sd = c * math.exp(ln_g) * math.sqrt(w)
        return sd * sd
    return _exp_or_inf(2.0 * (math.log(c) + ln_g) + math.log(w))


def _neg_log(x: float, comp: float) -> float:
    """-ln x for x + comp = 1, read from the smaller (exact) one of the two."""
    return -math.log1p(-comp) if comp < 0.5 else -math.log(x)


def _std_normal_quantile(alpha: float, eps: float) -> float:
    """Standard normal quantile at alpha = 1 - eps, mirrored from the lower half."""
    t = -_SQRT2 * specfun.erfc_inv(2.0 * min(alpha, eps))
    return t if alpha <= eps else -t


def _std_normal_tails(w: float) -> tuple[float, float]:
    """(F, S) of the standard normal at sqrt(2) w: the smaller from erfc, the other 1 less it."""
    tail = 0.5 * math.erfc(abs(w))
    return (tail, 1.0 - tail) if w < 0.0 else (1.0 - tail, tail)


def _normal_ln_tail(g: float) -> tuple[float, float, float]:
    """(ln h, ln S, F) of the standard normal at g, h = phi / S its hazard, from erfc."""
    lower, upper = _std_normal_tails(g / _SQRT2)
    ln_survival = math.log1p(-lower) if g < 0.0 else math.log(upper)
    return -0.5 * g * g - _LN_SQRT_2PI - ln_survival, ln_survival, lower


def _normal_excess_tail(d: Distribution, g: float) -> tuple[float, ...]:
    """The standard normal's tail at g, s = E[Z | Z > g] being its hazard, ``Normal._excess_tail``;
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
            _std_normal_tails(g / _SQRT2)[0])


def _student_ln_1p(nu: float, t: float) -> float:
    """ln(1 + t^2/nu); past t^2 = nu it splits off ln(t^2/nu), which stays finite
    where t^2 does not."""
    if t * t > nu:
        return 2.0 * math.log(abs(t)) - math.log(nu) + math.log1p(nu / (t * t))
    return math.log1p(t * t / nu)


def _hill_ratio(u: float, r: float) -> float:
    """t / w for the Student-t quantile t with nu = 1/r at the Normal quantile w,
    u = w^2, to 1/nu^4 (Abramowitz & Stegun 26.7.5; Hill 1970)."""
    g2 = ((5.0 * u + 16.0) * u + 3.0) / 96.0
    g3 = (((3.0 * u + 19.0) * u + 17.0) * u - 15.0) / 384.0
    g4 = ((((79.0 * u + 776.0) * u + 1482.0) * u - 1920.0) * u - 945.0) / 92160.0
    return 1.0 + r * ((u + 1.0) / 4.0 + r * (g2 + r * (g3 + r * g4)))


# --- family classes --------------------------------------------------------

class Distribution:
    """Common surface for the parametric families. Equality, hashing and repr
    go by the parameters, which ``_fields`` names in ``__init__`` order."""

    family: ClassVar[str] = ""
    _fields: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a shared base (_Symmetric), or a subclass of a family that keeps its __init__: it
        # inherits the family's _fields and evaluators
        if "__init__" not in vars(cls):
            return
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        # bench/spans.py traces the evaluators a family holds in its own __dict__
        for name in ("quantile", "tail_quantile"):
            if name not in cls.__dict__:
                setattr(cls, name, getattr(Distribution, name))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in self.params().items())
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # elementary evaluators over each family's _pdf and _tails; see the module docstring
    def pdf(self, x: float) -> float:
        x = _real(x)
        return self._pdf(x) if x == x else x

    def cdf(self, x: float) -> float:
        x = _real(x)
        return self._tails(x)[0] if x == x else x

    def sf(self, x: float) -> float:
        """P(X > x), which keeps its digits where 1 - cdf(x) rounds to 0."""
        x = _real(x)
        return self._tails(x)[1] if x == x else x

    def quantile(self, alpha: float) -> float:
        """Quantile q_alpha at the level alpha in (0, 1)."""
        alpha = _require(alpha, "quantile level must lie in (0, 1), got {}", _LEAST, _BELOW_ONE,
                         DomainError)
        return self._quantile(alpha, 1.0 - alpha)

    def tail_quantile(self, eps: float) -> float:
        """Upper quantile q_(1-eps) as a stable function of the tail mass."""
        eps = _require(eps, "tail probability must lie in (0, 1), got {}", _LEAST, _BELOW_ONE,
                       DomainError)
        return self._quantile(1.0 - eps, eps)

    def _sq_pair(self, alpha: float, eps: float) -> tuple[float, float]:
        return self._sq(alpha, eps), self._quantile(alpha, eps)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample of size n from rng: n a whole number from 0 to ``sys.maxsize`` by
        ``_require``'s rule and rng a ``np.random.Generator``, else ``ParameterError``.

        Normal, LogNormal and Student-t draw from ``rng.standard_normal`` and
        ``rng.standard_t``, so their draws are not monotone in a uniform;
        the other families are inverse transforms of ``rng.random``.
        """
        message = f"sample size must be a whole number from 0 to {sys.maxsize}, got {{}}"
        if _require(n, message, 0.0, sys.maxsize) % 1.0:
            raise ParameterError(message.format(f"{n!r:.40}"))
        from . import _sampling
        return _sampling.draw(self, int(n), rng)

    def params(self) -> dict[str, float]:
        return {name: self.__dict__[name] for name in self._fields}

    def to_json(self) -> dict:
        return {"family": self.family, "params": self.params()}


class GPD(Distribution):
    """Generalized Pareto with location mu, scale s, shape xi. The moments, the
    superquantile and bPOE read 1 - xi and 1 - 2 xi as ``_g1`` and ``_g2``."""

    family = "gpd"

    def __init__(self, mu: float, s: float, xi: float):
        s = _require(s, "GPD requires finite scale s > 0, got {}")
        mu = _require(mu, "GPD requires finite mu, got {}", -_MAX)
        xi = _require(xi, "GPD requires finite xi, got {}", -_MAX)
        self.__dict__.update(mu=mu, s=s, xi=xi, _g1=1.0 - xi, _g2=1.0 - 2.0 * xi)

    def support(self):
        if self.xi < 0.0:
            return SupportBound(self.mu, self.mu - self.s / self.xi)
        return SupportBound(self.mu, math.inf)

    def _ln_survival(self, x: float) -> float:
        """-ln S = ln(1 + xi z) / xi above mu, z = (x - mu) / s (z at xi = 0); from
        ln(x - mu) - ln s where xi z overflows."""
        z = (x - self.mu) / self.s
        if self.xi * z != math.inf:   # NaN at xi = 0, z = inf, where the ratio is z
            return _log1p_ratio(self.xi, z)
        return (math.log(self.xi) + math.log(x - self.mu) - math.log(self.s)) / self.xi

    def _tail_power(self, x: float, h: float, c=1.0, ln_c=0.0, d=1.0) -> float:
        """(c h / s)^(-1/xi) / d = S(x) c^(-1/xi) / d at h = s (1 + xi z), ln_c = ln(c) / xi:
        the power where c h / s exceeds e^2, else from ln S; with d in logs below _TINY."""
        base = c * h / self.s
        tail = (base ** (-1.0 / self.xi) if _E2 < base < math.inf
                else math.exp(-self._ln_survival(x) - ln_c))
        if tail >= _TINY:
            return tail / d
        return _exp_or_inf(-self._ln_survival(x) - ln_c - math.log(d))

    def _pdf(self, x):
        h = self.s + self.xi * (x - self.mu)   # s (1 + xi z); NaN at xi = 0, x = inf
        return 0.0 if x < self.mu or h <= 0.0 or x == math.inf else self._tail_power(x, h, d=h)

    def _tails(self, x):
        h = self.s + self.xi * (x - self.mu)   # NaN at xi = 0, x = inf, where S is 0 in the limit
        if x <= self.mu or not h > 0.0:
            return (0.0, 1.0) if x <= self.mu else (1.0, 0.0)
        return -math.expm1(-self._ln_survival(x)), self._tail_power(x, h)

    def _excess(self, alpha: float, eps: float) -> float:
        """s (u - 1) / xi at u = eps^-xi = e^(xi y), the quantile less mu: expm1's below u = e or
        the median (in logs past e^709), else the power, as (s v) v / xi or in logs beyond."""
        xi, s, y = self.xi, self.s, _neg_log(eps, alpha)
        if xi * y < 1.0:
            return s * (y if xi == 0.0 else math.expm1(xi * y) / xi)
        if alpha < eps:   # eps = 1 - alpha is rounded, y is not
            return s * (math.expm1(xi * y) / xi) if xi * y < 709.0 else _exp_or_inf(
                math.log(s) - math.log(xi) + xi * y)
        excess = s * ((_scaled_power(1.0, eps, -xi) - 1.0) / xi)
        if excess < math.inf:
            return excess
        v = _scaled_power(1.0, eps, -0.5 * xi)   # u = v^2 left binary64; its - 1 vanishes
        return s * v * v / xi if v < math.inf else _exp_or_inf(math.log(s) - math.log(xi) + xi * y)

    def _quantile(self, alpha, eps):
        return self.mu + self._excess(alpha, eps)

    def _sq(self, alpha, eps):
        excess = self._excess(alpha, eps)   # s (u - 1) / xi, u = eps^-xi
        return self.mu + ((self.s + self.xi * excess) / self._g1 + excess)

    def mean(self):
        return math.inf if self._g1 <= 0.0 else self.mu + self.s / self._g1

    def variance(self):   # (s / (1 - xi))^2 / (1 - 2 xi), no square formed
        if self._g2 <= 0.0:
            return math.inf
        r = self.s / self._g1
        return r * (r / self._g2)


class Exponential(GPD):
    """Exponential with rate lam: GPD(0, 1/lam, 0)."""

    family = "exponential"

    def __init__(self, lam: float):
        lam = _require(lam, "Exponential requires finite lam > 0, got {}")
        _require(1.0 / lam, "Exponential requires 1/lam a normal float, got {}", _TINY)
        self.__dict__.update(lam=lam, mu=0.0, s=1.0 / lam, xi=0.0, _g1=1.0, _g2=1.0)


class Pareto(GPD):
    """Pareto with shape a and minimum xm: GPD(xm, xm/a, 1/a). 1 - xi and 1 - 2 xi
    are (a - 1)/a and (a - 2)/a, which 1 - 1/a and 1 - 2/a lose near a = 1 and 2."""

    family = "pareto"

    def __init__(self, a: float, xm: float):
        a = _require(a, "Pareto requires finite shape a > 0, got {}")
        xm = _require(xm, "Pareto requires finite xm > 0, got {}")
        _require(xm / a, "Pareto requires xm/a a normal float, got {}", _TINY)
        _require(1.0 / a, "Pareto requires 1/a a normal float, got {}", _TINY)
        self.__dict__.update(a=a, xm=xm, mu=xm, s=xm / a, xi=1.0 / a, _g1=(a - 1.0) / a,
                             _g2=(a - 2.0) / a)


class _Symmetric(Distribution):
    """A law symmetric about mu with scale ``_scale``; see the module docstring."""

    def _quantile(self, alpha, eps):
        t = self._std_lower_quantile(min(alpha, eps))
        return self.mu + self._scale * (t if alpha <= eps else -t)

    def _tails(self, x):
        tail = self._tail_beyond(abs(x - self.mu))
        return (tail, 1.0 - tail) if x < self.mu else (1.0 - tail, tail)

    def _reduce(self, x):
        return self.mu, self._scale, (x - self.mu) / self._scale

    def mean(self):
        return self.mu

    def support(self):
        return SupportBound(-math.inf, math.inf)


class Laplace(_Symmetric):
    family = "laplace"

    def __init__(self, mu: float, b: float):
        b = _require(b, "Laplace requires finite scale b > 0, got {}")
        mu = _require(mu, "Laplace requires finite mu, got {}", -_MAX)
        self.__dict__.update(mu=mu, b=b, _scale=b)

    def _pdf(self, x):
        return math.exp(-abs(x - self.mu) / self.b) / (2.0 * self.b)

    def _tail_beyond(self, h):
        return 0.5 * math.exp(-h / self.b)

    def _std_lower_quantile(self, p):
        return math.log(2.0 * p)

    def _sq(self, alpha, eps):
        if alpha < 0.5:
            return self.mu + self.b * (alpha / eps) * (1.0 - math.log(2.0 * alpha))
        return self.mu + self.b * (1.0 - math.log(2.0 * eps))

    def variance(self):
        return 2.0 * self.b * self.b


class Normal(_Symmetric):
    family = "normal"

    def __init__(self, mu: float, sigma: float):
        sigma = _require(sigma, "Normal requires finite sigma > 0, got {}")
        mu = _require(mu, "Normal requires finite mu, got {}", -_MAX)
        self.__dict__.update(mu=mu, sigma=sigma, _scale=sigma)

    def _pdf(self, x):
        z = (x - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    def _tail_beyond(self, h):
        return _std_normal_tails(h / (self.sigma * _SQRT2))[1]

    def _std_lower_quantile(self, p):
        return _std_normal_quantile(p, 1.0 - p)

    def _sq(self, alpha, eps, pair=False):
        w = specfun.erfc_inv(2.0 * (alpha if alpha < eps else eps))   # |z| / sqrt2
        sq = self.mu + self.sigma * (math.exp(-w * w) / (_SQRT_2PI * eps))
        if not pair:
            return sq
        t = -_SQRT2 * w   # the lower-half quantile, mirrored as _Symmetric._quantile does
        return sq, self.mu + self.sigma * (t if alpha <= eps else -t)

    def _sq_pair(self, alpha, eps):   # q from the erfc_inv the superquantile holds
        return self._sq(alpha, eps, True)

    _excess_tail = _normal_excess_tail

    def variance(self):
        return self.sigma * self.sigma


class LogNormal(Distribution):
    """log X ~ Normal(mu, s)."""

    family = "lognormal"

    def __init__(self, mu: float, s: float):
        s = _require(s, "LogNormal requires finite log-scale s > 0, got {}")
        mu = _require(mu, "LogNormal requires finite mu, got {}", -_MAX)
        self.__dict__.update(mu=mu, s=s)

    def _pdf(self, x):
        if x <= 0:
            return 0.0
        ln_x = math.log(x)
        z = (ln_x - self.mu) / self.s
        return _exp_or_inf(-0.5 * z * z - ln_x - math.log(self.s) - _LN_SQRT_2PI)

    def _tails(self, x):
        w = (math.log(x) - self.mu) / (self.s * _SQRT2) if x > 0 else -math.inf
        return _std_normal_tails(w)

    def _quantile(self, alpha, eps):
        return _exp_or_inf(self.mu + self.s * _std_normal_quantile(alpha, eps))

    def _sq(self, alpha, eps):
        # 1 + erf(s/sqrt2 - z) written as erfc(z - s/sqrt2) to survive eps -> 0
        z = -specfun.erfc_inv(2.0 * alpha) if alpha < eps else specfun.erfc_inv(2.0 * eps)
        return self.mean() * (0.5 * specfun.erfc(z - self.s / _SQRT2) / eps)

    def _reduce(self, x):
        return 0.0, 1.0, (math.log(x) - self.mu) / self.s

    def _excess_tail(self, g):
        """The tail at the standard normal quantile g, q = exp(mu + s g), with m the mean:
        s - m = m (F(g) - F(g - s)) / S(g), F and S the standard normal tails, the
        difference taken between upper tails from g = s/2 so that it does not cancel;
        deep in the tail s - q cancels, and s / q = h(g) / h(g - s), h the normal hazard,
        gives it. Up to g = 8 erfc's hazard keeps that difference within 4e-14; beyond,
        the continued fraction's does. Where S times any binary64 value underflows only
        ln S and F are formed, and the mean excess reads 0."""
        if g < 8.0:
            ln_h, ln_survival, lower = _normal_ln_tail(g)
            ln_h_shift, ln_survival_shift, lower_shift = _normal_ln_tail(g - self.s)
        else:
            _, ln_h, _, _, ln_survival, lower = _normal_excess_tail(self, g)
            _, ln_h_shift, _, _, ln_survival_shift, lower_shift = _normal_excess_tail(
                self, g - self.s)
        if ln_survival < _LN_NEGLIGIBLE:
            return math.nan, math.nan, math.nan, 0.0, ln_survival, lower
        h, h_shift = math.exp(ln_h), math.exp(ln_h_shift)
        if 2.0 * g > self.s:
            ln_band = ln_survival_shift + math.log1p(-math.exp(ln_survival - ln_survival_shift))
        else:   # -inf where both lower tails underflow, far below any root
            ln_band = math.log(lower - lower_shift) if lower > lower_shift else -math.inf
        ln_s = self.mu + 0.5 * self.s * self.s + ln_band - ln_survival
        q = _exp_or_inf(self.mu + self.s * g)
        excess = q * ((h - h_shift) / h_shift) if g > 0.0 else self.mean() - q + math.exp(ln_s)
        return q, ln_s, math.exp(ln_h - ln_s) * excess, excess, ln_survival, lower

    def mean(self):
        return _exp_or_inf(self.mu + 0.5 * self.s * self.s)

    def variance(self):
        s2 = self.s * self.s   # e^(2 mu + 2 s2) (1 - e^-s2), in logs
        ln_gap = math.log(-math.expm1(-s2)) if s2 >= _TINY else 2.0 * math.log(self.s)
        return _exp_or_inf(2.0 * (self.mu + s2) + ln_gap)

    def support(self):
        return SupportBound(0.0, math.inf)


class Logistic(_Symmetric):
    family = "logistic"

    def __init__(self, mu: float, s: float):
        s = _require(s, "Logistic requires finite scale s > 0, got {}")
        mu = _require(mu, "Logistic requires finite mu, got {}", -_MAX)
        self.__dict__.update(mu=mu, s=s, _scale=s)

    def _pdf(self, x):
        z = abs(x - self.mu) / self.s
        e = math.exp(-z)
        return e / (self.s * (1.0 + e) ** 2)

    def _tail_beyond(self, h):
        e = math.exp(-h / self.s)   # the odds S / F
        return e / (1.0 + e)

    def _std_lower_quantile(self, p):   # ln(p / (1 - p)), in log1p near the median where it cancels
        return math.log1p((2.0 * p - 1.0) / (1.0 - p)) if p > 0.25 else math.log(p) - math.log1p(-p)

    def _sq(self, alpha, eps):
        return self.mu + self.s * (specfun.binary_entropy(alpha if alpha < eps else eps) / eps)

    def _excess_tail(self, g):
        """The standard logistic's tail, with E[Z - g]+ = ln(1 + e^-g), S = 1/(1 + e^g) and the
        hazard F(g); s is g + excess above g = 0 and t ((1 + t) log1p(t)/t - g), t = e^g,
        below, so neither cancels."""
        t = math.exp(-abs(g))
        ratio = math.log1p(t) / t if t else 1.0
        if g > 0.0:
            excess = (1.0 + t) * ratio
            s = g + excess
            return (g, math.log(s), excess / ((1.0 + t) * s), excess, -g - math.log1p(t),
                    1.0 / (1.0 + t))
        v = (1.0 + t) * ratio - g   # s / t
        excess = (1.0 + t) * (math.log1p(t) - g)
        return g, g + math.log(v), (math.log1p(t) - g) / v, excess, -math.log1p(t), t / (1.0 + t)

    def variance(self):
        return self.s * self.s * math.pi ** 2 / 3.0


class StudentT(_Symmetric):
    """Generalized Student-t with degrees of freedom nu, scale s, location mu; ``_ln_c`` is
    the log of the standardized density's constant, 1 / (sqrt(nu) B(nu/2, 1/2))."""

    family = "student-t"

    def __init__(self, nu: float, s: float = 1.0, mu: float = 0.0):
        nu = _require(nu, "StudentT requires finite nu > 0, got {}")
        s = _require(s, "StudentT requires finite scale s > 0, got {}")
        mu = _require(mu, "StudentT requires finite mu, got {}", -_MAX)
        self.__dict__.update(nu=nu, s=s, mu=mu, _scale=s,
                             _ln_c=-specfun.ln_beta(0.5 * nu, 0.5) - 0.5 * math.log(nu))

    def std_pdf(self, t: float) -> float:
        """Density of the standardized (s=1, mu=0) variate."""
        return math.exp(self._ln_c - 0.5 * (self.nu + 1.0) * _student_ln_1p(self.nu, t))

    def _std_tails(self, t: float) -> tuple[float, float]:
        """(F(t), 1 - F(t)) of the standardized variate, both from one incomplete
        beta: from whichever of y = t^2 / (nu + t^2) and z = 1 - y reg_inc_beta sums
        directly, so neither cancels; below z = e^-40 the tail is its asymptote
        z^(nu/2) c / sqrt(nu), exact to rounding."""
        nu, a = self.nu, 0.5 * self.nu
        t2 = t * t
        if nu >= 1e3 and 200.0 * t2 <= nu:
            # the Normal limit of _std_lower_quantile inverted: w = t / (t / w) is a
            # contraction by at most w^2 / (2 nu) <= 1/400, so a few steps settle it
            w = t
            for _ in range(20):
                w_next = t / _hill_ratio(w * w, 1.0 / nu)
                if w_next == w:
                    break
                w = w_next
            return _std_normal_tails(w / _SQRT2)
        if t2 * (a + 1.0) < 1.5 * nu:   # y below reg_inc_beta's switch (1/2 + 1) / (a + 5/2)
            half = 0.5 * specfun.reg_inc_beta(t2 / (nu + t2), 0.5, a)
            return (0.5 - half, 0.5 + half) if t <= 0 else (0.5 + half, 0.5 - half)
        ln_z = -_student_ln_1p(nu, t)
        if ln_z < -40.0:
            tail = math.exp(a * ln_z + self._ln_c) / math.sqrt(nu)
        else:
            tail = 0.5 * specfun.reg_inc_beta(nu / (nu + t2), a, 0.5)
        return (tail, 1.0 - tail) if t <= 0 else (1.0 - tail, tail)

    def _std_lower_quantile(self, p: float) -> float:
        """Standardized quantile for p <= 0.5, where 2p = I_z(nu/2, 1/2), z = nu / (nu + t^2).

        For nu >= 1000 and w^2 <= nu / 200, w the Normal quantile, it is the Normal
        limit to 1/nu^4 (Abramowitz & Stegun 26.7.5; Hill 1970). Its truncation is
        the g5 / nu^5 term, about 1e-15 relative at the corner nu = 1000, w^2 = 5,
        and smaller elsewhere in the region. Where the asymptote
        2p ~ z^a / (a B(a, 1/2)), a = nu/2, is exact to rounding it gives t in closed
        form, even where z underflows; at a <= 2^-10 from ln(a B(a, 1/2)) / a and in
        logs, since the rounding of _ln_c would come back times 1/a. Elsewhere Halley's
        method in v = ln(nu / t^2), in a shrinking bracket, solves ln I = ln target on a
        mass formed, as in ``_std_tails``, from the smaller of z and y = 1 - z: the tail
        I_z(a, 1/2) against 2p, or above p = 1/4 the centre mass I_y(1/2, a) against
        1 - 2p, where 1/2 - F would lose p's digits. Its seed is the larger |t| of the
        asymptote and the median's tangent -(1/2 - p) / f(0): both fall short (F is convex).
        """
        nu, a = self.nu, 0.5 * self.nu
        if p == 0.5:
            return 0.0
        if nu >= 1e3:
            w = _std_normal_quantile(p, 1.0 - p)
            if 200.0 * w * w <= nu:
                return w * _hill_ratio(w * w, 1.0 / nu)
        # x = 2p a B(a, 1/2) ~ z^a; the factor nu B(a, 1/2) is at least 2: no underflow
        x, small = p * (math.sqrt(nu) * math.exp(-self._ln_c)), a <= 2.0 ** -10
        ln_z = math.log(2.0 * p) / a + specfun.ln_a_beta_half(a) if small else math.log(x) / a
        if ln_z < -40.0:   # relative error of the asymptote < z; an overflow is -inf
            return -(_exp_or_inf(0.5 * (math.log(nu) - ln_z)) if small
                     else _scaled_power(math.sqrt(nu), x, -1.0 / nu))
        centre = p > 0.25
        target, sign = (1.0 - 2.0 * p, -1.0) if centre else (2.0 * p, 1.0)
        tangent = math.sqrt(nu) * math.exp(self._ln_c) / (0.5 - p)   # = sqrt(its odds)
        odds = min(1.0 / math.expm1(-ln_z) if ln_z < 0.0 else math.inf, tangent * tangent)
        lo, hi, ln_front = 0.0, math.inf, self._ln_c + 0.5 * math.log(nu)   # -ln B(a, 1/2)
        for _ in range(100):
            z, y, ln_y = odds / (1.0 + odds), 1.0 / (1.0 + odds), -math.log1p(odds)
            below = y * (a + 2.5) < 1.5   # y below reg_inc_beta's switch: I_y, else I_z
            if centre and small and not below:
                mass = specfun._half_beta_complement(z, a)   # 1 - I_z(a, 1/2)
            else:
                mass = specfun.reg_inc_beta(*((y, 0.5, a) if below else (z, a, 0.5)))
                mass = mass if below == centre else 1.0 - mass
            lo, hi = (odds, hi) if (mass > target) == centre else (lo, odds)
            # |d ln I / dv| = z^a y^(1/2) / (B(a, 1/2) I) <= max(a, 1/2), and
            # d ln(z^a y^(1/2)) / dv = a y - z / 2
            slope = math.exp(a * (math.log(odds) + ln_y) + 0.5 * ln_y + ln_front
                             - math.log(mass)) if mass > 0.0 else 0.0
            new = -1.0
            if slope > 0.0:
                newton = math.log(mass / target) / slope
                corr = 1.0 - 0.5 * newton * (sign * (a * y - 0.5 * z) - slope)
                step = sign * (newton / corr if 0.5 <= corr <= 2.0 else newton)
                new = odds * _exp_or_inf(-step)
                if abs(step) <= 1e-9:
                    odds = new
                    break
            if not lo < new < hi:   # bisect, geometrically once the bracket is finite
                new = hi * 2.0 ** -64 if lo == 0.0 else (
                    lo * 2.0 ** 64 if hi == math.inf else math.sqrt(lo) * math.sqrt(hi))
                if not lo < new < hi:
                    break             # adjacent floats
            odds = new
        return -math.sqrt(nu / odds)

    def _sq(self, alpha, eps):
        """sq = mu + s (nu + t^2) pdf(t) / ((nu - 1) eps) at t = |q| standardized, where
        (nu + t^2) pdf(t) = nu c (1 + t^2/nu)^(-(nu-1)/2), in logs, neither overflows
        nor underflows."""
        nu = self.nu
        ln_1p = _student_ln_1p(nu, self._std_lower_quantile(alpha if alpha < eps else eps))
        tail = nu * math.exp(self._ln_c - 0.5 * (nu - 1.0) * ln_1p)
        return self.mu + self.s * (tail / ((nu - 1.0) * eps))

    def _excess_tail(self, g):
        """The standardized tail: s = (nu + g^2) f / ((nu - 1) S) with
        (nu + g^2) f in logs, as ``_sq`` forms it, and both tails from one
        incomplete beta. Where S is below the smallest normal float, ln S is its
        asymptote ln c - (nu ln(1 + g^2/nu) + ln nu) / 2 where that is exact to
        rounding, as in ``_std_tails``, and -inf, an underflow, elsewhere (huge nu)."""
        nu, ln_c, ln_1p = self.nu, self._ln_c, _student_ln_1p(self.nu, g)
        lower, upper = self._std_tails(g)
        if upper >= sys.float_info.min:
            ln_survival = math.log(upper)
        else:
            ln_survival = ln_c - 0.5 * (nu * ln_1p + math.log(nu)) if ln_1p > 40.0 else -math.inf
        ln_s = math.log(nu / (nu - 1.0)) + ln_c - 0.5 * (nu - 1.0) * ln_1p - ln_survival
        hazard = math.exp(ln_c - 0.5 * (nu + 1.0) * ln_1p - ln_survival)
        # d ln s / dg = hazard (s - g) / s, and hazard / s = (nu - 1) / (nu + g^2)
        slope = hazard - (nu - 1.0) / (g + nu / g) if g else hazard
        return g, ln_s, slope, _exp_or_inf(ln_s) - g, ln_survival, lower

    def _pdf(self, x):
        return self.std_pdf((x - self.mu) / self.s) / self.s

    def _tails(self, x):
        return self._std_tails((x - self.mu) / self.s)

    def mean(self):
        return math.inf if self.nu <= 1.0 else self.mu

    def variance(self):
        if self.nu <= 2.0:
            return math.inf
        return self.s * self.s * self.nu / (self.nu - 2.0)


class Weibull(Distribution):
    family = "weibull"

    def __init__(self, lam: float, k: float):
        lam = _require(lam, "Weibull requires finite scale lam > 0, got {}")
        k = _require(k, "Weibull requires finite shape k > 0, got {}")
        self.__dict__.update(lam=lam, k=k, _lg=_ln_gamma_1m(-1.0 / k) / -k)   # ln Gamma(1 + 1/k)

    def _pdf(self, x):
        if x <= 0:   # at 0 the limit
            return 0.0 if x < 0 or self.k > 1.0 else (1.0 / self.lam if self.k == 1.0 else math.inf)
        if x == math.inf:   # (k - 1) ln z - z^k is inf - inf there
            return 0.0
        ln_z = math.log(x) - math.log(self.lam)   # z = x / lam may leave binary64
        return _exp_or_inf(math.log(self.k) - math.log(self.lam) + (self.k - 1.0) * ln_z
                           - _scaled_power(1.0, x / self.lam, self.k))

    def _tails(self, x):   # (0, 1) from 0 down
        power = _scaled_power(1.0, max(x, 0.0) / self.lam, self.k)
        return -math.expm1(-power), math.exp(-power)

    def _quantile(self, alpha, eps):
        return _scaled_power(self.lam, _neg_log(eps, alpha), 1.0 / self.k)

    def _sq(self, alpha, eps):
        a, y = 1.0 + 1.0 / self.k, _neg_log(eps, alpha)
        if y >= a + 1.0:
            # Gamma(a, y) / eps = e^y Gamma(a, y) = y^a cf(a, y), formed as q y cf / lam, q the
            # quantile: neither a rounded e^-y nor the rounding of a meets y
            sq = _scaled_power(self.lam, y, 1.0 / self.k) * (y * specfun._gamma_q_cf(a, y))
        else:   # in logs where Gamma(a, y) overflows
            sq = self.lam * (specfun.upper_inc_gamma(a, y) / eps)
        return sq if sq < math.inf else _exp_or_inf(
            math.log(self.lam) + specfun.ln_inc_gamma(a, y, True) - math.log(eps))

    def mean(self):
        return self.lam * math.exp(self._lg) if self._lg < 709.0 else _exp_or_inf(
            math.log(self.lam) + self._lg)

    def variance(self):
        return _gamma_variance(self.lam / self.k, -1.0 / self.k, self._lg)

    def support(self):
        return SupportBound(0.0, math.inf)


class LogLogistic(Distribution):
    family = "loglogistic"

    def __init__(self, a: float, b: float):
        a = _require(a, "LogLogistic requires finite scale a > 0, got {}")
        b = _require(b, "LogLogistic requires finite shape b > 0, got {}")
        self.__dict__.update(a=a, b=b)

    def _pdf(self, x):
        if x <= 0:   # at 0 the limit
            return 0.0 if x < 0 or self.b > 1.0 else (1.0 / self.a if self.b == 1.0 else math.inf)
        w = abs(self.b * (math.log(x) - math.log(self.a)))   # f = b F (1 - F) / x, |ln odds| w
        return _exp_or_inf(math.log(self.b) - math.log(x) - w - 2.0 * math.log1p(math.exp(-w)))

    def _tails(self, x):
        odds = _scaled_power(1.0, self.a / x, self.b) if x > 0 else math.inf   # S / F
        return 1.0 / (1.0 + odds), odds / (1.0 + odds) if odds <= 1.0 else 1.0 / (1.0 + 1.0 / odds)

    def _quantile(self, alpha, eps):
        odds = alpha / eps
        if odds == math.inf:   # overflowed without raising, where alpha rounds to 1
            return _scaled_power(self.a, eps, -1.0 / self.b)
        return _scaled_power(self.a, odds, 1.0 / self.b)

    def _sq(self, alpha, eps):
        # (a / eps) times the integral of (1 - r)^(1/b) r^(-1/b) over r in [0, eps]
        return self.a * (specfun.inc_beta(eps, 1.0 - 1.0 / self.b, 1.0 + 1.0 / self.b) / eps)

    def mean(self):
        if self.b <= 1.0:
            return math.inf
        c = math.pi / self.b
        return self.a * c / math.sin(c)

    def variance(self):
        """a^2 (m2 - m1^2), m_k = kc / sin(kc), c = pi / b, as (a c (c / sin c))^2 r / cos c
        with r = (sin c - c cos c) / c^3 a series below c = 1: nothing cancels, and nothing
        overflows before the variance does."""
        if self.b <= 2.0:
            return math.inf
        c = math.pi / self.b
        if c < 1.0:   # r = sum over n >= 1 of (-1)^(n+1) 2n c^(2n-2) / (2n+1)!
            r, term, k = 0.0, 1.0 / 3.0, 2.0   # k = 2n
            while term > 1e-17 or -term > 1e-17:
                r += term
                term *= -c * c / (k * (k + 3.0))
                k += 2.0
        else:
            r = (math.sin(c) - c * math.cos(c)) / c ** 3
        sd = self.a * c * (c / math.sin(c)) * math.sqrt(r / math.cos(c))
        return sd * sd

    def support(self):
        return SupportBound(0.0, math.inf)


class GEV(Distribution):
    """Generalized extreme value with location mu, scale s, shape xi; ``_lg1`` is
    ln Gamma(1 - xi) / xi, inf from xi = 1."""

    family = "gev"

    def __init__(self, mu: float, s: float, xi: float):
        s = _require(s, "GEV requires finite scale s > 0, got {}")
        mu = _require(mu, "GEV requires finite mu, got {}", -_MAX)
        xi = _require(xi, "GEV requires finite xi, got {}", -_MAX)
        self.__dict__.update(mu=mu, s=s, xi=xi, _lg1=_ln_gamma_1m(xi) if xi < 1.0 else math.inf)

    def support(self):
        if self.xi == 0.0:
            return SupportBound(-math.inf, math.inf)
        if self.xi > 0:
            return SupportBound(self.mu - self.s / self.xi, math.inf)
        return SupportBound(-math.inf, self.mu - self.s / self.xi)

    # F = exp(-t), ln t = -ln(1 + xi z) / xi; xi z <= -1 at the finite end of the support or
    # beyond it
    def _pdf(self, x):
        z = (x - self.mu) / self.s
        if self.xi * z <= -1.0:
            return 0.0
        ln_t = -_log1p_ratio(self.xi, z)
        t = _exp_or_inf(ln_t)
        return 0.0 if t == math.inf else _exp_or_inf((1.0 + self.xi) * ln_t - t) / self.s

    def _tails(self, x):
        z = (x - self.mu) / self.s
        if self.xi * z <= -1.0:
            return (0.0, 1.0) if self.xi > 0.0 else (1.0, 0.0)
        t = _exp_or_inf(-_log1p_ratio(self.xi, z))   # 0 or inf at x = +-inf
        return math.exp(-t), -math.expm1(-t)

    def _quantile(self, alpha, eps):   # mu + s (y^-xi - 1) / xi, y = -ln alpha
        # near alpha = 1/e, ln y ~ 0 keeps its digits only if read off alpha itself, not off
        # a rounded y: alpha = (1 + d e) / e for d = alpha - 1/e, 1/e taken in double-double,
        # so ln y = log1p(-log1p(d e)). Far from 1/e, d e nears -1 and that form fails.
        d = alpha - 0.36787944117144233 + 1.2428753672788363e-17
        ln_y = (math.log1p(-math.log1p(d * math.e)) if abs(d) < 0.125
                else math.log(_neg_log(alpha, eps)))
        return self.mu - _expm1_ratio(-self.xi, ln_y, self.s)

    def _sq_terms(self, alpha: float, eps: float) -> tuple[float, float]:
        """((sq - mu) / s, (sq - m) / s) for xi < 1 at the pair (alpha, eps), m the mean. With
        y = -ln alpha, q = (y^-xi - 1) / xi, G = Gamma(1 - xi), g = (G - 1) / xi: below
        xi = -1 the paper's incomplete gammas, P read as 1 - Q where it nears eps; for y <= 2,
        I / eps and I / eps - g, I = int_0^y q e^-t dt = sum (-1)^n y^(n+1) (q + 1/(n+1)) /
        (n! (n+1-xi)); beyond, g + f and f, f = alpha (g - L) / eps, L = q - e^y Gamma(-xi, y) the
        lower-tail average from the continued fraction."""
        xi, y = self.xi, _neg_log(alpha, eps)
        if xi < -1.0:
            lower, upper = specfun._reg_gamma(1.0 - xi, y)
            tail = (eps - lower if y < 2.0 - xi else upper - alpha) / (-xi * eps)
            return ((eps - specfun.lower_inc_gamma(1.0 - xi, y)) / (-xi * eps),
                    tail * _exp_or_inf(xi * self._lg1))
        q = -_expm1_ratio(-xi, math.log(y))
        g = _expm1_ratio(xi, self._lg1)
        if y <= 2.0:   # I >= y / 8, so terms below 1e-18 y are negligible
            total, term, k, cut = 0.0, y, 1.0, 1e-18 * y   # term = (-1)^n y^(n+1) / n!, k = n + 1
            while term > cut or -term > cut:
                total += term * (q + 1.0 / k) / (k - xi)
                term *= -y / k
                k += 1.0
            sq = total / eps
            return sq, sq - g
        excess = alpha * (g - q + (1.0 + xi * q) * specfun._gamma_q_cf(-xi, y)) / eps
        return g + excess, excess

    def _sq(self, alpha, eps):
        """mu + s t, t = (sq - mu) / s, or m + s e, e = (sq - m) / s, where its terms add to under
        half as much: the mean's own rounding pays only where mu and s t cancel, as for a zero-mean
        law, whose sq - m it keeps; at most the top of the support mu - s / xi for xi < 0."""
        (t, e), mu, s, m = self._sq_terms(alpha, eps), self.mu, self.s, self.mean()
        sq = m + s * e if 2.0 * (abs(m) + abs(s * e)) < abs(mu) + abs(s * t) else mu + s * t
        return min(sq, mu - s / self.xi) if self.xi < 0.0 else sq

    def mean(self):
        return math.inf if self.xi >= 1.0 else self.mu + _expm1_ratio(self.xi, self._lg1, self.s)

    def variance(self):
        return math.inf if self.xi >= 0.5 else _gamma_variance(self.s, self.xi, self.xi * self._lg1)


FAMILIES: dict[str, type[Distribution]] = {
    cls.family: cls
    for cls in (Exponential, Pareto, GPD, Laplace, Normal, LogNormal,
                Logistic, StudentT, Weibull, LogLogistic, GEV)
}


def _family_key(name) -> str | None:
    """name spelt as the ``FAMILIES`` keys are (lower case, '-' for '_'); None if not text."""
    return name.lower().replace("_", "-") if isinstance(name, str) else None


def make(family: str, **params: float) -> Distribution:
    """Build a validated distribution from its family tag and parameters."""
    key = _family_key(family)
    cls = FAMILIES.get(key)
    if cls is None:
        raise ParameterError(f"unknown family {family!r:.40}; expected one of {sorted(FAMILIES)}")
    unknown = set(params) - set(cls._fields)
    if unknown:
        raise ParameterError(
            f"{key} does not take parameter(s) {sorted(unknown)}; expected {sorted(cls._fields)}")
    try:
        return cls(**params)
    except TypeError as exc:   # a parameter missing
        raise ParameterError(f"{key}: {exc}") from exc


def from_json(obj: dict) -> Distribution:
    """Parse {"family": ..., "params": {...}}; each parameter is a number, as for ``make``."""
    try:
        return make(obj["family"], **obj["params"])
    except (KeyError, TypeError) as exc:   # make raises neither: the spec is not that form
        raise ParameterError(f"malformed distribution spec: {obj!r:.80}") from exc
