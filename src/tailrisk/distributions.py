"""Validated parameter containers and elementary evaluators for the eleven
supported distribution families. Exponential(lam) = GPD(0, 1/lam, 0) and
Pareto(a, xm) = GPD(xm, xm/a, 1/a) subclass GPD and run its evaluators.

Each family is an immutable value whose ``__init__`` validates its parameters,
with ``pdf``, ``cdf``, ``quantile``, ``tail_quantile`` (the upper quantile as a
stable function of the tail probability), ``mean``, ``variance``, ``support``
and ``sample`` (numpy's normal and Student-t generators for Normal, LogNormal
and Student-t, the inverse transform for the rest). Moments that diverge or
leave binary64 are reported as ``math.inf``, never as errors. ``make`` builds a family
from its name and parameters, as the CLI does; ``from_json``/``to_json`` read and write
the form ``{"family": ..., "params": {...}}``.

Each family writes its quantile once, as ``_quantile(alpha, eps)`` with
alpha + eps = 1: ``quantile(alpha)`` passes (alpha, 1 - alpha) and
``tail_quantile(eps)`` passes (1 - eps, eps) to ``_quantile``, and the
root engines pass their own pair as ``quantile(alpha, eps)``. The smaller
one keeps full precision; each formula reads its precision from it, and the
symmetric laws mirror their lower half at min(alpha, eps). So ``quantile(a)`` equals
``tail_quantile(1 - a)`` bit for bit on [0.5, 1). Each formula returns a
quantile beyond binary64 itself, as +inf, or -inf below the median of a law
unbounded below; none raises ``OverflowError``.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, ClassVar, NamedTuple

from . import specfun
from .errors import DomainError, ParameterError

if TYPE_CHECKING:
    import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN_SQRT_2PI = math.log(_SQRT_2PI)

_TINY = sys.float_info.min   # smallest normal float
# a GPD power b^(-1/xi) is taken as that power where b exceeds e^2: the power multiplies
# the rounding of b by 1/xi, the exponential by ln(b)/xi
_E2 = math.exp(2.0)


class SupportBound(NamedTuple):
    lower: float
    upper: float


def _require(condition: bool, message: str, value: float) -> None:
    if not condition:
        raise ParameterError(message.format(value))


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
        return c * r * (math.expm1(u) / u if u else 1.0)
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
    the Weibull one at (lam / k, -1/k); in logs where G or the product leaves binary64."""
    w = _expm1_ratio(x * x, _ln_gamma_gap(x))   # inf only where G is far beyond binary64
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

    # elementary evaluators; families override all but the two quantiles
    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def quantile(self, alpha: float, _eps: float | None = None) -> float:
        """Quantile q_alpha at the level alpha in (0, 1); the root engines pass
        the tail mass ``_eps`` = 1 - alpha too, unchecked."""
        if _eps is None and not 0.0 < alpha < 1.0:
            raise DomainError(f"quantile level must lie in (0, 1), got {alpha}")
        return self._quantile(alpha, 1.0 - alpha if _eps is None else _eps)

    def tail_quantile(self, eps: float) -> float:
        """Upper quantile q_(1-eps) as a stable function of the tail mass."""
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        return self._quantile(1.0 - eps, eps)

    def _quantile(self, alpha: float, eps: float) -> float:   # see the module docstring
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def support(self) -> SupportBound:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample of size n from rng.

        Normal, LogNormal and Student-t draw from ``rng.standard_normal`` and
        ``rng.standard_t``, so their draws are not monotone in a uniform;
        the other families are inverse transforms of ``rng.random``.
        """
        from . import _sampling
        return _sampling.draw(self, n, rng)

    def params(self) -> dict[str, float]:
        return {name: self.__dict__[name] for name in self._fields}

    def to_json(self) -> dict:
        return {"family": self.family, "params": self.params()}


class GPD(Distribution):
    """Generalized Pareto with location mu, scale s, shape xi. The moments, the
    superquantile and bPOE read 1 - xi and 1 - 2 xi as ``_g1`` and ``_g2``."""

    family = "gpd"

    def __init__(self, mu: float, s: float, xi: float):
        _require(0 < s < math.inf, "GPD requires finite scale s > 0, got {}", s)
        _require(math.isfinite(mu), "GPD requires finite mu, got {}", mu)
        _require(math.isfinite(xi), "GPD requires finite xi, got {}", xi)
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

    def pdf(self, x):
        h = self.s + self.xi * (x - self.mu)   # s (1 + xi z); NaN at xi = 0, x = inf
        return self._tail_power(x, h, d=h) if x >= self.mu and h > 0.0 else 0.0

    def cdf(self, x):
        if x <= self.mu:
            return 0.0
        return 1.0 if self.s + self.xi * (x - self.mu) <= 0.0 else -math.expm1(-self._ln_survival(x))

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
        _require(0 < lam < math.inf and _TINY <= 1.0 / lam < math.inf,
                 "Exponential requires finite lam > 0 with 1/lam a normal float, got {}", lam)
        self.__dict__.update(lam=lam, mu=0.0, s=1.0 / lam, xi=0.0, _g1=1.0, _g2=1.0)


class Pareto(GPD):
    """Pareto with shape a and minimum xm: GPD(xm, xm/a, 1/a). 1 - xi and 1 - 2 xi
    are (a - 1)/a and (a - 2)/a, which 1 - 1/a and 1 - 2/a lose near a = 1 and 2."""

    family = "pareto"

    def __init__(self, a: float, xm: float):
        _require(0 < a < math.inf, "Pareto requires finite shape a > 0, got {}", a)
        _require(0 < xm < math.inf and _TINY <= xm / a < math.inf and _TINY <= 1.0 / a < math.inf,
                 "Pareto requires finite xm > 0 with xm/a and 1/a normal floats, got (a, xm) = {}",
                 (a, xm))
        self.__dict__.update(a=a, xm=xm, mu=xm, s=xm / a, xi=1.0 / a, _g1=(a - 1.0) / a,
                             _g2=(a - 2.0) / a)


class Laplace(Distribution):
    family = "laplace"

    def __init__(self, mu: float, b: float):
        _require(0 < b < math.inf, "Laplace requires finite scale b > 0, got {}", b)
        _require(math.isfinite(mu), "Laplace requires finite mu, got {}", mu)
        self.__dict__.update(mu=mu, b=b)

    def pdf(self, x):
        return math.exp(-abs(x - self.mu) / self.b) / (2.0 * self.b)

    def cdf(self, x):
        z = (x - self.mu) / self.b
        if z < 0:
            return 0.5 * math.exp(z)
        return 1.0 - 0.5 * math.exp(-z)

    def _quantile(self, alpha, eps):
        t = math.log(2.0 * min(alpha, eps))
        return self.mu + self.b * (t if alpha <= eps else -t)

    def mean(self):
        return self.mu

    def variance(self):
        return 2.0 * self.b * self.b

    def support(self):
        return SupportBound(-math.inf, math.inf)


class Normal(Distribution):
    family = "normal"

    def __init__(self, mu: float, sigma: float):
        _require(0 < sigma < math.inf, "Normal requires finite sigma > 0, got {}", sigma)
        _require(math.isfinite(mu), "Normal requires finite mu, got {}", mu)
        self.__dict__.update(mu=mu, sigma=sigma)

    def pdf(self, x):
        z = (x - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    def cdf(self, x):
        z = (x - self.mu) / (self.sigma * _SQRT2)
        return 0.5 * math.erfc(-z)

    def _quantile(self, alpha, eps):
        return self.mu + self.sigma * _std_normal_quantile(alpha, eps)

    def mean(self):
        return self.mu

    def variance(self):
        return self.sigma * self.sigma

    def support(self):
        return SupportBound(-math.inf, math.inf)


class LogNormal(Distribution):
    """log X ~ Normal(mu, s)."""

    family = "lognormal"

    def __init__(self, mu: float, s: float):
        _require(0 < s < math.inf, "LogNormal requires finite log-scale s > 0, got {}", s)
        _require(math.isfinite(mu), "LogNormal requires finite mu, got {}", mu)
        self.__dict__.update(mu=mu, s=s)

    def pdf(self, x):
        if x <= 0:
            return 0.0
        ln_x = math.log(x)
        z = (ln_x - self.mu) / self.s
        return _exp_or_inf(-0.5 * z * z - ln_x - math.log(self.s) - _LN_SQRT_2PI)

    def cdf(self, x):
        if x <= 0:
            return 0.0
        z = (math.log(x) - self.mu) / (self.s * _SQRT2)
        return 0.5 * math.erfc(-z)

    def _quantile(self, alpha, eps):
        return _exp_or_inf(self.mu + self.s * _std_normal_quantile(alpha, eps))

    def mean(self):
        return _exp_or_inf(self.mu + 0.5 * self.s * self.s)

    def variance(self):
        s2 = self.s * self.s   # e^(2 mu + 2 s2) (1 - e^-s2), in logs
        ln_gap = math.log(-math.expm1(-s2)) if s2 >= _TINY else 2.0 * math.log(self.s)
        return _exp_or_inf(2.0 * (self.mu + s2) + ln_gap)

    def support(self):
        return SupportBound(0.0, math.inf)


class Logistic(Distribution):
    family = "logistic"

    def __init__(self, mu: float, s: float):
        _require(0 < s < math.inf, "Logistic requires finite scale s > 0, got {}", s)
        _require(math.isfinite(mu), "Logistic requires finite mu, got {}", mu)
        self.__dict__.update(mu=mu, s=s)

    def pdf(self, x):
        z = abs(x - self.mu) / self.s
        e = math.exp(-z)
        return e / (self.s * (1.0 + e) ** 2)

    def cdf(self, x):
        return 1.0 / (1.0 + _exp_or_inf(-(x - self.mu) / self.s))

    def _quantile(self, alpha, eps):
        p = min(alpha, eps)   # ln(p / (1 - p)), in log1p near the median where it cancels
        t = math.log1p((2.0 * p - 1.0) / (1.0 - p)) if p > 0.25 else math.log(p) - math.log1p(-p)
        return self.mu + self.s * (t if alpha <= eps else -t)

    def mean(self):
        return self.mu

    def variance(self):
        return self.s * self.s * math.pi ** 2 / 3.0

    def support(self):
        return SupportBound(-math.inf, math.inf)


class StudentT(Distribution):
    """Generalized Student-t with degrees of freedom nu, scale s, location mu; ``_ln_c`` is
    the log of the standardized density's constant, 1 / (sqrt(nu) B(nu/2, 1/2))."""

    family = "student-t"

    def __init__(self, nu: float, s: float = 1.0, mu: float = 0.0):
        _require(0 < nu < math.inf, "StudentT requires finite nu > 0, got {}", nu)
        _require(0 < s < math.inf, "StudentT requires finite scale s > 0, got {}", s)
        _require(math.isfinite(mu), "StudentT requires finite mu, got {}", mu)
        self.__dict__.update(nu=nu, s=s, mu=mu,
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
            return 0.5 * math.erfc(-w / _SQRT2), 0.5 * math.erfc(w / _SQRT2)
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

    def pdf(self, x):
        return self.std_pdf((x - self.mu) / self.s) / self.s

    def cdf(self, x):
        return self._std_tails((x - self.mu) / self.s)[0]

    def _quantile(self, alpha, eps):
        t = self._std_lower_quantile(min(alpha, eps))
        return self.mu + self.s * (t if alpha <= eps else -t)

    def mean(self):
        return math.inf if self.nu <= 1.0 else self.mu

    def variance(self):
        if self.nu <= 2.0:
            return math.inf
        return self.s * self.s * self.nu / (self.nu - 2.0)

    def support(self):
        return SupportBound(-math.inf, math.inf)


class Weibull(Distribution):
    family = "weibull"

    def __init__(self, lam: float, k: float):
        _require(0 < lam < math.inf, "Weibull requires finite scale lam > 0, got {}", lam)
        _require(0 < k < math.inf, "Weibull requires finite shape k > 0, got {}", k)
        self.__dict__.update(lam=lam, k=k, _lg=_ln_gamma_1m(-1.0 / k) / -k)   # ln Gamma(1 + 1/k)

    def pdf(self, x):
        if x <= 0:   # at 0 the limit
            return 0.0 if x < 0 or self.k > 1.0 else (1.0 / self.lam if self.k == 1.0 else math.inf)
        ln_z = math.log(x) - math.log(self.lam)   # z = x / lam may leave binary64
        return _exp_or_inf(math.log(self.k) - math.log(self.lam) + (self.k - 1.0) * ln_z
                           - _scaled_power(1.0, x / self.lam, self.k))

    def cdf(self, x):
        if x < 0:
            return 0.0
        return -math.expm1(-_scaled_power(1.0, x / self.lam, self.k))

    def _quantile(self, alpha, eps):
        return _scaled_power(self.lam, _neg_log(eps, alpha), 1.0 / self.k)

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
        _require(0 < a < math.inf, "LogLogistic requires finite scale a > 0, got {}", a)
        _require(0 < b < math.inf, "LogLogistic requires finite shape b > 0, got {}", b)
        self.__dict__.update(a=a, b=b)

    def pdf(self, x):
        if x <= 0:   # at 0 the limit
            return 0.0 if x < 0 or self.b > 1.0 else (1.0 / self.a if self.b == 1.0 else math.inf)
        w = abs(self.b * (math.log(x) - math.log(self.a)))   # f = b F (1 - F) / x, |ln odds| w
        return _exp_or_inf(math.log(self.b) - math.log(x) - w - 2.0 * math.log1p(math.exp(-w)))

    def cdf(self, x):
        if x <= 0:
            return 0.0
        return 1.0 / (1.0 + _scaled_power(1.0, self.a / x, self.b))

    def _quantile(self, alpha, eps):
        odds = alpha / eps
        if odds == math.inf:   # overflowed without raising, where alpha rounds to 1
            return _scaled_power(self.a, eps, -1.0 / self.b)
        return _scaled_power(self.a, odds, 1.0 / self.b)

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
        _require(0 < s < math.inf, "GEV requires finite scale s > 0, got {}", s)
        _require(math.isfinite(mu), "GEV requires finite mu, got {}", mu)
        _require(math.isfinite(xi), "GEV requires finite xi, got {}", xi)
        self.__dict__.update(mu=mu, s=s, xi=xi, _lg1=_ln_gamma_1m(xi) if xi < 1.0 else math.inf)

    def support(self):
        if self.xi == 0.0:
            return SupportBound(-math.inf, math.inf)
        if self.xi > 0:
            return SupportBound(self.mu - self.s / self.xi, math.inf)
        return SupportBound(-math.inf, self.mu - self.s / self.xi)

    # F = exp(-t), ln t = -ln(1 + xi z) / xi; xi z <= -1 inside the support only by
    # rounding at its end
    def pdf(self, x):
        lo, hi = self.support()
        z = (x - self.mu) / self.s
        if x <= lo or x >= hi or self.xi * z <= -1.0:
            return 0.0
        ln_t = -_log1p_ratio(self.xi, z)
        t = _exp_or_inf(ln_t)
        return _exp_or_inf((1.0 + self.xi) * ln_t - t) / self.s if t < math.inf else 0.0

    def cdf(self, x):
        lo, hi = self.support()
        z = (x - self.mu) / self.s
        edge = self.xi * z <= -1.0
        if x <= lo or (edge and self.xi > 0.0):
            return 0.0
        if x >= hi or edge:
            return 1.0
        return math.exp(-_exp_or_inf(-_log1p_ratio(self.xi, z)))

    def _quantile(self, alpha, eps):   # mu + s (y^-xi - 1) / xi
        return self.mu - _expm1_ratio(-self.xi, math.log(_neg_log(alpha, eps)), self.s)

    def mean(self):
        return math.inf if self.xi >= 1.0 else self.mu + _expm1_ratio(self.xi, self._lg1, self.s)

    def variance(self):
        return math.inf if self.xi >= 0.5 else _gamma_variance(self.s, self.xi, self.xi * self._lg1)


FAMILIES: dict[str, type[Distribution]] = {
    cls.family: cls
    for cls in (Exponential, Pareto, GPD, Laplace, Normal, LogNormal,
                Logistic, StudentT, Weibull, LogLogistic, GEV)
}


def make(family: str, **params: float) -> Distribution:
    """Build a validated distribution from its family tag and parameters."""
    key = family.lower().replace("_", "-")
    if key not in FAMILIES:
        raise ParameterError(
            f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    cls = FAMILIES[key]
    unknown = set(params) - set(cls._fields)
    if unknown:
        raise ParameterError(
            f"{key} does not take parameter(s) {sorted(unknown)}; expected {sorted(cls._fields)}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise ParameterError(f"{key}: {exc}") from exc


def from_json(obj: dict) -> Distribution:
    """Parse {"family": ..., "params": {...}}."""
    try:
        family = obj["family"]
        params = obj["params"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed distribution spec: {obj!r}") from exc
    return make(family, **{k: float(v) for k, v in params.items()})
