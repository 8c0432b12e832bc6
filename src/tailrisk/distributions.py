"""Validated parameter containers and elementary evaluators for the eleven
supported distribution families.

Each family is an immutable value whose ``__init__`` validates its parameters,
with ``pdf``, ``cdf``, ``quantile``, ``tail_quantile`` (the upper quantile as a
stable function of the tail probability), ``mean``, ``variance``, ``support``
and ``sample`` (numpy's normal and Student-t generators for Normal, LogNormal
and Student-t, the inverse transform for the rest). Moments that diverge are
reported as ``math.inf``, never as errors. ``make``/``from_json``/``to_json``
provide the CLI wire format ``{"family": ..., "params": {...}}``.

Each family writes its quantile once, as ``_quantile(alpha, eps)`` with
alpha + eps = 1: ``quantile(alpha)`` passes (alpha, 1 - alpha) and
``tail_quantile(eps)`` passes (1 - eps, eps) to ``_level_quantile``, and the
root engines pass their own pair as ``quantile(alpha, eps)``. The smaller
one keeps full precision; each formula reads its precision from it, and the
symmetric laws mirror their lower half at min(alpha, eps). So ``quantile(a)`` equals
``tail_quantile(1 - a)`` bit for bit on [0.5, 1). A quantile beyond binary64
is +inf, or -inf below the median of a law unbounded below; never
``OverflowError``.
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

# |xi| below this is treated as xi == 0 for GPD/GEV to avoid catastrophic
# cancellation near the branch switch
_XI_ZERO = 1e-9
_TINY = sys.float_info.min   # smallest normal float


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
        if power >= _TINY:
            return scale * power
    except OverflowError:
        pass
    return _exp_or_inf(math.log(scale) + p * math.log(base))


def _gamma_mean(c: float, a: float) -> float:
    """c (Gamma(a) - 1) for c != 0, a > 0: the Weibull and GEV mean, less c or
    mu. In logs where Gamma(a) overflows, so +-inf only beyond binary64."""
    if a < 171.0:
        return c * (math.gamma(a) - 1.0)
    return math.copysign(_exp_or_inf(math.log(abs(c)) + math.lgamma(a)), c)


def _gamma_variance(c: float, a1: float, a2: float) -> float:
    """c^2 (Gamma(a2) - Gamma(a1)^2) for a1 > 0 the midpoint of 1 and a2: the
    Weibull and GEV variance. Where Gamma(a2) overflows it is formed in logs
    as c^2 Gamma(a2) (1 - Gamma(a1)^2 / Gamma(a2)), so inf only beyond binary64."""
    if a2 < 171.0:
        g1 = math.gamma(a1)
        return c * (c * (math.gamma(a2) - g1 * g1))
    ln_g1, ln_g2 = math.lgamma(a1), math.lgamma(a2)
    return _exp_or_inf(2.0 * math.log(abs(c)) + ln_g2 + math.log1p(-math.exp(2.0 * ln_g1 - ln_g2)))


def _neg_log(x: float, comp: float) -> float:
    """-ln x for x + comp = 1, read from the smaller (exact) one of the two."""
    return -math.log1p(-comp) if comp < 0.5 else -math.log(x)


def _std_normal_quantile(alpha: float, eps: float) -> float:
    """Standard normal quantile at alpha = 1 - eps, mirrored from the lower half."""
    t = -_SQRT2 * specfun.erfc_inv(2.0 * min(alpha, eps))
    return t if alpha <= eps else -t


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
        return self._level_quantile(alpha, 1.0 - alpha if _eps is None else _eps)

    def tail_quantile(self, eps: float) -> float:
        """Upper quantile q_(1-eps) as a stable function of the tail mass."""
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        return self._level_quantile(1.0 - eps, eps)

    def _level_quantile(self, alpha: float, eps: float) -> float:
        """Quantile at alpha = 1 - eps; beyond binary64 it is -inf below the
        median of a law unbounded below, else +inf."""
        try:
            return self._quantile(alpha, eps)
        except OverflowError:
            return -math.inf if alpha < eps and self.support().lower == -math.inf else math.inf

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


class Exponential(Distribution):
    family = "exponential"

    def __init__(self, lam: float):
        _require(0 < lam < math.inf, "Exponential requires finite lam > 0, got {}", lam)
        self.__dict__.update(lam=lam)

    def pdf(self, x):
        return self.lam * math.exp(-self.lam * x) if x >= 0 else 0.0

    def cdf(self, x):
        return -math.expm1(-self.lam * x) if x >= 0 else 0.0

    def _quantile(self, alpha, eps):
        return _neg_log(eps, alpha) / self.lam

    def mean(self):
        return 1.0 / self.lam

    def variance(self):
        return 1.0 / self.lam ** 2

    def support(self):
        return SupportBound(0.0, math.inf)


class Pareto(Distribution):
    family = "pareto"

    def __init__(self, a: float, xm: float):
        _require(0 < a < math.inf, "Pareto requires finite shape a > 0, got {}", a)
        _require(0 < xm < math.inf, "Pareto requires finite scale xm > 0, got {}", xm)
        self.__dict__.update(a=a, xm=xm)

    def pdf(self, x):
        if x < self.xm:
            return 0.0
        return self.a * self.xm ** self.a / x ** (self.a + 1.0)

    def cdf(self, x):
        if x < self.xm:
            return 0.0
        return 1.0 - (self.xm / x) ** self.a

    def _quantile(self, alpha, eps):
        return _scaled_power(self.xm, eps, -1.0 / self.a)

    def mean(self):
        return math.inf if self.a <= 1.0 else self.a * self.xm / (self.a - 1.0)

    def variance(self):
        if self.a <= 2.0:
            return math.inf
        return self.a * self.xm ** 2 / ((self.a - 1.0) ** 2 * (self.a - 2.0))

    def support(self):
        return SupportBound(self.xm, math.inf)


class GPD(Distribution):
    """Generalized Pareto with location mu, scale s, shape xi."""

    family = "gpd"

    def __init__(self, mu: float, s: float, xi: float):
        _require(0 < s < math.inf, "GPD requires finite scale s > 0, got {}", s)
        _require(math.isfinite(mu), "GPD requires finite mu, got {}", mu)
        _require(math.isfinite(xi), "GPD requires finite xi, got {}", xi)
        self.__dict__.update(mu=mu, s=s, xi=xi)

    @property
    def _xi0(self) -> bool:
        return abs(self.xi) < _XI_ZERO

    def support(self):
        if self.xi < -_XI_ZERO:
            return SupportBound(self.mu, self.mu - self.s / self.xi)
        return SupportBound(self.mu, math.inf)

    def pdf(self, x):
        lo, hi = self.support()
        if x < lo or x > hi:
            return 0.0
        z = (x - self.mu) / self.s
        if self._xi0:
            return math.exp(-z) / self.s
        t = 1.0 + self.xi * z
        if t <= 0.0:
            return 0.0
        return t ** (-1.0 / self.xi - 1.0) / self.s

    def cdf(self, x):
        lo, hi = self.support()
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        z = (x - self.mu) / self.s
        if self._xi0:
            return -math.expm1(-z)
        return -math.expm1(-math.log1p(self.xi * z) / self.xi)

    def _quantile(self, alpha, eps):
        y = _neg_log(eps, alpha)
        if self._xi0:
            return self.mu + self.s * y
        return self.mu + self.s * math.expm1(self.xi * y) / self.xi

    def mean(self):
        if self.xi >= 1.0:
            return math.inf
        return self.mu + self.s / (1.0 - self.xi)

    def variance(self):
        if self.xi >= 0.5:
            return math.inf
        return self.s ** 2 / ((1.0 - self.xi) ** 2 * (1.0 - 2.0 * self.xi))


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
        return 2.0 * self.b ** 2

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
        return self.sigma ** 2

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
        z = (math.log(x) - self.mu) / self.s
        return math.exp(-0.5 * z * z) / (x * self.s * _SQRT_2PI)

    def cdf(self, x):
        if x <= 0:
            return 0.0
        z = (math.log(x) - self.mu) / (self.s * _SQRT2)
        return 0.5 * math.erfc(-z)

    def _quantile(self, alpha, eps):
        return math.exp(self.mu + self.s * _std_normal_quantile(alpha, eps))

    def mean(self):
        return math.exp(self.mu + 0.5 * self.s ** 2)

    def variance(self):
        return math.expm1(self.s ** 2) * math.exp(2.0 * self.mu + self.s ** 2)

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
        return 1.0 / (1.0 + math.exp(-(x - self.mu) / self.s))

    def _quantile(self, alpha, eps):
        p = min(alpha, eps)   # ln(p / (1 - p)), in log1p near the median where it cancels
        t = math.log1p((2.0 * p - 1.0) / (1.0 - p)) if p > 0.25 else math.log(p) - math.log1p(-p)
        return self.mu + self.s * (t if alpha <= eps else -t)

    def mean(self):
        return self.mu

    def variance(self):
        return self.s ** 2 * math.pi ** 2 / 3.0

    def support(self):
        return SupportBound(-math.inf, math.inf)


class StudentT(Distribution):
    """Generalized Student-t with degrees of freedom nu, scale s, location mu."""

    family = "student-t"

    def __init__(self, nu: float, s: float = 1.0, mu: float = 0.0):
        _require(0 < nu < math.inf, "StudentT requires finite nu > 0, got {}", nu)
        _require(0 < s < math.inf, "StudentT requires finite scale s > 0, got {}", s)
        _require(math.isfinite(mu), "StudentT requires finite mu, got {}", mu)
        self.__dict__.update(nu=nu, s=s, mu=mu)

    def _ln_c(self) -> float:
        """Log of the standardized density's constant, 1 / (sqrt(nu) B(nu/2, 1/2))."""
        return -specfun.ln_beta(0.5 * self.nu, 0.5) - 0.5 * math.log(self.nu)

    def std_pdf(self, t: float) -> float:
        """Density of the standardized (s=1, mu=0) variate."""
        return math.exp(self._ln_c() - 0.5 * (self.nu + 1.0) * math.log1p(t * t / self.nu))

    def std_cdf(self, t: float) -> float:
        """Cdf of the standardized variate."""
        return self._std_tails(t)[0]

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
        ln_z = math.log(nu) - 2.0 * math.log(abs(t)) - math.log1p(nu / t2)
        if ln_z < -40.0:
            tail = math.exp(a * ln_z + self._ln_c()) / math.sqrt(nu)
        else:
            tail = 0.5 * specfun.reg_inc_beta(nu / (nu + t2), a, 0.5)
        return (tail, 1.0 - tail) if t <= 0 else (1.0 - tail, tail)

    def _std_lower_quantile(self, p: float) -> float:
        """Standardized quantile for p <= 0.5, where 2p = I_z(nu/2, 1/2), z = nu / (nu + t^2).

        For nu >= 1000 and w^2 <= nu / 200, w the Normal quantile, it is the Normal
        limit to 1/nu^4 (Abramowitz & Stegun 26.7.5; Hill 1970). Its truncation is
        the g5 / nu^5 term, about 1e-15 relative at the corner nu = 1000, w^2 = 5,
        and smaller elsewhere in the region. Where the asymptote
        2p ~ z^(nu/2) / (nu/2 B(nu/2, 1/2)) is exact to rounding it gives t in closed
        form, even where z underflows. Elsewhere reg_inc_beta_inv solves for z, or
        for 1 - z where z is near 1 and 1 - 2p still carries p, so
        t = -sqrt(nu (1 - z) / z) does not cancel.
        """
        nu, a = self.nu, 0.5 * self.nu
        if nu >= 1e3:
            w = _std_normal_quantile(p, 1.0 - p)
            if 200.0 * w * w <= nu:
                return w * _hill_ratio(w * w, 1.0 / nu)
        x = p * math.sqrt(nu) * math.exp(-self._ln_c())   # 2p a B(a, 1/2) ~ z^a
        ln_z = math.log(x) / a
        if ln_z < -40.0:   # relative error of the asymptote < z; an overflow is -inf
            return -_scaled_power(math.sqrt(nu), x, -1.0 / nu)
        if -math.expm1(ln_z) < 2.0 * p:   # 1 - z is the smaller error of the two
            y = specfun.reg_inc_beta_inv(1.0 - 2.0 * p, 0.5, a)
            return -math.sqrt(nu * y / (1.0 - y))
        z = specfun.reg_inc_beta_inv(2.0 * p, a, 0.5)
        return -math.sqrt(nu * (1.0 - z) / z)

    def pdf(self, x):
        return self.std_pdf((x - self.mu) / self.s) / self.s

    def cdf(self, x):
        return self.std_cdf((x - self.mu) / self.s)

    def _quantile(self, alpha, eps):
        t = self._std_lower_quantile(min(alpha, eps))
        return self.mu + self.s * (t if alpha <= eps else -t)

    def mean(self):
        return math.inf if self.nu <= 1.0 else self.mu

    def variance(self):
        if self.nu <= 2.0:
            return math.inf
        return self.s ** 2 * self.nu / (self.nu - 2.0)

    def support(self):
        return SupportBound(-math.inf, math.inf)


class Weibull(Distribution):
    family = "weibull"

    def __init__(self, lam: float, k: float):
        _require(0 < lam < math.inf, "Weibull requires finite scale lam > 0, got {}", lam)
        _require(0 < k < math.inf, "Weibull requires finite shape k > 0, got {}", k)
        self.__dict__.update(lam=lam, k=k)

    def pdf(self, x):
        if x < 0:
            return 0.0
        z = x / self.lam
        if z == 0.0:
            if self.k == 1.0:
                return 1.0 / self.lam
            return math.inf if self.k < 1.0 else 0.0
        return self.k / self.lam * z ** (self.k - 1.0) * math.exp(-z ** self.k)

    def cdf(self, x):
        if x < 0:
            return 0.0
        return -math.expm1(-((x / self.lam) ** self.k))

    def _quantile(self, alpha, eps):
        return _scaled_power(self.lam, _neg_log(eps, alpha), 1.0 / self.k)

    def mean(self):
        return self.lam + _gamma_mean(self.lam, 1.0 + 1.0 / self.k)

    def variance(self):
        return _gamma_variance(self.lam, 1.0 + 1.0 / self.k, 1.0 + 2.0 / self.k)

    def support(self):
        return SupportBound(0.0, math.inf)


class LogLogistic(Distribution):
    family = "loglogistic"

    def __init__(self, a: float, b: float):
        _require(0 < a < math.inf, "LogLogistic requires finite scale a > 0, got {}", a)
        _require(0 < b < math.inf, "LogLogistic requires finite shape b > 0, got {}", b)
        self.__dict__.update(a=a, b=b)

    def pdf(self, x):
        if x < 0:
            return 0.0
        if x == 0:
            if self.b == 1.0:
                return self.b / self.a
            return math.inf if self.b < 1.0 else 0.0
        z = x / self.a
        return (self.b / self.a) * z ** (self.b - 1.0) / (1.0 + z ** self.b) ** 2

    def cdf(self, x):
        if x <= 0:
            return 0.0
        return 1.0 / (1.0 + (x / self.a) ** (-self.b))

    def _quantile(self, alpha, eps):
        odds = alpha / eps
        if odds == math.inf:   # overflowed without raising: the log route, from the parts
            return _exp_or_inf(math.log(self.a) + (math.log(alpha) - math.log(eps)) / self.b)
        return _scaled_power(self.a, odds, 1.0 / self.b)

    def mean(self):
        if self.b <= 1.0:
            return math.inf
        c = math.pi / self.b
        return self.a * c / math.sin(c)

    def variance(self):
        if self.b <= 2.0:
            return math.inf
        c = math.pi / self.b
        m1 = c / math.sin(c)
        m2 = 2.0 * c / math.sin(2.0 * c)
        return self.a ** 2 * (m2 - m1 * m1)

    def support(self):
        return SupportBound(0.0, math.inf)


class GEV(Distribution):
    """Generalized extreme value with location mu, scale s, shape xi."""

    family = "gev"

    def __init__(self, mu: float, s: float, xi: float):
        _require(0 < s < math.inf, "GEV requires finite scale s > 0, got {}", s)
        _require(math.isfinite(mu), "GEV requires finite mu, got {}", mu)
        _require(math.isfinite(xi), "GEV requires finite xi, got {}", xi)
        self.__dict__.update(mu=mu, s=s, xi=xi)

    @property
    def _xi0(self) -> bool:
        return abs(self.xi) < _XI_ZERO

    def support(self):
        if self._xi0:
            return SupportBound(-math.inf, math.inf)
        if self.xi > 0:
            return SupportBound(self.mu - self.s / self.xi, math.inf)
        return SupportBound(-math.inf, self.mu - self.s / self.xi)

    def _t_of(self, x: float) -> float:
        """(1 + xi z)^(-1/xi), the survival kernel; inf/0 outside support."""
        z = (x - self.mu) / self.s
        if self._xi0:
            return math.exp(-z)
        base = 1.0 + self.xi * z
        if base <= 0.0:
            return math.inf if self.xi > 0 else 0.0
        return base ** (-1.0 / self.xi)

    def pdf(self, x):
        lo, hi = self.support()
        if x <= lo or x >= hi:
            return 0.0
        z = (x - self.mu) / self.s
        if self._xi0:
            t = math.exp(-z)
            return t * math.exp(-t) / self.s
        base = 1.0 + self.xi * z
        t = base ** (-1.0 / self.xi)
        return base ** (-1.0 / self.xi - 1.0) * math.exp(-t) / self.s

    def cdf(self, x):
        lo, hi = self.support()
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        return math.exp(-self._t_of(x))

    def _quantile(self, alpha, eps):
        y = _neg_log(alpha, eps)
        if self._xi0:
            return self.mu - self.s * math.log(y)
        return self.mu + self.s * math.expm1(-self.xi * math.log(y)) / self.xi

    def mean(self):
        if self._xi0:
            return self.mu + self.s * specfun.EULER_GAMMA
        if self.xi >= 1.0:
            return math.inf
        return self.mu + _gamma_mean(self.s / self.xi, 1.0 - self.xi)

    def variance(self):
        if self._xi0:
            return self.s ** 2 * math.pi ** 2 / 6.0
        if self.xi >= 0.5:
            return math.inf
        return _gamma_variance(self.s / self.xi, 1.0 - self.xi, 1.0 - 2.0 * self.xi)


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
