"""Validated parameter containers and elementary evaluators for the eleven
supported distribution families.

Each family is an immutable dataclass exposing ``pdf``, ``cdf``, ``quantile``,
``tail_quantile`` (the upper quantile as a stable function of the tail
probability), ``mean``, ``variance``, ``support`` and ``sample`` (numpy's
normal and Student-t generators for Normal, LogNormal and Student-t, the
inverse transform for the rest). Moments that diverge are reported as
``math.inf``, never as errors. ``make``/``from_json``/``to_json`` provide the
CLI wire format ``{"family": ..., "params": {...}}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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


class SupportBound(NamedTuple):
    lower: float
    upper: float


def _require(condition: bool, message: str, value: float) -> None:
    if not condition:
        raise ParameterError(message.format(value))


def _gamma_or_inf(z: float) -> float:
    """Gamma(z) for z > 0; inf where it exceeds binary64, which is its rounding."""
    try:
        return math.gamma(z)
    except OverflowError:
        return math.inf


def _check_prob_open(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"quantile level must lie in (0, 1), got {alpha}")


# --- family classes --------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """Common surface for the parametric families."""

    family: ClassVar[str] = ""

    def __post_init__(self):
        self._validate()

    def _validate(self) -> None:
        raise NotImplementedError

    # elementary evaluators; subclasses override
    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def quantile(self, alpha: float) -> float:
        raise NotImplementedError

    def tail_quantile(self, eps: float) -> float:
        """Upper quantile q_(1-eps) as a stable function of the tail mass."""
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        return self.quantile(1.0 - eps)

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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> dict:
        return {"family": self.family, "params": self.params()}


@dataclass(frozen=True)
class Exponential(Distribution):
    lam: float
    family: ClassVar[str] = "exponential"

    def _validate(self):
        _require(0 < self.lam < math.inf, "Exponential requires finite lam > 0, got {}", self.lam)

    def pdf(self, x):
        return self.lam * math.exp(-self.lam * x) if x >= 0 else 0.0

    def cdf(self, x):
        return -math.expm1(-self.lam * x) if x >= 0 else 0.0

    def quantile(self, alpha):
        _check_prob_open(alpha)
        return -math.log1p(-alpha) / self.lam

    def tail_quantile(self, eps):
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        return -math.log(eps) / self.lam

    def mean(self):
        return 1.0 / self.lam

    def variance(self):
        return 1.0 / self.lam ** 2

    def support(self):
        return SupportBound(0.0, math.inf)


@dataclass(frozen=True)
class Pareto(Distribution):
    a: float
    xm: float
    family: ClassVar[str] = "pareto"

    def _validate(self):
        _require(0 < self.a < math.inf, "Pareto requires finite shape a > 0, got {}", self.a)
        _require(0 < self.xm < math.inf, "Pareto requires finite scale xm > 0, got {}", self.xm)

    def pdf(self, x):
        if x < self.xm:
            return 0.0
        return self.a * self.xm ** self.a / x ** (self.a + 1.0)

    def cdf(self, x):
        if x < self.xm:
            return 0.0
        return 1.0 - (self.xm / x) ** self.a

    def quantile(self, alpha):
        _check_prob_open(alpha)
        return self.xm * (1.0 - alpha) ** (-1.0 / self.a)

    def tail_quantile(self, eps):
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        return self.xm * eps ** (-1.0 / self.a)

    def mean(self):
        return math.inf if self.a <= 1.0 else self.a * self.xm / (self.a - 1.0)

    def variance(self):
        if self.a <= 2.0:
            return math.inf
        return self.a * self.xm ** 2 / ((self.a - 1.0) ** 2 * (self.a - 2.0))

    def support(self):
        return SupportBound(self.xm, math.inf)


@dataclass(frozen=True)
class GPD(Distribution):
    """Generalized Pareto with location mu, scale s, shape xi."""

    mu: float
    s: float
    xi: float
    family: ClassVar[str] = "gpd"

    def _validate(self):
        _require(0 < self.s < math.inf, "GPD requires finite scale s > 0, got {}", self.s)
        _require(math.isfinite(self.mu), "GPD requires finite mu, got {}", self.mu)
        _require(math.isfinite(self.xi), "GPD requires finite xi, got {}", self.xi)

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

    def quantile(self, alpha):
        _check_prob_open(alpha)
        if self._xi0:
            return self.mu - self.s * math.log1p(-alpha)
        return self.mu + self.s * math.expm1(-self.xi * math.log1p(-alpha)) / self.xi

    def tail_quantile(self, eps):
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        if self._xi0:
            return self.mu - self.s * math.log(eps)
        return self.mu + self.s * math.expm1(-self.xi * math.log(eps)) / self.xi

    def mean(self):
        if self.xi >= 1.0:
            return math.inf
        return self.mu + self.s / (1.0 - self.xi)

    def variance(self):
        if self.xi >= 0.5:
            return math.inf
        return self.s ** 2 / ((1.0 - self.xi) ** 2 * (1.0 - 2.0 * self.xi))


@dataclass(frozen=True)
class Laplace(Distribution):
    mu: float
    b: float
    family: ClassVar[str] = "laplace"

    def _validate(self):
        _require(0 < self.b < math.inf, "Laplace requires finite scale b > 0, got {}", self.b)
        _require(math.isfinite(self.mu), "Laplace requires finite mu, got {}", self.mu)

    def pdf(self, x):
        return math.exp(-abs(x - self.mu) / self.b) / (2.0 * self.b)

    def cdf(self, x):
        z = (x - self.mu) / self.b
        if z < 0:
            return 0.5 * math.exp(z)
        return 1.0 - 0.5 * math.exp(-z)

    def quantile(self, alpha):
        # sign(alpha - 0.5) taken as 0 at the median, so quantile(0.5) = mu
        _check_prob_open(alpha)
        if alpha == 0.5:
            return self.mu
        if alpha < 0.5:
            return self.mu + self.b * math.log(2.0 * alpha)
        return self.mu - self.b * math.log(2.0 * (1.0 - alpha))

    def tail_quantile(self, eps):
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        if eps > 0.5:
            return self.quantile(1.0 - eps)
        return self.mu - self.b * math.log(2.0 * eps)

    def mean(self):
        return self.mu

    def variance(self):
        return 2.0 * self.b ** 2

    def support(self):
        return SupportBound(-math.inf, math.inf)


@dataclass(frozen=True)
class Normal(Distribution):
    mu: float
    sigma: float
    family: ClassVar[str] = "normal"

    def _validate(self):
        _require(0 < self.sigma < math.inf, "Normal requires finite sigma > 0, got {}", self.sigma)
        _require(math.isfinite(self.mu), "Normal requires finite mu, got {}", self.mu)

    def pdf(self, x):
        z = (x - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    def cdf(self, x):
        z = (x - self.mu) / (self.sigma * _SQRT2)
        return 0.5 * math.erfc(-z)

    def quantile(self, alpha):
        _check_prob_open(alpha)
        if alpha < 0.5:
            return self.mu - self.sigma * _SQRT2 * specfun.erfc_inv(2.0 * alpha)
        if alpha > 0.5:
            return self.mu + self.sigma * _SQRT2 * specfun.erfc_inv(2.0 * (1.0 - alpha))
        return self.mu

    def tail_quantile(self, eps):
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        if eps >= 0.5:
            return self.quantile(1.0 - eps)
        return self.mu + self.sigma * _SQRT2 * specfun.erfc_inv(2.0 * eps)

    def mean(self):
        return self.mu

    def variance(self):
        return self.sigma ** 2

    def support(self):
        return SupportBound(-math.inf, math.inf)


@dataclass(frozen=True)
class LogNormal(Distribution):
    """log X ~ Normal(mu, s)."""

    mu: float
    s: float
    family: ClassVar[str] = "lognormal"

    def _validate(self):
        _require(0 < self.s < math.inf, "LogNormal requires finite log-scale s > 0, got {}", self.s)
        _require(math.isfinite(self.mu), "LogNormal requires finite mu, got {}", self.mu)

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

    def quantile(self, alpha):
        _check_prob_open(alpha)
        if alpha < 0.5:
            z = -specfun.erfc_inv(2.0 * alpha)
        elif alpha > 0.5:
            z = specfun.erfc_inv(2.0 * (1.0 - alpha))
        else:
            z = 0.0
        return math.exp(self.mu + self.s * _SQRT2 * z)

    def tail_quantile(self, eps):
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        if eps >= 0.5:
            return self.quantile(1.0 - eps)
        return math.exp(self.mu + self.s * _SQRT2 * specfun.erfc_inv(2.0 * eps))

    def mean(self):
        return math.exp(self.mu + 0.5 * self.s ** 2)

    def variance(self):
        return math.expm1(self.s ** 2) * math.exp(2.0 * self.mu + self.s ** 2)

    def support(self):
        return SupportBound(0.0, math.inf)


@dataclass(frozen=True)
class Logistic(Distribution):
    mu: float
    s: float
    family: ClassVar[str] = "logistic"

    def _validate(self):
        _require(0 < self.s < math.inf, "Logistic requires finite scale s > 0, got {}", self.s)
        _require(math.isfinite(self.mu), "Logistic requires finite mu, got {}", self.mu)

    def pdf(self, x):
        z = abs(x - self.mu) / self.s
        e = math.exp(-z)
        return e / (self.s * (1.0 + e) ** 2)

    def cdf(self, x):
        return 1.0 / (1.0 + math.exp(-(x - self.mu) / self.s))

    def quantile(self, alpha):
        _check_prob_open(alpha)
        return self.mu + self.s * (math.log(alpha) - math.log1p(-alpha))

    def tail_quantile(self, eps):
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        return self.mu + self.s * (math.log1p(-eps) - math.log(eps))

    def mean(self):
        return self.mu

    def variance(self):
        return self.s ** 2 * math.pi ** 2 / 3.0

    def support(self):
        return SupportBound(-math.inf, math.inf)


@dataclass(frozen=True)
class StudentT(Distribution):
    """Generalized Student-t with degrees of freedom nu, scale s, location mu."""

    nu: float
    s: float = 1.0
    mu: float = 0.0
    family: ClassVar[str] = "student-t"

    def _validate(self):
        _require(0 < self.nu < math.inf, "StudentT requires finite nu > 0, got {}", self.nu)
        _require(0 < self.s < math.inf, "StudentT requires finite scale s > 0, got {}", self.s)
        _require(math.isfinite(self.mu), "StudentT requires finite mu, got {}", self.mu)

    def _ln_c(self) -> float:
        return math.lgamma(0.5 * (self.nu + 1.0)) - math.lgamma(0.5 * self.nu) \
            - 0.5 * math.log(self.nu * math.pi)

    def std_pdf(self, t: float) -> float:
        """Density of the standardized (s=1, mu=0) variate."""
        return math.exp(self._ln_c() - 0.5 * (self.nu + 1.0) * math.log1p(t * t / self.nu))

    def std_cdf(self, t: float) -> float:
        """Cdf of the standardized variate from whichever of y = t^2 / (nu + t^2)
        and z = 1 - y reg_inc_beta sums directly, so neither cancels; below
        z = e^-40 the tail is its asymptote z^(nu/2) c / sqrt(nu), exact to rounding."""
        nu, a = self.nu, 0.5 * self.nu
        t2 = t * t
        if t2 * (a + 1.0) < 1.5 * nu:   # y below reg_inc_beta's switch (1/2 + 1) / (a + 5/2)
            half = 0.5 * specfun.reg_inc_beta(t2 / (nu + t2), 0.5, a)
            return 0.5 - half if t <= 0 else 0.5 + half
        ln_z = math.log(nu) - 2.0 * math.log(abs(t)) - math.log1p(nu / t2)
        if ln_z < -40.0:
            tail = math.exp(a * ln_z + self._ln_c()) / math.sqrt(nu)
        else:
            tail = 0.5 * specfun.reg_inc_beta(nu / (nu + t2), a, 0.5)
        return tail if t <= 0 else 1.0 - tail

    def _std_lower_quantile(self, p: float) -> float:
        """Standardized quantile for p <= 0.5, where 2p = I_z(nu/2, 1/2), z = nu / (nu + t^2).

        Where the asymptote 2p ~ z^(nu/2) / (nu/2 B(nu/2, 1/2)) is exact to
        rounding it gives t in closed form, even where z underflows. Elsewhere
        reg_inc_beta_inv solves for z, or for 1 - z where z is near 1 and 1 - 2p
        still carries p, so t = -sqrt(nu (1 - z) / z) does not cancel.
        """
        nu, a = self.nu, 0.5 * self.nu
        x = p * math.sqrt(nu) * math.exp(-self._ln_c())   # 2p a B(a, 1/2) ~ z^a
        ln_z = math.log(x) / a
        if ln_z < -40.0:   # relative error of the asymptote < z
            try:
                if nu < 1.0:   # nu^(-nu/2) < 1.21 keeps a finite t from overflowing
                    return -(x * nu ** -a) ** (-1.0 / nu)
                return -math.sqrt(nu) * x ** (-1.0 / nu)
            except OverflowError:
                return -math.inf
        if -math.expm1(ln_z) < 2.0 * p:   # 1 - z is the smaller error of the two
            y = specfun.reg_inc_beta_inv(1.0 - 2.0 * p, 0.5, a)
            return -math.sqrt(nu * y / (1.0 - y))
        z = specfun.reg_inc_beta_inv(2.0 * p, a, 0.5)
        return -math.sqrt(nu * (1.0 - z) / z)

    def pdf(self, x):
        return self.std_pdf((x - self.mu) / self.s) / self.s

    def cdf(self, x):
        return self.std_cdf((x - self.mu) / self.s)

    def quantile(self, alpha):
        _check_prob_open(alpha)
        t = self._std_lower_quantile(min(alpha, 1.0 - alpha))
        return self.mu + self.s * (t if alpha <= 0.5 else -t)

    def tail_quantile(self, eps):
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        if eps >= 0.5:
            return self.quantile(1.0 - eps)
        return self.mu - self.s * self._std_lower_quantile(eps)

    def mean(self):
        return math.inf if self.nu <= 1.0 else self.mu

    def variance(self):
        if self.nu <= 2.0:
            return math.inf
        return self.s ** 2 * self.nu / (self.nu - 2.0)

    def support(self):
        return SupportBound(-math.inf, math.inf)


@dataclass(frozen=True)
class Weibull(Distribution):
    lam: float
    k: float
    family: ClassVar[str] = "weibull"

    def _validate(self):
        _require(0 < self.lam < math.inf, "Weibull requires finite scale lam > 0, got {}", self.lam)
        _require(0 < self.k < math.inf, "Weibull requires finite shape k > 0, got {}", self.k)

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

    def quantile(self, alpha):
        _check_prob_open(alpha)
        return self.lam * (-math.log1p(-alpha)) ** (1.0 / self.k)

    def tail_quantile(self, eps):
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        return self.lam * (-math.log(eps)) ** (1.0 / self.k)

    def mean(self):
        return self.lam * _gamma_or_inf(1.0 + 1.0 / self.k)

    def variance(self):
        g1 = _gamma_or_inf(1.0 + 1.0 / self.k)
        g2 = _gamma_or_inf(1.0 + 2.0 / self.k)
        return self.lam ** 2 * (g2 - g1 * g1) if g2 < math.inf else math.inf

    def support(self):
        return SupportBound(0.0, math.inf)


@dataclass(frozen=True)
class LogLogistic(Distribution):
    a: float
    b: float
    family: ClassVar[str] = "loglogistic"

    def _validate(self):
        _require(0 < self.a < math.inf, "LogLogistic requires finite scale a > 0, got {}", self.a)
        _require(0 < self.b < math.inf, "LogLogistic requires finite shape b > 0, got {}", self.b)

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

    def quantile(self, alpha):
        _check_prob_open(alpha)
        return self.a * (alpha / (1.0 - alpha)) ** (1.0 / self.b)

    def tail_quantile(self, eps):
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        return self.a * ((1.0 - eps) / eps) ** (1.0 / self.b)

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


@dataclass(frozen=True)
class GEV(Distribution):
    """Generalized extreme value with location mu, scale s, shape xi."""

    mu: float
    s: float
    xi: float
    family: ClassVar[str] = "gev"

    def _validate(self):
        _require(0 < self.s < math.inf, "GEV requires finite scale s > 0, got {}", self.s)
        _require(math.isfinite(self.mu), "GEV requires finite mu, got {}", self.mu)
        _require(math.isfinite(self.xi), "GEV requires finite xi, got {}", self.xi)

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

    def quantile(self, alpha):
        _check_prob_open(alpha)
        y = -math.log(alpha)
        if self._xi0:
            return self.mu - self.s * math.log(y)
        return self.mu + self.s * math.expm1(-self.xi * math.log(y)) / self.xi

    def tail_quantile(self, eps):
        if not 0.0 < eps < 1.0:
            raise DomainError(f"tail probability must lie in (0, 1), got {eps}")
        y = -math.log1p(-eps)   # = -ln(1 - eps), accurate for tiny eps
        if self._xi0:
            return self.mu - self.s * math.log(y)
        return self.mu + self.s * math.expm1(-self.xi * math.log(y)) / self.xi

    def mean(self):
        if self._xi0:
            return self.mu + self.s * specfun.EULER_GAMMA
        if self.xi >= 1.0:
            return math.inf
        # -inf for xi < -170.6, where Gamma(1 - xi) overflows
        return self.mu + self.s * (_gamma_or_inf(1.0 - self.xi) - 1.0) / self.xi

    def variance(self):
        if self._xi0:
            return self.s ** 2 * math.pi ** 2 / 6.0
        if self.xi >= 0.5:
            return math.inf
        g1 = _gamma_or_inf(1.0 - self.xi)
        g2 = _gamma_or_inf(1.0 - 2.0 * self.xi)
        return self.s ** 2 * (g2 - g1 * g1) / self.xi ** 2 if g2 < math.inf else math.inf


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
    expected = {f.name for f in fields(cls)}
    unknown = set(params) - expected
    if unknown:
        raise ParameterError(
            f"{key} does not take parameter(s) {sorted(unknown)}; expected {sorted(expected)}")
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
