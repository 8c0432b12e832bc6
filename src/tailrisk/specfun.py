"""Self-contained special-function kernel, each kernel over the range its callers reach.

The inverse complementary error function on (0, 1], the normal tail 2 min(alpha, eps)
(Wichura's AS241 plus one Newton step); the incomplete gamma functions from a = 1, where
the Weibull superquantile reads a = 1 + 1/k; the beta function and the incomplete beta,
whose inverse the Student-t quantile forms itself;
ln Gamma(1 - x) less its linear term and ln(a B(a, 1/2)) / a from it; the lower branch
W_-1 of Lambert W on [-2/e^2, 0), the Laplace bPOE's; and the binary entropy function.
Outside those ranges they raise ``DomainError``. All are pure, scalar and deterministic;
the only dependency is the standard-library ``math``, whose ``erf`` and ``erfc`` are
bound here by name.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606065120900824024

_SQRT_PI = math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)
_SQRT8 = math.sqrt(8.0)
_LN2 = math.log(2.0)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LAMBERT_FLOOR = -2.0 * math.exp(-2.0) * (1.0 + 1e-15)


erf = math.erf
erfc = math.erfc


# Wichura's AS241 (Applied Statistics 37, 1988): the standard normal quantile at
# p = 1/2 + q to about 1e-16 relative as num(r) / den(r), polynomials of degree 7
# given constant term first: in r = 0.180625 - q^2 (times q) for |q| <= 0.425,
# else in r = sqrt(-ln min(p, 1 - p)) less 1.6 up to r = 5 and less 5 beyond.
_AS241 = (
    ((3.387132872796366608, 133.14166789178437745, 1971.5909503065514427,
      13731.693765509461125, 45921.953931549871457, 67265.770927008700853,
      33430.575583588128105, 2509.0809287301226727),
     (1.0, 42.313330701600911252, 687.1870074920579083, 5394.1960214247511077,
      21213.794301586595867, 39307.89580009271061, 28729.085735721942674,
      5226.495278852854561)),
    ((1.42343711074968357734, 4.6303378461565452959, 5.7694972214606914055,
      3.64784832476320460504, 1.27045825245236838258, 0.24178072517745061177,
      0.0227238449892691845833, 7.7454501427834140764e-4),
     (1.0, 2.05319162663775882187, 1.6763848301838038494, 0.68976733498510000455,
      0.14810397642748007459, 0.0151986665636164571966, 5.475938084995344946e-4,
      1.05075007164441684324e-9)),
    ((6.6579046435011037772, 5.4637849111641143699, 1.7848265399172913358,
      0.29656057182850489123, 0.026532189526576123093, 0.0012426609473880784386,
      2.71155556874348757815e-5, 2.01033439929228813265e-7),
     (1.0, 0.59983220655588793769, 0.13692988092273580531, 0.0148753612908506148525,
      7.868691311456132591e-4, 1.8463183175100546818e-5, 1.4215117583164458887e-7,
      2.04426310338993978564e-15)),
)


def _as241_ratio(k: int, r: float) -> float:
    num, den = _AS241[k]
    return ((((((((num[7] * r + num[6]) * r + num[5]) * r + num[4]) * r + num[3]) * r
               + num[2]) * r + num[1]) * r + num[0])
            / (((((((den[7] * r + den[6]) * r + den[5]) * r + den[4]) * r + den[3]) * r
                 + den[2]) * r + den[1]) * r + 1.0))


def _as241(t: float) -> float:
    """The x >= 0 with erfc(x) = t, t in (0, 1]: AS241 at p = 1 - t / 2, so q = (1 - t) / 2
    and min(p, 1 - p) = t / 2, divided by sqrt 2. Tiny or subnormal t keeps its relative
    precision, as does 1 - t near 0."""
    d = 1.0 - t
    if d <= 0.85:
        return d * (_as241_ratio(0, 0.180625 - 0.25 * d * d) / _SQRT8)
    r = math.sqrt(_LN2 - math.log(t))
    return (_as241_ratio(1, r - 1.6) if r <= 5.0 else _as241_ratio(2, r - 5.0)) / _SQRT2


def erf_inv(p: float) -> float:
    """Removed: every caller reads ``erfc_inv`` at the smaller tail. The name stays only
    because the benchmark's tracer binds it."""
    raise NotImplementedError("erf_inv is removed")


def erfc_inv(y: float) -> float:
    """Inverse complementary error function on (0, 1], its callers' 2 min(alpha, eps),
    within 1e-15 relative for tiny and subnormal y too: AS241, then exactly one Newton
    step on ln erfc(x) = ln y, skipped where erfc(x) is subnormal. The step takes
    AS241's few ulps off x, which exp(-x^2) in the Normal superquantile would multiply
    by 2 x^2."""
    if not 0.0 < y <= 1.0:
        raise DomainError(f"erfc_inv requires y in (0, 1], got {y}")
    x = _as241(y)
    e = math.erfc(x)
    if e >= sys.float_info.min:
        x += (math.log(e) - math.log(y)) * _SQRT_PI * e / (2.0 * math.exp(-x * x))
    return x


def gamma_fn(a: float) -> float:
    """Gamma function for a > 0."""
    if a <= 0.0:
        raise DomainError(f"gamma_fn requires a > 0, got {a}")
    return math.gamma(a)


# zeta(2), ..., zeta(28): ln Gamma(1 - x) = gamma x + sum zeta(k) x^k / k (DLMF 5.7.3)
_ZETA = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
         1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
         1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
         1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379,
         1.000003817293265, 1.0000019082127165, 1.0000009539620338, 1.0000004769329869,
         1.0000002384505027, 1.000000119219926, 1.000000059608189, 1.0000000298035034,
         1.0000000149015549, 1.0000000074507118, 1.000000003725334)
_ZETA_SERIES = tuple(z / k for k, z in reversed(tuple(enumerate(_ZETA, 2))))


def ln_gamma_1m_remainder(x: float) -> float:
    """T(x) = (ln Gamma(1 - x) - gamma x) / x^2 for x < 1: the series sum zeta(k) x^(k-2) / k
    for |x| <= 1/4, where that difference cancels, truncated at k = 28, 15 or 6 by |x|
    (terms below 1e-17); beyond, from math.lgamma, and past -2^60 Stirling's limit."""
    if -0.25 <= x <= 0.25:
        total, ax = 0.0, abs(x)
        for c in _ZETA_SERIES[0 if ax > 0.0625 else (13 if ax > 1e-4 else 22):]:
            total = total * x + c
        return total
    if x < -2.0 ** 60:
        return (1.0 - EULER_GAMMA - math.log(-x)) / x
    return (math.lgamma(1.0 - x) / x - EULER_GAMMA) / x


def ln_a_beta_half(a: float) -> float:
    """ln(a B(a, 1/2)) / a = 2 ln 2 - a (4 T(-2a) - 2 T(-a)), T = ln_gamma_1m_remainder, by
    Legendre's duplication: no lgamma rounding, which ln a + ln B(a, 1/2) carries at |ln a| ulp."""
    return 2.0 * (_LN2 - a * (2.0 * ln_gamma_1m_remainder(-2.0 * a) - ln_gamma_1m_remainder(-a)))


def _half_beta_complement(y: float, b: float) -> float:
    """1 - I_y(b, 1/2) for y <= 1/2, where 1 minus the sum cancels as b -> 0: with
    B I_y = y^b (1/b + sum_{n >= 1} c_n y^n / (n + b)), c_n = (1/2)_n / n!, and
    ln(b B) = b ln_a_beta_half(b), it is -expm1(e) - b e^e sum, e = b (ln y - ln_a_beta_half(b))."""
    total, c, n = 0.0, 1.0, 0.0
    while c > 1e-17 * total:
        n += 1.0
        c *= (n - 0.5) / n * y
        total += c / (n + b)
    e = b * (math.log(y) - ln_a_beta_half(b))
    return -math.expm1(e) - b * math.exp(e) * total


def _gamma_p_series(a: float, x: float) -> float:
    # lower incomplete gamma times e^x x^-a by power series, for x < a + 1
    term = 1.0 / a
    total = term
    n = a
    for _ in range(500):
        n += 1.0
        term *= x / n
        total += term
        if term < total * 1e-17:   # a > 0, x >= 0: no term is negative
            break
    return total


def _gamma_q_cf(a: float, x: float) -> float:
    # upper incomplete gamma times e^x x^-a by continued fraction (modified Lentz)
    b = x + 1.0 - a
    c = 1e300
    d = 1.0 / b if b != 0.0 else 1e300
    h = d
    i = 0.0   # a float counter, as in _beta_cf
    for _ in range(499):
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if -1e-300 < d < 1e-300:
            d = 1e-300
        c = b + an / c
        if -1e-300 < c < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -1e-16 < delta - 1.0 < 1e-16:
            break
    return h


def _reg_gamma(a: float, b: float) -> tuple[float, float]:
    """Regularized (lower, upper) incomplete gamma pair for a >= 1: its callers read
    a = 1 - xi > 2 (the GEV superquantile below xi = -1) and a = 1 + 1/k (Weibull)."""
    if not a >= 1.0:
        raise DomainError(f"incomplete gamma requires a >= 1, got {a}")
    if b < 0.0:
        raise DomainError(f"incomplete gamma requires b >= 0, got {b}")
    if b == 0.0:
        return 0.0, 1.0
    front = math.exp(-b + a * math.log(b) - math.lgamma(a))
    if b < a + 1.0:
        p = _gamma_p_series(a, b) * front
        return p, 1.0 - p
    q = _gamma_q_cf(a, b) * front
    return 1.0 - q, q


def upper_inc_gamma(a: float, b: float) -> float:
    """Upper incomplete gamma: integral of p^(a-1) e^(-p) over [b, inf), for a >= 1, where
    Q read as 1 - P below b = a + 1 keeps its digits (Q > 0.13 there)."""
    return _inc_gamma(a, b, True)


def lower_inc_gamma(a: float, b: float) -> float:
    """Lower incomplete gamma: integral of p^(a-1) e^(-p) over [0, b], for a >= 1."""
    return _inc_gamma(a, b, False)


def _inc_gamma(a: float, b: float, upper: bool) -> float:
    """The upper or lower incomplete gamma; e^ln_inc_gamma where Gamma(a) overflows
    (a > 171) or the regularized value is below the normal floats, inf beyond binary64."""
    value = _reg_gamma(a, b)[upper]
    if a <= 171.0 and value >= sys.float_info.min:
        return value * math.gamma(a)
    log_value = ln_inc_gamma(a, b, upper)
    return math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf


def ln_inc_gamma(a: float, b: float, upper: bool) -> float:
    """ln of the upper or lower incomplete gamma for a >= 1: ln(b^a e^-b) plus the log of
    the sum that computes it directly, else ln Gamma(a) plus the log of the regularized
    value, where the other sum rounds to 1; ``_reg_gamma`` also checks the domain."""
    if (b < a + 1.0) == upper or not (a >= 1.0 and b > 0.0):   # 0 at b = 0, or raises
        value = _reg_gamma(a, b)[upper]
        return math.log(value) + math.lgamma(a) if value > 0.0 else -math.inf
    return math.log(_gamma_q_cf(a, b) if upper else _gamma_p_series(a, b)) + a * math.log(b) - b


# Stirling series coefficients B_2k / (2k (2k - 1)) of ln Gamma, k = 1..7
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0)


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi) / 2, to 1e-16 for z >= 10."""
    r = 1.0 / (z * z)
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * r + c
    return total / z


def ln_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b) for a, b > 0.

    Where the larger argument b is at least 10, ln Gamma(b) - ln Gamma(a + b)
    is formed as -a ln b - (a + b - 1/2) log1p(a / b) + a + delta(b) -
    delta(a + b), delta the Stirling tail, so the digits that lgamma(b) and
    lgamma(a + b) carry beyond ln B do not cancel (as in TOMS 708 algdiv,
    DiDonato and Morris 1992).
    """
    if a > b:
        a, b = b, a
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(a) - a * math.log(b) - (a + b - 0.5) * math.log1p(a / b) + a
            + _stirling_tail(b) - _stirling_tail(a + b))


def _beta_cf(a: float, b: float, x: float) -> float:
    # continued fraction for the incomplete beta (modified Lentz)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -1e-300 < d < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    m = 0.0   # float counters, exact: no int-to-float conversion per operation
    for _ in range(499):
        m += 1.0
        m2 = m + m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if -1e-300 < d < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if -1e-300 < c < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if -1e-300 < d < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if -1e-300 < c < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -1e-16 < delta - 1.0 < 1e-16:
            break
    return h


def reg_inc_beta(t: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_t(a, b) for t in [0, 1].

    The continued fraction's prefactor t^a (1 - t)^b / (c B(a, b)), c = a below
    the switch (a + 1) / (a + b + 2) and b above it, is one exponential: where
    it underflows the result is 0, or 1 above the switch, without the
    fraction. A result within 1e-12 of [0, 1], the prefactor's rounding at
    exponents near 700, is clamped to it; where the prefactor would pass the
    largest float, or the result lies further out, binary64 does not resolve
    the arguments and DomainError is raised.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"reg_inc_beta requires t in [0, 1], got {t}")
    if t == 0.0:
        return 0.0
    if t == 1.0:
        return 1.0
    below = t < (a + 1.0) / (a + b + 2.0)
    ln_front = a * math.log(t) + b * math.log1p(-t) - ln_beta(a, b) - math.log(a if below else b)
    if not ln_front < _LOG_FLOAT_MAX:
        raise DomainError(f"reg_inc_beta({t}, {a}, {b}): the prefactor leaves binary64")
    front = math.exp(ln_front)
    if front == 0.0:
        return 0.0 if below else 1.0
    value = front * _beta_cf(a, b, t) if below else 1.0 - front * _beta_cf(b, a, 1.0 - t)
    if 0.0 <= value <= 1.0:
        return value
    if not -1e-12 <= value <= 1.0 + 1e-12:   # NaN, or beyond the prefactor's rounding
        raise DomainError(f"reg_inc_beta({t}, {a}, {b}) = {value} leaves [0, 1]")
    return 0.0 if value < 0.0 else 1.0


def reg_inc_beta_inv(p: float, a: float, b: float) -> float:
    """Removed: its one caller, the Student-t quantile, inverts its own CDF. The name stays
    only because the benchmark's tracer binds it."""
    raise NotImplementedError("reg_inc_beta_inv is removed")


def inc_beta(y: float, a1: float, a2: float) -> float:
    """Unregularized incomplete beta: integral of p^(a1-1) (1-p)^(a2-1) over [0, y]."""
    if a1 <= 0.0 or a2 <= 0.0:
        raise DomainError(f"inc_beta requires a1, a2 > 0, got a1={a1}, a2={a2}")
    return reg_inc_beta(y, a1, a2) * math.exp(ln_beta(a1, a2))


def lambert_w(y: float) -> float:
    """Lower real branch W_-1 of Lambert W on [-2/e^2, 0), where w <= -2: the range of the
    Laplace bPOE's y = -2z e^(-z-1), z in (0, 1), whose rounding the 1e-15 slack below
    -2/e^2 admits. Newton on w + ln(-w) = ln(-y), which keeps its precision where w e^w
    underflows (y subnormal); the function is concave, so from the second step on the
    iterates rise to the root, within 6 steps."""
    if not _LAMBERT_FLOOR <= y < 0.0:
        raise DomainError(f"lambert_w requires y in [-2/e^2, 0), got {y}")
    log_my = math.log(-y)
    w = log_my - math.log(-log_my)
    for _ in range(10):
        step = (w + math.log(-w) - log_my) * w / (w + 1.0)
        w -= step
        if abs(step) <= 1e-15 * -w:
            break
    return w


def log_integral(x: float) -> float:
    """Removed: the GEV superquantile at xi = 0 reads ``ln_gamma_1m_remainder``.
    The name stays only because the benchmark's tracer binds it."""
    raise NotImplementedError("log_integral is removed")


def binary_entropy(alpha: float) -> float:
    """Binary entropy -a ln(a) - (1-a) ln(1-a), with 0 ln 0 := 0."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"binary_entropy requires alpha in [0, 1], got {alpha}")
    if alpha == 0.0 or alpha == 1.0:
        return 0.0
    return -alpha * math.log(alpha) - (1.0 - alpha) * math.log1p(-alpha)
