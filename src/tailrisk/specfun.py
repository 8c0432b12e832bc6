"""Self-contained special-function kernel.

Everything the closed-form tail formulas need lives here: error function and
its inverses (one evaluation of Wichura's AS241 for both, plus a single Newton
step in ``erfc_inv``), (incomplete) gamma and beta functions, ln Gamma(1 - x) less its
linear term and ln(a B(a, 1/2)) / a from it, the lower real branch W_-1 of Lambert W, the
logarithmic integral on (0, 1), and the binary entropy function. All functions are pure,
scalar, and deterministic; the only dependency is the standard-library ``math`` module.
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
_INV_E = math.exp(-1.0)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def erf(x: float) -> float:
    return math.erf(x)


def erfc(x: float) -> float:
    return math.erfc(x)


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


def _as241(d: float, t: float) -> float:
    """The x with erf(x) = d, given t = 1 - |d| exactly: AS241 at p = (1 + d) / 2,
    so q = d / 2 and min(p, 1 - p) = t / 2, divided by sqrt 2. Tiny or subnormal
    t keeps its relative precision, as does d near 0."""
    if abs(d) <= 0.85:
        return d * (_as241_ratio(0, 0.180625 - 0.25 * d * d) / _SQRT8)
    r = math.sqrt(_LN2 - math.log(t))
    x = (_as241_ratio(1, r - 1.6) if r <= 5.0 else _as241_ratio(2, r - 5.0)) / _SQRT2
    return x if d > 0.0 else -x


def erf_inv(p: float) -> float:
    """Inverse error function on the open interval (-1, 1): one AS241 evaluation,
    within 1e-15 relative, p = +-(1 - 1e-16) included."""
    if not -1.0 < p < 1.0:
        raise DomainError(f"erf_inv requires p in (-1, 1), got {p}")
    return _as241(p, 1.0 - abs(p))


def erfc_inv(y: float) -> float:
    """Inverse complementary error function on (0, 2), within 1e-15 relative for
    tiny and subnormal y too: AS241 at the smaller tail t = min(y, 2 - y), then
    exactly one Newton step on ln erfc(x) = ln t, skipped where erfc(x) is
    subnormal. The step takes AS241's few ulps off x, which exp(-x^2) in the
    Normal superquantile would multiply by 2 x^2."""
    if not 0.0 < y < 2.0:
        raise DomainError(f"erfc_inv requires y in (0, 2), got {y}")
    t = y if y <= 1.0 else 2.0 - y
    x = _as241(1.0 - t, t)
    e = math.erfc(x)
    if e >= sys.float_info.min:
        x += (math.log(e) - math.log(t)) * _SQRT_PI * e / (2.0 * math.exp(-x * x))
    return x if y <= 1.0 else -x


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
    """Regularized (lower, upper) incomplete gamma pair."""
    if a <= 0.0:
        raise DomainError(f"incomplete gamma requires a > 0, got {a}")
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
    """Upper incomplete gamma: integral of p^(a-1) e^(-p) over [b, inf). For a < 1 and
    b < a + 1, where 1 - P loses Q as a -> 0, (Gamma(1 + a) - b^a) / a - b^a sum_{n >= 1}
    (-b)^n / (n! (n + a)), the first term through expm1 and ln_gamma_1m_remainder."""
    if 0.0 < a < 1.0 and 0.0 < b < a + 1.0:
        lg, ln_b = a * ln_gamma_1m_remainder(-a) - EULER_GAMMA, math.log(b)   # ln Gamma(1 + a) / a
        head = lg - ln_b if a < 1e-17 else (math.expm1(a * lg) - math.expm1(a * ln_b)) / a
        total, term, n = 0.0, 1.0, 0
        while abs(term) > 1e-17 * abs(total):
            n += 1
            term *= -b / n
            total += term / (n + a)
        return head - b ** a * total
    return _inc_gamma(a, b, True)


def lower_inc_gamma(a: float, b: float) -> float:
    """Lower incomplete gamma: integral of p^(a-1) e^(-p) over [0, b]."""
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
    """ln of the upper or lower incomplete gamma: ln(b^a e^-b) plus the log of the sum
    that computes it directly, else ln Gamma(a) plus the log of the regularized value."""
    if (b < a + 1.0) == upper or b == 0.0:   # 0 at b = 0, or where the other rounds to 1
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
    """Regularized incomplete beta function I_t(a, b) for t in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"reg_inc_beta requires t in [0, 1], got {t}")
    if t == 0.0:
        return 0.0
    if t == 1.0:
        return 1.0
    front = math.exp(a * math.log(t) + b * math.log1p(-t) - ln_beta(a, b))
    if t < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, t) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - t) / b


def reg_inc_beta_inv(p: float, a: float, b: float) -> float:
    """Inverse of reg_inc_beta in its first argument.

    Halley's method on log I_x(a, b) = log p (p > 1/2 mirrored to I_{1-x}(b, a)
    = 1 - p) in the log-odds v = log(x / (1 - x)), inside a shrinking bracket.
    In v the tail is nearly straight, I_x ~ x^a / (a B(a, b)), so that
    asymptote, capped at the mean, seeds it almost exactly. The odds change by
    multiplication, so x and 1 - x keep their relative precision however small.
    Above (a + 1) / (a + b + 2) the tail is 1 - I_{1-x}(b, a), a series at a = 1/2, b <= 2^-10;
    a root there where that keeps less than 1e-8 relative of p raises ``DomainError``."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"reg_inc_beta_inv requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"reg_inc_beta_inv requires p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return p
    mirrored = p > 0.5
    if mirrored:
        p, a, b = 1.0 - p, b, a
    ln_b = ln_beta(a, b)
    ln_x = (math.log(p) + math.log(a) + ln_b) / a
    if ln_x < -708.4:     # x is subnormal, where the asymptote is exact
        return 1.0 if mirrored else math.exp(ln_x)
    # the odds, no further than the mean's a / b (a / (a + b) may round to 1) nor the floats
    odds = min(1.0 / math.expm1(-ln_x) if ln_x < 0.0 else math.inf, a / b, sys.float_info.max)
    cross, series = (a + 1.0) / (a + b + 2.0), a == 0.5 and b <= 2.0 ** -10
    lo, hi = 0.0, math.inf
    for _ in range(200):
        x, y = odds / (1.0 + odds), 1.0 / (1.0 + odds)
        tail = reg_inc_beta(x, a, b) if x < cross else (   # 1 - I_y(b, a), by series at small b
            _half_beta_complement(y, b) if series else 1.0 - reg_inc_beta(y, b, a))
        if tail > p:
            hi = odds
        else:
            lo = odds
        new = -1.0
        # d log I / dv = x (1 - x) f(x) / I, f the Beta(a, b) density
        slope = math.exp(a * math.log(x) + b * math.log(y) - ln_b) / tail if tail > 0.0 else 0.0
        if 0.0 < slope < math.inf:
            newton = math.log(tail / p) / slope
            corr = 1.0 - 0.5 * newton * (a * y - b * x - slope)
            step = newton / corr if 0.5 <= corr <= 2.0 else newton
            if abs(step) < 700.0:
                new = odds * math.exp(-step)
            if abs(step) <= 1e-9:
                odds = new
                break
        if not lo < new < hi:   # bisect, geometrically once the bracket is finite
            new = hi * 2.0 ** -64 if lo == 0.0 else (
                lo * 2.0 ** 64 if hi == math.inf else math.sqrt(lo) * math.sqrt(hi))
            if not lo < new < hi:
                break             # the bracket is down to adjacent floats
        odds = new
    if odds / (1.0 + odds) >= cross and not series and p < 1.2e-8 * (abs(ln_b) + 8.0):
        raise DomainError(f"reg_inc_beta_inv: 1 - I_y({b}, {a}) at the root keeps less than "
                          f"1e-8 relative precision against {p}")
    return 1.0 / (1.0 + odds) if mirrored else odds / (1.0 + odds)


def inc_beta(y: float, a1: float, a2: float) -> float:
    """Unregularized incomplete beta: integral of p^(a1-1) (1-p)^(a2-1) over [0, y]."""
    if a1 <= 0.0 or a2 <= 0.0:
        raise DomainError(f"inc_beta requires a1, a2 > 0, got a1={a1}, a2={a2}")
    return reg_inc_beta(y, a1, a2) * math.exp(ln_beta(a1, a2))


def lambert_w(y: float) -> float:
    """Lower real branch W_-1 of Lambert W: the w <= -1 with w e^w = y, y in [-1/e, 0).

    Above y = -1/4, Newton on w + ln(-w) = ln(-y), which keeps its precision where
    w e^w underflows (y subnormal); nearer -1/e, Halley on w e^w = y from the
    branch-point series."""
    if not -_INV_E - 1e-14 <= y < 0.0:   # tolerate representation error at -1/e
        raise DomainError(f"lambert_w requires y in [-1/e, 0), got {y}")
    if y <= -_INV_E:
        return -1.0
    if y > -0.25:
        log_my = math.log(-y)
        w = log_my - math.log(-log_my)
        for _ in range(100):
            step = (w + math.log(-w) - log_my) * w / (w + 1.0)
            w -= step
            if abs(step) <= 1e-15 * -w:
                break
        return w
    p = -math.sqrt(2.0 * (math.e * y + 1.0))
    w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    for _ in range(100):
        if abs(w + 1.0) < 1e-12:
            break   # at the branch point; Halley's denominator degenerates
        ew = math.exp(w)
        f = w * ew - y
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        if denom == 0.0:
            break
        step = f / denom
        w -= step
        if abs(step) <= 1e-14 * (1.0 + abs(w)):
            break
    return min(w, -1.0)   # pin the branch against last-iteration overshoot


def log_integral(x: float) -> float:
    """Logarithmic integral li(x) = integral of 1/ln(p) over (0, x], x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"log_integral requires x in (0, 1), got {x}")
    y = -math.log(x)
    if y <= 2.0:
        # li(x) = gamma + ln|ln x| + sum (ln x)^n / (n n!); alternating terms
        # stay small enough here that cancellation costs < 1 digit
        total = EULER_GAMMA + math.log(y)
        term = 1.0
        for n in range(1, 200):
            term *= -y / n
            contrib = term / n
            total += contrib
            if abs(contrib) < 1e-17 * max(1.0, abs(total)):
                break
        return total
    # li(x) = -E1(y) = -Gamma(0, y) = -e^-y h with h the continued fraction,
    # which converges fast for y > 1; e^-y is x itself
    return -x * _gamma_q_cf(0.0, y)


def binary_entropy(alpha: float) -> float:
    """Binary entropy -a ln(a) - (1-a) ln(1-a), with 0 ln 0 := 0."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"binary_entropy requires alpha in [0, 1], got {alpha}")
    if alpha == 0.0 or alpha == 1.0:
        return 0.0
    return -alpha * math.log(alpha) - (1.0 - alpha) * math.log1p(-alpha)
