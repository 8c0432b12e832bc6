"""Self-contained special-function kernel.

Everything the closed-form tail formulas need lives here: error function and
its inverse, (incomplete) gamma and beta functions, the lower real branch
W_-1 of Lambert W, the logarithmic integral on (0, 1), and the binary entropy
function. All functions are pure, scalar, and deterministic; the only
dependency is the standard-library ``math`` module.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606065120900824024

_SQRT_PI = math.sqrt(math.pi)
_INV_E = math.exp(-1.0)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def erf(x: float) -> float:
    return math.erf(x)


def erfc(x: float) -> float:
    return math.erfc(x)


# Acklam's rational approximation to the standard normal quantile,
# |relative error| < 1.15e-9; used only as a Newton/Halley starting point.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def _norm_ppf_guess(p: float) -> float:
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_ACKLAM_C[0] * q + _ACKLAM_C[1]) * q + _ACKLAM_C[2]) * q
                   + _ACKLAM_C[3]) * q + _ACKLAM_C[4]) * q + _ACKLAM_C[5])
                / ((((_ACKLAM_D[0] * q + _ACKLAM_D[1]) * q + _ACKLAM_D[2]) * q
                    + _ACKLAM_D[3]) * q + 1.0))
    if p > 1.0 - 0.02425:
        return -_norm_ppf_guess(1.0 - p)
    q = p - 0.5
    r = q * q
    return (((((_ACKLAM_A[0] * r + _ACKLAM_A[1]) * r + _ACKLAM_A[2]) * r
              + _ACKLAM_A[3]) * r + _ACKLAM_A[4]) * r + _ACKLAM_A[5]) * q \
        / (((((_ACKLAM_B[0] * r + _ACKLAM_B[1]) * r + _ACKLAM_B[2]) * r
             + _ACKLAM_B[3]) * r + _ACKLAM_B[4]) * r + 1.0)


def erf_inv(p: float) -> float:
    """Inverse error function on the open interval (-1, 1)."""
    if not -1.0 < p < 1.0:
        raise DomainError(f"erf_inv requires p in (-1, 1), got {p}")
    if p == 0.0:
        return 0.0
    x = _norm_ppf_guess(0.5 * (p + 1.0)) / math.sqrt(2.0)
    # Halley on erf(x) - p; f''/(2 f') = -x
    for _ in range(4):
        err = math.erf(x) - p
        deriv = 2.0 / _SQRT_PI * math.exp(-x * x)
        if deriv == 0.0:
            break
        step = err / deriv
        x -= step / (1.0 - x * step)
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            break
    return x


def erfc_inv(y: float) -> float:
    """Inverse complementary error function on (0, 2); stable for tiny y."""
    if not 0.0 < y < 2.0:
        raise DomainError(f"erfc_inv requires y in (0, 2), got {y}")
    if y > 1.0:
        return -erfc_inv(2.0 - y)
    if y > 0.0485:
        return erf_inv(1.0 - y)
    # Newton on log(erfc(x)) = log(y); erfc stays relatively accurate far
    # into the tail where 1 - y would lose all precision.
    ln_y = math.log(y)
    t = -ln_y
    x = math.sqrt(max(t - 0.5 * math.log(math.pi * max(t, 1.0)), 1e-8))
    for _ in range(60):
        e = math.erfc(x)
        if e <= 0.0:
            break
        g = math.log(e) - ln_y
        gp = -2.0 * math.exp(-x * x) / (_SQRT_PI * e)
        step = g / gp
        x -= step
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            break
    return x


def gamma_fn(a: float) -> float:
    """Gamma function for a > 0."""
    if a <= 0.0:
        raise DomainError(f"gamma_fn requires a > 0, got {a}")
    return math.gamma(a)


def _gamma_p_series(a: float, x: float) -> float:
    # lower incomplete gamma times e^x x^-a by power series, for x < a + 1
    term = 1.0 / a
    total = term
    n = a
    for _ in range(500):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total


def _gamma_q_cf(a: float, x: float) -> float:
    # upper incomplete gamma times e^x x^-a by continued fraction (modified Lentz)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1e300
    d = 1.0 / b if b != 0.0 else 1e300
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
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
    """Upper incomplete gamma: integral of p^(a-1) e^(-p) over [b, inf)."""
    _, q = _reg_gamma(a, b)
    return q * math.gamma(a)


def lower_inc_gamma(a: float, b: float) -> float:
    """Lower incomplete gamma: integral of p^(a-1) e^(-p) over [0, b].

    For a > 171, where Gamma(a) overflows, the value is formed in logs (the
    regularized series underflows there first) and is inf where it exceeds
    binary64.
    """
    p, _ = _reg_gamma(a, b)
    if a <= 171.0:
        return p * math.gamma(a)
    if b == 0.0:
        return 0.0
    log_value = (math.log(_gamma_p_series(a, b)) + a * math.log(b) - b if b < a + 1.0
                 else math.log(p) + math.lgamma(a))
    return math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf


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
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
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
    """
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
    ln_x = min(ln_x, math.log(a / (a + b)))   # no further than the mean
    odds = math.exp(ln_x - math.log1p(-math.exp(ln_x)))
    cross = (a + 1.0) / (a + b + 2.0)
    lo, hi = 0.0, math.inf
    for _ in range(200):
        x, y = odds / (1.0 + odds), 1.0 / (1.0 + odds)
        tail = reg_inc_beta(x, a, b) if x < cross else 1.0 - reg_inc_beta(y, b, a)
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
