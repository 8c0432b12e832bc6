import math
import random
import sys

import pytest

from tailrisk import distributions as dist
from tailrisk import specfun as sf
from tailrisk import tail_metrics as tm
from tailrisk.errors import DomainError, TailRiskError


def test_erf_trivials():
    assert sf.erf(0.0) == 0.0
    assert sf.erfc(0.0) == 1.0


def test_erf_erfc_complement_grid():
    worst = max(abs(sf.erf(-6 + 12 * i / 999) + sf.erfc(-6 + 12 * i / 999) - 1.0)
                for i in range(1000))
    assert worst <= 1e-13


def test_erfc_inv_roundtrip():
    for i in range(1, 99):
        y = i / 98
        assert abs(sf.erfc(sf.erfc_inv(y)) - y) <= 1e-12 * y


def test_erfc_inv_against_bisection():
    # independent oracle: bisection on erfc
    lo, hi = 0.0, 6.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sf.erfc(mid) > 0.1:
            lo = mid
        else:
            hi = mid
    assert abs(sf.erfc_inv(0.1) - 0.5 * (lo + hi)) <= 1e-12


@pytest.mark.parametrize("y", [0.0, -1.0, math.nextafter(1.0, 2.0), 1.5, 2.0])
def test_erfc_inv_domain(y):
    # its callers pass 2 min(alpha, eps), so (0, 1]
    with pytest.raises(DomainError):
        sf.erfc_inv(y)


def test_erf_inv_is_a_removed_name():
    with pytest.raises(NotImplementedError):
        sf.erf_inv(0.5)


def test_gamma_values():
    assert sf.gamma_fn(1.0) == 1.0
    assert abs(sf.gamma_fn(0.5) - math.sqrt(math.pi)) <= 1e-14
    assert sf.gamma_fn(4.0) == 6.0
    assert abs(sf.gamma_fn(2.5) / (0.75 * math.sqrt(math.pi)) - 1.0) <= 1e-12
    with pytest.raises(DomainError):
        sf.gamma_fn(0.0)
    with pytest.raises(DomainError):
        sf.gamma_fn(-2.0)


def test_upper_inc_gamma_closed_cases():
    for b in (0.0, 0.5, 1.0, 3.0, 10.0):
        assert abs(sf.upper_inc_gamma(1.0, b) - math.exp(-b)) <= 1e-13
    for a in (1.0, 1.3, 2.7):
        assert abs(sf.upper_inc_gamma(a, 0.0) - sf.gamma_fn(a)) <= 1e-13


@pytest.mark.parametrize("a", [0.5, 1e-12, math.nextafter(1.0, 0.0), 0.0, -1.0, math.nan])
def test_incomplete_gamma_below_one_raises(a):
    # the callers read a = 1 + 1/k (Weibull) and a = 1 - xi > 2 (GEV below xi = -1); the
    # lower and log forms on both sides of b = a + 1, where ln_inc_gamma sums directly
    for kernel in (lambda b: sf.upper_inc_gamma(a, b), lambda b: sf.lower_inc_gamma(a, b),
                   lambda b: sf.ln_inc_gamma(a, b, True), lambda b: sf.ln_inc_gamma(a, b, False)):
        for b in (0.1, 1.0, 5.0):
            with pytest.raises(DomainError):
                kernel(b)


def test_upper_inc_gamma_monotone_in_b():
    values = [sf.upper_inc_gamma(1.5, b) for b in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_upper_inc_gamma_quadrature_oracle():
    # frozen: adaptive quadrature of p^0.5 e^-p over [2, inf)
    assert abs(sf.upper_inc_gamma(1.5, 2.0) - 0.2317165520009807) <= 1e-10


def test_lower_inc_gamma():
    for b in (0.2, 1.0, 4.0):
        assert abs(sf.lower_inc_gamma(1.0, b) - (1.0 - math.exp(-b))) <= 1e-13
    assert abs(sf.lower_inc_gamma(2.0, 50.0) - 1.0) <= 1e-10   # saturation, Gamma(2)=1
    direct = sf.lower_inc_gamma(1.7, 1.3)
    complement = sf.gamma_fn(1.7) - sf.upper_inc_gamma(1.7, 1.3)
    assert abs(direct - complement) <= 1e-12
    with pytest.raises(DomainError):   # the log form's direct sum raised ValueError
        sf.ln_inc_gamma(2.0, -1.0, False)


def test_incomplete_gamma_additivity_grid():
    for a in (1.0, 1.3, 1.7, 2.0, 3.5, 5.0):
        for b in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            total = sf.lower_inc_gamma(a, b) + sf.upper_inc_gamma(a, b)
            assert abs(total - sf.gamma_fn(a)) <= 1e-11 * max(1.0, sf.gamma_fn(a))


def test_reg_inc_beta_edges():
    assert sf.reg_inc_beta(0.0, 1.3, 2.2) == 0.0
    assert sf.reg_inc_beta(1.0, 1.3, 2.2) == 1.0
    assert abs(sf.reg_inc_beta(0.5, 2.0, 2.0) - 0.5) <= 1e-14


def test_reg_inc_beta_monotone():
    grid = [i / 50 for i in range(51)]
    vals = [sf.reg_inc_beta(t, 1.7, 0.6) for t in grid]
    assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))


def test_reg_inc_beta_inv_is_a_removed_name():
    with pytest.raises(NotImplementedError):
        sf.reg_inc_beta_inv(0.5, 2.0, 0.5)


def test_inc_beta_values():
    assert sf.inc_beta(0.0, 1.5, 0.5) == 0.0
    assert abs(sf.inc_beta(1.0, 2.0, 2.0) - 1.0 / 6.0) <= 1e-14   # Beta(2,2)
    # frozen: adaptive quadrature of p^0.5 (1-p)^-0.5 over [0, 0.3]
    assert abs(sf.inc_beta(0.3, 1.5, 0.5) - 0.12138217086812025) <= 1e-10
    with pytest.raises(DomainError):
        sf.inc_beta(0.3, 1.5, -0.2)


def test_ln_beta_against_mpmath():
    mp = pytest.importorskip("mpmath")
    # lgamma(b) and lgamma(a + b) carry digits far beyond ln B when b is large
    for a, b in ((0.5, 150.0), (0.01, 1000.0), (0.5, 5e39), (30.0, 30.0), (1e6, 1e6),
                 (0.5, 9.99), (3.0, 10.0), (1e-3, 1e-3), (1e12, 0.5)):
        with mp.workdps(40):
            ref = mp.log(mp.beta(a, b))
        assert abs(sf.ln_beta(a, b) - ref) <= 6e-16 * abs(ref), (a, b)
        assert sf.ln_beta(b, a) == sf.ln_beta(a, b)


def test_lambert_w_trivials():
    # W_-1(-2/e^2) = -2, where the Laplace bPOE's two branches meet
    assert sf.lambert_w(-2.0 * math.exp(-2.0)) == -2.0


def test_lambert_w_identity_grids():
    for i in range(1, 60):
        y = -2.0 * math.exp(-2.0) * i / 60
        w = sf.lambert_w(y)
        assert abs(w * math.exp(w) - y) <= 1e-12 * max(1.0, abs(y))
        assert w <= -2.0


def test_lambert_w_matches_mpmath():
    # over [-2/e^2, 0): the Laplace bPOE's y = -2z e^(-z-1), z in (0, 1), whose rounding
    # just below z = 1 puts y up to 2.05e-16 relative below -2/e^2
    mp = pytest.importorskip("mpmath")
    rng = random.Random(20181)
    floor = -2.0 * math.exp(-2.0)
    grid = [floor * rng.random() for _ in range(400)]
    near_floor = [floor * (1.0 - 10.0 ** -k) for k in range(1, 16)]
    rounded = [-2.0 * z * math.exp(-z - 1.0) for z in (1.0 - k * 2.0 ** -53 for k in range(1, 400))]
    toward_zero = [-(10.0 ** -k) for k in range(1, 324)] + [-5e-324]
    assert min(rounded) < floor
    for y in grid + near_floor + rounded + toward_zero:
        if y == 0.0:
            continue
        with mp.workdps(40):
            ref = mp.lambertw(y, -1).real
            # the branch's conditioning: relative change in W per relative change in y
            bound = 4e-16 * (1 + abs(1 / (1 + ref)))
            assert abs((sf.lambert_w(y) - ref) / ref) <= bound, y


def test_lambert_w_domain():
    # below -2/e^2, less 1e-15 relative slack for the caller's rounding, W_-1 > -2
    for y in (-0.3, -math.exp(-1.0), -2.0 * math.exp(-2.0) * (1.0 + 4e-15), -0.4, 0.0, 0.5):
        with pytest.raises(DomainError):
            sf.lambert_w(y)


def test_library_paths_stay_inside_the_kernel_ranges():
    # the arguments library paths hand lambert_w, the incomplete gammas and erfc_inv lie in
    # their ranges: the Laplace bPOE below mu + b, z in (0, 1) (the 20,000 floats just below
    # 1 round y below -2/e^2), the Weibull superquantile's a = 1 + 1/k, the GEV one's
    # a = 1 - xi below xi = -1, and the Normal and LogNormal quantiles and superquantiles
    # down to the least subnormal level
    mp = pytest.importorskip("mpmath")
    rng = random.Random(28)
    laplace = dist.Laplace(0.0, 1.0)   # z = x exactly

    def closed(z):
        return 1 + z / mp.lambertw(-2 * z * mp.exp(-z - 1), -1).real

    with mp.workdps(30):
        for z in [rng.random() for _ in range(500)]:
            want = closed(mp.mpf(z))
            assert abs(tm.bpoe_closed(laplace, z).value - want) <= 1e-15 * want, z
        # within 2.3e-12 of z = 1 the linear term leaves less than 1e-23
        at_one, slope = closed(mp.mpf(1)), mp.diff(closed, 1)
        for k in range(1, 20_001):
            z = 1.0 - k * 2.0 ** -53
            want = at_one + slope * (z - 1)
            assert abs(tm.bpoe_closed(laplace, z).value - want) <= 1e-15 * want, z
    tails = [10.0 ** -k for k in range(1, 324)] + [5e-324, 0.3, 0.5]
    laws = [dist.Weibull(1.0, 10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(100)]
    gevs = [dist.GEV(0.0, 1.0, -(10.0 ** rng.uniform(0.0, 2.3))) for _ in range(50)]
    laws += gevs + [dist.GEV(0.0, 1.0, math.nextafter(-1.0, -2.0)), dist.GEV(0.0, 1.0, -200.0)]
    laws += [dist.Normal(0.0, 1.0), dist.Normal(3.0, 1e-3), dist.LogNormal(0.0, 1.0),
             dist.LogNormal(-2.0, 5.0)]
    for d in laws:
        for t in tails:
            values = [tm.superquantile(d, t), *tm.superquantile(d, 1.0 - t, t)]
            if not isinstance(d, (dist.Weibull, dist.GEV)):
                values += [d.quantile(t), d.tail_quantile(t)]
                values += [d.quantile(1.0 - t)] if 1.0 - t < 1.0 else []
            assert not any(math.isnan(v) for v in values), (d, t, values)


def test_log_integral_is_a_removed_name():
    with pytest.raises(NotImplementedError):
        sf.log_integral(0.5)


def test_binary_entropy():
    assert sf.binary_entropy(0.0) == 0.0
    assert sf.binary_entropy(1.0) == 0.0
    assert abs(sf.binary_entropy(0.5) - math.log(2.0)) <= 1e-15
    direct = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
    assert abs(sf.binary_entropy(0.25) - direct) <= 1e-15
    assert abs(sf.binary_entropy(0.3) - sf.binary_entropy(0.7)) <= 1e-15


# --- mpmath differential tests --------------------------------------------------

def _erfc_inv_reference(mp, t):
    """The x >= 0 with erfc(x) = t, t in (0, 1] exact: Newton in mpmath on ln erfc."""
    x0 = math.sqrt(max(-math.log(t), 0.0)) if t < 0.5 else (1.0 - t) * math.sqrt(math.pi) / 2
    return mp.findroot(lambda x: mp.log(mp.erfc(x)) - mp.log(mp.mpf(t)), mp.mpf(x0))


def test_erfc_inv_matches_mpmath():
    # y = 2 10^-k down to 2e-300 and into the subnormals, where erfc_inv skips its
    # Newton step, and 1 - 10^-k up to 1 - 2^-53, where x nears 0
    mp = pytest.importorskip("mpmath")
    rng = random.Random(241)
    with mp.workdps(40):
        ys = ([2.0 * 10.0 ** -k for k in range(1, 301)] + [5e-324 * 3.0 ** k for k in range(0, 40)]
              + [rng.uniform(0.0, 1.0) for _ in range(400)]
              + [1.0 - 10.0 ** -k for k in range(1, 16)] + [1.0 - 2.0 ** -53, 1.0])
        for y in ys:
            want = _erfc_inv_reference(mp, y)
            assert abs(sf.erfc_inv(y) - want) <= 1e-15 * abs(want), y


def test_incomplete_gamma_matches_mpmath():
    # a in [1, 170]: above a = 171.6 both read Gamma(a) from math.gamma
    mp = pytest.importorskip("mpmath")
    rng = random.Random(1988)
    cases = [(1.0, 0.5), (1.0, 1e-300)]
    for _ in range(300):
        a = math.exp(rng.uniform(0.0, math.log(170.0)))
        cases.append((a, rng.uniform(0.0, 2.0 * a + 5.0) if rng.random() < 0.5
                      else math.exp(rng.uniform(-10.0, 6.7))))
    with mp.workdps(40):
        for a, b in cases:
            for got, want in ((sf.lower_inc_gamma(a, b), mp.gammainc(a, 0, b)),
                              (sf.upper_inc_gamma(a, b), mp.gammainc(a, b))):
                # an absolute floor where the value is below the normal floats
                assert abs(got - want) <= 1e-12 * max(abs(want), sys.float_info.min), (a, b)


def test_incomplete_gamma_beyond_gamma_overflow_matches_mpmath():
    # a up to 400, where Gamma(a) leaves binary64: both read the value in logs,
    # inf beyond binary64 and the value where it is finite
    mp = pytest.importorskip("mpmath")
    rng = random.Random(1716)
    with mp.workdps(40):
        cases = [(200.0, 1.0), (171.5, 2.302585092994046), (400.0, 1e-3), (400.0, 5000.0)]
        for _ in range(300):
            a = rng.uniform(150.0, 400.0)
            cases.append((a, a * math.exp(rng.uniform(-8.0, 3.0))))
        for a, b in cases:
            for got, want in ((sf.upper_inc_gamma(a, b), mp.gammainc(a, b)),
                              (sf.lower_inc_gamma(a, b), mp.gammainc(a, 0, b))):
                if want > sys.float_info.max:
                    assert got == math.inf, (a, b)
                else:
                    assert abs(got - want) <= 1e-12 * max(abs(want), sys.float_info.min), (a, b)


def test_incomplete_beta_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = random.Random(708)
    with mp.workdps(40):
        for _ in range(300):
            a = math.exp(rng.uniform(math.log(0.05), math.log(100.0)))
            b = math.exp(rng.uniform(math.log(0.05), math.log(100.0)))
            t = rng.random()
            want = mp.betainc(a, b, 0, t, regularized=True)
            assert abs(sf.reg_inc_beta(t, a, b) - want) <= 1e-12 * max(want, sys.float_info.min)


# Plain forms of the three Lentz and series loops, with abs() and integer counters; the
# kernels' loops use chained comparisons and float counters, the same arithmetic.
def _ref_gamma_p_series(a, x):
    term = total = 1.0 / a
    n = a
    for _ in range(500):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total


def _ref_gamma_q_cf(a, x):
    tiny, b, c = 1e-300, x + 1.0 - a, 1e300
    d = 1.0 / b if b != 0.0 else 1e300
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _ref_beta_cf(a, b, x):
    tiny, qab, qap, qam = 1e-300, a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (tiny if abs(d) < tiny else d)
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = tiny if abs(d) < tiny else d
            c = 1.0 + aa / c
            c = tiny if abs(c) < tiny else c
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def test_lentz_and_series_loops_match_their_plain_forms_bit_for_bit():
    rng = random.Random(20261019)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(10_000):
        a, b = log_uniform(1e-3, 1e4), log_uniform(1e-3, 1e4)
        x = (a + 1.0) / (a + b + 2.0) * rng.random()   # below reg_inc_beta's switch
        assert sf._beta_cf(a, b, x).hex() == _ref_beta_cf(a, b, x).hex(), (a, b, x)
        a = rng.uniform(-1.0, 60.0)   # GEV reads a = -xi > -1
        x = max(a, 0.0) + 1.0 + log_uniform(1e-6, 1e4)
        assert sf._gamma_q_cf(a, x).hex() == _ref_gamma_q_cf(a, x).hex(), (a, x)
        a = log_uniform(1e-6, 1e3)
        x = (a + 1.0) * rng.random()
        assert sf._gamma_p_series(a, x).hex() == _ref_gamma_p_series(a, x).hex(), (a, x)


def test_ln_a_beta_half_and_its_complement_match_mpmath():
    # ln(a B(a, 1/2)) / a without the |ln a| ulp that ln a + ln B(a, 1/2) carries, and
    # 1 - I_y(b, 1/2) without the cancellation of 1 minus the sum
    mp = pytest.importorskip("mpmath")
    half = mp.mpf(1) / 2
    with mp.workdps(50):
        for a in (2.0 ** -10, 3e-4, 1e-5, 1e-10, 1e-20):   # 50 digits resolve 1 - I to 1e-30
            want = mp.log(a * mp.beta(a, half)) / a
            assert abs(sf.ln_a_beta_half(a) / want - 1) <= 4e-16, a
            for y in (0.5, 0.4, 0.1, 1e-5, 1e-20, 1e-300, 5e-324):
                want = 1 - mp.betainc(a, half, 0, y, regularized=True)
                assert abs(sf._half_beta_complement(y, a) / want - 1) <= 1e-15, (a, y)


def test_incomplete_beta_is_total_over_extreme_parameters():
    # over these draws reg_inc_beta read NaN on 836 (an underflowed prefactor times
    # an inf or NaN fraction) and a value outside [0, 1] on 121
    rng = random.Random(5)
    for _ in range(2000):
        t = rng.random()
        a, b = 10.0 ** rng.uniform(-300.0, 300.0), 10.0 ** rng.uniform(-300.0, 300.0)
        try:
            value = sf.reg_inc_beta(t, a, b)
        except TailRiskError:
            continue
        assert 0.0 <= value <= 1.0, (t, a, b, value)
    # Beta(a, b) at a = 7e222, b = 5e-175 puts its mass within 1e-206 of 1
    assert sf.reg_inc_beta(1.0 - 2.0 ** -53, 6.96e222, 4.72e-175) == 0.0
