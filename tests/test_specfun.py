import math
import random
import sys

import pytest

from tailrisk import specfun as sf
from tailrisk._quad import adaptive_quad
from tailrisk.errors import DomainError


def test_erf_trivials():
    assert sf.erf(0.0) == 0.0
    assert sf.erfc(0.0) == 1.0


def test_erf_erfc_complement_grid():
    worst = max(abs(sf.erf(-6 + 12 * i / 999) + sf.erfc(-6 + 12 * i / 999) - 1.0)
                for i in range(1000))
    assert worst <= 1e-13


def test_erf_inv_roundtrip():
    for i in range(1, 99):
        p = -0.99 + 1.98 * i / 98
        assert abs(sf.erf(sf.erf_inv(p)) - p) <= 1e-12


def test_erf_inv_against_bisection():
    # independent oracle: bisection on erf
    lo, hi = 0.0, 6.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sf.erf(mid) < 0.9:
            lo = mid
        else:
            hi = mid
    assert abs(sf.erf_inv(0.9) - 0.5 * (lo + hi)) <= 1e-12


@pytest.mark.parametrize("p", [-1.0, 1.0, -1.5, 2.0])
def test_erf_inv_domain(p):
    with pytest.raises(DomainError):
        sf.erf_inv(p)


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
    for a in (0.3, 1.0, 2.7):
        assert abs(sf.upper_inc_gamma(a, 0.0) - sf.gamma_fn(a)) <= 1e-13


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
    direct = sf.lower_inc_gamma(0.7, 1.3)
    complement = sf.gamma_fn(0.7) - sf.upper_inc_gamma(0.7, 1.3)
    assert abs(direct - complement) <= 1e-12


def test_incomplete_gamma_additivity_grid():
    for a in (0.3, 0.7, 1.0, 2.0, 3.5, 5.0):
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


def test_reg_inc_beta_inv_two_sided():
    for a, b in ((0.5, 0.5), (2.0, 3.0), (1.25, 0.5), (4.0, 1.0)):
        for i in range(1, 100):
            p = i / 100
            t = sf.reg_inc_beta_inv(p, a, b)
            assert abs(sf.reg_inc_beta(t, a, b) - p) <= 1e-9
            assert abs(sf.reg_inc_beta_inv(sf.reg_inc_beta(t, a, b), a, b) - t) <= 1e-9


def test_reg_inc_beta_inv_deep_tail():
    # roots far below 2^-61, from mpmath 1.3 at 40 digits
    for p, a, b, x in ((1e-30, 1.5, 0.5, 1.77068275400022721e-20),
                       (1e-25, 0.5, 0.5, 2.4674011002723398447e-50),
                       (1e-300, 3.0, 0.5, 1.4736125994561546546e-100)):
        assert abs(sf.reg_inc_beta_inv(p, a, b) - x) <= 1e-13 * x
    assert sf.reg_inc_beta_inv(1e-300, 0.2, 0.5) == 0.0        # x underflows
    assert sf.reg_inc_beta_inv(1.0 - 1e-300, 0.5, 0.2) == 1.0


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
    assert sf.lambert_w(-math.exp(-1.0)) == -1.0
    w = sf.lambert_w(-2.0 * math.exp(-2.0))
    assert abs(w + 2.0) <= 1e-12


def test_lambert_w_identity_grids():
    for i in range(1, 60):
        y = -math.exp(-1.0) * i / 60
        w = sf.lambert_w(y)
        assert abs(w * math.exp(w) - y) <= 1e-12 * max(1.0, abs(y))
        assert w <= -1.0


def test_lambert_w_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = random.Random(20181)
    grid = [-math.exp(-1.0) * rng.random() for _ in range(400)]
    near_branch = [-math.exp(-1.0) + 10.0 ** -k for k in range(1, 16)]
    toward_zero = [-(10.0 ** -k) for k in range(1, 324)] + [-5e-324]
    for y in grid + near_branch + toward_zero:
        if y == 0.0:
            continue
        with mp.workdps(40):
            ref = mp.lambertw(y, -1).real
            # the branch's conditioning: relative change in W per relative change in y
            bound = 4e-16 * (1 + abs(1 / (1 + ref)))
            assert abs((sf.lambert_w(y) - ref) / ref) <= bound, y


def test_lambert_w_domain():
    for y in (-0.4, 0.0, 0.5):
        with pytest.raises(DomainError):
            sf.lambert_w(y)


def test_log_integral_small_limit():
    assert abs(sf.log_integral(1e-13)) <= 1e-12


def test_log_integral_against_quadrature():
    for x in (0.001, 0.05, 0.5, 0.9, 0.99):
        ref, _ = adaptive_quad(lambda t: 1.0 / math.log(t), 1e-12, x,
                               atol=1e-12, rtol=1e-12, limit=4000)
        assert abs(sf.log_integral(x) - ref) <= 1e-8


def test_log_integral_against_mpmath():
    mp = pytest.importorskip("mpmath")
    # deep tail, where the leading term x / ln x alone is 3.2% off at 1e-13
    for k in range(12, 301):
        for x in (10.0 ** -k, 3.7 * 10.0 ** -k):
            ref = float(mp.li(x))
            assert abs(sf.log_integral(x) - ref) <= 1e-12 * abs(ref)
    for x in (1e-6, 0.002, 0.05, 0.13, 0.5, 0.9):
        ref = float(mp.li(x))
        assert abs(sf.log_integral(x) - ref) <= 1e-12 * abs(ref)


def test_log_integral_monotone():
    assert sf.log_integral(0.9) < sf.log_integral(0.5) < 0.0
    with pytest.raises(DomainError):
        sf.log_integral(1.0)
    with pytest.raises(DomainError):
        sf.log_integral(0.0)


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


def test_erf_inv_and_erfc_inv_match_mpmath():
    # tails t = 1 - |p| = 10^-k down to 1e-15 and y = 2 10^-k down to 2e-300 and
    # into the subnormals, where erfc_inv skips its Newton step
    mp = pytest.importorskip("mpmath")
    rng = random.Random(241)
    with mp.workdps(40):
        ys = ([2.0 * 10.0 ** -k for k in range(1, 301)] + [5e-324 * 3.0 ** k for k in range(0, 40)]
              + [rng.uniform(0.0, 2.0) for _ in range(200)]
              + [1.0 + s * 10.0 ** -k for k in range(1, 16) for s in (1, -1)] + [1.0, 2.0 - 1e-15])
        for y in ys:
            t = y if y <= 1.0 else 2.0 - y
            want = _erfc_inv_reference(mp, t) * (1 if y <= 1.0 else -1)
            assert abs(sf.erfc_inv(y) - want) <= 1e-15 * abs(want), y
        ps = ([s * (1.0 - 10.0 ** -k) for k in range(1, 16) for s in (1, -1)]
              + [1.0 - 2.0 ** -53, -1.0 + 2.0 ** -53] + [rng.uniform(-1.0, 1.0) for _ in range(200)])
        for p in ps:
            want = (mp.erfinv(mp.mpf(p)) if abs(p) < 0.5
                    else math.copysign(1.0, p) * _erfc_inv_reference(mp, 1.0 - abs(p)))
            assert abs(sf.erf_inv(p) - want) <= 1e-15 * abs(want), p
        # x below the normal floats rounds to the nearest subnormal
        for p in (1e-300, 1e-310, 5e-324):
            assert abs(sf.erf_inv(p) - mp.erfinv(mp.mpf(p))) <= max(1e-15 * p, 5e-324)


def test_incomplete_gamma_matches_mpmath():
    # a <= 170: above a = 171.6 upper_inc_gamma reads Gamma(a) from math.gamma; the
    # fixed points have a tiny a, where Q formed as 1 - P reads 0.0 or loses its digits
    mp = pytest.importorskip("mpmath")
    rng = random.Random(1988)
    cases = [(1e-300, 0.5), (1e-12, 0.5), (1e-12, 0.05), (1e-12, 1.0)]
    for _ in range(300):
        a = math.exp(rng.uniform(math.log(0.01), math.log(170.0)))
        cases.append((a, rng.uniform(0.0, 2.0 * a + 5.0) if rng.random() < 0.5
                      else math.exp(rng.uniform(-10.0, 6.7))))
    with mp.workdps(40):
        for a, b in cases:
            for got, want in ((sf.upper_inc_gamma(a, b), mp.gammainc(a, b)),
                              (sf.lower_inc_gamma(a, b), mp.gammainc(a, 0, b))):
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


def test_incomplete_beta_and_inverse_match_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = random.Random(708)
    with mp.workdps(40):
        for _ in range(300):
            a = math.exp(rng.uniform(math.log(0.05), math.log(100.0)))
            b = math.exp(rng.uniform(math.log(0.05), math.log(100.0)))
            t = rng.random()
            want = mp.betainc(a, b, 0, t, regularized=True)
            assert abs(sf.reg_inc_beta(t, a, b) - want) <= 1e-12 * max(want, sys.float_info.min)
            p = rng.choice([rng.random(), 10.0 ** rng.uniform(-30.0, 0.0), 1.0 - 10.0 ** rng.uniform(-15.0, 0.0)])
            x = sf.reg_inc_beta_inv(p, a, b)
            # the round trip, in the smaller tail, less the two roundings of x that
            # the density carries into it
            if p <= 0.5:
                err = abs(mp.betainc(a, b, 0, x, regularized=True) - p)
            else:
                err = abs(mp.betainc(a, b, x, 1, regularized=True) - (1 - mp.mpf(p)))
            density = (mp.power(x, a - 1) * mp.power(1 - mp.mpf(x), b - 1) / mp.beta(a, b)
                       if 0.0 < x < 1.0 else mp.inf)
            assert err <= 1e-12 * min(p, 1.0 - p) + 2 * density * math.ulp(x), (p, a, b, x)


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
        a = rng.uniform(-1.0, 60.0)   # GEV reads a = -xi > -1, log_integral a = 0
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


def test_reg_inc_beta_inv_where_b_is_far_below_a():
    # a / (a + b) rounds to 1 and 1 - I_y(b, 1/2) to noise: at (2^-53, 1/2, 5e-21) the
    # root is 1 - about 4e^-22000, so 1.0, where the seed raised ValueError
    mp = pytest.importorskip("mpmath")
    assert sf.reg_inc_beta_inv(2.0 ** -53, 0.5, 5e-21) == 1.0
    with mp.workdps(50):
        for p, b in ((1e-11, 1e-12), (2.0 ** -45, 1e-15), (2.0 ** -53, 5e-18), (0.01, 2.0 ** -10)):
            x = sf.reg_inc_beta_inv(p, 0.5, b)
            err = abs(mp.betainc(0.5, b, 0, x, regularized=True) - p)
            density = mp.power(x, -0.5) * mp.power(1 - mp.mpf(x), b - 1) / mp.beta(0.5, b)
            assert 0.6 < x < 1.0 and err <= 1e-12 * p + 2 * density * math.ulp(x), (p, b, x)
    # above (a + 1) / (a + b + 2) the tail 1 - I_y(b, 2) keeps about 1e-5 of p = 1e-10
    # here: a typed error, not the root 0.8414 whose I is 3.3e-5 off
    with pytest.raises(DomainError, match="1e-8 relative"):
        sf.reg_inc_beta_inv(1e-10, 2.0, 1e-10)
