"""Student-t quantile: mpmath differential test and hypothesis properties."""

import math
import random
import sys

import pytest

from tailrisk import distributions as dist
from tailrisk.tail_metrics import superquantile

mp = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NUS = (0.3, 0.5, 1.0, 1.5, 2.5, 3.0, 4.0, 6.0, 10.0, 30.0, 100.0, 300.0)
LEVELS = (0.45, 0.25, 0.1, 1e-2, 1e-4, 1e-8, 1e-15, 1e-30, 1e-100, 1e-300)


def _mp_cdf(nu: float, t: float):
    """Lower-tail cdf 0.5 I_{nu/(nu+t^2)}(nu/2, 1/2) at t <= 0, 40 digits."""
    with mp.workdps(40):
        nu, t = mp.mpf(nu), mp.mpf(t)
        return mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + t * t), regularized=True) / 2


@pytest.mark.parametrize("nu", NUS)
def test_quantile_matches_mpmath_cdf(nu):
    d = dist.StudentT(nu)
    for p in LEVELS:
        t = d.quantile(p)
        if math.isinf(t):
            # only where the quantile lies beyond binary64
            assert t == -math.inf and _mp_cdf(nu, -sys.float_info.max) > p
            continue
        assert abs(_mp_cdf(nu, t) - p) <= 1e-12 * p, (nu, p, t)


def test_quantile_at_large_nu():
    # the density constant -ln B(nu/2, 1/2) - ln(nu)/2 no longer cancels:
    # StudentT(1e12).quantile(0.45) was wrong in the fifth digit
    for nu, p, rtol in ((300.0, 0.1, 1e-14), (1e6, 0.3, 1e-14), (1e12, 0.45, 1e-14)):
        t = dist.StudentT(nu).quantile(p)
        with mp.workdps(40):
            ref = mp.findroot(lambda x: _mp_cdf(nu, x) - p, t)
        assert abs(t / ref - 1) <= rtol, (nu, p, t)


@pytest.mark.parametrize("nu", (1e3, 2e3, 3e4, 9.99e4, 1e5, 1e6, 1e9, 1e16))
def test_quantile_at_huge_nu(nu):
    # the incomplete-beta inverse was 1.2e-12 off at nu = 1e5 and p = 0.01, and
    # raised ValueError from nu = 1e16; the Normal limit to 1/nu^4 replaces it
    # for nu >= 1000 and w^2 <= nu / 200, and both sides of that edge are checked
    d = dist.StudentT(nu)
    edge = float(mp.ncdf(-math.sqrt(nu / 200.0)))   # 0.0127 at nu = 1e3, 0 from 1e6
    for p in LEVELS + ((edge * (1 + 1e-6), edge * (1 - 1e-6)) if edge > 0 else ()):
        t = d.quantile(p)
        with mp.workdps(40):
            ref = -mp.exp(mp.findroot(lambda v: mp.log(_mp_cdf(nu, -mp.exp(v)) / p),
                                      mp.log(-t)))
        assert abs(t / ref - 1) <= 2e-13, (nu, p, t)


def test_quantile_at_nu_1e40_is_the_normal_quantile():
    d = dist.StudentT(1e40)
    assert d.quantile(1e-30) == dist.Normal(0.0, 1.0).quantile(1e-30)
    assert d.quantile(1e-30) == pytest.approx(-11.464024688443617, rel=1e-15)
    assert d.tail_quantile(1e-30) == -d.quantile(1e-30)


_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
_NU = st.floats(0.3, 300.0)
_P = st.floats(1e-300, 0.5)


@_SETTINGS
@given(nu=_NU, p1=_P, p2=_P)
def test_quantile_monotone(nu, p1, p2):
    d = dist.StudentT(nu)
    lo, hi = sorted((p1, p2))
    q_lo, q_hi = d.quantile(lo), d.quantile(hi)
    # allowing a few ulps of evaluation noise between nearly equal levels
    assert q_lo <= q_hi or q_lo <= q_hi + 1e-13 * abs(q_hi)


@_SETTINGS
@given(nu=_NU, u=st.floats(0.5, 1.0, exclude_max=True))
def test_quantile_antisymmetric(nu, u):
    # 1 - u is exact for u in [0.5, 1), so the two levels mirror exactly
    d = dist.StudentT(nu)
    assert d.quantile(1.0 - u) == -d.quantile(u)


@_SETTINGS
@given(nu=st.floats(1.05, 300.0), s=st.floats(0.1, 10.0), mu=st.floats(-10.0, 10.0),
       alpha=st.floats(1e-6, 1.0 - 1e-12))
def test_superquantile_at_least_quantile(nu, s, mu, alpha):
    d = dist.StudentT(nu, s, mu)
    assert superquantile(d, alpha) >= d.quantile(alpha)


def _mp_cdf_signed(nu: float, t: float):
    """Cdf at any t, 40 digits: the tail below -|t|, mirrored for t > 0."""
    tail = _mp_cdf(nu, -abs(t))
    return tail if t <= 0 else 1 - tail


CDF_POINTS = (-1e300, -1e200, -1e155, -1e60, -1e10, -1e4, -300.0, -30.0, -5.0, -2.0,
              -1.0, -0.3, -1e-2, -1e-4, -1e-8, -1e-30, 0.0)


@pytest.mark.parametrize("nu", NUS)
def test_cdf_matches_mpmath(nu):
    # relative to the cdf in the tails and to its distance from 1/2 near t = 0,
    # plus the rounding of a value near 1/2; 2e-12 is the lgamma-limited
    # accuracy of reg_inc_beta at nu = 300
    d = dist.StudentT(nu)
    for t in CDF_POINTS + tuple(-t for t in CDF_POINTS):
        want = _mp_cdf_signed(nu, t)
        with mp.workdps(40):
            scale = min(want, 1 - want, abs(mp.mpf(0.5) - want))
            err = abs(d.cdf(t) - want)
        assert err <= 2e-12 * scale + 2.0 ** -54, (nu, t, d.cdf(t), float(want))


def _mp_cdf_near_normal(nu: float, t: float):
    """Lower-tail cdf (1 - I_x(1/2, nu/2)) / 2, x = t^2 / (nu + t^2), at t <= 0: the
    series in x converges fast where t^2 << nu, with digits to spare for the
    cancellation of 1 - I down to a tail of e^(-t^2/2)."""
    with mp.workdps(60 + int(t * t / 4.6)):
        nu, t = mp.mpf(nu), mp.mpf(t)
        return (1 - mp.betainc(mp.mpf(1) / 2, nu / 2, 0, t * t / (nu + t * t),
                               regularized=True)) / 2


@pytest.mark.parametrize("nu", (1e3, 1e4, 1e9, 1e16, 1e40))
def test_cdf_at_huge_nu(nu):
    # where t^2 <= nu / 200 the cdf is Phi(w), w the Normal-limit quantile
    # inverted; the incomplete beta read 0.0075 at the 0.01 quantile for
    # nu = 1e16 and 0.5 at nu = 1e40. Inside, the bound is Phi's conditioning
    # t^2 times a few ulps; outside (nu = 1e3, 1e4 only) it is the test above's;
    # both allow one ulp of a value in [1/2, 1)
    d = dist.StudentT(nu)
    edge = math.sqrt(nu / 200.0)
    points = [d.quantile(p) for p in LEVELS] + [-1.0, -1e-5]
    if nu <= 1e4:
        points += [-edge * (1 + 1e-6), -edge * (1 - 1e-6), -3.0]
    for t in points:
        inside = 200.0 * t * t <= nu
        tail = _mp_cdf_near_normal(nu, t) if inside else _mp_cdf(nu, t)
        rtol = 1e-15 * (1.0 + t * t) if inside else 2e-12
        for x, want in ((t, tail), (-t, 1 - tail)):
            with mp.workdps(40):
                scale = min(want, 1 - want, abs(mp.mpf(0.5) - want))
                err = abs(d.cdf(x) - want)
            assert err <= rtol * scale + 2.0 ** -53, (nu, x, d.cdf(x), float(want))


def test_cdf_far_tail_and_centre():
    # t^2 overflows in the first two; 1/2 - cdf cancelled in the last two
    assert abs(dist.StudentT(1.0).cdf(-1e200) / 3.183098861837907e-201 - 1) <= 1e-13
    assert abs(dist.StudentT(1.0).cdf(-1e155) / 3.183098861837907e-156 - 1) <= 1e-13
    for nu, t in ((300.0, -1e-5), (30.0, -1e-4)):
        with mp.workdps(40):
            want = mp.mpf(0.5) - _mp_cdf(nu, t)
            got = 0.5 - dist.StudentT(nu).cdf(t)
            assert abs(got - want) <= 1e-10 * want, (nu, t, got, float(want))


def _mp_superquantile(nu: float, alpha: float):
    """sq of the standardized variate, 40 digits: nu c z^((nu-1)/2) / ((nu-1)(1-alpha)),
    where z = nu / (nu + t^2) solves I_z(nu/2, 1/2) = 2 min(alpha, 1 - alpha)."""
    with mp.workdps(40):
        nu, alpha = mp.mpf(nu), mp.mpf(alpha)
        a, half = nu / 2, mp.mpf(1) / 2
        target = mp.log(2 * min(alpha, 1 - alpha))
        ln_z = mp.findroot(
            lambda u: mp.log(mp.betainc(a, half, 0, mp.exp(u), regularized=True)) - target,
            (target / a - 5, mp.mpf(0)), solver="anderson")
        c = mp.gamma((nu + 1) / 2) / (mp.gamma(a) * mp.sqrt(nu * mp.pi))
        return nu * c * mp.exp(ln_z * (nu - 1) / 2) / ((nu - 1) * (1 - alpha))


@pytest.mark.parametrize("nu, alpha, want", [
    (1.01, 1e-300, 0.034885245751270588),
    (1.01, 1e-200, 0.34098933555561755),
    (1.5, 1e-300, 1.5658408282034104e-100),
    (3.0, 1e-300, 1.5496662540670187e-200),
])
def test_superquantile_deep_lower_tail(nu, alpha, want):
    # t^2 overflows (nu = 1.01) or the density underflows (nu = 1.5, 3)
    assert abs(superquantile(dist.StudentT(nu), alpha) / want - 1.0) <= 1e-12
    assert abs(want / float(_mp_superquantile(nu, alpha)) - 1.0) <= 1e-12


SQ_LEVELS = (1e-300, 1e-200, 1e-100, 1e-20, 1e-5, 0.01, 0.3, 0.5, 0.7, 0.95, 0.999,
             1 - 1e-9)


@pytest.mark.parametrize("nu", (1.01, 1.05, 1.5, 2.5, 3.0, 6.0, 30.0))
def test_superquantile_matches_mpmath(nu):
    d = dist.StudentT(nu, 2.0)
    for alpha in SQ_LEVELS:
        want = 2.0 * _mp_superquantile(nu, alpha)
        with mp.workdps(40):
            err = abs(superquantile(d, alpha) - want) / want
        assert err <= 1e-12, (nu, alpha, superquantile(d, alpha), float(want))


@pytest.mark.parametrize("nu", (1e-300, 1e-20, 1e-16, 1e-12, 1e-5, 3.0, 1e300))
def test_median_is_the_location(nu):
    # ln z = ln(x) / a once carried the rounding of ln B(a, 1/2) times 2/nu: +inf at
    # nu = 1e-20, -2.69e7 at nu = 1e-16
    assert dist.StudentT(nu).quantile(0.5) == 0.0
    assert dist.StudentT(nu, 2.0, -3.0).tail_quantile(0.5) == -3.0


def test_quantile_just_below_the_median_at_tiny_nu():
    # p = 1/2 - 2^-k at nu = 10^U(-300, -6): a finite t brackets p in the 50-digit cdf
    # within 1e-12 relative, and -inf only where the cdf at -1.8e308 still exceeds p
    def cdf(nu, t):
        with mp.workdps(50):
            z = nu / (nu + mp.mpf(t) ** 2)
            return mp.betainc(mp.mpf(nu) / 2, mp.mpf(1) / 2, 0, z, regularized=True) / 2

    rng = random.Random(2023)
    for _ in range(3000):
        nu, k = 10.0 ** rng.uniform(-300.0, -6.0), rng.randint(30, 54)
        p = 0.5 - 2.0 ** -k
        t = dist.StudentT(nu).quantile(p)
        if t == -math.inf:
            assert cdf(nu, "-1.8e308") > p, (nu, k)
        else:
            assert cdf(nu, t * (1 + 1e-12)) <= p <= cdf(nu, t * (1 - 1e-12)), (nu, k, t)
