"""Student-t quantile: mpmath differential test and hypothesis properties."""

import math
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
