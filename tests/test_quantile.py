"""Every family's quantile: one evaluation both ways, and an mpmath differential test."""

import math
import random

import pytest

from tailrisk import distributions as dist
from tailrisk.errors import ParameterError
from test_distributions import ALL_SETTINGS

mp = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=500, deadline=None, derandomize=True)
@given(d=st.sampled_from(ALL_SETTINGS), a=st.floats(0.5, 1.0, exclude_max=True))
def test_tail_quantile_is_quantile_bitwise(d, a):
    assert d.tail_quantile(1.0 - a) == d.quantile(a)
    assert d.quantile(1.0 - a) == d.tail_quantile(a)


def _mp_lower_root(cdf, p, start):
    """Root of cdf(t) = p for t < 0, found in log|t| from the binary64 start."""
    if start == 0.0:
        return mp.mpf(0)
    return -mp.exp(mp.findroot(lambda v: mp.log(cdf(-mp.exp(v)) / p), mp.log(-start)))


def _mp_quantile(d, alpha=None, eps=None):
    """The quantile at the level alpha or the tail mass eps, to 50 digits.

    The other of the two is formed in mpmath, and -ln of either is read from
    the argument given, so the reference is exact at 1e-300 on both sides.
    """
    with mp.workdps(50):
        a = mp.mpf(alpha) if alpha is not None else 1 - mp.mpf(eps)
        e = mp.mpf(eps) if eps is not None else 1 - a
        y_e = -mp.log(e) if eps is not None else -mp.log1p(-a)   # -ln(1 - alpha)
        y_a = -mp.log(a) if alpha is not None else -mp.log1p(-e)  # -ln(alpha)
        p, sign = (a, 1) if a <= e else (e, -1)
        P = {k: mp.mpf(v) for k, v in d.params().items()}
        lower = float(p)   # the level of the lower half that mirrors onto this one
        f = d.family
        if f == "exponential":
            return y_e / P["lam"]
        if f == "pareto":
            return P["xm"] * e ** (-1 / P["a"])
        if f == "gpd":
            return P["mu"] + P["s"] * (y_e if P["xi"] == 0 else mp.expm1(P["xi"] * y_e) / P["xi"])
        if f == "weibull":
            return P["lam"] * y_e ** (1 / P["k"])
        if f == "loglogistic":
            return P["a"] * (a / e) ** (1 / P["b"])
        if f == "gev":
            if P["xi"] == 0:
                return P["mu"] - P["s"] * mp.log(y_a)
            return P["mu"] + P["s"] * mp.expm1(-P["xi"] * mp.log(y_a)) / P["xi"]
        if f == "laplace":
            return P["mu"] + sign * P["b"] * mp.log(2 * p)
        if f == "logistic":
            return P["mu"] + sign * P["s"] * mp.log(p / (1 - p))
        if f in ("normal", "lognormal"):
            z = _mp_lower_root(mp.ncdf, p, dist.Normal(0.0, 1.0).quantile(lower))
            if f == "normal":
                return P["mu"] + sign * P["sigma"] * z
            return mp.exp(P["mu"] + sign * P["s"] * z)
        if f == "student-t":
            nu = P["nu"]

            def cdf(t):
                return mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + t * t), regularized=True) / 2

            t = _mp_lower_root(cdf, p, d._std_lower_quantile(lower))
            return P["mu"] + sign * P["s"] * t
    raise KeyError(f)


# 0.5 +- 3e-7: the Logistic log-odds cancelled there (1.2e-13)
LEVELS = (1e-300, 1e-12, 1e-3, 0.25, 0.5 - 3e-7, 0.5 - 2 ** -30, 0.5, 0.5 + 2 ** -30,
          0.5 + 3e-7, 0.75, 1 - 2 ** -30, 1 - 1e-12)
TAIL_MASSES = (1e-300, 1e-100, 1e-12, 1e-3, 0.25, 0.5 - 3e-7, 0.5 - 2 ** -30, 0.75)
# families that raise to a binary64 power 1/shape, where rounding the exponent
# alone moves the answer by up to |ln(q / scale)| 2^-53 relative
POWER_SCALE = {"pareto": "xm", "loglogistic": "a", "weibull": "lam"}


def _check(d, got, want):
    rtol = 2e-14
    if d.family in POWER_SCALE and got > 0.0:
        rtol += abs(math.log(got / getattr(d, POWER_SCALE[d.family]))) * 2.0 ** -53
    # 2^-1074 admits a quantile that underflows binary64
    assert abs(got - want) <= rtol * abs(want) + 2.0 ** -1074, (d, got, float(want))


@pytest.mark.parametrize("d", ALL_SETTINGS, ids=repr)
def test_quantile_matches_mpmath(d):
    for alpha in LEVELS:
        _check(d, d.quantile(alpha), _mp_quantile(d, alpha=alpha))
    for eps in TAIL_MASSES:
        _check(d, d.tail_quantile(eps), _mp_quantile(d, eps=eps))


# the power alone leaves binary64 (or its normal range) while the quantile
# does not: a small scale times an overflowed power, a large one times an
# underflowed or subnormal power
@pytest.mark.parametrize("d, method, level", [
    (dist.Pareto(0.5, 1e-300), "tail_quantile", 1e-300),
    (dist.LogLogistic(1e-300, 0.5), "tail_quantile", 1e-300),
    (dist.Weibull(1e-300, 0.005), "tail_quantile", 1e-300),
    (dist.Weibull(1e300, 0.5), "quantile", 1e-300),
    (dist.Weibull(1e300, 0.5), "quantile", 1e-160),
], ids=repr)
def test_scaled_power_beyond_binary64(d, method, level):
    want = _mp_quantile(d, **{"alpha" if method == "quantile" else "eps": level})
    got = getattr(d, method)(level)
    assert abs(got - want) <= 2e-13 * abs(want), (got, float(want))


@pytest.mark.parametrize("d, alpha", [
    (dist.GPD(0.0, 1.0, 1e20), 1e-19),
    (dist.Pareto(1e-18, 1.0), 1e-17),
], ids=repr)
def test_gpd_quantile_below_the_median_reads_the_level(d, alpha):
    # xi y = 10 below the median: eps = 1 - alpha rounds to 1 (the power read the
    # location), y = -ln(1 - alpha) does not
    want = _mp_quantile(d, alpha=alpha)
    assert abs(d.quantile(alpha) - want) <= 1e-13 * want, (d.quantile(alpha), float(want))


def test_loglogistic_odds_beyond_binary64():
    # alpha / eps rounds to inf without raising at eps = 5e-324; the quantile
    # a (alpha / eps)^(1/b) is about 2.9e6
    d = dist.LogLogistic(1.0, 50.0)
    for eps in (5e-324, 1e-310):
        want = _mp_quantile(d, eps=eps)
        got = d.tail_quantile(eps)
        assert abs(got - want) <= 1e-13 * want, (eps, got, float(want))


def _extreme_settings(rng, n):
    """n seeded members of every family, each parameter at 10^U(-300, 300) in size."""
    def size():
        return 10.0 ** rng.uniform(-300.0, 300.0)

    def signed():
        return rng.choice((-1.0, 0.0, 1.0)) * size()

    makers = (lambda: dist.Exponential(size()), lambda: dist.Pareto(size(), size()),
              lambda: dist.GPD(signed(), size(), signed()),
              lambda: dist.Laplace(signed(), size()), lambda: dist.Normal(signed(), size()),
              lambda: dist.LogNormal(signed(), size()), lambda: dist.Logistic(signed(), size()),
              lambda: dist.StudentT(size(), size(), signed()),
              lambda: dist.Weibull(size(), size()), lambda: dist.LogLogistic(size(), size()),
              lambda: dist.GEV(signed(), size(), signed()))
    for make in makers:
        made = 0
        while made < n:
            try:
                d = make()
            except ParameterError:   # e.g. 1/lam outside the normal floats
                continue
            made += 1
            yield d


# ascending levels from the smallest subnormal to 1 - 2^-53, the median among them
SWEEP_LEVELS = (5e-324, 1e-300, 1e-30, 2 ** -53, 0.1, 0.5 - 2 ** -40, 0.5, 0.5 + 2 ** -40,
                0.9, 1 - 2 ** -30, 1 - 2 ** -53)
SWEEP_TAIL_MASSES = (1e-30, 1e-300, 5e-324)   # levels beyond 1 - 2^-53, ascending


def test_quantiles_total_over_extreme_parameters():
    # each family's formula returns +-inf itself where its quantile leaves binary64:
    # no untyped error, the symmetric medians are mu, quantile(a) is tail_quantile(1 - a)
    # on [1/2, 1), and the quantile never falls as the level rises
    for d in _extreme_settings(random.Random(2300), 60):
        values = [d.quantile(a) for a in SWEEP_LEVELS]
        values += [d.tail_quantile(e) for e in SWEEP_TAIL_MASSES]
        for a in SWEEP_LEVELS[6:]:
            assert d.quantile(a) == d.tail_quantile(1.0 - a), (d, a)
        if d.family in ("laplace", "normal", "logistic", "student-t"):
            assert d.quantile(0.5) == d.mu, d
        assert all(lo <= hi for lo, hi in zip(values, values[1:])), (d, values)
