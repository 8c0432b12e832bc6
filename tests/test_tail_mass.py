"""The tail mass eps = 1 - alpha carried end to end: superquantiles and bPOE
against mpmath where 1 - alpha no longer resolves them, and the order
properties of the superquantile."""

import math

import pytest

from tailrisk import distributions as dist
from tailrisk import tail_metrics as tm
from test_distributions import ALL_SETTINGS
from test_quantile import _mp_quantile

mp = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _mp_superquantile(d, alpha):
    """The superquantile at the exact binary64 level alpha, to 50 digits."""
    with mp.workdps(50):
        a = mp.mpf(alpha)
        e = 1 - a
        P = {k: mp.mpf(v) for k, v in d.params().items()}
        f = d.family
        if f == "exponential":
            return (1 - mp.log(e)) / P["lam"]
        if f == "pareto":
            return P["xm"] * P["a"] / ((P["a"] - 1) * e ** (1 / P["a"]))
        if f == "gpd":
            if P["xi"] == 0:
                return P["mu"] + P["s"] * (1 - mp.log(e))
            u = e ** -P["xi"]
            return P["mu"] + P["s"] * (u / (1 - P["xi"]) + (u - 1) / P["xi"])
        if f == "laplace":
            if a >= 0.5:
                return P["mu"] + P["b"] * (1 - mp.log(2 * e))
            return P["mu"] + P["b"] * a / e * (1 - mp.log(2 * a))
        if f == "logistic":
            return P["mu"] + P["s"] * (-a * mp.log(a) - e * mp.log(e)) / e
        if f == "weibull":
            return P["lam"] * mp.gammainc(1 + 1 / P["k"], -mp.log(e)) / e
        if f == "loglogistic":
            b = P["b"]
            return P["a"] * mp.betainc(1 - 1 / b, 1 + 1 / b, 0, e) / e
        if f == "gev":
            y = -mp.log(a)
            if P["xi"] == 0:   # Ein(y) = gamma + ln y + E1(y)
                ein = mp.euler + mp.log(y) + mp.e1(y)
                return P["mu"] + P["s"] * (ein / e - mp.log(y))
            gl = mp.gammainc(1 - P["xi"], 0, y)
            return P["mu"] + P["s"] * (gl - e) / (P["xi"] * e)
        q = _mp_quantile(d, alpha=alpha)
        if f == "normal":
            return P["mu"] + P["sigma"] * mp.npdf((q - P["mu"]) / P["sigma"]) / e
        if f == "lognormal":
            z = (mp.log(q) - P["mu"]) / P["s"]
            return mp.exp(P["mu"] + P["s"] ** 2 / 2) * mp.ncdf(P["s"] - z) / e
        if f == "student-t":
            nu, t = P["nu"], (q - P["mu"]) / P["s"]
            c = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
            pdf = c * (1 + t * t / nu) ** (-(nu + 1) / 2)
            return P["mu"] + P["s"] * (nu + t * t) * pdf / ((nu - 1) * e)
    raise KeyError(f)


@pytest.mark.parametrize("d", ALL_SETTINGS, ids=repr)
def test_superquantile_deep_levels_match_mpmath(d):
    for eps in (1e-3, 1e-6, 1e-9, 1e-12):
        alpha = 1.0 - eps
        want = _mp_superquantile(d, alpha)
        got = tm.superquantile(d, alpha)
        assert abs(got - want) <= 2e-13 * abs(want), (alpha, got, float(want))


def _mp_bpoe_normal(x):
    """Tail mass 1 - Phi(z) at the root of phi(z) / (1 - Phi(z)) = x, for N(0, 1)."""
    with mp.workdps(50):
        x = mp.mpf(x)
        z = mp.findroot(lambda z: mp.log(mp.npdf(z) / mp.ncdf(-z)) - mp.log(x), x - 1 / x)
        return mp.ncdf(-z)


@pytest.mark.parametrize("x", (3.0, 6.5, 8.0, 8.5, 20.0))
def test_normal_bpoe_keeps_relative_precision(x):
    # a level 1 - eps resolves bPOE only to 1.1e-16 absolute: at x = 8 it was
    # 0.8% off, and from x = 8.5 on it read 0
    want = _mp_bpoe_normal(x)
    result = tm.bpoe(dist.Normal(0.0, 1.0), x)
    assert abs(result.value - want) <= 1e-10 * want, (result.value, float(want))
    assert not result.clamped


@pytest.mark.parametrize("d, x, formula", [
    (dist.Exponential(1.0), 40.0, math.exp(1.0 - 40.0)),
    (dist.Pareto(3.0, 1.0), 1e6, (3.0 / (1e6 * 2.0)) ** 3.0),
    (dist.Laplace(0.0, 1.0), 40.0, 0.5 * math.exp(1.0 - 40.0)),
], ids=repr)
def test_closed_form_bpoe_below_the_level_resolution(d, x, formula):
    # every value here is below 5.5e-17, which 1 - alpha rounded to 0
    assert 0.0 < formula < 5.5e-17
    result = tm.bpoe(d, x)
    if isinstance(d, dist.Pareto):   # the GPD power form rounds otherwise than this formula
        with mp.workdps(50):
            want = (mp.mpf(d.xm) * d.a / (mp.mpf(x) * (d.a - 1))) ** d.a
            assert abs(result.value - want) <= 1e-15 * want, (result.value, want)
    else:
        assert result.value == formula
    assert result.alpha_star == 1.0 and result.quantile_star < math.inf


def test_weibull_probe_far_beyond_the_level_resolution():
    # finite mean, variance beyond binary64, bPOE 5.9e-43: the Cantelli start
    # is 0.5 and Newton on log(sq - mean) reaches the root
    result = tm.bpoe(dist.Weibull(1.0, 0.01), 1e200)
    want = 5.931120062738126e-43   # mpmath, 40 digits
    assert abs(result.value - want) <= 1e-10 * want
    assert not result.clamped


def test_bpoe_underflow_is_not_a_clamp():
    # bPOE at 38 sigma is about 3e-316, below the smallest normal tail mass
    result = tm.bpoe(dist.Normal(0.0, 1.0), 38.0)
    assert result == (0.0, 1.0, math.inf, False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(d=st.sampled_from(ALL_SETTINGS), a=st.floats(0.0, 1.0, exclude_max=True),
       b=st.floats(0.0, 1.0, exclude_max=True))
def test_superquantile_nondecreasing_and_above_the_quantile(d, a, b):
    lo, hi = min(a, b), max(a, b)
    assert tm.superquantile(d, lo) <= tm.superquantile(d, hi)
    if lo > 0.0:
        assert tm.superquantile(d, lo) >= d.quantile(lo)
