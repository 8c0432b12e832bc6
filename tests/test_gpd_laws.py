"""The three GPD laws against their own closed forms at 50 digits.

Exponential(lam) = GPD(0, 1/lam, 0) and Pareto(a, xm) = GPD(xm, xm/a, 1/a) run
the GPD's evaluators; here each law is checked against the formulas the paper
gives for it, at scales near both ends of binary64 and at shapes next to the
poles a = 1 and a = 2, where 1 - 1/a and 1 - 2/a keep only 7 digits: the GPD
formulas read Pareto's (a - 1)/a and (a - 2)/a there.
"""

import math

import pytest

from tailrisk import distributions as dist
from tailrisk import tail_metrics as tm
from tailrisk.errors import ParameterError

mp = pytest.importorskip("mpmath")

A = (1 + 1e-9, 1 + 1e-6, 1.01, 2 + 1e-9, 3.0, 2000.0)
XM = (1e-300, 1.0, 1e300)
LAM = (1e-200, 1.0, 1e200)
GPDS = ((0.0, 1e-300, 2.0), (0.0, 1e200, 0.1), (-1.0, 2.0, 0.3), (0.0, 1.0, -0.6),
        (0.0, 1e300, -1e-3), (0.0, 1.0, 0.2), (0.0, 1.0, 0.5 - 1e-9), (0.0, 1.0, 1 - 1e-9))
LAWS = ([dist.Exponential(lam) for lam in LAM] + [dist.Pareto(a, xm) for a in A for xm in XM]
        + [dist.GPD(*p) for p in GPDS])
LEVELS = (1e-12, 0.1, 0.5, 0.9)
TAIL_MASSES = (0.5, 1e-3, 1e-12, 1e-100, 1e-200, 1e-300)
ULP = 2.0 ** -52


def _closed_forms(d):
    """(location, scale, shape, forms): the law's own pdf, survival, tail quantile,
    mean, variance, superquantile and bPOE in mpmath, from its binary64 parameters."""
    P = {k: mp.mpf(v) for k, v in d.params().items()}
    if d.family == "exponential":
        lam = P["lam"]
        return 0, 1 / lam, 0, {
            "pdf": lambda x: lam * mp.exp(-lam * x),
            "survival": lambda x: mp.exp(-lam * x),
            "tail_quantile": lambda e: -mp.log(e) / lam,
            "mean": 1 / lam, "variance": 1 / lam ** 2,
            "sq": lambda e: (1 - mp.log(e)) / lam,
            "bpoe": lambda x: mp.exp(1 - lam * x)}
    if d.family == "pareto":
        a, xm = P["a"], P["xm"]
        return xm, xm / a, 1 / a, {
            "pdf": lambda x: a * xm ** a / x ** (a + 1),
            "survival": lambda x: (xm / x) ** a,
            "tail_quantile": lambda e: xm * e ** (-1 / a),
            "mean": a * xm / (a - 1), "variance": a * xm ** 2 / ((a - 1) ** 2 * (a - 2)),
            "sq": lambda e: a * xm * e ** (-1 / a) / (a - 1),
            "bpoe": lambda x: (a * xm / ((a - 1) * x)) ** a}
    mu, s, k = P["mu"], P["s"], P["xi"]
    return mu, s, k, {
        "pdf": lambda x: (1 + k * (x - mu) / s) ** (-1 / k - 1) / s,
        "survival": lambda x: (1 + k * (x - mu) / s) ** (-1 / k),
        "tail_quantile": lambda e: mu + s * (e ** -k - 1) / k,
        "mean": mu + s / (1 - k), "variance": s ** 2 / ((1 - k) ** 2 * (1 - 2 * k)),
        "sq": lambda e: mu + s * (e ** -k / (1 - k) + (e ** -k - 1) / k),
        "bpoe": lambda x: ((1 + k * (x - mu) / s) * (1 - k)) ** (-1 / k)}


def _close(got, want, rtol, what):
    if want > mp.mpf(1.7976931348623157e308):
        assert got == math.inf, what
    else:   # an absolute floor of the smallest normal float where want underflows
        assert abs(got - want) <= rtol * max(abs(want), 2.2250738585072014e-308), (what, got, want)


@pytest.mark.parametrize("d", LAWS, ids=repr)
def test_gpd_law_matches_its_closed_forms(d):
    with mp.workdps(50):
        mu, s, k, f = _closed_forms(d)
        # moments and quantiles: 2e-15 and the 2e-13 of test_quantile
        _close(d.mean(), f["mean"] if k < 1 else mp.inf, 2e-15, "mean")
        _close(d.variance(), f["variance"] if 2 * k < 1 else mp.inf, 2e-15, "variance")
        for alpha in LEVELS:
            _close(d.quantile(alpha), f["tail_quantile"](1 - mp.mpf(alpha)), 2e-13, ("quantile", alpha))
        for eps in TAIL_MASSES:
            q = f["tail_quantile"](mp.mpf(eps))
            _close(d.tail_quantile(eps), q, 2e-13, ("tail_quantile", eps))
            if k < 0 and eps ** -k < 0.5 or float(q) == math.inf:
                continue   # x near the top of the support, where 1 + xi z cancels in x itself
            # pdf and survival at x = q, bPOE at x = sq; each exponent is a product
            # of ln(1 + xi z) with binary64 factors, so its rounding is added as a
            # relative error of a few ulps times the exponent
            x = float(q)
            pdf = f["pdf"](mp.mpf(x))
            _close(d.pdf(x), pdf, 2e-15 + 2 * ULP * abs(mp.log(pdf * s)), ("pdf", x))
            _close(d.cdf(x), 1 - f["survival"](mp.mpf(x)), 2e-15, ("cdf", x))
            if k >= 1:
                continue
            # Pareto's 1/a is rounded: the power eps^(-1/a) moves by |ln| of it times 2^-53
            power = abs(mp.log(eps)) * k * ULP / 2 if d.family == "pareto" else 0
            sq = f["sq"](mp.mpf(eps))
            _close(tm.superquantile(d, 1.0 - eps, eps)[0], sq, 2e-15 + power, ("sq", eps))
            x = float(sq)
            if x == math.inf:
                continue
            bpoe = f["bpoe"](mp.mpf(x)) if x > f["mean"] else mp.mpf(1)
            _close(tm.bpoe(d, x).value, bpoe, 2e-15 + 2 * ULP * abs(mp.log(bpoe)), ("bpoe", x))


def test_gpd_overflow_routes():
    # eps^-xi, the density's e^-ln and s^2 leave binary64 where the results do not
    d = dist.GPD(0.0, 1e-300, 2.0)
    assert abs(d.tail_quantile(1e-200) / 5e99 - 1.0) <= 2e-13
    assert abs(d.pdf(1.0) / (0.5 * 2.0 ** -0.5 * 1e-150) - 1.0) <= 1e-14
    assert dist.GPD(0.0, 1e200, 0.1).variance() == math.inf
    assert dist.Pareto(3.0, 1e200).variance() == math.inf
    # S = (1 + xi z)^(-1/xi) below the normal floats where S / (s (1 + xi z)) is not; the
    # density near e^-481 is formed in logs, a few hundred ulps of the exponent
    with mp.workdps(50):
        x, s = mp.mpf(1e-130), mp.mpf(1e-300)
        _close(dist.GPD(0.0, 1e-300, 0.5).pdf(1e-130), (1 + x / (2 * s)) ** -3 / s, 1e-13, "gpd")
        _close(dist.Pareto(2.0, 1e-300).pdf(1e-130), 2 * s ** 2 / x ** 3, 1e-13, "pareto")
    # bPOE near 1e-300 where 1 + xi z = 1e309 overflows and (1 - xi)(1 + xi z) does not
    with mp.workdps(50):
        _, _, _, f = _closed_forms(dist.Pareto(1 + 1e-9, 1e-300))
        _close(tm.bpoe(dist.Pareto(1 + 1e-9, 1e-300), 1e9).value, f["bpoe"](mp.mpf(1e9)), 2e-15, "bpoe")


@pytest.mark.parametrize("cls, args", [
    (dist.Exponential, (1e-310,)), (dist.Exponential, (1e308,)),
    (dist.Pareto, (1e-320, 1.0)), (dist.Pareto, (1e308, 1.0)), (dist.Pareto, (1e-300, 1e10)),
], ids=repr)
def test_member_scale_beyond_the_normal_floats_is_a_parameter_error(cls, args):
    # 1/lam, xm/a or 1/a is inf or subnormal
    with pytest.raises(ParameterError):
        cls(*args)
