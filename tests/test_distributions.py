import copy
import json
import math
import pickle
import sys

import numpy as np
import pytest

from tailrisk import _sampling
from tailrisk import distributions as dist
from tailrisk._quad import adaptive_quad
from tailrisk.errors import DomainError, ParameterError

# three parameter settings per family, shared by several grids below
SETTINGS = {
    "exponential": [dist.Exponential(1.0), dist.Exponential(0.25), dist.Exponential(4.0)],
    "pareto": [dist.Pareto(1.5, 2.0), dist.Pareto(3.0, 1.0), dist.Pareto(2.2, 0.5)],
    "gpd": [dist.GPD(-1.0, 2.0, 0.3), dist.GPD(0.0, 1.0, -0.5), dist.GPD(0.5, 2.0, 0.0)],
    "laplace": [dist.Laplace(0.0, 1.0), dist.Laplace(1.0, 2.0), dist.Laplace(-3.0, 0.5)],
    "normal": [dist.Normal(0.0, 1.0), dist.Normal(1.0, 2.0), dist.Normal(-2.0, 0.3)],
    "lognormal": [dist.LogNormal(0.0, 1.0), dist.LogNormal(0.5, 0.8), dist.LogNormal(-1.0, 1.5)],
    "logistic": [dist.Logistic(0.0, 1.0), dist.Logistic(-2.0, 1.5), dist.Logistic(3.0, 0.4)],
    "student-t": [dist.StudentT(2.5, 2.0, 1.0), dist.StudentT(3.0), dist.StudentT(6.0, 0.5, -1.0)],
    "weibull": [dist.Weibull(0.5, 1.4), dist.Weibull(2.0, 0.8), dist.Weibull(1.0, 3.0)],
    "loglogistic": [dist.LogLogistic(2.0, 3.0), dist.LogLogistic(1.0, 1.5), dist.LogLogistic(0.5, 4.0)],
    "gev": [dist.GEV(1.0, 2.0, 0.3), dist.GEV(1.0, 2.0, -0.2), dist.GEV(0.0, 1.0, 0.0)],
}
ALL_SETTINGS = [d for group in SETTINGS.values() for d in group]


def test_make_validates():
    assert dist.make("exponential", lam=1.0) == dist.Exponential(1.0)
    assert dist.make("weibull", lam=0.5, k=1.4) == dist.Weibull(0.5, 1.4)
    with pytest.raises(ParameterError, match="a > 0"):
        dist.make("pareto", a=-1.0, xm=1.0)
    with pytest.raises(ParameterError, match="sigma > 0"):
        dist.make("normal", mu=0.0, sigma=0.0)
    with pytest.raises(ParameterError, match="unknown family"):
        dist.make("cauchy", mu=0.0)
    with pytest.raises(ParameterError):
        dist.make("exponential", lam=1.0, k=2.0)


# the reprs the families printed as frozen dataclasses, kept verbatim
DATACLASS_REPRS = [
    "Exponential(lam=1.0)", "Exponential(lam=0.25)", "Exponential(lam=4.0)",
    "Pareto(a=1.5, xm=2.0)", "Pareto(a=3.0, xm=1.0)", "Pareto(a=2.2, xm=0.5)",
    "GPD(mu=-1.0, s=2.0, xi=0.3)", "GPD(mu=0.0, s=1.0, xi=-0.5)", "GPD(mu=0.5, s=2.0, xi=0.0)",
    "Laplace(mu=0.0, b=1.0)", "Laplace(mu=1.0, b=2.0)", "Laplace(mu=-3.0, b=0.5)",
    "Normal(mu=0.0, sigma=1.0)", "Normal(mu=1.0, sigma=2.0)", "Normal(mu=-2.0, sigma=0.3)",
    "LogNormal(mu=0.0, s=1.0)", "LogNormal(mu=0.5, s=0.8)", "LogNormal(mu=-1.0, s=1.5)",
    "Logistic(mu=0.0, s=1.0)", "Logistic(mu=-2.0, s=1.5)", "Logistic(mu=3.0, s=0.4)",
    "StudentT(nu=2.5, s=2.0, mu=1.0)", "StudentT(nu=3.0, s=1.0, mu=0.0)",
    "StudentT(nu=6.0, s=0.5, mu=-1.0)",
    "Weibull(lam=0.5, k=1.4)", "Weibull(lam=2.0, k=0.8)", "Weibull(lam=1.0, k=3.0)",
    "LogLogistic(a=2.0, b=3.0)", "LogLogistic(a=1.0, b=1.5)", "LogLogistic(a=0.5, b=4.0)",
    "GEV(mu=1.0, s=2.0, xi=0.3)", "GEV(mu=1.0, s=2.0, xi=-0.2)", "GEV(mu=0.0, s=1.0, xi=0.0)",
]
SIGNATURES = {
    "exponential": ("lam",), "pareto": ("a", "xm"), "gpd": ("mu", "s", "xi"),
    "laplace": ("mu", "b"), "normal": ("mu", "sigma"), "lognormal": ("mu", "s"),
    "logistic": ("mu", "s"), "student-t": ("nu", "s", "mu"), "weibull": ("lam", "k"),
    "loglogistic": ("a", "b"), "gev": ("mu", "s", "xi"),
}


@pytest.mark.parametrize("d, text", zip(ALL_SETTINGS, DATACLASS_REPRS), ids=DATACLASS_REPRS)
def test_value_semantics(d, text):
    cls, params = type(d), d.params()
    assert repr(d) == text
    assert tuple(params) == SIGNATURES[d.family] == cls._fields
    by_position, by_keyword = cls(*params.values()), cls(**params)
    assert by_position == by_keyword == d and not by_position != d
    assert hash(by_position) == hash(by_keyword) == hash(d)
    assert len({d, by_position, by_keyword}) == 1
    for again in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
        assert type(again) is cls and again == d and again.params() == params
        assert hash(again) == hash(d) and repr(again) == text
    for name in params:
        with pytest.raises(AttributeError):
            setattr(d, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(d, name)
        # a different value of any one parameter is a different distribution
        other = cls(**{**params, name: params[name] + 0.125})
        assert other != d and not other == d and other.params() != params
    with pytest.raises(AttributeError):
        d.extra = 1.0
    assert d.params() == params and repr(d) == text


def test_value_semantics_across_families():
    assert dist.Normal(0.0, 1.0) != dist.Logistic(0.0, 1.0)
    assert dist.Normal(0.0, 1.0) != (0.0, 1.0) and dist.Normal(0.0, 1.0) != 0.0
    assert dist.Normal(0.0, 1.0) != dist.LogNormal(0.0, 1.0)
    assert dist.StudentT(3.0) == dist.StudentT(3.0, 1.0, 0.0) == dist.StudentT(nu=3.0, mu=0.0)
    assert dist.StudentT(3.0, mu=2.0).params() == {"nu": 3.0, "s": 1.0, "mu": 2.0}
    assert repr(dist.StudentT(4.0, mu=-1.5)) == "StudentT(nu=4.0, s=1.0, mu=-1.5)"
    with pytest.raises(TypeError):
        dist.StudentT()
    with pytest.raises(TypeError):
        dist.Normal(0.0, 1.0, 2.0)


@pytest.mark.parametrize("family, params, match", [
    ("normal", {"mu": 0.0}, "missing"),
    ("normal", {"mu": 0.0, "sigma": 1.0, "nu": 3.0}, r"does not take parameter\(s\) \['nu'\]"),
    ("student-t", {"s": 1.0}, "missing"),
    ("gev", {"mu": 0.0, "scale": 1.0, "xi": 0.1}, r"\['scale'\]; expected \['mu', 's', 'xi'\]"),
])
def test_make_rejects_unknown_or_missing_keywords(family, params, match):
    with pytest.raises(ParameterError, match=match):
        dist.make(family, **params)


@pytest.mark.parametrize("d", [group[0] for group in SETTINGS.values()], ids=repr)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(d, bad):
    for name, value in d.params().items():
        with pytest.raises(ParameterError, match="finite"):
            dist.make(d.family, **{**d.params(), name: bad})


def test_non_finite_parameter_examples():
    with pytest.raises(ParameterError, match="finite mu"):
        dist.Normal(math.nan, 1.0)
    with pytest.raises(ParameterError, match="finite sigma"):
        dist.Normal(0.0, math.inf)
    with pytest.raises(ParameterError, match="finite xi"):
        dist.GPD(0.0, 1.0, math.nan)


def test_pdf_cdf_spot_values():
    assert dist.Logistic(0.0, 1.0).cdf(0.0) == 0.5
    assert dist.Exponential(2.0).cdf(-0.5) == 0.0
    assert abs(dist.Normal(0.0, 1.0).pdf(0.0) - 1.0 / math.sqrt(2 * math.pi)) <= 1e-15
    assert dist.Pareto(2.0, 1.0).pdf(0.5) == 0.0
    assert dist.Weibull(1.0, 2.0).pdf(-1.0) == 0.0


@pytest.mark.parametrize("d", ALL_SETTINGS, ids=lambda d: repr(d))
def test_quantile_roundtrip(d):
    for i in range(1, 100):
        alpha = i / 100
        assert abs(d.cdf(d.quantile(alpha)) - alpha) <= 1e-9


@pytest.mark.parametrize("d", ALL_SETTINGS, ids=lambda d: repr(d))
def test_tail_quantile_matches_quantile(d):
    # on [0.5, 1) the complement is exact, so both calls are one evaluation
    for a in (0.5, 0.5 + 2 ** -30, 0.75, 0.9, 0.99, 1 - 1e-12, 1 - 2 ** -53):
        assert d.tail_quantile(1.0 - a) == d.quantile(a), a
        assert d.quantile(1.0 - a) == d.tail_quantile(a), a


@pytest.mark.parametrize("d", ALL_SETTINGS, ids=lambda d: repr(d))
def test_pdf_integrates_to_one(d):
    lo, hi = d.support()
    a = d.quantile(1e-10) if not math.isfinite(lo) else lo
    b = d.tail_quantile(1e-10) if not math.isfinite(hi) else hi
    mid = d.quantile(0.5)
    left, _ = adaptive_quad(d.pdf, a, mid, atol=1e-10, rtol=1e-9, limit=4000)
    right, _ = adaptive_quad(d.pdf, mid, b, atol=1e-10, rtol=1e-9, limit=4000)
    assert abs(left + right - 1.0) <= 1e-6


def test_quantile_domain():
    for d in ALL_SETTINGS:
        for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
            with pytest.raises(DomainError, match="quantile level"):
                d.quantile(bad)
            with pytest.raises(DomainError, match="tail probability"):
                d.tail_quantile(bad)


def test_each_family_writes_one_quantile_formula():
    for cls in dist.FAMILIES.values():
        assert "_quantile" in vars(cls), cls
        # the shared evaluators sit in each family's own namespace
        assert vars(cls)["quantile"] is vars(dist.Distribution)["quantile"], cls
        assert vars(cls)["tail_quantile"] is vars(dist.Distribution)["tail_quantile"], cls


@pytest.mark.parametrize("d, method, level, want", [
    (dist.Pareto(0.5, 1.0), "tail_quantile", 1e-300, math.inf),
    (dist.LogLogistic(1.0, 0.01), "quantile", 1 - 2 ** -53, math.inf),
    (dist.LogLogistic(1.0, 0.01), "tail_quantile", 1 - 2 ** -53, 0.0),
    (dist.GPD(0.0, 1.0, 5.0), "tail_quantile", 1e-300, math.inf),
    (dist.LogNormal(0.0, 50.0), "tail_quantile", 1e-300, math.inf),
    (dist.GEV(0.0, 1.0, 5.0), "tail_quantile", 1e-300, math.inf),
    (dist.GEV(0.0, 1.0, -200.0), "quantile", 1e-300, -math.inf),
    # laws bounded below overflow to +inf even below the median
    (dist.LogNormal(800.0, 1.0), "quantile", 0.4, math.inf),
    (dist.Pareto(1e-4, 1.0), "quantile", 0.4, math.inf),
    (dist.GPD(0.0, 1.0, 2000.0), "quantile", 0.4, math.inf),
    (dist.GPD(0.0, 1.0, 2000.0), "tail_quantile", 0.6, math.inf),
], ids=repr)
def test_quantile_beyond_binary64_is_infinite(d, method, level, want):
    # the finite answers lie beyond 1e300: no OverflowError, but +inf, or -inf
    # below the median of a law unbounded below (the underflow reads 0)
    assert getattr(d, method)(level) == want


def test_moments_finite_cases():
    assert abs(dist.Exponential(2.0).mean() - 0.5) <= 1e-15
    assert abs(dist.Logistic(1.0, 1.0).variance() - math.pi ** 2 / 3.0) <= 1e-12
    assert abs(dist.Laplace(0.0, 2.0).variance() - 8.0) <= 1e-12
    assert abs(dist.Pareto(2.0, 1.0).mean() - 2.0) <= 1e-15
    w = dist.Weibull(0.5, 1.4)
    assert abs(w.mean() - 0.5 * math.gamma(1 + 1 / 1.4)) <= 1e-14


def test_moments_divergence_table():
    assert dist.Pareto(0.9, 1.0).mean() == math.inf
    assert dist.Pareto(1.5, 1.0).variance() == math.inf
    assert dist.GPD(0.0, 1.0, 1.2).mean() == math.inf
    assert dist.GPD(0.0, 1.0, 0.6).variance() == math.inf
    assert dist.StudentT(0.9).mean() == math.inf
    assert dist.StudentT(1.8).variance() == math.inf
    assert dist.GEV(0.0, 1.0, 1.1).mean() == math.inf
    assert dist.GEV(0.0, 1.0, 0.7).variance() == math.inf
    assert dist.LogLogistic(1.0, 0.9).mean() == math.inf
    assert dist.LogLogistic(1.0, 1.8).variance() == math.inf
    # Gamma(1 + 1/k) or Gamma(1 + 2/k) beyond binary64: the moment rounds to inf
    assert dist.Weibull(1.0, 0.005).mean() == math.inf
    assert dist.Weibull(1.0, 0.01).variance() == math.inf


def test_weibull_and_gev_moments_against_mpmath():
    mp = pytest.importorskip("mpmath")

    def agrees(got, ref):
        if abs(ref) > sys.float_info.max:   # only there may the moment be +-inf
            return got == math.copysign(math.inf, ref)
        return abs(got - ref) <= 1e-12 * abs(ref)

    with mp.workdps(40):
        for xi in (-200.0, -171.0, -86.0, -0.3, 0.1, 0.4):
            for s in (1e-3, 1.0):
                d, x, sm = dist.GEV(0.0, s, xi), mp.mpf(xi), mp.mpf(s)
                mean = sm * (mp.gamma(1 - x) - 1) / x
                var = sm ** 2 * (mp.gamma(1 - 2 * x) - mp.gamma(1 - x) ** 2) / x ** 2
                assert agrees(d.mean(), mean), (xi, s, d.mean())
                assert agrees(d.variance(), var), (xi, s, d.variance())
        for k in (0.005, 0.01, 0.5, 2.0, 50.0):
            d, km = dist.Weibull(1.0, k), mp.mpf(k)
            mean = mp.gamma(1 + 1 / km)
            assert agrees(d.mean(), mean), (k, d.mean())
            assert agrees(d.variance(), mp.gamma(1 + 2 / km) - mean ** 2), (k, d.variance())


def test_quantile_median_conventions():
    # the Laplace sign convention pins quantile(0.5) to the location
    assert dist.Laplace(0.7, 2.0).quantile(0.5) == 0.7
    assert dist.Normal(1.5, 1.0).quantile(0.5) == 1.5
    assert abs(dist.Exponential(1.0).quantile(1.0 - math.exp(-1.0)) - 1.0) <= 1e-12


def test_student_t_quantile_against_cdf_bisection():
    d = dist.StudentT(3.0, 1.0, 0.0)
    lo, hi = 0.0, 50.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if d.cdf(mid) < 0.95:
            lo = mid
        else:
            hi = mid
    assert abs(d.quantile(0.95) - 0.5 * (lo + hi)) <= 1e-10


# body to deep tail: below 2^-61 the inverse works in log space, and for
# small nu the quantile leaves binary64
DEEP_LEVELS = (0.45, 0.25, 0.1, 1e-2, 1e-5, 1e-10, 1e-20, 1e-30, 1e-100, 1e-200, 1e-300)


def test_student_t_quantile_overflows_to_inf():
    # the true quantile is about -1e1000: no finite floor value, no OverflowError
    d = dist.StudentT(0.3)
    assert d.quantile(1e-300) == -math.inf
    assert d.tail_quantile(1e-300) == math.inf
    assert -math.inf < d.quantile(1e-30) < -1e90   # about -3e98


def test_student_t_quantile_closed_forms():
    for p in DEEP_LEVELS:
        cauchy = -1.0 / math.tan(math.pi * p)
        assert abs(dist.StudentT(1.0).quantile(p) - cauchy) <= 1e-13 * abs(cauchy)
        two = (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
        assert abs(dist.StudentT(2.0).quantile(p) - two) <= 1e-13 * abs(two)


def test_student_t_tail_quantile_is_mirrored_quantile():
    for nu in (0.3, 1.0, 2.5, 30.0):
        d = dist.StudentT(nu)
        for eps in DEEP_LEVELS + (0.5, 0.75, 0.9, 1.0 - 1e-9):
            assert d.tail_quantile(eps) == -d.quantile(eps)


def test_support_bounds():
    assert dist.GPD(0.0, 1.0, -0.5).support() == (0.0, 2.0)
    assert dist.Pareto(2.0, 1.5).support().lower == 1.5
    g = dist.GEV(0.0, 1.0, 0.3)
    assert g.support().lower == pytest.approx(-1.0 / 0.3)
    assert g.support().upper == math.inf
    assert dist.GEV(0.0, 1.0, -0.4).support().upper == pytest.approx(2.5)


def test_xi_near_zero_dispatch():
    # |xi| < 1e-9 is evaluated with the xi = 0 formulas
    near = dist.GPD(0.0, 1.0, 1e-12)
    exact = dist.GPD(0.0, 1.0, 0.0)
    for alpha in (0.1, 0.5, 0.9):
        assert near.quantile(alpha) == exact.quantile(alpha)


@pytest.mark.parametrize("d", [
    dist.Exponential(1.0), dist.Pareto(3.0, 1.0), dist.GPD(-1.0, 2.0, 0.3),
    dist.Laplace(1.0, 2.0), dist.Normal(1.0, 2.0), dist.LogNormal(0.0, 1.0),
    dist.Logistic(-2.0, 1.5), dist.StudentT(6.0, 0.5, -1.0),
    dist.Weibull(0.5, 1.4), dist.LogLogistic(2.0, 3.0), dist.GEV(1.0, 2.0, 0.3),
], ids=lambda d: repr(d))
def test_sample_mean_within_4_stderr(d):
    n = 1_000_000
    x = d.sample(n, np.random.default_rng(314159))
    stderr = math.sqrt(d.variance() / n)
    assert abs(float(x.mean()) - d.mean()) <= 4.0 * stderr


def test_sampling_matches_scalar_quantile():
    u = np.array([1e-8, 0.01, 0.3, 0.5, 0.77, 0.99, 1 - 1e-8])
    # Normal, LogNormal and Student-t sample from numpy's generators and have
    # no array quantile
    for d in (d for d in ALL_SETTINGS if type(d) in _sampling._QUANTILE_ARRAYS):
        vec = _sampling._QUANTILE_ARRAYS[type(d)](d, u)
        scal = np.array([d.quantile(float(p)) for p in u])
        assert np.max(np.abs(vec - scal) / (1.0 + np.abs(scal))) <= 1e-7


def test_json_roundtrip():
    for d in ALL_SETTINGS:
        again = dist.from_json(json.loads(json.dumps(d.to_json())))
        assert again == d
    with pytest.raises(ParameterError):
        dist.from_json({"params": {}})
