import copy
import json
import math
import pickle
import sys

import numpy as np
import pytest

from tailrisk import _sampling
from tailrisk import distributions as dist
from tailrisk import tail_metrics as tm
from tailrisk._quad import adaptive_quad
from tailrisk.errors import DomainError, ParameterError
from tailrisk.portfolio import QualifiedFamily

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



@pytest.mark.parametrize("d", [group[0] for group in SETTINGS.values()], ids=repr)
def test_parameters_that_are_not_numbers_are_parameter_errors(d):
    # each raised TypeError from its check's comparison; a wrong call still raises
    # Python's TypeError (test_value_semantics_across_families)
    for name in d.params():
        for bad in ("a", None, [1.0], 1j):
            with pytest.raises(ParameterError, match="finite"):
                type(d)(**{**d.params(), name: bad})


def test_scalar_arguments_that_are_not_numbers_are_typed_errors():
    # make(5) raised AttributeError, and superquantile and bpoe at "x" TypeError
    for family in (5, None, ["normal"], b"normal"):
        with pytest.raises(ParameterError, match="unknown family"):
            dist.make(family, mu=0.0, sigma=1.0)
    for d in ALL_SETTINGS:
        for bad in ("x", None, [0.9]):
            with pytest.raises(DomainError, match="level"):
                tm.superquantile(d, bad)
            with pytest.raises(DomainError, match="threshold"):
                tm.bpoe(d, bad)
            with pytest.raises(DomainError, match="threshold"):
                tm.bpoe_by_root(d, bad)


def test_pdf_cdf_spot_values():
    assert dist.Logistic(0.0, 1.0).cdf(0.0) == 0.5
    assert dist.Exponential(2.0).cdf(-0.5) == 0.0
    assert abs(dist.Normal(0.0, 1.0).pdf(0.0) - 1.0 / math.sqrt(2 * math.pi)) <= 1e-15
    assert dist.Pareto(2.0, 1.0).pdf(0.5) == 0.0
    assert dist.Exponential(2.0).pdf(math.inf) == 0.0
    assert dist.Weibull(1.0, 2.0).pdf(-1.0) == 0.0


@pytest.mark.parametrize("d", ALL_SETTINGS, ids=lambda d: repr(d))
def test_pdf_and_cdf_at_nan_and_infinity(d):
    for f in (d.pdf, d.cdf, d.sf):
        assert math.isnan(f(math.nan)), f
    assert d.pdf(-math.inf) == d.pdf(math.inf) == d.cdf(-math.inf) == d.sf(math.inf) == 0.0
    assert d.cdf(math.inf) == d.sf(-math.inf) == 1.0


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
        # Exponential and Pareto are GPD members and inherit its formula
        if cls in (dist.Exponential, dist.Pareto):
            assert "_quantile" not in vars(cls) and issubclass(cls, dist.GPD), cls
        else:   # a symmetric law writes only its lower half, which _Symmetric mirrors
            symmetric = issubclass(cls, dist._Symmetric)
            assert ("_std_lower_quantile" if symmetric else "_quantile") in vars(cls), cls
            assert not symmetric or "_quantile" not in vars(cls), cls
        # the shared evaluators sit in each family's own namespace
        assert vars(cls)["quantile"] is vars(dist.Distribution)["quantile"], cls
        assert vars(cls)["tail_quantile"] is vars(dist.Distribution)["tail_quantile"], cls


def _outcome(f, *args):
    """f(*args) as hex floats, or the error it raises."""
    try:
        value = f(*args)
    except Exception as exc:   # the same error, with the same message, is the same outcome
        return type(exc).__name__, str(exc)
    return [v.hex() if isinstance(v, float) else v for v in
            (value if isinstance(value, tuple) else (value,))]


@pytest.mark.parametrize("cls", dist.FAMILIES.values(), ids=lambda cls: cls.__name__)
def test_bare_family_subclass_evaluates_as_its_family_bit_for_bit(cls):
    # each family owns its superquantile and minimization tail (KeyError from tables keyed by
    # exact type before)
    subclass = type(f"Bare{cls.__name__}", (cls,), {})
    rng = np.random.default_rng(40)
    for d in SETTINGS[cls.family]:
        e = subclass(**d.params())
        levels = rng.uniform(0.0, 1.0, 8).tolist() + (10.0 ** -rng.uniform(1, 200, 4)).tolist()
        xs = [d.quantile(p) for p in rng.uniform(0.01, 0.99, 4).tolist()]
        xs += [tm.superquantile(d, p) for p in levels[:8]]
        calls = [("quantile", p) for p in levels] + [("tail_quantile", p) for p in levels]
        calls += [(name, x) for x in xs for name in ("pdf", "cdf", "sf")]
        for law in (d, e):
            got = [_outcome(getattr(law, name), v) for name, v in calls]
            got += [_outcome(f, law, p) for p in levels
                    for f in (tm.superquantile, tm.left_superquantile)]
            got += [_outcome(tm.superquantile, law, 1.0 - p, p) for p in levels]
            engines = [tm.partial_expectation, tm.bpoe, tm.bpoe_by_root]
            engines += [tm.bpoe_closed] if isinstance(d, tm.CLOSED_BPOE_FAMILIES) else []
            engines += ([tm.bpoe_by_minimization] if isinstance(d, tm.MINIMIZATION_BPOE_FAMILIES)
                        else [])
            got += [_outcome(f, law, x) for x in xs for f in engines]
            if law is d:
                want = got
        assert got == want, e


@pytest.mark.parametrize("d", [dist.Normal(0.0, 1.7), dist.Laplace(0.0, 0.6),
                               dist.Logistic(0.0, 1.3), dist.StudentT(0.7, 2.0),
                               dist.StudentT(3.0), dist.StudentT(2e4)], ids=repr)
def test_symmetric_laws_mirror_bit_for_bit(d):
    # about mu = 0 the upper half is the lower one negated, in the tails and the quantile:
    # bit for bit only where F and S come from one formula at |x - mu|
    rng = np.random.default_rng(38)
    for x in 10.0 ** rng.uniform(-8.0, 3.0, 500):
        x = float(x)
        assert d.cdf(-x) == d.sf(x) and d.cdf(x) == d.sf(-x), x
    for p in 10.0 ** -rng.uniform(0.302, 300.0, 500):
        p = float(p)
        assert d.quantile(p) == -d.tail_quantile(p), p


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
    # xi = 1 exactly, where 1 - xi is 0
    assert dist.Pareto(1.0, 1.0).variance() == math.inf
    assert dist.GPD(0.0, 1.0, 1.0).variance() == math.inf
    assert dist.StudentT(0.9).mean() == math.inf
    assert dist.StudentT(1.8).variance() == math.inf
    assert dist.GEV(0.0, 1.0, 1.1).mean() == math.inf
    assert dist.GEV(0.0, 1.0, 0.7).variance() == math.inf
    assert dist.LogLogistic(1.0, 0.9).mean() == math.inf
    assert dist.LogLogistic(1.0, 1.8).variance() == math.inf
    # Gamma(1 + 1/k) or Gamma(1 + 2/k) beyond binary64: the moment rounds to inf
    assert dist.Weibull(1.0, 0.005).mean() == math.inf
    assert dist.Weibull(1.0, 0.01).variance() == math.inf
    # and where xi^2 or 1/k^2 overflows too (NaN before, from inf - inf)
    for xi in (-1.3e155, -1e300):
        assert dist.GEV(0.0, 1.0, xi).variance() == math.inf, xi
    for k in (1e-155, 1e-300):
        assert dist.Weibull(1.0, k).variance() == math.inf, k


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
        for k in (0.005, 0.01, 0.5, 2.0, 50.0, 1e3, 1e7, 1e9):
            d, km = dist.Weibull(1.0, k), mp.mpf(k)
            mean = mp.gamma(1 + 1 / km)
            assert agrees(d.mean(), mean), (k, d.mean())
            var = mp.gamma(1 + 2 / km) - mean ** 2   # about zeta(2) / k^2 for large k
            assert agrees(d.variance(), var), (k, d.variance())
            if k >= 1e3:   # Gamma(1 + 2/k) - Gamma(1 + 1/k)^2 is never formed
                assert abs(d.variance() - var) <= 1e-14 * var, (k, d.variance())


def test_loglogistic_variance_against_mpmath():
    # m2 - m1^2 cancels to 0 for large b, and a^2 overflows for large a: neither may
    # reach the result, 3.3e180 at (a, b) = (1e100, 1e10) and inf at (1e200, 1e10)
    mp = pytest.importorskip("mpmath")
    for a in (1e-300, 1e-100, 0.5, 1.0, 2.0, 1e100, 1e200):
        for b in (2.1, 2.5, 3.0, math.pi, 4.0, 10.0, 50.0, 1e3, 1e6, 1e10, 1e200):
            with mp.workdps(40 + 2 * int(math.log10(b))):   # c^2 below 10^-dps cancels
                c = mp.pi / b
                want = float(mp.mpf(a) ** 2 * (2 * c / mp.sin(2 * c) - (c / mp.sin(c)) ** 2))
            got = dist.LogLogistic(a, b).variance()
            if want in (0.0, math.inf):
                assert got == want, (a, b, got)
            else:   # b near 2 loses digits to the rounding of pi / b, ~1e-16 / (pi/2 - c)
                assert abs(got - want) <= 1e-14 * want, (a, b, got, want)


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


XI_THROUGH_ZERO = [0.0] + [s * v for v in (1e-12, 9e-10, 1.1e-9, 1e-6, 1e-3) for s in (1, -1)]


@pytest.mark.parametrize("xi", XI_THROUGH_ZERO)
def test_gpd_and_gev_evaluators_continuous_through_xi_zero(xi):
    # the xi != 0 forms in mpmath at 50 digits and their limits at xi = 0; the grid
    # straddles |xi| = 1e-9 and reaches 1e-3, where a switch to the xi = 0 forms, or
    # Gamma(1 - xi) - 1 and Gamma(1 - 2 xi) - Gamma(1 - xi)^2 formed as written, lose digits
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        _check_gpd_and_gev(mp, xi)


def _check_gpd_and_gev(mp, xi):
    k = mp.mpf(xi)

    def check(got, want, what):   # GEV's cdf(-3) = exp(-e^3) multiplies ulps by 20
        assert abs(got - want) <= 2e-14 * abs(want), (what, got, float(want))

    gpd, gev = dist.GPD(0.0, 1.0, xi), dist.GEV(0.0, 1.0, xi)
    for x in (1.5, 3.0, 30.0):   # above the mean, where bPOE is not clamped
        z = mp.mpf(x)
        t = mp.exp(-z) if xi == 0 else mp.power(1 + k * z, -1 / k)
        check(gpd.cdf(x), 1 - t, ("gpd cdf", x))
        check(gpd.pdf(x), t if xi == 0 else mp.power(1 + k * z, -1 / k - 1), ("gpd pdf", x))
        bpoe = mp.exp(1 - z) if xi == 0 else mp.power((1 + k * z) * (1 - k), -1 / k)
        check(tm.bpoe_closed(gpd, x).value, bpoe, ("gpd bpoe", x))
    for alpha in (0.1, 0.5, 0.99, 1.0 - 1e-12):
        y = -mp.log(1 - mp.mpf(alpha))
        u = mp.exp(k * y)
        q = y if xi == 0 else (u - 1) / k
        check(gpd.quantile(alpha), q, ("gpd quantile", alpha))
        check(tm.superquantile(gpd, alpha), 1 + y if xi == 0 else u / (1 - k) + q,
              ("gpd superquantile", alpha))
        ln_y = mp.log(-mp.log(mp.mpf(alpha)))
        check(gev.quantile(alpha), -ln_y if xi == 0 else mp.expm1(-k * ln_y) / k,
              ("gev quantile", alpha))
    for x in (-3.0, -1.0, 0.5, 2.0, 30.0):
        z = mp.mpf(x)
        ln_t = -z if xi == 0 else -mp.log(1 + k * z) / k
        check(gev.cdf(x), mp.exp(-mp.exp(ln_t)), ("gev cdf", x))
        check(gev.pdf(x), mp.exp((1 + k) * ln_t - mp.exp(ln_t)), ("gev pdf", x))

    def close(got, want, what):
        assert abs(got - want) <= 1e-14 * abs(want), (what, got, float(want))

    def gev_sq(alpha):   # (gamma(1 - xi, y) - eps) / (xi eps), y = -ln alpha; Ein at xi = 0
        a = mp.mpf(alpha)
        y = -mp.log(a)
        if xi == 0:
            return (mp.euler + mp.log(y) + mp.e1(y)) / (1 - a) - mp.log(y)
        return (mp.gammainc(1 - k, 0, y) - (1 - a)) / (k * (1 - a))

    g1 = mp.gamma(1 - k)
    mean = mp.euler if xi == 0 else (g1 - 1) / k
    var = mp.pi ** 2 / 6 if xi == 0 else (mp.gamma(1 - 2 * k) - g1 ** 2) / k ** 2
    close(gev.mean(), mean, "gev mean")
    close(gev.variance(), var, "gev variance")
    for alpha in (0.05, 0.5, 0.99, 1.0 - 1e-12):
        close(tm.superquantile(gev, alpha), gev_sq(alpha), ("gev superquantile", alpha))
    # zeta(alpha) = alpha (sq(p) - m) / (p sd) at p = 1 - alpha
    family = QualifiedFamily("gev", xi=xi)
    for alpha in (1e-3, 0.5, 0.9, 1.0 - 1e-9):
        a = mp.mpf(alpha)
        want = a * (gev_sq(1 - a) - mean) / ((1 - a) * mp.sqrt(var))
        close(family.zeta(alpha), want, ("gev zeta", alpha))


def test_gev_quantile_near_one_over_e_against_mpmath():
    # y = -ln alpha is 1 within an ulp there, and ln y was formed from the rounded y:
    # GEV(0, 1e-300, -4e18).quantile(0.3678794411714423) read -1.35e67 for -6.9e-116,
    # and the three floats next to 1/e were 20-100% off at |xi| = 1e3
    mp = pytest.importorskip("mpmath")
    near = 0.36787944117144233
    levels = [math.nextafter(near, 0.0), near, math.nextafter(near, 1.0),
              0.2431, 0.25, 0.3, 0.45, 0.4928, 0.4929, 0.1, 0.9]
    with mp.workdps(50):
        for mu, s, xi in ((0.0, 1e-300, -4e18), (0.0, 1.0, -1e3), (1.0, 2.0, -0.2),
                          (0.0, 1.0, 0.0), (0.0, 1.0, 0.3), (0.0, 1.0, 50.0)):
            d, k = dist.GEV(mu, s, xi), mp.mpf(xi)
            for alpha in levels:
                ln_y = mp.log(-mp.log(mp.mpf(alpha)))
                want = mu + s * (-ln_y if xi == 0 else mp.expm1(-k * ln_y) / k)
                if 1e-300 < abs(want) < 1e300:   # no subnormal or overflowing output
                    got = d.quantile(alpha)
                    assert abs(got - want) <= 1e-15 * max(1.0, abs(xi)) * abs(want), (
                        xi, alpha, got, float(want))


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


def test_sampling_a_law_with_no_sampler_raises():
    # no scalar-quantile fallback: a Distribution subclass outside the families has no sampler
    class Point(dist.Distribution):
        def __init__(self, at: float):
            self.__dict__.update(at=at)

    with pytest.raises(DomainError, match="no sampler"):
        Point(1.0).sample(3, np.random.default_rng(1))


def test_json_roundtrip():
    for d in ALL_SETTINGS:
        again = dist.from_json(json.loads(json.dumps(d.to_json())))
        assert again == d
    with pytest.raises(ParameterError):
        dist.from_json({"params": {}})


@pytest.mark.parametrize("d, x", [
    (dist.Weibull(1e-300, 1.5), 1.5), (dist.Weibull(1e-300, 1.5), 1e-200),
    (dist.LogLogistic(1e-300, 1.0), 1.5), (dist.LogNormal(-800.0, 1e-300), 5e-324),
    (dist.Weibull(1.0, 2.0), 0.7), (dist.Weibull(1e300, 0.5), 1e-300),
    (dist.LogLogistic(2.0, 3.0), 1.3), (dist.LogLogistic(1e200, 1e-3), 1e-300),
    (dist.LogNormal(0.0, 1.0), 2.0), (dist.LogNormal(-700.0, 1.0), 1e-304),
], ids=repr)
def test_densities_in_logs_match_mpmath(d, x):
    # each density is formed in logs, so a power, a scale or a product that
    # leaves binary64 on the way neither raises nor reads NaN
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        P, X = {k: mp.mpf(v) for k, v in d.params().items()}, mp.mpf(x)
        if d.family == "weibull":
            z = X / P["lam"]
            want = P["k"] / P["lam"] * z ** (P["k"] - 1) * mp.exp(-z ** P["k"])
        elif d.family == "loglogistic":
            z = X / P["a"]
            want = P["b"] / P["a"] * z ** (P["b"] - 1) / (1 + z ** P["b"]) ** 2
        else:
            want = mp.npdf(mp.log(X), P["mu"], P["s"]) / X
        assert abs(d.pdf(x) - want) <= 1e-13 * want + 2.0 ** -1074, (d.pdf(x), want)


def _mp_survival(mp, d, x):
    """P(X > x) for the family d, in mpmath."""
    P, X = {k: mp.mpf(v) for k, v in d.params().items()}, mp.mpf(x)
    if isinstance(d, dist.GPD):   # Exponential and Pareto through their GPD parameters
        xi, z = mp.mpf(d.xi), (X - d.mu) / mp.mpf(d.s)
        if z <= 0:
            return mp.mpf(1)
        if xi == 0:
            return mp.exp(-z)
        return (1 + xi * z) ** (-1 / xi) if 1 + xi * z > 0 else mp.mpf(0)
    if d.family == "laplace":
        z = (X - P["mu"]) / P["b"]
        return mp.exp(-z) / 2 if z >= 0 else 1 - mp.exp(z) / 2
    if d.family == "normal":
        return mp.ncdf(-(X - P["mu"]) / P["sigma"])
    if d.family == "lognormal":
        return mp.ncdf(-(mp.log(X) - P["mu"]) / P["s"]) if X > 0 else mp.mpf(1)
    if d.family == "logistic":
        return 1 / (1 + mp.exp((X - P["mu"]) / P["s"]))
    if d.family == "student-t":
        nu, t = P["nu"], (X - P["mu"]) / P["s"]
        half = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + t * t), regularized=True) / 2
        return half if t > 0 else 1 - half
    if d.family == "weibull":
        return mp.exp(-(X / P["lam"]) ** P["k"]) if X > 0 else mp.mpf(1)
    if d.family == "loglogistic":
        return 1 / (1 + (X / P["a"]) ** P["b"]) if X > 0 else mp.mpf(1)
    xi, z = P["xi"], (X - P["mu"]) / P["s"]   # GEV: 1 - exp(-t)
    if xi == 0:
        return -mp.expm1(-mp.exp(-z))
    return -mp.expm1(-(1 + xi * z) ** (-1 / xi)) if 1 + xi * z > 0 else mp.mpf(xi > 0)


@pytest.mark.parametrize("d", [
    dist.Exponential(2.0), dist.Pareto(3.0, 1.0), dist.GPD(0.0, 1.0, 0.2),
    dist.GPD(0.0, 1.0, -0.5), dist.Laplace(0.5, 1.0), dist.Normal(0.0, 2.0),
    dist.Normal(1.0, 0.3), dist.LogNormal(0.0, 0.5), dist.Logistic(1.0, 1.0),
    dist.StudentT(4.0), dist.StudentT(30.0, 2.0, 1.0), dist.Weibull(1.0, 1.5),
    dist.LogLogistic(1.0, 3.0), dist.GEV(0.0, 1.0, 0.1), dist.GEV(0.0, 1.0, 0.0),
    dist.GEV(0.0, 1.0, -0.2),
], ids=repr)
def test_survival_matches_mpmath_from_the_bottom_to_the_subnormal_tail(d):
    # S is formed as an upper tail: relative precision 1e-14 times its condition number
    # |x| f / S (which grows without bound at the top of a bounded law), or |ln S| where
    # that is larger, down to S = 1e-320, where 1 - F reads 0 from S = 1e-16
    mp = pytest.importorskip("mpmath")
    xs = [d.quantile(p) for p in (1e-15, 1e-8, 1e-3, 0.1, 0.3, 0.5)] + [
        d.tail_quantile(10.0 ** -k) for k in (0.5, 1, 2, 4, 8, 12, 16, 25, 50, 100, 150, 200,
                                               250, 300, 310, 320)]
    with mp.workdps(50):
        for x in xs:
            want = _mp_survival(mp, d, x)
            cond = abs(x) * d.pdf(x) / want if want else 0.0
            bound = 1e-14 * max(1.0, abs(mp.log(want)) if want else 0.0, cond) * want
            assert abs(d.sf(x) - want) <= bound + 2.0 ** -1074, (x, d.sf(x), want)
            assert d.sf(x) + d.cdf(x) == pytest.approx(1.0, abs=4.5e-16), x


def test_survival_keeps_the_digits_one_less_the_cdf_loses():
    for d in ALL_SETTINGS:
        x = d.tail_quantile(1e-300)
        if x < d.support().upper:
            assert d.cdf(x) == 1.0 and 1e-301 < d.sf(x) < 1e-299, d
