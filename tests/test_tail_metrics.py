import math

import numpy as np
import pytest

from tailrisk import distributions as dist
from tailrisk import specfun as sf
from tailrisk import tail_metrics as tm
from tailrisk._quad import adaptive_quad
from tailrisk.errors import DomainError, TailRiskError

ALL_FAMILIES = [
    dist.Exponential(1.3), dist.Pareto(1.5, 2.0), dist.GPD(-1.0, 2.0, 0.3),
    dist.GPD(0.0, 1.0, -0.5), dist.Laplace(1.0, 2.0), dist.Normal(1.0, 2.0),
    dist.LogNormal(0.5, 0.8), dist.Logistic(-2.0, 1.5), dist.StudentT(2.5, 2.0, 1.0),
    dist.Weibull(0.5, 1.4), dist.LogLogistic(2.0, 3.0), dist.GEV(1.0, 2.0, 0.3),
    dist.GEV(1.0, 2.0, -0.2), dist.GEV(0.0, 1.0, 0.0),
    # finite-mean, infinite-variance and strongly bounded edge regimes
    dist.Pareto(1.2, 1.0), dist.GPD(0.0, 1.0, -1.5), dist.GEV(0.0, 1.0, 0.7),
    dist.StudentT(1.5), dist.LogLogistic(1.0, 1.1),
]


# --- superquantile -----------------------------------------------------------

def test_superquantile_at_zero_is_mean():
    for d in ALL_FAMILIES:
        assert tm.superquantile(d, 0.0) == d.mean()


def test_superquantile_spot_values():
    lam = 0.7
    for alpha in (0.0, 0.3, 0.9):
        expected = (-math.log(1 - alpha) + 1) / lam
        assert abs(tm.superquantile(dist.Exponential(lam), alpha) - expected) <= 1e-14
    assert abs(tm.superquantile(dist.Pareto(2.0, 1.0), 0.0) - 2.0) <= 1e-15
    # branch boundary of the two-piece Laplace formula: mu + b at alpha = 1/2
    assert abs(tm.superquantile(dist.Laplace(0.0, 1.0), 0.5) - 1.0) <= 1e-14
    # standard normal at alpha = 1/2: pdf(0)/0.5
    expected = 2.0 / math.sqrt(2 * math.pi)
    assert abs(tm.superquantile(dist.Normal(0.0, 1.0), 0.5) - expected) <= 1e-14


def test_superquantile_monotone_and_dominates_quantile():
    grid = [0.01 * i for i in range(1, 100)]
    for d in ALL_FAMILIES:
        values = [tm.superquantile(d, a) for a in grid]
        assert all(x < y for x, y in zip(values, values[1:]))
        for a, v in zip(grid, values):
            assert v >= d.quantile(a)


def test_superquantile_domain_and_infinite_mean():
    with pytest.raises(DomainError):
        tm.superquantile(dist.Normal(0, 1), 1.0)
    with pytest.raises(DomainError):
        tm.superquantile(dist.Normal(0, 1), -0.1)
    for d in (dist.Pareto(0.9, 1.0), dist.GPD(0, 1, 1.5), dist.StudentT(1.0),
              dist.GEV(0, 1, 1.2), dist.LogLogistic(1.0, 0.8), dist.Weibull(1.0, 0.005)):
        assert tm.superquantile(d, 0.5) == math.inf
        assert tm.bpoe(d, 1e9).value == 1.0
    assert tm.bpoe(dist.Weibull(1.0, 0.005), 10.0).clamped
    # finite mean, variance beyond binary64: the root engine's start must not overflow
    assert 0.0 <= tm.bpoe(dist.Weibull(1.0, 0.01), 1e200).value <= 1e-40


def _mp_sq_gev(mp, d, eps):
    """mu + s (gamma(1 - xi, y) - eps) / (xi eps), y = -ln(1 - eps), in mpmath; at xi = 0 its
    limit mu + s (Ein(y) / eps - ln y), Ein(y) summed as its power series because
    gamma + ln y + E1(y) cancels for y < 1 (eps < 0.63)."""
    y = -mp.log1p(-eps)
    if d.xi == 0.0:
        ein, term, n = 0, -1, 0
        while not n or abs(term) > mp.eps * ein:
            n += 1
            term *= -y / n
            ein += term / n
        return d.mu + d.s * (ein / eps - mp.log(y))
    xi = mp.mpf(d.xi)
    return d.mu + d.s * (mp.gammainc(1 - xi, 0, y) - eps) / (xi * eps)


def test_gev_below_the_gamma_overflow():
    # Gamma(1 - xi) overflows at xi = -200, so the mean is -inf; every level
    # alpha > 0 still has a finite (or -inf) superquantile and a bPOE root
    mp = pytest.importorskip("mpmath")
    d = dist.GEV(0.0, 1.0, -200.0)
    assert d.mean() == -math.inf and d.variance() == math.inf
    assert tm.superquantile(d, 0.0) == -math.inf
    assert tm.superquantile(d, 1e-100) == -math.inf   # below -1e308
    assert 0.0 < tm.partial_expectation(d, 0.0) < d.support().upper   # X <= 0.005
    with mp.workdps(40):
        for alpha in (0.9, 0.36, 0.3, 0.1, 1e-3, 1e-10):
            want = float(_mp_sq_gev(mp, d, 1 - mp.mpf(alpha)))
            assert abs(tm.superquantile(d, alpha) - want) <= 1e-12 * abs(want), alpha
        for x in (1e-3, 4e-3, -1.0, -1e100):
            root = mp.findroot(lambda a: _mp_sq_gev(mp, d, 1 - a) - x, (0.01, 0.5),
                               solver="bisect", verify=False)
            got = tm.bpoe(d, x)
            assert abs(got.value - float(1 - root)) <= 1e-10 * float(1 - root), x


def test_gev_superquantile_with_the_mean_far_below_it():
    # GEV(2, 1, -50)'s mean is -6e62: sq is mu + s (sq - mu) / s, not m + s (sq - m) / s,
    # which would leave it 4.5e46 off
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        for d in (dist.GEV(2.0, 1.0, -50.0), dist.GEV(5.0, 3.0, -5.0)):
            for alpha in (1e-3, 0.1, 0.36, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12):
                want = _mp_sq_gev(mp, d, 1 - mp.mpf(alpha))
                got = tm.superquantile(d, alpha)
                assert abs(got - want) <= 1e-12 * abs(want), (d, alpha, got, float(want))


@pytest.mark.parametrize("d", [dist.GEV(0.0, 1.0, xi) for xi in (-0.2, -0.5, -1.5, -5.0)]
                         + [dist.GEV(1.0, 2.0, -0.2)]
                         + [dist.GPD(0.0, 1.0, xi) for xi in (-0.5, -2.0)], ids=repr)
def test_superquantile_at_most_the_support_top(d):
    # superquantile(GEV(1, 2, -0.2), 1 - 1e-300) read 11.000000000000002 above the top 11;
    # near the top sq may still step down by an ulp, so only the bound is asserted
    top = d.support().upper
    for k in range(1, 301):
        eps = 10.0 ** -k
        assert tm.superquantile(d, 1.0 - eps, eps)[0] <= top, (k, top)
        if eps > 2.0 ** -53:
            assert tm.superquantile(d, 1.0 - eps) <= top, (k, top)


# --- closed-form bPOE --------------------------------------------------------

def test_bpoe_closed_exponential():
    d = dist.Exponential(0.8)
    assert tm.bpoe_closed(d, d.mean()).value == 1.0
    x = 3.0
    assert abs(tm.bpoe_closed(d, x).value - math.exp(1 - 0.8 * x)) <= 1e-15


def test_bpoe_closed_pareto():
    d = dist.Pareto(2.0, 1.0)
    assert abs(tm.bpoe_closed(d, 4.0).value - 0.25) <= 1e-15
    # cross-check against root finding on the superquantile
    assert abs(tm.bpoe_by_root(d, 4.0).value - 0.25) <= 1e-9


def test_bpoe_closed_gpd_support_edge():
    d = dist.GPD(0.0, 1.0, -0.5)   # supported on [0, 2]
    assert tm.bpoe_closed(d, 2.0).value == 0.0
    assert tm.bpoe_closed(d, 5.0).value == 0.0
    assert tm.bpoe_closed(d, d.mean()).value == 1.0


def test_bpoe_closed_laplace_branches():
    d = dist.Laplace(0.0, 1.0)
    # both branch formulas meet at x = mu + b with value 1/2
    exp_branch = 0.5 * math.exp(1.0 - 1.0)
    w = sf.lambert_w(-2.0 * math.exp(-2.0))
    lower_branch = 1.0 + 1.0 / w
    assert abs(exp_branch - 0.5) <= 1e-15
    assert abs(lower_branch - 0.5) <= 1e-12
    assert abs(tm.bpoe_closed(d, 1.0).value - 0.5) <= 1e-12
    # interior point of the Lambert branch agrees with root finding
    for x in (0.2, 0.5, 0.9):
        assert abs(tm.bpoe_closed(d, x).value - tm.bpoe_by_root(d, x).value) <= 1e-10
    assert tm.bpoe_closed(d, 0.0).value == 1.0   # x at the mean, W argument 0


def _mp_sq_laplace(mp, mu, b, eps):
    """Laplace's closed-form superquantile at tail mass eps, in mpmath."""
    alpha = 1 - eps
    if alpha < 0.5:
        return mu + b * (alpha / eps) * (1 - mp.log(2 * alpha))
    return mu + b * (1 - mp.log(2 * eps))


@pytest.mark.parametrize("mu, b", [(0.0, 1.0), (1.5, 0.25), (-2.2, 3.7), (1e3, 1e-3),
                                   (-0.3, 7e5)])
def test_bpoe_closed_laplace_matches_mpmath(mu, b):
    # the Lambert-W branch below z = (x - mu) / b = 1, the exponential branch
    # 1/2 e^(1 - z) above; each against the root of sq = x in ln eps at 50 digits
    mp = pytest.importorskip("mpmath")
    d = dist.Laplace(mu, b)
    with mp.workdps(50):
        for z in (1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999,
                  1.0, 1.5, 3.0, 10.0, 37.5, 100.0, 299.7, 300.0):
            x = mu + z * b
            got = tm.bpoe_closed(d, x).value
            want = mp.exp(mp.findroot(lambda u: _mp_sq_laplace(mp, mu, b, mp.exp(u)) - x,
                                      (-800, -1e-40), solver="anderson"))
            # rounding z in binary64 (x - mu, then / b) moves e^(1 - z) by z 2^-52
            assert abs(got / want - 1) <= 1e-14 + z * 2.0 ** -52, (x, got, want)


def test_bpoe_closed_rejects_other_families():
    with pytest.raises(DomainError):
        tm.bpoe_closed(dist.Normal(0, 1), 1.0)


def test_bpoe_clamps():
    d = dist.Exponential(1.0)
    below = tm.bpoe(d, 0.2)
    assert below.value == 1.0 and below.clamped
    r = tm.bpoe(dist.GPD(0.0, 1.0, -0.5), 3.0)
    assert r.value == 0.0 and r.clamped
    # below the top of the support, where s + xi (x - mu) rounds to 0: the clamped 0 there
    d = dist.GPD(889.154320244452, 6.020002004039732e+43, -393.8328663100959)
    x = 1.5285677044789112e+41
    assert x < d.support().upper and d.s + d.xi * (x - d.mu) == 0.0
    assert tm.bpoe_closed(d, x) == (0.0, 1.0, d.support().upper, True)


# --- engines agree -----------------------------------------------------------

def test_root_engine_matches_closed_forms():
    assert abs(tm.bpoe_by_root(dist.Exponential(1.0), 2.0).value - math.exp(-1)) <= 1e-9
    for d in (dist.Exponential(2.0), dist.Pareto(1.5, 2.0), dist.GPD(-1, 2, 0.3),
              dist.Laplace(1, 2)):
        for alpha in (0.05, 0.5, 0.95):
            x = tm.superquantile(d, alpha)
            assert abs(tm.bpoe_by_root(d, x).value - tm.bpoe_closed(d, x).value) <= 1e-10


def test_root_engine_at_mean():
    for d in ALL_FAMILIES:
        assert tm.bpoe_by_root(d, d.mean()).value == 1.0
    for d in (dist.Normal(1.0, 2.0), dist.StudentT(3.0), dist.Weibull(0.5, 1.4)):
        # the level root's top pair is the literal (0.0, 1.0), not -expm1(0.0) = -0.0
        assert math.copysign(1.0, tm.bpoe(d, d.mean()).alpha_star) == 1.0


def test_logistic_entropy_root_identity():
    # H(alpha)/(1-alpha) = (x - mu)/s at alpha = 1/2 means x = 2 s ln 2
    d = dist.Logistic(0.0, 1.0)
    x = 2.0 * math.log(2.0)
    assert abs(tm.bpoe_by_root(d, x).value - 0.5) <= 1e-10


def test_minimization_engine_matches_root():
    for d in (dist.Normal(0.0, 1.0), dist.Normal(1.0, 2.0),
              dist.Logistic(0.0, 1.0), dist.Logistic(-2.0, 1.5)):
        for alpha in (0.02, 0.3, 0.7, 0.97):
            x = tm.superquantile(d, alpha)
            r_min = tm.bpoe_by_minimization(d, x)
            r_root = tm.bpoe_by_root(d, x)
            assert abs(r_min.value - r_root.value) <= 1e-8
            assert abs(r_min.quantile_star - d.quantile(1.0 - r_min.value)) <= 1e-7


def test_normal_minimization_equals_root_at_one():
    d = dist.Normal(0.0, 1.0)
    assert abs(tm.bpoe_by_minimization(d, 1.0).value
               - tm.bpoe_by_root(d, 1.0).value) <= 1e-8


def test_logistic_stationarity_residual():
    d = dist.Logistic(0.0, 1.0)
    for x in (0.5, 1.0, 3.0):
        r = tm.bpoe_by_minimization(d, x)
        g = r.quantile_star
        pe = math.log(1.0 + math.exp(-g))
        assert abs(pe / (x - g) - (1.0 - d.cdf(g))) <= 1e-8


def test_logistic_minimization_deep_tail():
    # the survival 1/(1 + e^g) keeps its digits where 1 - cdf(g) rounds to 0
    mpmath = pytest.importorskip("mpmath")
    for d in (dist.Logistic(0.0, 1.0), dist.Logistic(-2.0, 1.5), dist.Logistic(3.0, 0.4)):
        for alpha in (1.0 - 1e-9, 1.0 - 1e-12):
            x = tm.superquantile(d, alpha)
            r_min, r_root = tm.bpoe_by_minimization(d, x), tm.bpoe_by_root(d, x)
            assert abs(r_min.value / r_root.value - 1.0) <= 1e-10, (d, alpha)
    # the root engine resolves 1 - alpha only to about 1e-16 absolute, so at
    # these thresholds the reference is the stationarity condition at 50 digits
    d = dist.Logistic(0.0, 1.0)
    for x in (20.0, 40.0, 80.0):
        with mpmath.workdps(50):
            g = mpmath.findroot(lambda g: mpmath.log1p(mpmath.exp(-g))
                                - (x - g) / (1 + mpmath.exp(g)), x - 1.0)
            want = float(1 / (1 + mpmath.exp(g)))
        got = tm.bpoe_by_minimization(d, x)
        assert abs(got.value / want - 1.0) <= 1e-12, (x, got, want)
        assert abs(got.quantile_star - float(g)) <= 1e-12 * x
    # at 38 sigma the Normal's bPOE is subnormal, and exact to its last bit
    got = tm.bpoe_by_minimization(dist.Normal(0.0, 1.0), 38.0).value
    assert abs(got - _mp_normal_bpoe(mpmath, 38.0)) <= math.ulp(0.0)


def _mp_normal_bpoe(mp, x):
    """bPOE of N(0, 1) at x: the objective at the root of phi(g) / S(g) = x."""
    with mp.workdps(60):
        g = mp.findroot(lambda g: mp.npdf(g) / mp.ncdf(-g) - x, x - 1 / x)
        return float(mp.ncdf(-g) * (mp.npdf(g) / mp.ncdf(-g) - g) / (x - g))


def _mp_logistic_bpoe(mp, x):
    """bPOE of the standard logistic at x: ln(1 + e^-g) / (x - g) at its argmin g."""
    with mp.workdps(60):
        g = mp.findroot(lambda g: mp.log1p(mp.exp(-g)) - (x - g) / (1 + mp.exp(g)), x - 1)
        return float(mp.log1p(mp.exp(-g)) / (x - g))


def test_minimization_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for x in (2.0, 5.0, 8.0, 10.0, 20.0, 30.0, 37.0):
        got = tm.bpoe_by_minimization(dist.Normal(0.0, 1.0), x).value
        assert abs(got / _mp_normal_bpoe(mpmath, x) - 1.0) <= 1e-12, x
    for x in (200.0, 700.0):
        got = tm.bpoe_by_minimization(dist.Logistic(0.0, 1.0), x).value
        assert abs(got / _mp_logistic_bpoe(mpmath, x) - 1.0) <= 1e-14, x


# the tail-grid's settings of the four families
MINIMIZATION_SETTINGS = (dist.Normal(0.0, 1.0), dist.Normal(1.0, 2.0), dist.Normal(-2.0, 0.3),
                         dist.Logistic(0.0, 1.0), dist.Logistic(-2.0, 1.5),
                         dist.Logistic(3.0, 0.4), dist.StudentT(2.5, 2.0, 1.0),
                         dist.StudentT(3.0, 1.0, 0.0), dist.StudentT(6.0, 0.5, -1.0),
                         dist.LogNormal(0.0, 1.0), dist.LogNormal(0.5, 0.8),
                         dist.LogNormal(-1.0, 1.5))


def _scale(d):
    return d.sigma if isinstance(d, dist.Normal) else d.s


def test_minimization_near_the_mean_agrees_with_root():
    # g + E[Z - g | Z > g] - zx cancels here; the value is 1 - O(zx)
    for d in MINIMIZATION_SETTINGS:
        for k in range(3, 16):
            x = d.mean() + 10.0 ** -k * _scale(d)
            r_min, r_root = tm.bpoe_by_minimization(d, x), tm.bpoe_by_root(d, x)
            assert abs(r_min.value - r_root.value) <= 1e-15, (d, k)


def test_minimization_tail_budget(monkeypatch):
    calls = [0]
    for cls in (dist.Normal, dist.Logistic, dist.StudentT, dist.LogNormal):
        def counted(d, g, tail=cls._excess_tail):
            calls[0] += 1
            return tail(d, g)
        monkeypatch.setattr(cls, "_excess_tail", counted)
    # the tail-grid's levels; 5.5 mean and 7 max measured
    levels = [i / 20 for i in range(1, 20)] + [0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]
    counts = []
    for d in MINIMIZATION_SETTINGS:
        for alpha in levels:
            x = tm.superquantile(d, alpha)
            calls[0] = 0
            tm.bpoe_by_minimization(d, x)
            counts.append(calls[0])
    assert sum(counts) / len(counts) <= 6 and max(counts) <= 8, counts
    # at most 9 measured; 6 for Student-t, whose ln s falls like a power of -g, since it
    # steps in ln(-g) below g = -1 (16 before)
    for d in MINIMIZATION_SETTINGS:
        for k in range(3, 16):
            calls[0] = 0
            tm.bpoe_by_minimization(d, d.mean() + 10.0 ** -k * _scale(d))
            assert calls[0] <= 9, (d, k)


def test_minimization_calls_no_quantile(monkeypatch):
    calls = []
    for cls in (dist.Normal, dist.Logistic, dist.StudentT, dist.LogNormal):
        for name in ("quantile", "tail_quantile", "cdf"):
            monkeypatch.setattr(cls, name, lambda *args, name=name: calls.append(name))
    for d in MINIMIZATION_SETTINGS:
        for alpha in (0.1, 0.9, 1.0 - 1e-9):
            tm.bpoe_by_minimization(d, tm.superquantile(d, alpha))
    assert calls == []


def test_minimization_near_the_mean_keeps_the_argmin():
    # ln s has no g + excess cancellation and alpha_star is the lower tail itself,
    # so near the mean the argmin and its level match the root engine's, whose level
    # keeps its relative precision there (mean 0, so x - mean is exact)
    for d in (dist.Normal(0.0, 1.0), dist.Logistic(0.0, 1.0), dist.StudentT(3.0),
              dist.StudentT(30.0)):
        for k in range(3, 16):
            r_min, r_root = tm.bpoe_by_minimization(d, 10.0 ** -k), tm.bpoe_by_root(d, 10.0 ** -k)
            assert abs(r_min.quantile_star / r_root.quantile_star - 1.0) <= 1e-12, (d, k)
            assert abs(r_min.alpha_star / r_root.alpha_star - 1.0) <= 1e-10, (d, k)
    got = tm.bpoe_by_minimization(dist.Logistic(0.0, 1.0), 1e-15)
    assert -38.3 < got.quantile_star < -38.1 and 2.5e-17 < got.alpha_star < 2.6e-17


def test_bpoe_of_the_minimized_families_calls_no_superquantile_or_quantile(monkeypatch):
    thresholds = [(d, tm.superquantile(d, alpha)) for d in MINIMIZATION_SETTINGS[3:]
                  for alpha in (0.05, 0.5, 0.99, 1.0 - 1e-12)]
    calls, superquantile = [], tm.superquantile

    def counted(*args):
        calls.append("superquantile")
        return superquantile(*args)

    monkeypatch.setattr(tm, "superquantile", counted)
    for cls in dist.FAMILIES.values():
        for name in ("quantile", "tail_quantile"):
            monkeypatch.setattr(cls, name, lambda *args, name=name: calls.append(name))
    for d, x in thresholds:
        assert tm.bpoe(d, x) == tm.bpoe_by_minimization(d, x)
    assert calls == []
    tm.bpoe(dist.Normal(0.0, 1.0), 2.0)   # the Normal keeps the root engine
    assert "superquantile" in calls


def test_bpoe_underflow_reads_zero_at_the_top_of_the_support():
    # S underflows at the argmin: no ZeroDivisionError, and bpoe_by_root's reading
    for d, x in ((dist.StudentT(3.0), 1e200), (dist.StudentT(30.0), 1e20),
                 (dist.StudentT(2.5, 2.0, 1.0), 1e300), (dist.StudentT(1e16), 40.0),
                 (dist.StudentT(1e6), 1e5), (dist.LogNormal(0.0, 1.0), 1e300),
                 (dist.Logistic(0.0, 1.0), 1e5)):
        assert tuple(tm.bpoe(d, x)) == (0.0, 1.0, math.inf, False), (d, x)


def _mp_student_tails(mp, nu, g):
    half = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + g * g), regularized=True) / 2
    return (half, 1 - half) if g <= 0 else (1 - half, half)


def _mp_student_s(mp, nu, g):
    """E[Z | Z > g] for the standardized Student-t Z."""
    c = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
    return (nu + g * g) * c * (1 + g * g / nu) ** (-(nu + 1) / 2) \
        / ((nu - 1) * _mp_student_tails(mp, nu, g)[1])


def _mp_lognormal_s(mp, d, g):
    """E[X | X > exp(mu + s g)] for the LogNormal d."""
    s = mp.mpf(d.s)
    return mp.exp(d.mu + s * s / 2) * mp.ncdf(s - g) / mp.ncdf(-g)


def _just_above_the_mean_to_tail_mass_1e300(d, scale):
    return [d.mean() + scale * 10.0 ** -k for k in (3, 8)] + [
        tm.superquantile(d, 1.0 - eps, eps)[0]
        for eps in (0.5, 1e-3, 1e-12, 1e-50, 1e-100, 1e-200, 1e-300)]


STUDENT_SETTINGS = (dist.StudentT(2.5, 2.0, 1.0), dist.StudentT(3.0), dist.StudentT(6.0, 0.5, -1.0),
                    dist.StudentT(30.0))


def test_student_t_bpoe_matches_mpmath():
    # the reference argmin g0 (1 + t) solves ln s = ln zx at 40 digits from the engine's g0
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for d in STUDENT_SETTINGS:
            nu = mp.mpf(d.nu)
            for x in _just_above_the_mean_to_tail_mass_1e300(d, d.s):
                got = tm.bpoe(d, x)
                zx, g0 = (mp.mpf(x) - d.mu) / d.s, mp.mpf((got.quantile_star - d.mu) / d.s)
                t = mp.findroot(lambda t: mp.log(_mp_student_s(mp, nu, g0 * (1 + t)) / zx), 0)
                want = _mp_student_tails(mp, nu, g0 * (1 + t))[1]
                assert abs(got.value / want - 1) <= 1e-10, (d, x, got, want)


def test_lognormal_bpoe_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for d in MINIMIZATION_SETTINGS[-3:]:
            for x in _just_above_the_mean_to_tail_mass_1e300(d, d.mean()):
                got = tm.bpoe(d, x)
                g = mp.findroot(lambda g: mp.log(_mp_lognormal_s(mp, d, g) / x),
                                (mp.log(got.quantile_star) - d.mu) / d.s)
                want = mp.ncdf(-g)
                assert abs(got.value / want - 1) <= 1e-10, (d, x, got, want)


# tail masses from the body down to the bottom of binary64, where x = sq(1 - eps)
_DEEP_EPSILONS = (0.3, 0.05, 1e-2, 1e-6, 1e-12, 1e-50, 1e-150, 1e-300)


def _mp_sq_weibull(mp, d, eps):
    return d.lam * mp.gammainc(1 + 1 / mp.mpf(d.k), -mp.log(eps)) / eps


def _mp_sq_loglogistic(mp, d, eps):
    b = mp.mpf(d.b)
    return d.a * mp.betainc(1 - 1 / b, 1 + 1 / b, 0, eps) / eps


def _mp_level_root(mp, sq, x, eps):
    """The tail mass where the mpmath superquantile sq(eps) equals x, solved in ln eps."""
    return mp.exp(mp.findroot(lambda u: mp.log(sq(mp.exp(u)) / x), mp.log(eps)))


@pytest.mark.parametrize("d", [dist.Weibull(0.5, 1.4), dist.Weibull(2.0, 0.8),
                               dist.Weibull(1.0, 3.0), dist.Weibull(1.0, 0.3),
                               dist.Weibull(3.0, 20.0)], ids=repr)
def test_weibull_deep_tail_matches_mpmath(d):
    # the root engine multiplies the superquantile's error by sq / (sq - q), about k ln(1/eps)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        for eps in _DEEP_EPSILONS:
            x = tm.superquantile(d, 1.0 - eps, eps)[0]
            want = _mp_sq_weibull(mp, d, mp.mpf(eps))
            assert abs(x / want - 1) <= 5e-15, (eps, x, want)
            root = _mp_level_root(mp, lambda e: _mp_sq_weibull(mp, d, e), x, eps)
            assert abs(tm.bpoe(d, x).value / root - 1) <= 2e-12, (eps, x, root)


@pytest.mark.parametrize("d, epsilons", [
    (dist.LogLogistic(2.0, 3.0), _DEEP_EPSILONS), (dist.LogLogistic(1.0, 1.5), _DEEP_EPSILONS),
    (dist.LogLogistic(0.5, 4.0), _DEEP_EPSILONS), (dist.GEV(1.0, 2.0, 0.3), _DEEP_EPSILONS),
    (dist.GEV(0.0, 1.0, 0.0), _DEEP_EPSILONS),
    # near its upper end x stops resolving eps: sq - q is 1.7e-10 at eps = 1e-50
    (dist.GEV(1.0, 2.0, -0.2), _DEEP_EPSILONS[:5]),
], ids=lambda v: repr(v) if isinstance(v, dist.Distribution) else f"to-{v[-1]:g}")
def test_root_engine_bpoe_matches_mpmath(d, epsilons):
    mp = pytest.importorskip("mpmath")
    sq = _mp_sq_gev if isinstance(d, dist.GEV) else _mp_sq_loglogistic
    with mp.workdps(60):
        for eps in epsilons:
            x = tm.superquantile(d, 1.0 - eps, eps)[0]
            root = _mp_level_root(mp, lambda e: sq(mp, d, e), x, eps)
            assert abs(tm.bpoe(d, x).value / root - 1) <= 5e-13, (eps, x, root)


def test_bpoe_dominates_poe():
    for d in ALL_FAMILIES:
        m = d.mean()
        for x in (m + 0.3, m + 1.0, m + 3.0):
            if x >= d.support().upper:
                continue
            assert tm.bpoe(d, x).value >= d.sf(x) - 1e-12
        # deep thresholds, where 1 - cdf reads 0 and only the survival tests the bound
        for eps in (1e-12, 1e-25, 1e-50, 1e-100, 1e-150, 1e-200, 1e-250, 1e-300):
            x = tm.superquantile(d, 1.0 - eps, eps)[0]
            if math.isfinite(x) and x < d.support().upper:
                assert tm.bpoe(d, x).value >= d.sf(x), (d, eps)
    # extreme threshold: the alpha*-tail average equals x, so the buffered
    # probability must still dominate the plain exceedance probability
    d = dist.Normal(0.0, 1.0)
    assert tm.bpoe(d, 10.0).value >= d.sf(10.0)


def test_bpoe_nonincreasing_in_threshold():
    for d in ALL_FAMILIES:
        if not math.isfinite(d.mean()):
            continue
        lo = d.mean()
        hi = min(d.support().upper, d.tail_quantile(1e-4))
        xs = [lo + (hi - lo) * i / 25 for i in range(25)]
        vals = [tm.bpoe(d, x).value for x in xs]
        assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:])), d


def test_minimization_engine_domain():
    with pytest.raises(DomainError):
        tm.bpoe_by_minimization(dist.Weibull(1.0, 2.0), 3.0)
    # below the mean the clamp, as in the other engines (a DomainError before)
    assert tm.bpoe_by_minimization(dist.Normal(0, 1), -0.5) == tm.TailResult(
        1.0, 0.0, -math.inf, True)


@pytest.mark.parametrize("d", [dist.Normal(0, 1), dist.Logistic(0, 1), dist.StudentT(3.0),
                               dist.LogNormal(0, 1)], ids=lambda d: d.family)
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_minimization_engine_rejects_a_non_finite_threshold(d, x):
    # partial_expectation returned NaN, inf or raised an untyped ValueError
    for f in (tm.bpoe_by_minimization, tm.bpoe, tm.bpoe_by_root, tm.partial_expectation):
        with pytest.raises(DomainError, match="must be finite"):
            f(d, x)
    with pytest.raises(DomainError, match="must be finite"):
        tm.bpoe_closed(dist.Exponential(1.0), x)


@pytest.mark.parametrize("d", [
    dist.Exponential(1.3), dist.Pareto(2.5, 1.0), dist.GPD(0.0, 1.0, -0.5), dist.Laplace(1.0, 2.0),
    dist.Normal(1.0, 2.0), dist.LogNormal(0.5, 0.8), dist.Logistic(-2.0, 1.5),
    dist.StudentT(2.5, 2.0, 1.0), dist.Weibull(0.5, 1.4), dist.LogLogistic(2.0, 3.0),
    dist.GEV(0.0, 1.0, -0.2)], ids=lambda d: d.family)
def test_every_bpoe_engine_follows_one_threshold_rule(d):
    # 1 at the mean, clamped below it and from a finite top of the support; the
    # minimization engine raised below the mean
    engines = [tm.bpoe, tm.bpoe_by_root]
    if isinstance(d, tm.CLOSED_BPOE_FAMILIES):
        engines.append(tm.bpoe_closed)
    if isinstance(d, tm.MINIMIZATION_BPOE_FAMILIES):
        engines.append(tm.bpoe_by_minimization)
    lower, upper = d.support()
    m = d.mean()
    for engine in engines:
        assert engine(d, m - 1.0) == tm.TailResult(1.0, 0.0, lower, True), engine
        assert engine(d, m) == tm.TailResult(1.0, 0.0, lower, False), engine
        if math.isfinite(upper):
            for x in (upper, upper + 1.0):
                assert engine(d, x) == tm.TailResult(0.0, 1.0, upper, True), engine
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="must be finite"):
                engine(d, x)


@pytest.mark.parametrize("d", [dist.Logistic(0, 1e10), dist.StudentT(1.5, 1e10)],
                         ids=lambda d: d.family)
def test_minimization_engine_at_a_threshold_that_rounds_to_the_mean(d):
    # 5e-324 / 1e10 is 0, the mean, in standardized units: the x == mean result
    assert tm.bpoe_by_minimization(d, 5e-324) == tm.TailResult(1.0, 0.0, -math.inf)
    assert tm.bpoe(d, 5e-324) == tm.TailResult(1.0, 0.0, -math.inf)


@pytest.mark.parametrize("s", [1e-10, 1.0])
def test_minimization_engine_underflowing_survival(s):
    # the mean exp(-800 + s^2/2) underflows; 5e-324 is 55 or 5.6e11 standard
    # deviations above it in logs
    d = dist.LogNormal(-800.0, s)
    assert tm.bpoe_by_minimization(d, 5e-324) == tm.TailResult(0.0, 1.0, math.inf)
    assert tm.bpoe(d, 5e-324) == tm.TailResult(0.0, 1.0, math.inf)


def _scaled_member(d, c):
    """d's family at scale c (LogNormal: mu + ln c) and the scale that really holds."""
    if isinstance(d, dist.LogNormal):
        scaled = dist.LogNormal(d.mu + math.log(c), d.s)
        return scaled, math.exp(scaled.mu)
    return type(d)(**{**d.to_json()["params"], "sigma" if isinstance(d, dist.Normal) else "s": c}), c


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e200])
@pytest.mark.parametrize("d", [dist.Normal(0, 1), dist.Logistic(0, 1), dist.StudentT(3.0),
                               dist.GEV(0, 1, 0.1), dist.GEV(0, 1, 0.0), dist.LogNormal(0, 1)],
                         ids=repr)
def test_scale_leaves_standardized_tail_metrics_unchanged(d, c):
    # each superquantile formula forms its standardized tail term before the scale
    # multiplies it, so the product neither underflows nor overflows
    scaled, c = _scaled_member(d, c)
    # the LogNormal engine reads ln x, whose rounding at |ln x| = 690 is 1e-13 in g
    rel = 2e-13 if isinstance(d, dist.LogNormal) else 1e-13
    for z in (2.0, 5.0):
        assert tm.bpoe(scaled, c * z).value == pytest.approx(tm.bpoe(d, z).value, rel=rel, abs=0)
    for alpha in (0.5, 0.99, 1.0 - 1e-15):
        assert tm.superquantile(scaled, alpha) / c == pytest.approx(
            tm.superquantile(d, alpha), rel=1e-13, abs=0)


# --- inverse consistency -----------------------------------------------------

@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_inverse_consistency(d):
    for i in range(1, 100, 7):
        alpha = i / 100
        x = tm.superquantile(d, alpha)
        assert abs(tm.bpoe(d, x).value - (1.0 - alpha)) <= 1e-8


# --- corollary identities ----------------------------------------------------

def test_exponential_poe_shift_identity():
    # bPOE(x) equals the plain exceedance probability at x - mean
    d = dist.Exponential(1.7)
    m = d.mean()
    for i in range(100):
        x = m + 0.05 * i
        poe_shifted = 1.0 - d.cdf(x - m)
        assert abs(tm.bpoe_closed(d, x).value - poe_shifted) <= 1e-12
    for i in range(1, 100):
        alpha = i / 100
        assert abs(tm.superquantile(d, alpha) - (d.quantile(alpha) + m)) <= 1e-12


def test_pareto_poe_scaling_identity():
    d = dist.Pareto(2.5, 1.5)
    factor = (2.5 / 1.5) ** 2.5
    m = d.mean()
    for i in range(100):
        x = m + 0.1 * i + 0.01
        assert abs(tm.bpoe_closed(d, x).value - (1.0 - d.cdf(x)) * factor) <= 1e-12
    for i in range(1, 100):
        alpha = i / 100
        ratio = tm.superquantile(d, alpha) / d.quantile(alpha)
        assert abs(ratio - 2.5 / 1.5) <= 1e-12


def test_gpd_xi_zero_is_shifted_exponential():
    g = dist.GPD(0.7, 2.0, 0.0)
    e = dist.Exponential(0.5)
    for alpha in (0.0, 0.1, 0.5, 0.9, 0.99):
        assert abs(tm.superquantile(g, alpha) - (0.7 + tm.superquantile(e, alpha))) <= 1e-12
    for x in (g.mean(), g.mean() + 1.0, g.mean() + 5.0):
        assert abs(tm.bpoe_closed(g, x).value
                   - tm.bpoe_closed(e, x - 0.7).value) <= 1e-13


# --- partial expectation -----------------------------------------------------

def test_partial_expectation_values():
    assert abs(tm.partial_expectation(dist.Normal(0, 1), 0.0)
               - 1.0 / math.sqrt(2 * math.pi)) <= 1e-14
    d = dist.Logistic(0.0, 1.0)
    for g in (-2.0, 0.0, 1.5):
        assert abs(tm.partial_expectation(d, g) - math.log(1 + math.exp(-g))) <= 1e-12


@pytest.mark.parametrize("d", [dist.Normal(1, 2), dist.Logistic(-2, 1.5),
                               dist.Weibull(0.5, 1.4), dist.GEV(1, 2, 0.3)],
                         ids=lambda d: repr(d))
def test_partial_expectation_tail_integral(d):
    # E[X - g]+ equals the integral of the survival function over [g, inf)
    g = d.quantile(0.62)
    hi = d.tail_quantile(1e-14)
    ref, _ = adaptive_quad(lambda t: 1.0 - d.cdf(t), g, hi, atol=1e-12,
                           rtol=1e-11, limit=4000)
    assert abs(tm.partial_expectation(d, g) - ref) <= 1e-8


def test_partial_expectation_deep_tail_matches_mpmath():
    # S e from the standardized tail, where 1 - F(gamma) would round to 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for g in (3.0, 8.0, 9.0, 20.0, 37.0):
            want = float(mpmath.npdf(g) - g * mpmath.ncdf(-g))
            got = tm.partial_expectation(dist.Normal(0.0, 1.0), g)
            assert abs(got / want - 1.0) <= 1e-12, g
            got = tm.partial_expectation(dist.Normal(1.0, 2.0), 1.0 + 2.0 * g)
            assert abs(got / (2.0 * want) - 1.0) <= 1e-12, g
        for g in (30.0, 40.0, 700.0):
            want = float(mpmath.log1p(mpmath.exp(-g)))
            got = tm.partial_expectation(dist.Logistic(0.0, 1.0), g)
            assert abs(got / want - 1.0) <= 1e-12, g


@pytest.mark.parametrize("d, gammas", [
    (dist.Exponential(1.0), (0.5, 15.0, 20.0, 40.0, 100.0, 700.0)),
    (dist.Exponential(3.0), (1e-3, 5.0, 230.0)),
    (dist.GPD(0.0, 1.0, 0.2), (0.1, 10.0, 1e3, 1e10, 1e50)),
    (dist.GPD(-2.0, 0.5, 0.9), (0.0, 1e6, 1e100, 1e300)),
    (dist.GPD(1.0, 2.0, -0.5), (1.5, 4.0, 4.999999)),
    (dist.GPD(0.0, 1.0, 0.0), (3.0, 600.0)),
    (dist.Pareto(3.0, 1.0), (1.5, 1e6, 1e100)),
    (dist.Pareto(1.5, 2.0), (3.0, 1e100, 1e200)),
    (dist.Laplace(0.0, 1.0), (-700.0, -20.0, -1.0, 0.0, 0.5, 20.0, 100.0, 690.0)),
    (dist.Laplace(1.0, 2.0), (-3.0, 0.5, 1.0, 40.0)),
    (dist.Laplace(0.0, 1e300), (7.07e302, 8e302, 1.1e303)),   # e^-z below the normal floats
], ids=repr)
def test_partial_expectation_gpd_members_and_laplace_match_mpmath(d, gammas):
    # from the closed tails; the round trip through the cdf raised DomainError where
    # 1 - F fell below 1e-6 (Exponential(1) from gamma = 15, Laplace(0, 1) at 20,
    # GPD(0, 1, 0.2) at 1e3 and Pareto(3, 1) at 1e6)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for gamma in gammas:
            g = mp.mpf(gamma)
            if isinstance(d, dist.Pareto):   # the integral of (xm / x)^a over [gamma, inf)
                want = mp.mpf(d.xm) ** d.a * g ** (1 - mp.mpf(d.a)) / (d.a - 1)
            elif isinstance(d, dist.GPD):
                h = d.s + d.xi * (g - d.mu)   # s (1 + xi z)
                survival = (mp.exp(-(g - d.mu) / d.s) if d.xi == 0.0
                            else (h / d.s) ** (-1 / mp.mpf(d.xi)))
                want = survival * h / (1 - mp.mpf(d.xi))
            else:
                z = (g - d.mu) / d.b
                want = d.b * mp.exp(-z) / 2 if z >= 0 else d.mu - g + d.b * mp.exp(z) / 2
            got = tm.partial_expectation(d, gamma)
            assert want > 1e-307 and abs(got / want - 1) <= 1e-13, (gamma, got, want)


def test_partial_expectation_student_t_and_lognormal_match_mpmath():
    # from below the median down to tail mass 1e-300 (1e-100 at nu = 30, where the
    # logarithms inside the incomplete beta leave 3.5e-12 further down)
    mp = pytest.importorskip("mpmath")
    masses = (0.9, 0.5, 1e-3, 1e-12, 1e-50, 1e-100, 1e-200, 1e-300)
    with mp.workdps(40):
        for d in STUDENT_SETTINGS:
            nu = mp.mpf(d.nu)
            for eps in masses[:6] if d.nu == 30.0 else masses:
                gamma = d.tail_quantile(eps)
                g = (mp.mpf(gamma) - d.mu) / d.s
                want = d.s * _mp_student_tails(mp, nu, g)[1] * (_mp_student_s(mp, nu, g) - g)
                got = tm.partial_expectation(d, gamma)
                assert abs(got / want - 1) <= 1e-12, (d, eps, got, want)
        for d in MINIMIZATION_SETTINGS[-3:]:
            for eps in masses:
                gamma = d.tail_quantile(eps)
                g = (mp.log(gamma) - d.mu) / d.s
                want = mp.ncdf(-g) * (_mp_lognormal_s(mp, d, g) - gamma)
                got = tm.partial_expectation(d, gamma)
                assert abs(got / want - 1) <= 1e-12, (d, eps, got, want)
    assert tm.partial_expectation(dist.LogNormal(0.0, 1.0), -2.0) == math.exp(0.5) + 2.0


def test_partial_expectation_raises_where_the_survival_rounds():
    # at nu = 1e6 the survival at 1e5 underflows where no asymptote holds it
    with pytest.raises(DomainError):
        tm.partial_expectation(dist.StudentT(1e6), 1e5)
    # 1 - F(40) is 4.2e-18, which the round trip through the cdf kept no digit of (a
    # DomainError); the Exponential reads its closed tail e^-gamma / lam
    for g in (13.0, 40.0):
        assert abs(tm.partial_expectation(dist.Exponential(1.0), g) / math.exp(-g)
                   - 1.0) <= 1e-15


def _mp_partial_expectation(mp, d, gamma):
    """E[X - gamma]+ = (sq - gamma) S, S the survival at the binary64 gamma, in mpmath."""
    g = mp.mpf(gamma)
    if isinstance(d, dist.Weibull):
        survival = mp.exp(-(g / d.lam) ** d.k)
        return (_mp_sq_weibull(mp, d, survival) - g) * survival
    if isinstance(d, dist.LogLogistic):
        survival = 1 / (1 + (g / d.a) ** d.b)
        return (_mp_sq_loglogistic(mp, d, survival) - g) * survival
    z = (g - d.mu) / d.s
    survival = -mp.expm1(-(mp.exp(-z) if d.xi == 0.0 else (1 + d.xi * z) ** (-1 / mp.mpf(d.xi))))
    return (_mp_sq_gev(mp, d, survival) - g) * survival


_PE_MASSES = (0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-8, 1e-12, 1e-16, 1e-25, 1e-50, 1e-100, 1e-150,
              1e-200, 1e-250, 1e-300)


@pytest.mark.parametrize("d", [
    dist.Weibull(1.0, 1.5), dist.Weibull(2.0, 0.8), dist.Weibull(0.5, 3.0),
    dist.LogLogistic(1.0, 3.0), dist.LogLogistic(2.0, 1.5),
    dist.GEV(0.0, 1.0, 0.1), dist.GEV(0.0, 1.0, 0.0), dist.GEV(0.0, 1.0, 0.3),
], ids=repr)
def test_partial_expectation_of_the_other_families_matches_mpmath(d):
    # (sq - gamma) S at the tails (F, S) keeps its digits where 1 - F rounds to 0, from
    # S = 1e-16: Weibull(1, 1.5) at 6 and GEV(0, 1, 0.1) at 30 among these gammas
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for eps in _PE_MASSES:
            gamma = d.tail_quantile(eps)
            want = _mp_partial_expectation(mp, d, gamma)
            got = tm.partial_expectation(d, gamma)
            assert abs(got / want - 1) <= 1e-12, (eps, got, want)


def test_partial_expectation_raises_only_where_sq_less_gamma_cancels():
    # near the top of a bounded GEV, sq - gamma falls to the rounding of gamma (from a mass
    # near 1e-25), and from a mass of 1e-100 the quantile rounds to the top itself
    mp = pytest.importorskip("mpmath")
    d = dist.GEV(1.0, 2.0, -0.2)
    with mp.workdps(50):
        for eps in _PE_MASSES:
            gamma = d.tail_quantile(eps)
            if gamma == d.support().upper:
                assert tm.partial_expectation(d, gamma) == 0.0
                continue
            try:
                got = tm.partial_expectation(d, gamma)
            except DomainError:
                assert eps <= 1e-25, eps
                continue
            want = _mp_partial_expectation(mp, d, gamma)
            assert abs(got / want - 1) <= 2e-11, (eps, got, want)
    with pytest.raises(DomainError, match="sq - gamma"):
        tm.partial_expectation(d, d.tail_quantile(1e-50))
    assert tm.partial_expectation(dist.Weibull(1.0, 1.5), 1e4) == 0.0   # S underflows


@pytest.mark.parametrize("d, gamma, want", [
    (dist.Normal(0.0, 1e300), 38e300, 7.582751814549552e-18),
    (dist.Normal(0.0, 1e200), 38.5e200, 3.6526981300981708e-126),
    (dist.LogNormal(600.0, 1.0), math.exp(639.0), 4.5962648204662028e-57),
    (dist.LogNormal(600.0, 1.0), math.exp(640.0), 8.3144757332495833e-74),
], ids=repr)
def test_partial_expectation_with_a_subnormal_survival_matches_mpmath(d, gamma, want):
    # S is subnormal or below the floats while scale S e is not; 50-digit references
    # at the binary64 inputs
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        if d.family == "normal":
            k = mp.mpf(gamma) / d.sigma
            ref = d.sigma * (mp.npdf(k) - k * mp.ncdf(-k))
        else:
            z = mp.log(gamma) - d.mu
            ref = mp.exp(d.mu + mp.mpf(1) / 2) * mp.ncdf(1 - z) - mp.mpf(gamma) * mp.ncdf(-z)
        assert abs(ref / want - 1) <= 1e-16
    assert abs(tm.partial_expectation(d, gamma) / want - 1.0) <= 1e-13


def test_partial_expectation_at_an_infinite_mean_and_past_the_upper_end():
    for d in (dist.Pareto(1.0, 1.0), dist.GPD(0.0, 1.0, 1.5), dist.LogLogistic(1.0, 0.8)):
        assert tm.partial_expectation(d, 5.0) == math.inf
    d = dist.GPD(0.0, 1.0, -0.5)   # survival (1 - x/2)^2 on [0, 2]
    assert tm.partial_expectation(d, 2.0) == tm.partial_expectation(d, 3.0) == 0.0
    assert abs(tm.partial_expectation(d, 1.9) - 0.05 ** 3 * 2.0 / 3.0) <= 1e-15


def test_partial_expectation_asymptotics():
    d = dist.Normal(3.0, 1.0)
    assert abs(tm.partial_expectation(d, -40.0) - (d.mean() + 40.0)) <= 1e-9
    vals = [tm.partial_expectation(d, g) for g in (-1.0, 0.0, 2.0, 4.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)


# --- superdistribution -------------------------------------------------------

def test_superdistribution_edges():
    d = dist.Exponential(1.0)
    assert tm.superdistribution_cdf(d, d.mean()) == 0.0
    assert tm.superdistribution_cdf(d, 60.0) >= 1.0 - 1e-12
    xs = [d.mean() + 0.2 * i for i in range(20)]
    vals = [tm.superdistribution_cdf(d, x) for x in xs]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_superdistribution_monte_carlo():
    # the superdistribution is the CDF of superquantile(U), U uniform
    d = dist.Logistic(0.0, 1.0)
    rng = np.random.default_rng(99)
    u = rng.random(100_000)
    draws = np.array([tm.superquantile(d, float(v)) for v in u])
    for x in (0.5, 1.0, 2.0, 4.0):
        empirical = float(np.mean(draws <= x))
        assert abs(tm.superdistribution_cdf(d, x) - empirical) <= 0.01


# --- left superquantile ------------------------------------------------------

def test_left_superquantile_identity():
    for d in ALL_FAMILIES:
        m = d.mean()
        assert tm.left_superquantile(d, 1.0) == m
        for alpha in (0.05, 0.4, 0.85):
            mix = alpha * tm.left_superquantile(d, alpha) \
                + (1.0 - alpha) * tm.superquantile(d, alpha)
            assert abs(mix - m) <= 1e-10 * (1.0 + abs(m))
    with pytest.raises(DomainError):
        tm.left_superquantile(dist.Normal(0, 1), 0.0)
    with pytest.raises(DomainError):
        tm.left_superquantile(dist.Pareto(0.9, 1.0), 0.5)


def test_left_superquantile_symmetry():
    d = dist.Normal(0.0, 1.0)
    for alpha in (0.1, 0.35, 0.8):
        assert abs(tm.left_superquantile(d, alpha)
                   + tm.superquantile(d, 1.0 - alpha)) <= 1e-12


def test_left_superquantile_symmetric_families_keep_small_levels():
    # 2 mu - sq at the tail mass alpha; (m - (1 - alpha) sq) / alpha was
    # 8.9e-5 off for Normal(5, 1) at alpha = 1e-12
    mp = pytest.importorskip("mpmath")

    def normal(a):   # mu - phi(z_a) / a; 2a - 1 needs digits down to a = 1e-300
        with mp.workdps(350):
            return 5 - mp.npdf(mp.sqrt(2) * mp.erfinv(2 * a - 1)) / a

    def laplace(a):
        return -1 + 2 * (mp.log(2 * a) - 1) if a < 0.5 else \
            -1 - 2 * (1 - a) * (1 - mp.log(2 * (1 - a))) / a

    def logistic(a):   # mu - s H(a) / a, H the binary entropy in nats
        return 0.4 + 1.3 * (a * mp.log(a) + (1 - a) * mp.log1p(-a)) / a

    cases = ((dist.Normal(5.0, 1.0), normal), (dist.Laplace(-1.0, 2.0), laplace),
             (dist.Logistic(0.4, 1.3), logistic))
    for d, exact in cases:
        for alpha in (1e-300, 1e-12, 1e-6, 0.3, 0.7, 0.999):
            with mp.workdps(50):
                want = exact(mp.mpf(alpha))
            got = tm.left_superquantile(d, alpha)
            # 2e-13: the superquantiles' own bound (test_tail_mass.py)
            assert abs(got - want) <= 2e-13 * max(1.0, abs(want)), (d, alpha, got, float(want))


def test_left_superquantile_raises_where_it_cancels():
    # Exponential(1): (m - (1 - alpha) sq) / alpha read 2.2e-8 at alpha = 1e-8
    # (true 5e-9) and 0.0 at 1e-12; where it returns, it is accurate
    mp = pytest.importorskip("mpmath")
    d = dist.Exponential(1.0)
    for alpha in (1e-12, 1e-8, 1e-3):
        with pytest.raises(DomainError, match="cancels"):
            tm.left_superquantile(d, alpha)
    for alpha in (0.01, 0.05, 0.5, 0.99):
        with mp.workdps(50):
            a = mp.mpf(alpha)
            want = (a + (1 - a) * mp.log1p(-a)) / a
        got = tm.left_superquantile(d, alpha)
        assert abs(got - want) <= 1e-8 * want, (alpha, got, float(want))


def test_left_superquantile_logistic_multiplier():
    # mean minus left superquantile at 1-alpha equals stdev times the
    # entropy-based multiplier sqrt(3) H(alpha) / (pi (1 - alpha))
    mu, s = 0.4, 1.3
    d = dist.Logistic(mu, s)
    sd = math.sqrt(d.variance())
    for alpha in (0.2, 0.5, 0.9, 0.99):
        mult = math.sqrt(3.0) * sf.binary_entropy(alpha) / (math.pi * (1.0 - alpha))
        assert abs(tm.left_superquantile(d, 1.0 - alpha) - (mu - sd * mult)) <= 1e-12


def test_tail_result_json():
    r = tm.bpoe(dist.Exponential(1.0), 2.0)
    payload = r.to_json("bpoe")
    assert payload["metric"] == "bpoe"
    assert abs(payload["value"] + payload["alpha_star"] - 1.0) <= 1e-14


# family -> (has a location, member(mu, s, theta), shape range or None); the
# five scale families ignore mu
_EQUIVARIANT = {
    "exponential": (False, lambda mu, s, th: dist.Exponential(1.0 / s), None),
    "pareto": (False, lambda mu, s, th: dist.Pareto(th, s), (1.1, 20.0)),
    "lognormal": (False, lambda mu, s, th: dist.LogNormal(math.log(s), th), (0.1, 3.0)),
    "weibull": (False, lambda mu, s, th: dist.Weibull(s, th), (0.3, 10.0)),
    "loglogistic": (False, lambda mu, s, th: dist.LogLogistic(s, th), (1.1, 20.0)),
    "normal": (True, lambda mu, s, th: dist.Normal(mu, s), None),
    "laplace": (True, lambda mu, s, th: dist.Laplace(mu, s), None),
    "logistic": (True, lambda mu, s, th: dist.Logistic(mu, s), None),
    "gpd": (True, lambda mu, s, th: dist.GPD(mu, s, th), (-2.0, 0.9)),
    "gev": (True, lambda mu, s, th: dist.GEV(mu, s, th), (-2.0, 0.9)),
    "student-t": (True, lambda mu, s, th: dist.StudentT(th, s, mu), (1.2, 50.0)),
}


def test_superquantile_location_scale_equivariance():
    # sq(alpha; mu, s, theta) = mu + s sq0(alpha; theta): the structure that
    # lets LS-MOS solve (mu, s) in closed form for each shape
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(family=st.sampled_from(sorted(_EQUIVARIANT)), alpha=st.floats(0.0, 1.0 - 1e-6),
           mu=st.floats(-50.0, 50.0), log_s=st.floats(-5.0, 5.0), u=st.floats(0.0, 1.0))
    def check(family, alpha, mu, log_s, u):
        located, member, shapes = _EQUIVARIANT[family]
        theta = shapes[0] + u * (shapes[1] - shapes[0]) if shapes else None
        mu, s = (mu if located else 0.0), math.exp(log_s)
        sq0 = tm.superquantile(member(0.0, 1.0, theta), alpha)
        sq = tm.superquantile(member(mu, s, theta), alpha)
        assert abs(sq - (mu + s * sq0)) <= 1e-13 * (abs(mu) + s * abs(sq0))

    check()


# Valid distributions at extreme scales, shapes and arguments: a moment beyond
# binary64 reads inf, and nothing raises an untyped arithmetic error.
_EXTREME_CALLS = {
    "normal-bpoe-huge-scale": lambda: tm.bpoe(dist.Normal(0.0, 1e200), 1e200),
    "normal-bpoe-tiny-scale": lambda: tm.bpoe(dist.Normal(0.0, 1e-200), 1e-200),
    "weibull-bpoe-tiny-scale": lambda: tm.bpoe(dist.Weibull(1e-200, 2.0), 1e-200),
    "gev-bpoe-tiny-scale": lambda: tm.bpoe(dist.GEV(0.0, 1e-200, 0.1), 1e-200),
    "loglogistic-bpoe-tiny-scale": lambda: tm.bpoe(dist.LogLogistic(1e-200, 3.0), 2e-200),
    "logistic-cdf-far-left": lambda: dist.Logistic(0.0, 1.0).cdf(-800.0),
    "pareto-pdf-large-shape": lambda: dist.Pareto(2000.0, 1.0).pdf(1.5),
    "pareto-pdf-tiny-scale": lambda: dist.Pareto(3.0, 1e-200).pdf(1e-199),
    "lognormal-mean": lambda: dist.LogNormal(800.0, 1.0).mean(),
    "lognormal-variance": lambda: dist.LogNormal(800.0, 1.0).variance(),
    "lognormal-superquantile": lambda: tm.superquantile(dist.LogNormal(800.0, 1.0), 0.5),
    "exponential-variance": lambda: dist.Exponential(1e-200).variance(),
    "normal-variance": lambda: dist.Normal(0.0, 1e200).variance(),
    "laplace-variance": lambda: dist.Laplace(0.0, 1e200).variance(),
    "logistic-variance": lambda: dist.Logistic(0.0, 1e200).variance(),
    "student-t-variance": lambda: dist.StudentT(3.0, 1e200).variance(),
    "loglogistic-variance": lambda: dist.LogLogistic(1e200, 3.0).variance(),
    "loglogistic-variance-huge-shape": lambda: dist.LogLogistic(1e200, 1e10).variance(),
    "student-t-quantile-tiny-nu-and-level": lambda: dist.StudentT(1e-300, 1e-300).quantile(1e-300),
    "gev-variance": lambda: dist.GEV(0.0, 1e200, 0.0).variance(),
    "weibull-cdf-huge-power": lambda: dist.Weibull(1e-300, 1.5).cdf(1.5),
    "weibull-cdf-at-zero": lambda: dist.Weibull(1.0, 1e-300).cdf(0.0),
    "loglogistic-cdf-huge-power": lambda: dist.LogLogistic(1e-300, 2000.0).cdf(5e-324),
    "loglogistic-cdf-zero-power": lambda: dist.LogLogistic(1e10, 1e-300).cdf(5e-324),
    "gev-cdf-far-left": lambda: dist.GEV(0.0, 1.0, 0.0).cdf(-800.0),
    "gev-cdf-huge-power": lambda: dist.GEV(0.0, 1.0, 0.01).cdf(-99.9999),
    # 1 + xi z rounds to 0 one float inside the upper end of the support (xi < 0)
    "gev-cdf-rounded-support-end": lambda: dist.GEV(
        -0.00496831176071934, 0.060712151158821705, -2.408837547915515).cdf(0.020235609197486785),
}


@pytest.mark.parametrize("call", _EXTREME_CALLS.values(), ids=_EXTREME_CALLS.keys())
def test_extreme_parameters_return_a_number_or_a_typed_error(call):
    try:
        value = call()
    except TailRiskError:
        return
    value = getattr(value, "value", value)
    assert isinstance(value, float) and not math.isnan(value)


def test_weibull_superquantile_beyond_gamma_overflow():
    # Gamma(1 + 1/k) leaves binary64 below k = 1/170.6, while the mean lam Gamma(1 + 1/k)
    # and lam Gamma(1 + 1/k, -ln eps) / eps do not: both are formed in logs
    mpmath = pytest.importorskip("mpmath")
    d = dist.Weibull(1e-10, 1.0 / 171.5)
    with mpmath.workdps(40):
        a = 1 + 1 / mpmath.mpf(d.k)
        for alpha in (0.0, 0.5, 0.9, 0.99):
            eps = 1 - mpmath.mpf(alpha)
            want = d.lam * mpmath.gammainc(a, -mpmath.log(eps)) / eps
            assert abs(tm.superquantile(d, alpha) - want) <= 1e-12 * want, alpha


def test_moments_beyond_binary64_read_inf():
    assert dist.LogNormal(800.0, 1.0).mean() == math.inf
    assert dist.LogNormal(800.0, 1.0).variance() == math.inf
    assert tm.superquantile(dist.LogNormal(800.0, 1.0), 0.5) == math.inf
    assert dist.Exponential(1e-200).variance() == math.inf
    assert dist.Normal(0.0, 1e200).variance() == math.inf
