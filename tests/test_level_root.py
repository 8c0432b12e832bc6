"""The level-root engine that solves sq(1 - eps, eps) = x for bpoe_by_root, the
zeta inversion and the oracle: agreement with bisection in log(eps),
evaluation budgets and round-trip properties."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from tailrisk import distributions as dist
from tailrisk import oracle
from tailrisk import tail_metrics as tm
from tailrisk.tail_metrics import cantelli_level, level_root
from tailrisk.portfolio import QualifiedFamily

# every family whose bPOE comes from the root engine, including Student-t
# with infinite variance and GEV on both sides of xi = 0
ROOT_FAMILIES = (
    dist.Normal(0.0, 1.0), dist.Normal(1.0, 2.0), dist.LogNormal(0.5, 0.8),
    dist.Logistic(-2.0, 1.5), dist.StudentT(3.0), dist.StudentT(1.5),
    dist.StudentT(2.0, 2.0, 1.0), dist.Weibull(0.5, 1.4), dist.Weibull(2.0, 0.8),
    dist.LogLogistic(2.0, 3.0), dist.LogLogistic(1.0, 1.5), dist.GEV(0.0, 1.0, -0.3),
    dist.GEV(0.0, 1.0, 0.0), dist.GEV(1.0, 2.0, 0.1),
)
LEVELS = (1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-5, 1.0 - 1e-6)
# tail masses 1 - LEVELS, plus deep ones that no level 1 - eps resolves
EPSILONS = tuple(1.0 - a for a in LEVELS) + (1e-9, 1e-12, 1e-20, 1e-100)


def _pair(u):
    return -math.expm1(u), math.exp(u)


def _bisect_u(f, x, lo, hi):
    """200 bisection steps in u = log(eps) on the sq of the pair f(alpha, eps),
    nonincreasing in eps."""
    u_lo, u_hi = math.log(lo), math.log(hi)
    for _ in range(200):
        mid = 0.5 * (u_lo + u_hi)
        if f(*_pair(mid))[0] > x:
            u_lo = mid
        else:
            u_hi = mid
    return _pair(0.5 * (u_lo + u_hi))


def _assert_same_pair(got, want, rel):
    # each of alpha and eps to rel, read from whichever is the smaller
    (alpha, eps), (want_alpha, want_eps) = got[:2], want
    assert alpha + eps == pytest.approx(1.0, abs=4 * 2.0 ** -52)
    if want_eps <= 0.5:
        assert abs(eps - want_eps) <= rel * want_eps, (got, want)
    else:
        assert abs(alpha - want_alpha) <= rel * want_alpha + 4 * 2.0 ** -52, (got, want)


def _deep_enough(bounded, eps):
    # where sq flattens onto a finite supremum, the root of sq = x in eps
    # loses its conditioning: test the deep tail masses on unbounded tails
    return eps >= 1e-12 or not bounded


@pytest.mark.parametrize("d", ROOT_FAMILIES, ids=repr)
def test_matches_bisection_superquantile_shape(d):
    lo, hi = sys.float_info.min, 1.0

    def pair(alpha, eps):
        return tm.superquantile(d, alpha, eps)

    for eps in EPSILONS:
        if _deep_enough(math.isfinite(d.support().upper), eps):
            x = pair(1.0 - eps, eps)[0]
            got = level_root(pair, x, lo, cantelli_level(x, d.mean(), d.variance()))
            _assert_same_pair(got, _bisect_u(pair, x, lo, hi), 1e-10)
            assert got[2:] == pair(*got[:2])   # the pair at the returned point


@pytest.mark.parametrize("family", (QualifiedFamily("normal"), QualifiedFamily("laplace"),
                                    QualifiedFamily("student-t", nu=3.0),
                                    QualifiedFamily("gev", xi=0.1)), ids=lambda f: f.label())
def test_matches_bisection_zeta_shape(family):
    d = family._unit_variance_member()
    m, sd = d.mean(), math.sqrt(d.variance())
    lo, hi = sys.float_info.min, 1.0
    zeta = family.zeta

    for eps in EPSILONS:
        if _deep_enough(family.family == "gev", eps):   # GEV(xi > 0): a bounded loss
            target, loss_quantile = zeta(1.0 - eps, eps)
            # the symmetric laws' loss quantile is the member's own, equal up to rounding
            assert loss_quantile == pytest.approx((m - d._quantile(eps, 1.0 - eps)) / sd,
                                                  rel=1e-14)
            got = level_root(zeta, target, lo, cantelli_level(target, 0.0, 1.0))
            _assert_same_pair(got, _bisect_u(zeta, target, lo, hi), 1e-10)


def test_matches_bisection_oracle_shape():
    d = dist.Logistic(0.0, 1.0)
    lo, hi = 1e-13, 1.0

    def pair(alpha, eps):
        q = d._quantile(alpha, eps) if alpha else -math.inf
        return oracle.oracle_superquantile(d, alpha).value, q

    for alpha in (0.2, 0.9):
        x = tm.superquantile(d, alpha)
        got = level_root(pair, x, lo, cantelli_level(x, d.mean(), d.variance()))
        _assert_same_pair(got, _bisect_u(pair, x, lo, hi), 1e-8)


def test_level_near_zero_is_relatively_precise():
    # sq(alpha) = 1e-9 just above the mean 0 has its root near alpha = 1.6e-14
    d = dist.StudentT(3.0)
    x = 1e-9
    result = tm.bpoe(d, x)
    assert 0.0 < result.alpha_star < 1e-13
    assert abs(tm.superquantile(d, result.alpha_star) - x) <= 1e-12 * x


def _mpmath_root_normal(mp, x):
    """Level alpha with phi(q) / (1 - alpha) = x, alpha = Phi(q), for N(0, 1)."""
    def sq_q(q):
        return mp.npdf(q) / (1 - mp.ncdf(q))
    q = mp.findroot(lambda q: mp.log(sq_q(q)) - mp.log(x), -mp.sqrt(-2 * mp.log(x)))
    return mp.ncdf(q)


def _mpmath_root_logistic(mp, x):
    """Level alpha with H(alpha) / (1 - alpha) = x for the standard logistic,
    H the binary entropy in nats."""
    def log_sq(la):
        a = mp.exp(la)
        return mp.log((-a * la - (1 - a) * mp.log1p(-a)) / (1 - a))
    return mp.exp(mp.findroot(lambda la: log_sq(la) - mp.log(x), mp.log(x)))


def _count_superquantile_calls(monkeypatch):
    """Count the root engine's superquantile evaluations."""
    calls = [0]
    superquantile = tm.superquantile

    def counted(*args):
        calls[0] += 1
        return superquantile(*args)

    monkeypatch.setattr(tm, "superquantile", counted)
    return calls


@pytest.mark.parametrize("d, x", [(dist.Normal(0.0, 1.0), 1e-300), (dist.Normal(0.0, 1.0), 1e-200),
                                  (dist.Logistic(0.0, 1.0), 1e-300)], ids=repr)
def test_level_just_above_the_mean_takes_newton_steps(monkeypatch, d, x):
    # the root of sq(alpha) = x lies near alpha = 1e-302: bisection in
    # u = log(eps) would need about a thousand halvings to reach it
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        solve = _mpmath_root_normal if isinstance(d, dist.Normal) else _mpmath_root_logistic
        want = float(solve(mp, x))
    calls = _count_superquantile_calls(monkeypatch)
    result = tm.bpoe(d, x)
    assert calls[0] <= 15
    assert abs(result.alpha_star - want) <= 1e-10 * want, (result.alpha_star, want)


def test_root_below_the_smallest_level_stops_there(monkeypatch):
    # sq(5e-324) = 1.9e-322 already exceeds x: the root is not a float
    calls = _count_superquantile_calls(monkeypatch)
    result = tm.bpoe(dist.Normal(0.0, 1.0), 5e-324)
    assert calls[0] <= 15
    assert result.alpha_star == 5e-324


@pytest.mark.parametrize("d, eps", [(dist.LogLogistic(0.5, 4.0), 1e-200),
                                    (dist.GEV(1.0, 2.0, -0.2), 1e-9),
                                    (dist.LogNormal(-1.0, 1.5), 1e-50),
                                    (dist.LogNormal(-1.0, 1.5), 1e-300)], ids=repr)
def test_steps_within_the_rounding_of_sq_end_the_search(monkeypatch, d, eps):
    # near these roots the Newton step from each end of a bracket 1.1-1.5e-13
    # wide in u lands on the other end: it ran to the 100-step cap, 101 calls
    x = tm.superquantile(d, 1.0 - eps, eps)[0]
    calls = _count_superquantile_calls(monkeypatch)
    result = tm.bpoe_by_root(d, x)
    assert calls[0] <= 15
    assert abs(result.value - eps) <= 3e-13 * eps, result.value


def test_threshold_beyond_the_smallest_level_reads_zero(monkeypatch):
    # sq at the smallest normal tail mass is 37.5: the engine evaluates there only
    # once its steps reach it, and the underflow still reads 0.0
    calls = _count_superquantile_calls(monkeypatch)
    result = tm.bpoe(dist.Normal(0.0, 1.0), 40.0)
    assert (result.value, result.alpha_star) == (0.0, 1.0)
    assert calls[0] <= 10


def test_threshold_beyond_the_smallest_level_without_newton_slope():
    # Weibull(1, 1e15): sq - q and sq - mean are rounding noise, so slopes read 0 or
    # negative and the steps bisect; they still end at the bottom, not in a stall
    result = tm.bpoe(dist.Weibull(1.0, 1e15), 2.0)
    assert (result.value, result.alpha_star) == (0.0, 1.0)
    # q = sq: slope 0 at every step, and bisection must collapse onto lo and evaluate it
    for lo in (sys.float_info.min, 1e-13, 1e-100, 1e-300):
        seen = []

        def pair(alpha, eps):
            seen.append(eps)
            return 2.0 - eps, 2.0 - eps

        assert level_root(pair, 3.0, lo, 0.5) == (-math.expm1(math.log(lo)), lo, 2.0 - lo,
                                                   2.0 - lo), lo
        assert seen.count(lo) == 1 and len(seen) <= 100, lo


def test_bpoe_by_root_superquantile_budget(monkeypatch):
    thresholds = [(d, tm.superquantile(d, a)) for d in ROOT_FAMILIES for a in LEVELS]
    calls = _count_superquantile_calls(monkeypatch)
    for d, x in thresholds:
        tm.bpoe_by_root(d, x)
    # 5.35 measured; 7.27 when the engine evaluated sq at the smallest normal
    # tail mass up front and started at the Cantelli tail mass alone
    assert calls[0] / len(thresholds) <= 5.4


def test_bpoe_by_root_calls_no_quantile(monkeypatch):
    # the superquantile pair carries the quantile of every step and of the root
    calls = []
    for cls in dist.FAMILIES.values():
        for name in ("quantile", "tail_quantile"):
            monkeypatch.setattr(cls, name, lambda *args, name=name: calls.append(name))
    for d in ROOT_FAMILIES:
        for alpha in LEVELS:
            tm.bpoe_by_root(d, tm.superquantile(d, alpha))
    assert calls == []


def _load_bench_grid():
    spec = importlib.util.spec_from_file_location(
        "bench_grid", Path(__file__).resolve().parents[1] / "bench" / "grid.py")
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return grid


def test_engine_pair_equals_superquantile_and_quantile_bit_for_bit():
    # on the tail-grid's settings (all eleven families), levels and tail masses
    pytest.importorskip("numpy")
    grid = _load_bench_grid()
    for family, params in grid.SETTINGS:
        d = dist.make(family, **params)
        for alpha in grid.ALPHAS:
            want = tm.superquantile(d, alpha), \
                d.quantile(alpha) if alpha else d.support().lower
            got = tm.superquantile(d, alpha, 1.0 - alpha)
            assert [v.hex() for v in got] == [v.hex() for v in want], (d, alpha)
        for eps in grid.EPSILONS:
            want = tm._SQ_FORMULAS[type(d)](d, 1.0 - eps, eps), d.tail_quantile(eps)
            got = tm.superquantile(d, 1.0 - eps, eps)
            assert [v.hex() for v in got] == [v.hex() for v in want], (d, eps)


def test_minimized_bpoe_matches_the_root_engine_on_the_grid():
    # bpoe runs bpoe_by_minimization for these three families; on every tail-grid
    # threshold above the mean it agrees with the root engine in all three fields
    grid = _load_bench_grid()
    for family, params in grid.SETTINGS:
        d = dist.make(family, **params)
        if not isinstance(d, (dist.Logistic, dist.StudentT, dist.LogNormal)):
            continue
        scale = math.sqrt(d.variance()) if d.variance() < math.inf else d.s
        for alpha in grid.ALPHAS[1:]:
            x = tm.superquantile(d, alpha)
            got, want = tm.bpoe(d, x), tm.bpoe_by_root(d, x)
            assert abs(got.value / want.value - 1.0) <= 1e-12, (d, alpha)
            assert abs(got.alpha_star / want.alpha_star - 1.0) <= 1e-12, (d, alpha)
            assert abs(got.quantile_star - want.quantile_star) <= 1e-12 * max(
                abs(want.quantile_star), scale), (d, alpha)


def test_oracle_bpoe_quadrature_budget(monkeypatch):
    calls = 0
    quadrature = oracle.oracle_superquantile

    def counted(*args):
        nonlocal calls
        calls += 1
        return quadrature(*args)

    d = dist.StudentT(3.0)
    x = tm.superquantile(d, 0.9)
    monkeypatch.setattr(oracle, "oracle_superquantile", counted)
    result = oracle.oracle_bpoe(d, x)
    # the error estimate reads the last of the engine's quadratures, at the root
    assert calls == 6
    assert abs(result.value - 0.1) <= max(1e-8, result.error_estimate)


def test_bpoe_round_trip_and_dominates_poe():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(d=st.sampled_from(ROOT_FAMILIES), alpha=st.floats(1e-3, 1.0 - 1e-6))
    def check(d, alpha):
        x = tm.superquantile(d, alpha)
        value = tm.bpoe_by_root(d, x).value
        assert abs(value - (1.0 - alpha)) <= 1e-8 * (1.0 - alpha) + 4 * 2.0 ** -52
        assert value >= 1.0 - d.cdf(x)

    check()
