"""The level-root engine that solves sq(alpha) = x for bpoe_by_root, the zeta
inversion and the oracle: agreement with bisection, evaluation budgets and
round-trip properties."""

import math

import pytest

from tailrisk import distributions as dist
from tailrisk import oracle
from tailrisk import tail_metrics as tm
from tailrisk._optim import cantelli_level, level_root
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


def _bisect_u(sq, x, lo, hi):
    """200 bisection steps in u = log(1 - alpha) on a nondecreasing sq."""
    u_lo, u_hi = math.log1p(-hi), math.log1p(-lo)
    for _ in range(200):
        mid = 0.5 * (u_lo + u_hi)
        if sq(-math.expm1(mid)) > x:
            u_lo = mid
        else:
            u_hi = mid
    return -math.expm1(0.5 * (u_lo + u_hi))


def _assert_same_level(got, want, rel):
    assert abs((1.0 - got) - (1.0 - want)) <= rel * (1.0 - want) + 4 * 2.0 ** -52, (got, want)


@pytest.mark.parametrize("d", ROOT_FAMILIES, ids=repr)
def test_matches_bisection_superquantile_shape(d):
    lo, hi = 0.0, math.nextafter(1.0, 0.0)

    def sq(alpha):
        return tm.superquantile(d, alpha)

    for alpha in LEVELS:
        x = sq(alpha)
        got = level_root(sq, d.quantile, x, lo, hi, cantelli_level(x, d.mean(), d.variance()))
        _assert_same_level(got, _bisect_u(sq, x, lo, hi), 1e-10)


@pytest.mark.parametrize("family", (QualifiedFamily("normal"), QualifiedFamily("laplace"),
                                    QualifiedFamily("student-t", nu=3.0),
                                    QualifiedFamily("gev", xi=0.1)), ids=lambda f: f.label())
def test_matches_bisection_zeta_shape(family):
    d = family._unit_variance_member()
    m, sd = d.mean(), math.sqrt(d.variance())
    lo, hi = 1e-9, 1.0 - 1e-9

    def loss_quantile(alpha):
        return (m - d.quantile(1.0 - alpha)) / sd

    for alpha in LEVELS:
        target = family.zeta(alpha)
        got = level_root(family.zeta, loss_quantile, target, lo, hi,
                         cantelli_level(target, 0.0, 1.0))
        _assert_same_level(got, _bisect_u(family.zeta, target, lo, hi), 1e-10)


def test_matches_bisection_oracle_shape():
    d = dist.Logistic(0.0, 1.0)
    lo, hi = 0.0, 1.0 - 1e-13

    def sq(alpha):
        return oracle.oracle_superquantile(d, alpha).value

    for alpha in (0.2, 0.9):
        x = tm.superquantile(d, alpha)
        got = level_root(sq, d.quantile, x, lo, hi, cantelli_level(x, d.mean(), d.variance()))
        _assert_same_level(got, _bisect_u(sq, x, lo, hi), 1e-8)


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
    calls = [0]
    superquantile = tm.superquantile

    def counted(d, alpha):
        calls[0] += 1
        return superquantile(d, alpha)

    monkeypatch.setattr(tm, "superquantile", counted)
    return calls


@pytest.mark.parametrize("d, x", [(dist.Normal(0.0, 1.0), 1e-300), (dist.Normal(0.0, 1.0), 1e-200),
                                  (dist.Logistic(0.0, 1.0), 1e-300)], ids=repr)
def test_level_just_above_the_mean_takes_newton_steps(monkeypatch, d, x):
    # the root of sq(alpha) = x lies near 1e-302: bisection in u = log(1 - alpha)
    # would need about a thousand halvings to reach it
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


def test_bpoe_by_root_superquantile_budget(monkeypatch):
    calls = 0
    superquantile = tm.superquantile

    def counted(d, alpha):
        nonlocal calls
        calls += 1
        return superquantile(d, alpha)

    thresholds = [(d, superquantile(d, a)) for d in ROOT_FAMILIES for a in LEVELS]
    monkeypatch.setattr(tm, "superquantile", counted)
    for d, x in thresholds:
        tm.bpoe_by_root(d, x)
    assert calls / len(thresholds) <= 10.0


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
    assert calls <= 12
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
