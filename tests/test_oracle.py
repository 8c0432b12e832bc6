import math

import pytest

from tailrisk import distributions as dist
from tailrisk import oracle
from tailrisk import tail_metrics as tm
from tailrisk._quad import adaptive_quad
from tailrisk.errors import ConvergenceError, DomainError, OracleError
from tailrisk.oracle import (OracleConfig, OracleResult, mc_superquantile,
                             oracle_bpoe, oracle_superquantile)

CFG = OracleConfig()


def test_config_validation():
    with pytest.raises(DomainError):
        OracleConfig(quad_abs_tol=0.0)
    with pytest.raises(DomainError):
        OracleConfig(mc_samples=10)


def test_superquantile_of_mean():
    r = oracle_superquantile(dist.Exponential(1.0), 0.0, CFG)
    assert abs(r.value - 1.0) <= 1e-8
    assert r.error_estimate <= 1e-6


def test_matches_closed_forms():
    assert abs(oracle_superquantile(dist.Logistic(0, 1), 0.5, CFG).value
               - tm.superquantile(dist.Logistic(0, 1), 0.5)) <= 1e-9
    d = dist.Pareto(3.0, 1.0)
    closed = tm.superquantile(d, 0.9)
    assert abs(oracle_superquantile(d, 0.9, CFG).value - closed) <= 1e-6 * closed


def test_oracle_requires_finite_mean():
    with pytest.raises(DomainError):
        oracle_superquantile(dist.Pareto(0.9, 1.0), 0.5, CFG)


def test_oracle_bpoe_near_mean():
    d = dist.Normal(0.0, 1.0)
    assert oracle_bpoe(d, 1e-4, CFG).value >= 0.99


def test_oracle_bpoe_closed_form_cross_checks():
    assert abs(oracle_bpoe(dist.Exponential(1.0), 2.0, CFG).value
               - math.exp(-1.0)) <= 1e-6
    d = dist.GEV(0.0, 1.0, 0.2)
    x = tm.superquantile(d, 0.93)
    assert abs(oracle_bpoe(d, x, CFG).value - tm.bpoe(d, x).value) <= 1e-6


def test_oracle_bpoe_beyond_the_smallest_tail_mass_raises():
    # sq(1 - 1e-13) = 7.46 for N(0, 1): bPOE at 7.5 is 8.6e-14, at 8 it is 1.7e-15
    d = dist.Normal(0.0, 1.0)
    for x in (7.5, 8.0):
        with pytest.raises(OracleError) as info:
            oracle_bpoe(d, x, CFG)
        assert info.value.diagnostics["eps"] == 1e-13
        assert info.value.diagnostics["superquantile"] < x
    # 3.45e-12 at 7.0 lies inside the bracket, but the quadrature's absolute
    # tolerance swamps it: the estimate exceeds the value, which carries no digit
    with pytest.raises(OracleError) as info:
        oracle_bpoe(d, 7.0, CFG)
    eps, estimate = info.value.diagnostics["eps"], info.value.diagnostics["error_estimate"]
    assert estimate >= eps and abs(eps - tm.bpoe(d, 7.0).value) <= estimate
    within = oracle_bpoe(d, 6.0, CFG)   # 2.65e-9, with an estimate a tenth of it
    assert abs(within.value - tm.bpoe(d, 6.0).value) <= within.error_estimate < within.value


def test_oracle_self_consistency():
    for d in (dist.Weibull(0.5, 1.4), dist.StudentT(2.5, 2.0, 1.0)):
        for alpha in (0.2, 0.8):
            x = oracle_superquantile(d, alpha, CFG).value
            assert abs(oracle_bpoe(d, x, CFG).value - (1.0 - alpha)) <= 1e-5


def test_mc_alpha_zero_is_sample_mean():
    d = dist.Normal(2.0, 1.0)
    est, se = mc_superquantile(d, 0.0, CFG)
    assert abs(est - 2.0) <= 4.0 * se


def test_mc_matches_closed_form():
    cfg = OracleConfig(mc_samples=200_000, seed=7)
    for d, alpha in ((dist.Normal(0, 1), 0.95), (dist.Weibull(0.5, 1.4), 0.9)):
        est, se = mc_superquantile(d, alpha, cfg)
        assert abs(est - tm.superquantile(d, alpha)) <= 4.0 * se


def test_mc_deterministic_given_seed():
    cfg = OracleConfig(mc_samples=50_000, seed=123)
    assert mc_superquantile(dist.Logistic(0, 1), 0.9, cfg) \
        == mc_superquantile(dist.Logistic(0, 1), 0.9, cfg)
    other = OracleConfig(mc_samples=50_000, seed=124)
    assert mc_superquantile(dist.Logistic(0, 1), 0.9, cfg) \
        != mc_superquantile(dist.Logistic(0, 1), 0.9, other)


@pytest.mark.parametrize("d", [dist.Pareto(0.5, 1.0), dist.StudentT(1.0), dist.GPD(0.0, 1.0, 1.5),
                               dist.LogLogistic(1.0, 0.5), dist.GEV(0.0, 1.0, 2.0),
                               dist.GEV(0.0, 1.0, -200.0)], ids=repr)
def test_mc_requires_a_finite_mean(d, monkeypatch):
    # a sample of an infinite-mean law has a finite average (1.1e7 for Pareto(0.5, 1) at
    # alpha = 0.9, 28.8 for Student-t nu = 1), so the route refuses the law before drawing
    monkeypatch.setattr(dist.Distribution, "sample", lambda *args: pytest.fail("sampled"))
    for alpha in (0.0, 0.9):
        with pytest.raises(DomainError, match="finite mean"):
            mc_superquantile(d, alpha, CFG)
        with pytest.raises(DomainError, match="finite mean"):
            oracle_superquantile(d, alpha, CFG)


@pytest.mark.parametrize("d, n", [(dist.StudentT(1.5), 100_000), (dist.Pareto(1.5, 1.0), 10_000),
                                  (dist.GPD(0.0, 1.0, 0.5), 10_000)], ids=repr)
def test_mc_error_is_inf_where_the_variance_is(d, n):
    # the influence-function error needs a finite variance: without one it read
    # 6.92 +- 0.079 for Student-t(1.5) at n = 10^6 and seed 0, 2.7 of those errors below
    # the closed form's 7.13
    cfg = OracleConfig(mc_samples=n, seed=0)
    for alpha in (0.0, 0.9):
        estimate, stderr = mc_superquantile(d, alpha, cfg)
        assert math.isfinite(estimate) and stderr == math.inf, (alpha, estimate)
    assert mc_superquantile(dist.StudentT(2.5), 0.9, cfg)[1] < math.inf


def test_result_json():
    r = OracleResult(1.5, 1e-9)
    assert r.to_json() == {"value": 1.5, "error_estimate": 1e-9}


def test_adaptive_quad_on_an_empty_interval_and_past_its_panel_budget():
    calls = []
    assert adaptive_quad(lambda x: calls.append(x) or 1.0, 2.0, 2.0) == (0.0, 0.0)
    assert calls == []
    # 1/x is not integrable at 0: bisecting towards it never meets the tolerance
    with pytest.raises(ConvergenceError) as info:
        adaptive_quad(lambda x: 1.0 / x, 0.0, 1.0, limit=50)
    assert info.value.diagnostics["panels"] >= 50


def test_march_without_decay_raises():
    # an integrand that never decays: segments of width 6 up to the last one that
    # ends below -ln(5e-324) = 744.44, where exp(-y) underflows; then OracleError
    with pytest.raises(OracleError) as info:
        oracle._march_decaying(lambda y: 1.0, 0.0, 1e-10)
    assert info.value.diagnostics["reached"] == 744.0


@pytest.mark.parametrize("d", [dist.GPD(0.0, 1.0, 0.99), dist.Pareto(1.001, 1.0),
                               dist.LogLogistic(1.0, 1.01), dist.GEV(0.0, 1.0, 0.99),
                               dist.StudentT(1.01)],
                         ids=repr)
@pytest.mark.parametrize("alpha", (0.0, 0.3, 0.9))
def test_tail_too_heavy_to_decay_before_underflow_raises_oracle_error(d, alpha):
    # finite means whose quantile integrand e^(-y) q(1 - e^(-y)) decays like
    # e^(-y / 100) or slower: the march meets the underflow of e^(-y) first
    with pytest.raises(OracleError, match="did not decay"):
        oracle_superquantile(d, alpha, CFG)


def test_oracle_superquantile_wraps_a_quadrature_failure(monkeypatch):
    failure = ConvergenceError("adaptive quadrature did not converge", {"panels": 4000})

    def fails(*args, **kwargs):
        raise failure

    monkeypatch.setattr(oracle, "adaptive_quad", fails)
    with pytest.raises(OracleError) as info:
        oracle_superquantile(dist.Normal(0.0, 1.0), 0.9, CFG)
    assert info.value.diagnostics == {"panels": 4000}
    assert info.value.__cause__ is failure
