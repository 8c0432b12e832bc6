import math

import pytest

from tailrisk import distributions as dist
from tailrisk import tail_metrics as tm
from tailrisk.errors import DomainError, OracleError
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
    within = oracle_bpoe(d, 7.0, CFG)   # 3.4e-12, inside the bracket
    assert abs(within.value - tm.bpoe(d, 7.0).value) <= within.error_estimate


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


def test_result_json():
    r = OracleResult(1.5, 1e-9)
    assert r.to_json() == {"value": 1.5, "error_estimate": 1e-9}
