"""Every number argument of the public scalar entry points follows one rule.

A real number in range passes and is read as the float it holds: a numpy
float64 or int64, or a 0-d array, gives exactly the value the same float
gives. Anything else (text, None, a list, an array, an arbitrary object)
raises the site's typed error: ``ParameterError`` for parameters and options,
``DomainError`` for levels and thresholds, never Python's ``TypeError`` or
numpy's ``ValueError``.
"""

import math

import numpy as np
import pytest

from tailrisk import distributions as dist
from tailrisk import estimation as est
from tailrisk import oracle
from tailrisk import portfolio as pf
from tailrisk import tail_metrics as tm
from tailrisk.errors import DomainError, ParameterError, _floats


class _SizeOneReadsAsFloat(np.ndarray):
    """An array whose float() reads its one element, as numpy before 2.4 does (there with only
    a DeprecationWarning), so the rule's rejection of a size-1 array is tested on every numpy."""

    def __float__(self):
        return float(self.reshape(-1)[0])


NOT_NUMBERS = ("x", None, [0.9], np.array([0.5, 0.6]), np.array([0.9]),
               np.array([0.9]).view(_SizeOneReadsAsFloat), object())
NOT_SAMPLES = ("x", None, object(), [[1.0, 2.0]], [1.0, "x"], 5.0)
FAMILIES = (dist.Exponential(2.0), dist.Pareto(3.0, 1.0), dist.GPD(0.0, 1.0, 0.2),
            dist.Laplace(0.5, 1.0), dist.Normal(0.0, 2.0), dist.LogNormal(0.0, 0.5),
            dist.Logistic(1.0, 1.0), dist.StudentT(4.0, 1.0, 0.0), dist.Weibull(1.0, 1.5),
            dist.LogLogistic(1.0, 3.0), dist.GEV(0.0, 1.0, 0.1))
_CFG = oracle.OracleConfig(mc_samples=2000)


def _sites():
    """(label, f, valid, error, match): f(value) evaluates the site at that value."""
    msci = pf.AssetUniverse.bundled()
    w = pf.markowitz_solve(msci, 3.0)
    normal, gev = pf.QualifiedFamily("normal"), pf.QualifiedFamily("gev", xi=0.1)
    exponential = dist.Exponential(1.0)
    sites = [
        ("from_json", lambda v: dist.from_json({"family": "normal",
                                                "params": {"mu": v, "sigma": 1.0}}),
         0.5, ParameterError, "finite mu"),
        ("QualifiedFamily nu", lambda v: pf.QualifiedFamily("student-t", nu=v).zeta(0.95),
         4.0, ParameterError, "nu > 2"),
        ("QualifiedFamily xi", lambda v: pf.QualifiedFamily("gev", xi=v).zeta(0.95),
         0.1, ParameterError, "xi < 1/2"),
        ("zeta gev", gev.zeta, 0.95, DomainError, "level"),
        ("zeta normal", normal.zeta, 0.95, DomainError, "level"),
        ("PortfolioProblem level", lambda v: pf.min_cvar_portfolio(
            pf.PortfolioProblem(msci, "cvar", level=v), normal).weights.tolist(),
         0.95, ParameterError, "level"),
        ("PortfolioProblem threshold", lambda v: pf.min_bpoe_portfolio(
            pf.PortfolioProblem(msci, "bpoe", threshold=v), normal).weights.tolist(),
         0.16, ParameterError, "threshold"),
        ("markowitz_solve", lambda v: pf.markowitz_solve(msci, v).tolist(),
         3.0, ParameterError, "lambda"),
        ("cvar_cross_evaluate", lambda v: pf.cvar_cross_evaluate(w, msci, normal, v),
         0.95, DomainError, "level"),
        ("markowitz_equivalence_check", lambda v: pf.markowitz_equivalence_check(
            w, msci, 3.0, tol=v), 1e-3, ParameterError, "tolerance"),
        ("OracleConfig quad_abs_tol", lambda v: oracle.oracle_superquantile(
            exponential, 0.9, oracle.OracleConfig(quad_abs_tol=v)), 1e-10, DomainError,
         "quad_abs_tol"),
        ("OracleConfig mc_samples", lambda v: oracle.mc_superquantile(
            exponential, 0.9, oracle.OracleConfig(mc_samples=v)), 2000.0, DomainError,
         "mc_samples"),
        ("OracleConfig seed", lambda v: oracle.mc_superquantile(
            exponential, 0.9, oracle.OracleConfig(mc_samples=2000, seed=v)), 3.0, DomainError,
         "seed"),
        ("oracle_superquantile", lambda v: oracle.oracle_superquantile(exponential, v),
         0.9, DomainError, "level"),
        ("oracle_bpoe", lambda v: oracle.oracle_bpoe(exponential, v), 2.0, DomainError,
         "threshold"),
        ("mc_superquantile", lambda v: oracle.mc_superquantile(exponential, v, _CFG),
         0.9, DomainError, "level"),
        ("empirical_superquantile", lambda v: est.empirical_superquantile([1.0, 2.0, 4.0], v),
         0.5, DomainError, "level"),
        ("FitProblem levels", lambda v: est.FitProblem("normal", (v, 0.9),
                                                       targets=(1.0, 2.0)).levels,
         0.5, ParameterError, "levels"),
    ]
    for d in FAMILIES:
        name = type(d).__name__
        for param, value in d.params().items():
            sites.append((f"{name} {param}",
                          lambda v, d=d, p=param: type(d)(**{**d.params(), p: v}),
                          value, ParameterError, "finite"))
        x = tm.superquantile(d, 0.9)
        sites += [
            (f"{name} quantile", d.quantile, 0.9, DomainError, "level"),
            (f"{name} tail_quantile", d.tail_quantile, 0.1, DomainError, "tail probability"),
            (f"{name} pdf", d.pdf, x, DomainError, "must be a number"),
            (f"{name} cdf", d.cdf, x, DomainError, "must be a number"),
            (f"{name} sf", d.sf, x, DomainError, "must be a number"),
            (f"{name} superquantile", lambda v, d=d: tm.superquantile(d, v), 0.9, DomainError,
             "level"),
            (f"{name} left_superquantile", lambda v, d=d: tm.left_superquantile(d, v), 0.3,
             DomainError, "level"),
            (f"{name} partial_expectation", lambda v, d=d: tm.partial_expectation(d, v), x,
             DomainError, "finite"),
            (f"{name} bpoe", lambda v, d=d: tm.bpoe(d, v), x, DomainError, "threshold"),
            (f"{name} bpoe_by_root", lambda v, d=d: tm.bpoe_by_root(d, v), x, DomainError,
             "threshold"),
        ]
        if isinstance(d, tm.CLOSED_BPOE_FAMILIES):
            sites.append((f"{name} bpoe_closed", lambda v, d=d: tm.bpoe_closed(d, v), x,
                          DomainError, "threshold"))
        if isinstance(d, tm.MINIMIZATION_BPOE_FAMILIES):
            sites.append((f"{name} bpoe_by_minimization",
                          lambda v, d=d: tm.bpoe_by_minimization(d, v), x, DomainError,
                          "threshold"))
    return sites


SITES = _sites()


@pytest.mark.parametrize("label, f, valid, error, match", SITES, ids=[s[0] for s in SITES])
def test_scalar_arguments_that_are_not_numbers_are_typed_errors(label, f, valid, error, match):
    for bad in NOT_NUMBERS:
        with pytest.raises(error, match=match):
            f(bad)


@pytest.mark.parametrize("label, f, valid, error, match", SITES, ids=[s[0] for s in SITES])
def test_numpy_numbers_give_the_values_of_floats(label, f, valid, error, match):
    # a 0-d array is accepted everywhere, as the float it holds
    want = f(valid)
    kinds = (np.float64, np.array) + ((np.int64,) if valid == int(valid) else ())
    for kind in kinds:
        assert f(kind(valid)) == want, kind


def test_distribution_parameters_are_stored_as_floats():
    for d in FAMILIES:
        for kind in (np.float64, np.array):
            again = type(d)(**{name: kind(value) for name, value in d.params().items()})
            assert again == d and all(type(v) is float for v in again.params().values())


def test_qualified_family_shapes_are_stored_as_floats():
    for kind in (np.float64, np.array):
        t, gev = pf.QualifiedFamily("t", nu=kind(4.0)), pf.QualifiedFamily("gev", xi=kind(0.1))
        assert (t, gev) == (pf.QualifiedFamily("t", nu=4.0), pf.QualifiedFamily("gev", xi=0.1))
        assert type(t.nu) is float and type(gev.xi) is float and hash(t) and hash(gev)


@pytest.mark.parametrize("f, bads", [
    (lambda s: est.empirical_superquantile(s, 0.5), NOT_SAMPLES),
    (est.reference_fits, NOT_SAMPLES),
    (lambda s: est.FitProblem("weibull", (0.5,), sample=s), NOT_SAMPLES[:1] + NOT_SAMPLES[2:]),
], ids=["empirical_superquantile", "reference_fits", "FitProblem"])   # no sample is None there
def test_samples_that_are_not_sequences_of_numbers_are_parameter_errors(f, bads):
    for bad in bads:
        with pytest.raises(ParameterError, match="nonempty and finite"):
            f(bad)


@pytest.mark.parametrize("d", [dist.Normal(0.0, 1.0), dist.Weibull(1.0, 1.5)],
                         ids=["Normal", "Weibull"])
def test_sample_sizes_and_generators_that_are_not_valid_are_parameter_errors(d):
    # TypeError, ValueError or AttributeError before; None drew one number and an array a matrix
    # (1e300 lies beyond any array size, so numpy refuses it without allocating)
    rng = np.random.default_rng(0)
    for n in NOT_NUMBERS + (2.5, -1, 1e300, math.inf, math.nan):
        with pytest.raises(ParameterError, match="whole number"):
            d.sample(n, rng)
    for bad in (None, 0, "x"):
        with pytest.raises(ParameterError, match="Generator"):
            d.sample(3, bad)


@pytest.mark.parametrize("d", [dist.Normal(0.0, 1.0), dist.Weibull(1.0, 1.5)],
                         ids=["Normal", "Weibull"])
def test_whole_numpy_sample_sizes_draw_what_the_int_draws(d):
    want = d.sample(3, np.random.default_rng(1))
    for n in (3.0, np.float64(3.0), np.int64(3), np.array(3)):
        assert np.array_equal(d.sample(n, np.random.default_rng(1)), want), n
    assert d.sample(0, np.random.default_rng(1)).shape == (0,)


@pytest.mark.parametrize("f, arg", [(oracle.oracle_superquantile, 0.9), (oracle.oracle_bpoe, 2.0),
                                    (oracle.mc_superquantile, 0.9)],
                         ids=["oracle_superquantile", "oracle_bpoe", "mc_superquantile"])
def test_oracle_configs_that_are_not_oracle_configs_are_parameter_errors(f, arg):
    # AttributeError before
    for bad in (None, "x", {"seed": 1}):
        with pytest.raises(ParameterError, match="OracleConfig"):
            f(dist.Exponential(1.0), arg, bad)


def test_the_array_rule():
    # -1 matches any length, a fixed entry only its own; a float array passes as itself
    assert _floats([[1, 2, 3]], "{}", (1, -1)).tolist() == [[1.0, 2.0, 3.0]]
    assert _floats(np.ones((2, 5)), "{}", (-1, -1)).shape == (2, 5)
    x = np.array([1.0, 2.0])
    assert _floats(x, "{}", (2,)) is x
    bads = [([1.0, 2.0], (3,)), ([[1.0, 2.0]], (-1,)), ([1.0], (1, -1)), (5.0, (-1,)),
            ([], (-1,)), (np.zeros((0, 3)), (-1, 3)), ([[1.0, 2.0], [3.0]], (-1, -1)),
            ("x", (-1,)), ([1.0, "x"], (-1,)), (None, (-1,)), ([1.0, None], (-1,)),
            ([1.0, math.nan], (-1,)), ([math.inf], (-1,)), ([[-math.inf]], (-1, -1)),
            ([10 ** 400], (-1,)), (object(), (-1,))]
    for bad, shape in bads:
        with pytest.raises(ParameterError, match="^bad: "):
            _floats(bad, "bad: {}", shape)
    # the message carries the value's repr cut to 40 characters, as the number rule's does
    with pytest.raises(ParameterError) as info:
        _floats(list(range(100)) + [math.nan], "bad: {}", (-1,))
    assert str(info.value) == "bad: " + repr(list(range(100)))[:40]


@pytest.mark.parametrize("f, arg", [
    (tm.superquantile, 0.5), (tm.left_superquantile, 0.5), (tm.partial_expectation, 1.0),
    (tm.superdistribution_cdf, 1.0), (tm.bpoe, 1.0), (tm.bpoe_closed, 1.0),
    (tm.bpoe_by_root, 1.0), (tm.bpoe_by_minimization, 1.0)],
    ids=["superquantile", "left_superquantile", "partial_expectation", "superdistribution_cdf",
         "bpoe", "bpoe_closed", "bpoe_by_root", "bpoe_by_minimization"])
def test_distributions_that_are_not_distributions_are_parameter_errors(f, arg):
    # AttributeError before
    for bad in (None, 1.0, "normal", pf.QualifiedFamily("normal")):
        with pytest.raises(ParameterError, match="expected a Distribution, got "):
            f(bad, arg)
