import math

import numpy as np
import pytest

from tailrisk import distributions as dist
from tailrisk import estimation
from tailrisk import tail_metrics as tm
from tailrisk.errors import ConvergenceError, DomainError, ParameterError
from tailrisk.estimation import (FitProblem, empirical_superquantile, ls_mos_fit,
                                 mos_solve, parameter_names, reference_fits)


# --- empirical superquantile -------------------------------------------------

def test_empirical_examples():
    sample = [1.0, 2.0, 3.0, 4.0]
    assert empirical_superquantile(sample, 0.0) == 2.5
    assert empirical_superquantile(sample, 0.75) == 4.0
    assert empirical_superquantile(sample, 0.5) == 3.5


def test_empirical_mean_exact():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(773)
    assert empirical_superquantile(x, 0.0) == float(x.mean())


def test_empirical_monotone_on_atom_grid():
    # at grid points i/n the estimator is exactly the mean of the top n-i
    # order statistics; it is nondecreasing in alpha. (It is NOT convex in
    # alpha in general: {0,0,10,10} gives increments 5/3, 10/3, 0.)
    rng = np.random.default_rng(11)
    x = rng.exponential(size=40)
    n = x.size
    xs = np.sort(x)
    grid = [i / n for i in range(n)]
    vals = [empirical_superquantile(x, a) for a in grid]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    assert all(d >= -1e-12 for d in diffs)
    for i in (0, 7, 20, n - 1):
        assert vals[i] == pytest.approx(float(xs[i:].mean()), abs=1e-12)


def test_empirical_validation():
    with pytest.raises(ParameterError):
        empirical_superquantile([], 0.5)
    with pytest.raises(DomainError):
        empirical_superquantile([1.0], 1.0)
    with pytest.raises(ParameterError, match="NaN"):
        empirical_superquantile([1.0, math.nan, 3.0], 0.5)


def test_empirical_unsorted_input():
    assert empirical_superquantile([4.0, 1.0, 3.0, 2.0], 0.75) == 4.0


# --- exact matching (MOS) ----------------------------------------------------

def test_mos_exponential_analytic():
    # single level: lam = (1 - ln(1 - alpha)) / target
    alpha, target = 0.3, 2.0
    r = mos_solve(FitProblem("exponential", (alpha,), targets=(target,)))
    assert abs(r.params["lam"] - (1 - math.log1p(-alpha)) / target) <= 1e-10


@pytest.mark.parametrize("family,d,levels", [
    ("exponential", dist.Exponential(1.7), (0.3,)),
    ("normal", dist.Normal(1.0, 2.0), (0.5, 0.9)),
    ("weibull", dist.Weibull(0.5, 1.4), (0.15, 0.75)),
    ("logistic", dist.Logistic(-1.0, 0.7), (0.2, 0.8)),
    ("laplace", dist.Laplace(2.0, 1.5), (0.25, 0.75)),
    ("lognormal", dist.LogNormal(0.3, 0.9), (0.3, 0.7)),
    ("pareto", dist.Pareto(2.5, 1.5), (0.2, 0.8)),
    ("loglogistic", dist.LogLogistic(1.3, 3.0), (0.2, 0.8)),
    ("gpd", dist.GPD(0.5, 1.2, 0.3), (0.1, 0.5, 0.9)),
    ("gev", dist.GEV(1.0, 2.0, 0.2), (0.1, 0.5, 0.9)),
    ("gev", dist.GEV(1.0, 2.0, -0.3), (0.1, 0.5, 0.9)),
    ("student-t", dist.StudentT(1.5, 1.5, 0.5), (0.1, 0.5, 0.9)),
    ("student-t", dist.StudentT(4.0, 1.5, 0.5), (0.1, 0.5, 0.9)),
    ("student-t", dist.StudentT(30.0, 1.5, 0.5), (0.1, 0.5, 0.9)),
])
def test_mos_recovers_generating_parameters(family, d, levels):
    targets = tuple(tm.superquantile(d, a) for a in levels)
    r = mos_solve(FitProblem(family, levels, targets=targets))
    for name, value in d.params().items():
        assert abs(r.params[name] - value) <= 1e-6 * (1.0 + abs(value))
    assert max(abs(v) for v in r.residuals) <= 1e-8


def test_mos_level_count_must_match():
    with pytest.raises(ParameterError, match="exactly 1 level"):
        mos_solve(FitProblem("exponential", (0.2, 0.8), targets=(1.0, 2.0)))


def test_mos_no_solution_diagnostic():
    # decreasing targets cannot come from any increasing superquantile
    with pytest.raises(ConvergenceError) as err:
        mos_solve(FitProblem("normal", (0.2, 0.8), targets=(3.0, 1.0)))
    assert "residuals" in err.value.diagnostics


# --- least squares (LS-MOS) --------------------------------------------------

def test_ls_exact_targets_zero_objective():
    d = dist.Weibull(0.5, 1.4)
    levels = (0.15, 0.5, 0.75)
    targets = tuple(tm.superquantile(d, a) for a in levels)
    r = ls_mos_fit(FitProblem("weibull", levels, targets=targets))
    assert r.objective <= 1e-12
    assert abs(r.params["lam"] - 0.5) <= 1e-6
    assert abs(r.params["k"] - 1.4) <= 1e-6
    assert r.converged and r.gradient_norm <= 1e-7


def test_student_t_fit_of_normal_targets_returns_the_normal_limit():
    d = dist.Normal(0.5, 1.5)
    levels = (0.1, 0.5, 0.75, 0.9, 0.95)
    targets = tuple(tm.superquantile(d, a) for a in levels)
    r = ls_mos_fit(FitProblem("student-t", levels, targets=targets))
    assert r.family == "normal"
    assert r.objective <= 1e-20
    assert r.distribution() == dist.Normal(r.params["mu"], r.params["sigma"])


def test_ls_sample_fit_reports_residuals():
    x = dist.Weibull(0.5, 1.4).sample(50, np.random.default_rng(42))
    r = ls_mos_fit(FitProblem("weibull", (0.15, 0.75), sample=tuple(x)))
    assert len(r.residuals) == 2
    assert all(math.isfinite(v) for v in r.residuals)
    assert r.params["lam"] > 0 and r.params["k"] > 0


def test_ls_large_sample_consistency_single_seed():
    x = dist.Weibull(0.5, 1.4).sample(10_000, np.random.default_rng(1003))
    r = ls_mos_fit(FitProblem("weibull", (0.5, 0.75, 0.95), sample=tuple(x)))
    assert abs(r.params["lam"] - 0.5) / 0.5 <= 0.03
    assert abs(r.params["k"] - 1.4) / 1.4 <= 0.03


def test_fewer_levels_than_parameters_rejected():
    with pytest.raises(ParameterError, match="2 free parameters"):
        ls_mos_fit(FitProblem("normal", (0.5,), targets=(1.0,)))
    with pytest.raises(ParameterError, match="3 free parameters"):
        ls_mos_fit(FitProblem("gev", (0.5, 0.9), targets=(1.0, 2.0)))


@pytest.mark.parametrize("family", ["weibull", "normal"])
def test_zero_spread_sample_raises(family):
    # a constant sample has equal superquantiles at every level: only a point
    # mass fits, reached at an end of the Weibull shape range and at scale 0
    # for the Normal
    with pytest.raises(ConvergenceError) as err:
        ls_mos_fit(FitProblem(family, (0.5, 0.75, 0.95), sample=(0.3,) * 50))
    assert "residuals" in err.value.diagnostics


# family -> generating law, bounds on the public parameters, and three starts
# built from the targets t alone
_LS_CASES = {
    "pareto": (dist.Pareto(2.5, 1.5), ([1.0 + 1e-9, 1e-12], [np.inf, np.inf]),
               lambda t: [(a, t[0] / 2) for a in (1.5, 3.0, 8.0)]),
    "loglogistic": (dist.LogLogistic(1.3, 3.0), ([1e-12, 1.0 + 1e-9], [np.inf, np.inf]),
                    lambda t: [(t[0] / 2, b) for b in (1.5, 3.0, 8.0)]),
    "weibull": (dist.Weibull(0.5, 1.4), ([1e-12, 1e-3], [np.inf, np.inf]),
                lambda t: [(t[0] / 2, k) for k in (0.5, 1.5, 4.0)]),
    "lognormal": (dist.LogNormal(0.3, 0.9), ([-np.inf, 1e-6], [np.inf, np.inf]),
                  lambda t: [(math.log(t[0] / 2), s) for s in (0.3, 1.0, 2.0)]),
    "gpd": (dist.GPD(0.5, 1.2, 0.3), ([-np.inf, 1e-12, -np.inf], [np.inf, np.inf, 0.999]),
            lambda t: [(2 * t[0] - t[-1], t[-1] - t[0], xi) for xi in (-0.3, 0.1, 0.5)]),
    "gev": (dist.GEV(1.0, 2.0, 0.2), ([-np.inf, 1e-12, -np.inf], [np.inf, np.inf, 0.999]),
            lambda t: [(2 * t[0] - t[-1], t[-1] - t[0], xi) for xi in (-0.3, 0.1, 0.5)]),
    "student-t": (dist.StudentT(4.0, 1.5, 0.5), ([1.0 + 1e-6, 1e-12, -np.inf], [np.inf] * 3),
                  lambda t: [(nu, t[-1] - t[0], 2 * t[0] - t[-1]) for nu in (2.0, 5.0, 20.0)]),
}


@pytest.mark.parametrize("family", sorted(_LS_CASES))
def test_ls_reaches_least_squares_optimum(family):
    optimize = pytest.importorskip("scipy.optimize")
    law, bounds, starts = _LS_CASES[family]
    names = parameter_names(family)
    levels = (0.1, 0.5, 0.75, 0.9, 0.95)
    for seed in range(3):
        x = law.sample(200, np.random.default_rng(300 + seed))
        problem = FitProblem(family, levels, sample=tuple(x))
        targets = np.array(problem.resolved_targets())

        def residuals(p):
            try:
                d = dist.make(family, **dict(zip(names, p)))
                r = np.array([tm.superquantile(d, a) for a in levels]) - targets
            except (ParameterError, DomainError, OverflowError):
                return np.full(len(levels), 1e6)
            return r if np.all(np.isfinite(r)) else np.full(len(levels), 1e6)

        best = min(2.0 * optimize.least_squares(residuals, p0, bounds=bounds, ftol=1e-12,
                                                xtol=1e-12, gtol=1e-12).cost
                   for p0 in starts(targets))
        fit = ls_mos_fit(problem)
        assert fit.objective <= best * (1 + 1e-6) + 1e-15, (seed, fit.params)
        assert fit.converged


def test_ls_superquantile_budget(monkeypatch):
    calls = 0
    original = tm.superquantile

    def counted(d, alpha):
        nonlocal calls
        calls += 1
        return original(d, alpha)

    monkeypatch.setattr(estimation, "superquantile", counted)
    law = dist.Weibull(0.5, 1.0)
    for seed in range(20):
        x = law.sample(50, np.random.default_rng(2000 + seed))
        calls = 0
        fit = ls_mos_fit(FitProblem("weibull", (0.5, 0.75, 0.95), sample=tuple(x)))
        assert fit.converged
        assert calls <= 400, (seed, calls)


@pytest.mark.parametrize("seed", (7, 11, 31))
def test_ls_profile_evaluations_per_fit(seed):
    # 25 scan steps, Brent's search seeded with the scan's best three and the
    # Newton polish: 36-39 profile evaluations (65-67 with golden section)
    rng = np.random.default_rng(seed)
    law = dist.Weibull(0.5, 1.0)
    for i in range(32):
        x = law.sample(50, rng)
        fit = ls_mos_fit(FitProblem("weibull", (0.5, 0.75, 0.95), sample=tuple(x)))
        assert fit.iterations <= 45, (seed, i, fit.iterations)
        assert fit.converged and fit.gradient_norm <= 1e-7, (seed, i, fit.gradient_norm)


def test_zero_shifts_identical_to_plain_fit():
    d = dist.Normal(0.5, 1.2)
    levels = (0.4, 0.9)
    targets = tuple(tm.superquantile(d, a) for a in levels)
    plain = ls_mos_fit(FitProblem("normal", levels, targets=targets))
    shifted = ls_mos_fit(FitProblem("normal", levels, shifts=(0.0, 0.0),
                                    targets=targets))
    assert plain.params == shifted.params


def test_conservative_shift_fattens_the_tail():
    d = dist.Weibull(0.5, 1.0)
    levels = (0.5, 0.9)
    targets = tuple(tm.superquantile(d, a) for a in levels)
    shifted = ls_mos_fit(FitProblem("weibull", levels, shifts=(0.05, 0.05),
                                    targets=targets))
    fitted = shifted.distribution()
    # matching the alpha - eps superquantile to the alpha target pushes the
    # fitted superquantile at alpha above the target
    for a, t in zip(levels, targets):
        assert tm.superquantile(fitted, a) > t


def test_weight_rescaling_argmin_invariance():
    x = dist.Weibull(0.5, 1.4).sample(200, np.random.default_rng(17))
    base = ls_mos_fit(FitProblem("weibull", (0.25, 0.6, 0.9),
                                 weights=(1.0, 1.0, 1.0), sample=tuple(x)))
    scaled = ls_mos_fit(FitProblem("weibull", (0.25, 0.6, 0.9),
                                   weights=(7.0, 7.0, 7.0), sample=tuple(x)))
    assert abs(base.params["lam"] - scaled.params["lam"]) <= 1e-7
    assert abs(base.params["k"] - scaled.params["k"]) <= 1e-7
    assert abs(scaled.objective - 7.0 * base.objective) <= 1e-9 * (1 + base.objective)


def test_problem_validation():
    with pytest.raises(ParameterError, match="strictly increasing"):
        FitProblem("normal", (0.8, 0.2), targets=(1.0, 2.0))
    with pytest.raises(ParameterError, match="exactly one"):
        FitProblem("normal", (0.5,), targets=(1.0,), sample=(1.0, 2.0))
    with pytest.raises(ParameterError, match="exactly one"):
        FitProblem("normal", (0.5,))
    with pytest.raises(ParameterError, match="shifts"):
        FitProblem("normal", (0.1, 0.5), shifts=(0.2, 0.0), targets=(1.0, 2.0))
    with pytest.raises(ParameterError, match="positive"):
        FitProblem("normal", (0.5,), weights=(-1.0,), targets=(1.0,))
    with pytest.raises(ParameterError, match="NaN"):
        FitProblem("weibull", (0.5,), sample=(1.0, math.nan, 3.0))
    with pytest.raises(ParameterError, match="nonempty"):
        FitProblem("weibull", (0.5,), sample=())
    with pytest.raises(ParameterError, match="parameterization"):
        ls_mos_fit(FitProblem("unknown", (0.5,), targets=(1.0,)))


def test_parameter_names():
    assert parameter_names("weibull") == ("lam", "k")
    assert parameter_names("student-t") == ("nu", "s", "mu")


# --- Weibull reference fits --------------------------------------------------

def test_mm_recovers_truth_at_scale():
    # synthetic large-n sample carries the generating moments
    x = dist.Weibull(0.5, 1.4).sample(200_000, np.random.default_rng(3))
    mm = reference_fits(x)["mm"]
    assert abs(mm["lam"] - 0.5) / 0.5 <= 0.02
    assert abs(mm["k"] - 1.4) / 1.4 <= 0.02


def test_ml_matches_mm_order_of_magnitude():
    x = dist.Weibull(0.5, 1.4).sample(50, np.random.default_rng(8))
    fits = reference_fits(x)
    for tag in ("mm", "ml"):
        assert 0.1 <= fits[tag]["lam"] <= 2.0
        assert 0.3 <= fits[tag]["k"] <= 5.0


def test_constant_sample_is_degenerate():
    with pytest.raises(ConvergenceError):
        reference_fits([1.0] * 50)


_WEIBULL_SAMPLES = [dist.Weibull(0.5, 1.4).sample(50, np.random.default_rng(8)),
                    dist.Weibull(2.0, 0.3).sample(200, np.random.default_rng(5)),
                    dist.Weibull(1.0, 12.0).sample(30, np.random.default_rng(1)),
                    np.array([1.0, 2.0, 3.0, 100.0])]


@pytest.mark.parametrize("x", _WEIBULL_SAMPLES, ids=lambda x: f"n{x.size}")
def test_weibull_mm_solves_the_moment_equation(x):
    fit = estimation._weibull_mm(x)
    lam, k = fit["lam"], fit["k"]
    m, v = float(x.mean()), float(x.var())
    gap = math.lgamma(1.0 + 2.0 / k) - 2.0 * math.lgamma(1.0 + 1.0 / k) - math.log1p(v / m**2)
    assert abs(gap) <= 1e-10
    assert lam * math.gamma(1.0 + 1.0 / k) == pytest.approx(m, rel=1e-14)


@pytest.mark.parametrize("x", _WEIBULL_SAMPLES, ids=lambda x: f"n{x.size}")
def test_weibull_ml_score_vanishes(x):
    fit = estimation._weibull_ml(x)
    lam, k = fit["lam"], fit["k"]
    xk, ln_x = x ** k, np.log(x)
    score = float((xk * ln_x).sum() / xk.sum()) - 1.0 / k - float(ln_x.mean())
    assert abs(score) <= 1e-10
    assert lam == pytest.approx(float(np.mean(xk)) ** (1.0 / k), rel=1e-14)


@pytest.mark.parametrize("fit, x, message, keys", [
    (estimation._weibull_mm, np.full(5, 2.0), "positive variance", {"mean", "variance"}),
    (estimation._weibull_mm, np.array([1.0, 1.0 + 1e-6]), "could not bracket", {"ratio"}),
    (estimation._weibull_ml, np.array([1.0, 0.0, 2.0]), "strictly positive sample", set()),
    (estimation._weibull_ml, np.full(50, 1.0), "shape diverges", {"sample_spread"}),
], ids=["mm-zero-variance", "mm-unbracketed", "ml-non-positive", "ml-diverging"])
def test_weibull_reference_fit_failures_keep_their_diagnostics(fit, x, message, keys):
    with pytest.raises(ConvergenceError, match=message) as err:
        fit(x)
    assert set(err.value.diagnostics) == keys


def test_fit_result_json():
    d = dist.Normal(0.0, 1.0)
    targets = tuple(tm.superquantile(d, a) for a in (0.4, 0.9))
    r = ls_mos_fit(FitProblem("normal", (0.4, 0.9), targets=targets))
    payload = r.to_json()
    assert payload["family"] == "normal"
    assert set(payload["diagnostics"]) == {"iterations", "gradient_norm", "converged"}
