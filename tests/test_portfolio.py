import json
import math
from pathlib import Path

import numpy as np
import pytest

from tailrisk import distributions as dist
from tailrisk import specfun as sf
from tailrisk import tail_metrics as tm
from tailrisk import _optim, portfolio
from tailrisk.errors import DomainError, ParameterError
from tailrisk.portfolio import (AssetUniverse, PortfolioProblem, QualifiedFamily,
                                cvar_cross_evaluate, default_report_families,
                                efficient_frontier, markowitz_equivalence_check,
                                markowitz_solve, min_bpoe_portfolio,
                                min_cvar_portfolio, _invert_zeta)


@pytest.fixture(scope="module")
def msci():
    return AssetUniverse.bundled()


def _two_asset():
    return AssetUniverse(("A", "B"), np.array([0.10, 0.06]),
                         np.array([0.20, 0.12]),
                         np.array([[1.0, 0.3], [0.3, 1.0]]))


def _single_asset():
    return AssetUniverse(("SOLO",), np.array([0.08]), np.array([0.15]),
                         np.array([[1.0]]))


# --- universe validation -----------------------------------------------------

def test_bundled_dataset(msci):
    assert msci.names == ("MXUS", "MXJP", "MXGB", "MXDE", "MXFR", "MXCH")
    assert msci.expected_returns[0] == pytest.approx(0.1025)
    assert msci.stdevs[5] == pytest.approx(0.1745)
    assert msci.correlations[0, 2] == pytest.approx(0.639133)
    assert np.linalg.eigvalsh(msci.covariance).min() > 0


def test_universe_rejects_bad_inputs():
    with pytest.raises(ParameterError, match="symmetric"):
        AssetUniverse(("A", "B"), np.array([0.1, 0.1]), np.array([0.2, 0.2]),
                      np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ParameterError, match="unit diagonal"):
        AssetUniverse(("A", "B"), np.array([0.1, 0.1]), np.array([0.2, 0.2]),
                      np.array([[1.1, 0.0], [0.0, 1.0]]))
    with pytest.raises(ParameterError, match="positive semidefinite"):
        AssetUniverse(("A", "B", "C"), np.full(3, 0.1), np.full(3, 0.2),
                      np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99],
                                [-0.99, 0.99, 1.0]]))
    with pytest.raises(ParameterError, match="positive"):
        AssetUniverse(("A",), np.array([0.1]), np.array([0.0]), np.eye(1))


def test_csv_loaders(tmp_path, msci):
    assets = tmp_path / "assets.csv"
    corr = tmp_path / "corr.csv"
    names = msci.names
    with open(assets, "w") as fh:
        fh.write("name,expected_return,stdev\n")
        for i, n in enumerate(names):
            fh.write(f"{n},{msci.expected_returns[i]},{msci.stdevs[i]}\n")
    with open(corr, "w") as fh:
        fh.write("," + ",".join(names) + "\n")
        for i, n in enumerate(names):
            fh.write(n + "," + ",".join(str(v) for v in msci.correlations[i]) + "\n")
    again = AssetUniverse.from_csv(assets, corr)
    assert np.allclose(again.covariance, msci.covariance)
    bad = tmp_path / "bad_corr.csv"
    with open(bad, "w") as fh:
        fh.write(",X1,X2\nX1,1,0\nX2,0,1\n")
    with pytest.raises(ParameterError, match="do not match"):
        AssetUniverse.from_csv(assets, bad)


# --- zeta multipliers --------------------------------------------------------

def test_zeta_normal_display():
    q = QualifiedFamily("normal")
    assert abs(q.zeta(0.5) - math.sqrt(2.0 / math.pi)) <= 1e-12
    n01 = dist.Normal(0.0, 1.0)
    for alpha in (0.2, 0.8, 0.95, 0.99):
        z = n01.quantile(alpha)
        display = n01.pdf(z) / (1.0 - alpha)
        assert abs(q.zeta(alpha) - display) <= 1e-11


def test_zeta_logistic_display():
    q = QualifiedFamily("logistic")
    for alpha in (0.1, 0.5, 0.9, 0.99):
        display = math.sqrt(3.0) * sf.binary_entropy(alpha) / (math.pi * (1.0 - alpha))
        assert abs(q.zeta(alpha) - display) <= 1e-12


def test_zeta_laplace_display():
    q = QualifiedFamily("laplace")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for alpha in (0.2, 0.7, 0.95):
        if alpha < 0.5:
            display = inv_sqrt2 * (alpha / (1 - alpha)) * (1 - math.log(2 * alpha))
        else:
            display = inv_sqrt2 * (1 - math.log(2 * (1 - alpha)))
        assert abs(q.zeta(alpha) - display) <= 1e-12


def test_zeta_student_t_display():
    nu = 3.0
    q = QualifiedFamily("student-t", nu=nu)
    std = dist.StudentT(nu)
    for alpha in (0.3, 0.9, 0.99):
        t = std.quantile(alpha)
        display = math.sqrt((nu - 2) / nu) * (nu + t * t) / ((nu - 1) * (1 - alpha)) \
            * std.std_pdf(t)
        assert abs(q.zeta(alpha) - display) <= 1e-11


def test_zeta_gev_beyond_the_gamma_overflow():
    # Gamma(1 - xi) leaves binary64 below xi = -170.6, and so do the mean and stdev; zeta
    # is their ratio, e^(-u/2) times O(1) for u = ln Gamma(1 - 2 xi) - 2 ln Gamma(1 - xi),
    # which lgamma values near 2000 carry to about 2e-13 (60-digit references)
    for xi, want in ((-200.0, 2.8049431314315549e-59), (-172.0, 7.2512127154067286e-51)):
        got = QualifiedFamily("gev", xi=xi).zeta(0.9)
        assert abs(got - want) <= 1e-12 * want, (xi, got)
    # the pair's loss quantile stays finite where the return quantile leaves binary64
    z, q = QualifiedFamily("gev", xi=-200.0).zeta(1.0 - 1e-16, 1e-16)
    assert 0.0 < z < math.inf and -math.inf < q < 0.0, (z, q)


def test_zeta_gev_incomplete_gamma_display():
    # derived display: sign(xi) [ (1-a) Gamma(1-xi) - GammaU(1-xi, y) ] / ((1-a) sqrt(g2 - g1^2)),
    # y = ln(1/(1-a)), with GammaU(c, y) = (GammaU(c+1, y) - y^c e^-y) / c, since the
    # incomplete gammas start at 1 and c = 1 - xi < 1 at xi > 0
    for xi in (0.3, 0.2, -0.2):
        q = QualifiedFamily("gev", xi=xi)
        g1 = math.gamma(1 - xi)
        g2 = math.gamma(1 - 2 * xi)
        for alpha in (0.5, 0.9, 0.99):
            c, y = 1 - xi, math.log(1.0 / (1.0 - alpha))
            gu = (sf.upper_inc_gamma(c + 1, y) - y ** c * math.exp(-y)) / c
            display = math.copysign(1.0, xi) * ((1 - alpha) * g1 - gu) \
                / ((1 - alpha) * math.sqrt(g2 - g1 * g1))
            assert abs(q.zeta(alpha) - display) <= 1e-10


def _mpmath_zeta(mp, family, alpha):
    """The family's zeta display in mpmath, with eps = 1 - alpha exact."""
    eps = 1 - mp.mpf(alpha)
    if family.family == "normal":
        z = mp.sqrt(2) * mp.erfinv(1 - 2 * eps)
        return mp.npdf(z) / eps
    if family.family == "laplace":
        return (1 - mp.log(2 * eps)) / mp.sqrt(2)
    if family.family == "logistic":
        a = mp.mpf(alpha)
        return mp.sqrt(3) / mp.pi * (-a * mp.log(a) - eps * mp.log(eps)) / eps
    if family.family == "student-t":
        nu = mp.mpf(family.nu)

        def log_tail_gap(log_t):   # log P(T > t) - log eps for the standard t
            x = nu / (nu + mp.exp(2 * log_t))
            return mp.log(mp.betainc(nu / 2, mp.mpf(1) / 2, 0, x, regularized=True) / 2) \
                - mp.log(eps)

        start = mp.log(dist.StudentT(family.nu).tail_quantile(float(eps)))
        t = mp.exp(mp.findroot(log_tail_gap, start))
        pdf = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2)) \
            * (1 + t * t / nu) ** (-(nu + 1) / 2)
        return mp.sqrt((nu - 2) / nu) * (nu + t * t) * pdf / ((nu - 1) * eps)
    xi, y = mp.mpf(family.xi), -mp.log(eps)
    if xi == 0:
        return (mp.euler + mp.log(y) - mp.li(eps) / eps) / (mp.pi / mp.sqrt(6))
    g1, g2 = mp.gamma(1 - xi), mp.gamma(1 - 2 * xi)
    return mp.sign(xi) * (g1 - mp.gammainc(1 - xi, y) / eps) / mp.sqrt(g2 - g1 * g1)


_ZETA_FAMILIES = default_report_families() + tuple(
    QualifiedFamily("gev", xi=xi) for xi in (-0.3, 0.0, 0.1, 0.3))


@pytest.mark.parametrize("family", _ZETA_FAMILIES, ids=lambda f: f.label())
def test_zeta_matches_mpmath_deep_in_the_tail(family):
    # for GEV also near alpha = 0, where its lower-tail display cancels (9e-7
    # off at 1e-10) and the upper tail average at the level 1 - alpha does not;
    # the symmetric families' mpmath displays hold for alpha >= 1/2 only
    mp = pytest.importorskip("mpmath")
    near_mean = (1e-12, 1e-10, 1e-6, 1e-3, 0.3) if family.family == "gev" else ()
    with mp.workdps(80):   # the mpmath GEV display itself cancels about 30 digits
        for alpha in near_mean + (0.5, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12):
            want = _mpmath_zeta(mp, family, alpha)
            got = family.zeta(alpha)
            assert abs(got - want) <= 1e-13 * abs(want), (alpha, got, float(want))


def test_zeta_domain():
    for family in _ZETA_FAMILIES:
        assert family.zeta(0.0) == 0.0
        for alpha in (-0.1, 1.0):
            with pytest.raises(DomainError):
                family.zeta(alpha)


def test_zeta_monotone_increasing():
    for q in default_report_families() + (QualifiedFamily("gev", xi=0.2),
                                          QualifiedFamily("gev", xi=0.0)):
        assert q.zeta(0.99) > q.zeta(0.95) > q.zeta(0.9) > 0.0


def test_qualified_family_rejections():
    for bad in ("exponential", "pareto", "gpd", "weibull"):
        with pytest.raises(ParameterError, match="not qualified"):
            QualifiedFamily(bad)
    with pytest.raises(ParameterError, match="nu > 2"):
        QualifiedFamily("student-t", nu=2.0)
    with pytest.raises(ParameterError, match="xi < 1/2"):
        QualifiedFamily("gev", xi=0.6)
    with pytest.raises(ParameterError, match="no shape"):
        QualifiedFamily("normal", nu=4.0)


# --- problems and solvers ----------------------------------------------------

def test_problem_validation(msci):
    with pytest.raises(ParameterError):
        PortfolioProblem(msci, "cvar", level=1.2)
    with pytest.raises(ParameterError):
        PortfolioProblem(msci, "bpoe", threshold=None)
    with pytest.raises(DomainError, match="infeasible"):
        PortfolioProblem(msci, "cvar", level=0.95, lower=0.3, upper=0.1)
    with pytest.raises(DomainError, match="infeasible"):
        PortfolioProblem(msci, "cvar", level=0.95, upper=0.1)


def test_single_asset_weight_is_one():
    u = _single_asset()
    for problem, fam in [
        (PortfolioProblem(u, "cvar", level=0.95), QualifiedFamily("normal")),
        (PortfolioProblem(u, "bpoe", threshold=0.2), QualifiedFamily("laplace")),
    ]:
        solve = min_cvar_portfolio if problem.objective == "cvar" else min_bpoe_portfolio
        rep = solve(problem, fam)
        assert rep.weights == pytest.approx([1.0], abs=1e-12)


def test_budget_and_bounds_exact(msci):
    rep = min_cvar_portfolio(PortfolioProblem(msci, "cvar", level=0.95),
                             QualifiedFamily("normal"))
    assert abs(rep.weights.sum() - 1.0) <= 1e-12
    assert np.all(rep.weights >= -1e-15) and np.all(rep.weights <= 1.0 + 1e-15)
    assert rep.kkt_residual <= 1e-8


def test_bpoe_weights_distribution_independent(msci):
    problem = PortfolioProblem(msci, "bpoe", threshold=0.16)
    reports = [min_bpoe_portfolio(problem, fam) for fam in default_report_families()]
    for rep in reports[1:]:
        assert np.max(np.abs(rep.weights - reports[0].weights)) <= 1e-3
    values = [rep.objective_value for rep in reports]
    assert len({round(v, 6) for v in values}) == len(values)   # values do differ


def test_bpoe_scale_invariance(msci):
    # scaling returns and threshold by c and covariance by c^2 keeps the argmax
    c = 3.7
    scaled = AssetUniverse(msci.names, c * msci.expected_returns,
                           c * msci.stdevs, msci.correlations)
    fam = QualifiedFamily("normal")
    base = min_bpoe_portfolio(PortfolioProblem(msci, "bpoe", threshold=0.16), fam)
    big = min_bpoe_portfolio(PortfolioProblem(scaled, "bpoe", threshold=c * 0.16), fam)
    assert np.max(np.abs(base.weights - big.weights)) <= 1e-6
    assert abs(base.objective_value - big.objective_value) <= 1e-8


def test_bpoe_value_consistent_with_univariate_loss(msci):
    # the reported bPOE must equal the univariate bPOE of the loss variable
    # -w.R under each family with mean -w.eta and variance w.S.w
    rep = min_bpoe_portfolio(PortfolioProblem(msci, "bpoe", threshold=0.16),
                             QualifiedFamily("normal"))
    m, sd = -rep.expected_return, rep.stdev
    losses = {
        "normal": dist.Normal(m, sd),
        "laplace": dist.Laplace(m, sd / math.sqrt(2.0)),
        "logistic": dist.Logistic(m, sd * math.sqrt(3.0) / math.pi),
        "student-t(nu=3)": dist.StudentT(3.0, sd * math.sqrt(1.0 / 3.0), m),
    }
    for label, loss in losses.items():
        assert abs(tm.bpoe(loss, 0.16).value - rep.bpoe_by_family[label]) <= 1e-6


def test_bpoe_threshold_too_low(msci):
    with pytest.raises(DomainError):
        min_bpoe_portfolio(PortfolioProblem(msci, "bpoe", threshold=-0.5),
                           QualifiedFamily("normal"))


def test_min_bpoe_where_equal_weights_fall_below_the_threshold(msci):
    # mean return 0.0963 < 0.0983 < largest return 0.1385 (MXCH): w.eta + x <= 0
    # at equal weights, and the tangent from (0, -x) touches the frontier at its top
    x = -0.0983
    assert msci.expected_returns.mean() + x <= 0.0 < msci.expected_returns.max() + x
    rep = min_bpoe_portfolio(PortfolioProblem(msci, "bpoe", threshold=x),
                             QualifiedFamily("normal"))
    assert rep.weights == pytest.approx([0, 0, 0, 0, 0, 1], abs=1e-12)
    assert rep.kkt_residual <= 1e-12
    assert rep.expected_return + x > 0.0


def test_mean_variance_solvers_reject_infeasible_bounds(msci):
    for bounds in ({"upper": 0.1}, {"lower": 0.5}, {"lower": 0.3, "upper": 0.2}):
        with pytest.raises(DomainError, match="infeasible"):
            markowitz_solve(msci, 3.0, **bounds)


def test_cvar_cross_evaluate_degenerate(msci):
    w = markowitz_solve(msci, 3.0)
    # zeta vanishes as alpha -> 0, leaving CVaR = -return
    val = cvar_cross_evaluate(w, msci, QualifiedFamily("normal"), 1e-12)
    assert abs(val + float(w @ msci.expected_returns)) <= 1e-9


def test_markowitz_two_asset_analytic():
    u = _two_asset()
    lam = 5.0
    cov = u.covariance
    eta = u.expected_returns
    spread = cov[0, 0] + cov[1, 1] - 2 * cov[0, 1]
    # interior optimum of max w.eta - (lam/2) w.S.w on the line w0 + w1 = 1
    t_star = ((eta[1] - eta[0]) / lam + cov[0, 0] - cov[0, 1]) / spread
    w = markowitz_solve(u, lam)
    assert abs(w[1] - t_star) <= 1e-6
    ok, gap = markowitz_equivalence_check(np.array([1 - t_star, t_star]), u, lam)
    assert ok and gap <= 1e-6


def test_markowitz_lambda_zero_is_max_return():
    u = _two_asset()
    w = markowitz_solve(u, 0.0)
    assert w == pytest.approx([1.0, 0.0], abs=1e-9)


def test_cvar_report_fields(msci):
    fam = QualifiedFamily("normal")
    rep = min_cvar_portfolio(PortfolioProblem(msci, "cvar", level=0.99), fam)
    # objective equals -return + stdev * zeta at the solution
    recomputed = -rep.expected_return + rep.stdev * fam.zeta(0.99)
    assert abs(rep.objective_value - recomputed) <= 1e-12
    assert rep.lambda_equiv == pytest.approx(fam.zeta(0.99) / rep.stdev)
    payload = rep.to_json()
    assert set(payload["weights"]) == set(msci.names)


def test_efficient_frontier_rows(msci):
    rows = efficient_frontier(msci, QualifiedFamily("normal"), "cvar",
                              np.array([0.9, 0.95, 0.99]))
    assert [r["alpha"] for r in rows] == [0.9, 0.95, 0.99]
    assert all(abs(sum(r[n] for n in msci.names) - 1.0) <= 1e-9 for r in rows)
    # risk level rises with alpha
    assert rows[0]["objective_value"] < rows[2]["objective_value"]


@pytest.mark.parametrize("family", (QualifiedFamily("normal"), QualifiedFamily("student-t", nu=3.0),
                                    QualifiedFamily("gev", xi=0.1)), ids=lambda f: f.label())
@pytest.mark.parametrize("objective, grid", [
    ("cvar", np.linspace(0.9, 0.99, 10)),
    ("cvar", np.linspace(0.999, 0.5, 8)),
    ("bpoe", np.linspace(0.05, 0.3, 8)),
    # w.eta + x < 0 at the 0.2 optimum for x = -0.12465
    ("bpoe", np.array([0.3, 0.2, -0.12465, 0.0])),
])
def test_frontier_rows_are_kkt_points(msci, family, objective, grid):
    rows = efficient_frontier(msci, family, objective, grid)
    for v, row in zip(grid, rows):
        kw = {"level": float(v)} if objective == "cvar" else {"threshold": float(v)}
        problem = PortfolioProblem(msci, objective, **kw)
        w = np.array([row[n] for n in msci.names])
        grad = _gradient(msci, problem, family)(w)
        assert _kkt_residual(w, grad, problem.lower, problem.upper) <= 1e-10, v


def test_bpoe_frontier_inverts_zeta_once_per_row(monkeypatch, msci):
    # a row reads only the solved family's bPOE, so it skips the report families'
    # inversions (four per row before), and its values are the full solve's
    calls = []
    invert = portfolio._invert_zeta
    monkeypatch.setattr(portfolio, "_invert_zeta",
                        lambda fam, target: calls.append(fam) or invert(fam, target))
    family, grid = QualifiedFamily("student-t", nu=4.0), (0.1, 0.16, 0.25)
    rows = efficient_frontier(msci, family, "bpoe", np.array(grid))
    assert calls == [family] * len(grid)
    for x, row in zip(grid, rows):
        rep = min_bpoe_portfolio(PortfolioProblem(msci, "bpoe", threshold=x), family)
        assert row["objective_value"] == rep.objective_value, x
        assert [row[n] for n in msci.names] == rep.weights.tolist(), x


# --- the corner trace --------------------------------------------------------

def _random_universe(rng, n, idio=(0.2, 1.0)):
    factors = rng.normal(size=(n, 3))
    cov = factors @ factors.T + np.diag(rng.uniform(*idio, n))
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    np.fill_diagonal(corr, 1.0)
    return AssetUniverse(tuple(f"A{i}" for i in range(n)), rng.normal(0.008, 0.01, n),
                         rng.uniform(0.03, 0.12, n), corr)


def _gradient(universe, problem, family):
    """The gradient of the maximized objective: w.eta - zeta sqrt(w.S.w) for
    min-CVaR, log((w.eta + x) / sqrt(w.S.w)) for min-bPOE."""
    eta, cov = universe.expected_returns, universe.covariance
    if problem.objective == "cvar":
        z = family.zeta(problem.level)
        return lambda w: eta - z * (cov @ w) / math.sqrt(w @ cov @ w)
    x = problem.threshold
    return lambda w: eta / (w @ eta + x) - (cov @ w) / (w @ cov @ w)


def test_msci_solves_trace_once_and_project_once(monkeypatch, msci):
    # one corner trace per solve, and one projection: the KKT certificate
    calls = {"trace": 0, "project": 0}
    trace, project = portfolio.critical_line_trace, portfolio.project_box_simplex

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(portfolio, "critical_line_trace", counted("trace", trace))
    monkeypatch.setattr(portfolio, "project_box_simplex", counted("project", project))
    families = default_report_families() + (QualifiedFamily("gev", xi=0.1),)
    problems = [PortfolioProblem(msci, "cvar", level=a) for a in (0.9, 0.95, 0.99)] \
        + [PortfolioProblem(msci, "bpoe", threshold=x) for x in (0.16, 0.25)]
    for fam in families:
        for problem in problems:
            calls.update(trace=0, project=0)
            solve = min_cvar_portfolio if problem.objective == "cvar" else min_bpoe_portfolio
            rep = solve(problem, fam)
            assert calls == {"trace": 1, "project": 1}, (fam.label(), problem.level, calls)
            assert rep.kkt_residual <= 1e-12


def _kkt_residual(w, grad, lower, upper, active_tol=1e-9):
    """Largest KKT violation of max f over {sum w = 1, lower <= w <= upper}:
    the spread of the gradient over free coordinates, and each bound's
    multiplier sign against the budget multiplier mu; a coordinate with
    lower = upper has no sign condition."""
    pinned = upper - lower <= active_tol
    at_lo, at_hi = (w <= lower + active_tol) & ~pinned, (w >= upper - active_tol) & ~pinned
    free = ~(at_lo | at_hi | pinned)
    if free.any():
        mu = float(np.mean(grad[free]))
    else:   # a vertex: any mu in [max grad at lower, min grad at upper] will do
        mu = 0.5 * (grad[at_lo].max(initial=-np.inf) + grad[at_hi].min(initial=np.inf))
    return max(float(np.max(np.abs(grad[free] - mu), initial=0.0)),
               float(np.max(grad[at_lo] - mu, initial=0.0)),
               float(np.max(mu - grad[at_hi], initial=0.0)))


def test_random_solves_reach_kkt():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    cases = st.tuples(st.integers(2, 30), st.integers(0, 2 ** 32 - 1),
                      st.sampled_from(("uncapped", "lower", "capped", "tight")),
                      st.floats(0.6, 0.999), st.floats(0.02, 0.3))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=cases)
    def check(case):
        n, seed, bounds, alpha, x = case
        rng = np.random.default_rng(seed)
        universe = _random_universe(rng, n)
        lower, upper = np.zeros(n), np.ones(n)
        if bounds == "lower":
            lower = rng.uniform(0.0, 0.5 / n, n)
        elif bounds == "capped":
            upper = rng.uniform(1.2 / n, 3.0 / n, n)
        elif bounds == "tight":   # most weights end at their caps
            upper = rng.uniform(1.0 / n, 1.15 / n, n)
        problems = [(PortfolioProblem(universe, "cvar", level=alpha, lower=lower, upper=upper),
                     fam) for fam in (QualifiedFamily("normal"),
                                      QualifiedFamily("student-t", nu=3.0),
                                      QualifiedFamily("gev", xi=0.1))]
        problems.append((PortfolioProblem(universe, "bpoe", threshold=x, lower=lower,
                                          upper=upper), QualifiedFamily("normal")))
        for problem, fam in problems:
            solve = min_cvar_portfolio if problem.objective == "cvar" else min_bpoe_portfolio
            w = solve(problem, fam).weights
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= lower) and np.all(w <= upper)
            grad = _gradient(universe, problem, fam)(w)
            kkt = _kkt_residual(w, grad, lower, upper)
            assert kkt <= 1e-10, (n, seed, bounds, problem.objective, fam.label(), kkt)

    check()


def test_min_bpoe_with_bounds_that_exclude_equal_weights():
    # one floor raised, one cap lowered, and the threshold halfway between the
    # equal-weight and best-vertex returns (Markowitz at lambda = 0): 25 of
    # these 200 cases leave no portfolio with w.eta + x > 0
    rng = np.random.default_rng(7)
    fam = QualifiedFamily("normal")
    solved = 0
    for case in range(200):
        n = int(rng.integers(3, 9))
        universe = _random_universe(rng, n)
        lower, upper = np.zeros(n), np.ones(n)
        i, j = rng.choice(n, 2, replace=False)
        lower[i], upper[j] = rng.uniform(0.2, 0.6), rng.uniform(0.0, 0.1)
        eta = universe.expected_returns
        best = float(markowitz_solve(universe, 0.0, lower, upper) @ eta)
        x = -(eta.mean() + best) / 2
        problem = PortfolioProblem(universe, "bpoe", threshold=x, lower=lower, upper=upper)
        if best <= eta.mean():   # no feasible w has w.eta + x > 0
            with pytest.raises(DomainError, match="no feasible portfolio"):
                min_bpoe_portfolio(problem, fam)
            continue
        w = min_bpoe_portfolio(problem, fam).weights
        grad = _gradient(universe, problem, fam)(w)
        assert _kkt_residual(w, grad, lower, upper) <= 1e-10, case
        solved += 1
    assert solved == 175


def test_near_riskless_min_bpoe_with_lower_bounds():
    # idiosyncratic variances of 1e-4 to 1e-3 against a 3-factor part leave
    # near-riskless portfolios: the last corner segments are steep (|b| near
    # 5e4), the free blocks' KKT matrices have condition numbers near 1e7, and
    # the gradient divides by a variance near 1e-7
    n = 20
    for seed in range(40):
        rng = np.random.default_rng(seed)
        universe = _random_universe(rng, n, idio=(1e-4, 1e-3))
        lower = rng.uniform(0.0, 0.9 / n, n)
        problem = PortfolioProblem(universe, "bpoe", threshold=float(rng.uniform(0.02, 0.3)),
                                   lower=lower)
        fam = QualifiedFamily("normal")
        w = min_bpoe_portfolio(problem, fam).weights
        grad = _gradient(universe, problem, fam)(w)
        assert _kkt_residual(w, grad, lower, problem.upper) <= 1e-10, seed


def test_near_riskless_min_bpoe_with_a_duplicate_asset():
    # as above, with asset 1 a copy of asset 0: the covariance is singular, and
    # the copy's multiplier equals the original's to within the free block's
    # rounding, which must not read as a sign change
    n, fam = 20, QualifiedFamily("normal")
    for seed in range(60):
        rng = np.random.default_rng(seed)
        u = _random_universe(rng, n, idio=(1e-4, 1e-3))
        eta, sd, corr = u.expected_returns.copy(), u.stdevs.copy(), u.correlations.copy()
        eta[1], sd[1], corr[1], corr[:, 1] = eta[0], sd[0], corr[0], corr[:, 0]
        corr[1, 1] = 1.0
        universe = AssetUniverse(u.names, eta, sd, corr)
        problem = PortfolioProblem(universe, "bpoe", threshold=float(rng.uniform(0.02, 0.3)))
        w = min_bpoe_portfolio(problem, fam, report_families=(fam,)).weights
        grad = _gradient(universe, problem, fam)(w)
        assert _kkt_residual(w, grad, problem.lower, problem.upper) <= 1e-10, seed


def test_permuting_assets_permutes_weights():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    cases = st.integers(3, 12).flatmap(lambda n: st.tuples(
        st.permutations(range(n)), st.integers(0, 2 ** 32 - 1), st.booleans()))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=cases)
    def check(case):
        perm, seed, capped = case
        perm = np.array(perm)
        rng = np.random.default_rng(seed)
        u = _random_universe(rng, perm.size)
        upper = rng.uniform(2.0 / perm.size, 1.0, perm.size) if capped else np.ones(perm.size)
        v = AssetUniverse(tuple(np.array(u.names)[perm]), u.expected_returns[perm],
                          u.stdevs[perm], u.correlations[np.ix_(perm, perm)])
        fam = QualifiedFamily("student-t", nu=4.0)
        for objective, kw in (("cvar", {"level": 0.9}), ("bpoe", {"threshold": 0.1})):
            solve = min_cvar_portfolio if objective == "cvar" else min_bpoe_portfolio
            base = solve(PortfolioProblem(u, objective, upper=upper, **kw), fam)
            moved = solve(PortfolioProblem(v, objective, upper=upper[perm], **kw), fam)
            assert np.max(np.abs(moved.weights - base.weights[perm])) <= 1e-9

    check()


def _solved(problem, family):
    """(weights, objective gradient there, lower, upper) of one tail solve."""
    solve = min_cvar_portfolio if problem.objective == "cvar" else min_bpoe_portfolio
    kw = {} if problem.objective == "cvar" else {"report_families": (family,)}
    w = solve(problem, family, **kw).weights
    return w, _gradient(problem.universe, problem, family)(w), problem.lower, problem.upper


def _markowitz(universe, lam, lower=0.0, upper=1.0):
    lower, upper = portfolio._bounds(universe.size, lower, upper)
    w = markowitz_solve(universe, lam, lower, upper)
    return w, universe.expected_returns - lam * (universe.covariance @ w), lower, upper


_WEIGHTS = Path(__file__).parent / "data" / "portfolio_weights.json"


def _bound_kinds(rng, n):
    """(kind, universe, lower, upper) for the four seeded random kinds."""
    plain = _random_universe(rng, n)
    yield "plain", plain, np.zeros(n), np.ones(n)
    lowered = _random_universe(rng, n)
    yield "lower", lowered, rng.uniform(0.0, 0.9 / n, n), np.ones(n)
    capped = _random_universe(rng, n)
    yield "caps", capped, np.zeros(n), rng.uniform(1.05 / n, 2.5 / n, n)
    near = _random_universe(rng, n, idio=(1e-4, 1e-3))
    yield "near-singular", near, rng.uniform(0.0, 0.9 / n, n), np.ones(n)


def _frontier_rows(msci, levels):
    """(weights, gradient, lower, upper) of each row of a min-CVaR frontier."""
    rows = efficient_frontier(msci, QualifiedFamily("normal"), "cvar", levels)
    problems = [PortfolioProblem(msci, "cvar", level=float(a)) for a in levels]
    return [(w, _gradient(msci, p, QualifiedFamily("normal"))(w), p.lower, p.upper)
            for p, w in zip(problems, (np.array([r[n] for n in msci.names]) for r in rows))]


def _weight_cases():
    """label -> a call returning (weights, objective gradient, lower, upper) of
    one solve: the MSCI tables, the 10-point CVaR frontier, Markowitz on MSCI,
    and seeded random universes with n = 2..30."""
    msci = AssetUniverse.bundled()
    cases = {}
    for fam in _INVERSION_FAMILIES:   # the five qualified families
        for alpha in (0.9, 0.95, 0.99):
            problem = PortfolioProblem(msci, "cvar", level=alpha)
            cases[f"msci|cvar|{fam.label()}|{alpha}"] = lambda p=problem, f=fam: _solved(p, f)
        for x in (0.16, 0.25):
            problem = PortfolioProblem(msci, "bpoe", threshold=x)
            cases[f"msci|bpoe|{fam.label()}|{x}"] = lambda p=problem, f=fam: _solved(p, f)
    for i, row in enumerate(_frontier_rows(msci, np.linspace(0.9, 0.99, 10))):
        cases[f"msci|frontier|normal|cvar|{i}"] = lambda row=row: row
    for lam in (0.0, 1.0, 5.0, 20.0, 100.0):
        cases[f"msci|markowitz|{lam}"] = lambda lam=lam: _markowitz(msci, lam)
    normal = QualifiedFamily("normal")
    for n in range(2, 31):
        rng = np.random.default_rng(2600 + n)
        for kind, universe, lower, upper in _bound_kinds(rng, n):
            alpha, x = float(rng.uniform(0.6, 0.999)), float(rng.uniform(0.02, 0.3))
            lam = float(10.0 ** rng.uniform(0.0, 3.0))
            tag = f"random|n={n}|{kind}"
            for fam in (normal, QualifiedFamily("student-t", nu=3.0),
                        QualifiedFamily("gev", xi=0.1)):
                problem = PortfolioProblem(universe, "cvar", level=alpha, lower=lower,
                                           upper=upper)
                cases[f"{tag}|cvar|{fam.label()}"] = lambda p=problem, f=fam: _solved(p, f)
            problem = PortfolioProblem(universe, "bpoe", threshold=x, lower=lower, upper=upper)
            cases[f"{tag}|bpoe"] = lambda p=problem: _solved(p, normal)
            cases[f"{tag}|markowitz"] = \
                lambda u=universe, lam=lam, lo=lower, hi=upper: _markowitz(u, lam, lo, hi)
    return cases


def test_weights_match_the_recorded_active_set_newton():
    # recorded from the active-set Newton solver that the corner trace replaced
    recorded = json.loads(_WEIGHTS.read_text())
    cases = _weight_cases()
    assert set(cases) == set(recorded)
    for label, solve in cases.items():
        w, grad, lower, upper = solve()
        assert np.max(np.abs(w - np.array(recorded[label]))) <= 1e-10, label
        assert _kkt_residual(w, grad, lower, upper) <= 1e-10, label


def _degenerate_universes():
    msci = AssetUniverse.bundled()
    eta, sd, corr = msci.expected_returns, msci.stdevs, msci.correlations
    twin = corr.copy()
    twin[1], twin[:, 1] = twin[0], twin[0]
    twin[1, 1] = 1.0
    yield "identical pair", AssetUniverse(
        ("A", "B"), np.array([0.1, 0.1]), np.array([0.2, 0.2]), np.ones((2, 2))), 0.0, 1.0
    yield "identical assets in six", AssetUniverse(
        msci.names, np.r_[eta[0], eta[0], eta[2:]], np.r_[sd[0], sd[0], sd[2:]], twin), 0.0, 0.4
    yield "perfectly correlated", AssetUniverse(msci.names, eta, sd, twin), 0.0, 1.0
    yield "pinned simplex", msci, 0.0, np.array([0.3, 0.2, 0.1, 0.1, 0.1, 0.2])
    yield "pinned floors", msci, np.array([0.3, 0.2, 0.1, 0.1, 0.1, 0.2]), 1.0
    yield "pinned top asset", msci, np.r_[np.zeros(5), 0.3], np.r_[np.ones(5), 0.3]
    yield "equal returns", AssetUniverse(msci.names, np.full(6, 0.08), sd, corr), 0.0, 0.3
    yield "tied top returns", AssetUniverse(
        msci.names, np.array([0.1, 0.1, 0.05, 0.1, 0.02, 0.1]), sd, corr), 0.0, 0.25
    yield "single asset", _single_asset(), 0.0, 1.0


@pytest.mark.parametrize("case", [c[0] for c in _degenerate_universes()])
def test_degenerate_universes_solve_to_kkt(case):
    # a singular covariance, a budget that pins every weight, a pinned asset and
    # tied returns at the top of the frontier: every solve returns a KKT point
    _, universe, lower, upper = next(c for c in _degenerate_universes() if c[0] == case)
    fam = QualifiedFamily("student-t", nu=4.0)
    solves = [_solved(PortfolioProblem(universe, "cvar", level=a, lower=lower, upper=upper), fam)
              for a in (0.5, 0.95)]
    solves.append(_solved(PortfolioProblem(universe, "bpoe", threshold=0.2, lower=lower,
                                           upper=upper), fam))
    solves += [_markowitz(universe, lam, lower, upper) for lam in (0.0, 3.0, 1e4)]
    for w, grad, lo, hi in solves:
        assert abs(w.sum() - 1.0) <= 1e-12 and np.all(w >= lo) and np.all(w <= hi), w
        assert _kkt_residual(w, grad, lo, hi) <= 1e-10, w


# --- zeta inversion ----------------------------------------------------------

_INVERSION_FAMILIES = (QualifiedFamily("normal"), QualifiedFamily("laplace"),
                       QualifiedFamily("logistic"), QualifiedFamily("student-t", nu=3.0),
                       QualifiedFamily("gev", xi=0.1))


def _bisect_zeta(family, target):
    lo, hi = 1e-9, 1.0 - 1e-9
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if family.zeta(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("family", _INVERSION_FAMILIES, ids=lambda f: f.label())
def test_invert_zeta_matches_bisection(family):
    levels = (1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999, 1e-4, 1e-5)
    zetas = sorted(family.zeta(a if a > 1e-4 else 1.0 - a) for a in levels)
    # the levels themselves and points strictly between them
    targets = zetas + [math.sqrt(a * b) for a, b in zip(zetas, zetas[1:])]
    for target in targets:
        got = _invert_zeta(family, target)
        want = 1.0 - _bisect_zeta(family, target)
        assert abs(got - want) <= 1e-8 * want, (target, got, want)


@pytest.mark.parametrize("family", _INVERSION_FAMILIES, ids=lambda f: f.label())
def test_invert_zeta_clamps_at_window(family):
    # the window is the whole tail-mass range: bPOE 1 at or below the loss
    # mean, and 0 beyond the largest zeta (bpoe's clamp, or for GEV an
    # underflow below the smallest normal tail mass)
    assert _invert_zeta(family, -1.0) == 1.0
    assert _invert_zeta(family, 0.0) == 1.0
    assert _invert_zeta(family, 1e200) == 0.0
    # beyond zeta at the top level nextafter(1, 0), the tail mass goes on
    # below 1.1e-16 where the loss is unbounded
    eps = _invert_zeta(family, 2.0 * family.zeta(math.nextafter(1.0, 0.0)))
    if family.family == "gev":   # GEV(xi = 0.1): past the loss supremum
        assert eps == 0.0
    else:
        assert 0.0 < eps < 1.1e-16


def _mpmath_gev_zeta_root(mp, xi, target):
    """Tail mass p with zeta(1 - p) = target for GEV(0, 1, xi), by bisection in ln p."""
    xi = mp.mpf(xi)
    g1, g2 = mp.gamma(1 - xi), mp.gamma(1 - 2 * xi)

    def zeta(ln_p):
        p = mp.exp(ln_p)
        return (g1 - mp.gammainc(1 - xi, -ln_p) / p) / mp.sqrt(g2 - g1 ** 2)   # xi > 0

    lo, hi = mp.log(mp.mpf("1e-300")), mp.mpf(0)   # zeta at lo > target > zeta at hi
    for _ in range(200):
        mid = (lo + hi) / 2
        if zeta(mid) > target:
            lo = mid
        else:
            hi = mid
    return mp.exp((lo + hi) / 2)


def test_min_bpoe_gev_deep_tail_against_mpmath():
    # the MSCI min-bPOE solve at x = 0.25 has a GEV(xi = 0.1) bPOE near 3e-28,
    # far below the 1.1e-16 a level 1 - eps can resolve
    mp = pytest.importorskip("mpmath")
    family = QualifiedFamily("gev", xi=0.1)
    problem = PortfolioProblem(AssetUniverse.bundled(), "bpoe", threshold=0.25)
    report = min_bpoe_portfolio(problem, family, report_families=(family,))
    ratio = (float(report.weights @ problem.universe.expected_returns) + 0.25) / report.stdev
    with mp.workdps(50):
        want = float(_mpmath_gev_zeta_root(mp, 0.1, mp.mpf(ratio)))
    assert 1e-30 < want < 1e-25
    assert abs(report.objective_value - want) <= 1e-10 * want
    assert report.bpoe_by_family["gev(xi=0.1)"] == report.objective_value


@pytest.mark.parametrize("family", _ZETA_FAMILIES, ids=lambda f: f.label())
def test_invert_zeta_round_trip(family):
    for alpha in (1e-3, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-9):
        target = family.zeta(alpha)
        assert abs(family.zeta(1.0 - _invert_zeta(family, target)) - target) <= 1e-12 * target
