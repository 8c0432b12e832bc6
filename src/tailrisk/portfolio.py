"""Parametric portfolio optimization under qualified return distributions.

A family is *qualified* when the left superquantile of any portfolio return
decomposes as  mean - stdev * zeta(alpha, shape)  with a weight-independent
multiplier zeta. Five families qualify here: Normal, Laplace, Logistic,
Student-t (fixed nu > 2) and GEV (fixed xi < 1/2). Exponential, Pareto, GPD
and Weibull are rejected: their mean/stdev coupling and PDF shapes do not
match real asset returns.

Losses are the negative of returns throughout; thresholds are loss
thresholds. Two solved problems:

  * minimal CVaR at level alpha   ==  max  w.eta - zeta(alpha) * sqrt(w.S.w)
  * minimal bPOE at threshold x   ==  max  (w.eta + x) / sqrt(w.S.w)

The second objective has no shape parameter in it, so one weight vector is
bPOE-optimal for every qualified family simultaneously; only the reported
bPOE value depends on the family. zeta, the superquantile of the
standardized loss, and its inverse, the bPOE as a tail mass, come from
``tail_metrics`` (GEV: a closed form and one ``level_root``).

Every problem here maximizes over one curve: the box-bounded mean-variance
frontier, the maximizers of gamma w.eta - w.S.w / 2 for gamma = 1 / lambda from
inf down to 0, which Markowitz's critical-line algorithm traces as corner
segments w(gamma) = a + gamma b (``_optim.critical_line_trace``). On a
segment the return is r(gamma) = r0 + gamma r1 and the variance v(gamma) =
v0 + gamma^2 r1, since dv/dgamma = 2 gamma dr/dgamma on the frontier. The
min-CVaR optimum, where the slope dsigma/dr is 1 / zeta, solves sqrt(v) =
zeta gamma; the min-bPOE optimum, the tangent from (0, -x), solves v =
gamma (r + x); Markowitz reads gamma = 1 / lambda. Each is a root on the one
segment where its sign changes, and ``kkt_residual`` certifies the final
weights.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from ._optim import critical_line_trace, project_box_simplex
from .distributions import (GEV, Distribution, Laplace, Logistic, Normal, StudentT,
                            _expm1_ratio, _ln_gamma_gap, _neg_log)
from .errors import ConvergenceError, DomainError, ParameterError
from .tail_metrics import _gev_tail, bpoe, cantelli_level, level_root, superquantile

QUALIFIED_FAMILIES = ("normal", "laplace", "logistic", "student-t", "gev")
_REJECTED = {"exponential", "pareto", "gpd", "weibull", "lognormal", "loglogistic"}


@dataclass(frozen=True)
class QualifiedFamily:
    """A distribution family admissible for the parametric portfolio problems."""

    family: str
    nu: float | None = None    # student-t degrees of freedom, > 2
    xi: float | None = None    # gev shape, < 1/2
    _unit: Distribution = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        name = self.family.lower().replace("_", "-")
        if name == "t":
            name = "student-t"
        object.__setattr__(self, "family", name)
        if name in _REJECTED:
            raise ParameterError(
                f"family {name!r} is not qualified for portfolio optimization "
                "(its moment structure does not match asset returns)")
        if name not in QUALIFIED_FAMILIES:
            raise ParameterError(
                f"unknown family {name!r}; qualified families: {QUALIFIED_FAMILIES}")
        if name == "student-t":
            if self.nu is None or self.nu <= 2.0:
                raise ParameterError(
                    f"student-t requires nu > 2 for unit-variance standardization, got {self.nu}")
        elif name == "gev":
            if self.xi is None or self.xi >= 0.5:
                raise ParameterError(
                    f"gev requires xi < 1/2 for finite variance, got {self.xi}")
        elif self.nu is not None or self.xi is not None:
            raise ParameterError(f"family {name!r} takes no shape parameter")
        object.__setattr__(self, "_unit", self._unit_variance_member())

    def _unit_variance_member(self) -> Distribution:
        if self.family == "normal":
            return Normal(0.0, 1.0)
        if self.family == "laplace":
            return Laplace(0.0, 1.0 / math.sqrt(2.0))
        if self.family == "logistic":
            return Logistic(0.0, math.sqrt(3.0) / math.pi)
        if self.family == "student-t":
            return StudentT(self.nu, math.sqrt((self.nu - 2.0) / self.nu), 0.0)
        return GEV(0.0, 1.0, self.xi)

    def zeta(self, alpha: float, _eps: float | None = None) -> float | tuple[float, float]:
        """Stdev-to-CVaR multiplier: the superquantile at alpha in [0, 1) of the
        standardized loss (m - X) / sd, which has the unit-variance member's law
        for the symmetric families. Given ``_eps`` = 1 - alpha, as in
        ``superquantile``, it returns the pair (zeta, q), q the standardized
        loss quantile at alpha, for ``level_root``.
        For GEV(0, 1, xi) and p = 1 - alpha it is alpha (sq(p) - m) / (p sd), sq the
        upper tail average, m the mean and sd = G sqrt(_expm1_ratio(xi^2, _ln_gamma_gap(xi))),
        G = Gamma(1 - xi), which cancels against ``_gev_tail``'s (sq(p) - m) / G.
        """
        d = self._unit
        if self.family != "gev":
            return superquantile(d, alpha, _eps)
        if _eps is None and not 0.0 <= alpha < 1.0:
            raise DomainError(f"zeta level must lie in [0, 1), got {alpha}")
        p = 1.0 - alpha if _eps is None else _eps
        xi = self.xi
        sd = math.sqrt(_expm1_ratio(xi * xi, _ln_gamma_gap(xi)))   # the stdev over G
        z = alpha * _gev_tail(d, p, alpha)[1] / (p * sd) if alpha else 0.0
        if _eps is None:
            return z
        # the loss at level alpha is the return at level p = 1 - alpha: (m - q) / G, which at
        # q = (y^-xi - 1) / xi, y = -ln p, is one expm1 ratio, and 1 / xi at the top (alpha = 0)
        if not alpha:
            return z, (1.0 / xi if xi < 0.0 else -math.inf) / sd
        return z, _expm1_ratio(-xi, d._lg1 + math.log(_neg_log(p, alpha))) / sd

    def label(self) -> str:
        if self.family == "student-t":
            return f"student-t(nu={self.nu:g})"
        if self.family == "gev":
            return f"gev(xi={self.xi:g})"
        return self.family


def default_report_families() -> tuple[QualifiedFamily, ...]:
    """The four elliptical families used in the comparison reports."""
    return (QualifiedFamily("normal"), QualifiedFamily("student-t", nu=3.0),
            QualifiedFamily("laplace"), QualifiedFamily("logistic"))


@dataclass(frozen=True)
class AssetUniverse:
    """Expected returns, stdevs and correlations for a set of assets.

    Returns and stdevs are per-period fractions. The covariance matrix is
    derived as diag(stdev) @ corr @ diag(stdev) and checked for positive
    semidefiniteness.
    """

    names: tuple[str, ...]
    expected_returns: np.ndarray
    stdevs: np.ndarray
    correlations: np.ndarray
    covariance: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        eta = np.asarray(self.expected_returns, dtype=float)
        sd = np.asarray(self.stdevs, dtype=float)
        corr = np.asarray(self.correlations, dtype=float)
        n = len(self.names)
        if eta.shape != (n,) or sd.shape != (n,):
            raise ParameterError(
                f"expected {n} returns and stdevs, got shapes {eta.shape}, {sd.shape}")
        if corr.shape != (n, n):
            raise ParameterError(
                f"correlation matrix must be {n}x{n}, got {corr.shape}")
        if np.any(sd <= 0):
            raise ParameterError("stdevs must be positive")
        if np.max(np.abs(corr - corr.T)) > 1e-12:
            raise ParameterError("correlation matrix must be symmetric")
        if np.max(np.abs(np.diag(corr) - 1.0)) > 1e-12:
            raise ParameterError("correlation matrix must have a unit diagonal")
        if np.max(np.abs(corr)) > 1.0 + 1e-12:
            raise ParameterError("correlations must lie in [-1, 1]")
        cov = np.outer(sd, sd) * corr
        if np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ParameterError("covariance matrix is not positive semidefinite")
        object.__setattr__(self, "expected_returns", eta)
        object.__setattr__(self, "stdevs", sd)
        object.__setattr__(self, "correlations", corr)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "covariance", cov)

    @property
    def size(self) -> int:
        return len(self.names)

    @classmethod
    def from_csv(cls, assets_path: str | Path,
                 correlations_path: str | Path | None = None) -> "AssetUniverse":
        """Load from an assets CSV (name, expected_return, stdev) plus a
        square correlations CSV, or from a single combined file whose extra
        columns carry the correlation block."""
        rows = _read_csv(assets_path)
        if not rows:
            raise ParameterError(f"empty assets file: {assets_path}")
        header = [h.strip() for h in rows[0]]
        base = ["name", "expected_return", "stdev"]
        if [h.lower() for h in header[:3]] != base:
            raise ParameterError(
                f"assets file must start with columns {base}, got {header[:3]}")
        names = [r[0].strip() for r in rows[1:]]
        eta = [float(r[1]) for r in rows[1:]]
        sd = [float(r[2]) for r in rows[1:]]
        if len(header) > 3:
            if correlations_path is not None:
                raise ParameterError(
                    "combined assets file already carries correlations")
            if header[3:] != names:
                raise ParameterError(
                    f"correlation columns {header[3:]} do not match asset names {names}")
            corr = [[float(v) for v in r[3:]] for r in rows[1:]]
        else:
            if correlations_path is None:
                raise ParameterError("correlations file required")
            crows = _read_csv(correlations_path)
            cheader = [h.strip() for h in crows[0][1:]]
            cnames = [r[0].strip() for r in crows[1:]]
            if cheader != names or cnames != names:
                raise ParameterError(
                    f"correlation matrix names {cheader} do not match assets {names}")
            corr = [[float(v) for v in r[1:]] for r in crows[1:]]
        return cls(tuple(names), np.array(eta), np.array(sd), np.array(corr))

    @classmethod
    def bundled(cls) -> "AssetUniverse":
        """The packaged six-index MSCI monthly-return dataset (fractions)."""
        path = resources.files("tailrisk").joinpath("data/msci_table1.csv")
        with resources.as_file(path) as p:
            return cls.from_csv(p)


def _read_csv(path: str | Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]


def _bounds(n: int, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Weight bounds broadcast to n assets; DomainError if no budget fits them."""
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (n,)).copy()
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (n,)).copy()
    if np.any(lo > hi) or lo.sum() > 1.0 + 1e-12 or hi.sum() < 1.0 - 1e-12:
        raise DomainError(
            "infeasible bounds: need lower <= upper with sum(lower) <= 1 <= sum(upper)")
    return lo, hi


@dataclass(frozen=True)
class PortfolioProblem:
    """Budgeted, box-bounded weight selection with a tail objective."""

    universe: AssetUniverse
    objective: str                      # "cvar" | "bpoe"
    level: float | None = None          # alpha, for the cvar objective
    threshold: float | None = None      # loss threshold x, for bpoe
    lower: object = 0.0
    upper: object = 1.0

    def __post_init__(self):
        if self.objective not in ("cvar", "bpoe"):
            raise ParameterError(f"objective must be 'cvar' or 'bpoe', got {self.objective!r}")
        if self.objective == "cvar":
            if self.level is None or not 0.0 < self.level < 1.0:
                raise ParameterError(f"cvar objective needs level in (0, 1), got {self.level}")
            if self.threshold is not None:
                raise ParameterError("cvar objective takes no threshold")
        else:
            if self.threshold is None or not math.isfinite(self.threshold):
                raise ParameterError(f"bpoe objective needs a finite threshold, got {self.threshold}")
            if self.level is not None:
                raise ParameterError("bpoe objective takes no level")
        lo, hi = _bounds(self.universe.size, self.lower, self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


@dataclass
class PortfolioReport:
    names: tuple[str, ...]
    weights: np.ndarray
    expected_return: float
    stdev: float
    objective: str
    objective_value: float
    alpha_star: float | None = None
    lambda_equiv: float | None = None
    bpoe_by_family: dict[str, float] | None = None
    kkt_residual: float = math.nan

    def to_json(self) -> dict:
        out = {
            "weights": {n: float(w) for n, w in zip(self.names, self.weights)},
            "return": self.expected_return,
            "stdev": self.stdev,
            "objective": self.objective,
            "objective_value": self.objective_value,
        }
        if self.alpha_star is not None:
            out["alpha_star"] = self.alpha_star
        if self.lambda_equiv is not None:
            out["lambda_equiv"] = self.lambda_equiv
        if self.bpoe_by_family is not None:
            out["bpoe_by_family"] = self.bpoe_by_family
        return out


def _frontier_point(universe: AssetUniverse, lower: np.ndarray, upper: np.ndarray,
                    crossing) -> np.ndarray:
    """Weights on the corner trace where ``crossing`` puts the optimum. Given
    a segment's r0, r1 and v0, crossing returns the gamma at which the
    problem's condition changes sign there, or inf where it holds on the whole
    segment; walking down from the max-return vertex, the first segment whose
    crossing lies at or above its lower end holds the optimum."""
    eta, cov = universe.expected_returns, universe.covariance
    for lo, hi, a, b in critical_line_trace(eta, cov, lower, upper):
        gamma = crossing(float(a @ eta), float(b @ eta), max(float(a @ cov @ a), 0.0))
        if gamma >= lo:
            break
    gamma = min(max(gamma, lo), hi)
    return np.clip(a if gamma == math.inf else a + gamma * b, lower, upper)


def _certify(w: np.ndarray, gradient: np.ndarray, lower: np.ndarray,
             upper: np.ndarray) -> float:
    """The KKT residual |P(w + g) - w| of the final weights, P =
    ``project_box_simplex``, zero exactly at a KKT point; raises
    ConvergenceError above 1e-8."""
    gp = float(np.linalg.norm(project_box_simplex(w + gradient, lower, upper) - w))
    if gp > 1e-8:
        raise ConvergenceError("portfolio solver did not reach KKT tolerance",
                               {"gradient_projection_norm": gp})
    return gp


def min_cvar_portfolio(problem: PortfolioProblem, family: QualifiedFamily) -> PortfolioReport:
    """Weights minimizing the loss CVaR at the problem's level: the frontier
    point where sqrt(v) = zeta gamma, that is v0 = (zeta^2 - r1) gamma^2."""
    if problem.objective != "cvar":
        raise ParameterError("problem does not carry a cvar objective")
    u = problem.universe
    eta, cov = u.expected_returns, u.covariance
    z = family.zeta(problem.level)
    w = _frontier_point(u, problem.lower, problem.upper, lambda r0, r1, v0: (
        math.sqrt(v0 / (z * z - r1)) if z * z > r1 else math.inf))
    ret = float(w @ eta)
    sd = math.sqrt(float(w @ cov @ w))
    gp = _certify(w, eta - z * (cov @ w) / sd, problem.lower, problem.upper)
    # lambda matching the half-quadratic Markowitz utility w.eta - (l/2) w.S.w
    return PortfolioReport(u.names, w, ret, sd, "cvar",
                           objective_value=z * sd - ret, alpha_star=problem.level,
                           lambda_equiv=z / sd, kkt_residual=gp)


def _invert_zeta(family: QualifiedFamily, target: float) -> float:
    """Tail mass eps with zeta(1 - eps) = target, i.e. the bPOE of the
    standardized loss: the unit-variance member's ``bpoe`` for the symmetric
    families, else ``level_root`` on the GEV zeta in the pair (alpha, eps)
    for eps in [smallest normal float, 1], and 0.0 (an underflow) beyond.
    """
    if family.family != "gev":
        return bpoe(family._unit, target).value
    _, eps, z, _ = level_root(family.zeta, target, sys.float_info.min,
                              cantelli_level(target, 0.0, 1.0))
    return 0.0 if eps == sys.float_info.min and z < target else eps


def min_bpoe_portfolio(problem: PortfolioProblem, family: QualifiedFamily,
                       report_families: tuple[QualifiedFamily, ...] | None = None
                       ) -> PortfolioReport:
    """Weights minimizing bPOE of the loss at the problem's threshold.

    The reduced objective (generalized Sharpe ratio) is family-free, so the
    weights are optimal for every qualified family at once: the frontier point
    where v = gamma (r + x), that is v0 = gamma (r0 + x). Per-family bPOE
    values at those same weights go into ``bpoe_by_family``, each the tail
    mass from ``_invert_zeta``, so small values keep their relative precision.
    """
    if problem.objective != "bpoe":
        raise ParameterError("problem does not carry a bpoe objective")
    u = problem.universe
    eta, cov = u.expected_returns, u.covariance
    x = problem.threshold
    w = _frontier_point(u, problem.lower, problem.upper, lambda r0, r1, v0: (
        v0 / (r0 + x) if r0 + x > 0.0 else math.inf))
    ret = float(w @ eta)
    if ret + x <= 0.0:
        raise DomainError(
            f"threshold {x} leaves no feasible portfolio with w.eta + x > 0")
    var = float(w @ cov @ w)
    sd = math.sqrt(var)
    gp = _certify(w, eta / (ret + x) - (cov @ w) / var, problem.lower, problem.upper)
    ratio = (ret + x) / sd
    if report_families is None:
        report_families = default_report_families()
    # one inversion per distinct family; the solved family is usually reported too
    eps = {fam: _invert_zeta(fam, ratio) for fam in dict.fromkeys((family, *report_families))}
    by_family = {fam.label(): eps[fam] for fam in report_families}
    return PortfolioReport(u.names, w, ret, sd, "bpoe",
                           objective_value=eps[family], alpha_star=1.0 - eps[family],
                           bpoe_by_family=by_family, kkt_residual=gp)


def cvar_cross_evaluate(weights: np.ndarray, universe: AssetUniverse,
                        family: QualifiedFamily, alpha: float) -> float:
    """Loss CVaR of fixed weights under the given family at level alpha."""
    w = np.asarray(weights, dtype=float)
    ret = float(w @ universe.expected_returns)
    sd = math.sqrt(float(w @ universe.covariance @ w))
    return -ret + sd * family.zeta(alpha)


def markowitz_solve(universe: AssetUniverse, lam: float,
                    lower=0.0, upper=1.0) -> np.ndarray:
    """Maximize w.eta - (lam/2) w.S.w over the box-bounded simplex: the
    frontier point at gamma = 1 / lam."""
    if lam < 0:
        raise ParameterError(f"trade-off lambda must be >= 0, got {lam}")
    eta, cov = universe.expected_returns, universe.covariance
    lo, hi = _bounds(universe.size, lower, upper)
    gamma = 1.0 / lam if lam > 0.0 else math.inf
    w = _frontier_point(universe, lo, hi, lambda r0, r1, v0: gamma)
    _certify(w, eta - lam * (cov @ w), lo, hi)
    return w


def markowitz_equivalence_check(w_cvar: np.ndarray, universe: AssetUniverse,
                                lam: float, lower=0.0, upper=1.0,
                                tol: float = 5e-3) -> tuple[bool, float]:
    """Re-solve the mean-variance problem at lam and compare weight vectors.

    Returns (weights match within tol, max per-weight gap).
    """
    w_mark = markowitz_solve(universe, lam, lower, upper)
    gap = float(np.max(np.abs(np.asarray(w_cvar, dtype=float) - w_mark)))
    return gap <= tol, gap


def efficient_frontier(universe: AssetUniverse, family: QualifiedFamily,
                       objective: str, grid: np.ndarray,
                       lower=0.0, upper=1.0) -> list[dict]:
    """Sweep the level (cvar) or threshold (bpoe) and record each optimum."""
    rows = []
    for v in grid:
        if objective == "cvar":
            prob = PortfolioProblem(universe, "cvar", level=float(v),
                                    lower=lower, upper=upper)
            rep = min_cvar_portfolio(prob, family)
            key = "alpha"
        else:
            prob = PortfolioProblem(universe, "bpoe", threshold=float(v),
                                    lower=lower, upper=upper)
            rep = min_bpoe_portfolio(prob, family, report_families=())   # reads no other family
            key = "threshold"
        row = {key: float(v), "objective_value": rep.objective_value,
               "return": rep.expected_return, "stdev": rep.stdev}
        row.update({n: float(w) for n, w in zip(rep.names, rep.weights)})
        rows.append(row)
    return rows
