"""Parametric portfolio optimization under qualified return distributions.

A family is *qualified* when the left superquantile of any portfolio return
decomposes as  mean - stdev * zeta(alpha, shape)  with a weight-independent
multiplier zeta. Five families qualify here: Normal, Laplace, Logistic,
Student-t (fixed nu > 2) and GEV (fixed xi in (-86.178, 1/2)). Exponential, Pareto, GPD
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
``tail_metrics`` (GEV: the zero-mean, unit-variance member and one ``level_root``).

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
weights. The trace depends only on the (read-only) universe and the bounds, so
the universe keeps its last trace, read by every solve at the same bounds.
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
from .distributions import (FAMILIES, GEV, Distribution, Laplace, Logistic, Normal, StudentT,
                            _family_key)
from .errors import (_BELOW_ONE, _LEAST, _MAX, ConvergenceError, DomainError, ParameterError,
                     _floats, _require, _typed)
from .tail_metrics import _SQ_LEVEL, bpoe, cantelli_level, level_root, superquantile

QUALIFIED_FAMILIES = ("normal", "laplace", "logistic", "student-t", "gev")
_REJECTED = set(FAMILIES) - set(QUALIFIED_FAMILIES)


@dataclass(frozen=True)
class QualifiedFamily:
    """A distribution family admissible for the parametric portfolio problems."""

    family: str
    nu: float | None = None    # student-t degrees of freedom, > 2
    xi: float | None = None    # gev shape, in (-86.178, 1/2): a finite variance in binary64
    _unit: Distribution = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        name = _family_key(self.family)
        name = "student-t" if name == "t" else name
        if name in _REJECTED:
            raise ParameterError(
                f"family {name!r} is not qualified for portfolio optimization "
                "(its moment structure does not match asset returns)")
        if name not in QUALIFIED_FAMILIES:
            raise ParameterError(
                f"unknown family {self.family!r:.40}; qualified families: {QUALIFIED_FAMILIES}")
        object.__setattr__(self, "family", name)
        if name == "student-t":
            object.__setattr__(self, "nu", _require(
                self.nu, "student-t requires nu > 2 for a unit variance, got {}",
                math.nextafter(2.0, math.inf)))
        elif name == "gev":
            object.__setattr__(self, "xi", _require(
                self.xi, "gev requires xi < 1/2 for finite variance, got {}", -_MAX,
                math.nextafter(0.5, 0.0)))
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
        s = 1.0 / math.sqrt(_require(GEV(0.0, 1.0, self.xi).variance(), "gev requires xi above "
                                     f"about -86.178 for a variance in binary64, got {self.xi!r}"))
        return GEV(-GEV(0.0, s, self.xi).mean(), s, self.xi)   # mean() is 0.0 exactly

    def zeta(self, alpha: float, _eps: float | None = None) -> float | tuple[float, float]:
        """Stdev-to-CVaR multiplier: the superquantile at alpha in [0, 1) of the
        standardized loss (m - X) / sd, which has the unit-variance member's law
        for the symmetric families. Given ``_eps`` = 1 - alpha, as in
        ``superquantile``, it returns the pair (zeta, q), q the standardized
        loss quantile at alpha, for ``level_root``.
        For GEV it is (alpha / p) sq(p) and q = -q(p) of the zero-mean, unit-variance
        member at p = 1 - alpha, read from one ``superquantile`` pair.
        """
        d = self._unit
        if self.family != "gev":
            return superquantile(d, alpha, _eps)
        if _eps is None:
            alpha = _require(alpha, _SQ_LEVEL, 0.0, _BELOW_ONE, DomainError)
        p = 1.0 - alpha if _eps is None else _eps
        sq, q = superquantile(d, p, alpha) if alpha else (0.0, d.support().upper)
        z = alpha * sq / p
        return z if _eps is None else (z, -q)

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
    semidefiniteness. The arrays are read-only copies of the inputs, so the
    corner trace kept of the last bounds solved at cannot go stale.
    """

    names: tuple[str, ...]
    expected_returns: np.ndarray
    stdevs: np.ndarray
    correlations: np.ndarray
    covariance: np.ndarray = field(init=False, repr=False)
    _last_trace: tuple = field(default=(b"", ()), init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            names = tuple(self.names)
        except TypeError:
            raise ParameterError(f"names must be a sequence, got {self.names!r:.40}") from None
        n = len(names)
        finite = f" must be {n} finite numbers, at least one, got {{}}"
        eta = _floats(self.expected_returns, "returns" + finite, (n,)).copy()
        sd = _floats(self.stdevs, "stdevs" + finite, (n,)).copy()
        corr = _floats(self.correlations, f"correlation matrix must be {n}x{n} finite numbers, "
                       "got {}", (n, n)).copy()
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
        for v in (eta, sd, corr, cov):
            v.setflags(write=False)
        object.__setattr__(self, "expected_returns", eta)
        object.__setattr__(self, "stdevs", sd)
        object.__setattr__(self, "correlations", corr)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "covariance", cov)

    def __reduce__(self):   # a copy or an unpickled universe is built anew: read-only, untraced
        return type(self), (self.names, self.expected_returns, self.stdevs, self.correlations)

    @property
    def size(self) -> int:
        return len(self.names)

    @classmethod
    def from_csv(cls, assets_path: str | Path,
                 correlations_path: str | Path | None = None) -> "AssetUniverse":
        """Load from an assets CSV (name, expected_return, stdev) plus a
        square correlations CSV, or from a single combined file whose extra
        columns carry the correlation block."""
        header, names, values = _read_csv(assets_path)
        base = ["name", "expected_return", "stdev"]
        if [h.lower() for h in header[:3]] != base:
            raise ParameterError(
                f"assets file must start with columns {base}, got {header[:3]}")
        if len(header) > 3:
            if correlations_path is not None:
                raise ParameterError(
                    "combined assets file already carries correlations")
            if header[3:] != names:
                raise ParameterError(
                    f"correlation columns {header[3:]} do not match asset names {names}")
            corr = [r[2:] for r in values]
        else:
            if correlations_path is None:
                raise ParameterError("correlations file required")
            cheader, cnames, corr = _read_csv(correlations_path)
            if cheader[1:] != names or cnames != names:
                raise ParameterError(
                    f"correlation matrix names {cheader[1:]} do not match assets {names}")
        return cls(tuple(names), [r[0] for r in values], [r[1] for r in values], corr)

    @classmethod
    def bundled(cls) -> "AssetUniverse":
        """The packaged six-index MSCI monthly-return dataset (fractions)."""
        path = resources.files("tailrisk").joinpath("data/msci_table1.csv")
        with resources.as_file(path) as p:
            return cls.from_csv(p)


def _read_csv(path: str | Path) -> tuple[list[str], list[str], list[list[float]]]:
    """The header, the names down the first column and, after each name, one number
    per further header column; else ParameterError naming the file and the row (the
    header is row 1, blank rows are skipped)."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise ParameterError(f"empty file: {path}")
    width, values = len(rows[0]) - 1, []
    for i, row in enumerate(rows[1:], 2):
        try:
            numbers = [float(v) for v in row[1:]]
        except ValueError:
            numbers = None
        if numbers is None or len(numbers) != width:
            raise ParameterError(f"{path}, row {i}: expected a name and {width} numbers, got {row}")
        values.append(numbers)
    return [h.strip() for h in rows[0]], [r[0].strip() for r in rows[1:]], values


def _bounds(n: int, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Weight bounds broadcast to n assets; ParameterError on a bound that is neither a
    number nor n of them, a NaN bound or a lower bound of -inf, DomainError if no budget
    fits them."""
    try:
        lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), (n,)).copy() for b in (lower, upper))
    except (TypeError, ValueError):
        raise ParameterError(f"weight bounds must be a number or {n} numbers") from None
    if not (lo > -math.inf).all() or np.isnan(hi).any():   # NaN compares False
        raise ParameterError("weight bounds must not be NaN, and lower bounds must exceed -inf")
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
        if not (isinstance(self.objective, str) and self.objective in ("cvar", "bpoe")):
            raise ParameterError(f"objective must be 'cvar' or 'bpoe', got {self.objective!r}")
        if self.objective == "cvar":
            object.__setattr__(self, "level", _require(
                self.level, "cvar objective needs level in (0, 1), got {}", _LEAST, _BELOW_ONE))
            if self.threshold is not None:
                raise ParameterError("cvar objective takes no threshold")
        else:
            object.__setattr__(self, "threshold", _require(
                self.threshold, "bpoe objective needs a finite threshold, got {}", -_MAX))
            if self.level is not None:
                raise ParameterError("bpoe objective takes no level")
        lo, hi = _bounds(_typed(self.universe, AssetUniverse).size, self.lower, self.upper)
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


def _trace(universe: AssetUniverse, lower: np.ndarray, upper: np.ndarray) -> tuple[tuple, ...]:
    """The corner trace's segments (lo, hi, a, b), each with its r0, r1 and v0. The
    universe keeps the last trace, matched by the bounds' exact bytes."""
    key, memo = lower.tobytes() + upper.tobytes(), universe._last_trace   # read the slot once
    if memo[0] != key:
        eta, cov = universe.expected_returns, universe.covariance
        memo = key, tuple((lo, hi, a, b, float(a @ eta), float(b @ eta),
                           max(float(a @ cov @ a), 0.0))
                          for lo, hi, a, b in critical_line_trace(eta, cov, lower, upper))
        object.__setattr__(universe, "_last_trace", memo)
    return memo[1]


def _frontier_point(universe: AssetUniverse, lower: np.ndarray, upper: np.ndarray,
                    crossing) -> np.ndarray:
    """Weights on the universe's corner trace at these bounds where ``crossing`` puts
    the optimum. Given a segment's r0, r1 and v0, crossing returns the gamma at
    which the problem's condition changes sign there, or inf where it holds on the
    whole segment; walking down from the max-return vertex, the first segment whose
    crossing lies at or above its lower end holds the optimum."""
    for lo, hi, a, b, r0, r1, v0 in _trace(universe, lower, upper):
        gamma = crossing(r0, r1, v0)
        if gamma >= lo:
            break
    gamma = min(max(gamma, lo), hi)
    return np.clip(a if gamma == math.inf else a + gamma * b, lower, upper)


def _certify(w: np.ndarray, gradient: np.ndarray, lower: np.ndarray,
             upper: np.ndarray) -> float:
    """The KKT residual |P(w + g) - w| of the final weights, P =
    ``project_box_simplex``, zero exactly at a KKT point; raises
    ConvergenceError above 1e-8 or at NaN."""
    gp = float(np.linalg.norm(project_box_simplex(w + gradient, lower, upper) - w))
    if not gp <= 1e-8:   # a NaN residual certifies nothing
        raise ConvergenceError("portfolio solver did not reach KKT tolerance",
                               {"gradient_projection_norm": gp})
    return gp


def min_cvar_portfolio(problem: PortfolioProblem, family: QualifiedFamily) -> PortfolioReport:
    """Weights minimizing the loss CVaR at the problem's level: the frontier
    point where sqrt(v) = zeta gamma, that is v0 = (zeta^2 - r1) gamma^2."""
    if _typed(problem, PortfolioProblem).objective != "cvar":
        raise ParameterError("problem does not carry a cvar objective")
    u = problem.universe
    eta, cov = u.expected_returns, u.covariance
    z = _typed(family, QualifiedFamily).zeta(problem.level)
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
    families, else ``level_root`` on the GEV zeta in the pair (alpha, eps), started
    from e S, S = F(-target) of the member, for eps in [smallest normal float, 1], and
    0.0 (an underflow) beyond.
    """
    if family.family != "gev":
        return bpoe(family._unit, target).value
    _, eps, z, _ = level_root(family.zeta, target, sys.float_info.min,
                              cantelli_level(target, 0.0, 1.0, family._unit.cdf(-target)))
    return 0.0 if eps == sys.float_info.min and z < target else eps


def min_bpoe_portfolio(problem: PortfolioProblem, family: QualifiedFamily,
                       report_families: tuple[QualifiedFamily, ...] | None = None,
                       ) -> PortfolioReport:
    """Weights minimizing bPOE of the loss at the problem's threshold.

    The reduced objective (generalized Sharpe ratio) is family-free, so the
    weights are optimal for every qualified family at once: the frontier point
    where v = gamma (r + x), that is v0 = gamma (r0 + x). Per-family bPOE
    values at those same weights go into ``bpoe_by_family``, each the tail
    mass from ``_invert_zeta``, so small values keep their relative precision.
    """
    if _typed(problem, PortfolioProblem).objective != "bpoe":
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
    try:   # one inversion per distinct family; the solved family is usually reported too
        families = dict.fromkeys((family, *report_families))
    except TypeError:   # not a sequence, or unhashable members
        raise ParameterError("report_families must be a sequence of QualifiedFamily") from None
    eps = {fam: _invert_zeta(_typed(fam, QualifiedFamily), ratio) for fam in families}
    by_family = {fam.label(): eps[fam] for fam in report_families}
    return PortfolioReport(u.names, w, ret, sd, "bpoe",
                           objective_value=eps[family], alpha_star=1.0 - eps[family],
                           bpoe_by_family=by_family, kkt_residual=gp)


def _weights(weights, universe: AssetUniverse) -> np.ndarray:
    """The weights as one finite float per asset, else ParameterError."""
    n = _typed(universe, AssetUniverse).size
    return _floats(weights, f"expected {n} weights, each a finite number, got {{}}", (n,))


def cvar_cross_evaluate(weights: np.ndarray, universe: AssetUniverse,
                        family: QualifiedFamily, alpha: float) -> float:
    """Loss CVaR of fixed weights under the given family at level alpha."""
    w = _weights(weights, universe)
    ret = float(w @ universe.expected_returns)
    sd = math.sqrt(float(w @ universe.covariance @ w))
    return -ret + sd * _typed(family, QualifiedFamily).zeta(alpha)


def markowitz_solve(universe: AssetUniverse, lam: float,
                    lower=0.0, upper=1.0) -> np.ndarray:
    """Maximize w.eta - (lam/2) w.S.w over the box-bounded simplex: the
    frontier point at gamma = 1 / lam; at lam = inf, minimal variance."""
    lam = _require(lam, "trade-off lambda must be >= 0, got {}", 0.0, math.inf)
    eta, cov = _typed(universe, AssetUniverse).expected_returns, universe.covariance
    lo, hi = _bounds(universe.size, lower, upper)
    gamma = 1.0 / lam if lam > 0.0 else math.inf
    w = _frontier_point(universe, lo, hi, lambda r0, r1, v0: gamma)
    # the gradient eta - lam S w over max(lam, 1): zero at the same KKT points, and
    # its rounding does not grow with lam
    _certify(w, min(gamma, 1.0) * eta - min(lam, 1.0) * (cov @ w), lo, hi)
    return w


def markowitz_equivalence_check(w_cvar: np.ndarray, universe: AssetUniverse,
                                lam: float, lower=0.0, upper=1.0,
                                tol: float = 5e-3) -> tuple[bool, float]:
    """Re-solve the mean-variance problem at lam and compare weight vectors.

    Returns (weights match within tol, max per-weight gap).
    """
    tol = _require(tol, "tolerance must be a number >= 0, got {}", 0.0, math.inf)
    gap = float(np.max(np.abs(_weights(w_cvar, universe)
                              - markowitz_solve(universe, lam, lower, upper))))
    return gap <= tol, gap


def efficient_frontier(universe: AssetUniverse, family: QualifiedFamily,
                       objective: str, grid: np.ndarray,
                       lower=0.0, upper=1.0) -> list[dict]:
    """Sweep the level (cvar) or threshold (bpoe) over ``grid``, a nonempty 1-D sequence of
    finite numbers, and record each optimum, every row its own validated and
    certified solve, all at the same bounds, so on the universe's one kept trace."""
    if not (isinstance(objective, str) and objective in ("cvar", "bpoe")):
        raise ParameterError(f"objective must be 'cvar' or 'bpoe', got {objective!r}")
    grid = _floats(grid, "grid must be a nonempty 1-D sequence of finite numbers, got {}", (-1,))
    lower, upper = _bounds(_typed(universe, AssetUniverse).size, lower, upper)
    key = "alpha" if objective == "cvar" else "threshold"
    rows = []
    for v in grid:
        if objective == "cvar":
            prob = PortfolioProblem(universe, "cvar", level=float(v), lower=lower, upper=upper)
            rep = min_cvar_portfolio(prob, family)
        else:
            prob = PortfolioProblem(universe, "bpoe", threshold=float(v), lower=lower, upper=upper)
            rep = min_bpoe_portfolio(prob, family, ())   # reads no other family
        row = {key: float(v), "objective_value": rep.objective_value,
               "return": rep.expected_return, "stdev": rep.stdev}
        row.update({n: float(w) for n, w in zip(rep.names, rep.weights)})
        rows.append(row)
    return rows
