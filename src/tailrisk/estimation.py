"""Density estimation by matching superquantiles (MOS and LS-MOS).

The fitting criterion replaces moments with superquantiles at chosen
probability levels: solve  superquantile(theta, alpha_i) = target_i  as an
exact system when the level count equals the parameter count (MOS), or as
a weighted least-squares problem otherwise (LS-MOS). Conservative tail
fitting shifts the model level to alpha_i - eps_i against the same target,
compensating for the small-sample downward bias of empirical tail averages.

Weibull method-of-moments and maximum-likelihood reference fits are included
for benchmarking the superquantile fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._optim import finite_diff_grad, nelder_mead
from .distributions import Distribution, make
from .errors import ConvergenceError, DomainError, ParameterError
from .tail_metrics import superquantile

_BIG = 1e100


def empirical_superquantile(sample, alpha: float) -> float:
    """Superquantile of the empirical distribution with equal atoms.

    Exact tail average of the discrete law: with ascending order statistics
    and k = ceil(n alpha),

        (1/(1-alpha)) * [ (k/n - alpha) x_(k) + (1/n) sum_{i>k} x_(i) ].

    alpha = 0 gives the sample mean.
    """
    x = np.asarray(sample, dtype=float)
    if x.size == 0 or np.isnan(x).any():
        raise ParameterError("empirical superquantile needs a nonempty sample without NaN")
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"level must lie in [0, 1), got {alpha}")
    if alpha == 0.0:
        return float(x.mean())
    xs = np.sort(x)
    n = x.size
    na = n * alpha
    k = int(math.ceil(na - 1e-12))   # snap k = n*alpha when integral
    head = (k / n - alpha) * xs[k - 1] if k >= 1 else 0.0
    return float((head + xs[k:].sum() / n) / (1.0 - alpha))


@dataclass(frozen=True)
class FitProblem:
    """Targets and configuration for a superquantile fit.

    Exactly one of ``sample`` (raw observations) or ``targets`` (explicit
    superquantile values) must be given; targets pair with ``levels``.
    ``shifts`` are the conservative-fitting offsets eps_i with
    0 <= eps_i <= alpha_i.
    """

    family: str
    levels: tuple[float, ...]
    weights: tuple[float, ...] = ()
    shifts: tuple[float, ...] = ()
    targets: tuple[float, ...] | None = None
    sample: tuple[float, ...] | None = None

    def __post_init__(self):
        levels = tuple(float(a) for a in self.levels)
        if not levels:
            raise ParameterError("at least one probability level is required")
        if any(not 0.0 <= a < 1.0 for a in levels):
            raise ParameterError(f"levels must lie in [0, 1), got {levels}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ParameterError(f"levels must be strictly increasing, got {levels}")
        weights = tuple(float(c) for c in self.weights) or (1.0,) * len(levels)
        if len(weights) != len(levels) or any(c <= 0 for c in weights):
            raise ParameterError("weights must be positive, one per level")
        shifts = tuple(float(e) for e in self.shifts) or (0.0,) * len(levels)
        if len(shifts) != len(levels):
            raise ParameterError("one shift per level required")
        if any(not 0.0 <= e <= a for e, a in zip(shifts, levels)):
            raise ParameterError("shifts must satisfy 0 <= eps_i <= alpha_i")
        if (self.targets is None) == (self.sample is None):
            raise ParameterError("provide exactly one of targets or sample")
        if self.targets is not None and len(self.targets) != len(levels):
            raise ParameterError("one target per level required")
        if self.sample is not None:
            sample = np.asarray(self.sample, dtype=float)
            if sample.size == 0 or np.isnan(sample).any():
                raise ParameterError("sample must be nonempty and without NaN")
            object.__setattr__(self, "sample", tuple(sample.tolist()))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "shifts", shifts)
        if self.targets is not None:
            object.__setattr__(self, "targets", tuple(float(t) for t in self.targets))

    def resolved_targets(self) -> tuple[float, ...]:
        if self.targets is not None:
            return self.targets
        return tuple(empirical_superquantile(self.sample, a) for a in self.levels)

    def fit_levels(self) -> tuple[float, ...]:
        return tuple(a - e for a, e in zip(self.levels, self.shifts))


@dataclass(frozen=True)
class FitResult:
    family: str
    params: dict[str, float]
    residuals: tuple[float, ...]
    objective: float
    iterations: int
    gradient_norm: float
    converged: bool

    def distribution(self) -> Distribution:
        return make(self.family, **self.params)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "residuals": list(self.residuals),
            "objective": self.objective,
            "diagnostics": {
                "iterations": self.iterations,
                "gradient_norm": self.gradient_norm,
                "converged": self.converged,
            },
        }


# family -> ordered (name, transform); "log" maps the positive axis to the
# real line, "shift-log(c)" maps (c, inf)
_PARAMETRIZATIONS: dict[str, tuple[tuple[str, str], ...]] = {
    "exponential": (("lam", "log"),),
    "pareto": (("a", "shift-log:1"), ("xm", "log")),
    "gpd": (("mu", "id"), ("s", "log"), ("xi", "upper-log:1")),
    "laplace": (("mu", "id"), ("b", "log")),
    "normal": (("mu", "id"), ("sigma", "log")),
    "lognormal": (("mu", "id"), ("s", "log")),
    "logistic": (("mu", "id"), ("s", "log")),
    "student-t": (("nu", "shift-log:1"), ("s", "log"), ("mu", "id")),
    "weibull": (("lam", "log"), ("k", "log")),
    "loglogistic": (("a", "log"), ("b", "shift-log:1")),
    "gev": (("mu", "id"), ("s", "log"), ("xi", "upper-log:1")),
}


def _to_constrained(kind: str, theta: float) -> float:
    if kind == "id":
        return theta
    if kind == "log":
        return math.exp(theta)
    if kind.startswith("shift-log:"):
        return float(kind.split(":")[1]) + math.exp(theta)
    if kind.startswith("upper-log:"):
        return float(kind.split(":")[1]) - math.exp(theta)
    raise ValueError(kind)


def _to_unconstrained(kind: str, value: float) -> float:
    if kind == "id":
        return value
    if kind == "log":
        return math.log(value)
    if kind.startswith("shift-log:"):
        return math.log(value - float(kind.split(":")[1]))
    if kind.startswith("upper-log:"):
        return math.log(float(kind.split(":")[1]) - value)
    raise ValueError(kind)


def parameter_names(family: str) -> tuple[str, ...]:
    key = family.lower().replace("_", "-")
    if key not in _PARAMETRIZATIONS:
        raise ParameterError(f"no fit parameterization for family {family!r}")
    return tuple(name for name, _ in _PARAMETRIZATIONS[key])


def _initial_params(family: str, levels, targets) -> dict[str, float]:
    t_min = min(targets)
    t_max = max(targets)
    spread = max(t_max - t_min, 0.05 * (1.0 + abs(t_min)))
    loc = t_min - spread
    if family == "exponential":
        return {"lam": (1.0 - math.log1p(-levels[0])) / max(targets[0], 1e-12)}
    if family == "pareto":
        return {"a": 2.0, "xm": max(t_min / 2.0, 1e-6)}
    if family == "gpd":
        return {"mu": loc, "s": spread, "xi": 0.1}
    if family == "laplace":
        return {"mu": loc, "b": spread}
    if family == "normal":
        return {"mu": loc, "sigma": spread}
    if family == "lognormal":
        return {"mu": math.log(max(t_min, 1e-6)), "s": 0.7}
    if family == "logistic":
        return {"mu": loc, "s": spread}
    if family == "student-t":
        return {"nu": 5.0, "s": spread, "mu": loc}
    if family == "weibull":
        return {"lam": max(0.5 * t_min, 1e-6), "k": 1.2}
    if family == "loglogistic":
        return {"a": max(t_min / 2.0, 1e-6), "b": 3.0}
    return {"mu": loc, "s": spread, "xi": 0.1}   # gev


def _objective_factory(family, fit_levels, targets, weights):
    spec = _PARAMETRIZATIONS[family]

    def params_of(theta: np.ndarray) -> dict[str, float]:
        return {name: _to_constrained(kind, float(v))
                for (name, kind), v in zip(spec, theta)}

    def residuals_of(theta: np.ndarray) -> np.ndarray | None:
        try:
            d = make(family, **params_of(theta))
        except (ParameterError, OverflowError, ValueError):
            return None
        out = np.empty(len(fit_levels))
        for i, (a, t) in enumerate(zip(fit_levels, targets)):
            try:
                q = superquantile(d, a)
            except (DomainError, OverflowError, ValueError):
                return None
            if not math.isfinite(q):
                return None
            out[i] = q - t
        return out

    w = np.asarray(weights, dtype=float)

    def objective(theta: np.ndarray) -> float:
        r = residuals_of(theta)
        if r is None:
            return _BIG * (1.0 + float(np.sum(theta ** 2)))
        return float(np.sum(w * r ** 2))

    return spec, params_of, residuals_of, objective


def _gauss_newton_polish(theta, residuals_of, weights, rounds: int = 40):
    """Damped Gauss-Newton with a forward-difference Jacobian."""
    w = np.asarray(weights, dtype=float)
    r = residuals_of(theta)
    if r is None:
        return theta
    obj = float(np.sum(w * r ** 2))
    lam = 1e-8
    for _ in range(rounds):
        jac = np.zeros((r.size, theta.size))
        for j in range(theta.size):
            h = 1e-7 * (1.0 + abs(theta[j]))
            tp = theta.copy()
            tp[j] += h
            rp = residuals_of(tp)
            if rp is None:
                return theta
            jac[:, j] = (rp - r) / h
        grad = jac.T @ (w * r)
        hess = jac.T @ (w[:, None] * jac)
        try:
            step = np.linalg.solve(hess + lam * np.eye(theta.size), grad)
        except np.linalg.LinAlgError:
            break
        theta_try = theta - step
        r_try = residuals_of(theta_try)
        if r_try is not None and float(np.sum(w * r_try ** 2)) < obj:
            theta, r = theta_try, r_try
            obj = float(np.sum(w * r_try ** 2))
            lam = max(lam / 4.0, 1e-12)
            if float(np.max(np.abs(step))) < 1e-14 * (1.0 + float(np.max(np.abs(theta)))):
                break
        else:
            lam *= 10.0
            if lam > 1e8:
                break
    return theta


def ls_mos_fit(problem: FitProblem) -> FitResult:
    """Weighted least-squares superquantile matching.

    Nelder-Mead in a transformed unconstrained space, restarted, then a
    damped Gauss-Newton polish; convergence means the finite-difference
    gradient norm of the objective is <= 1e-7.
    """
    family = problem.family.lower().replace("_", "-")
    if family not in _PARAMETRIZATIONS:
        raise ParameterError(f"no fit parameterization for family {problem.family!r}")
    targets = problem.resolved_targets()
    fit_levels = problem.fit_levels()
    spec, params_of, residuals_of, objective = _objective_factory(
        family, fit_levels, targets, problem.weights)
    init = _initial_params(family, fit_levels, targets)
    theta = np.array([_to_unconstrained(kind, init[name]) for name, kind in spec])
    total_iters = 0
    for attempt in range(3):
        theta, value, iters = nelder_mead(objective, theta,
                                          scale=0.25 if attempt == 0 else 0.05,
                                          xatol=1e-13, fatol=1e-18)
        total_iters += iters
        if value <= 1e-20:
            break
    theta = _gauss_newton_polish(theta, residuals_of, problem.weights)
    value = objective(theta)
    if value >= _BIG:
        raise ConvergenceError(
            "LS-MOS optimizer failed to find a feasible parameter vector",
            {"family": family, "levels": fit_levels, "targets": targets})
    grad_norm = float(np.linalg.norm(finite_diff_grad(objective, theta)))
    res = residuals_of(theta)
    return FitResult(
        family=family,
        params=params_of(theta),
        residuals=tuple(float(v) for v in res),
        objective=value,
        iterations=total_iters,
        gradient_norm=grad_norm,
        converged=grad_norm <= 1e-7,
    )


def mos_solve(problem: FitProblem) -> FitResult:
    """Exact superquantile matching: as many levels as free parameters.

    Runs the least-squares machinery and gates on the residual infinity
    norm; no solution within 1e-8 raises with the final residuals.
    """
    family = problem.family.lower().replace("_", "-")
    n_params = len(parameter_names(family))
    if len(problem.levels) != n_params:
        raise ParameterError(
            f"MOS needs exactly {n_params} levels for {family}, got {len(problem.levels)}")
    result = ls_mos_fit(problem)
    worst = max(abs(r) for r in result.residuals)
    if worst > 1e-8:
        raise ConvergenceError(
            "superquantile system has no solution at the requested accuracy",
            {"residuals": result.residuals, "params": result.params})
    return result


# --- Weibull reference fits ------------------------------------------------

def _weibull_mm(x: np.ndarray) -> dict[str, float]:
    m = float(x.mean())
    v = float(x.var())
    if v <= 0.0 or m <= 0.0:
        raise ConvergenceError("method of moments needs positive variance",
                               {"mean": m, "variance": v})
    ratio = v / (m * m)

    # gamma(1 + 2/k) / gamma(1 + 1/k)^2 = 1 + ratio, solved in log space so
    # tiny shapes (heavy tails) cannot overflow
    def gap(k: float) -> float:
        return (math.lgamma(1.0 + 2.0 / k) - 2.0 * math.lgamma(1.0 + 1.0 / k)) \
            - math.log1p(ratio)

    lo, hi = 1e-2, 1.0
    while gap(hi) > 0.0 and hi < 1e4:
        lo = hi
        hi *= 2.0
    if gap(lo) < 0.0 or gap(hi) > 0.0:
        raise ConvergenceError("method of moments could not bracket the shape",
                               {"ratio": ratio})
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * (1.0 + hi):
            break
    k = 0.5 * (lo + hi)
    return {"lam": m / math.gamma(1.0 + 1.0 / k), "k": k}


def _weibull_ml(x: np.ndarray) -> dict[str, float]:
    if np.any(x <= 0.0):
        raise ConvergenceError("maximum likelihood needs a strictly positive sample", {})
    ln_x = np.log(x)
    mean_ln = float(ln_x.mean())

    def score(k: float) -> float:
        xk = x ** k
        return float((xk * ln_x).sum() / xk.sum() - 1.0 / k - mean_ln)

    lo, hi = 1e-3, 1.0
    while score(hi) < 0.0 and hi < 1e6:
        lo = hi
        hi *= 2.0
    if hi >= 1e6:
        # constant (zero-spread) samples push the shape to infinity
        raise ConvergenceError("likelihood score has no root; shape diverges",
                               {"sample_spread": float(x.max() - x.min())})
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if score(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * (1.0 + hi):
            break
    k = 0.5 * (lo + hi)
    lam = float(np.mean(x ** k)) ** (1.0 / k)
    return {"lam": lam, "k": k}


def reference_fits(sample) -> dict[str, dict[str, float]]:
    """Weibull baselines: method of moments and maximum likelihood."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ParameterError("reference fits need a nonempty sample")
    return {"mm": _weibull_mm(x), "ml": _weibull_ml(x)}
