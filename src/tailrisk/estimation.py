"""Density estimation by matching superquantiles (MOS and LS-MOS).

The fitting criterion replaces moments with superquantiles at chosen
probability levels: solve  superquantile(theta, alpha_i) = target_i  as an
exact system when the level count equals the parameter count (MOS), or as
a weighted least-squares problem otherwise (LS-MOS). Every family is a
scale or location-scale family with at most one shape, so both are solved
by variable projection: (location, scale) in closed form, the shape by
Brent's method (``_optim.brent_min``). Conservative tail fitting shifts
the model level to alpha_i - eps_i against the same target.

Weibull method-of-moments and maximum-likelihood reference fits are included
for benchmarking the superquantile fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from ._optim import brent_min
from .distributions import FAMILIES, Distribution, _ln_gamma_gap, make
from .errors import ConvergenceError, DomainError, ParameterError
from .tail_metrics import superquantile


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
    """A fit and how the shape search went.

    ``iterations`` counts profile-objective evaluations; ``gradient_norm`` is
    the central-difference slope of the profile in the shape's search
    coordinate (0 for shape-free families), the full gradient since the
    (location, scale) part vanishes by the normal equations; ``converged``
    means gradient_norm <= 1e-7.
    """

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


class _Family(NamedTuple):
    """One family as sq(alpha; mu, s, theta) = mu + s sq0(alpha; theta), mu = 0 if unlocated.

    ``params(mu, s, theta)`` gives the public parameters in the order of the
    distribution's ``_fields`` (``params(0, 1, theta)`` is the unit member).
    ``shape`` is None or (c, sign, e_lo, e_hi): theta = c + sign e^t with
    e^t in [e_lo, e_hi].
    """

    located: bool
    shape: tuple[float, float, float, float] | None
    params: Callable[[float, float, float | None], tuple[float, ...]]


_FAMILIES: dict[str, _Family] = {
    "exponential": _Family(False, None, lambda mu, s, th: (1.0 / s,)),
    "pareto": _Family(False, (1.0, 1.0, 1e-2, 1e2), lambda mu, s, th: (th, s)),
    "gpd": _Family(True, (1.0, -1.0, 1e-2, 10.0), lambda mu, s, th: (mu, s, th)),
    "laplace": _Family(True, None, lambda mu, s, th: (mu, s)),
    "normal": _Family(True, None, lambda mu, s, th: (mu, s)),
    "lognormal": _Family(False, (0.0, 1.0, 1e-2, 10.0), lambda mu, s, th: (math.log(s), th)),
    "logistic": _Family(True, None, lambda mu, s, th: (mu, s)),
    "student-t": _Family(True, (1.0, 1.0, 1e-2, 1e3), lambda mu, s, th: (th, s, mu)),
    "weibull": _Family(False, (0.0, 1.0, 0.02, 50.0), lambda mu, s, th: (s, th)),
    "loglogistic": _Family(False, (1.0, 1.0, 1e-2, 1e2), lambda mu, s, th: (s, th)),
    "gev": _Family(True, (1.0, -1.0, 1e-2, 10.0), lambda mu, s, th: (mu, s, th)),
}
_SCAN = 25


def _family(name: str) -> tuple[str, _Family, tuple[str, ...]]:
    """The family key, its fit parameterization and its parameter names."""
    key = name.lower().replace("_", "-")
    if key not in _FAMILIES:
        raise ParameterError(f"no fit parameterization for family {name!r}")
    return key, _FAMILIES[key], FAMILIES[key]._fields


def parameter_names(family: str) -> tuple[str, ...]:
    return _family(family)[2]


def _slope(profile, t: float) -> tuple[float, float]:
    """Central-difference slope and curvature of the profile, step 1e-6 (1 + |t|)."""
    h = 1e-6 * (1.0 + abs(t))
    f_minus, f_0, f_plus = (profile(u)[0] for u in (t - h, t, t + h))
    return (f_plus - f_minus) / (2.0 * h), (f_plus - 2.0 * f_0 + f_minus) / (h * h)


def ls_mos_fit(problem: FitProblem) -> FitResult:
    """Weighted least-squares superquantile matching by variable projection.

    For each shape theta the weighted normal equations give (mu, s) in closed
    form: 1x1 for the scale families, 2x2 with a location. theta is searched
    at 25 even steps of its coordinate t, then by Brent's method
    (``_optim.brent_min``) between the best step's two neighbours,
    its first parabola through the three scanned values, and one Newton step
    on the profile's slope. Each t is evaluated once: the search's last point
    and the last slope's centre are reused. Shape-free families (Exponential,
    Normal, Laplace, Logistic) need no search.

    Shape ranges, each inside the domain where superquantiles are finite:
    Pareto a and LogLogistic b in 1 + [1e-2, 1e2]; Student-t nu in
    1 + [1e-2, 1e3]; GPD and GEV xi in 1 - [1e-2, 10], i.e. [-9, 0.99];
    Weibull k in [0.02, 50]; LogNormal s in [1e-2, 10].

    Normal is the nu -> inf member of Student-t: when a Student-t scan is
    best at its upper nu end, the Normal fit of the same problem is returned
    if its objective is no larger, so ``FitResult.family`` is then
    ``"normal"``.

    Raises ParameterError with fewer levels than free parameters, and
    ConvergenceError (diagnostics with ``residuals``) when the best scanned
    shape is an end of its range or the fitted scale is not positive, i.e.
    s max|sq0| <= 1e-12 max|target| (zero-spread targets).
    """
    family, fam, names = _family(problem.family)
    if len(problem.levels) < len(names):
        raise ParameterError(f"{family} has {len(names)} free parameters but only "
                             f"{len(problem.levels)} level(s)")
    targets, levels, weights = problem.resolved_targets(), problem.fit_levels(), problem.weights
    total = sum(weights)
    evaluations = 0
    seen: dict[float, tuple] = {}

    def profile(t: float):
        # (objective, mu, s, theta, residuals, sq0 values); s < 0 is held at 0
        nonlocal evaluations
        if t in seen:
            return seen[t]
        evaluations += 1
        theta = fam.shape[0] + fam.shape[1] * math.exp(t) if fam.shape else None
        unit = make(family, **dict(zip(names, fam.params(0.0, 1.0, theta))))
        z = [superquantile(unit, a) for a in levels]
        if not all(map(math.isfinite, z)):
            return math.inf, 0.0, 0.0, theta, (), ()
        # scale families fit s z = t through the origin
        z_bar = sum(w * v for w, v in zip(weights, z)) / total if fam.located else 0.0
        t_bar = sum(w * y for w, y in zip(weights, targets)) / total if fam.located else 0.0
        szz = sum(w * (v - z_bar) ** 2 for w, v in zip(weights, z))
        szt = sum(w * (v - z_bar) * (y - t_bar) for w, v, y in zip(weights, z, targets))
        s = max(szt / szz, 0.0) if szz > 0.0 else 0.0
        mu = t_bar - s * z_bar
        residuals = tuple(mu + s * v - y for v, y in zip(z, targets))
        value = sum(w * r * r for w, r in zip(weights, residuals))
        seen[t] = value, mu, s, theta, residuals, z
        return seen[t]

    t, gradient_norm, at_edge = 0.0, 0.0, False
    if fam.shape is not None:
        lo, hi = map(math.log, fam.shape[2:])
        cell = (hi - lo) / (_SCAN - 1)
        scan = [profile(lo + i * cell)[0] for i in range(_SCAN)]
        j = min(range(_SCAN), key=scan.__getitem__)
        t, at_edge = lo + j * cell, j in (0, _SCAN - 1)
        if not at_edge:
            t = brent_min(lambda u: profile(u)[0], t - cell, t + cell, xtol=1e-7,
                          _seed=(t, scan[j], scan[j - 1], scan[j + 1]))
            # the search stops where objective differences sink into
            # rounding; one Newton step on the central-difference slope goes on
            slope, curvature = _slope(profile, t)
            if curvature > abs(slope) / cell:
                t -= slope / curvature
            gradient_norm = abs(_slope(profile, t)[0])
    value, mu, s, theta, residuals, z = profile(t)
    if family == "student-t" and at_edge and j == _SCAN - 1:
        # the optimum is the Normal limit nu -> inf, which the nu range cannot reach
        normal = ls_mos_fit(replace(problem, family="normal"))
        if normal.objective <= value:
            return replace(normal, iterations=normal.iterations + evaluations)
    if at_edge or not s * max(map(abs, z), default=0.0) > 1e-12 * max(map(abs, targets)):
        raise ConvergenceError(
            "no superquantile fit with a positive scale and an interior shape",
            {"family": family, "shape": theta, "scale": s, "residuals": residuals,
             "at_range_end": at_edge})
    return FitResult(
        family=family,
        params=dict(zip(names, fam.params(mu, s, theta))),
        residuals=residuals,
        objective=value,
        iterations=evaluations,
        gradient_norm=gradient_norm,
        converged=gradient_norm <= 1e-7,
    )


def mos_solve(problem: FitProblem) -> FitResult:
    """Exact superquantile matching: as many levels as free parameters.

    Runs ``ls_mos_fit`` and gates on the residual infinity norm; no solution
    within 1e-8 raises with the final residuals.
    """
    family, _, names = _family(problem.family)
    if len(problem.levels) != len(names):
        raise ParameterError(
            f"MOS needs exactly {len(names)} levels for {family}, got {len(problem.levels)}")
    result = ls_mos_fit(problem)
    worst = max(abs(r) for r in result.residuals)
    if worst > 1e-8:
        raise ConvergenceError(
            "superquantile system has no solution at the requested accuracy",
            {"residuals": result.residuals, "params": result.params})
    return result


# --- Weibull reference fits ------------------------------------------------

def _shape_root(f: Callable[[float], float], lo: float, cap: float,
                message: str, diagnostics: dict) -> float:
    """The shape k where f, positive below and negative above, changes sign: [lo, 1]
    doubles its upper end up to ``cap`` to bracket it, then bisection runs to 1e-13
    relative. An unbracketed root raises ``ConvergenceError(message, diagnostics)``."""
    hi = 1.0
    while f(hi) > 0.0 and hi < cap:
        lo = hi
        hi *= 2.0
    if f(lo) < 0.0 or f(hi) > 0.0:
        raise ConvergenceError(message, diagnostics)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * (1.0 + hi):
            break
    return 0.5 * (lo + hi)


def _weibull_mm(x: np.ndarray) -> dict[str, float]:
    m = float(x.mean())
    v = float(x.var())
    if v <= 0.0 or m <= 0.0:
        raise ConvergenceError("method of moments needs positive variance",
                               {"mean": m, "variance": v})
    ratio = v / (m * m)

    # gamma(1 + 2/k) / gamma(1 + 1/k)^2 = 1 + ratio, solved in log space so
    # tiny shapes (heavy tails) cannot overflow, and large ones do not cancel
    def gap(k: float) -> float:
        x = -1.0 / k
        return x * x * _ln_gamma_gap(x) - math.log1p(ratio)

    k = _shape_root(gap, 1e-2, 1e4, "method of moments could not bracket the shape",
                    {"ratio": ratio})
    return {"lam": m / math.gamma(1.0 + 1.0 / k), "k": k}


def _weibull_ml(x: np.ndarray) -> dict[str, float]:
    if np.any(x <= 0.0):
        raise ConvergenceError("maximum likelihood needs a strictly positive sample", {})
    ln_x = np.log(x)
    mean_ln = float(ln_x.mean())

    def minus_score(k: float) -> float:
        xk = x ** k
        return -float((xk * ln_x).sum() / xk.sum() - 1.0 / k - mean_ln)

    # constant (zero-spread) samples push the shape to infinity
    k = _shape_root(minus_score, 1e-3, 1e6, "likelihood score has no root; shape diverges",
                    {"sample_spread": float(x.max() - x.min())})
    lam = float(np.mean(x ** k)) ** (1.0 / k)
    return {"lam": lam, "k": k}


def reference_fits(sample) -> dict[str, dict[str, float]]:
    """Weibull baselines: method of moments and maximum likelihood."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ParameterError("reference fits need a nonempty sample")
    return {"mm": _weibull_mm(x), "ml": _weibull_ml(x)}
