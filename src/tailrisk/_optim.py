"""Small deterministic solvers shared by the metric engines and fitters.

The scalar solvers are pure Python. The array solvers import numpy when they
run, so the scalar metric engines load this module without numpy."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_TINY = math.ulp(0.0)   # the smallest positive float


def golden_section_min(f: Callable[[float], float], lo: float, hi: float,
                       xtol: float = 1e-10, max_iter: int = 200) -> float:
    """Golden-section search for the minimizer of a unimodal f on [lo, hi]."""
    x1 = hi - _PHI * (hi - lo)
    x2 = lo + _PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if hi - lo <= xtol * (1.0 + abs(lo) + abs(hi)):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _PHI * (hi - lo)
            f2 = f(x2)
    return x1 if f1 <= f2 else x2


def cantelli_level(x: float, mean: float, variance: float) -> float:
    """Start for ``level_root``: t^2 / (1 + t^2), t = (x - mean) / sd, or 0.5 if sd = inf.

    Since sq(alpha) <= mean + sd sqrt(alpha / (1 - alpha)) for every
    finite-variance law, this level is at or below the root of sq(alpha) = x.
    """
    if not math.isfinite(variance):
        return 0.5
    t = (x - mean) / math.sqrt(variance)
    return t * t / (1.0 + t * t)


def level_root(sq: Callable[[float], float], q: Callable[[float], float], x: float,
               lo: float, hi: float, start: float) -> float:
    """Level alpha in [lo, hi] where the superquantile sq(alpha) equals x; q is its quantile.

    Safeguarded Newton in u = log(1 - alpha), where d sq/du = q - sq: a step
    leaving the bracket, or a start outside (lo, hi), becomes bisection in u.
    While the bracket still reaches u = 0 (lo = 0, no level yet below the
    root), sq - sq(0) grows like a power of alpha, which a Newton step in u
    overshoots and bisection in u reaches only a halving at a time; there the
    step is Newton on log(sq - sq(lo)) in t = log(-u), where
    d sq/dt = (q - sq) u, and it stops at the smallest positive level.
    Returns lo or hi when x lies outside [sq(lo), sq(hi)]. Stops at a step or
    bracket of 1e-13 min(|u|, 1) in u, i.e. relative precision 1e-13 in
    1 - alpha, and in alpha too where alpha is small (u near 0).
    """
    s_lo = sq(lo)
    if x <= s_lo:
        return lo
    if x >= sq(hi):
        return hi
    u_lo, u_hi = math.log1p(-hi), math.log1p(-lo)   # sq at u_lo > x > sq at u_hi
    u = math.log1p(-start) if lo < start < hi else 0.5 * (u_lo + u_hi)
    for _ in range(100):
        alpha = -math.expm1(u)
        s = sq(alpha)
        if s > x:
            u_lo = u
        else:
            u_hi = u
        if u_hi == 0.0:   # then s > x, so the step moves u towards 0
            slope = (q(alpha) - s) * u / (s - s_lo)
            step = math.log((s - s_lo) / (x - s_lo)) / slope if 0.0 < slope < math.inf \
                else math.nan
            new = min(u * math.exp(-step), -_TINY)
        else:
            slope = s - q(alpha)
            new = u + (s - x) / slope if 0.0 < slope < math.inf else math.nan
        if not u_lo <= new <= u_hi:
            new = 0.5 * (u_lo + u_hi)
        tol = 1e-13 * min(1.0, abs(new))
        if abs(new - u) <= tol or u_hi - u_lo <= tol:
            return -math.expm1(new)
        u = new
    return -math.expm1(u)


def nelder_mead(f: Callable[[np.ndarray], float], x0: np.ndarray,
                scale: float = 0.25, xatol: float = 1e-12, fatol: float = 1e-16,
                max_iter: int = 4000) -> tuple[np.ndarray, float, int]:
    """Plain Nelder-Mead simplex descent. Returns (x, f(x), iterations).

    Unused by the package; the benchmark's tracer binds it by name."""
    import numpy as np
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    simplex = [x0.copy()]
    for i in range(n):
        v = x0.copy()
        v[i] += scale * (1.0 + abs(v[i]))
        simplex.append(v)
    values = [f(v) for v in simplex]
    it = 0
    while it < max_iter:
        it += 1
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        spread = max(np.max(np.abs(v - simplex[0])) for v in simplex[1:])
        if spread <= xatol * (1.0 + np.max(np.abs(simplex[0]))) \
                and abs(values[-1] - values[0]) <= fatol * (1.0 + abs(values[0])):
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        refl = centroid + (centroid - worst)
        f_refl = f(refl)
        if f_refl < values[0]:
            expand = centroid + 2.0 * (centroid - worst)
            f_exp = f(expand)
            if f_exp < f_refl:
                simplex[-1], values[-1] = expand, f_exp
            else:
                simplex[-1], values[-1] = refl, f_refl
        elif f_refl < values[-2]:
            simplex[-1], values[-1] = refl, f_refl
        else:
            contr = centroid + 0.5 * (worst - centroid)
            f_con = f(contr)
            if f_con < values[-1]:
                simplex[-1], values[-1] = contr, f_con
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])
    return simplex[0].copy(), values[0], it


def project_box_simplex(v: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w : sum(w) = 1, lower <= w <= upper}.

    The projection is clip(v - tau, lower, upper) where tau solves the
    monotone piecewise-linear equation sum(clip(v - tau)) = 1; tau is
    localized by bisection and then solved exactly on the identified
    active set.
    """
    import numpy as np
    v = np.asarray(v, dtype=float)
    # the clipped sum g(tau) is piecewise linear and nonincreasing, spanning
    # [sum(lower), sum(upper)]; budgets outside that range (validation slack)
    # clamp to the nearest bound vector
    if upper.sum() <= 1.0:
        return upper.copy()
    if lower.sum() >= 1.0:
        return lower.copy()
    bps = np.sort(np.concatenate([v - upper, v - lower]))
    gs = np.clip(v[None, :] - bps[:, None], lower, upper).sum(axis=1)
    j = int(np.searchsorted(-gs, -1.0, side="left"))   # first g(bps[j]) <= 1
    if j <= 0:
        tau = bps[0]
    elif j >= bps.size:
        tau = bps[-1]
    else:
        # exact solve on the bracketing segment's active set
        mid = 0.5 * (bps[j - 1] + bps[j])
        w_mid = v - mid
        free = (w_mid > lower) & (w_mid < upper)
        if free.any():
            residual = 1.0 - lower[w_mid <= lower].sum() - upper[w_mid >= upper].sum()
            tau = (v[free].sum() - residual) / free.sum()
        else:
            tau = mid
    return np.clip(v - tau, lower, upper)


_BOUND_TOL = 1e-10   # a coordinate this close to a bound counts as on it


def _face(w: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> bytes:
    """The face of the box-bounded simplex that w lies on, as a hashable key."""
    return (w <= lower + _BOUND_TOL).tobytes() + (w >= upper - _BOUND_TOL).tobytes()


def _reduced_newton_polish(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    hessian: Callable[[np.ndarray], np.ndarray],
    w: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_iter: int = 30,
) -> np.ndarray:
    """Newton ascent on the face of the box-bounded simplex that w lies on.

    The free coordinates (more than 1e-10 inside their bounds) move in the
    null space of the budget: with Z adding y to all free coordinates but the
    first and taking sum(y) from the first, each step solves
    (Z^T H Z) y = -Z^T g with the analytic Hessian H. On the right face this
    converges quadratically, to a stationarity residual of about 1e-14.
    The polish stops, keeping its last accepted point, at the first full step
    that leaves the box (changing the active set is projected gradient's
    job) or that loses more than 1e-12 of objective.
    """
    import numpy as np
    free = (w > lower + _BOUND_TOL) & (w < upper - _BOUND_TOL)
    idx = np.flatnonzero(free)
    if idx.size < 2:
        return w
    first, rest = idx[0], idx[1:]
    f_best = objective(w)
    for _ in range(max_iter):
        g = gradient(w)
        g_r = g[rest] - g[first]
        if np.max(np.abs(g_r)) < 1e-13:
            break
        h = hessian(w)
        h_1r = h[first, rest]
        hess = h[np.ix_(rest, rest)] - h_1r[:, None] - h_1r[None, :] + h[first, first]
        try:
            y = np.linalg.solve(hess, -g_r)
        except np.linalg.LinAlgError:
            break
        w_try = w.copy()
        w_try[first] -= y.sum()
        w_try[rest] += y
        if np.any(w_try < lower - 1e-15) or np.any(w_try > upper + 1e-15):
            break
        f_try = objective(w_try)
        if not f_try >= f_best - 1e-12:
            break
        w, f_best = w_try, max(f_best, f_try)
    return np.clip(w, lower, upper)


def _gradient_projection_norm(gradient, w, lower, upper) -> float:
    """|P(w + g) - w|, zero exactly at a KKT point of the box-bounded simplex."""
    import numpy as np
    return float(np.linalg.norm(project_box_simplex(w + gradient(w), lower, upper) - w))


def projected_gradient_max(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    hessian: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    grad_tol: float = 1e-9,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, float, float]:
    """Maximize a smooth objective over the box-bounded simplex.

    Projected gradient ascent (backtracking line search, step growth) finds
    the active face; Newton finishes on it. Whenever two successive iterates
    lie on the same face, ``_reduced_newton_polish`` runs there with the
    analytic ``hessian``; if the polished point's gradient-projection norm is
    at most grad_tol it is the answer, otherwise the ascent continues from
    the better of the two points. No face is polished twice. When the ascent
    itself converges or stalls, one last polish runs on its final face.
    Returns (w, objective value, final gradient-projection norm).
    """
    import numpy as np
    w = project_box_simplex(np.asarray(start, dtype=float), lower, upper)
    f_w = objective(w)
    step = 1.0
    face = _face(w, lower, upper)
    polished = set()
    for _ in range(max_iter):
        g = gradient(w)
        probe = project_box_simplex(w + g, lower, upper)
        if float(np.linalg.norm(probe - w)) <= grad_tol:
            break
        moved = False
        stalled = False
        for _ in range(60):
            cand = project_box_simplex(w + step * g, lower, upper)
            f_cand = objective(cand)
            delta = cand - w
            if f_cand >= f_w + 1e-4 * float(g @ delta) and f_cand > f_w - 1e-18:
                stalled = float(np.linalg.norm(delta)) <= 1e-16 * (1.0 + float(np.linalg.norm(w)))
                w, f_w = cand, f_cand
                step *= 1.5
                moved = True
                break
            step *= 0.5
            if step < 1e-18:
                break
        if not moved or stalled:
            break
        previous, face = face, _face(w, lower, upper)
        if face == previous and face not in polished:
            polished.add(face)
            w_n = _reduced_newton_polish(objective, gradient, hessian, w, lower, upper)
            f_n = objective(w_n)
            gp_n = _gradient_projection_norm(gradient, w_n, lower, upper)
            if gp_n <= grad_tol:
                return w_n, f_n, gp_n
            if f_n > f_w:
                w, f_w = w_n, f_n
    w = _reduced_newton_polish(objective, gradient, hessian, w, lower, upper)
    return w, objective(w), _gradient_projection_norm(gradient, w, lower, upper)


def multi_start_max(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    hessian: Callable[[np.ndarray], np.ndarray],
    starts: Sequence[np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    grad_tol: float = 1e-9,
) -> tuple[np.ndarray, float, float]:
    """Run ``projected_gradient_max`` from each start; best objective wins,
    ties to the earliest start."""
    best = None
    for s in starts:
        w, f_w, gp = projected_gradient_max(objective, gradient, hessian, s, lower, upper,
                                            grad_tol=grad_tol)
        if best is None or f_w > best[1] + 1e-15:
            best = (w, f_w, gp)
    return best
