"""Small deterministic solvers shared by the metric engines and fitters.

The scalar solvers are pure Python. The array solvers import numpy when they
run, so the scalar metric engines load this module without numpy."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    Returns lo or hi when x lies outside [sq(lo), sq(hi)]. Stops at a step or
    bracket of 1e-13 min(|u|, 1) in u, i.e. relative precision 1e-13 in
    1 - alpha, and in alpha too where alpha is small (u near 0).
    """
    if x <= sq(lo):
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


def _reduced_newton_polish(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    w: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_iter: int = 30,
) -> np.ndarray:
    """Newton steps in the free coordinates of the simplex tangent space.

    Projected gradient stalls near machine precision because objective
    improvements scale with the squared residual; Newton on the reduced
    first-order conditions (analytic gradient, finite-difference Hessian)
    pushes the stationarity residual to ~1e-13. Bails out rather than
    changing the active set.
    """
    import numpy as np
    bound_tol = 1e-10
    free = (w > lower + bound_tol) & (w < upper - bound_tol)
    m = int(free.sum())
    if m < 2:
        return w
    idx = np.flatnonzero(free)
    k = m - 1

    def expand(y: np.ndarray) -> np.ndarray:
        wy = w.copy()
        wy[idx[0]] = w[idx[0]] - y.sum()
        wy[idx[1:]] = w[idx[1:]] + y
        return wy

    def red_grad(wy: np.ndarray) -> np.ndarray:
        g = gradient(wy)
        return g[idx[1:]] - g[idx[0]]

    y = np.zeros(k)
    wy = w
    f_best = objective(w)
    for _ in range(max_iter):
        g_r = red_grad(wy)
        if np.max(np.abs(g_r)) < 1e-13:
            break
        h = 1e-7
        hess = np.zeros((k, k))
        for j in range(k):
            dy = np.zeros(k)
            dy[j] = h
            hess[:, j] = (red_grad(expand(y + dy)) - red_grad(expand(y - dy))) / (2.0 * h)
        hess = 0.5 * (hess + hess.T)
        try:
            step = np.linalg.solve(hess, g_r)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        accepted = False
        while scale >= 1e-6:
            y_try = y - scale * step
            w_try = expand(y_try)
            if np.all(w_try >= lower - 1e-15) and np.all(w_try <= upper + 1e-15) \
                    and objective(w_try) >= f_best - 1e-12:
                y, wy = y_try, w_try
                f_best = max(f_best, objective(w_try))
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
    return np.clip(wy, lower, upper)


def projected_gradient_max(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    grad_tol: float = 1e-9,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, float, float]:
    """Maximize a smooth objective over the box-bounded simplex.

    Projected gradient ascent with backtracking line search and step growth,
    then a reduced-space Newton polish on the identified active set.
    Returns (w, objective value, final gradient-projection norm).
    """
    import numpy as np
    w = project_box_simplex(np.asarray(start, dtype=float), lower, upper)
    f_w = objective(w)
    step = 1.0
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
    w = _reduced_newton_polish(objective, gradient, w, lower, upper)
    f_w = objective(w)
    probe = project_box_simplex(w + gradient(w), lower, upper)
    gp_norm = float(np.linalg.norm(probe - w))
    return w, f_w, gp_norm


def multi_start_max(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    starts: Sequence[np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    grad_tol: float = 1e-9,
) -> tuple[np.ndarray, float, float]:
    """Run projected gradient from each start; best objective wins, ties to the
    earliest start."""
    best = None
    for s in starts:
        w, f_w, gp = projected_gradient_max(objective, gradient, s, lower, upper,
                                            grad_tol=grad_tol)
        if best is None or f_w > best[1] + 1e-15:
            best = (w, f_w, gp)
    return best
