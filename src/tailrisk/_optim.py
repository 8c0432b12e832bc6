"""Small deterministic solvers for the applications: Brent's scalar minimizer
for the LS-MOS shape search, and the box-bounded simplex projection and
active-set Newton of the portfolio solves, plus two solvers the package no
longer calls. Only ``portfolio`` and ``estimation`` load this module, both
with numpy; the tail metrics' root engine is ``tail_metrics.level_root``."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f: Callable[[float], float], lo: float, hi: float,
                       xtol: float = 1e-10, max_iter: int = 200,
                       _seed: tuple[float, float, float, float] | None = None) -> float:
    """Brent's method for the minimizer of a unimodal f on [lo, hi]: successive
    parabolic interpolation through the three best points, safeguarded by
    golden-section steps (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5); the older name stays because the benchmark's
    tracer binds it.

    A parabolic step is taken where it lands inside the bracket and moves
    less than half the step before last; else a golden-section step goes into
    the larger side. No two evaluations lie closer than half the stop scale
    xtol (1 + |lo| + |hi|), lo and hi the current bracket, and f is evaluated
    only inside [lo, hi]. Stops when the bracket lies within that scale on
    both sides of the best point, which it returns. Given ``_seed`` =
    (x, f(x), f(lo), f(hi)) with f(x) below both ends, the search starts from
    those three points and evaluates nothing before the first parabola.
    """
    if _seed is None:
        x = w = v = hi - _PHI * (hi - lo)
        fx = fw = fv = f(x)
        step = before = 0.0   # the last two steps
    else:
        x, fx, fw, fv = _seed
        w, v = lo, hi
        step = before = hi - lo
    for _ in range(max_iter):
        tol = 0.5 * xtol * (1.0 + abs(lo) + abs(hi))
        mid = 0.5 * (lo + hi)
        if max(x - lo, hi - x) <= 2.0 * tol:
            break
        parabolic = False
        if abs(before) > tol:   # the vertex x + p / q of the parabola through x, w, v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            if abs(p) < 0.5 * q * abs(before) and q * (lo - x) < p < q * (hi - x):
                before, step, parabolic = step, p / q, True
                if min(x + step - lo, hi - x - step) < 2.0 * tol:
                    step = tol if x < mid else -tol
        if not parabolic:
            before = (lo if x >= mid else hi) - x
            step = (1.0 - _PHI) * before
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = f(u)
        if fu <= fx:
            if u < x:
                hi = x
            else:
                lo = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def nelder_mead(f: Callable[[np.ndarray], float], x0: np.ndarray,
                scale: float = 0.25, xatol: float = 1e-12, fatol: float = 1e-16,
                max_iter: int = 4000) -> tuple[np.ndarray, float, int]:
    """Plain Nelder-Mead simplex descent. Returns (x, f(x), iterations).

    Unused by the package; the benchmark's tracer binds it by name."""
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
    monotone piecewise-linear equation sum(clip(v - tau)) = 1; the sorted
    breakpoints bracket tau, which is then solved exactly on the bracket's
    active set.
    """
    v = np.asarray(v, dtype=float)
    # the clipped sum spans [sum(lower), sum(upper)]; budgets outside that
    # range (validation slack) clamp to the nearest bound vector
    if upper.sum() <= 1.0:
        return upper.copy()
    if lower.sum() >= 1.0:
        return lower.copy()
    bps = np.sort(np.concatenate([v - upper, v - lower]))
    gs = np.clip(v[None, :] - bps[:, None], lower, upper).sum(axis=1)
    j = min(max(int(np.searchsorted(-gs, -1.0)), 1), bps.size - 1)   # first g(bps[j]) <= 1
    w_mid = v - 0.5 * (bps[j - 1] + bps[j])
    free = (w_mid > lower) & (w_mid < upper)
    residual = 1.0 - lower[w_mid <= lower].sum() - upper[w_mid >= upper].sum()
    tau = (v[free].sum() - residual) / free.sum() if free.any() else bps[j]
    return np.clip(v - tau, lower, upper)


_F_BAND = 1e-10   # relative change in f its rounding can hide (near-riskless min-bPOE)


def _ascent_directions(g: np.ndarray, h: np.ndarray, free: np.ndarray,
                       released: int, side: float) -> list[tuple[np.ndarray, float]]:
    """Budget-keeping moves of the free coordinates, with first trial steps:
    the Newton step Z y (Z a basis of such moves) from Z^T H Z with each
    eigenvalue replaced by minus its magnitude, floored at 1e-12 of the
    largest (exact Newton where f is concave on the face, Newton's scaling
    where not), none on a linear f or where it pushes the coordinate just
    released (to move in direction ``side``) back out; then the reduced
    gradient g - mean(g_free), from the quadratic model's maximum along it.
    """
    grad = np.zeros_like(g)
    grad[free] = g[free] - g[free].mean()
    grad[free[0]] -= grad.sum()   # an exact zero sum keeps long steps on the budget
    curv = float(grad @ h @ grad)
    out = [(grad, float(grad @ grad) / -curv if curv < 0.0 else math.inf)]
    z = np.eye(g.size)[:, free[1:]] - np.eye(g.size)[:, free[:1]]   # columns e_i - e_first
    lam, vec = np.linalg.eigh(z.T @ h @ z)
    lam = np.abs(lam)
    if lam.max() > 0.0:
        newton = z @ (vec @ ((vec.T @ (z.T @ g)) / np.maximum(lam, 1e-12 * lam.max())))
        if released < 0 or side * newton[released] >= 0.0:
            return [(newton, 1.0)] + out
    return out


def _line_search(objective: Callable[[np.ndarray], float], w: np.ndarray, f_w: float,
                 slope: float, d: np.ndarray, t: float, lower: np.ndarray,
                 upper: np.ndarray) -> tuple[np.ndarray, float, int] | None:
    """Backtrack along d from step t, capped at the first bound d reaches, to
    f >= f_w + 1e-4 t slope. Where the first trial's predicted gain t slope
    is within f's rounding band, f may instead fall by up to the band: f
    cannot judge such a step, so the caller judges it by the gradient.
    Returns (point, value, index of the bound reached or -1), or None."""
    with np.errstate(divide="ignore", invalid="ignore"):
        room = np.where(d > 0.0, (upper - w) / d, np.where(d < 0.0, (lower - w) / d, np.inf))
    block = int(np.argmin(room))
    if t >= room[block]:
        t = max(float(room[block]), 0.0)
    else:
        block = -1
    band = _F_BAND * (1.0 + abs(f_w))
    floor = f_w - band if t * slope <= band else f_w
    for _ in range(60):
        w_try = w + t * d
        if block >= 0:
            w_try[block] = upper[block] if d[block] > 0.0 else lower[block]
        f_try = objective(w_try)
        if f_try >= floor + 1e-4 * t * slope:
            return w_try, f_try, block
        t *= 0.5
        block = -1
    return None


def projected_gradient_max(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    hessian: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, float, float]:
    """Maximize a smooth objective over the box-bounded simplex by primal
    active-set Newton (Gill, Murray and Wright, Practical Optimization, 1981);
    the older name stays because the benchmark's tracer binds it.

    Start coordinates within 1e-10 of a bound are fixed, the rest free. Each
    iteration takes the first of ``_ascent_directions`` the line search
    accepts; a step reaching a bound fixes that coordinate, and one moving f
    only within its rounding band must shrink the spread of g_free. Where
    none does, the fixed coordinate whose multiplier has the most wrong sign
    (g_i > mu = mean(g_free) at a lower bound, g_i < mu at an upper one) is
    released; the solve ends when there is none, on a concave or
    pseudo-concave f at the global maximum. Returns (w, f(w), |P(w + g) - w|)
    with P = ``project_box_simplex``, zero exactly at a KKT point.
    """
    w = project_box_simplex(np.asarray(start, dtype=float), lower, upper)
    f_w = objective(w)
    at_lo, at_hi = w <= lower + 1e-10, w >= upper - 1e-10
    released, side, limit = -1, 0.0, math.inf
    for _ in range(1000):
        g = gradient(w)
        free = np.flatnonzero(~(at_lo | at_hi))
        spread = float(np.ptp(g[free])) if free.size else 0.0
        step = None
        if 1e-14 * np.max(np.abs(g)) < spread < limit:
            for d, t in _ascent_directions(g, hessian(w), free, released, side):
                step = _line_search(objective, w, f_w, float(g @ d), d, t, lower, upper)
                if step is not None:
                    break
        if step is not None:
            w, f_new, block = step
            if block >= 0:
                (at_hi if d[block] > 0.0 else at_lo)[block] = True
            limit = math.inf if block >= 0 or f_new > f_w + _F_BAND * (1.0 + abs(f_w)) else spread
            f_w, released = f_new, -1
            continue
        limit = math.inf
        lo_only, hi_only = at_lo & ~at_hi, at_hi & ~at_lo   # a pinned coordinate stays
        mu = g[free].mean() if free.size else g[hi_only].min(initial=np.inf)
        wrong = np.where(lo_only, g - mu, np.where(hi_only, mu - g, 0.0))
        released = int(np.argmax(wrong))
        if not wrong[released] > 1e-14 * float(np.max(np.abs(g))):
            break
        side = 1.0 if lo_only[released] else -1.0
        at_lo[released] = at_hi[released] = False
    w = np.clip(w, lower, upper)
    g = gradient(w)
    return w, objective(w), float(np.linalg.norm(project_box_simplex(w + g, lower, upper) - w))


def multi_start_max(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    hessian: Callable[[np.ndarray], np.ndarray],
    starts: Sequence[np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, float, float]:
    """Best ``projected_gradient_max`` run over the starts, ties to the earliest.
    Unused by the package; the benchmark's tracer binds it by name."""
    return max((projected_gradient_max(objective, gradient, hessian, s, lower, upper)
                for s in starts), key=lambda run: run[1])
