"""Small deterministic solvers for the applications: ``brent_min``, Brent's
scalar minimizer for the LS-MOS shape search, and for the portfolio solves
``critical_line_trace``, the box-bounded mean-variance frontier, and the simplex
projection that certifies their KKT points. Only ``portfolio`` and
``estimation`` load this module, both with numpy; the tail metrics' root engine
is ``tail_metrics.level_root``. The benchmark's tracer binds four older names,
kept at the end of the module: two aliases and two stubs."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_BRENT_MAX_ITER = 200


def brent_min(f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-10,
              _seed: tuple[float, float, float, float] | None = None) -> float:
    """Brent's method for the minimizer of a unimodal f on [lo, hi]: successive
    parabolic interpolation through the three best points, safeguarded by
    golden-section steps (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5).

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
    for _ in range(_BRENT_MAX_ITER):
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


def critical_line_trace(eta: np.ndarray, cov: np.ndarray, lower: np.ndarray,
                        upper: np.ndarray) -> list[tuple[float, float, np.ndarray, np.ndarray]]:
    """The box-bounded mean-variance frontier by Markowitz's critical-line
    algorithm (Bailey and Lopez de Prado, Algorithms 6(1), 2013).

    For each gamma >= 0 the maximizer of gamma w.eta - w.S.w / 2 over the
    box-bounded simplex is piecewise affine in gamma. Returns its segments
    (lo, hi, a, b), hi of the first inf and lo of the last 0, on each of which
    it is a + gamma b. The trace starts at the max-return vertex (greedy fill by
    eta, the budget's last asset free) and walks gamma down, one KKT solve on
    the free set per corner; a corner is where a free weight reaches a bound,
    which it is then set to exactly, or a bound's multiplier changes sign. Ties
    go to the leaving weight, then to the lower index.
    """
    n = eta.size
    order = np.argsort(-eta, kind="stable")
    w = lower.copy()
    k = min(int(np.searchsorted(np.cumsum(upper[order] - lower[order]), 1.0 - lower.sum())), n - 1)
    w[order[:k]] = upper[order[:k]]
    w[order[k]] += 1.0 - w.sum()
    free = np.zeros(n, dtype=bool)
    free[order[k]] = True
    at_hi = w >= upper
    pinned = lower == upper
    segments, hi = [], math.inf
    with np.errstate(divide="ignore", invalid="ignore"):   # np.where's untaken branches
        for _ in range(10 * n + 10):
            f = np.flatnonzero(free)
            kkt = np.zeros((f.size + 1, f.size + 1))
            kkt[:-1, :-1] = cov[np.ix_(f, f)]
            kkt[:-1, -1] = kkt[-1, :-1] = 1.0
            a, b = np.where(free, 0.0, w), np.zeros(n)
            rhs = np.zeros((f.size + 1, 2))
            rhs[:-1, 0] = -(cov[f] @ a)
            rhs[-1, 0] = 1.0 - a.sum()
            rhs[:-1, 1] = eta[f]
            sol = np.linalg.solve(kkt, rhs)
            sol += np.linalg.solve(kkt, rhs - kkt @ sol)   # one refinement: the 1s and S differ in scale
            a[f], b[f] = sol[:-1, 0], sol[:-1, 1]
            leave = np.full(n, -math.inf)
            target = np.where(b < 0.0, upper, lower)   # the bound each free weight heads to
            if hi == math.inf and f.size > 1:
                # tied top returns: step from w toward the face's minimum variance a,
                # as far as the bounds allow, and fix the weight that blocks
                step = a - w
                room = np.where(step > 0.0, (upper - w) / step,
                                np.where(step < 0.0, (lower - w) / step, math.inf))
                room[~free] = math.inf
                block = int(np.argmin(room))
                if room[block] < 1.0:
                    w += room[block] * step
                    w[block] = upper[block] if step[block] > 0.0 else lower[block]
                    free[block], at_hi[block] = False, step[block] > 0.0
                    continue
                w = a.copy()
            elif f.size > 1:   # free weights leave where they reach a bound
                leave[f] = np.where(b[f] != 0.0, (target[f] - a[f]) / b[f], -math.inf)
            # bounds enter where the multiplier gamma eta - S w - mu = gamma p - q turns the wrong sign
            sb, sa = cov @ b, cov @ a
            p, q = eta - sb - sol[-1, 1], sa + sol[-1, 0]
            # p and q vanish on the free set: within 4x their rounding there they are
            # ties, so a duplicate of a free asset never enters to make the block singular
            tie_p, tie_q = 4.0 * float(np.max(np.abs(p[f]))), 4.0 * float(np.max(np.abs(q[f])))
            side = np.where(at_hi, 1.0, -1.0)   # a bound's multiplier must keep this sign
            enter = np.where(side * p > tie_p, q / p,
                             np.where((np.abs(p) <= tie_p) & (side * q > tie_q), hi, -math.inf))
            enter[free | pinned] = -math.inf
            events = np.minimum(np.concatenate([leave, enter]), hi)
            event = int(np.argmax(events))
            lo = max(float(events[event]), 0.0)
            if lo < hi:
                segments.append((lo, hi, a, b))
            if lo == 0.0:
                return segments
            hi, i = lo, event % n
            free[i] = event >= n
            if not free[i]:
                w[i] = target[i]
                at_hi[i] = w[i] == upper[i]
    return segments


# names the benchmark's tracer binds: the two solvers under their older names,
# and two removed solvers it still looks up
golden_section_min = brent_min
projected_gradient_max = critical_line_trace


def nelder_mead(f, x0, max_iter: int = 4000):
    """Removed: LS-MOS searches its shape by ``brent_min``. The name and its
    ``max_iter`` default stay only because the benchmark's tracer reads them."""
    raise NotImplementedError("nelder_mead is removed; use brent_min")


def multi_start_max(*args, **kwargs):
    """Removed: every portfolio problem reads one corner trace
    (``critical_line_trace``). The name stays only because the benchmark's
    tracer binds it."""
    raise NotImplementedError("multi_start_max is removed; use critical_line_trace")
