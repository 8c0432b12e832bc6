"""The scalar minimizer ``_optim.brent_min`` (Brent's method): accuracy to its
stop scale, evaluations inside the bracket, and evaluation budgets; the older
solver names that the benchmark's tracer binds; and the box-simplex projection
``_optim.project_box_simplex`` against a bisection reference."""

import math
import random

import numpy as np
import pytest

from tailrisk import _optim
from tailrisk._optim import brent_min


def _counted(f, lo, hi):
    points = []

    def g(x):
        assert lo <= x <= hi, (x, lo, hi)
        points.append(x)
        return f(x)

    return g, points


# (f, lo, hi, minimizer): smooth functions whose minimum value 0 leaves every
# difference resolvable, a shifted quartic, and minimizers at either end
CASES = {
    "quadratic": (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 0.3),
    "scaled quadratic": (lambda x: 3.0 * (x + 1.7) ** 2, -4.0, 5.0, -1.7),
    "quartic": (lambda x: (x - 0.3) ** 4, 0.0, 1.0, 0.3),
    "quartic plus quadratic": (lambda x: (x - 0.3) ** 4 + (x - 0.3) ** 2, -1.0, 2.0, 0.3),
    "cosh": (lambda x: math.cosh(x - 0.2) - 1.0, -3.0, 1.0, 0.2),
    "lower end": (lambda x: x, 1.0, 2.0, 1.0),
    "upper end": (lambda x: -x * x, 0.0, 3.0, 3.0),
}


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("xtol", (1e-7, 1e-10))
def test_reaches_xtol_inside_the_bracket(name, xtol):
    f, lo, hi, want = CASES[name]
    g, points = _counted(f, lo, hi)
    got = brent_min(g, lo, hi, xtol=xtol)
    # the stop scale is read on the shrinking bracket, at most 1 + 2 max(|lo|, |hi|)
    assert abs(got - want) <= xtol * (1.0 + 2.0 * max(abs(lo), abs(hi))), (got, want)
    assert len(points) == len(set(points))


@pytest.mark.parametrize("xtol", (1e-7, 1e-10, 1e-12))
def test_quadratic_within_twelve_evaluations(xtol):
    g, points = _counted(CASES["quadratic"][0], 0.0, 1.0)
    assert abs(brent_min(g, 0.0, 1.0, xtol=xtol) - 0.3) <= xtol
    assert len(points) <= 12


def test_fewer_evaluations_than_golden_section_on_a_smooth_minimum():
    # golden section shrinks the bracket by 0.618 per evaluation: 35 to reach
    # 1e-7 relative on [0, 1]; the parabolic steps converge superlinearly
    g, points = _counted(CASES["quartic plus quadratic"][0], -1.0, 2.0)
    brent_min(g, -1.0, 2.0, xtol=1e-7)
    assert len(points) <= 12


def test_never_leaves_the_bracket_on_random_problems():
    rng = random.Random(5)
    for _ in range(2000):
        lo = rng.uniform(-10.0, 10.0)
        hi = lo + 10.0 ** rng.uniform(-6.0, 2.0)
        c = rng.uniform(lo - (hi - lo), hi + (hi - lo))
        power = rng.choice((0.5, 1.0, 2.0, 4.0))
        g, _ = _counted(lambda x: abs(x - c) ** power, lo, hi)
        xtol = 10.0 ** rng.uniform(-12.0, -4.0)
        got = brent_min(g, lo, hi, xtol=xtol)
        want = min(max(c, lo), hi)
        assert abs(got - want) <= xtol * (1.0 + 2.0 * max(abs(lo), abs(hi))), (lo, hi, c, power)


def test_older_names_bind_the_same_solvers_or_raise():
    # the tracer wraps a function object under its older name, so a call under
    # either name is one span
    assert _optim.golden_section_min is _optim.brent_min
    assert _optim.projected_gradient_max is _optim.critical_line_trace
    for removed in (_optim.nelder_mead, _optim.multi_start_max):
        with pytest.raises(NotImplementedError):
            removed(lambda x: x, 0.0)


# --- the box-simplex projection: the KKT certificate of every portfolio solve ---

def _bisected(v, lower, upper):
    """Reference projection clip(v - tau, lower, upper): tau by bisection on the
    nonincreasing g(tau) = sum(clip(v - tau)), from a bracket with g(lo) >= 1 >
    g(hi), until the midpoint no longer moves (at most 3,000 steps)."""
    if upper.sum() <= 1.0:
        return upper.copy()
    if lower.sum() >= 1.0:
        return lower.copy()
    # below every finite v - upper and far enough below v - lower that the free
    # weights with an upper bound of +inf lift g past 1
    lo = min(np.min((v - upper)[np.isfinite(upper)], initial=math.inf),
             np.min(v - lower) - (1.0 - lower.sum()) - 1.0)
    hi = np.max(v - lower)
    for _ in range(3000):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.clip(v - mid, lower, upper).sum() >= 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), lower, upper)


def _box_cases(seed=11, count=3000):
    """Seeded (kind, v, lower, upper) with sum(lower) < 1 < sum(upper), cycling through
    +inf upper bounds, pinned weights (lower == upper), tied breakpoints, n = 1 and
    plain boxes; the long-short floors -0.5 and -2 are among the lower bounds."""
    rng = np.random.default_rng(seed)
    kinds = ("inf", "pinned", "tied", "single", "box")
    cases = []
    while len(cases) < count:
        kind = kinds[len(cases) % len(kinds)]
        n = 1 if kind == "single" else int(rng.integers(2, 40))
        v = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 1.0), n)
        lower = rng.choice([0.0, -0.5, -2.0, 0.01], n)
        upper = lower + rng.uniform(0.0, 2.0, n)
        if kind in ("inf", "single"):
            upper[rng.random(n) < 0.6] = math.inf
        if kind == "pinned":
            pinned = rng.random(n) < 0.3
            upper[pinned] = lower[pinned]
        if kind == "tied":   # equal weights, and one v - upper on another's v - lower
            k = int(rng.integers(1, n))
            v[:k], lower[:k], upper[:k] = v[0], lower[0], upper[0]
            v[-1] = v[0] - upper[0] + lower[-1]
        if lower.sum() < 1.0 < upper.sum():
            cases.append((kind, v, lower, upper))
    return cases


def test_projection_matches_bisection():
    seen = dict.fromkeys(("inf", "pinned", "tied", "single", "box"), 0)
    for kind, v, lower, upper in _box_cases():
        got = _optim.project_box_simplex(v, lower, upper)
        want = _bisected(v, lower, upper)
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(v))), (kind, v, lower, upper)
        assert abs(got.sum() - 1.0) <= 1e-12 and np.all(got >= lower) and np.all(got <= upper)
        seen[kind] += 1
    assert min(seen.values()) == 600, seen
    # v - (+inf) was a breakpoint at -inf, which projected this onto [0] (at the parent)
    assert _optim.project_box_simplex(np.array([-0.00186]), np.zeros(1),
                                      np.full(1, math.inf)).tolist() == [1.0]


def test_projection_clamps_a_budget_outside_the_box_sums():
    # validation lets sum(lower) and sum(upper) miss 1 by 1e-12: the nearest bound vector
    v = np.array([0.3, -0.2, 0.9])
    lower, upper = np.full(3, 0.2), np.full(3, 1.0 / 3.0 - 1e-13)
    assert _optim.project_box_simplex(v, lower, upper).tolist() == upper.tolist()
    lower, upper = np.full(3, 1.0 / 3.0 + 1e-13), np.full(3, math.inf)
    assert _optim.project_box_simplex(v, lower, upper).tolist() == lower.tolist()


@pytest.mark.parametrize("upper", (1.0, math.inf))
def test_projection_of_nan_certifies_nothing(upper):
    from tailrisk.errors import ConvergenceError
    from tailrisk.portfolio import _certify

    w = np.full(4, 0.25)
    lower, upper = np.full(4, -0.5), np.full(4, upper)
    for gradient in (np.array([math.nan, 0.0, 0.0, 0.0]), np.full(4, math.nan)):
        assert math.isnan(np.linalg.norm(_optim.project_box_simplex(w + gradient, lower, upper) - w))
        with pytest.raises(ConvergenceError):
            _certify(w, gradient, lower, upper)
