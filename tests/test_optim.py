"""The scalar minimizer ``_optim.brent_min`` (Brent's method): accuracy to its
stop scale, evaluations inside the bracket, and evaluation budgets; and the
older solver names that the benchmark's tracer binds."""

import math
import random

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
