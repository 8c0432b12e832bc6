"""A seeded fuzz over the public portfolio and fit entry points.

Each argument of each entry point is replaced in turn by a NaN, +inf, -inf, a
value of the wrong shape, an empty value and a value of the wrong type; then
seeded random calls replace two arguments at once. Every call must return or
raise a ``TailRiskError``, and nothing it returns is NaN. Where a malformed
value still builds a universe, a portfolio problem or a fit problem, the
solvers run on it too.

The portfolio calls share one universe at two sets of bounds. After every
call a valid solve on it, three at one set of bounds and then three at the
other, must return the weights of the same solve on a fresh universe, bit for
bit: the universe's kept corner trace survives failed and differently bounded
calls.
"""

import dataclasses
import math
import random

import numpy as np

from tailrisk import portfolio
from tailrisk.errors import TailRiskError
from tailrisk.estimation import FitProblem, ls_mos_fit, mos_solve
from tailrisk.portfolio import (AssetUniverse, PortfolioProblem, QualifiedFamily,
                                cvar_cross_evaluate, efficient_frontier,
                                markowitz_equivalence_check, markowitz_solve,
                                min_bpoe_portfolio, min_cvar_portfolio)

_SEED = 3307
_KINDS = ("nan", "inf", "-inf", "shape", "empty", "type")
_BOUNDS = ({"lower": 0.0, "upper": 1.0},
           {"lower": np.array([0.02, 0.0, 0.05, 0.0, 0.0, 0.01]), "upper": np.full(6, 0.4)})
_FAMILY = QualifiedFamily("student-t", nu=4.0)


def _bad(rng, valid, kind):
    """A value of the given kind in place of ``valid``; in an array of numbers a
    NaN or an infinity replaces one element."""
    array = isinstance(valid, np.ndarray) or (
        isinstance(valid, (list, tuple)) and isinstance(valid[0], (float, list)))
    if kind in ("nan", "inf", "-inf"):
        if not array:
            return float(kind)
        a = np.array(valid, dtype=float)
        a.flat[rng.randrange(a.size)] = float(kind)
        return a if isinstance(valid, np.ndarray) else type(valid)(a.tolist())
    if kind == "shape":
        if not array:
            return rng.choice([[valid, valid], [[valid]]])
        a = np.asarray(valid, dtype=float)
        return rng.choice([a[None], a.ravel()[:-1], np.append(a, a.flat[0])])
    if kind == "empty":
        return rng.choice([(), [], np.array([]), ""])
    return rng.choice(["abc", None, {"x": 1.0}, object(), ["x"] * np.size(valid)])


def _has_nan(value) -> bool:
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(map(_has_nan, value))
    if isinstance(value, np.ndarray):
        return bool(np.isnan(value).any())
    return isinstance(value, float) and math.isnan(value)


def _solves():
    """A min-CVaR, a min-bPOE and a Markowitz solve: (universe, bounds) -> weights."""
    return (lambda u, b: min_cvar_portfolio(PortfolioProblem(u, "cvar", level=0.95, **b),
                                            _FAMILY).weights.tolist(),
            lambda u, b: min_bpoe_portfolio(PortfolioProblem(u, "bpoe", threshold=0.16, **b),
                                            _FAMILY).weights.tolist(),
            lambda u, b: markowitz_solve(u, 3.0, **b).tolist())


class _Fuzz:
    """Runs the calls on one shared universe and collects every other outcome."""

    def __init__(self):
        self.universe = AssetUniverse.bundled()
        self.reference = [[solve(AssetUniverse.bundled(), b) for solve in _solves()]
                          for b in _BOUNDS]
        self.failures = []
        self.probes = 0

    def call(self, label, fn, args):
        """fn(**args), or None where it raised a TailRiskError; then one probe."""
        result = None
        try:
            result = fn(**args)
        except TailRiskError:
            pass
        except Exception as exc:   # anything else is a finding
            self.failures.append((label, type(exc).__name__, str(exc)[:80]))
        if result is not None and _has_nan(result):
            self.failures.append((label, "NaN returned", repr(result)[:80]))
        i, j = (self.probes // 3) % 2, self.probes % 3
        self.probes += 1
        assert _solves()[j](self.universe, _BOUNDS[i]) == self.reference[i][j], (label, i, j)
        return result

    def entries(self):
        """name -> (function, valid keyword arguments, follow-up on a returned value)."""
        u, normal = self.universe, QualifiedFamily("normal")
        msci = AssetUniverse.bundled()
        sample = tuple((0.5 * np.random.default_rng(_SEED).weibull(1.4, 40)).tolist())
        w = markowitz_solve(msci, 3.0)

        def solve(problem):
            fn = min_cvar_portfolio if problem.objective == "cvar" else min_bpoe_portfolio
            self.call("solve a fuzzed problem", fn, {"problem": problem, "family": _FAMILY})

        def cross_evaluate(family):
            self.call("cvar_cross_evaluate with a fuzzed family", cvar_cross_evaluate,
                      {"weights": w, "universe": u, "family": family, "alpha": 0.95})

        def fit(problem):
            for fn in (ls_mos_fit, mos_solve):
                self.call(f"{fn.__name__} on a fuzzed problem", fn, {"problem": problem})

        return {
            "AssetUniverse": (AssetUniverse, {
                "names": msci.names, "expected_returns": msci.expected_returns.copy(),
                "stdevs": msci.stdevs.copy(), "correlations": msci.correlations.copy()},
                lambda v: self.call("markowitz_solve on a fuzzed universe", markowitz_solve,
                                    {"universe": v, "lam": 3.0})),
            "PortfolioProblem cvar": (PortfolioProblem, {
                "universe": u, "objective": "cvar", "level": 0.95, **_BOUNDS[1]}, solve),
            "PortfolioProblem bpoe": (PortfolioProblem, {
                "universe": u, "objective": "bpoe", "threshold": 0.16, **_BOUNDS[0]}, solve),
            "min_cvar_portfolio": (min_cvar_portfolio, {
                "problem": PortfolioProblem(u, "cvar", level=0.95), "family": _FAMILY}, None),
            "min_bpoe_portfolio": (min_bpoe_portfolio, {
                "problem": PortfolioProblem(u, "bpoe", threshold=0.16, **_BOUNDS[1]),
                "family": _FAMILY, "report_families": (normal, _FAMILY)}, None),
            "markowitz_solve": (markowitz_solve, {
                "universe": u, "lam": 3.0, **_BOUNDS[1]}, None),
            "markowitz_equivalence_check": (markowitz_equivalence_check, {
                "w_cvar": w, "universe": u, "lam": 3.0, **_BOUNDS[0], "tol": 1e-3}, None),
            "efficient_frontier": (efficient_frontier, {
                "universe": u, "family": normal, "objective": "cvar",
                "grid": np.array([0.9, 0.95]), **_BOUNDS[1]}, None),
            "cvar_cross_evaluate": (cvar_cross_evaluate, {
                "weights": w, "universe": u, "family": _FAMILY, "alpha": 0.95}, None),
            "QualifiedFamily student-t": (QualifiedFamily, {
                "family": "student-t", "nu": 4.0}, cross_evaluate),
            "QualifiedFamily gev": (QualifiedFamily, {
                "family": "gev", "xi": 0.1}, cross_evaluate),
            "FitProblem sample": (FitProblem, {
                "family": "weibull", "levels": (0.5, 0.9, 0.95), "weights": (1.0, 2.0, 1.0),
                "shifts": (0.0, 0.01, 0.0), "sample": sample}, fit),
            "FitProblem targets": (FitProblem, {
                "family": "normal", "levels": (0.5, 0.9), "targets": (0.8, 1.9)}, fit),
            "ls_mos_fit": (ls_mos_fit, {
                "problem": FitProblem("weibull", (0.5, 0.9, 0.95), sample=sample)}, None),
            "mos_solve": (mos_solve, {
                "problem": FitProblem("normal", (0.5, 0.9), targets=(0.8, 1.9))}, None),
        }


def test_malformed_inputs_raise_only_tailrisk_errors(monkeypatch):
    traces = []
    trace = portfolio.critical_line_trace
    monkeypatch.setattr(portfolio, "critical_line_trace",
                        lambda *args: traces.append(args) or trace(*args))
    fuzz, rng = _Fuzz(), random.Random(_SEED)
    entries = fuzz.entries()

    def run(label, fn, args, then):
        result = fuzz.call(label, fn, args)
        if result is not None and then is not None:
            then(result)
        return result

    for name, (fn, args, then) in entries.items():
        assert run(name, fn, args, then) is not None, name
    for name, (fn, args, then) in entries.items():
        for key in args:
            for kind in _KINDS:
                bad = _bad(rng, args[key], kind)
                run(f"{name}: {key} {kind} {bad!r:.40}", fn, {**args, key: bad}, then)
    for _ in range(1500):
        name = rng.choice(sorted(entries))
        fn, args, then = entries[name]
        bad = {k: _bad(rng, args[k], rng.choice(_KINDS))
               for k in rng.sample(sorted(args), min(2, len(args)))}
        run(f"{name}: {bad!r:.60}", fn, {**args, **bad}, then)
    assert fuzz.failures == [], "\n".join(map(str, fuzz.failures))
    # most probes read the kept trace; a probe after a call at other bounds traced again
    assert 0.05 * fuzz.probes < len(traces) < 0.5 * fuzz.probes, (len(traces), fuzz.probes)
