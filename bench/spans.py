"""Tracing from outside the program: spans around tailrisk's public functions.

``Tracer.install`` replaces each traced function with a wrapper on every
module or class attribute that holds it, so a call is seen whichever name
the caller resolves (``tail_metrics.superquantile`` and
``estimation.superquantile`` are one function bound twice). A span records
its name, start, end and parent span; spans stay in memory and
``Tracer.save`` writes them once.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from array import array
from collections import Counter
from typing import Any, Callable

import numpy as np

from common import ratio

BPOE_SPANS = ("tail_metrics.bpoe", "tail_metrics.bpoe_closed",
              "tail_metrics.bpoe_by_root", "tail_metrics.bpoe_by_minimization")
SOLVE_SPANS = ("portfolio.min_cvar_portfolio", "portfolio.min_bpoe_portfolio",
               "portfolio.markowitz_solve")
FIT_SPANS = ("estimation.ls_mos_fit",)
ORACLE_SPANS = ("oracle.oracle_superquantile", "oracle.oracle_bpoe", "oracle.mc_superquantile")

MODULES = ("specfun", "distributions", "tail_metrics", "_optim", "_quad", "portfolio",
           "estimation", "oracle", "cli")
# module -> traced attributes; "Class.method" names a class attribute
TRACED = {
    "specfun": ("erf", "erfc", "erf_inv", "erfc_inv", "gamma_fn", "upper_inc_gamma",
                "lower_inc_gamma", "reg_inc_beta", "reg_inc_beta_inv", "inc_beta",
                "lambert_w", "log_integral", "binary_entropy"),
    "distributions": ("make", "Distribution.sample"),
    "tail_metrics": ("superquantile", "left_superquantile") + tuple(
        s.split(".")[1] for s in BPOE_SPANS),
    "_optim": ("nelder_mead", "golden_section_min", "project_box_simplex",
               "projected_gradient_max", "multi_start_max"),
    "_quad": ("adaptive_quad",),
    "portfolio": ("QualifiedFamily.zeta", "min_cvar_portfolio", "min_bpoe_portfolio",
                  "markowitz_solve", "efficient_frontier"),
    "estimation": ("ls_mos_fit", "mos_solve", "empirical_superquantile", "reference_fits"),
    "oracle": tuple(s.split(".")[1] for s in ORACLE_SPANS),
    "cli": ("main",),
}
# each family's own quantile evaluators, as distributions.<Class>.<method>
FAMILY_METHODS = ("quantile", "tail_quantile")


def span_name(module: str, attr: str) -> str:
    """Layer-qualified span name; leading underscores are dropped."""
    return f"{module.lstrip('_')}.{attr.split('.')[-1]}"


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._undo: list[tuple[Any, str, Any]] = []
        self.nelder_mead_max_iter = 0
        self.active = True
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.kkt_max = 0.0

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the traced functions on every attribute that holds them."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        targets = []   # (span name, function, owner class or None, attribute)
        for mod, attrs in TRACED.items():
            for attr in attrs:
                owner: Any = modules[mod]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                targets.append((span_name(mod, attr), owner.__dict__[leaf],
                                owner if path else None, leaf))
        for cls in modules["distributions"].FAMILIES.values():
            for meth in FAMILY_METHODS:
                if meth in cls.__dict__:
                    targets.append((f"distributions.{cls.__name__}.{meth}",
                                    cls.__dict__[meth], cls, meth))
        self.nelder_mead_max_iter = inspect.signature(
            modules["_optim"].nelder_mead).parameters["max_iter"].default
        hooks = {"distributions.sample": _count_draws,
                 "optim.nelder_mead": _count_nelder_mead,
                 "portfolio.min_cvar_portfolio": _record_kkt,
                 "portfolio.min_bpoe_portfolio": _record_kkt}
        hooks.update(dict.fromkeys(BPOE_SPANS, _count_unbounded_clamp))
        holders = [package, *modules.values()]
        self._stack.clear()
        for name, fn, cls, attr in targets:
            wrapper = self._wrap(name, fn, hooks.get(name))
            if cls is not None:
                self._patch(cls, attr, wrapper)
                continue
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def save(self, path: str, meta: dict) -> None:
        """Write the recorded spans (name table, name, parent, start, end)."""
        np.savez_compressed(path, names=np.array(self.names), meta=np.array(repr(meta)),
                            **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays(), self.counters, self.kkt_max)


def _count_draws(tracer: Tracer, idx, args, kwargs, result) -> None:
    tracer.counters["draws"] += len(result)


def _count_nelder_mead(tracer: Tracer, idx, args, kwargs, result) -> None:
    iterations = int(result[2])
    tracer.counters["nelder_mead.runs"] += 1
    tracer.counters["nelder_mead.iterations"] += iterations
    if iterations >= kwargs.get("max_iter", tracer.nelder_mead_max_iter):
        tracer.counters["nelder_mead.capped"] += 1


def _record_kkt(tracer: Tracer, idx, args, kwargs, result) -> None:
    value = float(result.kkt_residual)
    if math.isfinite(value):
        tracer.kkt_max = max(tracer.kkt_max, value)


def _count_unbounded_clamp(tracer: Tracer, idx, args, kwargs, result) -> None:
    """A bPOE pinned to 0 on a support with no upper end is a wrong clamp."""
    parent = tracer.parent[idx]
    if parent >= 0 and tracer.names[tracer.name[parent]] in BPOE_SPANS:
        return   # counted once, at the outermost engine call
    d = args[0] if args else kwargs["d"]
    if result.clamped and result.value == 0.0 and math.isinf(d.support().upper):
        tracer.counters["bpoe.clamped_unbounded"] += 1


class SpanSummary:
    """Counts and self times per span name, and counts relative to scopes.

    A span's self time is its duration minus the durations of its direct
    children; spans nest because the traced program is single-threaded.
    """

    def __init__(self, names: list[str], arr: dict[str, np.ndarray], counters: Counter,
                 kkt_max: float):
        self.names = names
        self.counters = counters
        self.kkt_max = kkt_max
        self._name = arr["name"]
        self._parent = arr["parent"]
        dur = arr["end"] - arr["start"]
        child = self._parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, self._parent[child], dur[child])
        n = len(names)
        self.calls = np.bincount(self._name, minlength=n)
        self.self_s = np.bincount(self._name, weights=dur - covered, minlength=n)
        self.total_s = np.bincount(self._name, weights=dur, minlength=n)

    def _mask(self, span_names) -> np.ndarray:
        ids = [i for i, s in enumerate(self.names) if s in span_names]
        return np.isin(self._name, ids)

    def _ids(self, span_names) -> list[int]:
        return [i for i, s in enumerate(self.names) if s in span_names]

    def count(self, *span_names: str) -> int:
        return int(self.calls[self._ids(span_names)].sum())

    def self_time(self, *span_names: str) -> float:
        return float(self.self_s[self._ids(span_names)].sum())

    def total_time(self, *span_names: str) -> float:
        return float(self.total_s[self._ids(span_names)].sum())

    def matching(self, prefix: str = "", suffix: str = "") -> tuple[str, ...]:
        return tuple(s for s in self.names if s.startswith(prefix) and s.endswith(suffix))

    def inside(self, span_names) -> np.ndarray:
        """Per span: does some ancestor carry one of span_names?"""
        scope = self._mask(span_names)
        parent = self._parent
        has_parent = parent >= 0
        safe_parent = np.where(has_parent, parent, 0)
        flag = np.zeros(len(parent), dtype=bool)
        while True:   # one step up the tree per sweep; ends at the tree depth
            new = has_parent & (scope[safe_parent] | flag[safe_parent])
            if np.array_equal(new, flag):
                return flag
            flag = new

    def outermost(self, *span_names: str) -> int:
        """Calls of span_names that are not nested in another of them."""
        return int((self._mask(span_names) & ~self.inside(span_names)).sum())

    def count_inside(self, span_names, scope_names) -> int:
        return int((self._mask(span_names) & self.inside(scope_names)).sum())


# name, unit, better: the per-layer metrics of a traced run
PER_LAYER = (
    ("specfun.calls", "count", "lower"),
    ("specfun.self_s", "s", "lower"),
    ("specfun.reg_inc_beta.calls_per_quantile", "count", "lower"),
    ("specfun.upper_inc_gamma.self_s", "s", "lower"),
    ("distributions.quantile.calls", "count", "lower"),
    ("distributions.quantile.self_s", "s", "lower"),
    ("distributions.tail_quantile.self_s", "s", "lower"),
    ("distributions.sample.draws_per_s", "1/s", "higher"),
    ("distributions.make.calls", "count", "lower"),
    ("distributions.make.self_s", "s", "lower"),
    ("tail_metrics.superquantile.calls", "count", "lower"),
    ("tail_metrics.superquantile.self_s", "s", "lower"),
    ("tail_metrics.sq_calls_per_bpoe", "count", "lower"),
    ("tail_metrics.bpoe_closed.self_s", "s", "lower"),
    ("tail_metrics.bpoe_by_root.self_s", "s", "lower"),
    ("tail_metrics.bpoe_by_minimization.self_s", "s", "lower"),
    ("tail_metrics.bpoe.clamped_unbounded", "count", "lower"),
    ("portfolio.zeta.calls_per_solve", "count", "lower"),
    ("portfolio.zeta.self_s", "s", "lower"),
    ("optim.projected_gradient_max.calls_per_solve", "count", "lower"),
    ("optim.project_box_simplex.calls_per_solve", "count", "lower"),
    ("optim.project_box_simplex.self_s", "s", "lower"),
    ("portfolio.kkt_residual_max", "abs", "lower"),
    ("optim.nelder_mead.iterations_per_fit", "count", "lower"),
    ("optim.nelder_mead.capped_runs", "count", "lower"),
    ("estimation.sq_calls_per_fit", "count", "lower"),
    ("estimation.empirical_superquantile.self_s", "s", "lower"),
    ("oracle.sq_evals_per_bpoe", "count", "lower"),
    ("oracle.adaptive_quad.calls", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.process_overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
# measured by the run itself rather than read off the spans
RUN_LEVEL = ("cli.main_s", "cli.process_overhead_s", "trace.overhead_ratio")


def layer_metrics(s: SpanSummary) -> dict[str, float]:
    """Per-layer values of one traced pass (all but RUN_LEVEL).

    A metric whose layer the workload never reaches reads 0.
    """
    specfun = s.matching("specfun.")
    quantile = s.matching("distributions.", ".quantile")
    student = ("distributions.StudentT.quantile", "distributions.StudentT.tail_quantile")
    solves = s.outermost(*SOLVE_SPANS)
    fits = s.outermost(*FIT_SPANS)

    def per_solve(span: str) -> float:
        return ratio(s.count_inside((span,), SOLVE_SPANS), solves)

    return {
        "specfun.calls": s.count(*specfun),
        "specfun.self_s": s.self_time(*specfun),
        "specfun.reg_inc_beta.calls_per_quantile": ratio(
            s.count_inside(("specfun.reg_inc_beta",), student), s.outermost(*student)),
        "specfun.upper_inc_gamma.self_s": s.self_time("specfun.upper_inc_gamma"),
        "distributions.quantile.calls": s.count(*quantile),
        "distributions.quantile.self_s": s.self_time(*quantile),
        "distributions.tail_quantile.self_s": s.self_time(
            *s.matching("distributions.", ".tail_quantile")),
        "distributions.sample.draws_per_s": ratio(
            s.counters["draws"], s.total_time("distributions.sample")),
        "distributions.make.calls": s.count("distributions.make"),
        "distributions.make.self_s": s.self_time("distributions.make"),
        "tail_metrics.superquantile.calls": s.count("tail_metrics.superquantile"),
        "tail_metrics.superquantile.self_s": s.self_time("tail_metrics.superquantile"),
        "tail_metrics.sq_calls_per_bpoe": ratio(
            s.count_inside(("tail_metrics.superquantile",), BPOE_SPANS),
            s.outermost(*BPOE_SPANS)),
        "tail_metrics.bpoe_closed.self_s": s.self_time("tail_metrics.bpoe_closed"),
        "tail_metrics.bpoe_by_root.self_s": s.self_time("tail_metrics.bpoe_by_root"),
        "tail_metrics.bpoe_by_minimization.self_s":
            s.self_time("tail_metrics.bpoe_by_minimization"),
        "tail_metrics.bpoe.clamped_unbounded": s.counters["bpoe.clamped_unbounded"],
        "portfolio.zeta.calls_per_solve": per_solve("portfolio.zeta"),
        "portfolio.zeta.self_s": s.self_time("portfolio.zeta"),
        "optim.projected_gradient_max.calls_per_solve": per_solve(
            "optim.projected_gradient_max"),
        "optim.project_box_simplex.calls_per_solve": per_solve("optim.project_box_simplex"),
        "optim.project_box_simplex.self_s": s.self_time("optim.project_box_simplex"),
        "portfolio.kkt_residual_max": s.kkt_max,
        "optim.nelder_mead.iterations_per_fit": ratio(
            s.counters["nelder_mead.iterations"], fits),
        "optim.nelder_mead.capped_runs": s.counters["nelder_mead.capped"],
        "estimation.sq_calls_per_fit": ratio(
            s.count_inside(("tail_metrics.superquantile",), FIT_SPANS), fits),
        "estimation.empirical_superquantile.self_s":
            s.self_time("estimation.empirical_superquantile"),
        "oracle.sq_evals_per_bpoe": ratio(
            s.count_inside(("oracle.oracle_superquantile",), ("oracle.oracle_bpoe",)),
            s.count("oracle.oracle_bpoe")),
        "oracle.adaptive_quad.calls": s.count_inside(("quad.adaptive_quad",), ORACLE_SPANS),
    }
