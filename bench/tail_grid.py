"""tail-grid workload: quantile, superquantile and every bPOE engine.

Each of the 33 pinned settings (11 families x 3) is evaluated at every level
of ``grid.ALPHAS``: ``quantile`` (for alpha > 0), ``superquantile``, then
each bPOE engine defined for the family at the reference superquantile as
threshold. ``tail_quantile`` runs over ``grid.EPSILONS``. Three probes at
known-bad thresholds complete the pass. Nearly all the time is spent in
specfun, distributions and tail_metrics; no optimiser runs.
"""

from __future__ import annotations

import math

from common import (PYTHON_KERNEL, Miss, Op, State, bpoe_error, median, percentile, ratio,
                    value_error)
from grid import setting_id


def _check_value(ref: float, scale: float):
    return lambda got: value_error(got, ref, scale)


def _check_bpoe(ref: float, level_space: bool):
    def check(result) -> Miss | None:
        if result.clamped and result.value == 0.0 and math.isinf(result.quantile_star) \
                and ref > 0.0:
            return Miss(f"clamped to 0 on an unbounded support (reference {ref!r})",
                        "clamped")
        return bpoe_error(result.value, ref, level_space)
    return check


def _engines(tm, d, alpha: float) -> list[str]:
    names = ["bpoe"]
    if isinstance(d, tm.CLOSED_BPOE_FAMILIES):
        names.append("bpoe_closed")
    # the minimization engine needs a threshold strictly above the mean
    if isinstance(d, tm.MINIMIZATION_BPOE_FAMILIES) and alpha > 0.0:
        names.append("bpoe_by_minimization")
    return names


def construct(tr, ref: dict) -> tuple[list, list]:
    """The distributions of the grid settings and of the probes."""
    return ([tr.make(row["family"], **row["params"]) for row in ref["settings"]],
            [tr.make(probe["family"], **probe["params"]) for probe in ref["probes"]])


def setup(tr, ref: dict, seed: int, root: str) -> State:
    """All operations of one pass. Calls resolve module attributes at call
    time, so a traced pass sees them through the installed wrappers."""
    tm = tr.tail_metrics
    dists, probe_dists = construct(tr, ref)
    ops: list[Op] = []

    def engine_op(case: str, d, engine: str, x: float, bref: float) -> Op:
        # bpoe_p50/p99 time the public entry point; the engines it does not
        # dispatch to are timed and checked as their own kind
        kind = "bpoe" if engine == "bpoe" else "bpoe_engine"
        # bpoe_by_root works in level space; bpoe calls it where no closed form exists
        level_space = engine == "bpoe_by_root" or (
            engine == "bpoe" and not isinstance(d, tm.CLOSED_BPOE_FAMILIES))
        return Op(f"{case}|{engine}", kind, lambda: getattr(tm, engine)(d, x),
                  _check_bpoe(bref, level_space))

    for row, d in zip(ref["settings"], dists):
        scale = row["iqr"]
        for k, alpha in enumerate(ref["alphas"]):
            case = f"{row['id']}|alpha={alpha!r}"
            if alpha > 0.0:
                ops.append(Op(f"{case}|quantile", "quantile",
                              lambda d=d, a=alpha: d.quantile(a),
                              _check_value(row["quantile"][k], scale)))
            ops.append(Op(f"{case}|superquantile", "superquantile",
                          lambda d=d, a=alpha: tm.superquantile(d, a),
                          _check_value(row["superquantile"][k], scale)))
            x = row["superquantile"][k]
            for engine in _engines(tm, d, alpha):
                ops.append(engine_op(case, d, engine, x, row["bpoe"][k]))
        for j, eps in enumerate(ref["epsilons"]):
            ops.append(Op(f"{row['id']}|tail_quantile|eps={eps!r}", "tail_quantile",
                          lambda d=d, e=eps: d.tail_quantile(e),
                          _check_value(row["tail_quantile"][j], scale)))
    for probe, d in zip(ref["probes"], probe_dists):
        case = f"{setting_id(probe['family'], probe['params'])}|x={probe['x']!r}"
        ops.append(engine_op(case, d, probe["engine"], probe["x"], probe["value"]))
    return State(ops, construct=lambda: construct(tr, ref), kernels={"python": PYTHON_KERNEL})


def named_metrics(state, outcome) -> dict[str, tuple[float, str]]:
    sq = outcome.times("superquantile")
    bp = outcome.times("bpoe")
    evals = len(outcome.records)
    busy = sum(r.seconds for r in outcome.records)
    return {
        "sq_p50_us": (median(outcome.op_medians("superquantile")) * 1e6, "us"),
        "sq_p99_us": (percentile(sq, 99) * 1e6, "us"),
        "bpoe_p50_us": (median(outcome.op_medians("bpoe")) * 1e6, "us"),
        "bpoe_p99_us": (percentile(bp, 99) * 1e6, "us"),
        "evals_per_s": (ratio(evals, busy), "1/s"),
        "pass_s": (outcome.median_pass(), "s"),
    }


def end_to_end(named: dict) -> dict[str, float]:
    return {"primary_p50_ms": named["sq_p50_us"][0] / 1e3,
            "secondary_p50_ms": named["bpoe_p50_us"][0] / 1e3,
            "batch_s": named["pass_s"][0]}
