"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import io
import json
import os
import statistics
from contextlib import redirect_stdout

import numpy as np
import pytest

import apps
import run
import spans
import tail_grid
from common import (BPOE_ATOL, NUMPY_KERNEL, PYTHON_KERNEL, Miss, Op, Outcome, Record,
                    bpoe_error, calibrate, excused, median, percentile, ratio, run_ops,
                    value_error)

TR = run.load_tailrisk()
REF = run.load_json("reference.json")


def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert median(xs) == 2.5
    assert percentile(xs, 25) == pytest.approx(1.75)
    assert percentile([7.0], 99) == 7.0
    data = [float(v) for v in range(1, 12)]
    assert [percentile(data, q) for q in (25, 50, 75)] == \
        statistics.quantiles(data, n=4, method="inclusive")
    with pytest.raises(ValueError):
        percentile([], 50)


def test_times_scale_by_the_kernel_times_around_them():
    # python kernel at 2 ms (half the reference speed) until t=10, then at
    # 0.5 ms; the numpy kernel steady at its reference time
    kernels = {"python": PYTHON_KERNEL, "numpy": NUMPY_KERNEL}
    out = Outcome(kernels=kernels, calibration={
        "python": [(t, 2e-3) for t in range(10)] + [(t, 0.5e-3) for t in range(10, 20)],
        "numpy": [(t, NUMPY_KERNEL.reference_s) for t in range(20)]})
    out.records = [Record("slow", "k", 1.0, None, value=4.0, start=4.5),
                   Record("fast", "k", 1.0, None, start=14.2),
                   Record("edge", "k", 1.0, None, start=9.5),
                   Record("np", "k", 1.0, None, start=4.5, kernel="numpy")]
    out.to_reference_speed()
    ref = PYTHON_KERNEL.reference_s
    assert out.records[0].seconds == pytest.approx(ref / 2e-3)
    assert out.records[0].value == pytest.approx(4.0 * ref / 2e-3)
    assert out.records[1].seconds == pytest.approx(ref / 0.5e-3)
    # three kernel times before (2 ms), three after (0.5 ms): their median
    assert out.records[2].seconds == pytest.approx(ref / 1.25e-3)
    assert out.records[3].seconds == pytest.approx(1.0)
    assert 0.0 < PYTHON_KERNEL.seconds() < 1.0
    live = Outcome(kernels=kernels)
    run_ops([Op("a", "k", lambda: 1, lambda r: None)], live)
    calibrate(live)                           # less than 50 ms later: skipped
    calibrate(live, force=True)
    assert [len(live.calibration[k]) for k in kernels] == [2, 2]


def test_ratio_is_zero_without_a_denominator():
    assert ratio(3.0, 2.0) == 1.5
    assert ratio(3.0, 0) == 0.0


def test_per_operation_medians_and_their_sum():
    out = Outcome()
    for seconds in (1.0, 5.0, 2.0):       # a burst in the second pass
        out.records.append(Record("a", "k", seconds, None))
    for seconds in (0.5, 0.5, 9.0):
        out.records.append(Record("b", "k", seconds, None))
    out.records.append(Record("c", "other", 4.0, None))
    assert out.median_pass() == 2.0 + 0.5 + 4.0
    assert out.median_pass("c") == 4.0
    assert sorted(out.op_medians("k")) == [0.5, 2.0]
    assert out.op_medians("k", "b") == [0.5]


def _summary(rows):
    """rows: (name, parent index, start, end)."""
    names = sorted({r[0] for r in rows})
    arr = {"name": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
           "parent": np.array([r[1] for r in rows], dtype=np.int32),
           "start": np.array([r[2] for r in rows], dtype=float),
           "end": np.array([r[3] for r in rows], dtype=float)}
    return spans.SpanSummary(names, arr, spans.Counter(), 0.0)


def test_self_time_subtracts_direct_children_only():
    s = _summary([("A", -1, 0.0, 10.0), ("B", 0, 1.0, 4.0), ("D", 1, 2.0, 3.0),
                  ("C", 0, 5.0, 7.0), ("A", -1, 20.0, 21.0)])
    assert s.self_time("A") == pytest.approx(10.0 - 3.0 - 2.0 + 1.0)
    assert s.self_time("B") == pytest.approx(2.0)
    assert s.self_time("D") == pytest.approx(1.0)
    assert s.total_time("A") == pytest.approx(11.0)
    assert s.count("A") == 2
    assert list(s.inside(("B",))) == [False, False, True, False, False]
    assert s.count_inside(("D", "C"), ("A",)) == 2
    assert s.outermost("A", "B") == 2


def test_tracer_sees_every_binding_and_restores_it():
    est, tm = TR.estimation, TR.tail_metrics
    original = tm.superquantile
    d = TR.Normal(0.0, 1.0)
    tracer = spans.Tracer()
    tracer.install(TR)
    try:
        tm.superquantile(d, 0.9)
        est.superquantile(d, 0.5)         # the same function, bound in estimation
        TR.bpoe(d, 2.0)
        tracer.active = False
        tm.superquantile(d, 0.9)          # paused: not recorded
        tracer.active = True
    finally:
        tracer.uninstall()
    assert tm.superquantile is original and est.superquantile is original
    s = tracer.summary()
    roots = s.count("tail_metrics.bpoe")
    assert roots == 1
    assert s.count("tail_metrics.superquantile") == 2 + s.count_inside(
        ("tail_metrics.superquantile",), spans.BPOE_SPANS)
    metrics = spans.layer_metrics(s)
    assert set(metrics) | set(spans.RUN_LEVEL) == {n for n, _, _ in spans.PER_LAYER}
    assert metrics["tail_metrics.sq_calls_per_bpoe"] >= 1


def test_value_checker_accepts_the_reference_and_rejects_a_perturbed_one():
    assert value_error(2.0, 2.0, 1.0) is None
    assert value_error(0.0, 1e-17, 1.0) is None              # judged on the scale
    miss = value_error(2.0 * (1 + 1e-6), 2.0, 1.0)
    assert miss.fault == "wrong" and miss.rel_err == pytest.approx(1e-6)
    assert value_error(float("nan"), 2.0, 1.0) is not None
    assert value_error(float("inf"), 2.0, 1.0) is not None
    assert bpoe_error(0.05, 0.05, True) is None
    assert bpoe_error(0.05 + 1e-9, 0.05, True) is not None
    # level space: a few ulp(1) of slack above the floor ...
    assert bpoe_error(1e-12 + BPOE_ATOL / 2, 1e-12, True) is None
    assert bpoe_error(1e-12 + 2 * BPOE_ATOL, 1e-12, True) is not None
    # ... but not for value-space engines, nor for references below it
    assert bpoe_error(1e-12 + BPOE_ATOL / 2, 1e-12, False) is not None
    assert bpoe_error(1e-20, 5.9e-43, True).rel_err > 1.0
    assert bpoe_error(5.9e-43 * (1 + 1e-9), 5.9e-43, True) is None


def test_known_defect_is_excused_only_while_no_worse():
    known = {"fault": "wrong", "max_rel_err": 5.2e-8}
    assert excused(Miss("m", rel_err=5.2e-8), known)
    assert not excused(Miss("m", rel_err=1e-2), known)
    assert not excused(Miss("m", "raised ValueError"), known)
    assert not excused(Miss("m", rel_err=1e-9), None)
    raised = {"fault": "raised ConvergenceError"}
    assert excused(Miss("m", "raised ConvergenceError"), raised)
    assert not excused(Miss("m", rel_err=0.5), raised)


def test_recorded_known_defects_have_a_fault_and_a_bound():
    known = run.load_json("known_defects.json")
    assert set(known) == set(run.WORKLOADS)
    for cases in known.values():
        for rec in cases.values():
            assert rec["why"] and rec["fault"]
            assert (rec["fault"] == "wrong") == ("max_rel_err" in rec)


@pytest.mark.parametrize("field,kind", [("superquantile", "superquantile"),
                                        ("quantile", "quantile"), ("bpoe", "bpoe")])
def test_perturbed_reference_counts_as_a_failure(field, kind):
    ref = copy.deepcopy(REF)
    row = ref["settings"][0]                              # exponential(lam=1)
    k = ref["alphas"].index(0.9)
    case = f"{row['id']}|alpha=0.9|{'bpoe' if kind == 'bpoe' else kind}"

    def run_case(reference) -> Outcome:
        ops = [op for op in tail_grid.setup(TR, reference, 0, run.ROOT).ops if op.id == case]
        assert len(ops) == 1
        out = Outcome()
        run_ops(ops, out)
        return out

    assert run_case(ref).failures == {}
    row[field][k] *= 1.0 + 1e-6
    assert case in run_case(ref).failures


def test_raised_error_and_bad_output_are_failures():
    def boom():
        raise ValueError("no")

    out = Outcome(known_defects={"x": {"fault": "raised ValueError"},
                                 "w": {"fault": "raised KeyError"}})
    run_ops([Op("x", "k", boom, lambda r: None),
             Op("w", "k", boom, lambda r: None),              # a different error
             Op("y", "k", lambda: 1, lambda r: r["missing"]),
             Op("z", "k", lambda: 1, lambda r: None)], out)
    assert set(out.failures) == {"x", "w", "y"}
    assert out.failed_total == 3 and out.failed_unexpected == 2
    assert len(out.pass_seconds) == 1


def test_deadline_cuts_a_pass_short():
    out = Outcome()
    assert run_ops([Op("a", "k", lambda: 1, lambda r: None)] * 3, out, deadline=0.0) is None
    assert out.records == [] and out.pass_seconds == []


def test_kkt_residual():
    lo, hi = np.zeros(3), np.ones(3)
    w = np.array([0.5, 0.5, 0.0])
    assert apps.kkt_residual(w, np.array([1.0, 1.0, 0.5]), lo, hi) == 0.0
    assert apps.kkt_residual(w, np.array([1.0, 1.0, 1.5]), lo, hi) == pytest.approx(0.5)
    assert apps.kkt_residual(w, np.array([1.0, 0.9, 0.0]), lo, hi) == pytest.approx(0.05)


def test_empirical_superquantile_matches_the_library():
    x = np.random.default_rng(3).standard_normal(101)
    for alpha in (0.0, 0.5, 0.9, 0.99):
        expected = TR.empirical_superquantile(x, alpha)
        assert apps.empirical_superquantile(x, alpha) == pytest.approx(expected, rel=1e-13)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(spans.PER_LAYER)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_one_pass_prints_the_result_line():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "tail-grid", "--seed", "1", "--seconds", "0"])
    assert code == 0
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == {name for name, _, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in last["metrics"].values())
