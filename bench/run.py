"""tailrisk benchmark: three single-process workloads on pinned, seeded inputs.

    python3 bench/run.py --workload tail-grid|apps|cli|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; tailrisk is imported from ./src and
nowhere else. ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics from
the traced ones. Every output is checked against bench/reference (mpmath
values and the published portfolio tables). Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads; inherited by the cli processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

import apps  # noqa: E402
import cli_script  # noqa: E402
import spans  # noqa: E402
import tail_grid  # noqa: E402
from common import (PYTHON_KERNEL, Op, Outcome, calibrate, environment, excused,  # noqa: E402
                    median, run_ops)

WORKLOADS = {"tail-grid": tail_grid, "apps": apps, "cli": cli_script}
# name, unit, better; each workload defines the first three (see README.md)
END_TO_END = (
    ("primary_p50_ms", "ms", "lower"),
    ("secondary_p50_ms", "ms", "lower"),
    ("batch_s", "s", "lower"),
    ("setup_s", "s", "lower"),
)
SETUPS = 11
SETUP_SECONDS = 1.0


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_tailrisk():
    """Import tailrisk from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tailrisk", "__init__.py")):
        raise SetupError(f"no tailrisk sources under {SRC}")
    sys.path.insert(0, SRC)
    import tailrisk
    import tailrisk.cli  # noqa: F401  (the cli workload calls it in-process)

    if not os.path.abspath(tailrisk.__file__).startswith(SRC + os.sep):
        raise SetupError(f"tailrisk resolved to {tailrisk.__file__}, outside {SRC}")
    return tailrisk


def load_json(name: str):
    path = os.path.join(HERE, "reference", name)
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def warm_up(ops) -> None:
    """One operation of each kind, untimed: first-call imports and caches."""
    seen = set()
    first = [op for op in ops if not (op.kind in seen or seen.add(op.kind))]
    run_ops(first, Outcome())


def shuffled_groups(ops, rng: random.Random) -> list:
    """The pass in a seeded order of groups; a group is the operations that
    share the first field of their id (one distribution, one data set, one
    subcommand) and keeps its own order, as a user sweeping levels would."""
    groups: dict[str, list] = {}
    for op in ops:
        groups.setdefault(op.id.split("|", 1)[0], []).append(op)
    keys = list(groups)
    rng.shuffle(keys)
    return [op for key in keys for op in groups[key]]


def time_setup(construct, outcome: Outcome) -> None:
    """Repeat the workload's tailrisk-side construction, each one timed as
    an operation of kind ``setup``, for SETUP_SECONDS and at least SETUPS
    times, with the garbage collector off."""
    op = Op("setup", "setup", construct, lambda result: None)
    start = time.perf_counter()
    done = 0
    while done < SETUPS or time.perf_counter() - start < SETUP_SECONDS:
        run_ops([op], outcome)
        done += 1
    calibrate(outcome, force=True)


def measure(workload: str, tr, ref: dict, known: dict, seed: int, seconds: float) -> dict:
    """End-to-end run: time the set-up, then whole passes in a seeded order
    until ``seconds`` have gone by (the last pass may stop early; its
    operations still count). Every time is scaled to the reference host
    speed by the calibration kernel times taken around it."""
    mod = WORKLOADS[workload]
    state = mod.setup(tr, ref, seed, ROOT)
    outcome = Outcome(known_defects=known, kernels=state.kernels)
    setup = Outcome(kernels={"python": PYTHON_KERNEL})
    time_setup(state.construct, setup)
    warm_up(state.ops)
    order = random.Random(seed)
    deadline = time.perf_counter() + seconds
    while not outcome.pass_seconds or time.perf_counter() < deadline:
        ops = shuffled_groups(state.ops, order)
        if run_ops(ops, outcome, deadline=deadline if outcome.pass_seconds else None) is None:
            break
    calibrate(outcome, force=True)
    setup.to_reference_speed()
    factor = outcome.to_reference_speed()
    named = mod.named_metrics(state, outcome)
    named["setup_s"] = (median(setup.times("setup")), "s")
    named["host_factor"] = (factor, "ratio")
    metrics = dict(mod.end_to_end(named), setup_s=named["setup_s"][0])
    units = {name: unit for name, unit, _ in END_TO_END}
    return {"outcome": outcome, "named": named,
            "metrics": {k: (metrics[k], units[k]) for k, _, _ in END_TO_END}}


def measure_traced(workload: str, tr, ref: dict, known: dict, seed: int,
                   seconds: float) -> dict:
    """Traced run: pairs of whole passes, untraced then traced, until
    ``seconds`` have gone by. Counts come from the first traced pass and
    must repeat in the others; times are medians over the traced passes.
    Times here are raw, not scaled to the reference host speed."""
    state = WORKLOADS[workload].setup(tr, ref, seed, ROOT)
    ops = state.traced_ops or state.ops
    warm_up(ops)
    outcome = Outcome(known_defects=known)
    tracer = spans.Tracer()
    passes, ratios, main_times, overheads = [], [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if state.traced_ops:
            # the same commands as processes: wall time minus in-process time
            procs = Outcome()
            run_ops(state.ops, procs)
        plain = Outcome(known_defects=known)
        untraced = run_ops(ops, plain)
        outcome.merge(plain)
        tracer.clear()
        tracer.install(tr)
        try:
            traced = run_ops(ops, outcome, tracer)
        finally:
            tracer.uninstall()
        passes.append(spans.layer_metrics(tracer.summary()))
        ratios.append(traced / untraced)
        if state.traced_ops:
            outcome.merge(procs)
            inproc = {r.id: r.seconds for r in plain.records}
            main_times.append(median(list(inproc.values())))
            overheads.append(median([r.seconds - inproc[r.id] for r in procs.records
                                     if r.id in inproc]))
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"trace-{workload}-{seed}.npz"),
                {"workload": workload, "seed": seed})
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    metrics = {}
    unsteady = []
    for name, unit, _ in spans.PER_LAYER:
        if name in spans.RUN_LEVEL:
            continue
        values = [p[name] for p in passes]
        if unit == "count" and len(set(values)) > 1:
            unsteady.append(name)
        metrics[name] = values[0] if unit == "count" else median(values)
    metrics["cli.main_s"] = median(main_times) if main_times else 0.0
    metrics["cli.process_overhead_s"] = median(overheads) if overheads else 0.0
    metrics["trace.overhead_ratio"] = median(ratios)
    return {"outcome": outcome, "named": {}, "unsteady": unsteady,
            "metrics": {k: (metrics[k], units[k]) for k, _, _ in spans.PER_LAYER}}


def report(workload: str, result: dict) -> list[str]:
    """Human-readable lines: metrics by name, then every failing case."""
    out = result["outcome"]
    lines = [f"== {workload}: {out.attempted} operations in "
             f"{len(out.pass_seconds)} passes"]
    for name, (value, unit) in {**result["named"], **result["metrics"]}.items():
        lines.append(f"   {name:<48} {value:.6g} {unit}")
    fail_ratio = out.failed_total / out.attempted
    lines.append(f"   {'fail_ratio':<48} {fail_ratio:.6g} "
                 f"({out.failed_total} of {out.attempted} failed or wrong)")
    for case, miss in sorted(out.failures.items()):
        known = out.known_defects.get(case)
        if known is None:
            tag = "FAILED"
        elif excused(miss, known):
            tag = "known defect"
        else:
            tag = f"FAILED (known defect, worse than recorded {_recorded(known)})"
        lines.append(f"   {tag}: {case}: {miss}")
    for case in sorted(set(out.known_defects) - set(out.failures)):
        lines.append(f"   known defect now passes: {case}")
    for name in result.get("unsteady", ()):
        lines.append(f"   WARNING: per-layer count {name} differs between traced passes")
    return lines


def _recorded(known: dict) -> str:
    limit = known.get("max_rel_err")
    return known["fault"] + (f", rel err <= {limit:.2g}" if limit is not None else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        tr = load_tailrisk()
        ref = load_json("reference.json")
        known = load_json("known_defects.json")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("# environment " + json.dumps(environment(ROOT), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = measure_traced if args.trace else measure
        results[name] = run(name, tr, ref, known[name], args.seed, args.seconds)
        for line in report(name, results[name]):
            print(line)
    outcomes = [r["outcome"] for r in results.values()]
    unexpected = sum(o.failed_unexpected for o in outcomes)
    if args.workload == "all":
        metrics = {}
        for name, r in results.items():
            o = r["outcome"]
            for key, (value, unit) in {**r["named"], **r["metrics"]}.items():
                metrics[f"{name}.{key}"] = {"value": value, "unit": unit}
            metrics[f"{name}.fail_ratio"] = {"value": o.failed_total / o.attempted,
                                             "unit": "ratio"}
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in results[args.workload]["metrics"].items()}
    print(json.dumps({"correct": unexpected == 0,
                      "attempted": sum(o.attempted for o in outcomes),
                      "failed": unexpected,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
