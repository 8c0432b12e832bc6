"""Arithmetic and bookkeeping shared by the workloads.

Nothing here imports tailrisk: percentiles, tolerance checks, the operation
runner, the record of what failed, and the host-speed calibration.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# Host-speed calibration. On a shared host the same code runs at speeds up
# to 1.6x apart that switch within seconds, which moves every raw time
# together, though not by the same factor for all kinds of work. Fixed
# kernels that do not touch tailrisk, one per kind of work, are timed
# between operations, and each operation's time is scaled by the times of
# its kind's kernel around it to the reference speed (see ``Kernel``).
CALIBRATION_EVERY_S = 0.05
CALIBRATION_NEIGHBOURS = 3      # kernel times taken on each side of an operation

# bPOE values from a level-space engine are 1 - alpha, so they carry an
# absolute error of a few units of binary64 resolution at 1. Below
# BPOE_ATOL_FLOOR that slack would accept any value, so there, and for
# value-space engines, only the relative tolerance applies.
BPOE_ATOL = 4.0 * 2.0 ** -52
BPOE_ATOL_FLOOR = 1e-15
BPOE_RTOL = 1e-8
# quantiles and superquantiles: relative to max(|reference|, interquartile
# range), so values that cross zero are judged on the distribution's scale
VALUE_RTOL = 1e-9


def percentile(values: list[float], q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty list")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was measured (den == 0)."""
    return num / den if den else 0.0


@dataclass(frozen=True)
class Miss:
    """Why an operation failed. ``fault`` classifies it (``wrong`` for a
    value off its reference, ``raised <Error>``, ``clamped``, ...) and
    ``rel_err`` is a wrong value's relative error; a known defect is
    excused only while its fault and error are no worse than recorded."""

    message: str
    fault: str = "wrong"
    rel_err: float | None = None

    def __str__(self) -> str:
        return self.message


def value_error(got: float, ref: float, scale: float, rtol: float = VALUE_RTOL) -> Miss | None:
    """None when got matches ref, else the miss and its relative error."""
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return Miss(f"returned {type(got).__name__}, expected a number", "malformed")
    if math.isinf(ref) or math.isinf(got):
        return None if got == ref else Miss(f"got {got!r}, reference {ref!r}", rel_err=math.inf)
    if math.isnan(got):
        return Miss(f"got nan, reference {ref!r}", rel_err=math.inf)
    err = abs(got - ref)
    if err <= rtol * max(abs(ref), scale):
        return None
    rel = err / max(abs(ref), scale, 1e-300)
    return Miss(f"got {got!r}, reference {ref!r} (rel err {rel:.2e})", rel_err=rel)


def bpoe_error(got: float, ref: float, level_space: bool) -> Miss | None:
    """``level_space``: the engine returns 1 - alpha (``bpoe_by_root``)."""
    if not isinstance(got, float) or math.isnan(got):
        return Miss(f"got {got!r}, reference {ref!r}", "malformed")
    err = abs(got - ref)
    atol = BPOE_ATOL if level_space and ref >= BPOE_ATOL_FLOOR else 0.0
    if err <= BPOE_RTOL * ref + atol:
        return None
    rel = err / ref if ref > 0.0 else math.inf
    return Miss(f"got {got!r}, reference {ref!r} (rel err {rel:.2e})", rel_err=rel)


def excused(miss: Miss, known: dict | None) -> bool:
    """A known defect excuses a miss of the recorded fault whose relative
    error, if one was recorded, is no larger than the recorded one."""
    if known is None or miss.fault != known["fault"]:
        return False
    limit = known.get("max_rel_err")
    return limit is None or (miss.rel_err is not None and miss.rel_err <= limit)


@dataclass
class Op:
    """One timed call into the library and the check of its result.

    ``fn`` is the only thing timed. ``check`` gets its result and returns
    None or a failure (a ``Miss`` or a message); a raised exception is a
    failure too.
    """

    id: str
    kind: str
    fn: Callable[[], Any]
    check: Callable[[Any], Miss | str | None]
    value: Callable[[Any], float] | None = None   # a quantity the result reports
    kernel: str = "python"                        # the calibration kernel that scales it


@dataclass
class Record:
    id: str
    kind: str
    seconds: float
    error: Miss | None
    value: float | None = None
    start: float = 0.0      # perf_counter at the call
    kernel: str = "python"


@dataclass
class State:
    """A workload's set-up: the operations of one pass.

    ``construct`` repeats the tailrisk-side construction the operations use
    (distributions, universes, problems, parsers); ``setup_s`` times it.
    ``kernels`` are the calibration kernels the operations name.
    ``traced_ops`` replaces ``ops`` in traced passes when the two differ
    (the cli workload traces its commands in-process).
    """

    ops: list[Op]
    construct: Callable[[], Any]
    kernels: dict[str, "Kernel"]
    traced_ops: list[Op] | None = None


@dataclass
class Outcome:
    """Everything a run measured, across its passes."""

    known_defects: dict[str, dict] = field(default_factory=dict)
    records: list[Record] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    failures: dict[str, Miss] = field(default_factory=dict)
    kernels: dict[str, "Kernel"] | None = None     # None: no calibration
    # kernel name -> (perf_counter when it ran, its time), in time order
    calibration: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    _last_calibration: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed_total(self) -> int:
        return sum(1 for r in self.records if r.error is not None)

    @property
    def failed_unexpected(self) -> int:
        return sum(1 for r in self.records if r.error is not None
                   and not excused(r.error, self.known_defects.get(r.id)))

    def merge(self, other: "Outcome") -> None:
        """Add another pass's records and failures (not its pass time)."""
        self.records += other.records
        for case, why in other.failures.items():
            self.failures.setdefault(case, why)

    def times(self, kind: str) -> list[float]:
        return [r.seconds for r in self.records if r.kind == kind]

    def values(self, kind: str) -> list[float]:
        return [r.value for r in self.records if r.kind == kind and r.value is not None]

    def _by_op(self, keep: Callable[[Record], bool]) -> dict[str, list[float]]:
        per_op: dict[str, list[float]] = {}
        for r in self.records:
            if keep(r):
                per_op.setdefault(r.id, []).append(r.seconds)
        return per_op

    def op_medians(self, kind: str, part: str = "") -> list[float]:
        """Each operation's median time over the run, for the operations of
        ``kind`` whose id contains ``part``. A p50 taken over these counts
        every operation once, however many passes reached it, and is not
        moved by one slow call."""
        return [median(t) for t in self._by_op(lambda r: r.kind == kind and part in r.id).values()]

    def median_pass(self, prefix: str = "") -> float:
        """Time of one pass (over operations whose id starts with prefix)
        built from each operation's median time, which keeps a burst of
        host noise in one pass from moving the total."""
        return sum(median(t) for t in self._by_op(lambda r: r.id.startswith(prefix)).values())

    def to_reference_speed(self) -> float:
        """Scale every record's time (and reported value) by the times of
        its kernel taken just before and just after it; returns the run's
        median factor, for the report."""
        series = {name: ([w for w, _ in runs], [k for _, k in runs])
                  for name, runs in self.calibration.items()}
        factors = []
        for r in self.records:
            whens, kernel = series[r.kernel]
            lo = bisect.bisect_left(whens, r.start)
            hi = bisect.bisect_right(whens, r.start + r.seconds)
            near = kernel[max(0, lo - CALIBRATION_NEIGHBOURS):lo] + \
                kernel[hi:hi + CALIBRATION_NEIGHBOURS]
            factor = self.kernels[r.kernel].reference_s / median(near)
            r.seconds *= factor
            if r.value is not None:
                r.value *= factor
            factors.append(factor)
        return median(factors)


@dataclass(frozen=True)
class Kernel:
    """Fixed work that does not touch tailrisk, timed between operations.
    Times are scaled to the reference speed, at which ``run`` takes
    ``reference_s``; a change to tailrisk moves the metrics, not the kernel."""

    run: Callable[[], Any]
    reference_s: float

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b


def _beta_cf(a: float, b: float, x: float) -> float:
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 40):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 / (1.0 + aa * d)
            c = 1.0 + aa / c
            h *= d * c
    return h * math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x))


def _python_work() -> None:
    """Interpreter work like tailrisk's scalar code: float loops, math
    calls, attribute access, sorting, JSON."""
    pairs = [_Pair(0.5 + 0.1 * i, 0.5) for i in range(12)]
    total = 0.0
    for _ in range(2):
        for p in pairs:
            total += _beta_cf(p.a, p.b, 0.3)
        total += len(json.dumps({"k": [1.5, 2.5, {"z": "abc"}]}))
        total += sorted(pairs, key=lambda q: -q.a)[0].a
    if not math.isfinite(total):
        raise ArithmeticError("calibration kernel diverged")


_RNG = np.random.default_rng(0)
_M = _RNG.random((25, 25))
_COV = _M @ _M.T
_W0 = _RNG.random(25)


def _numpy_work() -> None:
    """Small-array numpy calls like tailrisk's portfolio solvers: a
    projected ascent on a 25-asset quadratic form."""
    w = _W0.copy()
    for _ in range(60):
        g = _COV @ w
        s = float(np.sqrt(w @ g))
        w = np.clip(w + 1e-3 * (g / s - w.mean()), 0.0, 1.0)
        w /= w.sum()


PYTHON_KERNEL = Kernel(_python_work, 1e-3)
NUMPY_KERNEL = Kernel(_numpy_work, 1.5e-3)


def calibrate(outcome: Outcome, force: bool = False) -> None:
    """Time every kernel when CALIBRATION_EVERY_S has gone by (or ``force``)."""
    if not outcome.kernels:
        return
    if force or time.perf_counter() - outcome._last_calibration >= CALIBRATION_EVERY_S:
        for name, kernel in outcome.kernels.items():
            outcome.calibration.setdefault(name, []).append(
                (time.perf_counter(), kernel.seconds()))
        outcome._last_calibration = time.perf_counter()


def run_ops(ops: list[Op], outcome: Outcome, tracer=None,
            deadline: float | None = None) -> float | None:
    """Run one pass; returns the summed time spent inside the program, or
    None when ``deadline`` (a perf_counter value) cut the pass short.

    Checks run outside the timed region and, in a traced pass, with the
    tracer paused, so they add neither time nor spans. The garbage
    collector runs between passes only, as in ``timeit``.
    """
    gc.collect()
    gc.disable()
    try:
        return _run_pass(ops, outcome, tracer, deadline)
    finally:
        gc.enable()


def _run_pass(ops, outcome, tracer, deadline) -> float | None:
    total = 0.0
    for op in ops:
        calibrate(outcome)
        if deadline is not None and time.perf_counter() >= deadline:
            return None
        t0 = time.perf_counter()
        try:
            result = op.fn()
            error = None
        except Exception as exc:  # a raised error is a failed operation
            result = None
            error = Miss(f"raised {type(exc).__name__}: {exc}", f"raised {type(exc).__name__}")
        dt = time.perf_counter() - t0
        total += dt
        value = None
        if error is None:
            if tracer is not None:
                tracer.active = False
            try:
                error = op.check(result)
                if isinstance(error, str):
                    error = Miss(error)
                if error is None and op.value is not None:
                    value = op.value(result)
            except Exception as exc:  # malformed output is a failed operation
                error = Miss(f"check raised {type(exc).__name__}: {exc}", "malformed")
            finally:
                if tracer is not None:
                    tracer.active = True
        outcome.records.append(Record(op.id, op.kind, dt, error, value, t0, op.kernel))
        if error is not None:
            outcome.failures.setdefault(op.id, error)
    outcome.pass_seconds.append(total)
    return total


def environment(root: str) -> dict[str, Any]:
    """Versions and machine facts recorded with every run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit,
    }
