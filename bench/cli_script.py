"""cli workload: a fixed script of ``python -m tailrisk.cli`` processes.

Only this workload pays interpreter start-up, import, argparse and JSON
costs, and only it reaches the oracle (+ _quad) layer and the array
``sample`` path. One pass runs three bare ``import tailrisk`` probes and
seventeen commands, one process at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import apps
import grid
from common import Kernel, Op, bpoe_error, median, value_error

IMPORT_PROBES = 3
SAMPLE_N = 1000
ORACLE_RTOL = 1e-6
COMMAND_TIMEOUT_S = 120
# the calibration kernel of this workload: a bare interpreter process, which
# follows the host's speed for start-up and imports far better than
# in-process work does
INTERPRETER_REFERENCE_S = 0.07
# asset order of the published tables (the CLI prints weights sorted by name)
MSCI_NAMES = ("MXUS", "MXJP", "MXGB", "MXDE", "MXFR", "MXCH")
_IMPORT_CODE = ("import json, time; t = time.perf_counter(); import tailrisk; "
                "print(json.dumps({'import_s': time.perf_counter() - t, "
                "'file': tailrisk.__file__}))")


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("TAILRISK_SEED", None)
    return env


def _row(ref: dict, setting: str) -> dict:
    return next(r for r in ref["settings"] if r["id"] == setting)


def _payload(result) -> object:
    code, out = result
    if code != 0:
        raise AssertionError(f"exit code {code}")
    return json.loads(out)


def commands(ref: dict, seed: int, sample_path: str) -> list[tuple[str, list[str], object]]:
    """(id, argv, check of the parsed JSON) for each command of the script."""
    alphas = ref["alphas"]
    normal = _row(ref, "normal(mu=0,sigma=1)")
    t3 = _row(ref, "student-t(nu=3,s=1,mu=0)")
    weib = _row(ref, "weibull(lam=2,k=0.8)")
    logn = _row(ref, "lognormal(mu=0,s=1)")
    i90, i95, i99, i999 = (alphas.index(a) for a in (0.9, 0.95, 0.99, 0.999))
    t3_args = ["--family", "student-t", "--nu", "3"]

    def value(ref_value, scale, rtol=1e-9):
        return lambda p: value_error(p["value"], ref_value, scale, rtol)

    def mc_check(ref_value):
        def check(p):
            if abs(p["value"] - ref_value) > 5.0 * p["error_estimate"]:
                return f"MC estimate {p['value']!r} is more than 5 standard errors " \
                       f"({p['error_estimate']:.3g}) from {ref_value!r}"
            return None
        return check

    def table2_check(p):
        weights, ret, sd, lam = apps.TABLE2[("normal", 0.95)]
        w = np.array([p["weights"][name] for name in MSCI_NAMES])
        if np.max(np.abs(w - np.array(weights))) > apps.W_TOL:
            return "weights differ from the published table"
        if abs(p["return"] - ret) > apps.RS_TOL or abs(p["lambda_equiv"] - lam) > apps.LAMBDA_TOL:
            return "return or lambda differ from the published table"
        return value_error(p["objective_value"],
                           ref["zeta"]["normal"]["0.95"] * p["stdev"] - p["return"], 1.0, 1e-10)

    def table3_check(p):
        weights, by_family, ret, sd = apps.TABLE3[0.16]
        w = np.array([p["weights"][name] for name in MSCI_NAMES])
        if np.max(np.abs(w - np.array(weights))) > apps.W_TOL:
            return "weights differ from the published table"
        if abs(p["objective_value"] - by_family["student-t"]) > apps.BPOE_TOL:
            return f"bPOE {p['objective_value']} against published {by_family['student-t']}"
        return None

    def sweep_check(rows):
        for row, alpha in zip(rows, grid.FRONTIER_LEVELS):
            if abs(row["alpha"] - alpha) > 1e-15:
                return f"sweep level {row['alpha']!r}, expected {alpha!r}"
            zeta = ref["zeta"]["normal"][repr(alpha)]
            bad = value_error(row["objective_value"], zeta * row["stdev"] - row["return"],
                              1.0, 1e-10)
            if bad:
                return f"alpha={alpha}: {bad}"
        return None if len(rows) == len(grid.FRONTIER_LEVELS) else f"{len(rows)} rows"

    def fit_check(p):
        if not p["diagnostics"]["converged"]:
            return "fit did not converge"
        for tag in ("mm", "ml"):
            lam, k = p["baselines"][tag]["lam"], p["baselines"][tag]["k"]
            if not (lam > 0 and k > 0 and math.isfinite(lam) and math.isfinite(k)):
                return f"invalid {tag} baseline"
        r = p["residuals"]
        objective = sum(v * v for v in r)
        if abs(p["objective"] - objective) > 1e-9 * max(objective, 1e-12):
            return f"objective {p['objective']!r}, residuals give {objective!r}"
        return None

    def self_test_check(p):
        for name, true in (("lam", 0.5), ("k", 1.4)):
            if abs(p["params"][name] - true) > apps.MOS_TOL * (1.0 + true):
                return f"{name} recovered as {p['params'][name]!r}"
        return None

    x95 = t3["superquantile"][i95]
    x90 = t3["superquantile"][i90]

    def quick_dist(setting: str, flags: list[str], metric: str, k: int, level_space: bool):
        """A dist query on another family: quantile or cvar at level k, or
        bpoe at the reference superquantile there."""
        row = _row(ref, setting)
        alpha = alphas[k]
        if metric == "bpoe":
            x = row["superquantile"][k]
            return (f"dist|{setting}|bpoe|sq({alpha})",
                    ["dist", *flags, "--metric", "bpoe", "--x", repr(x)],
                    lambda p: bpoe_error(p["value"], row["bpoe"][k], level_space))
        field = "superquantile" if metric == "cvar" else metric
        return (f"dist|{setting}|{metric}|{alpha}",
                ["dist", *flags, "--metric", metric, "--alpha", repr(alpha)],
                value(row[field][k], row["iqr"]))

    return [
        quick_dist("gev(mu=1,s=2,xi=0.3)", ["--family", "gev", "--mu", "1", "--s", "2", "--xi", "0.3"],
                   "cvar", i95, False),
        quick_dist("pareto(a=3,xm=1)", ["--family", "pareto", "--a", "3", "--xm", "1"],
                   "bpoe", i90, False),
        quick_dist("loglogistic(a=2,b=3)", ["--family", "loglogistic", "--a", "2", "--b", "3"],
                   "quantile", i99, False),
        quick_dist("laplace(mu=1,b=2)", ["--family", "laplace", "--mu", "1", "--b", "2"],
                   "cvar", i99, False),
        quick_dist("lognormal(mu=0,s=1)", ["--family", "lognormal", "--mu", "0", "--s", "1"],
                   "bpoe", i95, True),
        ("dist|normal|cvar|0.99",
         ["dist", "--family", "normal", "--mu", "0", "--sigma", "1", "--metric", "cvar",
          "--alpha", "0.99"], value(normal["superquantile"][i99], normal["iqr"])),
        ("dist|student-t|bpoe|sq(0.95)", ["dist", *t3_args, "--metric", "bpoe", "--x", repr(x95)],
         lambda p: bpoe_error(p["value"], t3["bpoe"][i95], level_space=True)),
        ("dist|weibull|quantile|0.999",
         ["dist", "--family", "weibull", "--lambda", "2", "--k", "0.8", "--metric", "quantile",
          "--alpha", "0.999"], value(weib["quantile"][i999], weib["iqr"])),
        ("oracle|lognormal|cvar|0.95",
         ["oracle", "--family", "lognormal", "--mu", "0", "--s", "1", "--metric", "cvar",
          "--alpha", "0.95"], value(logn["superquantile"][i95], logn["iqr"], ORACLE_RTOL)),
        ("oracle|student-t|cvar|0.9", ["oracle", *t3_args, "--metric", "cvar", "--alpha", "0.9"],
         value(t3["superquantile"][i90], t3["iqr"], ORACLE_RTOL)),
        ("oracle|student-t|bpoe|sq(0.9)", ["oracle", *t3_args, "--metric", "bpoe", "--x", repr(x90)],
         lambda p: None if abs(p["value"] - t3["bpoe"][i90]) <= ORACLE_RTOL
         else f"got {p['value']!r}, reference {t3['bpoe'][i90]!r}"),
        ("oracle|student-t|mc-cvar|0.9",
         ["oracle", *t3_args, "--metric", "mc-cvar", "--alpha", "0.9", "--seed", str(seed)],
         mc_check(t3["superquantile"][i90])),
        ("portfolio|cvar|normal|0.95",
         ["portfolio", "--objective", "cvar", "--alpha", "0.95", "--family", "normal"],
         table2_check),
        ("portfolio|bpoe|student-t|0.16",
         ["portfolio", "--objective", "bpoe", "--x", "0.16", "--family", "student-t", "--nu", "3"],
         table3_check),
        ("portfolio|cvar|normal|sweep",
         ["portfolio", "--objective", "cvar", "--family", "normal", "--sweep", "0.9:0.99:10"],
         sweep_check),
        ("fit|weibull|sample", ["fit", "--sample", sample_path, "--family", "weibull",
                                "--levels", "0.5,0.75,0.95"], fit_check),
        ("fit|weibull|self-test",
         ["fit", "--self-test", "--family", "weibull", "--lambda", "0.5", "--k", "1.4",
          "--levels", "0.15,0.75", "--method", "mos"], self_test_check),
    ]


def _checked(check):
    return lambda result: check(_payload(result))


class Script:
    """The command list, run as processes (``ops``) or in-process through
    ``tailrisk.cli.main`` (``traced_ops``). ``construct`` builds the cli's
    argument parser and parses every command of the script with it."""

    def __init__(self, tr, ref: dict, seed: int, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.env = child_env(root)
        self.cli = tr.cli
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        sample = 0.5 * np.random.default_rng(seed).weibull(1.4, SAMPLE_N)
        sample_path = os.path.join(out_dir, f"cli-sample-{seed}.csv")
        with open(sample_path, "w") as fh:
            fh.write("value\n" + "".join(f"{float(v)!r}\n" for v in sample))
        script = commands(ref, seed, os.path.relpath(sample_path, root))
        self.ops = [Op(f"import|{i}", "import", lambda: self._subprocess(["-c", _IMPORT_CODE]),
                       self._import_check, value=lambda r: _payload(r)["import_s"],
                       kernel="interpreter")
                    for i in range(IMPORT_PROBES)]
        self.ops += [Op(cid, "command", lambda a=argv: self._subprocess(["-m", "tailrisk.cli", *a]),
                        _checked(check), kernel="interpreter") for cid, argv, check in script]
        self.traced_ops = [Op(cid, "command", lambda a=argv: self._in_process(a), _checked(check))
                           for cid, argv, check in script]
        self.argvs = [argv for _, argv, _ in script]
        self.kernels = {"interpreter": Kernel(lambda: self._subprocess(["-c", "pass"]),
                                              INTERPRETER_REFERENCE_S)}

    def construct(self) -> list:
        parser = self.cli.build_parser()
        return [parser.parse_args(argv) for argv in self.argvs]

    def _subprocess(self, argv: list[str]):
        proc = subprocess.run([sys.executable, *argv], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def _import_check(self, result) -> str | None:
        path = os.path.abspath(_payload(result)["file"])
        if not path.startswith(self.src + os.sep):
            return f"child imported tailrisk from {path}, not from {self.src}"
        return None

    def _in_process(self, argv: list[str]):
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.root)
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        finally:
            os.chdir(cwd)
        return code, buf.getvalue()


def setup(tr, ref: dict, seed: int, root: str) -> Script:
    return Script(tr, ref, seed, root)


def named_metrics(state, outcome) -> dict[str, tuple[float, str]]:
    return {
        "import_s": (median(outcome.values("import")), "s"),
        "cli_p50_s": (median(outcome.op_medians("command")), "s"),
        "cli_script_s": (outcome.median_pass(), "s"),
    }


def end_to_end(named: dict) -> dict[str, float]:
    return {"primary_p50_ms": named["cli_p50_s"][0] * 1e3,
            "secondary_p50_ms": named["import_s"][0] * 1e3,
            "batch_s": named["cli_script_s"][0]}
