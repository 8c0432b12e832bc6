"""Command-line interface.

Four subcommands tie the library together:

  dist        tail metrics and elementary evaluators for one distribution
  oracle      quadrature / Monte-Carlo verification of the closed forms
  portfolio   minimal-CVaR and minimal-bPOE portfolios from asset CSVs
  fit         superquantile-based density estimation (MOS / LS-MOS)

All probabilities and returns are fractions. Output is JSON (sorted keys,
non-finite numbers rendered as "inf"/"-inf"/"nan") or CSV via --format;
--out redirects to a file. Exit codes: 0 success, 1 input error, 2
domain or numeric error.

The dist and oracle quadrature commands run without numpy: each handler
imports the library module it needs, and numpy loads with ``portfolio``,
``estimation``, sampling or a sweep or curve grid.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import TYPE_CHECKING

from . import tail_metrics
from .distributions import FAMILIES, make
from .errors import ParameterError, TailRiskError, _require

if TYPE_CHECKING:
    from . import portfolio

# flag -> parameter, one per name the families take; lam is --lambda
_PARAM_FLAGS = {"lambda" if name == "lam" else name: name
                for cls in FAMILIES.values() for name in cls._fields}


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("distribution parameters")
    for flag, dest in _PARAM_FLAGS.items():
        group.add_argument(f"--{flag}", dest=f"param_{dest}", type=float,
                           default=None, help=f"family parameter {dest}")


def _collect_params(args: argparse.Namespace) -> dict[str, float]:
    return {dest: getattr(args, f"param_{dest}")
            for dest in _PARAM_FLAGS.values()
            if getattr(args, f"param_{dest}") is not None}


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write output to a file")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    np = sys.modules.get("numpy")   # no numpy scalar exists before numpy loads
    if np is not None and isinstance(obj, (np.floating, np.integer)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_flatten(obj[k], f"{prefix}{k}."))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


def _emit(payload, args) -> None:
    if args.format == "json":
        text = json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        if isinstance(payload, list):   # table of homogeneous dicts
            headers = list(payload[0].keys())
            writer.writerow(headers)
            for row in payload:
                writer.writerow([_sanitize(row[h]) for h in headers])
        else:
            writer.writerow(["key", "value"])
            for key, value in _flatten(_sanitize(payload)):
                writer.writerow([key, value])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_sample(path: str) -> tuple[float, ...]:
    values = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                cell = cell.strip()
                if not cell:
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    if values:
                        raise ParameterError(f"non-numeric sample entry {cell!r}")
                    # header line: skip
                    break
    if not values:
        raise ParameterError(f"no sample values found in {path}")
    return tuple(values)


def _parse_float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ParameterError(f"could not parse {what} list {text!r}") from exc


# --- subcommands ------------------------------------------------------------

def _cmd_dist(args) -> int:
    d = make(args.family, **_collect_params(args))
    metric = args.metric
    if metric in ("pdf", "cdf", "bpoe") and args.x is None:
        raise ParameterError(f"metric {metric} requires --x")
    if metric in ("quantile", "cvar") and args.alpha is None:
        raise ParameterError(f"metric {metric} requires --alpha")
    if metric == "cvar":
        value = tail_metrics.superquantile(d, args.alpha)
        q_star = d.quantile(args.alpha) if args.alpha > 0.0 else d.support().lower
        payload = {"metric": "cvar", "value": value,
                   "alpha_star": args.alpha, "quantile_star": q_star}
    elif metric == "bpoe":
        payload = tail_metrics.bpoe(d, args.x).to_json("bpoe")
    elif metric in ("pdf", "cdf"):
        payload = {"metric": metric, "value": getattr(d, metric)(args.x)}
    elif metric == "quantile":
        payload = {"metric": "quantile", "value": d.quantile(args.alpha)}
    else:   # mean or variance
        payload = {"metric": metric, "value": getattr(d, metric)()}
    _emit(payload, args)
    return 0


def _cmd_oracle(args) -> int:
    from . import oracle
    d = make(args.family, **_collect_params(args))
    cfg = oracle.OracleConfig(quad_abs_tol=args.atol, mc_samples=args.samples,
                              seed=args.seed)
    if args.metric == "cvar":
        if args.alpha is None:
            raise ParameterError("oracle cvar requires --alpha")
        result = oracle.oracle_superquantile(d, args.alpha, cfg).to_json()
    elif args.metric == "bpoe":
        if args.x is None:
            raise ParameterError("oracle bpoe requires --x")
        result = oracle.oracle_bpoe(d, args.x, cfg).to_json()
    else:
        if args.alpha is None:
            raise ParameterError("oracle mc-cvar requires --alpha")
        estimate, stderr = oracle.mc_superquantile(d, args.alpha, cfg)
        result = {"value": estimate, "error_estimate": stderr}
    _emit(result, args)
    return 0


def _qualified_family(args) -> portfolio.QualifiedFamily:
    from . import portfolio
    kwargs = {}
    if args.family in ("student-t", "t"):
        kwargs["nu"] = args.nu
    if args.family == "gev":
        kwargs["xi"] = args.gev_xi
    return portfolio.QualifiedFamily(args.family, **kwargs)


def _parse_sweep(text: str) -> tuple[float, float, int]:
    """START:STOP:COUNT with COUNT an integer >= 1."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ParameterError(f"--sweep expects START:STOP:COUNT, got {text!r}") from exc
    _require(count, "--sweep COUNT must be at least 1, got {}", 1.0)
    return start, stop, count


def _cmd_portfolio(args) -> int:
    from . import portfolio
    if args.assets:
        universe = portfolio.AssetUniverse.from_csv(args.assets, args.correlations)
    else:
        universe = portfolio.AssetUniverse.bundled()
    family = _qualified_family(args)
    if args.sweep:
        import numpy as np
        grid = np.linspace(*_parse_sweep(args.sweep))
        rows = portfolio.efficient_frontier(universe, family, args.objective, grid,
                                            lower=args.lower, upper=args.upper)
        _emit(rows, args)
        return 0
    if args.objective == "cvar":
        if args.alpha is None:
            raise ParameterError("cvar objective requires --alpha")
        problem = portfolio.PortfolioProblem(universe, "cvar", level=args.alpha,
                                             lower=args.lower, upper=args.upper)
        report = portfolio.min_cvar_portfolio(problem, family)
    else:
        if args.x is None:
            raise ParameterError("bpoe objective requires --x")
        problem = portfolio.PortfolioProblem(universe, "bpoe", threshold=args.x,
                                             lower=args.lower, upper=args.upper)
        report = portfolio.min_bpoe_portfolio(problem, family)
    _emit(report.to_json(), args)
    return 0


def _cmd_fit(args) -> int:
    from . import estimation
    levels = _parse_float_list(args.levels, "levels")
    weights = _parse_float_list(args.weights, "weights") if args.weights else ()
    shifts = _parse_float_list(args.shifts, "shifts") if args.shifts else ()
    if args.self_test:
        d = make(args.family, **_collect_params(args))
        targets = tuple(tail_metrics.superquantile(d, a) for a in levels)
        problem = estimation.FitProblem(args.family, levels, weights=weights,
                                        shifts=shifts, targets=targets)
    else:
        if not args.sample:
            raise ParameterError("fit requires --sample PATH (or --self-test)")
        sample = _read_sample(args.sample)
        problem = estimation.FitProblem(args.family, levels, weights=weights,
                                        shifts=shifts, sample=sample)
    if args.method == "mos":
        result = estimation.mos_solve(problem)
    else:
        result = estimation.ls_mos_fit(problem)
    payload = result.to_json()
    if not args.self_test and args.family.lower() == "weibull":
        payload["baselines"] = estimation.reference_fits(problem.sample)
    _emit(payload, args)
    if args.curve_out:
        _write_pdf_curve(result, payload.get("baselines"), args.curve_out)
    return 0


def _write_pdf_curve(result, baselines, path: str) -> None:
    import numpy as np
    fitted = result.distribution()
    lo = fitted.quantile(0.001)
    hi = fitted.quantile(0.995)
    xs = np.linspace(lo, hi, 200)
    headers = ["x", "fitted_pdf"]
    columns = [lambda v: fitted.pdf(v)]
    if baselines:
        for tag in sorted(baselines):
            dist = make(result.family, **baselines[tag])
            headers.append(f"{tag}_pdf")
            columns.append(lambda v, dd=dist: dd.pdf(v))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for v in xs:
            writer.writerow([float(v)] + [col(float(v)) for col in columns])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailrisk",
        description="Tail-risk analytics: superquantile (CVaR), bPOE, "
                    "portfolio optimization, and superquantile density fitting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="evaluate a metric for one distribution")
    p_dist.add_argument("--family", required=True, choices=sorted(FAMILIES))
    _add_param_flags(p_dist)
    p_dist.add_argument("--metric", required=True,
                        choices=("pdf", "cdf", "quantile", "cvar", "bpoe",
                                 "mean", "variance"))
    p_dist.add_argument("--x", type=float, default=None, help="evaluation point")
    p_dist.add_argument("--alpha", type=float, default=None, help="probability level")
    _add_io_flags(p_dist)
    p_dist.set_defaults(func=_cmd_dist)

    p_oracle = sub.add_parser("oracle", help="independent numeric verification")
    p_oracle.add_argument("--family", required=True, choices=sorted(FAMILIES))
    _add_param_flags(p_oracle)
    p_oracle.add_argument("--metric", required=True, choices=("cvar", "bpoe", "mc-cvar"))
    p_oracle.add_argument("--x", type=float, default=None)
    p_oracle.add_argument("--alpha", type=float, default=None)
    p_oracle.add_argument("--atol", type=float, default=1e-10,
                          help="quadrature absolute tolerance")
    p_oracle.add_argument("--samples", type=int, default=100_000,
                          help="Monte-Carlo sample count")
    p_oracle.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")
    _add_io_flags(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_port = sub.add_parser("portfolio", help="solve a tail-objective portfolio")
    p_port.add_argument("--assets", default=None,
                        help="assets CSV (name, expected_return, stdev); "
                             "bundled MSCI data when omitted")
    p_port.add_argument("--correlations", default=None,
                        help="square correlations CSV with name header row/column")
    p_port.add_argument("--objective", required=True, choices=("cvar", "bpoe"))
    p_port.add_argument("--alpha", type=float, default=None, help="CVaR level")
    p_port.add_argument("--x", type=float, default=None, help="bPOE loss threshold")
    p_port.add_argument("--family", required=True,
                        choices=("normal", "laplace", "logistic", "student-t", "t", "gev"))
    p_port.add_argument("--nu", type=float, default=3.0, help="student-t degrees of freedom")
    p_port.add_argument("--gev-xi", type=float, default=0.1, help="gev shape, in (-86.178, 1/2)")
    p_port.add_argument("--lower", type=float, default=0.0, help="per-asset lower bound")
    p_port.add_argument("--upper", type=float, default=1.0, help="per-asset upper bound")
    p_port.add_argument("--sweep", default=None,
                        help="frontier sweep START:STOP:COUNT over alpha or x")
    _add_io_flags(p_port)
    p_port.set_defaults(func=_cmd_portfolio)

    p_fit = sub.add_parser("fit", help="fit a family by matching superquantiles")
    p_fit.add_argument("--sample", default=None, help="single-column sample CSV")
    p_fit.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p_fit.add_argument("--levels", required=True, help="comma-separated levels")
    p_fit.add_argument("--weights", default=None, help="comma-separated weights")
    p_fit.add_argument("--shifts", default=None,
                       help="comma-separated conservative shifts")
    p_fit.add_argument("--method", choices=("mos", "ls"), default="ls")
    p_fit.add_argument("--self-test", action="store_true",
                       help="fit exact targets generated from the given parameters")
    _add_param_flags(p_fit)
    p_fit.add_argument("--curve-out", default=None,
                       help="write a pdf-curve CSV for plotting")
    _add_io_flags(p_fit)
    p_fit.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TailRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
