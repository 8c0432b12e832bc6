import csv
import json
import math

import pytest

from tailrisk import cli
from tailrisk import distributions as dist
from tailrisk import estimation as est
from tailrisk import tail_metrics as tm
from tailrisk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_dist_bpoe_at_mean(capsys):
    payload = run_json(capsys, "dist", "--family", "exponential", "--lambda", "1",
                       "--metric", "bpoe", "--x", "1")
    assert payload["value"] == 1.0
    assert payload["metric"] == "bpoe"


def test_dist_bpoe_at_mean_of_a_root_family(capsys):
    code, out, err = run(capsys, "dist", "--family", "normal", "--mu", "0", "--sigma", "1",
                         "--metric", "bpoe", "--x", "0")
    assert code == 0, err
    assert json.loads(out)["alpha_star"] == 0.0 and "-0.0" not in out


def test_dist_weibull_cvar_matches_library(capsys):
    payload = run_json(capsys, "dist", "--family", "weibull", "--lambda", "0.5",
                       "--k", "1.4", "--metric", "cvar", "--alpha", "0.9")
    expected = tm.superquantile(dist.Weibull(0.5, 1.4), 0.9)
    assert abs(payload["value"] - expected) <= 1e-10


def test_dist_infinite_mean_renders_inf(capsys):
    payload = run_json(capsys, "dist", "--family", "pareto", "--a", "0.5",
                       "--xm", "1", "--metric", "cvar", "--alpha", "0.9")
    assert payload["value"] == "inf"


def test_dist_malformed_params_exit_1(capsys):
    code, _, err = run(capsys, "dist", "--family", "pareto", "--a", "-1",
                       "--xm", "1", "--metric", "mean")
    assert code == 1
    assert "a > 0" in err


def test_dist_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "dist", "--family", "normal", "--mu", "0",
                       "--sigma", "1", "--metric", "cvar", "--alpha", "1.5")
    assert code == 2


def test_oracle_cvar(capsys):
    payload = run_json(capsys, "oracle", "--family", "exponential", "--lambda", "1",
                       "--metric", "cvar", "--alpha", "0.5")
    assert abs(payload["value"] - (math.log(2.0) + 1.0)) <= 1e-7
    assert payload["error_estimate"] <= 1e-6


def test_oracle_mc_deterministic(capsys):
    args = ("oracle", "--family", "normal", "--mu", "0", "--sigma", "1",
            "--metric", "mc-cvar", "--alpha", "0.9", "--samples", "20000",
            "--seed", "5")
    assert run_json(capsys, *args) == run_json(capsys, *args)


def test_seed_is_an_oracle_option_only(capsys):
    # only the Monte-Carlo oracle draws samples; elsewhere --seed is unknown
    code, _, err = run(capsys, "dist", "--family", "normal", "--mu", "0", "--sigma", "1",
                       "--metric", "mean", "--seed", "1")
    assert code == 1
    assert "--seed" in err


def test_portfolio_bundled_bpoe(capsys):
    payload = run_json(capsys, "portfolio", "--objective", "bpoe", "--x", "0.16",
                       "--family", "normal")
    assert abs(payload["objective_value"] - 0.0513) <= 1e-3
    assert abs(sum(payload["weights"].values()) - 1.0) <= 1e-9


def test_portfolio_bundled_cvar_laplace(capsys):
    payload = run_json(capsys, "portfolio", "--objective", "cvar", "--alpha", "0.95",
                       "--family", "laplace")
    w = payload["weights"]
    printed = {"MXUS": 0.6505, "MXJP": 0.0897, "MXGB": 0.0, "MXDE": 0.0194,
               "MXFR": 0.0, "MXCH": 0.2404}
    for name, value in printed.items():
        assert abs(w[name] - value) <= 5e-3


def test_portfolio_single_asset(tmp_path, capsys):
    assets = tmp_path / "one.csv"
    assets.write_text("name,expected_return,stdev,SOLO\nSOLO,0.08,0.2,1\n")
    for objective, flag, value in (("cvar", "--alpha", "0.95"), ("bpoe", "--x", "0.3")):
        payload = run_json(capsys, "portfolio", "--assets", str(assets),
                           "--objective", objective, flag, value,
                           "--family", "normal")
        assert payload["weights"]["SOLO"] == pytest.approx(1.0, abs=1e-9)


def test_portfolio_dimension_mismatch_exit_1(tmp_path, capsys):
    assets = tmp_path / "a.csv"
    assets.write_text("name,expected_return,stdev\nA,0.1,0.2\nB,0.08,0.15\n")
    corr = tmp_path / "c.csv"
    corr.write_text(",A\nA,1\n")
    code, _, err = run(capsys, "portfolio", "--assets", str(assets),
                       "--correlations", str(corr), "--objective", "cvar",
                       "--alpha", "0.95", "--family", "normal")
    assert code == 1


def test_portfolio_infeasible_bounds_exit_2(capsys):
    code, _, err = run(capsys, "portfolio", "--objective", "cvar", "--alpha", "0.95",
                       "--family", "normal", "--upper", "0.1")
    assert code == 2
    assert "infeasible" in err


def test_portfolio_sweep_csv(tmp_path, capsys):
    out = tmp_path / "frontier.csv"
    code, _, err = run(capsys, "portfolio", "--objective", "cvar",
                       "--family", "normal", "--sweep", "0.9:0.99:4",
                       "--format", "csv", "--out", str(out))
    assert code == 0, err
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert float(rows[0]["alpha"]) == 0.9
    assert {"return", "stdev", "MXUS"} <= set(rows[0])


def test_fit_self_test_recovers(capsys):
    payload = run_json(capsys, "fit", "--self-test", "--family", "weibull",
                       "--lambda", "0.5", "--k", "1.4", "--levels", "0.15,0.75",
                       "--method", "mos")
    assert abs(payload["params"]["lam"] - 0.5) <= 1e-6
    assert abs(payload["params"]["k"] - 1.4) <= 1e-6


def test_fit_sample_with_baselines(tmp_path, capsys):
    import numpy as np
    x = dist.Weibull(0.5, 1.4).sample(200, np.random.default_rng(2))
    path = tmp_path / "sample.csv"
    path.write_text("value\n" + "\n".join(f"{v:.9f}" for v in x) + "\n")
    curve = tmp_path / "curve.csv"
    payload = run_json(capsys, "fit", "--sample", str(path), "--family", "weibull",
                       "--levels", "0.5,0.75,0.95", "--curve-out", str(curve))
    assert {"mm", "ml"} <= set(payload["baselines"])
    with open(curve) as fh:
        rows = list(csv.DictReader(fh))
    assert {"x", "fitted_pdf", "mm_pdf", "ml_pdf"} <= set(rows[0])
    assert len(rows) == 200


def test_fit_empty_sample_exit_1(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, _, err = run(capsys, "fit", "--sample", str(path), "--family", "weibull",
                       "--levels", "0.5,0.9")
    assert code == 1


def test_fit_missing_sample_exit_1(capsys):
    code, _, _ = run(capsys, "fit", "--family", "weibull", "--levels", "0.5,0.9")
    assert code == 1


def test_json_outputs_reparse(capsys):
    # every JSON output re-parses and has sorted keys
    payload = run_json(capsys, "dist", "--family", "logistic", "--mu", "0",
                       "--s", "1", "--metric", "bpoe", "--x", "2.0")
    assert list(payload) == sorted(payload)


def test_unknown_command_exit_1(capsys):
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("count", ["0", "-2", "abc", "2.5"])
def test_portfolio_sweep_bad_count_exit_1(capsys, count):
    code, out, err = run(capsys, "portfolio", "--objective", "cvar", "--family", "normal",
                         "--sweep", f"0.9:0.99:{count}", "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --sweep")


@pytest.mark.parametrize("metric, flag, value, want", [
    ("pdf", "--x", "0.5", lambda d: d.pdf(0.5)),
    ("cdf", "--x", "0.5", lambda d: d.cdf(0.5)),
    ("quantile", "--alpha", "0.9", lambda d: d.quantile(0.9)),
    ("mean", None, None, lambda d: d.mean()),
    ("variance", None, None, lambda d: d.variance()),
])
def test_dist_elementary_metrics_match_the_library(capsys, metric, flag, value, want):
    args = ("dist", "--family", "weibull", "--lambda", "0.5", "--k", "1.4", "--metric", metric)
    payload = run_json(capsys, *args, *((flag, value) if flag else ()))
    assert payload == {"metric": metric, "value": want(dist.Weibull(0.5, 1.4))}


@pytest.mark.parametrize("argv, message", [
    (("dist", "--family", "normal", "--mu", "0", "--sigma", "1", "--metric", "pdf"),
     "metric pdf requires --x"),
    (("dist", "--family", "normal", "--mu", "0", "--sigma", "1", "--metric", "quantile"),
     "metric quantile requires --alpha"),
    (("oracle", "--family", "exponential", "--lambda", "1", "--metric", "cvar"),
     "oracle cvar requires --alpha"),
    (("oracle", "--family", "exponential", "--lambda", "1", "--metric", "bpoe"),
     "oracle bpoe requires --x"),
    (("oracle", "--family", "exponential", "--lambda", "1", "--metric", "mc-cvar"),
     "oracle mc-cvar requires --alpha"),
    (("portfolio", "--objective", "cvar", "--family", "normal"),
     "cvar objective requires --alpha"),
    (("portfolio", "--objective", "bpoe", "--family", "normal"), "bpoe objective requires --x"),
])
def test_a_missing_point_or_level_exits_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_oracle_bpoe_matches_the_closed_form(capsys):
    payload = run_json(capsys, "oracle", "--family", "exponential", "--lambda", "1",
                       "--metric", "bpoe", "--x", "2")
    assert abs(payload["value"] - math.exp(-1.0)) <= 1e-8
    assert payload["error_estimate"] <= 1e-8


@pytest.mark.parametrize("argv, family", [
    (("--family", "student-t", "--nu", "4"), ("student-t", {"nu": 4.0})),
    (("--family", "t", "--nu", "4"), ("student-t", {"nu": 4.0})),
    (("--family", "gev", "--gev-xi", "0.2"), ("gev", {"xi": 0.2})),
])
def test_portfolio_shape_families_match_the_library(capsys, argv, family):
    from tailrisk import portfolio as pf
    payload = run_json(capsys, "portfolio", "--objective", "cvar", "--alpha", "0.95", *argv)
    msci = pf.AssetUniverse.bundled()
    report = pf.min_cvar_portfolio(pf.PortfolioProblem(msci, "cvar", level=0.95),
                                   pf.QualifiedFamily(family[0], **family[1]))
    assert payload["weights"] == dict(zip(msci.names, report.weights.tolist()))
    assert payload["objective_value"] == report.objective_value


def test_fit_sample_skips_blank_cells_and_a_header(tmp_path, capsys):
    values = [0.3, 1.1, 0.7, 2.4, 0.9, 1.6, 0.2, 1.3, 0.5, 3.1]
    path = tmp_path / "sample.csv"
    path.write_text("value,\n" + "\n".join(f" {v} ," if i % 2 else f",{v}"
                                           for i, v in enumerate(values)) + "\n\n")
    payload = run_json(capsys, "fit", "--sample", str(path), "--family", "normal",
                       "--levels", "0.5,0.9")
    targets = [est.empirical_superquantile(values, a) for a in (0.5, 0.9)]
    fit = est.ls_mos_fit(est.FitProblem("normal", (0.5, 0.9), targets=tuple(targets)))
    assert payload["params"] == fit.params


def test_fit_sample_with_a_non_numeric_row_exits_1(tmp_path, capsys):
    path = tmp_path / "sample.csv"
    path.write_text("value\n0.3\n1.1\nn/a\n0.7\n")
    code, out, err = run(capsys, "fit", "--sample", str(path), "--family", "normal",
                         "--levels", "0.5,0.9")
    assert (code, out, err) == (1, "", "error: non-numeric sample entry 'n/a'\n")


def test_fit_levels_that_do_not_parse_exit_1(capsys):
    code, out, err = run(capsys, "fit", "--self-test", "--family", "normal", "--mu", "0",
                         "--sigma", "1", "--levels", "0.5,abc")
    assert (code, out) == (1, "")
    assert err == "error: could not parse levels list '0.5,abc'\n"


def test_an_untyped_value_error_exits_1(capsys, monkeypatch):
    # main's last resort: a ValueError that is no TailRiskError is an input error
    def fail(args):
        raise ValueError("not a tail-risk error")

    monkeypatch.setattr(cli, "_cmd_dist", fail)
    code, out, err = run(capsys, "dist", "--family", "normal", "--mu", "0", "--sigma", "1",
                         "--metric", "mean")
    assert (code, out, err) == (1, "", "error: not a tail-risk error\n")
