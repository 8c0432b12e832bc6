"""The scalar path stays numpy-free; the lazy package names and the array
sampler behave exactly as eager imports and per-point quantiles would."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tailrisk
from tailrisk import distributions as dist
from tailrisk.cli import _emit, _sanitize

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(tailrisk.__file__)))


def _fresh(code: str) -> str:
    """Run code in a new interpreter that imports this checkout's tailrisk."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the applications' solvers load with portfolio and estimation, never on the scalar path
_NO_NUMPY = ("\nimport sys\nassert not {'numpy', 'tailrisk._optim'} & set(sys.modules),"
             " sorted(sys.modules)\n")
# dataclasses pulls in inspect, ast, dis and tokenize: the scalar path needs none
_NO_DATACLASSES = ("\nimport sys\nassert not {'dataclasses', 'inspect'} & set(sys.modules),"
                   " sorted(sys.modules)\n")
_SCALAR_PATHS = {
    "import": "import tailrisk",
    "import-cli": "import tailrisk, tailrisk.cli",
    "scalar-metrics": "from tailrisk import superquantile, bpoe, StudentT\n"
                      "bpoe(StudentT(3.0), 2.0); superquantile(StudentT(3.0), 0.99)",
    "root-engine-bpoe": "from tailrisk import bpoe, Weibull\nbpoe(Weibull(1.0, 1.5), 2.0)",
    "cli-dist-bpoe": "from tailrisk.cli import main\n"
                     "assert main(['dist', '--family', 'student-t', '--nu', '3', '--metric',"
                     " 'bpoe', '--x', '2.5']) == 0",
    "cli-dist-root-bpoe": "from tailrisk.cli import main\n"
                          "assert main(['dist', '--family', 'weibull', '--lambda', '1', '--k',"
                          " '1.5', '--metric', 'bpoe', '--x', '2']) == 0",
}


@pytest.mark.parametrize("code", [
    *_SCALAR_PATHS.values(),
    "from tailrisk.cli import main\n"
    "assert main(['oracle', '--family', 'lognormal', '--mu', '0', '--s', '1',"
    " '--metric', 'cvar', '--alpha', '0.95']) == 0",
    "from tailrisk.cli import main\n"
    "assert main(['oracle', '--family', 'weibull', '--lambda', '1', '--k', '1.5',"
    " '--metric', 'bpoe', '--x', '2']) == 0",
], ids=[*_SCALAR_PATHS, "cli-oracle-cvar", "cli-oracle-bpoe"])
def test_scalar_paths_leave_numpy_unloaded(code):
    _fresh(code + _NO_NUMPY)


# the oracle path loads tailrisk.oracle, which keeps its dataclasses
@pytest.mark.parametrize("code", _SCALAR_PATHS.values(), ids=_SCALAR_PATHS)
def test_scalar_paths_leave_dataclasses_unloaded(code):
    _fresh(code + _NO_DATACLASSES)


def test_array_path_loads_numpy():
    _fresh("import sys, numpy as np, tailrisk\n"
           "tailrisk.Normal(0.0, 1.0).sample(3, np.random.default_rng(0))\n"
           "assert 'tailrisk._sampling' in sys.modules")


def test_lazy_submodules_after_bare_import():
    out = _fresh("import tailrisk\n"
                 "print(tailrisk.portfolio.__name__, tailrisk.estimation.__name__,"
                 " tailrisk.oracle.__name__, tailrisk.reference_fits.__module__)")
    assert out.split() == ["tailrisk.portfolio", "tailrisk.estimation",
                           "tailrisk.oracle", "tailrisk.estimation"]


def test_star_import():
    out = _fresh("from tailrisk import *\nprint(min_cvar_portfolio.__name__, FitProblem.__name__)")
    assert out.split() == ["min_cvar_portfolio", "FitProblem"]


def test_every_public_name_resolves_to_its_home_object():
    listed = dir(tailrisk)
    for name in tailrisk.__all__:
        obj = getattr(tailrisk, name)
        home = sys.modules[obj.__module__]
        assert getattr(home, name) is obj, name
        assert name in listed, name
    for module in ("estimation", "oracle", "portfolio"):
        assert module in listed
        assert getattr(tailrisk, module) is sys.modules[f"tailrisk.{module}"]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        tailrisk.no_such_name


_NUMPY_PAYLOAD = {
    "f32": np.float32(0.1), "f64": np.float64(0.25), "i64": np.int64(3),
    "nan32": np.float32("nan"), "ninf": np.float64("-inf"), "inf32": np.float32("inf"),
    "list": [np.int64(-2), np.float32(1.5)], "py": 7, "flag": True,
}


def test_sanitize_numpy_scalars():
    assert _sanitize(_NUMPY_PAYLOAD) == {
        "f32": 0.10000000149011612, "f64": 0.25, "i64": 3.0, "nan32": "nan",
        "ninf": "-inf", "inf32": "inf", "list": [-2.0, 1.5], "py": 7, "flag": True}


def test_emit_numpy_scalars(capsys):
    _emit(_NUMPY_PAYLOAD, argparse.Namespace(format="json", out=None))
    text = capsys.readouterr().out
    assert json.loads(text) == _sanitize(_NUMPY_PAYLOAD)
    assert '"f32": 0.10000000149011612,' in text and '"i64": 3.0,' in text
    _emit(_NUMPY_PAYLOAD, argparse.Namespace(format="csv", out=None))
    rows = capsys.readouterr().out.splitlines()
    assert rows[:5] == ["key,value", "f32,0.10000000149011612", "f64,0.25", "flag,True",
                        "i64,3.0"]
    assert 'list,"[-2.0, 1.5]"' in rows


@pytest.mark.parametrize("d", [
    dist.Exponential(1.0), dist.Pareto(3.0, 1.0), dist.GPD(-1.0, 2.0, 0.3),
    dist.Laplace(1.0, 2.0), dist.Logistic(-2.0, 1.5),
    dist.Weibull(0.5, 1.4), dist.LogLogistic(2.0, 3.0), dist.GEV(1.0, 2.0, 0.3),
], ids=lambda d: d.family)
def test_sample_is_the_quantile_at_the_same_uniforms(d):
    x = d.sample(1000, np.random.default_rng(0))
    u = np.clip(np.random.default_rng(0).random(1000), 1e-300, 1.0 - 1e-16)
    q = np.array([d.quantile(float(p)) for p in u])
    assert np.all(np.abs(x - q) <= 1e-9 * np.maximum(np.abs(q), 1.0))


@pytest.mark.parametrize("d, expected", [
    (dist.Normal(1.0, 2.0), lambda rng: 1.0 + 2.0 * rng.standard_normal(1000)),
    (dist.LogNormal(0.0, 1.0), lambda rng: np.exp(0.0 + 1.0 * rng.standard_normal(1000))),
    (dist.StudentT(6.0, 0.5, -1.0), lambda rng: -1.0 + 0.5 * rng.standard_t(6.0, 1000)),
], ids=["normal", "lognormal", "student-t"])
def test_sample_is_the_generator_expression(d, expected):
    x = d.sample(1000, np.random.default_rng(0))
    assert np.array_equal(x, expected(np.random.default_rng(0)))


def test_family_subclass_samples_as_its_family():
    class Subclass(dist.StudentT):
        pass

    x = Subclass(6.0, 0.5, -1.0).sample(200, np.random.default_rng(3))
    assert np.array_equal(x, dist.StudentT(6.0, 0.5, -1.0).sample(200, np.random.default_rng(3)))
