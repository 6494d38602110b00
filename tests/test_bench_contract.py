"""The benchmark wraps package names from outside (``bench/spans.py``) and
drives presets through the CLI (``bench/workloads.py``); a rename in the
package must fail here rather than crash a benchmark run.  The demos are held
to the same keyword check, so a deleted parameter fails here with its line."""

import ast
import importlib
import inspect
import pathlib
import sys

import numpy as np

from levyescape import cli, dynamics, escape, landscapes

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
DEMOS = BENCH.parent / "demos"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_span_targets_exist():
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in spans.TARGETS if attr not in vars(owner)]
    assert missing == []


def test_run_escape_experiment_accepts_threads():
    assert "threads" in inspect.signature(escape.run_escape_experiment).parameters


def test_single_seed_stream_draws_rows():
    # bench/microbench.stream_draws_per_s times this call
    assert dynamics.SasStream(1.5, 1, 0).draw(256).shape == (256, 1)


def test_levy_step_returns_trial_rows():
    # bench/microbench.step_us steps an (n, 1) SdeState through levy_step
    land = landscapes.QuadraticBasin(H=np.array([[1.0]]), center=np.zeros(1), height=0.5)
    cfg = dynamics.OptimizerConfig(kind="SGD", step_h=0.2, noise_scale=0.01)
    for n in (1, 100):
        state = dynamics.levy_step(dynamics.SdeState(theta=np.zeros((n, 1))), land, cfg,
                                   np.ones((n, 1)))
        assert isinstance(state, dynamics.SdeState)
        assert state.theta.shape == (n, 1)


def test_flow_reports_what_workloads_read():
    # bench/workloads.py reads observed_rate and lyapunov_series[:, 1] of the second item
    land = landscapes.QuadraticBasin(H=np.array([[1.0]]), center=np.zeros(1), height=10.0)
    for kind in ("SGD", "ADAM"):
        cfg = dynamics.OptimizerConfig(kind=kind, step_h=0.1, noise_scale=0.0)
        out = dynamics.deterministic_flow(dynamics.SdeState.initial(np.array([1.0]), kind),
                                          land, cfg, 2.0)
        assert len(out) == 2
        assert out[1].observed_rate is not None
        assert out[1].lyapunov_series.shape == (21, 2)


def test_preset_workload_argv_parses():
    # bench/workloads.py drives these presets through cli.main with a seed appended
    parser = cli._build_parser()
    for name in ("fig3", "sweep", "compare"):
        argv = workloads.WORKLOADS[name].argv + ["--seed", "1"]
        assert parser.parse_args(argv).command == argv[0], name


def _package_names(tree):
    """Names bound by ``from levyescape[.module] import name``, anywhere in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "levyescape":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _unknown_keywords(source):
    """``(line, callee, keyword)`` for each keyword a package call does not accept.

    A package call is one whose callee is an attribute chain on a name
    imported from levyescape, such as ``geometry.radon_measure`` or
    ``probe.MlpModel.random_init``; a chain that does not resolve is
    reported with keyword None.
    """
    tree = ast.parse(source)
    names = _package_names(tree)
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.append(func.attr)
            func = func.value
        if not (isinstance(func, ast.Name) and func.id in names):
            continue
        callee, label = names[func.id], ".".join([func.id, *reversed(chain)])
        try:
            for attr in reversed(chain):
                callee = getattr(callee, attr)
        except AttributeError:
            bad.append((node.lineno, label, None))
            continue
        params = inspect.signature(callee).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        bad.extend((node.lineno, label, kw.arg) for kw in node.keywords
                   if kw.arg is not None and kw.arg not in params)
    return bad


def test_bench_calls_pass_only_accepted_keywords():
    bad = {path.name: _unknown_keywords(path.read_text()) for path in sorted(BENCH.glob("*.py"))}
    assert {name: found for name, found in bad.items() if found} == {}


def test_demo_calls_pass_only_accepted_keywords():
    bad = {path.name: _unknown_keywords(path.read_text()) for path in sorted(DEMOS.glob("*.py"))}
    assert {name: found for name, found in bad.items() if found} == {}


def test_keyword_check_catches_one():
    source = ("from levyescape import dynamics, geometry\n"
              "geometry.radon_measure(w, 1.5, n_dirz=10)\n"
              "dynamics.OptimizerConfig(eta=0.1, v_noise_scale=0.5)\n"
              "dynamics.levy_stepp(s)\n")
    assert _unknown_keywords(source) == [(2, "geometry.radon_measure", "n_dirz"),
                                         (3, "dynamics.OptimizerConfig", "v_noise_scale"),
                                         (4, "dynamics.levy_stepp", None)]
