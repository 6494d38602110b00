"""The benchmark wraps package names from outside (``bench/spans.py``) and
drives presets through the CLI (``bench/workloads.py``); a rename in the
package must fail here rather than crash a benchmark run."""

import inspect
import pathlib
import sys

from levyescape import cli, dynamics, escape

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

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


def test_preset_workload_argv_parses():
    # bench/workloads.py drives these presets through cli.main with a seed appended
    parser = cli._build_parser()
    for name in ("fig3", "sweep", "compare"):
        argv = workloads.WORKLOADS[name].argv + ["--seed", "1"]
        assert parser.parse_args(argv).command == argv[0], name
