import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from levyescape import __version__, cli, escape, stable
from levyescape.cli import main


def run(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_sample_emits_document(tmp_path):
    code, doc = run(["sample", "--alpha", "1.5", "--n", "20000", "--seed", "7"],
                    tmp_path)
    assert code == 0
    assert doc["tool_version"] == __version__
    assert doc["seed"] == 7
    assert doc["wall_time"] >= 0.0
    assert doc["config_echo"]["alpha"] == "1.5"
    cf = doc["result"]["char_fn"]["char_fn_1"]
    assert abs(cf["empirical"] - cf["law"]) < 0.02


def test_sample_deterministic(tmp_path):
    _, a = run(["sample", "--alpha", "1.2", "--n", "5000", "--seed", "3"],
               tmp_path, "a.json")
    _, b = run(["sample", "--alpha", "1.2", "--n", "5000", "--seed", "3"],
               tmp_path, "b.json")
    assert a["result"] == b["result"]


def test_sample_estimate_round_trip(tmp_path):
    samples = tmp_path / "samples.txt"
    code, _ = run(["sample", "--alpha", "1.5", "--n", "1000000", "--seed", "1",
                   "--out-samples", str(samples)], tmp_path)
    assert code == 0
    code, doc = run(["estimate", "--input", str(samples), "--k2", "1000"],
                    tmp_path, "est.json")
    assert code == 0
    assert doc["result"]["k2"] == 1000
    assert not doc["result"]["k2_default_used"]
    assert abs(doc["result"]["alpha_hat"] - 1.5) <= 0.05


def test_estimate_default_k2_reported(tmp_path):
    samples = tmp_path / "s.txt"
    np.savetxt(samples, np.random.default_rng(0).standard_cauchy(10000))
    code, doc = run(["estimate", "--input", str(samples)], tmp_path)
    assert code == 0
    assert doc["result"]["k2"] == 100
    assert doc["result"]["k2_default_used"]


def test_parameter_errors_exit_2(tmp_path, capsys):
    assert main(["sample", "--alpha", "2.5"]) == 2
    assert main(["estimate", "--input", str(tmp_path / "missing.txt")]) == 2
    assert main(["probe", "--mode", "bogus"]) == 2
    assert main(["sample", "--alpha", "1.5", "--threads", "2"]) == 2
    assert main(["sweep", "--eps-list", "0.1 0 0.2 0.3", "--trials", "5",
                 "--max-steps", "10"]) == 2
    for mode in ("monitors", "noise"):
        for stride in ("0", "-1"):
            assert main(["probe", "--mode", mode, "--steps", "20", "--record-stride", stride]) == 2
    capsys.readouterr()
    # step counts are checked by name, not by what they break downstream
    assert main(["probe", "--mode", "monitors", "--steps", "-3"]) == 2
    assert main(["probe", "--mode", "noise", "--steps", "0"]) == 2
    assert capsys.readouterr().err.count("n_steps must be >= 1") == 2
    # a window must hold a record's own noise vector
    for window in ("0", "-1"):
        assert main(["probe", "--steps", "20", "--window", window, "--record-stride", "5"]) == 2
    assert capsys.readouterr().err.count("window must be >= 1") == 2
    sweep_only = tmp_path / "sweep_only.cfg"
    sweep_only.write_text("[sweep]\nalpha = 1.5\n")
    capsys.readouterr()
    assert main(["sample", "--config", str(sweep_only), "--alpha", "1.5", "--n", "10",
                 "--out", str(tmp_path / "sample.json")]) == 2
    assert "[sample]" in capsys.readouterr().err
    # one trial file per basin needs {a} in its path, checked before any ensemble runs
    trial_csv = tmp_path / "t.csv"
    assert main(["escape", "--a-values", "500 150", "--noise-scale", "1e-3", "--trials", "2",
                 "--max-steps", "5", "--trial-csv", str(trial_csv)]) == 2
    assert not trial_csv.exists()
    # --a-values replaces --a, so config_echo would show an a that never ran
    assert main(["escape", "--a", "500", "--a-values", "150", "--noise-scale", "1e-3",
                 "--trials", "2", "--max-steps", "5"]) == 2
    assert "--a or --a-values" in capsys.readouterr().err
    # exit steps are int32, so max_steps must stay below 2**31
    assert main(["escape", "--noise-scale", "1e-3", "--trials", "2",
                 "--max-steps", str(2 ** 31)]) == 2
    assert "max_steps" in capsys.readouterr().err
    # small runs that succeed as they are, so only the appended flags can fail
    # them: an unknown flag, a fractional integer, and a base seed whose trial
    # seeds pass 2**63
    valid = {
        "escape": ["--noise-scale", "1e-3", "--trials", "2", "--max-steps", "5"],
        "sweep": ["--eps-list", "0.3 0.6", "--trials", "100", "--max-steps", "2000"],
        "compare": ["--lambdas", "10 0.1", "--sigmas", "3 0.1", "--noise-scale", "0.3",
                    "--trials", "4", "--max-steps", "50", "--n-dirs", "1000"],
    }
    bad = (["--threads", "2"], ["--trials", "2.7"], ["--seed", "9300000000000000000"])
    for command in ("escape", "sweep", "compare"):
        out = str(tmp_path / f"{command}.json")
        for extra in bad:
            argv = [command, *valid[command], "--out", out, *extra]
            assert main(argv) == 2, (command, extra)
    capsys.readouterr()


@pytest.mark.parametrize("mode, argv, key", [
    ("monitors", ["--steps", "20", "--record-stride", "5"], "noise_csv"),
    ("noise", ["--steps", "20", "--window", "3", "--record-stride", "5"], "monitor_csv"),
], ids=["monitors", "noise"])
def test_probe_rejects_flags_its_mode_does_not_read(tmp_path, capsys, mode, argv, key):
    argv = ["probe", "--mode", mode, *argv, "--out", str(tmp_path / "probe.json")]
    assert main(argv) == 0
    flag, csv = "--" + key.replace("_", "-"), tmp_path / "x.csv"
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(f"[probe]\n{key} = {csv}\n")
    for extra in ([flag, str(csv)], ["--config", str(cfg)]):
        capsys.readouterr()
        assert main(argv + extra) == 2, extra
        assert f"probe --mode {mode} does not read {flag}" in capsys.readouterr().err
    assert not csv.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy overflow warning gets out
def test_divergence_exit_3(capsys):
    assert main(["flow", "--kind", "SGDM", "--mu", "1e200", "--step-h", "5", "--T", "50"]) == 3
    assert capsys.readouterr().err == "numerical divergence: non-finite gradient\n"


def test_bad_n_dirs_exit_2(capsys):
    for n_dirs in ("0", "-5"):
        assert main(["geometry", "--lambdas", "4 1", "--sigmas", "2 1", "--n-dirs", n_dirs]) == 2
        assert "n_dirs" in capsys.readouterr().err


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sample]\nalpha = 1.5\nn = 2000\nseed = 5\n")
    code, doc = run(["sample", "--config", str(cfg), "--alpha", "1.0"], tmp_path)
    assert code == 0
    assert doc["config_echo"]["alpha"] == "1.0"  # flag wins
    assert doc["config_echo"]["n"] == "2000"
    assert doc["seed"] == 5


def test_escape_runs_and_writes_trial_csv(tmp_path):
    csv_tmpl = str(tmp_path / "trials_{a}.csv")
    code, doc = run(["escape", "--a", "150", "--noise-scale", "2e-4",
                     "--trials", "60", "--max-steps", "400", "--gamma", "2.0",
                     "--trial-csv", csv_tmpl], tmp_path)
    assert code == 0
    summary = doc["result"]["a_150"]
    assert set(summary) >= {"escape_prob", "mean_exit_steps", "n_trials"}
    lines = (tmp_path / "trials_150.csv").read_text().strip().splitlines()
    assert lines[0] == "trial,exited,exit_step,exit_time"
    assert len(lines) == 61


def test_sweep_reports_negative_slope(tmp_path):
    with pytest.warns(UserWarning):  # narrow 3-point amplitude range
        code, doc = run(["sweep", "--alpha", "1.0", "--eps-list", "0.05 0.1 0.2",
                         "--trials", "200", "--max-steps", "4000", "--seed", "2"],
                        tmp_path)
    assert code == 0
    assert doc["result"]["theory_slope"] == -1.0
    assert -1.4 < doc["result"]["slope"] < -0.6
    assert doc["result"]["predicted_mean_exit_smallest_eps"] > 0


def test_geometry_measure_comparison(tmp_path):
    code, doc = run(["geometry", "--lambdas", "10 0.1", "--sigmas", "3 0.1",
                     "--alpha", "1.5", "--n-dirs", "200000", "--seed", "1"],
                    tmp_path)
    assert code == 0
    res = doc["result"]
    assert res["m_sgd"] > res["m_adam"] > 0
    assert res["predicted_exit_time_ratio_sgd_over_adam"] < 1.0


def test_flow_rate_report(tmp_path):
    code, doc = run(["flow", "--kind", "SGD", "--mu", "2.0", "--T", "3.0"],
                    tmp_path)
    assert code == 0
    res = doc["result"]
    assert 0.95 * res["predicted_rate"] <= res["observed_rate"] <= res["predicted_rate"]


def test_probe_monitors_csv(tmp_path):
    csv = tmp_path / "mon.csv"
    code, doc = run(["probe", "--mode", "monitors", "--steps", "200",
                     "--record-stride", "20", "--monitor-csv", str(csv)],
                    tmp_path)
    assert code == 0
    assert all(r >= 0 for r in doc["result"]["rho"])
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,rho,tau,v_min,v_max"
    assert len(lines) == len(doc["result"]["t"]) + 1


def test_probe_betas_reach_the_optimizer(tmp_path):
    argv = ["probe", "--kind", "ADAM", "--steps", "40", "--window", "8",
            "--record-stride", "10"]
    noise = {}
    for beta1 in ("0.5", "0.9"):
        code, doc = run(argv + ["--beta1", beta1], tmp_path, f"b{beta1}.json")
        assert code == 0
        noise[beta1] = [r["noise_l2"] for r in doc["result"]["records"]]
    assert noise["0.5"] != noise["0.9"]


def test_compare_small_run(tmp_path):
    code, doc = run(["compare", "--lambdas", "10 0.1", "--sigmas", "3 0.1",
                     "--noise-scale", "0.3", "--trials", "100",
                     "--max-steps", "3000", "--step-h", "0.05",
                     "--n-dirs", "100000", "--seed", "8"], tmp_path)
    assert code == 0
    assert set(doc["result"]["escape"]) == {"SGD", "ADAM", "SGDM"}
    assert doc["result"]["common_random_numbers"] is True
    assert doc["result"]["geometry"]["ratio_sgd_over_adam"] > 1.0


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


PRESETS = str(pathlib.Path(__file__).resolve().parent.parent / "presets")


def test_presets_parse_and_run_reduced(tmp_path):
    # each checked-in preset loads; trials cut down by flag override for speed
    code, doc = run(["escape", "--config", f"{PRESETS}/fig3_basins.cfg",
                     "--trials", "30", "--max-steps", "200"], tmp_path, "f.json")
    assert code == 0
    assert doc["seed"] == 700000
    assert {"a_100000", "a_500", "a_150"} <= set(doc["result"])

    code, doc = run(["sweep", "--config", f"{PRESETS}/scaling_alpha15.cfg",
                     "--trials", "150", "--max-steps", "2000",
                     "--eps-list", "0.02 0.05 0.1 0.2"], tmp_path, "s.json")
    assert code == 0
    assert doc["result"]["theory_slope"] == -1.5

    code, doc = run(["compare", "--config", f"{PRESETS}/measure_compare.cfg",
                     "--trials", "50", "--n-dirs", "50000"], tmp_path, "c.json")
    assert code == 0
    assert doc["result"]["geometry"]["ratio_sgd_over_adam"] > 1.0


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def test_document_is_strict_json(tmp_path):
    # tau is NaN wherever the gradient vanishes, which at theta0 = 0 is everywhere
    out = tmp_path / "mon.json"
    assert main(["probe", "--mode", "monitors", "--theta0", "0", "--steps", "100",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert doc["result"]["tau"][0] is None
    assert cli._jsonable({"a": np.array([[1.0, np.inf], [np.nan, -np.inf]]),
                          "b": np.float64("nan")}) == {"a": [[1.0, None], [None, None]],
                                                       "b": None}


def test_integers_read_exactly(tmp_path):
    big = 12345678901234567891
    code, doc = run(["sample", "--alpha", "1.5", "--n", "1e3", "--seed", str(big)], tmp_path)
    assert code == 0
    assert doc["seed"] == big
    assert doc["result"]["n"] == 1000
    law = stable.StableLaw(alpha=1.5)
    assert doc["result"]["median"] == float(np.median(stable.sample_sas(law, 1000, seed=big)))


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text("[compare]\nlambdas = 10 0.1\nsigmas = 3 0.1\nn_dir = 1000\n")
    assert main(["compare", "--config", str(cfg)]) == 2
    assert "n_dir" in capsys.readouterr().err
    # configparser lowercases keys; a mixed-case flag name still matches
    cfg.write_text("[flow]\nT = 0.5\n")
    code, doc = run(["flow", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert doc["config_echo"]["T"] == "0.5"


TINY = {
    "sample": ["--alpha", "1.5", "--n", "500"],
    "escape": ["--noise-scale", "1e-3", "--trials", "4", "--max-steps", "20"],
    "sweep": ["--eps-list", "0.3 0.6", "--trials", "120", "--max-steps", "500"],
    "geometry": ["--lambdas", "10 0.1", "--sigmas", "3 0.1", "--n-dirs", "500"],
    "probe": ["--steps", "20", "--window", "8", "--record-stride", "10"],
    "probe_monitors": ["--mode", "monitors", "--steps", "20"],
    "flow": ["--T", "0.2"],
    "compare": ["--lambdas", "10 0.1", "--sigmas", "3 0.1", "--noise-scale", "0.3",
                "--trials", "4", "--max-steps", "50", "--n-dirs", "500"],
}


@pytest.mark.filterwarnings("ignore:sweep amplitudes")
def test_every_subcommand_emits_one_document_shape(tmp_path):
    samples = tmp_path / "s.txt"
    np.savetxt(samples, np.random.default_rng(0).standard_cauchy(400))
    for name, argv in {**TINY, "estimate": ["--input", str(samples)]}.items():
        code, doc = run([name.split("_")[0], *argv, "--seed", "11"], tmp_path, f"{name}.json")
        assert code == 0, name
        assert set(doc) == {"tool_version", "config_echo", "seed", "wall_time", "result"}
        assert doc["seed"] == 11, name
        if name in ("geometry", "compare"):
            geo = doc["result"] if name == "geometry" else doc["result"]["geometry"]
            assert geo["n_dirs"] == 500, name
            assert set(geo["radon_evaluations"]) == {"sgd", "adam"}, name
            assert all(0 < n <= 500 for n in geo["radon_evaluations"].values()), name


def test_escape_passes_only_given_keys_to_library(tmp_path, monkeypatch):
    seen = []
    inner = escape.run_escape_experiment

    def tap(cfg, threads=None):
        seen.append(cfg)
        return inner(cfg, threads=threads)

    monkeypatch.setattr(escape, "run_escape_experiment", tap)
    code, _ = run(["escape", "--noise-scale", "2e-4", "--seed", "5"], tmp_path)
    assert code == 0
    expect = escape.double_well_config(150.0, 2e-4, base_seed=5)
    (got,) = seen
    for field in dataclasses.fields(expect):
        a, b = getattr(got, field.name), getattr(expect, field.name)
        assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, field.name


def test_compare_preset_runs_serially():
    # no transform of the compare preset reaches two slices, so no slice
    # pool is built: no thread is started and concurrent.futures stays out
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    preset = os.path.join(PRESETS, "measure_compare.cfg")
    code = ("import os, sys, threading; from levyescape.cli import main; "
            f"assert main(['compare', '--config', {preset!r}, '--out', os.devnull]) == 0; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["1", "False"]
