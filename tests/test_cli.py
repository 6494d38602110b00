import json
import pathlib

import numpy as np
import pytest

from levyescape import __version__
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
    capsys.readouterr()


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


def test_compare_small_run(tmp_path):
    code, doc = run(["compare", "--lambdas", "10 0.1", "--sigmas", "3 0.1",
                     "--noise-scale", "0.3", "--trials", "100",
                     "--max-steps", "3000", "--step-h", "0.05",
                     "--n-dirs", "100000", "--seed", "8"], tmp_path)
    assert code == 0
    assert set(doc["result"]["escape"]) == {"SGD", "ADAM", "SGDM"}
    assert doc["result"]["common_random_numbers"] is True
    assert doc["result"]["geometry"]["ratio_sgd_over_adam"] > 1.0


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
