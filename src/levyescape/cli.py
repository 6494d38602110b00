"""Command-line driver: experiment orchestration and result serialization.

Subcommands: sample | estimate | escape | sweep | geometry | probe | flow |
compare.  Parameters come from an INI config file (section named after the
subcommand) and/or long-form flags; flags win.  Every run emits a JSON
document containing {tool_version, config_echo, seed, wall_time} plus the
command's results.  Exit codes: 0 success, 2 usage or parameter-domain
error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time

import numpy as np

from . import __version__, dynamics, escape, geometry, landscapes, probe, stable

__all__ = ["main"]

_FLOAT_FMT = "%.17g"


def _load_config(path, section):
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise stable.ParameterError(f"config file not found: {path}")
    if cp.has_section(section):
        return dict(cp.items(section))
    if cp.has_section("common"):
        return dict(cp.items("common"))
    return {}


def _merge(args, command):
    cfg = {}
    if getattr(args, "config", None):
        cfg = _load_config(args.config, command)
    for key, val in vars(args).items():
        if key in ("config", "command", "func") or val is None:
            continue
        cfg[key] = val
    return cfg


def _f(cfg, key, default=None):
    if key in cfg:
        return float(cfg[key])
    if default is None:
        raise stable.ParameterError(f"missing required parameter: {key}")
    return default


def _i(cfg, key, default=None):
    if key in cfg:
        return int(float(cfg[key]))
    if default is None:
        raise stable.ParameterError(f"missing required parameter: {key}")
    return default


def _s(cfg, key, default=None):
    return str(cfg.get(key, default))


def _flist(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise stable.ParameterError(f"missing required parameter: {key}")
        return list(default)
    raw = cfg[key]
    if isinstance(raw, (list, tuple)):
        return [float(x) for x in raw]
    return [float(x) for x in str(raw).replace(",", " ").split()]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (obj != obj):
        return None
    return obj


def _emit(result, cfg, seed, out_path, t0):
    doc = {
        "tool_version": __version__,
        "config_echo": _jsonable(cfg),
        "seed": seed,
        "wall_time": time.time() - t0,
        "result": _jsonable(result),
    }
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for x in row:
                if isinstance(x, float):
                    cells.append(_FLOAT_FMT % x)
                else:
                    cells.append(str(x))
            fh.write(",".join(cells) + "\n")


def _cmd_sample(args):
    t0 = time.time()
    cfg = _merge(args, "sample")
    seed = _i(cfg, "seed", 0)
    law = stable.StableLaw(alpha=_f(cfg, "alpha"), sigma=_f(cfg, "sigma", 1.0))
    n = _i(cfg, "n", 100_000)
    samples = stable.sample_sas(law, n, seed=seed)
    out_samples = cfg.get("out_samples")
    if out_samples:
        np.savetxt(out_samples, samples, fmt=_FLOAT_FMT)
    report = {}
    for omega in (0.5, 1.0, 2.0):
        report[f"char_fn_{omega:g}"] = {
            "empirical": stable.empirical_char_fn(samples, omega),
            "law": float(law.char_fn(omega)),
        }
    result = {"n": n, "alpha": law.alpha, "sigma": law.sigma,
              "median": float(np.median(samples)), "char_fn": report}
    _emit(result, cfg, seed, cfg.get("out"), t0)
    return 0


def _cmd_estimate(args):
    t0 = time.time()
    cfg = _merge(args, "estimate")
    samples = np.loadtxt(cfg["input"], ndmin=1)
    if samples.size == 0:
        raise stable.SampleSizeError("input file contains no samples")
    k2 = _i(cfg, "k2", 0) or None
    k1 = _i(cfg, "k1", 0) or None
    alpha_hat = stable.estimate_tail_index(samples, k1=k1, k2=k2)
    k2_used = k2 if k2 else int(math.isqrt(samples.size))
    result = {"alpha_hat": alpha_hat, "n": int(samples.size),
              "k2": k2_used, "k1": k1 if k1 else int(samples.size) // k2_used,
              "k2_default_used": k2 is None}
    _emit(result, cfg, _i(cfg, "seed", 0), cfg.get("out"), t0)
    return 0


def _escape_cfg_from(cfg, a, seed):
    return escape.double_well_config(
        a,
        _f(cfg, "noise_scale"),
        trials=_i(cfg, "trials", 1000),
        max_steps=_i(cfg, "max_steps", 2000),
        base_seed=seed,
        alpha=_f(cfg, "alpha", 1.5),
        drift_scale=_f(cfg, "drift_scale", 5e-5),
        drift_substeps=_i(cfg, "drift_substeps", 20),
        gamma=_f(cfg, "gamma", 1.0),
    )


def _cmd_escape(args):
    t0 = time.time()
    cfg = _merge(args, "escape")
    seed = _i(cfg, "seed", 0)
    a_values = _flist(cfg, "a_values", [_f(cfg, "a", 150.0)])
    result = {"basin_convention": "level cut through the branch crossover"}
    for a in a_values:
        ecfg = _escape_cfg_from(cfg, a, seed)
        stats = escape.run_escape_experiment(ecfg)
        result[f"a_{a:g}"] = stats.summary()
        trial_csv = cfg.get("trial_csv")
        if trial_csv:
            path = trial_csv.replace("{a}", f"{a:g}")
            _write_csv(path, ["trial", "exited", "exit_step", "exit_time"],
                       stats.exit_times)
    _emit(result, cfg, seed, cfg.get("out"), t0)
    return 0


def _sweep_template(cfg, alpha, seed):
    b = _f(cfg, "b", 1.0)
    mu = _f(cfg, "mu", 1.0)
    eps0 = _flist(cfg, "eps_list")[0]
    basin = landscapes.BasinSpec(
        region=landscapes.IntervalRegion(-b, b), eps=eps0, gamma=_f(cfg, "gamma", 2.0)
    )
    land = landscapes.QuadraticBasin(H=np.array([[mu]]), center=np.zeros(1),
                                     height=0.5 * mu * b * b)
    opt = dynamics.OptimizerConfig(
        kind="SGD", eta=1e-3, alpha=alpha, step_h=_f(cfg, "step_h", 0.2),
        noise_scale=eps0,
    )
    return escape.EscapeConfig(
        landscape=land, basin=basin, optimizer=opt, theta0=np.zeros(1),
        trials=_i(cfg, "trials", 2000), max_steps=_i(cfg, "max_steps", 20000),
        base_seed=seed,
    )


def _cmd_sweep(args):
    t0 = time.time()
    cfg = _merge(args, "sweep")
    seed = _i(cfg, "seed", 0)
    alpha = _f(cfg, "alpha", 1.5)
    eps_list = _flist(cfg, "eps_list")
    template = _sweep_template(cfg, alpha, seed)
    report = escape.scaling_sweep(template, eps_list)
    b = _f(cfg, "b", 1.0)
    m_w = (2.0 / alpha) * b ** (-alpha)
    result = {
        "slope": report["slope"], "intercept": report["intercept"],
        "r2": report["r2"], "theory_slope": -alpha,
        "eps": report["eps"], "mean_exit_time": report["mean_exit_time"],
        "dropped": report["dropped"],
        "predicted_mean_exit_smallest_eps": escape.predicted_mean_exit(
            m_w, alpha, report["eps"][0]
        ),
    }
    _emit(result, cfg, seed, cfg.get("out"), t0)
    return 0


def _spectrum_from(cfg):
    return geometry.Spectrum(
        lambdas=np.asarray(_flist(cfg, "lambdas")),
        sigmas=np.asarray(_flist(cfg, "sigmas")),
        batch_size=_i(cfg, "batch_size", 1),
        h_f_star=_f(cfg, "h_f_star", 1.0),
    )


def _cmd_geometry(args):
    t0 = time.time()
    cfg = _merge(args, "geometry")
    seed = _i(cfg, "seed", 0)
    spec = _spectrum_from(cfg)
    report = geometry.compare_measures(
        spec, _f(cfg, "alpha", 1.5), n_dirs=_i(cfg, "n_dirs", 1_000_000), seed=seed
    )
    _emit(report, cfg, seed, cfg.get("out"), t0)
    return 0


def _cmd_probe(args):
    t0 = time.time()
    cfg = _merge(args, "probe")
    seed = _i(cfg, "seed", 0)
    mode = _s(cfg, "mode", "noise")
    if mode == "noise":
        model = probe.MlpModel.random_init(seed=seed)
        data = probe.SyntheticDataset.blobs(seed=seed + 1)
        opt = dynamics.OptimizerConfig(kind=_s(cfg, "kind", "SGD"),
                                       eta=_f(cfg, "eta", 0.05), alpha=1.5)
        records = probe.noise_trajectory(
            model, data, opt, _i(cfg, "steps", 600),
            window=_i(cfg, "window", 16), batch_size=_i(cfg, "batch_size", 32),
            seed=seed, record_stride=_i(cfg, "record_stride", 50),
        )
        csv_path = cfg.get("noise_csv")
        if csv_path:
            _write_csv(csv_path, ["step", "alpha_hat", "noise_l2"],
                       [(r.step, r.alpha_hat if r.alpha_hat is not None else float("nan"),
                         r.noise_l2) for r in records])
        comparison = probe.averaging_tail_comparison(records, _f(cfg, "beta1", 0.9))
        result = {
            "records": [{"step": r.step, "alpha_hat": r.alpha_hat,
                         "noise_l2": r.noise_l2} for r in records],
            "averaging_comparison": comparison,
            "pooling": "per-coordinate MAD standardization over the window",
        }
    elif mode == "monitors":
        mu = _f(cfg, "mu", 1.0)
        land = landscapes.QuadraticBasin(H=np.array([[mu]]), center=np.zeros(1),
                                         height=10.0)
        opt = dynamics.OptimizerConfig(kind="ADAM", alpha=1.5, step_h=_f(cfg, "step_h", 1e-2),
                                       beta1=_f(cfg, "beta1", 0.9),
                                       beta2=_f(cfg, "beta2", 0.99), noise_scale=0.0)
        report = probe.assumption_monitors(land, opt, np.array([_f(cfg, "theta0", 2.0)]),
                                           _i(cfg, "steps", 1000),
                                           record_stride=_i(cfg, "record_stride", 10))
        csv_path = cfg.get("monitor_csv")
        if csv_path:
            _write_csv(csv_path, ["t", "rho", "tau", "v_min", "v_max"],
                       [(float(t), float(r), float(tv), report.v_min, report.v_max)
                        for t, r, tv in zip(report.t, report.rho, report.tau)])
        result = {"t": report.t, "rho": report.rho, "tau": report.tau,
                  "v_min": report.v_min, "v_max": report.v_max}
    else:
        raise stable.ParameterError(f"unknown probe mode: {mode!r}")
    _emit(result, cfg, seed, cfg.get("out"), t0)
    return 0


def _cmd_flow(args):
    t0 = time.time()
    cfg = _merge(args, "flow")
    seed = _i(cfg, "seed", 0)
    mu = _f(cfg, "mu", 2.0)
    kind = _s(cfg, "kind", "SGD")
    land = landscapes.QuadraticBasin(H=np.array([[mu]]), center=np.zeros(1), height=10.0)
    opt = dynamics.OptimizerConfig(kind=kind, alpha=1.5, step_h=_f(cfg, "step_h", 1e-3),
                                   beta1=_f(cfg, "beta1", 0.9),
                                   beta2=_f(cfg, "beta2", 0.99), noise_scale=0.0)
    state0 = dynamics.SdeState.initial(np.array([_f(cfg, "theta0", 1.0)]), kind)
    _, report = dynamics.deterministic_flow(state0, land, opt, _f(cfg, "T", 2.0))
    result = {
        "observed_rate": report.observed_rate,
        "predicted_rate": report.predicted_rate,
        "tau": report.tau, "v_max": report.v_max,
        "n_points": int(report.lyapunov_series.shape[0]),
    }
    _emit(result, cfg, seed, cfg.get("out"), t0)
    return 0


def _cmd_compare(args):
    t0 = time.time()
    cfg = _merge(args, "compare")
    seed = _i(cfg, "seed", 0)
    alpha = _f(cfg, "alpha", 1.5)
    spec = _spectrum_from(cfg)
    geo = geometry.compare_measures(spec, alpha, n_dirs=_i(cfg, "n_dirs", 400_000),
                                    seed=seed)
    height = spec.h_f_star / 2.0
    land = landscapes.QuadraticBasin(H=np.diag(spec.lambdas),
                                     center=np.zeros(spec.dim), height=height)
    noise_scale = _f(cfg, "noise_scale", 0.05)
    basin = landscapes.BasinSpec(region=land, eps=noise_scale, gamma=_f(cfg, "gamma", 2.0))
    opt = dynamics.OptimizerConfig(
        kind="SGD", eta=1e-3, alpha=alpha, step_h=_f(cfg, "step_h", 0.1),
        noise_scale=noise_scale, sigma=spec.sigmas, beta1=0.9, beta2=0.99,
    )
    ecfg = escape.EscapeConfig(
        landscape=land, basin=basin, optimizer=opt, theta0=np.zeros(spec.dim),
        trials=_i(cfg, "trials", 2000), max_steps=_i(cfg, "max_steps", 40000),
        base_seed=seed,
    )
    q_fixed = spec.batch_size * spec.sigmas
    comparison = escape.compare_optimizers(ecfg, q_fixed_adam=q_fixed)
    result = {
        "geometry": geo,
        "escape": {k: s.summary() for k, s in comparison["stats"].items()},
        "mean_exit_time_ratios": comparison["mean_exit_time_ratios"],
        "common_random_numbers": True,
    }
    _emit(result, cfg, seed, cfg.get("out"), t0)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="levyescape",
        description="Heavy-tailed SDE models of stochastic optimizers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, flags):
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--out")
        p.add_argument("--seed")
        for flag in flags:
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag)
        p.set_defaults(func=func)

    add("sample", _cmd_sample, ["alpha", "sigma", "n", "out_samples"])
    add("estimate", _cmd_estimate, ["input", "k1", "k2"])
    add("escape", _cmd_escape,
        ["a", "a_values", "noise_scale", "alpha", "trials", "max_steps",
         "drift_scale", "drift_substeps", "gamma", "trial_csv"])
    add("sweep", _cmd_sweep,
        ["alpha", "eps_list", "b", "mu", "step_h", "trials", "max_steps", "gamma"])
    add("geometry", _cmd_geometry,
        ["alpha", "lambdas", "sigmas", "batch_size", "h_f_star", "n_dirs"])
    add("probe", _cmd_probe,
        ["mode", "kind", "eta", "steps", "window", "batch_size", "record_stride",
         "beta1", "beta2", "mu", "theta0", "step_h", "noise_csv", "monitor_csv"])
    add("flow", _cmd_flow, ["kind", "mu", "theta0", "step_h", "T", "beta1", "beta2"])
    add("compare", _cmd_compare,
        ["alpha", "lambdas", "sigmas", "batch_size", "h_f_star", "noise_scale",
         "step_h", "trials", "max_steps", "gamma", "n_dirs"])
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (stable.ParameterError, stable.SampleSizeError, ValueError, OSError,
            KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (dynamics.DivergedError, FloatingPointError) as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
