"""Command-line driver: experiment orchestration and result serialization.

Subcommands: sample | estimate | escape | sweep | geometry | probe | flow |
compare.  Parameters come from an INI config file (section named after the
subcommand) and/or long-form flags; flags win, and a config key that names
no flag of the subcommand is an error, as are both ``a`` and ``a_values``
and a ``probe`` flag its mode ignores.  Integer parameters must be integral
(``1e6`` reads as 1000000, ``2.7`` is an error).  A parameter left unset
takes the library's own default; the CLI states a default only where the
library has none or the CLI's differs.

``main`` owns the run document: each ``_cmd_*`` maps the merged config and
the seed to a result dict, and ``main`` writes {tool_version, config_echo,
seed, wall_time, result} as strict JSON, with null for NaN and infinities.
Exit codes: 0 success, 2 usage or parameter-domain error, 3 numerical
divergence.
"""

from __future__ import annotations

import argparse
import configparser
import functools
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
    if not cp.has_section(section):
        raise stable.ParameterError(f"config file {path} has no [{section}] section")
    return dict(cp.items(section))


def _merge(args, command):
    """Config-file values overlaid by the flags given; unknown file keys are errors."""
    flags = {k: v for k, v in vars(args).items() if k not in ("config", "command", "func")}
    cfg = {}
    if args.config:
        dests = {key.lower(): key for key in flags}  # configparser lowercases keys
        for key, val in _load_config(args.config, command).items():
            if key not in dests:
                raise stable.ParameterError(f"unknown config key for {command}: {key}")
            cfg[dests[key]] = val
    cfg.update((k, v) for k, v in flags.items() if v is not None)
    return cfg


def _raw(cfg, key, default):
    if key in cfg:
        return cfg[key]
    if default is None:
        raise stable.ParameterError(f"missing required parameter: {key}")
    return default


def _f(cfg, key, default=None):
    return float(_raw(cfg, key, default))


def _i(cfg, key, default=None):
    """An integer parameter read exactly: ``12`` and ``1e6``, but not ``2.7``."""
    raw = _raw(cfg, key, default)
    try:
        return int(raw)
    except ValueError:
        value = float(raw)
    if not value.is_integer():
        raise stable.ParameterError(f"{key} must be an integer, got {raw!r}")
    return int(value)


def _s(cfg, key, default=None):
    return str(_raw(cfg, key, default))


def _flist(cfg, key, default=None):
    raw = _raw(cfg, key, default)
    if isinstance(raw, str):
        raw = raw.replace(",", " ").split()
    return [float(x) for x in raw]


def _given(cfg, **readers):
    """The parameters among ``readers`` that the run sets, each read by its reader.

    Unset ones are left out, so the library function's own default applies.
    """
    return {key: read(cfg, key) for key, read in readers.items() if key in cfg}


def _jsonable(obj):
    """Plain-JSON copy of ``obj``: numpy values unpacked, NaN and infinities as None."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit(result, cfg, seed, t0):
    doc = {
        "tool_version": __version__,
        "config_echo": _jsonable(cfg),
        "seed": seed,
        "wall_time": time.time() - t0,
        "result": _jsonable(result),
    }
    text = json.dumps(doc, indent=2, allow_nan=False)
    if cfg.get("out"):
        with open(cfg["out"], "w") as fh:
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


def _cmd_sample(cfg, seed):
    law = stable.StableLaw(alpha=_f(cfg, "alpha"), **_given(cfg, sigma=_f))
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
    return {"n": n, "alpha": law.alpha, "sigma": law.sigma,
            "median": float(np.median(samples)), "char_fn": report}


def _cmd_estimate(cfg, seed):
    samples = np.loadtxt(_s(cfg, "input"), ndmin=1)
    if samples.size == 0:
        raise stable.SampleSizeError("input file contains no samples")
    if not np.isfinite(samples).all():
        raise stable.ParameterError("input file contains a non-finite sample")
    k2 = _i(cfg, "k2", 0) or None
    k1 = _i(cfg, "k1", 0) or None
    alpha_hat = stable.estimate_tail_index(samples, k1=k1, k2=k2)
    k2_used = k2 if k2 else int(math.isqrt(samples.size))
    return {"alpha_hat": alpha_hat, "n": int(samples.size),
            "k2": k2_used, "k1": k1 if k1 else int(samples.size) // k2_used,
            "k2_default_used": k2 is None}


def _cmd_escape(cfg, seed):
    if "a" in cfg and "a_values" in cfg:
        raise stable.ParameterError("give --a or --a-values, not both")
    given = _given(cfg, trials=_i, max_steps=_i, alpha=_f, drift_scale=_f,
                   drift_substeps=_i, gamma=_f)
    a_values = _flist(cfg, "a_values", [_f(cfg, "a", 150.0)])
    keys = [f"{a:g}" for a in a_values]
    for key in keys:
        if keys.count(key) > 1:
            raise stable.ParameterError(f"a values repeat the key a_{key}")
    trial_csv = cfg.get("trial_csv")
    if trial_csv and len(a_values) > 1 and "{a}" not in trial_csv:
        raise stable.ParameterError("trial_csv must contain {a} when several a values run")
    result = {"basin_convention": "level cut through the branch crossover"}
    for a, key in zip(a_values, keys):
        ecfg = escape.double_well_config(a, _f(cfg, "noise_scale"), base_seed=seed, **given)
        stats = escape.run_escape_experiment(ecfg)
        result[f"a_{key}"] = stats.summary()
        if trial_csv:
            path = trial_csv.replace("{a}", key)
            _write_csv(path, ["trial", "exited", "exit_step", "exit_time"],
                       stats.exit_times)
    return result


def _cmd_sweep(cfg, seed):
    b = _f(cfg, "b", 1.0)
    mu = _f(cfg, "mu", 1.0)
    eps_list = _flist(cfg, "eps_list")
    basin = landscapes.BasinSpec(
        region=landscapes.IntervalRegion(-b, b), eps=eps_list[0], gamma=_f(cfg, "gamma", 2.0)
    )
    land = landscapes.QuadraticBasin(H=np.array([[mu]]), center=np.zeros(1),
                                     height=0.5 * mu * b * b)
    opt = dynamics.OptimizerConfig(step_h=_f(cfg, "step_h", 0.2), noise_scale=eps_list[0],
                                   **_given(cfg, alpha=_f))
    template = escape.EscapeConfig(
        landscape=land, basin=basin, optimizer=opt, theta0=np.zeros(1),
        trials=_i(cfg, "trials", 2000), max_steps=_i(cfg, "max_steps", 20000),
        base_seed=seed,
    )
    report = escape.scaling_sweep(template, eps_list)
    m_w = geometry.radon_measure(geometry.QuadraticEscapeSet(A=[[1.0]], c=b * b), opt.alpha)
    return {
        "slope": report["slope"], "intercept": report["intercept"],
        "r2": report["r2"], "theory_slope": -opt.alpha,
        "eps": report["eps"], "mean_exit_time": report["mean_exit_time"],
        "dropped": report["dropped"],
        "predicted_mean_exit_smallest_eps": escape.predicted_mean_exit(
            m_w, opt.alpha, report["eps"][0]
        ),
    }


def _spectrum_from(cfg):
    return geometry.Spectrum(lambdas=_flist(cfg, "lambdas"), sigmas=_flist(cfg, "sigmas"),
                             **_given(cfg, batch_size=_i, h_f_star=_f))


def _cmd_geometry(cfg, seed):
    # compare_measures has no default alpha; 1.5 matches OptimizerConfig's
    return geometry.compare_measures(_spectrum_from(cfg), _f(cfg, "alpha", 1.5),
                                     **_given(cfg, n_dirs=_i))


def _quadratic_flow(cfg, mu, theta0, **opt_defaults):
    """The 1D quadratic mu theta^2 / 2, a zero-noise optimizer on it, and theta0."""
    land = landscapes.QuadraticBasin(H=np.array([[_f(cfg, "mu", mu)]]), center=np.zeros(1),
                                     height=10.0)
    opt = dynamics.OptimizerConfig(beta2=_f(cfg, "beta2", 0.99), noise_scale=0.0,
                                   **{**opt_defaults, **_given(cfg, step_h=_f, beta1=_f)})
    return land, opt, np.array([_f(cfg, "theta0", theta0)])


_PROBE_UNREAD = {"noise": ("mu", "theta0", "step_h", "monitor_csv"),
                 "monitors": ("kind", "eta", "window", "batch_size", "noise_csv")}


def _cmd_probe(cfg, seed):
    mode = _s(cfg, "mode", "noise")
    if mode not in _PROBE_UNREAD:
        raise stable.ParameterError(f"unknown probe mode: {mode!r}")
    unread = ["--" + key.replace("_", "-") for key in _PROBE_UNREAD[mode] if key in cfg]
    if unread:
        raise stable.ParameterError(f"probe --mode {mode} does not read {', '.join(unread)}")
    if mode == "noise":
        model = probe.MlpModel.random_init(seed=seed)
        data = probe.SyntheticDataset.blobs(seed=seed + 1)
        opt = dynamics.OptimizerConfig(eta=_f(cfg, "eta", 0.05),
                                       **_given(cfg, kind=_s, beta1=_f, beta2=_f))
        records = probe.noise_trajectory(
            model, data, opt, _i(cfg, "steps", 600), seed=seed,
            record_stride=_i(cfg, "record_stride", 50),
            **_given(cfg, window=_i, batch_size=_i),
        )
        csv_path = cfg.get("noise_csv")
        if csv_path:
            _write_csv(csv_path, ["step", "alpha_hat", "noise_l2"],
                       [(r.step, r.alpha_hat if r.alpha_hat is not None else float("nan"),
                         r.noise_l2) for r in records])
        comparison = probe.averaging_tail_comparison(records, opt.beta1)
        return {
            "records": [{"step": r.step, "alpha_hat": r.alpha_hat,
                         "noise_l2": r.noise_l2} for r in records],
            "averaging_comparison": comparison,
            "pooling": "per-coordinate MAD standardization over the window",
        }
    land, opt, theta0 = _quadratic_flow(cfg, 1.0, 2.0, kind="ADAM")
    report = probe.assumption_monitors(land, opt, theta0, _i(cfg, "steps", 1000),
                                       record_stride=_i(cfg, "record_stride", 10))
    csv_path = cfg.get("monitor_csv")
    if csv_path:
        _write_csv(csv_path, ["t", "rho", "tau", "v_min", "v_max"],
                   [(float(t), float(r), float(tv), report.v_min, report.v_max)
                    for t, r, tv in zip(report.t, report.rho, report.tau)])
    return {"t": report.t, "rho": report.rho, "tau": report.tau,
            "v_min": report.v_min, "v_max": report.v_max}


def _cmd_flow(cfg, seed):
    land, opt, theta0 = _quadratic_flow(cfg, 2.0, 1.0, step_h=1e-3, **_given(cfg, kind=_s))
    state0 = dynamics.SdeState.initial(theta0, opt.kind)
    _, report = dynamics.deterministic_flow(state0, land, opt, _f(cfg, "T", 2.0))
    return {
        "observed_rate": report.observed_rate,
        "predicted_rate": report.predicted_rate,
        "tau": report.tau, "v_max": report.v_max,
        "n_points": int(report.lyapunov_series.shape[0]),
    }


def _cmd_compare(cfg, seed):
    spec = _spectrum_from(cfg)
    if not np.all(spec.sigmas > 0):
        raise stable.ParameterError(
            "--sigmas entries must be positive for compare: Adam's frozen "
            "preconditioner Q = batch_size * sigma must be positive")
    noise_scale = _f(cfg, "noise_scale", 0.05)
    opt = dynamics.OptimizerConfig(
        step_h=_f(cfg, "step_h", 0.1), noise_scale=noise_scale, sigma=spec.sigmas,
        beta2=0.99, **_given(cfg, alpha=_f),
    )
    geo = geometry.compare_measures(spec, opt.alpha, n_dirs=_i(cfg, "n_dirs", 400_000))
    land = landscapes.QuadraticBasin(H=np.diag(spec.lambdas),
                                     center=np.zeros(spec.dim), height=spec.h_f_star / 2.0)
    basin = landscapes.BasinSpec(region=land, eps=noise_scale, gamma=_f(cfg, "gamma", 2.0))
    ecfg = escape.EscapeConfig(
        landscape=land, basin=basin, optimizer=opt, theta0=np.zeros(spec.dim),
        trials=_i(cfg, "trials", 2000), max_steps=_i(cfg, "max_steps", 40000),
        base_seed=seed,
    )
    comparison = escape.compare_optimizers(ecfg, q_fixed_adam=spec.batch_size * spec.sigmas)
    return {
        "geometry": geo,
        "escape": {k: s.summary() for k, s in comparison["stats"].items()},
        "mean_exit_time_ratios": comparison["mean_exit_time_ratios"],
        "common_random_numbers": True,
    }


@functools.cache
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
    t0 = time.time()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _merge(args, args.command)
        seed = _i(cfg, "seed", 0)
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
            result = args.func(cfg, seed)
        _emit(result, cfg, seed, t0)
    except (stable.ParameterError, stable.SampleSizeError, ValueError, OSError,
            KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (dynamics.DivergedError, FloatingPointError) as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
