"""First-exit-time Monte Carlo on synthetic basins.

Runs ensembles of heavy-tail-driven trajectories, records the first step at
which each trajectory leaves the inner basin region, and compares the mean
exit times against the tail-measure prediction
E[exit time] = alpha / (2 m(W) eps^alpha).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import OptimizerConfig, SasStream, SdeState, levy_step
from .landscapes import BasinSpec, DoubleWell1D, IntervalRegion
from .stable import ParameterError, SampleSizeError

__all__ = [
    "EscapeConfig",
    "EscapeStats",
    "run_escape_experiment",
    "predicted_mean_exit",
    "scaling_sweep",
    "compare_optimizers",
    "calibrate_noise_amplitude",
    "double_well_config",
    "resolve_threads",
]

_CHUNK = 256


@dataclass
class EscapeConfig:
    """One escape experiment: landscape + basin + optimizer + trial budget."""

    landscape: object
    basin: BasinSpec
    optimizer: OptimizerConfig
    theta0: np.ndarray
    trials: int
    max_steps: int
    base_seed: int = 0

    def __post_init__(self):
        self.theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=float))
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.max_steps < 1:
            raise ParameterError("max_steps must be >= 1")
        if not self.basin.in_inner(self.theta0, margin_factor=2.0):
            raise ParameterError(
                "theta0 must lie in the basin with doubled margin 2 eps^gamma"
            )


@dataclass
class EscapeStats:
    """Aggregate exit statistics over an ensemble of trials."""

    escape_prob: float
    mean_exit_steps: float
    mean_exit_time: float
    n_trials: int
    n_exited: int
    exit_steps: np.ndarray  # -1 for trials that never exited
    step_h: float

    @property
    def ci95_escape_prob(self):
        p, n = self.escape_prob, self.n_trials
        return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n)

    @property
    def exit_times(self):
        """Per-trial records (trial, exited, exit_step, exit_time)."""
        return [
            (i, s > 0, int(s), s * self.step_h if s > 0 else float("nan"))
            for i, s in enumerate(self.exit_steps)
        ]

    def summary(self):
        return {
            "escape_prob": self.escape_prob,
            "mean_exit_steps": self.mean_exit_steps,
            "mean_exit_time": self.mean_exit_time,
            "n_trials": self.n_trials,
            "n_exited": self.n_exited,
            "ci95": self.ci95_escape_prob,
        }


def _run_block(cfg, trial_ids):
    opt = cfg.optimizer
    d = cfg.theta0.size
    n = len(trial_ids)
    streams = [SasStream(opt.alpha, d, cfg.base_seed + int(i)) for i in trial_ids]
    scale = opt.increment_scale(opt.step_h)
    state = SdeState.initial(np.tile(cfg.theta0, (n, 1)), opt.kind)

    exit_step = np.full(n, -1, dtype=np.int64)
    active = np.arange(n)
    step = 0
    while step < cfg.max_steps and active.size:
        chunk = min(_CHUNK, cfg.max_steps - step)
        noise = np.stack([streams[i].draw(chunk) for i in active])
        for j in range(chunk):
            state = levy_step(state, cfg.landscape, opt, scale * noise[:, j, :])
            ok = cfg.basin.in_inner(state.theta)
            if not ok.all():
                exit_step[active[~ok]] = step + j + 1
                active = active[ok]
                state = state.take(ok)
                noise = noise[ok]
                if not active.size:
                    break
        step += chunk
    return exit_step


def resolve_threads(threads=None):
    """Worker count: explicit argument, else LEVY_ESCAPE_THREADS, else 1."""
    if threads is not None:
        return max(int(threads), 1)
    env = os.environ.get("LEVY_ESCAPE_THREADS")
    return max(int(env), 1) if env else 1


def run_escape_experiment(cfg, threads=None):
    """Run the ensemble and aggregate exit statistics.

    Trial i draws its noise from an independent stream seeded base_seed + i,
    so results do not depend on how trials are split across workers.
    """
    threads = resolve_threads(threads)
    all_ids = np.arange(cfg.trials)
    if threads == 1 or cfg.trials < 2 * threads:
        exit_step = _run_block(cfg, all_ids)
    else:
        blocks = np.array_split(all_ids, threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda ids: _run_block(cfg, ids), blocks))
        exit_step = np.concatenate(parts)

    exited = exit_step > 0
    n_exited = int(exited.sum())
    mean_steps = float(exit_step[exited].mean()) if n_exited else float("nan")
    h = cfg.optimizer.step_h
    return EscapeStats(
        escape_prob=n_exited / cfg.trials,
        mean_exit_steps=mean_steps,
        mean_exit_time=mean_steps * h if n_exited else float("nan"),
        n_trials=cfg.trials,
        n_exited=n_exited,
        exit_steps=exit_step,
        step_h=h,
    )


def predicted_mean_exit(m_w, alpha, eps):
    """Theory mean exit time alpha / (2 m(W) eps^alpha)."""
    if not m_w > 0:
        raise ParameterError(f"escaping-set measure must be positive, got {m_w}")
    if not (0.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    return alpha / (2.0 * m_w * eps ** alpha)


def scaling_sweep(cfg, eps_list, min_exits=100, threads=None):
    """Fit the log-log slope of mean exit time against noise amplitude.

    Reruns ``cfg`` at each amplitude in ``eps_list`` (setting both the
    optimizer's noise_scale and the basin margin eps), drops amplitudes that
    produce fewer than ``min_exits`` exits with a warning, and least-squares
    fits log mean-exit-time vs log eps.
    """
    eps_list = sorted(float(e) for e in eps_list)
    if len(eps_list) < 2:
        raise ParameterError("a sweep needs at least two amplitudes")
    if len(eps_list) < 4 or eps_list[-1] / eps_list[0] < 10.0 - 1e-9:
        warnings.warn("sweep amplitudes should span at least a decade with >= 4 points")

    points, dropped = [], []
    for eps in eps_list:
        run_cfg = replace(
            cfg,
            optimizer=replace(cfg.optimizer, noise_scale=eps),
            basin=replace(cfg.basin, eps=eps),
        )
        stats = run_escape_experiment(run_cfg, threads=threads)
        if stats.n_exited < min_exits:
            warnings.warn(
                f"amplitude {eps:g}: only {stats.n_exited} exits (< {min_exits}); dropped"
            )
            dropped.append(eps)
            continue
        points.append((eps, stats))
    if len(points) < 2:
        raise SampleSizeError("too few amplitudes with enough exits to fit a slope")

    log_e = np.log([e for e, _ in points])
    log_t = np.log([s.mean_exit_time for _, s in points])
    slope, intercept = np.polyfit(log_e, log_t, 1)
    resid = log_t - (slope * log_e + intercept)
    ss_tot = float(np.sum((log_t - log_t.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "r2": r2,
        "eps": [e for e, _ in points],
        "mean_exit_time": [s.mean_exit_time for _, s in points],
        "stats": {e: s for e, s in points},
        "dropped": dropped,
    }


def compare_optimizers(cfg, kinds=("SGD", "ADAM", "SGDM"), q_fixed_adam=None, threads=None):
    """Paired escape runs for several optimizers with common random numbers.

    All runs share the base_seed, so trial i consumes the identical
    underlying stable stream under every optimizer.  ``q_fixed_adam``
    freezes Adam's preconditioner diagonal (the stationary approximation
    Q = S Sigma used by the escaping-set comparison); without it Adam's v
    collapses at the minimizer and the stabilizer dominates.
    """
    results = {}
    for kind in kinds:
        opt = replace(cfg.optimizer, kind=kind)
        if kind == "ADAM" and q_fixed_adam is not None:
            opt = replace(opt, q_fixed=np.asarray(q_fixed_adam, dtype=float))
        results[kind] = run_escape_experiment(replace(cfg, optimizer=opt), threads=threads)
    ratios = {}
    if "SGD" in results and results["SGD"].n_exited:
        base = results["SGD"].mean_exit_time
        for kind, stats in results.items():
            if kind != "SGD" and stats.n_exited:
                ratios[f"{kind.lower()}_over_sgd"] = stats.mean_exit_time / base
    return {"stats": results, "mean_exit_time_ratios": ratios}


def double_well_config(a, noise_scale, trials=1000, max_steps=2000, base_seed=0,
                       alpha=1.5, drift_scale=5e-5, drift_substeps=20, gamma=1.0):
    """Escape experiment on the right basin of the two-well objective.

    Iteration-time parametrization: step_h = 1, the drift applies
    ``drift_scale`` as the learning rate (in substeps, for stiff wells), and
    ``noise_scale`` is the per-iteration stable amplitude.
    """
    dw = DoubleWell1D(a)
    lo, hi = dw.right_basin_interval()
    basin = BasinSpec(region=IntervalRegion(lo, hi), eps=noise_scale, gamma=gamma)
    opt = OptimizerConfig(
        kind="SGD",
        eta=drift_scale,
        alpha=alpha,
        step_h=1.0,
        noise_scale=noise_scale,
        drift_scale=drift_scale,
        drift_substeps=drift_substeps,
    )
    return EscapeConfig(
        landscape=dw,
        basin=basin,
        optimizer=opt,
        theta0=np.array([1.0]),
        trials=trials,
        max_steps=max_steps,
        base_seed=base_seed,
    )


def calibrate_noise_amplitude(target_mean_steps, a=1e5, lo=1e-5, hi=1e-2,
                              trials=400, max_steps=2000, base_seed=0,
                              tol=0.02, max_iter=24, **kwargs):
    """Bisection on the noise amplitude to hit a target mean exit step count.

    Runs the stiff reference well (default a = 1e5) at each candidate
    amplitude with a fixed seed; mean exit steps decrease monotonically in
    the amplitude, so plain bisection converges.  Returns (amplitude, stats).
    """
    def mean_steps(eps):
        cfg = double_well_config(
            a, eps, trials=trials, max_steps=max_steps, base_seed=base_seed, **kwargs
        )
        return run_escape_experiment(cfg)

    stats = None
    for _ in range(max_iter):
        mid = math.sqrt(lo * hi)
        stats = mean_steps(mid)
        got = stats.mean_exit_steps
        if not math.isfinite(got):
            lo = mid
            continue
        if abs(got - target_mean_steps) <= tol * target_mean_steps:
            return mid, stats
        if got > target_mean_steps:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi), stats
