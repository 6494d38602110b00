"""First-exit-time Monte Carlo on synthetic basins.

Runs ensembles of heavy-tail-driven trajectories, records the first step at
which each trajectory leaves the inner basin region, and compares the mean
exit times against the tail-measure prediction
E[exit time] = alpha / (2 m(W) eps^alpha).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

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
]

_FIRST_CHUNK = 8
_CHUNK = 256
_SCAN_SLICE = 32768  # values per chunk-kernel slice; bounds its temporaries
_U = 2.0 ** -53  # unit roundoff of float64
_BOUND_SLACK = 2.0  # safety factor on the chunk kernel's rounding-error bound


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
        if not 0 <= int(self.base_seed) <= 2**63 - int(self.trials):
            raise ParameterError("trial seeds base_seed + i must lie in [0, 2**63)")
        if self.theta0.size != self.landscape.dim:
            raise ParameterError(
                f"theta0 has {self.theta0.size} coordinates, the landscape {self.landscape.dim}"
            )
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


def _run_generic(cfg, trial_ids):
    """Step the trials with ``levy_step`` and record each one's first exit step."""
    opt = cfg.optimizer
    d = cfg.theta0.size
    n = len(trial_ids)
    # the result outlives the run: allocated before the stream and the step
    # temporaries, it does not pin a hole among them in the heap
    exit_step = np.full(n, -1, dtype=np.int64)
    stream = SasStream(opt.alpha, d, cfg.base_seed + trial_ids)
    scale = opt.increment_scale(opt.step_h)
    state = SdeState.initial(np.tile(cfg.theta0, (n, 1)), opt.kind)

    active = np.arange(n)
    step = 0
    while step < cfg.max_steps and active.size:
        chunk = _chunk_length(cfg, step)
        noise = stream.draw(chunk)
        for j in range(chunk):
            state = levy_step(state, cfg.landscape, opt, scale * noise[:, j, :])
            ok = cfg.basin.in_inner(state.theta)
            if not ok.all():
                exit_step[active[~ok]] = step + j + 1
                active = active[ok]
                state = state.take(ok)
                stream = stream.take(ok)
                noise = noise[ok]
                if not active.size:
                    break
        del noise  # not held across the next draw
        step += chunk
    return exit_step


def _chunk_length(cfg, step):
    # A short first chunk, then chunks ending on multiples of _CHUNK: in a
    # basin that trials leave within a few steps, most of them exit inside
    # the first chunk, so the noise drawn for them and never used stays small.
    chunk = _FIRST_CHUNK if step == 0 else _CHUNK - step % _CHUNK
    return min(chunk, cfg.max_steps - step)


def _affine_drift(cfg):
    """Constants of the chunk kernel, or None where it does not apply.

    The kernel needs: kind SGD, d = 1, an ``IntervalRegion`` basin, sigma
    None or one entry, |r| <= 1 for the substep factor r = 1 - step gamma,
    and a gradient gamma (x - c) on every point a drift substep can start
    from.  Those start from inner points, which lie at least half the margin
    inside the region, and move towards c (r >= 0) or across it (r < 0).
    Returns ``(R, rho, c, b)``: the computed R = r^K, the bound rho on |R|
    and on the computed R's modulus, and the noise-free part b of the
    per-step bound of ``_run_block``.
    """
    opt, basin = cfg.optimizer, cfg.basin
    if (opt.kind != "SGD" or cfg.theta0.size != 1
            or not isinstance(basin.region, IntervalRegion)
            or (opt.sigma is not None and opt.sigma.size != 1)
            or not basin.in_inner(cfg.theta0)):
        return None
    lo, hi = basin.region.lo, basin.region.hi
    inner_lo, inner_hi = lo + 0.5 * basin.margin, hi - 0.5 * basin.margin
    affine = cfg.landscape.affine_gradient(inner_lo, inner_hi)
    if affine is None:
        return None
    gamma, c = affine
    r = 1.0 - opt.step_h * opt.drift_scale / opt.drift_substeps * gamma
    if not abs(r) <= 1.0:
        return None
    if r >= 0.0:
        reach = (min(inner_lo, c), max(inner_hi, c))
    else:
        half = max(abs(inner_lo - c), abs(inner_hi - c))
        reach = (c - half, c + half)
    if cfg.landscape.affine_gradient(*reach) != affine:
        return None
    k = opt.drift_substeps
    big_r = 1.0
    for _ in range(k):
        big_r *= r
    d_r = 5.0 * k * _U  # bounds |computed R - R|
    y_max = max(abs(lo - c), abs(hi - c))
    b = _U * (8.1 * k + 1.01) * (abs(c) + y_max) + 2.0 * y_max * d_r
    return big_r, abs(big_r) + d_r, c, b


def _affine_scan(a, y0, y):
    """Overwrite ``y`` (rows, L) with the recursion y_j = a y_{j-1} + y_j from y_0 = ``y0``.

    A doubling (Hillis-Steele) scan: after pass k every entry holds the sum
    of its last 2^k terms, so ceil(log2 L) passes of ``y[:, s:] += a^s y[:, :-s]``
    replace the L sequential steps.  Rounding: each input term reaches output
    j through at most ceil(log2 L) multiplications and ceil(log2 L) + 1
    additions, the first one adding a y0, and a^s, formed by repeated
    squaring, carries s - 1 roundings of a; so the computed y_j differs from
    the exact recursion with this ``a`` by at most
    gamma_N (|a|^j |y0| + sum_i |a|^(j-i) |y_i|), N = L + 2 ceil(log2 L) + 2,
    gamma_N = N u / (1 - N u), u = 2^-53.  With nonnegative inputs every
    rounding is relative, so the computed value is at least
    (1 - gamma_N) times the exact one.
    """
    y[:, 0] += a * y0
    shift, power = 1, a
    while shift < y.shape[1]:
        y[:, shift:] += power * y[:, :-shift]
        shift, power = 2 * shift, power * power
    return y


def _chunk_bracket(drift, xi, y, dev):
    """Brackets ``(low, high)``, each (rows, L), around the generic iterates of one chunk.

    ``xi`` (rows, L) holds the noise terms and is overwritten; ``y`` and
    ``dev`` (rows,), the offsets theta - c and their deviation bounds at the
    chunk start, are advanced in place to the chunk end.  The bracket holds
    the generic loop's iterate at every step up to a trial's first exit (see
    ``_run_block``).
    """
    big_r, rho, c, b = drift
    length = xi.shape[1]
    n = length + 2 * math.ceil(math.log2(length)) + 2
    gamma_n = n * _U / (1.0 - n * _U)
    bound = np.abs(xi)
    bound *= 1.01 * _U + gamma_n
    bound += b
    x = _affine_scan(big_r, y, xi)
    half = _affine_scan(rho, dev + gamma_n * np.abs(y), bound)
    # the abs scan rounds down by at most gamma_n
    y[:], dev[:] = x[:, -1], half[:, -1] * (1.0 + 4.0 * gamma_n)
    x += c
    half += 2.0 * _U * np.abs(x)
    half *= _BOUND_SLACK
    return x - half, x + half


def _chunk_outcome(basin, theta0, low, high):
    """Per trial: the first step not certainly inside, whether there is one, and whether it certainly exits."""
    low_in, high_in = basin.in_inner(low[..., None]), basin.in_inner(high[..., None])
    stays = low_in & high_in
    leaves = ~(low_in | high_in) & ((theta0 <= low) | (theta0 >= high))
    stop = np.argmin(stays, axis=1)
    rows = np.arange(stop.size)
    return stop, ~stays[rows, stop], leaves[rows, stop]


def _run_affine(cfg, trial_ids, drift):
    """Chunk kernel: exit steps of the trials it certifies, and which ones it could not.

    Returns ``(exit_step, uncertain)``; ``exit_step`` is valid where
    ``uncertain`` is False.  See ``_run_block`` for the bound it certifies with.
    """
    opt = cfg.optimizer
    c = drift[2]
    theta0 = float(cfg.theta0[0])
    scale = opt.increment_scale(opt.step_h)
    n = len(trial_ids)
    exit_step = np.full(n, -1, dtype=np.int64)  # before the stream, as in _run_generic
    stream = SasStream(opt.alpha, 1, cfg.base_seed + trial_ids)

    uncertain = np.zeros(n, dtype=bool)
    active = np.arange(n)
    y = np.full(n, theta0 - c)
    dev = _U * np.abs(y)  # bounds |c + y - generic theta|
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while step < cfg.max_steps and active.size:
            chunk = _chunk_length(cfg, step)
            noise = stream.draw(chunk)
            keep = np.ones(active.size, dtype=bool)
            rows = max(1, _SCAN_SLICE // chunk)
            for lo in range(0, active.size, rows):
                sl = slice(lo, lo + rows)
                # the generic step's operations, so the noise terms carry its bits
                xi = (opt.eps_noise * opt.apply_sigma(scale * noise[sl]))[..., 0]
                low, high = _chunk_bracket(drift, xi, y[sl], dev[sl])
                stop, ended, leaves = _chunk_outcome(cfg.basin, theta0, low, high)
                ids = active[sl]
                exit_step[ids[ended & leaves]] = step + stop[ended & leaves] + 1
                uncertain[ids[ended & ~leaves]] = True
                keep[sl] = ~ended
            del noise  # not held across the next draw
            active, y, dev = active[keep], y[keep], dev[keep]
            stream = stream.take(keep)
            step += chunk
    return exit_step, uncertain


def _run_block(cfg, trial_ids):
    """Exit steps of ``trial_ids``: the chunk kernel where it applies, else ``levy_step``.

    The generic loop (``_run_generic``) steps every trial with ``levy_step``
    and checks ``basin.in_inner`` after each step; it serves every config and
    is the oracle.  For 1D SGD on an interval basin over an affine gradient
    (``_affine_drift``), the drift over one step is the linear map
    y -> R y of the offset y = theta - c, R = r^K, r = 1 - step gamma, so a
    chunk of L steps is y_j = R y_{j-1} + xi_j.  The kernel forms
    xi = eps_noise * apply_sigma(scale * noise) from the same ``SasStream``
    rows with the generic step's operations, so xi carries the generic bits,
    and runs the recursion as one ``_affine_scan`` per slice of trials.

    Rounding-error bound.  Let u = 2^-53, x_j the generic loop's iterate,
    Y = max |theta - c| over the region, and delta_j a bound on
    |c + y~_j - x_j| for the kernel's y~_j.  While the generic iterates stay
    inside the region (every step before the first exit), the generic step
    differs from the exact map x -> c + R (x - c) + xi_j by at most
    u ((8.1 K + 1.01) (|c| + Y) + 1.01 |xi_j|): each drift substep rounds
    x - c, the two products and the subtraction, at most
    u (|c| + 7.01 |x - c|) with step gamma <= 2, none of them grows under
    |r| <= 1, and the noise addition rounds once.  The kernel differs from
    that exact map through its own R, |R~ - R| <= 5 K u (r~ = 1 - step gamma
    to 3u, then K - 1 products), applied to offsets below 2 Y, and through
    the scan's rounding (``_affine_scan``: gamma_N per noise term and per
    chunk-start offset).  Deviations propagate with factor |R| <= rho =
    |R~| + 5 K u, so the per-step terms
    b_j = u (8.1 K + 1.01) (|c| + Y) + 10 K u Y + (1.01 u + gamma_N) |xi_j|
    run through the same scan with rho give delta_j.  The check uses
    Delta_j = _BOUND_SLACK (delta_j + 2 u |x~_j|), which also covers forming
    x~_j = c + y~_j and x~_j -+ Delta_j, and the abs scan's own rounding.

    Interval argument.  For an ``IntervalRegion``, ``in_inner`` is
    lo < x < hi and min(|x - lo|, |x - hi|) >= margin, and rounding is
    monotone, so fl(x - lo) rises and fl(hi - x) falls with x: the floats
    it accepts form an interval I, which contains theta0.  The generic x_j
    lies in the bracket [x~_j - Delta_j, x~_j + Delta_j].  If both ends are
    in I, so is x_j.  If both ends are outside I and theta0 is outside the
    bracket, I lies wholly on theta0's side of the bracket, so x_j is
    outside.  Any other answer is uncertain; the answer at x~_j itself would
    settle no further case.

    A trial is accepted only if every step up to its first exit (or to
    max_steps) is certain.  Any other trial is re-run from step 0 on the
    generic loop, so the exit steps equal the generic loop's by
    construction.
    """
    drift = _affine_drift(cfg)
    if drift is None:
        return _run_generic(cfg, trial_ids)
    exit_step, uncertain = _run_affine(cfg, trial_ids, drift)
    if uncertain.any():
        exit_step[uncertain] = _run_generic(cfg, trial_ids[uncertain])
    return exit_step


def run_escape_experiment(cfg, threads=None):
    """Run the ensemble and aggregate exit statistics.

    Trial i draws its noise from its own stream, the ``SasStream`` seeded
    base_seed + i, so results do not depend on how trials are split across
    workers.  Streams are keyed by that sum alone, so neighbouring base
    seeds share all but one of their trials' streams, shifted by one trial.
    ``threads`` (None = serial) splits the trials over a thread pool.  The
    pool is reachable only through this argument and is kept for the
    benchmark's thread-scaling measurement, where two threads ran the sweep
    point 1.10-1.51x faster than one at seeds 1-4 (two cores, equal exit
    steps); a benchmark change is to decide the default.
    """
    all_ids = np.arange(cfg.trials)
    if threads is None or threads <= 1 or cfg.trials < 2 * threads:
        exit_step = _run_block(cfg, all_ids)
    else:
        from concurrent.futures import ThreadPoolExecutor  # about 6 ms to import

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


def scaling_sweep(cfg, eps_list, min_exits=100):
    """Fit the log-log slope of mean exit time against noise amplitude.

    Reruns ``cfg`` at each amplitude in ``eps_list`` (setting both the
    optimizer's noise_scale and the basin margin eps), drops amplitudes that
    produce fewer than ``min_exits`` exits with a warning, and least-squares
    fits log mean-exit-time vs log eps.
    """
    eps_list = sorted(float(e) for e in eps_list)
    if len(eps_list) < 2:
        raise ParameterError("a sweep needs at least two amplitudes")
    if not all(0.0 < e < 1.0 for e in eps_list):
        raise ParameterError(f"sweep amplitudes must lie in (0, 1), got {eps_list}")
    if len(eps_list) < 4 or eps_list[-1] / eps_list[0] < 10.0 - 1e-9:
        warnings.warn("sweep amplitudes should span at least a decade with >= 4 points")

    points, dropped = [], []
    for eps in eps_list:
        run_cfg = replace(
            cfg,
            optimizer=replace(cfg.optimizer, noise_scale=eps),
            basin=replace(cfg.basin, eps=eps),
        )
        stats = run_escape_experiment(run_cfg)
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


def compare_optimizers(cfg, kinds=("SGD", "ADAM", "SGDM"), q_fixed_adam=None):
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
        results[kind] = run_escape_experiment(replace(cfg, optimizer=opt))
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
    the amplitude, so plain bisection converges.  Returns (amplitude, stats);
    if no amplitude hits the target within ``max_iter`` evaluations, the
    last amplitude evaluated and its own stats.
    """
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")

    def mean_steps(eps):
        cfg = double_well_config(
            a, eps, trials=trials, max_steps=max_steps, base_seed=base_seed, **kwargs
        )
        return run_escape_experiment(cfg)

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
    return mid, stats
