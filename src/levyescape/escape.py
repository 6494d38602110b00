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
from functools import partial

import numpy as np

from .dynamics import OptimizerConfig, SasStream, SdeState, levy_step
from .landscapes import BasinSpec, DoubleWell1D, IntervalRegion
from .stable import ParameterError, SampleSizeError, sliced

__all__ = [
    "EscapeConfig",
    "EscapeStats",
    "run_escape_experiment",
    "predicted_mean_exit",
    "scaling_sweep",
    "compare_optimizers",
    "double_well_config",
]

_FIRST_CHUNK = 8
_CHUNK = 256
# values per chunk-kernel slice: bounds its temporaries, and keeps each of
# its array operations long enough for two threads to share the slices
_SCAN_SLICE = 65536
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
        if not 1 <= self.max_steps < 2**31:
            raise ParameterError("max_steps must lie in [1, 2**31): exit steps are int32")
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
    """Exit statistics of an ensemble, all derived from its exit steps."""

    exit_steps: np.ndarray  # int32; -1 for trials that never exited
    step_h: float
    max_steps: int

    @property
    def n_trials(self):
        return self.exit_steps.size

    @property
    def n_exited(self):
        return int((self.exit_steps > 0).sum())

    @property
    def escape_prob(self):
        return self.n_exited / self.n_trials

    @property
    def mean_exit_steps(self):
        """Mean exit step of the trials that exited; NaN when none did."""
        exited = self.exit_steps[self.exit_steps > 0]
        return float(exited.mean()) if exited.size else float("nan")

    @property
    def mean_exit_time(self):
        return self.mean_exit_steps * self.step_h

    @property
    def censored_mean_exit_steps(self):
        """Right-censored exponential MLE of the mean exit step.

        sum_i min(T_i, max_steps) / n_exited: a trial still inside at
        ``max_steps`` counts its max_steps steps but no exit.  NaN when no
        trial exited.
        """
        if not self.n_exited:
            return float("nan")
        exited = self.exit_steps[self.exit_steps > 0]
        censored = self.n_trials - self.n_exited
        return (int(exited.sum()) + censored * self.max_steps) / self.n_exited

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
            "censored_mean_exit_steps": self.censored_mean_exit_steps,
            "mean_exit_time": self.mean_exit_time,
            "n_trials": self.n_trials,
            "n_exited": self.n_exited,
            "ci95": self.ci95_escape_prob,
        }


def _run_chunks(cfg, trial_ids, state, advance):
    """First exit step of each trial, stepping the survivors one noise chunk at a time.

    ``advance(cfg, state, noise)`` steps the rows of ``state`` through
    ``noise`` (rows, chunk, d) and returns the survivors' state and ``ends``,
    one int per row: 0 = still inside at the chunk's end, k > 0 = first exit
    at step k of the chunk, -1 = undecided, recorded as exit step 0, which no
    exit can have.  The stream follows the survivors once per chunk.
    """
    # the result outlives the run: allocated before the stream and the step
    # temporaries, it does not pin a hole among them in the heap
    exit_step = np.full(len(trial_ids), -1, dtype=np.int32)
    stream = SasStream(cfg.optimizer.alpha, cfg.theta0.size, cfg.base_seed + trial_ids)
    active = np.arange(len(trial_ids))
    step, thinned = 0, True
    while step < cfg.max_steps and active.size:
        chunk = _chunk_length(cfg, step, thinned)
        # no name holds the noise across the next draw, nor the chunk's
        # starting state once the step drops it: the step gets the only reference
        state, ends = advance(cfg, state, (state := None) or stream.draw(chunk))
        keep = ends == 0
        exit_step[active[~keep]] = np.where(ends[~keep] > 0, step + ends[~keep], 0)
        thinned = 2 * int(keep.sum()) <= active.size
        active, stream = active[keep], stream.take(keep)
        step += chunk
    return exit_step


def _levy_chunk(cfg, state, noise):
    """One chunk of ``levy_step`` with the exit check after every step."""
    opt = cfg.optimizer
    scale = opt.increment_scale(opt.step_h)
    rows = np.arange(len(noise))
    ends = np.zeros(rows.size, dtype=np.int32)
    for j in range(noise.shape[1]):
        state = levy_step(state, cfg.landscape, opt, scale * noise[rows, j, :])
        ok = cfg.basin.in_inner(state.theta)
        if not ok.all():
            ends[rows[~ok]] = j + 1
            rows, state = rows[ok], state.take(ok)
            if not rows.size:
                break
    return state, ends


def _run_generic(cfg, trial_ids):
    """Step the trials with ``levy_step`` and record each one's first exit step."""
    # not named here, or the full initial state would live for the whole run
    return _run_chunks(cfg, trial_ids, SdeState.initial(
        np.tile(cfg.theta0, (len(trial_ids), 1)), cfg.optimizer.kind), _levy_chunk)


def _chunk_length(cfg, step, thinned):
    # Noise for the next chunk, drawn before anyone knows who will exit in
    # it.  The first chunk, and any chunk after one in which at least half of
    # the trials exited, is as long as the steps taken so far (8, 8, 16, 32,
    # ..., 256), so an ensemble that keeps thinning draws little noise for
    # trials about to leave.  An ensemble that stopped thinning runs to the
    # next multiple of _CHUNK, in few long draws.  Both kinds end on a power
    # of two or a multiple of _CHUNK, so no chunk straddles a SasStream.BLOCK.
    if thinned:
        chunk = min(max(step, _FIRST_CHUNK), _CHUNK)
    else:
        chunk = _CHUNK - step % _CHUNK
    return min(chunk, cfg.max_steps - step)


def _affine_drift(cfg):
    """Constants of the chunk kernel's step ``_scan_chunk``, or None where it does not apply.

    The kernel needs: kind SGD, d = 1, an ``IntervalRegion`` basin, sigma
    None or one entry, |r| <= 1 for the substep factor r = 1 - step gamma,
    and a gradient gamma (x - c) on every point a drift substep can start
    from.  Those start from inner points, which lie at least half the margin
    inside the region, and move towards c (r >= 0) or across it (r < 0).
    Returns ``(R, rho, c, b, I_lo, I_hi)``: the computed R = r^K, the bound
    rho on |R| and on the computed R's modulus, the noise-free part b of the
    per-step bound (``_run_block``) and the inner interval's ends.
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
    return (big_r, abs(big_r) + d_r, c, b) + _inner_ends(basin, float(cfg.theta0[0]))


def _inner_ends(basin, theta0):
    """``(I_lo, I_hi)``, the least and the greatest float ``basin.in_inner`` accepts.

    Bisection over the float ordering from theta0 towards the region's ends (as floats);
    the key k ^ (k >> 63 & (2^63 - 1)) of a float's bits k orders floats as
    their values and is its own inverse.
    """
    order = lambda k: k ^ ((k >> 63) & np.int64(2 ** 63 - 1))
    inside = order(np.array([theta0, theta0]).view(np.int64))
    outside = order(np.array([basin.region.lo, basin.region.hi], float).view(np.int64))
    for _ in range(64):  # halves each key gap, below 2^64, down to 1
        mid = (inside >> 1) + (outside >> 1) + (inside & outside & 1)
        ok = basin.in_inner(order(mid).view(np.float64)[:, None])
        inside, outside = np.where(ok, mid, inside), np.where(ok, outside, mid)
    return tuple(order(inside).view(np.float64).tolist())


def _affine_scan(a, y0, y):
    """Overwrite ``y`` (L, rows) with the recursion y_j = a y_{j-1} + y_j from y_0 = ``y0``.

    A doubling (Hillis-Steele) scan along axis 0: after pass k every entry
    holds the sum of its last 2^k terms, so ceil(log2 L) passes of
    ``y[s:] += a^s y[:-s]`` replace the L sequential steps; time-major, each
    pass is one contiguous array operation.  Rounding: each input term
    reaches output j through at most ceil(log2 L) multiplications and
    ceil(log2 L) + 1 additions, the first one adding a y0, and a^s, formed by
    repeated squaring, carries s - 1 roundings of a; so the computed y_j
    differs from the exact recursion with this ``a`` by at most
    gamma_N (|a|^j |y0| + sum_i |a|^(j-i) |y_i|), N = L + 2 ceil(log2 L) + 2,
    gamma_N = N u / (1 - N u), u = 2^-53.
    """
    y[0] += a * y0
    shift, power, scratch = 1, a, np.empty_like(y)
    while shift < len(y):
        np.multiply(power, y[:-shift], out=scratch[shift:])
        y[shift:] += scratch[shift:]
        shift, power = 2 * shift, power * power
    return y


def _chunk_bracket(drift, xi, y, dev):
    """Offsets ``x`` (L, rows) of one chunk, their half-widths and column extremes.

    Returns ``(x, half, bottom, top)``: the kernel's iterates are c + x, each
    trial's bracket is [c + x_j - half, c + x_j + half], and bottom and top
    are min_j and max_j of c + x_j, each rounded as c + x_j is, since
    rounding is monotone.  ``xi`` (rows, L) holds the noise terms as
    ``noise_term`` forms them and is overwritten with |xi|; ``y`` and
    ``dev`` (rows,), the offsets theta - c and their deviation bounds at the
    chunk start, are advanced in place to the chunk end.  The bracket holds
    the generic loop's iterate at every step up to a trial's first exit (see
    ``_run_block``); a step whose bracket straddles the basin's edge leaves
    the trial undecided, exit step 0 in the driver's result.  The scan runs
    on a time-major copy of ``xi``.

    S of ``_run_block`` sums |xi_j| in one pairwise row sum per trial
    (within gamma_(ceil(log2 L))) before the transpose.  The copy's
    ``sum(axis=0)`` would add sequentially, within gamma_(L-1), and L - 1
    plus S's four other roundings is at most N, so S would still be low by
    less than 1 + 4 gamma_N; but numpy adds a one-column slice pairwise, so
    a trial's dev would depend on its slice's width.
    """
    big_r, rho, c, b = drift[:4]
    length = xi.shape[1]
    n = length + 2 * math.ceil(math.log2(length)) + 2
    gamma_n = n * _U / (1.0 - n * _U)
    x = xi.T.copy()
    total = np.abs(xi, out=xi).sum(axis=1) * (1.01 * _U + gamma_n)
    del xi  # the rows are freed before the scan's scratch is allocated
    total += dev + gamma_n * np.abs(y) + length * b
    x = _affine_scan(big_r, y, x)
    y[:], dev[:] = x[-1], max(1.0, rho) ** length * total * (1.0 + 4.0 * gamma_n)
    bottom, top = c + x.min(axis=0), c + x.max(axis=0)
    half = _BOUND_SLACK * (dev + 2.0 * _U * np.maximum(top, -bottom))
    return x, half, bottom, top


def _chunk_outcome(inner_lo, inner_hi, low, high):
    """Per column (trial): 0 if certainly inside throughout, k if it certainly
    first exits at step k, else -1.  Only the columns that are not certainly
    inside at every step search for their first step that is not."""
    stays = (low >= inner_lo) & (high <= inner_hi)
    out = np.zeros(stays.shape[1], dtype=np.int32)
    cols = np.flatnonzero(~stays.all(axis=0))
    stop = np.argmin(stays[:, cols], axis=0)
    leaves = (high[stop, cols] < inner_lo) | (low[stop, cols] > inner_hi)
    out[cols] = np.where(leaves, stop + 1, -1)
    return out


def _slice_ends(drift, x, half, bottom, top):
    """``_chunk_outcome`` of one slice, from ``_chunk_bracket``'s ``(x, half, bottom, top)``.

    Rounding is monotone, so fl(bottom - half) and fl(top + half) are the
    least low end and the greatest high end of a trial's brackets over the
    chunk: a trial with both in [I_lo, I_hi] is inside at every step (0),
    and a NaN fails the test.  Only the other trials form their brackets.
    """
    c, inner_lo, inner_hi = drift[2], *drift[4:]
    ends = np.zeros(half.size, dtype=np.int32)
    moves = ~((bottom - half >= inner_lo) & (top + half <= inner_hi))
    if moves.any():
        x, half = x[:, moves] + c, half[moves]
        ends[moves] = _chunk_outcome(inner_lo, inner_hi, x - half, x + half)
    return ends


def _scan_chunk(drift, cfg, state, noise):
    """One chunk of the chunk kernel on the offsets ``state = (y, dev)``; see ``_run_block``.

    Its slices of trials share the slice pool (``stable.sliced``); each
    reads and writes only its own trials of ``ends``, ``y`` and ``dev``.
    """
    opt = cfg.optimizer
    scale = opt.increment_scale(opt.step_h)
    y, dev = state
    ends = np.empty(y.size, dtype=np.int32)
    rows = max(1, _SCAN_SLICE // noise.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        sliced(_scan_slice, [slice(lo, lo + rows) for lo in range(0, y.size, rows)],
               drift, opt, scale, noise, y, dev, ends)
    keep = ends == 0
    return (y[keep], dev[keep]), ends


def _scan_slice(sl, drift, opt, scale, noise, y, dev, ends):
    # not named here, so the bracket can free the rows once it has copied
    # them, and the slice's arrays are freed together
    ends[sl] = _slice_ends(drift, *_chunk_bracket(
        drift, opt.noise_term(scale * noise[sl])[..., 0], y[sl], dev[sl]))


def _run_block(cfg, trial_ids):
    """Exit steps of ``trial_ids``: the chunk kernel where it applies, else ``levy_step``.

    Both run on the chunk driver ``_run_chunks`` and differ only in its
    per-chunk step.  The generic loop (``_run_generic``, step ``_levy_chunk``)
    steps every trial with ``levy_step`` and checks ``basin.in_inner`` after
    each step; it serves every config and is the oracle.  For 1D SGD on an
    interval basin over an affine gradient (``_affine_drift``), the drift
    over one step is the linear map y -> R y of the offset y = theta - c,
    R = r^K, r = 1 - step gamma, so a chunk of L steps is
    y_j = R y_{j-1} + xi_j.  The kernel's step (``_scan_chunk``) forms
    xi = noise_term(scale * noise) from the same ``SasStream`` rows, the
    call the generic step makes, so xi carries the generic bits, and runs
    the recursion as one ``_affine_scan`` per slice of trials, time-major
    (L, rows) so that each doubling pass is one contiguous operation; the
    calling thread and the slice pool's workers share the slices.

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
    |R~| + 5 K u, so with the per-step terms
    b_j = u (8.1 K + 1.01) (|c| + Y) + 10 K u Y + (1.01 u + gamma_N) |xi_j|
    and the bound dev carried in, every delta_j of an L-step chunk is at
    most P S, P = max(1, rho)^L, S = dev + gamma_N |y~_0| + sum_j b_j: one
    pairwise row sum per trial, taken before the transpose, low by less than
    a factor 1 + 4 gamma_N (Higham 2002, ch. 4; ``_chunk_bracket``), and
    P S (1 + 4 gamma_N) is the next chunk's dev, bit for bit the same
    whatever the slice width.  The check uses
    Delta = _BOUND_SLACK (P S (1 + 4 gamma_N) + 2 u max_j |x~_j|) per trial
    and chunk, which also covers forming x~_j = c + y~_j and x~_j -+ Delta.
    It does not decay with rho^L; on the sweep preset (eps = 0.01, 33543
    steps) dev stayed below 1e-10, against a margin of 1e-4.

    Interval argument.  For an ``IntervalRegion``, ``in_inner`` is
    lo < x < hi and min(|x - lo|, |x - hi|) >= margin, and rounding is
    monotone, so fl(x - lo) rises and fl(hi - x) falls with x: the floats
    it accepts form an interval I = [I_lo, I_hi] around theta0, whose ends
    ``_inner_ends`` finds with ``in_inner`` itself.  The generic x_j lies in
    the bracket [x~_j - Delta, x~_j + Delta].  If both ends are in I, so is
    x_j.  If the bracket lies below I_lo or above I_hi (both ends outside I,
    theta0 outside it), x_j is outside.  Any other answer is uncertain; the
    answer at x~_j itself would settle no further case.

    A trial is accepted only if every step up to its first exit (or to
    max_steps) is certain.  Any other trial is undecided, which the driver
    records as exit step 0, and is re-run from step 0 on the generic loop,
    so the exit steps equal the generic loop's by construction.
    """
    drift = _affine_drift(cfg)
    if drift is None:
        return _run_generic(cfg, trial_ids)
    n, y = len(trial_ids), cfg.theta0[0] - drift[2]
    # offsets y = theta - c and dev = _U |y|, which bounds |c + y - generic theta|
    exit_step = _run_chunks(cfg, trial_ids, (np.full(n, y), np.full(n, _U * abs(y))),
                            partial(_scan_chunk, drift))
    undecided = exit_step == 0
    if undecided.any():
        exit_step[undecided] = _run_generic(cfg, trial_ids[undecided])
    return exit_step


def run_escape_experiment(cfg, threads=None):
    """Run the ensemble and aggregate exit statistics.

    Trial i draws its noise from its own stream, the ``SasStream`` seeded
    base_seed + i, so its noise does not depend on how trials are split
    across workers; its path can, in the last bits, where a matrix product
    rounds a row with the batch size (``QuadraticBasin.gradient`` from
    d = 4, a dense sigma).  Streams are keyed by base_seed + i alone, so
    neighbouring base seeds share all but one of their trials' streams,
    shifted by one trial.  Ensembles with the same base_seed, trials and
    dimension read the same streams, and the first chunk of noise that one
    of them seeds and transforms serves the next from ``SasStream``'s start
    memo.  ``threads`` (None = serial) splits the trials over a thread pool,
    each block a stream of its own, so at most one block reads the memo.
    The pool is reachable only through this argument and is kept for the
    benchmark's thread-scaling measurement.  Its blocks share the slice
    workers, which already spread every transform and every chunk-kernel
    step of two or more slices over the usable cores, so two threads no
    longer beat one: traced fig3 at seed 5 read ``escape.threads2_speedup``
    0.89-0.98, against 1.10-1.26 before the transform was sliced (two
    cores, three runs each, equal exit steps).  Deleting or reusing this
    pool is left to a benchmark change.
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

    return EscapeStats(exit_steps=exit_step, step_h=cfg.optimizer.step_h,
                       max_steps=cfg.max_steps)


def predicted_mean_exit(m_w, alpha, eps):
    """Theory mean exit time alpha / (2 m(W) eps^alpha)."""
    if not m_w > 0:
        raise ParameterError(f"escaping-set measure must be positive, got {m_w}")
    if not (0.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    return alpha / (2.0 * m_w * eps ** alpha)


def scaling_sweep(cfg, eps_list):
    """Fit the log-log slope of mean exit time against noise amplitude.

    Reruns ``cfg`` at each amplitude in ``eps_list`` (setting both the
    optimizer's noise_scale and the basin margin eps), drops amplitudes that
    produce fewer than 100 exits with a warning, and least-squares fits log
    mean-exit-time vs log eps.
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
        if stats.n_exited < 100:
            warnings.warn(f"amplitude {eps:g}: only {stats.n_exited} exits (< 100); dropped")
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


def compare_optimizers(cfg, q_fixed_adam=None):
    """Paired escape runs of SGD, Adam and SGD-M with common random numbers.

    The three runs share the base_seed, so trial i consumes the identical
    underlying stable stream under every optimizer, and each ratio in
    ``mean_exit_time_ratios`` is a mean exit time over SGD's (absent when
    either run has no exits).  The runs after the first read their common
    first chunk of noise from ``SasStream``'s start memo instead of seeding
    and transforming it again.  ``q_fixed_adam`` freezes Adam's
    preconditioner diagonal (the stationary approximation Q = S Sigma used
    by the escaping-set comparison); without it Adam's v collapses at the
    minimizer and the stabilizer dominates.
    """
    results = {}
    for kind in ("SGD", "ADAM", "SGDM"):
        opt = replace(cfg.optimizer, kind=kind)
        if kind == "ADAM" and q_fixed_adam is not None:
            opt = replace(opt, q_fixed=np.asarray(q_fixed_adam, dtype=float))
        results[kind] = run_escape_experiment(replace(cfg, optimizer=opt))
    ratios = {}
    if results["SGD"].n_exited:
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
