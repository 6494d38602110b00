"""Symmetric alpha-stable (SaS) sampling, estimation, and jump decomposition.

Conventions: SaS(sigma) is the symmetric stable law with characteristic
function E[exp(i w X)] = exp(-sigma^alpha |w|^alpha).  At alpha = 2 this is
a Gaussian with variance 2 sigma^2.
"""

from __future__ import annotations

import collections
import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParameterError",
    "SampleSizeError",
    "StableLaw",
    "JumpDecompositionConfig",
    "JumpEvents",
    "sample_sas",
    "sas_from_uniforms",
    "sliced",
    "empirical_char_fn",
    "estimate_tail_index",
    "jump_intensity",
    "tail_normalization",
    "decompose_jumps",
    "interjump_time_test",
]


class ParameterError(ValueError):
    """A distribution or process parameter is outside its domain."""


class SampleSizeError(ValueError):
    """Not enough samples / events for the requested statistic."""


def _check_alpha(alpha):
    if not (0.0 < alpha <= 2.0):
        raise ParameterError(f"tail index alpha must lie in (0, 2], got {alpha}")


@dataclass(frozen=True)
class StableLaw:
    """Parameters of a symmetric alpha-stable law."""

    alpha: float
    sigma: float = 1.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not self.sigma > 0.0:
            raise ParameterError(f"scale sigma must be positive, got {self.sigma}")

    def char_fn(self, omega):
        """Characteristic function exp(-sigma^alpha |omega|^alpha)."""
        return np.exp(-self.sigma ** self.alpha * np.abs(omega) ** self.alpha)


# Elementwise passes run in slices of _SLICE values, which bounds each
# slice's temporaries and lets the usable cores share a pass (``sliced``).
_SLICE = 32768
_pool = None  # (executor or None, workers), set by the first pass of two or more slices
_pool_lock = threading.Lock()


def _forget_pool():
    # a forked child has none of its parent's threads; it builds its own pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _slice_pool():
    """The slice workers' executor and their number: one per usable core but the caller's."""
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                cores = len(os.sched_getaffinity(0))
            except AttributeError:  # no sched_getaffinity on this platform
                cores = os.cpu_count() or 1
            executor = None
            if cores > 1:
                from concurrent.futures import ThreadPoolExecutor  # about 6 ms to import

                executor = ThreadPoolExecutor(cores - 1, thread_name_prefix="levyescape-slice")
            _pool = (executor, cores - 1)
        return _pool


def _drain(todo, kernel, args):
    while True:
        try:
            part = todo.popleft()
        except IndexError:  # every queued part is taken
            return
        kernel(part, *args)


def _value_slices(n):
    return [slice(lo, lo + _SLICE) for lo in range(0, n, _SLICE)]


def sliced(kernel, parts, *args):
    """Call ``kernel(part, *args)`` for each part of the iterable ``parts``.

    ``kernel`` must write each part's result from that part's inputs alone,
    so the result does not depend on which thread takes which part.  The
    caller queues the parts as ``parts`` yields them (a generator may write
    a part's inputs just before), and from the second part on starts a
    worker task whenever fewer than the pool's workers are busy; then it
    drains the queue and cancels the tasks that have not started, so a busy
    core delays the pass by at most one part.  Each task runs in a copy of
    the caller's context, which carries numpy's error state.  Workers run
    ``kernel``, never a public function: the benchmark's spans wrap those
    and expect them on one thread.
    """
    todo, tasks = collections.deque(), []
    try:
        for queued, part in enumerate(parts):
            todo.append(part)
            if queued:
                executor, workers = _slice_pool()
                if sum(not task.done() for task in tasks) < workers:
                    tasks.append(executor.submit(
                        contextvars.copy_context().run, _drain, todo, kernel, args))
        _drain(todo, kernel, args)
    finally:
        todo.clear()  # after an error on this thread, workers stop at their current part
        started = [task for task in tasks if not task.cancel()]
        for task in started:
            task.exception()  # waits: the caller's arrays are its own again after this
    for task in started:
        task.result()  # raises a worker's error


def sas_from_uniforms(alpha, u_angle, u_exp, out=None, parts=None):
    """Chambers-Mallows-Stuck transform from uniforms on (0, 1).

    ``u_angle`` maps to the angle V = pi * (u_angle - 1/2) and ``u_exp`` to
    the exponential W = -log(u_exp).  Mapping u_angle -> 1 - u_angle negates
    the output, which is the symmetry the tests rely on.  The result goes
    to ``out`` if given, a C-contiguous float64 array of the result's shape
    that may be ``u_angle`` itself, else to a new array; the inputs are not
    otherwise written.  The arithmetic runs slice by slice (``sliced``),
    in place on two temporaries per slice and on the slice of the result.
    ``parts`` replaces the slices of ``_SLICE`` values by slices that cover
    the flattened values once, each transformed as soon as it is yielded;
    the uniforms must then be C-contiguous arrays of the result's shape.
    """
    _check_alpha(alpha)
    u_angle = np.asarray(u_angle, dtype=float)
    u_exp = np.asarray(u_exp, dtype=float)
    shape = u_angle.shape if alpha == 1.0 else np.broadcast(u_angle, u_exp).shape
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    if parts is None:
        parts = _value_slices(out.size)
    elif not all(u.shape == shape and u.flags.c_contiguous for u in (u_angle, u_exp)):
        raise ValueError(f"uniforms read by parts must be C-contiguous arrays of shape {shape}")
    flat_exp = None if alpha == 1.0 else _flat(u_exp, shape)
    sliced(_cms_slice, parts, alpha, _flat(u_angle, shape), flat_exp, out.reshape(-1))
    return out[()]  # [()]: a scalar for 0-d inputs


def _flat(u, shape):
    """``u`` broadcast to ``shape`` and flattened: a view if C-contiguous in it, else a copy."""
    return (u if u.shape == shape else np.broadcast_to(u, shape)).reshape(-1)


def _cms_slice(part, alpha, u_angle, u_exp, out):
    v = out[part]
    np.subtract(u_angle[part], 0.5, out=v)
    v *= np.pi
    if alpha == 1.0:
        np.tan(v, out=v)
        return
    w = np.log(u_exp[part])
    np.negative(w, out=w)
    if alpha == 2.0:
        # sin(2V)/cos(V)^(1/2) * (cos(V)/W)^(-1/2) = 2 sin(V) sqrt(W): exact
        # Gaussian endpoint, N(0, 2).
        np.sin(v, out=v)
        v *= 2.0
        np.sqrt(w, out=w)
        v *= w
        return
    # t = sin(alpha V) / cos(V)^(1/alpha) and s = (cos((1 - alpha) V) / W)^((1 - alpha)/alpha);
    # ``**=`` takes the same scalar-exponent paths (sqrt, square, ...) as ``**``
    t = np.multiply(1.0 - alpha, v)
    np.cos(t, out=t)
    s = np.divide(t, w, out=w)
    s **= (1.0 - alpha) / alpha
    np.multiply(alpha, v, out=t)
    np.sin(t, out=t)
    np.cos(v, out=v)
    v **= 1.0 / alpha
    np.divide(t, v, out=v)
    v *= s


def sample_sas(law, n, seed=None, rng=None):
    """Draw ``n`` i.i.d. samples from ``law`` (deterministic given ``seed``)."""
    if n < 1:
        raise SampleSizeError(f"need n >= 1 samples, got {n}")
    if rng is None:
        rng = np.random.default_rng(seed)
    u_angle = rng.random(n)
    x = sas_from_uniforms(law.alpha, u_angle, rng.random(n), out=u_angle)
    x *= law.sigma
    return x


def empirical_char_fn(samples, omega):
    """Real part (1/n) sum cos(omega x_i) of the empirical characteristic function.

    The imaginary part vanishes in expectation by symmetry; it is asserted
    small (|mean sin| < 5/sqrt(n)) and then discarded.
    """
    samples = np.asarray(samples, dtype=float).reshape(-1)
    n = samples.size
    if n == 0:
        raise SampleSizeError("empirical_char_fn needs a nonempty sample")
    buf = np.empty(n)  # the sin and then the cos of omega * samples
    sliced(_phase_slice, _value_slices(n), np.sin, omega, samples, buf)
    imag = float(np.mean(buf))
    if abs(imag) >= 5.0 / math.sqrt(n):
        raise ValueError(
            f"imaginary part {imag:.4g} of the empirical characteristic function "
            f"exceeds the symmetry guard 5/sqrt(n); input looks asymmetric"
        )
    sliced(_phase_slice, _value_slices(n), np.cos, omega, samples, buf)
    return float(np.mean(buf))


def _phase_slice(part, trig, omega, x, out):
    np.multiply(omega, x[part], out=out[part])
    trig(out[part], out=out[part])


def estimate_tail_index(samples, k1=None, k2=None):
    """Grouped log-moment estimate of the stability index.

    Partitions the first k1*k2 samples into k1 blocks of k2 consecutive
    samples, forms block sums Y_i, and uses
    1/alpha_hat = [(1/k1) sum log|Y_i| - (1/K) sum log|X_j|] / log(k2),
    clipped to (0, 2].  Defaults: k2 = floor(sqrt(K)) and k1 = K // k2.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if k2 is None:
        k2 = int(math.isqrt(n))
    if k1 is None:
        k1 = n // k2
    if k2 < 2:
        raise SampleSizeError(f"block size k2 must be >= 2, got {k2}")
    if k1 < 1 or n < k1 * k2:
        raise SampleSizeError(f"need at least k1*k2 = {k1 * k2} samples, got {n}")
    x = samples[: k1 * k2]
    y = x.reshape(k1, k2).sum(axis=1)
    with np.errstate(divide="ignore"):
        log_y = np.log(np.abs(y))
        log_x = np.log(np.abs(x))
    mean_log_y = float(np.mean(log_y[np.isfinite(log_y)]))
    mean_log_x = float(np.mean(log_x[np.isfinite(log_x)]))
    inv_alpha = (mean_log_y - mean_log_x) / math.log(k2)
    if inv_alpha <= 0.5:  # alpha_hat would exceed 2
        return 2.0
    return min(1.0 / inv_alpha, 2.0)


def jump_intensity(alpha, eps, delta):
    """Rate (2/alpha) eps^(alpha delta) of jumps of size >= eps^(-delta)."""
    _check_alpha(alpha)
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"noise amplitude eps must lie in (0, 1), got {eps}")
    if not (0.0 < delta <= 1.0):
        raise ParameterError(f"threshold exponent delta must lie in (0, 1], got {delta}")
    return (2.0 / alpha) * eps ** (alpha * delta)


def tail_normalization(alpha):
    """SaS scale of the unit-time increment of the jump-measure process.

    The pure-jump process whose jump measure has density |y|^(-1-alpha) has
    unit-time increments SaS(K^(1/alpha)) with
    K = pi / (alpha * Gamma(alpha) * sin(pi alpha / 2)); with this scale the
    rate of increments above a threshold u matches (2/alpha) u^(-alpha).
    Only defined for alpha < 2 (no jumps at the Gaussian endpoint).
    """
    _check_alpha(alpha)
    if alpha == 2.0:
        raise ParameterError("tail normalization is undefined at the Gaussian endpoint alpha = 2")
    k = math.pi / (alpha * math.gamma(alpha) * math.sin(math.pi * alpha / 2.0))
    return k ** (1.0 / alpha)


@dataclass(frozen=True)
class JumpDecompositionConfig:
    """Threshold eps^(-delta) splitting a Lévy increment series into big and small jumps."""

    eps: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ParameterError(f"eps must lie in (0, 1), got {self.eps}")
        if not (0.0 < self.delta <= 1.0):
            raise ParameterError(f"delta must lie in (0, 1], got {self.delta}")

    @property
    def threshold(self):
        return self.eps ** (-self.delta)


@dataclass
class JumpEvents:
    """Big-jump events plus the residual small-jump series."""

    times: np.ndarray
    sizes: np.ndarray
    small_series: np.ndarray
    threshold: float
    step_h: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.sizes = np.asarray(self.sizes, dtype=float)
        self.small_series = np.asarray(self.small_series, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("event times must be strictly increasing")
        if np.any(np.abs(self.sizes) < self.threshold):
            raise ValueError("recorded jump magnitudes must reach the threshold")
        if np.any(np.abs(self.small_series) >= self.threshold):
            raise ValueError("small-series increments must stay below the threshold")

    def reassemble(self):
        """Recombine events and small series into the original increment series."""
        out = self.small_series.copy()
        idx = np.rint(self.times / self.step_h).astype(int) - 1
        out[idx] += self.sizes
        return out


def decompose_jumps(increments, step_h, cfg):
    """Split an increment series at the big-jump threshold of ``cfg``.

    Increment k (0-based) occupies step time (k+1)*step_h.  A magnitude
    exactly at the threshold counts as a big jump.
    """
    increments = np.asarray(increments, dtype=float)
    if increments.size == 0:
        raise SampleSizeError("increment series is empty")
    if not step_h > 0:
        raise ParameterError(f"step_h must be positive, got {step_h}")
    thr = cfg.threshold
    big = np.abs(increments) >= thr
    idx = np.flatnonzero(big)
    small = np.where(big, 0.0, increments)
    return JumpEvents(
        times=(idx + 1) * step_h,
        sizes=increments[idx],
        small_series=small,
        threshold=thr,
        step_h=step_h,
    )


def interjump_time_test(events, psi):
    """Compare inter-event times against the Exponential(rate=psi) law.

    Needs at least 30 events.  Returns a dict with the empirical mean, the
    Kolmogorov-Smirnov distance to Exponential(psi), and the 1% critical
    value 1.63 / sqrt(n).
    """
    if not psi > 0:
        raise ParameterError(f"jump intensity psi must be positive, got {psi}")
    times = np.asarray(events.times, dtype=float)
    if times.size < 30:
        raise SampleSizeError(f"need at least 30 events, got {times.size}")
    gaps = np.diff(np.concatenate(([0.0], times)))
    gaps = np.sort(gaps)
    n = gaps.size
    cdf = 1.0 - np.exp(-psi * gaps)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    ks = float(max(np.max(upper - cdf), np.max(cdf - lower)))
    critical = 1.63 / math.sqrt(n)
    return {
        "n": int(n),
        "rate": float(psi),
        "empirical_mean": float(np.mean(gaps)),
        "expected_mean": 1.0 / psi,
        "statistic": ks,
        "threshold": critical,
        "pass": ks < critical,
    }
