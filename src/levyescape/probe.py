"""Gradient-noise probe: a tiny hand-differentiated MLP on synthetic blobs.

Extracts minibatch gradient noise u_t = full gradient - minibatch gradient
during training, estimates the tail index of the pooled noise coordinates,
and monitors the quantities the escape theory assumes about Adam's moments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import SdeState, deterministic_flow, discrete_reference_step
from .stable import ParameterError, SampleSizeError, StableLaw, estimate_tail_index, sample_sas

__all__ = [
    "MlpModel",
    "SyntheticDataset",
    "NoiseRecord",
    "AssumptionReport",
    "full_gradient",
    "minibatch_gradient",
    "loss_value",
    "noise_trajectory",
    "assumption_monitors",
    "averaging_tail_comparison",
]


@dataclass
class MlpModel:
    """Two-layer classifier: linear, rectifier, linear, softmax cross-entropy.

    Weights live in one flat vector ``params`` ordered (W1, b1, W2, b2).
    """

    d_in: int = 20
    d_hidden: int = 32
    d_classes: int = 3
    params: np.ndarray | None = None

    def __post_init__(self):
        if self.params is None:
            self.params = np.zeros(self.n_params)
        self.params = np.asarray(self.params, dtype=float)
        if self.params.size != self.n_params:
            raise ValueError(
                f"parameter vector must have {self.n_params} entries, got {self.params.size}"
            )

    @property
    def n_params(self):
        return (
            self.d_in * self.d_hidden
            + self.d_hidden
            + self.d_hidden * self.d_classes
            + self.d_classes
        )

    @classmethod
    def random_init(cls, d_in=20, d_hidden=32, d_classes=3, seed=0):
        rng = np.random.default_rng(seed)
        m = cls(d_in, d_hidden, d_classes)
        m.params = 0.5 * rng.standard_normal(m.n_params) / math.sqrt(d_in)
        return m

    def unpack(self, params=None):
        p = self.params if params is None else np.asarray(params, dtype=float)
        i = 0
        w1 = p[i : i + self.d_in * self.d_hidden].reshape(self.d_in, self.d_hidden)
        i += w1.size
        b1 = p[i : i + self.d_hidden]
        i += b1.size
        w2 = p[i : i + self.d_hidden * self.d_classes].reshape(self.d_hidden, self.d_classes)
        i += w2.size
        b2 = p[i : i + self.d_classes]
        return w1, b1, w2, b2


@dataclass
class SyntheticDataset:
    """Gaussian-blob classification data: one blob per class."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels must have the same length")

    @property
    def n(self):
        return self.features.shape[0]

    @classmethod
    def blobs(cls, n=2000, d_in=20, k=3, seed=0):
        """Centres drawn N(0, 4 I), points N(centre, I) around them."""
        rng = np.random.default_rng(seed)
        centers = 2.0 * rng.standard_normal((k, d_in))
        labels = rng.integers(0, k, size=n)
        features = centers[labels] + rng.standard_normal((n, d_in))
        return cls(features=features, labels=labels)


def _forward_blocks(model, params, x, y):
    """The forward pass over row blocks: (x, y, z1, a1, logits) of each block in order.

    OpenBLAS hands a product of more than 4 * 65536 multiply-adds to its own
    thread pool, whose waiting thread spins on the core the slice pool needs;
    a block of ``rows`` rows keeps each product at or below that size.
    """
    w1, b1, w2, b2 = model.unpack(params)
    rows = max(1, 2 ** 18 // (model.d_hidden * max(model.d_in, model.d_classes)))
    for i in range(0, x.shape[0], rows):
        z1 = x[i : i + rows] @ w1 + b1
        a1 = np.maximum(z1, 0.0)
        yield x[i : i + rows], y[i : i + rows], z1, a1, a1 @ w2 + b2


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_value(model, dataset, params=None):
    """Mean softmax cross-entropy over the whole dataset."""
    if dataset.n == 0:
        raise SampleSizeError("dataset is empty")
    blocks = _forward_blocks(model, params, dataset.features, dataset.labels)
    p = np.concatenate([_softmax(logits)[np.arange(y.size), y] for _, y, _, _, logits in blocks])
    return float(-np.mean(np.log(p + 1e-300)))


def _subset(dataset, indices):
    indices = np.asarray(indices)
    if indices.size == 0:
        raise SampleSizeError("batch is empty")
    if indices.min() < 0 or indices.max() >= dataset.n:
        raise IndexError("batch index out of range")
    return dataset.features[indices], dataset.labels[indices]


def _gradient(model, params, x, y):
    """Each row block's share of the mean's gradient, added in block order."""
    n = x.shape[0]
    w2 = model.unpack(params)[2]
    grads = []
    for xb, yb, z1, a1, logits in _forward_blocks(model, params, x, y):
        d_logits = _softmax(logits)
        d_logits[np.arange(yb.size), yb] -= 1.0
        d_logits /= n
        d_z1 = (d_logits @ w2.T) * (z1 > 0)
        grads.append(np.concatenate([(xb.T @ d_z1).ravel(), d_z1.sum(axis=0),
                                     (a1.T @ d_logits).ravel(), d_logits.sum(axis=0)]))
    return functools.reduce(np.add, grads)


def full_gradient(model, dataset, params=None):
    """Gradient of the mean loss over the whole dataset (manual backprop)."""
    if dataset.n == 0:
        raise SampleSizeError("dataset is empty")
    x, y = dataset.features, dataset.labels
    return _gradient(model, params if params is not None else model.params, x, y)


def minibatch_gradient(model, dataset, batch_indices, params=None):
    """Gradient of the mean loss over the listed samples."""
    x, y = _subset(dataset, batch_indices)
    return _gradient(model, params if params is not None else model.params, x, y)


@dataclass
class NoiseRecord:
    """One captured gradient-noise vector and the window tail estimate."""

    step: int
    noise: np.ndarray
    alpha_hat: float | None
    noise_l2: float


def _pooled_alpha(window_rows):
    """Standardize noise coordinates per-column by MAD, pool, estimate alpha."""
    mat = np.vstack(window_rows)
    med = np.median(mat, axis=0)
    mad = np.median(np.abs(mat - med), axis=0)
    keep = mad > 1e-15
    if not np.any(keep):
        return None
    pooled = ((mat[:, keep] - med[keep]) / mad[keep]).ravel()
    try:
        return estimate_tail_index(pooled)
    except SampleSizeError:
        return None


def _check_steps(n_steps, record_stride):
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    if record_stride < 1:
        raise ParameterError(f"record_stride must be >= 1, got {record_stride}")


def noise_trajectory(model, dataset, cfg, n_steps, window=16, batch_size=32,
                     seed=0, record_stride=25, inject_alpha=None):
    """Train with the discrete optimizer and record gradient-noise tails.

    Every ``record_stride``-th step records the noise u_t = full gradient -
    minibatch gradient and the tail estimate of the last ``window`` noise
    vectors, MAD-standardized per coordinate and pooled.  Only the steps in
    a record's window form u_t: (n_steps // record_stride) *
    min(record_stride, window) full gradients, with the records of forming
    it at every step.  ``inject_alpha`` replaces u_t with known synthetic
    stable draws, taken at every step, which exercises the estimation path
    against an exact oracle.
    """
    _check_steps(n_steps, record_stride)
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window}")
    rng = np.random.default_rng(seed)
    state = SdeState.initial(model.params.copy(), cfg.kind)
    records = []
    recent = []
    law = StableLaw(inject_alpha) if inject_alpha is not None else None
    last_record = n_steps - n_steps % record_stride
    for step in range(1, n_steps + 1):
        batch = rng.choice(dataset.n, size=batch_size, replace=False)
        g_batch = minibatch_gradient(model, dataset, batch, params=state.theta)
        read = step <= last_record and -step % record_stride < window
        if law is not None:
            u = sample_sas(law, model.n_params, rng=rng)
        elif read:
            u = full_gradient(model, dataset, params=state.theta) - g_batch
        if read:
            recent.append(u)
            if len(recent) > window:
                recent.pop(0)
        if step % record_stride == 0:
            if np.max(np.abs(u)) == 0.0:
                alpha_hat = None
            elif len(recent) == window:
                alpha_hat = _pooled_alpha(recent)
            else:
                alpha_hat = None
            records.append(
                NoiseRecord(step=step, noise=u, alpha_hat=alpha_hat,
                            noise_l2=float(np.linalg.norm(u)))
            )
        state = discrete_reference_step(state, g_batch, cfg)
    return records


@dataclass
class AssumptionReport:
    """Time series of the moment-tracking ratios; v_min/v_max are extrema of sqrt(v).

    v stays 0 under ``q_fixed``, so both extrema read 0 there.
    """

    t: np.ndarray
    rho: np.ndarray
    tau: np.ndarray
    v_min: float
    v_max: float


def assumption_monitors(landscape, cfg, theta0, n_steps, record_stride=1):
    """Compute the assumption diagnostics along the zero-noise Adam flow.

    rho_t is the trapezoidal accumulation of
    <grad F(theta_s) / (1 + F(theta_s)), mu_s Q_s^{-1} m_s> scaled by 10/t;
    tau is the ratio ||m_t|| / ||grad F(theta_t)||, reported as NaN at steps
    where the gradient norm is below 1e-12.  Both are rows of the flow's
    ``monitor_series``: every ``record_stride``-th step and the last.
    """
    _check_steps(n_steps, record_stride)
    zero_cfg = replace(cfg, kind="ADAM", noise_scale=0.0)
    traj, flow = deterministic_flow(SdeState.initial(theta0, "ADAM"), landscape, zero_cfg,
                                    n_steps * cfg.step_h)
    n = len(flow.monitor_series)
    rows = np.unique(np.r_[record_stride - 1:n:record_stride, n - 1])
    t, rho, tau = flow.monitor_series[rows].T
    sq = np.sqrt(traj.v[1:])
    return AssumptionReport(t=t, rho=rho, tau=tau, v_min=float(sq.min()),
                            v_max=float(sq.max()))


def averaging_tail_comparison(records, beta1):
    """Tail estimates of raw vs exponentially averaged gradient noise.

    The averaged series is the bias-corrected moving average
    (1 - beta1) / (1 - beta1^t) * sum_i beta1^(t-i) u_i.  Both estimates use
    the same MAD-standardize-and-pool path.  Consecutive averages share most
    of their terms, and the block-sum estimator assumes independent inputs,
    so the averaged series is decimated to one value per memory length
    ~2/(1 - beta1) before pooling; the gap is reported.  No ordering of the
    two estimates is asserted.
    """
    if not records:
        raise SampleSizeError("no noise records supplied")
    raw = [r.noise for r in records]
    if beta1 == 0.0:
        avg = [u.copy() for u in raw]
        gap = 1
    else:
        avg = []
        acc = np.zeros_like(raw[0])
        for t, u in enumerate(raw, start=1):
            acc = beta1 * acc + (1.0 - beta1) * u
            avg.append(acc / (1.0 - beta1 ** t))
        gap = max(int(math.ceil(2.0 / (1.0 - beta1))), 1)
        avg = avg[gap - 1 :: gap]
    return {
        "alpha_raw": _pooled_alpha(raw),
        "alpha_avg": _pooled_alpha(avg) if avg else None,
        "window": len(raw),
        "decimation_gap": gap,
        "beta1": beta1,
    }
