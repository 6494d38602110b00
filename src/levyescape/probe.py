"""Gradient-noise probe: a tiny hand-differentiated MLP on synthetic blobs.

Extracts minibatch gradient noise u_t = full gradient - minibatch gradient
during training, estimates the tail index of the pooled noise coordinates,
and monitors the quantities the escape theory assumes about Adam's moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (SdeState, _bias_corrections, _momentum_ratio, deterministic_flow,
                       discrete_reference_step)
from .stable import SampleSizeError, StableLaw, estimate_tail_index, sample_sas

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
    def random_init(cls, d_in=20, d_hidden=32, d_classes=3, seed=0, scale=0.5):
        rng = np.random.default_rng(seed)
        m = cls(d_in, d_hidden, d_classes)
        m.params = scale * rng.standard_normal(m.n_params) / math.sqrt(d_in)
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
    def blobs(cls, n=2000, d_in=20, k=3, spread=1.0, sep=2.0, seed=0):
        rng = np.random.default_rng(seed)
        centers = sep * rng.standard_normal((k, d_in))
        labels = rng.integers(0, k, size=n)
        features = centers[labels] + spread * rng.standard_normal((n, d_in))
        return cls(features=features, labels=labels)


def _forward(model, params, x):
    w1, b1, w2, b2 = model.unpack(params)
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    logits = a1 @ w2 + b2
    return z1, a1, logits


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_value(model, dataset, params=None, indices=None):
    """Mean softmax cross-entropy over the (sub)set of samples."""
    x, y = _subset(dataset, indices)
    _, _, logits = _forward(model, params, x)
    p = _softmax(logits)
    return float(-np.mean(np.log(p[np.arange(x.shape[0]), y] + 1e-300)))


def _subset(dataset, indices):
    if indices is None:
        return dataset.features, dataset.labels
    indices = np.asarray(indices)
    if indices.size == 0:
        raise SampleSizeError("batch is empty")
    if indices.min() < 0 or indices.max() >= dataset.n:
        raise IndexError("batch index out of range")
    return dataset.features[indices], dataset.labels[indices]


def _gradient(model, params, x, y):
    n = x.shape[0]
    z1, a1, logits = _forward(model, params, x)
    p = _softmax(logits)
    d_logits = p.copy()
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    w1, b1, w2, b2 = model.unpack(params)
    d_w2 = a1.T @ d_logits
    d_b2 = d_logits.sum(axis=0)
    d_a1 = d_logits @ w2.T
    d_z1 = d_a1 * (z1 > 0)
    d_w1 = x.T @ d_z1
    d_b1 = d_z1.sum(axis=0)
    return np.concatenate([d_w1.ravel(), d_b1, d_w2.ravel(), d_b2])


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


def noise_trajectory(model, dataset, cfg, n_steps, window=16, batch_size=32,
                     seed=0, record_stride=25, inject_alpha=None):
    """Train with the discrete optimizer and record gradient-noise tails.

    At every step the noise u_t = full gradient - minibatch gradient is
    captured; at each recorded step the last ``window`` noise vectors are
    MAD-standardized per coordinate, pooled, and fed to the tail estimator.
    ``inject_alpha`` replaces u_t with known synthetic stable draws, which
    exercises the estimation path against an exact oracle.
    """
    rng = np.random.default_rng(seed)
    state = SdeState.initial(model.params.copy(), cfg.kind)
    records = []
    recent = []
    law = StableLaw(inject_alpha) if inject_alpha is not None else None
    for step in range(1, n_steps + 1):
        batch = rng.choice(dataset.n, size=batch_size, replace=False)
        g_batch = minibatch_gradient(model, dataset, batch, params=state.theta)
        if law is not None:
            u = sample_sas(law, model.n_params, rng=rng)
        else:
            u = full_gradient(model, dataset, params=state.theta) - g_batch
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
    where the gradient norm is below 1e-12.
    """
    h = cfg.step_h
    zero_cfg = replace(cfg, kind="ADAM", noise_scale=0.0)
    traj, _ = deterministic_flow(SdeState.initial(theta0, "ADAM"), landscape, zero_cfg,
                                 n_steps * h)
    f_star = landscape.value(landscape.minimizer())

    ts, rhos, taus = [], [], []
    v_min, v_max = math.inf, -math.inf
    integral = 0.0
    prev_integrand = 0.0

    for k, state in enumerate(traj[1:], start=1):
        t = state.t
        mu_t, omega_t = _bias_corrections(zero_cfg, t)
        g = landscape.gradient(state.theta)
        f = landscape.value(state.theta) - f_star
        q = zero_cfg.preconditioner(state.v, omega_t)
        integrand = float((g / (1.0 + f)) @ (mu_t * state.m / q))
        integral += 0.5 * (prev_integrand + integrand) * h
        prev_integrand = integrand

        sq = np.sqrt(state.v)
        v_min = min(v_min, float(sq.min()))
        v_max = max(v_max, float(sq.max()))

        if k % record_stride == 0 or k == n_steps:
            ts.append(t)
            rhos.append((10.0 / t) * integral)
            taus.append(_momentum_ratio(state.m, g))

    return AssumptionReport(
        t=np.asarray(ts),
        rho=np.asarray(rhos),
        tau=np.asarray(taus),
        v_min=v_min,
        v_max=v_max,
    )


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
