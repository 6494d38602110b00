"""Integrators for the heavy-tail-driven SDE models of SGD, Adam, and SGD-M.

The continuous-time models are
    SGD:   dtheta = -grad F dt + eps Sigma dL
    Adam:  dtheta = -mu_t Q_t^{-1} m dt + eps Q_t^{-1} Sigma dL
           dm = beta1 (grad F - m) dt,  dv = beta2 (grad F^2 - v) dt
    SGD-M: Adam with Q_t = I (no second-moment preconditioning)
with dL a vector of independent symmetric alpha-stable increments,
Q_t = diag(sqrt(omega_t v) + eps_adam), and the bias corrections
mu_t = 1/(1 - exp(-beta1 t)), omega_t = 1/(1 - exp(-beta2 t)).

Noise normalization: with ``noise_normalization="tail"`` (the default) the
increment over a step h is (K h)^{1/alpha} SaS(1) per coordinate, where K is
the tail constant of ``stable.tail_normalization``; increments then exceed a
threshold u at rate (2/alpha) u^{-alpha} per unit time, matching the
compound-Poisson intensity and the exit-time predictions.  ``"unit"`` uses
the plain h^{1/alpha} SaS(1) scaling instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .stable import ParameterError, sas_from_uniforms, tail_normalization

__all__ = [
    "DivergedError",
    "OptimizerConfig",
    "SdeState",
    "SasStream",
    "FlowRateReport",
    "levy_step",
    "integrate",
    "deterministic_flow",
    "discrete_reference_step",
]

_KINDS = ("SGD", "ADAM", "SGDM")


class DivergedError(RuntimeError):
    """The trajectory produced a non-finite gradient; carries the last finite state."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


@dataclass
class OptimizerConfig:
    """Parameters of one SDE integrator run.

    ``noise_scale`` overrides the learning-rate-derived amplitude
    eta^((alpha-1)/alpha); it is required for alpha <= 1, where that formula
    degenerates.  ``drift_scale`` multiplies the drift step (useful for
    iteration-time runs where step_h = 1 counts iterations), and
    ``drift_substeps`` splits each drift step for stiff basins.
    """

    kind: str = "SGD"
    eta: float = 1e-3
    alpha: float = 1.5
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    step_h: float = 1e-2
    sigma: np.ndarray | None = None  # None = identity; 1D = diagonal; 2D = dense
    noise_scale: float | None = None
    noise_normalization: str = "tail"
    v_noise_scale: float = 0.0
    drift_scale: float = 1.0
    drift_substeps: int = 1
    q_fixed: np.ndarray | None = None  # ADAM: freeze the preconditioner diagonal

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not (0.0 < self.alpha <= 2.0):
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not self.eta > 0:
            raise ParameterError(f"eta must be positive, got {self.eta}")
        if not self.step_h > 0:
            raise ParameterError(f"step_h must be positive, got {self.step_h}")
        if self.kind in ("ADAM", "SGDM"):
            for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
                if not (0.0 < b < 1.0):
                    raise ParameterError(f"{name} must lie in (0, 1), got {b}")
        if self.noise_normalization not in ("tail", "unit"):
            raise ParameterError(
                f"noise_normalization must be 'tail' or 'unit', got {self.noise_normalization!r}"
            )
        if self.drift_substeps < 1:
            raise ParameterError("drift_substeps must be >= 1")
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
        if self.q_fixed is not None:
            self.q_fixed = np.asarray(self.q_fixed, dtype=float)
            if np.any(self.q_fixed <= 0):
                raise ParameterError("q_fixed entries must be positive")
        if self.noise_scale is None and self.alpha <= 1.0:
            raise ParameterError(
                "the amplitude formula eta^((alpha-1)/alpha) degenerates for "
                "alpha <= 1; set noise_scale directly"
            )

    @property
    def eps_noise(self):
        """Noise amplitude: explicit noise_scale, else eta^((alpha-1)/alpha)."""
        if self.noise_scale is not None:
            return self.noise_scale
        return self.eta ** ((self.alpha - 1.0) / self.alpha)

    def increment_scale(self, h):
        """Scale turning SaS(1) draws into Lévy increments over time h."""
        if self.noise_normalization == "tail" and self.alpha < 2.0:
            return tail_normalization(self.alpha) * h ** (1.0 / self.alpha)
        return h ** (1.0 / self.alpha)

    def assumption2_ok(self):
        return self.beta1 <= self.beta2 <= 2.0 * self.beta1

    def apply_sigma(self, dl):
        if self.sigma is None:
            return dl
        if self.sigma.ndim == 1:
            return dl * self.sigma
        return dl @ self.sigma.T


@dataclass
class SdeState:
    """Integrator state: parameters theta, Adam moments m and v, process time t.

    theta may carry a leading batch axis; m and v follow its shape.
    """

    theta: np.ndarray
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: float = 0.0

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if self.m is not None:
            self.m = np.asarray(self.m, dtype=float)
        if self.v is not None:
            self.v = np.asarray(self.v, dtype=float)
            if np.any(self.v < 0):
                raise ValueError("second-moment entries must be nonnegative")

    @classmethod
    def initial(cls, theta0, kind):
        theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
        if kind == "SGD":
            return cls(theta=theta0)
        if kind == "SGDM":
            return cls(theta=theta0, m=np.zeros_like(theta0))
        return cls(theta=theta0, m=np.zeros_like(theta0), v=np.zeros_like(theta0))

    def take(self, keep):
        """The trajectories selected by ``keep`` along the leading batch axis."""
        return SdeState(
            theta=self.theta[keep],
            m=None if self.m is None else self.m[keep],
            v=None if self.v is None else self.v[keep],
            t=self.t,
        )


class SasStream:
    """Buffered per-trial stream of SaS(1) draws.

    Draws are generated in fixed-size blocks so that the realized values for
    a given seed do not depend on the caller's request pattern: a single
    trajectory stepping one draw at a time and an ensemble pulling chunks see
    the same stream.
    """

    BLOCK = 512

    def __init__(self, alpha, dim, seed):
        self.alpha = alpha
        self.dim = dim
        self.rng = np.random.default_rng(seed)
        self._buf = np.empty((0, dim))

    def draw(self, n):
        while self._buf.shape[0] < n:
            u_angle = self.rng.random((self.BLOCK, self.dim))
            u_exp = self.rng.random((self.BLOCK, self.dim))
            block = sas_from_uniforms(self.alpha, u_angle, u_exp)
            self._buf = np.concatenate([self._buf, block], axis=0)
        out, self._buf = self._buf[:n], self._buf[n:]
        return out


def _bias_corrections(cfg, t_next):
    mu_t = 1.0 / (1.0 - math.exp(-cfg.beta1 * t_next))
    omega_t = 1.0 / (1.0 - math.exp(-cfg.beta2 * t_next))
    return mu_t, omega_t


def _drift(theta, landscape, cfg, h):
    """Drift substeps theta <- theta - (h * drift_scale / K) grad, K times."""
    step = h * cfg.drift_scale / cfg.drift_substeps
    for _ in range(cfg.drift_substeps):
        g = landscape.gradient(theta)
        if not np.all(np.isfinite(g)):
            raise DivergedError("non-finite gradient during drift", None)
        theta = theta - step * g
    return theta


def levy_step(state, landscape, cfg, noise_increment):
    """One integrator step; ``noise_increment`` is the Lévy increment over step_h.

    The caller supplies the increment already time-scaled (see
    ``OptimizerConfig.increment_scale``); this function applies the amplitude
    eps_noise, the covariance factor Sigma, and for Adam the preconditioner.
    States with a leading batch axis step all trajectories in lockstep.
    """
    h = cfg.step_h
    dl = cfg.apply_sigma(np.asarray(noise_increment, dtype=float))
    g = landscape.gradient(state.theta)
    if not np.all(np.isfinite(g)):
        raise DivergedError("non-finite gradient", state)
    t_next = state.t + h

    if cfg.kind == "SGD":
        theta = _drift(state.theta, landscape, cfg, h) + cfg.eps_noise * dl
        return SdeState(theta=theta, t=t_next)

    mu_t, omega_t = _bias_corrections(cfg, t_next)
    m = state.m + h * cfg.beta1 * (g - state.m)
    if cfg.kind == "SGDM":
        theta = state.theta - h * cfg.drift_scale * mu_t * m + cfg.eps_noise * dl
        return SdeState(theta=theta, m=m, t=t_next)

    if cfg.q_fixed is not None:
        v = state.v
        q = cfg.q_fixed
    else:
        g_for_v = g
        if cfg.v_noise_scale != 0.0:
            g_for_v = g + cfg.v_noise_scale * dl
        v = state.v + h * cfg.beta2 * (g_for_v ** 2 - state.v)
        v = np.maximum(v, 0.0)
        q = np.sqrt(omega_t * v) + cfg.eps_adam
    theta = state.theta - h * cfg.drift_scale * mu_t * m / q + cfg.eps_noise * dl / q
    return SdeState(theta=theta, m=m, v=v, t=t_next)


def integrate(state0, landscape, cfg, stop, seed=None, stream=None, record_stride=1):
    """Run levy_step with seeded noise until the stop condition.

    ``stop`` is either {"max_time": T} or {"max_time": T, "exit": predicate};
    the predicate receives the current state and ends the run when true (the
    initial state is checked too).  Returns (trajectory, exited_flag).
    """
    if "max_time" not in stop or stop["max_time"] <= 0:
        raise ParameterError("stop must specify a positive max_time")
    exit_pred = stop.get("exit")
    if stream is None:
        stream = SasStream(cfg.alpha, state0.theta.shape[-1], seed)
    scale = cfg.increment_scale(cfg.step_h)
    n_steps = int(round(stop["max_time"] / cfg.step_h))

    state = state0
    traj = [state]
    if exit_pred is not None and exit_pred(state):
        return traj, True
    for k in range(n_steps):
        dl = scale * stream.draw(1)[0]
        state = levy_step(state, landscape, cfg, dl)
        if (k + 1) % record_stride == 0 or k == n_steps - 1:
            traj.append(state)
        if exit_pred is not None and exit_pred(state):
            if traj[-1] is not state:
                traj.append(state)
            return traj, True
    return traj, False


@dataclass
class FlowRateReport:
    """Fitted vs predicted exponential decay rate of a noise-free flow."""

    observed_rate: float | None
    predicted_rate: float
    lyapunov_series: np.ndarray  # columns (t, L)
    tau: float | None = None
    v_max: float | None = None


def _fit_decay_rate(ts, ls):
    mask = np.asarray(ls) > 1e-300
    ts, ls = np.asarray(ts)[mask], np.asarray(ls)[mask]
    if ts.size < 2:
        return None
    slope = np.polyfit(ts, np.log(ls), 1)[0]
    return -float(slope)


def _backward_euler_sgd(theta, landscape, h):
    # exact backward Euler on quadratics: (I + hH)(theta' - c) = theta - c
    if isinstance(getattr(landscape, "H", None), np.ndarray):
        d = theta - landscape.center
        a = np.eye(landscape.dim) + h * landscape.H
        return landscape.center + np.linalg.solve(a, d)
    return theta - h * landscape.gradient(theta)


def deterministic_flow(state0, landscape, cfg, T, record_stride=1):
    """Integrate the noise-free flow and fit the Lyapunov decay rate.

    SGD uses a semi-implicit (backward Euler) drift step on quadratics so the
    fitted rate approaches the continuous-flow rate 2 mu from below.  The
    Lyapunov value is F - F* for SGD and, for Adam,
    F - F* + 1/2 ||m||^2 weighted by 1/s_t with
    s_t = (beta1/mu_t)(sqrt(omega_t v) + eps_adam).
    """
    if not T > 0:
        raise ParameterError(f"horizon T must be positive, got {T}")
    h = cfg.step_h
    n_steps = int(round(T / h))
    f_star = landscape.value(landscape.minimizer())

    state = state0
    traj = [state]
    ts, ls = [state.t], []
    tau_sup, v_max = 0.0, 0.0

    def lyapunov(s):
        nonlocal tau_sup, v_max
        gap = landscape.value(s.theta) - f_star
        if cfg.kind == "SGD" or s.m is None:
            return gap
        t_eval = max(s.t, h)
        mu_t, omega_t = _bias_corrections(cfg, t_eval)
        v = s.v if s.v is not None else np.zeros_like(s.theta)
        s_t = (cfg.beta1 / mu_t) * (np.sqrt(omega_t * v) + cfg.eps_adam)
        g_norm = float(np.linalg.norm(landscape.gradient(s.theta)))
        if g_norm > 1e-12:
            tau_sup = max(tau_sup, float(np.linalg.norm(s.m)) / g_norm)
        v_max = max(v_max, float(np.max(np.sqrt(v))) if v.size else 0.0)
        return gap + 0.5 * float(np.sum(s.m ** 2 / s_t))

    ls.append(lyapunov(state))
    zero_noise = replace(cfg, noise_scale=0.0)
    for k in range(n_steps):
        if cfg.kind == "SGD":
            theta = _backward_euler_sgd(state.theta, landscape, h)
            state = SdeState(theta=theta, t=state.t + h)
        else:
            state = levy_step(state, landscape, zero_noise, np.zeros_like(state.theta))
        if (k + 1) % record_stride == 0 or k == n_steps - 1:
            traj.append(state)
            ts.append(state.t)
            ls.append(lyapunov(state))

    series = np.column_stack([ts, ls])
    if ls[0] <= 1e-300:
        return traj, FlowRateReport(None, 0.0, series)
    observed = _fit_decay_rate(ts, ls)
    if cfg.kind == "SGD":
        predicted = 2.0 * landscape.mu
        return traj, FlowRateReport(observed, predicted, series)
    tau = tau_sup if tau_sup > 0 else None
    if tau is None:
        predicted = 0.0
    else:
        mu = landscape.mu
        predicted = (
            2.0 * mu * tau / (cfg.beta1 * (v_max + cfg.eps_adam) + mu * tau)
        ) * (cfg.beta1 - cfg.beta2 / 4.0)
    return traj, FlowRateReport(observed, predicted, series, tau=tau, v_max=v_max)


def discrete_reference_step(state, minibatch_gradient, cfg):
    """The discrete optimizer updates with integer-step bias corrections.

    ``state.t`` counts completed steps; corrections use 1 - beta^t with
    t = step + 1 for the incoming step, matching the usual Adam recursion.
    """
    g = np.asarray(minibatch_gradient, dtype=float)
    step = int(round(state.t)) + 1
    if cfg.kind == "SGD":
        return SdeState(theta=state.theta - cfg.eta * g, t=float(step))
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    m_hat = m / (1.0 - cfg.beta1 ** step)
    if cfg.kind == "SGDM":
        return SdeState(theta=state.theta - cfg.eta * m_hat, m=m, t=float(step))
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g ** 2
    v_hat = v / (1.0 - cfg.beta2 ** step)
    theta = state.theta - cfg.eta * m_hat / (np.sqrt(v_hat) + cfg.eps_adam)
    return SdeState(theta=theta, m=m, v=v, t=float(step))
