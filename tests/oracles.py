"""Independent numerical oracles used by the test suite.

Everything here is computed by a different method than the library uses:
characteristic-function inversion instead of sampling; polar/spherical grid
quadrature, a closed form for d = 4 and sphere sampling instead of the
library's one-dimensional integral over the eigenvalues; hit-or-miss Monte
Carlo instead of closed-form volumes; the per-state or every-step loops
that the library replaced with array passes or lazy evaluation; and the
one-pass formulas that it replaced with row blocks or one buffer.
"""

import math

import numpy as np
from scipy.integrate import quad

from levyescape import dynamics, escape, probe, stable


def sas_tail_mass(u, alpha):
    """P(|X| > u) for X ~ SaS(1), by Gil-Pelaez inversion of exp(-|w|^alpha)."""
    val, _ = quad(lambda w: math.sin(w * u) / w * math.exp(-(w ** alpha)), 0.0,
                  np.inf, limit=400)
    return 2.0 * (0.5 - val / math.pi)


def radon_measure_grid_2d(a, c, alpha, n_theta=4000):
    """m(W) for W = {y^T A y >= c} in d = 2 by angular grid quadrature.

    The radial integral is closed-form, so this reduces to a trapezoid rule
    over the angle; independent of the sphere-sampling path.
    """
    a = np.asarray(a, dtype=float)
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    f = (np.einsum("ni,ij,nj->n", u, a, u) / c) ** (alpha / 2.0)
    return float(np.mean(f)) * 2.0 * math.pi / alpha


def radon_measure_grid_3d(a, c, alpha, n_theta=400, n_phi=800):
    """Same as the 2D oracle but over a latitude/longitude grid on S^2."""
    a = np.asarray(a, dtype=float)
    # midpoint rule in cos(polar) x azimuth gives uniform area weights
    mu = (np.arange(n_theta) + 0.5) / n_theta * 2.0 - 1.0
    phi = (np.arange(n_phi) + 0.5) / n_phi * 2.0 * math.pi
    st = np.sqrt(1.0 - mu ** 2)
    x = st[:, None] * np.cos(phi)[None, :]
    y = st[:, None] * np.sin(phi)[None, :]
    z = np.broadcast_to(mu[:, None], x.shape)
    u = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    f = (np.einsum("ni,ij,nj->n", u, a, u) / c) ** (alpha / 2.0)
    return float(np.mean(f)) * 4.0 * math.pi / alpha


def radon_measure_d4_pairs(a, b, c, alpha):
    """m(W) for A with eigenvalues (a, a, b, b), a != b, in closed form.

    For u uniform on S^3, s = u_1^2 + u_2^2 is uniform on [0, 1], so the
    sphere mean of (u^T A u / c)^p is the mean of ((b + (a - b) s) / c)^p over s.
    """
    p = alpha / 2.0
    a, b = a / c, b / c
    mean = (a ** (p + 1.0) - b ** (p + 1.0)) / ((p + 1.0) * (a - b))
    return 2.0 * math.pi ** 2 / alpha * mean


def radon_measure_sampled(a, c, alpha, n_dirs, seed):
    """(m(W), standard error) from n_dirs seeded uniform directions, any d."""
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    done = 0
    while done < n_dirs:
        nb = min(200_000, n_dirs - done)
        u = rng.standard_normal((nb, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        f = (np.einsum("ni,ij,nj->n", u, a, u) / c) ** (alpha / 2.0)
        total += float(np.sum(f))
        total_sq += float(np.sum(f ** 2))
        done += nb
    mean = total / n_dirs
    stderr = math.sqrt(max(total_sq / n_dirs - mean ** 2, 0.0) / n_dirs)
    factor = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0) / alpha
    return factor * mean, factor * stderr


def ellipsoid_volume_mc(a, c, n=10_000_000, seed=0):
    """Hit-or-miss volume of {y^T A y < c} inside its bounding box."""
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    eigvals, eigvecs = np.linalg.eigh(a)
    half = math.sqrt(c) / np.sqrt(eigvals.min())
    rng = np.random.default_rng(seed)
    hits = 0
    block = 1_000_000
    done = 0
    while done < n:
        nb = min(block, n - done)
        pts = rng.uniform(-half, half, size=(nb, d))
        hits += int(np.sum(np.einsum("ni,ij,nj->n", pts, a, pts) < c))
        done += nb
    return hits / n * (2.0 * half) ** d


def finite_difference_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def unblocked_gradient(model, params, x, y):
    """The MLP's mean-loss gradient from one pass over all rows of ``x``."""
    n = x.shape[0]
    w1, b1, w2, b2 = model.unpack(params)
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    d_logits = probe._softmax(a1 @ w2 + b2)
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    d_z1 = (d_logits @ w2.T) * (z1 > 0)
    return np.concatenate([(x.T @ d_z1).ravel(), d_z1.sum(axis=0),
                           (a1.T @ d_logits).ravel(), d_logits.sum(axis=0)])


def tail_index_two_buffers(samples, k1, k2):
    """``stable.estimate_tail_index``'s value from log|x| and its finite entries as copies."""
    x = np.asarray(samples, dtype=float)[: k1 * k2]
    y = x.reshape(k1, k2).sum(axis=1)
    with np.errstate(divide="ignore"):
        log_y = np.log(np.abs(y))
        log_x = np.log(np.abs(x))
    log_y, log_x = log_y[np.isfinite(log_y)], log_x[np.isfinite(log_x)]
    inv_alpha = (float(np.mean(log_y)) - float(np.mean(log_x))) / math.log(k2)
    return 2.0 if inv_alpha <= 0.5 else min(1.0 / inv_alpha, 2.0)


def flow_states(traj):
    """The states of a flow's stacked trajectory, state k from row k."""
    cols = (traj.theta, traj.m, traj.v, traj.t)
    return [dynamics.SdeState(*(None if col is None else col[k] for col in cols))
            for k in range(len(traj.t))]


def left_to_right_sum(terms):
    """0.0 + x0 + x1 + ... in Python floats, each term added in index order."""
    total = 0.0
    for x in terms:
        total += float(x)
    return total


def momentum_flow_series(traj, landscape, cfg):
    """(lyapunov_series, monitor_series, tau, v_max) of a momentum flow, state by state.

    Each state's L, rho integrand and tau come from its own calls on its own
    gradient, every sum over its coordinates a ``left_to_right_sum``; rho_t
    is (10/t) times the trapezoidal sum from the first state, and tau the
    largest positive tau_t.
    """
    f_star = landscape.value(landscape.minimizer())
    ls, integrands, ratios = [], [], []
    for s in traj:
        g = landscape.gradient(s.theta)
        gap = landscape.value(s.theta) - f_star
        mu_t, omega_t = dynamics._bias_corrections(cfg, max(s.t, cfg.step_h))
        q = cfg.preconditioner(s.v, omega_t)
        ls.append(gap + 0.5 * left_to_right_sum(s.m ** 2 / ((cfg.beta1 / mu_t) * q)))
        integrands.append(left_to_right_sum((g / (1.0 + gap)) * (mu_t * s.m / q)))
        g_norm = math.sqrt(left_to_right_sum(g * g))
        m_norm = math.sqrt(left_to_right_sum(s.m * s.m))
        ratios.append(m_norm / g_norm if g_norm > 1e-12 else math.nan)
    ts = np.array([s.t for s in traj])
    integrands = np.array(integrands)
    trapezoids = np.r_[0.0, 0.5 * (integrands[:-1] + integrands[1:]) * cfg.step_h]
    rho = (10.0 / ts[1:]) * np.cumsum(trapezoids)[1:]
    tau = max((r for r in ratios if r > 0), default=None)
    v_max = max((float(np.max(np.sqrt(s.v))) for s in traj if s.v is not None), default=0.0)
    return np.column_stack([ts, ls]), np.column_stack([ts[1:], rho, ratios[1:]]), tau, v_max


def noise_records_every_step(model, dataset, cfg, n_steps, window, batch_size, seed,
                             record_stride, inject_alpha=None):
    """``probe.noise_trajectory``'s records, forming u_t at every step."""
    rng = np.random.default_rng(seed)
    state = dynamics.SdeState.initial(model.params.copy(), cfg.kind)
    law = stable.StableLaw(inject_alpha) if inject_alpha is not None else None
    records, recent = [], []
    for step in range(1, n_steps + 1):
        batch = rng.choice(dataset.n, size=batch_size, replace=False)
        g_batch = probe.minibatch_gradient(model, dataset, batch, params=state.theta)
        if law is not None:
            u = stable.sample_sas(law, model.n_params, rng=rng)
        else:
            u = probe.full_gradient(model, dataset, params=state.theta) - g_batch
        recent = (recent + [u])[-window:]
        if step % record_stride == 0:
            alpha_hat = (None if np.max(np.abs(u)) == 0.0 or len(recent) < window
                         else probe._pooled_alpha(recent))
            records.append(probe.NoiseRecord(step=step, noise=u, alpha_hat=alpha_hat,
                                             noise_l2=float(np.linalg.norm(u))))
        state = dynamics.discrete_reference_step(state, g_batch, cfg)
    return records


def chunk_outcome_oracle(basin, theta0, low, high):
    """The chunk kernel's per-trial outcome, step by step from ``in_inner`` at both bracket ends.

    A step is certainly inside when both ends are inside, and certainly
    outside when both ends are outside with theta0 outside the bracket; a
    trial reads 0 if every step is certainly inside, k if step k is the
    first that is not and it is certainly outside, else -1.
    """
    out = np.zeros(len(low), dtype=int)
    for i in range(len(low)):
        for j in range(low.shape[1]):
            low_in, high_in = (bool(basin.in_inner(np.array([x]))) for x in (low[i, j], high[i, j]))
            if low_in and high_in:
                continue
            beside = theta0 <= low[i, j] or theta0 >= high[i, j]
            out[i] = j + 1 if not (low_in or high_in) and beside else -1
            break
    return out


def _levy_chunk_row_major(cfg, state, noise):
    """The generic chunk step on a row-major state, gathering each step's (rows, d) noise rows."""
    opt = cfg.optimizer
    scale = opt.increment_scale(opt.step_h)
    rows = np.arange(len(noise))
    ends = np.zeros(rows.size, dtype=np.int32)
    for j in range(noise.shape[1]):
        state = dynamics.levy_step(state, cfg.landscape, opt, scale * noise[rows, j, :])
        ok = cfg.basin.in_inner(state.theta)
        if not ok.all():
            ends[rows[~ok]] = j + 1
            theta, m, v, t = state
            rows, state = rows[ok], dynamics.SdeState(
                theta[ok], None if m is None else m[ok], None if v is None else v[ok], t)
            if not rows.size:
                break
    return state, ends


def generic_exit_steps_row_major(cfg, trial_ids):
    """The exit steps of ``trial_ids`` from the generic loop, stepping a row-major (trials, d) state."""
    state = dynamics.SdeState.initial(np.tile(cfg.theta0, (len(trial_ids), 1)),
                                      cfg.optimizer.kind)
    return escape._run_chunks(cfg, trial_ids, state, _levy_chunk_row_major)
