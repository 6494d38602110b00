import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyescape import dynamics, escape, geometry, landscapes, probe
from levyescape.stable import ParameterError, sas_from_uniforms


def interval_cfg(alpha=1.5, eps=0.05, b=1.0, mu=1.0, trials=400, max_steps=20000,
                 seed=0, step_h=0.2, gamma=2.0):
    basin = landscapes.BasinSpec(region=landscapes.IntervalRegion(-b, b),
                                 eps=eps, gamma=gamma)
    land = landscapes.QuadraticBasin(H=np.array([[mu]]), center=np.zeros(1),
                                     height=0.5 * mu * b * b)
    opt = dynamics.OptimizerConfig(kind="SGD", eta=1e-3, alpha=alpha,
                                   step_h=step_h, noise_scale=eps)
    return escape.EscapeConfig(landscape=land, basin=basin, optimizer=opt,
                               theta0=np.zeros(1), trials=trials,
                               max_steps=max_steps, base_seed=seed)


def test_zero_noise_never_escapes():
    cfg = interval_cfg(trials=50, max_steps=500)
    cfg = escape.EscapeConfig(
        landscape=cfg.landscape, basin=cfg.basin,
        optimizer=dynamics.OptimizerConfig(kind="SGD", alpha=1.5, step_h=0.2,
                                           noise_scale=0.0),
        theta0=np.zeros(1), trials=50, max_steps=500, base_seed=1,
    )
    stats = escape.run_escape_experiment(cfg)
    assert stats.escape_prob == 0.0
    assert math.isnan(stats.mean_exit_time)


def test_theta0_precondition():
    with pytest.raises(Exception):
        interval_cfg().__class__(
            landscape=interval_cfg().landscape, basin=interval_cfg().basin,
            optimizer=interval_cfg().optimizer, theta0=np.array([0.999]),
            trials=10, max_steps=10, base_seed=0,
        )


def test_theta0_must_match_landscape_dim():
    # a 1-D start on a 2-D basin, and a 2-D start on the 1-D double well
    land = landscapes.QuadraticBasin(H=np.diag([4.0, 1.0]), center=np.zeros(2), height=1.0)
    opt = dynamics.OptimizerConfig(kind="SGD", step_h=0.1, noise_scale=0.05)
    with pytest.raises(ParameterError, match="coordinates"):
        escape.EscapeConfig(landscape=land, basin=landscapes.BasinSpec(region=land, eps=0.05),
                            optimizer=opt, theta0=np.zeros(1), trials=10, max_steps=10)
    with pytest.raises(ParameterError, match="coordinates"):
        dataclasses.replace(escape.double_well_config(500, 1e-3), theta0=np.ones(2))


def test_reproducible_and_thread_invariant():
    cfg = interval_cfg(trials=200, max_steps=3000)
    a = escape.run_escape_experiment(cfg)
    b = escape.run_escape_experiment(cfg)
    c = escape.run_escape_experiment(cfg, threads=4)
    assert np.array_equal(a.exit_steps, b.exit_steps)
    assert np.array_equal(a.exit_steps, c.exit_steps)


def test_noise_transformed_only_for_steps_taken(monkeypatch):
    # every trial leaves within the first chunk of 8 steps (at steps 1 to 5),
    # so only those 8 rows per trial may be transformed, not a 512-row block
    counted = []

    def counting(alpha, u_angle, u_exp):
        counted.append(np.size(u_angle))
        return sas_from_uniforms(alpha, u_angle, u_exp)

    monkeypatch.setattr(dynamics, "sas_from_uniforms", counting)
    land = landscapes.QuadraticBasin(H=np.eye(2), center=np.zeros(2), height=0.5)
    opt = dynamics.OptimizerConfig(kind="SGD", alpha=1.5, step_h=1.0, noise_scale=0.5)
    cfg = escape.EscapeConfig(landscape=land, basin=landscapes.BasinSpec(land, 0.1, 2.0),
                              optimizer=opt, theta0=np.zeros(2), trials=50,
                              max_steps=1000, base_seed=2)
    exit_steps = escape.run_escape_experiment(cfg).exit_steps
    assert exit_steps.min() == 1 and exit_steps.max() == 5
    assert sum(counted) == 8 * 2 * 50


def test_predicted_mean_exit_values():
    # 1D basin (-b, b): m(W) = (2/alpha) b^(-alpha)
    m_w = 2.0 / 1.0
    assert escape.predicted_mean_exit(m_w, 1.0, 0.1) == pytest.approx(2.5)
    assert escape.predicted_mean_exit(2 * m_w, 1.0, 0.1) == pytest.approx(1.25)
    grow = escape.predicted_mean_exit(1.0, 1.5, 0.01) / escape.predicted_mean_exit(
        1.0, 1.5, 0.1
    )
    assert grow == pytest.approx(10 ** 1.5)
    with pytest.raises(Exception):
        escape.predicted_mean_exit(0.0, 1.5, 0.1)


def test_mean_exit_within_factor_3_of_prediction():
    alpha, eps = 1.5, 0.05
    cfg = interval_cfg(alpha=alpha, eps=eps, trials=400, max_steps=20000, seed=3)
    stats = escape.run_escape_experiment(cfg)
    m_w = geometry.radon_measure(
        geometry.QuadraticEscapeSet(A=np.array([[1.0]]), c=1.0), alpha
    )
    pred = escape.predicted_mean_exit(m_w, alpha, eps)
    assert stats.escape_prob > 0.95
    assert pred / 3 < stats.mean_exit_time < pred * 3


def test_scaling_sweep_slope():
    cfg = interval_cfg(alpha=1.0, eps=0.02, trials=600, max_steps=20000, seed=5)
    cfg = escape.EscapeConfig(
        landscape=cfg.landscape, basin=cfg.basin,
        optimizer=dynamics.OptimizerConfig(kind="SGD", alpha=1.0, step_h=0.2,
                                           noise_scale=0.02),
        theta0=np.zeros(1), trials=600, max_steps=20000, base_seed=5,
    )
    rep = escape.scaling_sweep(cfg, [0.01, 0.02, 0.05, 0.1])
    assert -1.1 <= rep["slope"] <= -0.9
    assert rep["r2"] > 0.99


def test_sweep_degenerate_input_errors():
    cfg = interval_cfg(trials=50, max_steps=100)
    with pytest.raises(Exception):
        escape.scaling_sweep(cfg, [0.05])
    for eps_list in ([0.1, 0.0, 0.2, 0.3], [0.1, 0.0], [0.1, 1.5], [-0.1, 0.2]):
        with pytest.raises(ParameterError):
            escape.scaling_sweep(cfg, eps_list)


def test_sweep_drops_low_exit_points():
    cfg = interval_cfg(alpha=1.5, trials=60, max_steps=200, seed=6)
    with pytest.warns(UserWarning):
        rep = escape.scaling_sweep(cfg, [1e-4, 0.05, 0.1, 0.2], min_exits=50)
    assert 1e-4 in rep["dropped"]


def test_monotone_in_eps():
    # larger amplitude never increases mean exit time (common random numbers)
    means = []
    for eps in (0.05, 0.1, 0.2):
        cfg = interval_cfg(alpha=1.5, eps=eps, trials=400, max_steps=20000, seed=7)
        means.append(escape.run_escape_experiment(cfg).mean_exit_time)
    assert means[0] > means[1] > means[2]


def test_double_well_monotonicity_small():
    res = []
    for a in (1e5, 500, 150):
        cfg = escape.double_well_config(a, 1.58e-4, trials=300, max_steps=2000,
                                        base_seed=700000, gamma=2.0)
        res.append(escape.run_escape_experiment(cfg))
    probs = [r.escape_prob for r in res]
    means = [r.mean_exit_steps for r in res]
    assert probs[0] > probs[1] > probs[2]
    assert means[0] < means[1] < means[2]


def test_compare_optimizers_crn_and_identity_case():
    # isotropic geometry: SGD and SGD-M coincide up to momentum smoothing
    land = landscapes.QuadraticBasin(H=np.eye(2), center=np.zeros(2), height=0.5)
    basin = landscapes.BasinSpec(region=land, eps=0.15, gamma=2.0)
    opt = dynamics.OptimizerConfig(kind="SGD", alpha=1.5, step_h=0.1,
                                   noise_scale=0.15, beta1=0.9, beta2=0.99)
    cfg = escape.EscapeConfig(landscape=land, basin=basin, optimizer=opt,
                              theta0=np.zeros(2), trials=400, max_steps=20000,
                              base_seed=11)
    rep = escape.compare_optimizers(cfg, kinds=("SGD", "SGDM"))
    ratio = rep["mean_exit_time_ratios"]["sgdm_over_sgd"]
    assert 0.5 <= ratio <= 2.0


def test_compare_optimizers_zero_noise():
    land = landscapes.QuadraticBasin(H=np.eye(2), center=np.zeros(2), height=0.5)
    basin = landscapes.BasinSpec(region=land, eps=0.15, gamma=2.0)
    opt = dynamics.OptimizerConfig(kind="SGD", alpha=1.5, step_h=0.1,
                                   noise_scale=0.0, beta1=0.9, beta2=0.99)
    cfg = escape.EscapeConfig(landscape=land, basin=basin, optimizer=opt,
                              theta0=np.zeros(2), trials=40, max_steps=500,
                              base_seed=12)
    rep = escape.compare_optimizers(cfg, q_fixed_adam=np.array([1.0, 1.0]))
    assert all(s.escape_prob == 0.0 for s in rep["stats"].values())


def test_calibration_hits_target():
    eps, stats = escape.calibrate_noise_amplitude(
        80.0, trials=150, max_steps=1200, base_seed=4, lo=5e-5, hi=5e-4,
        tol=0.05, gamma=2.0,
    )
    assert abs(stats.mean_exit_steps - 80.0) <= 0.05 * 80.0
    assert 5e-5 < eps < 5e-4


def test_calibration_returns_the_evaluated_pair():
    # tol = 0 never converges, so the last bisection point comes back
    kwargs = dict(trials=40, max_steps=300, base_seed=4, gamma=2.0)
    eps, stats = escape.calibrate_noise_amplitude(80.0, lo=5e-5, hi=5e-4, tol=0.0,
                                                  max_iter=2, **kwargs)
    again = escape.run_escape_experiment(escape.double_well_config(1e5, eps, **kwargs))
    assert np.array_equal(stats.exit_steps, again.exit_steps)


def test_calibration_needs_an_iteration():
    with pytest.raises(ParameterError):
        escape.calibrate_noise_amplitude(80.0, max_iter=0)


def _digest(exit_steps):
    return hashlib.sha256(np.ascontiguousarray(exit_steps, dtype=np.int64).tobytes()).hexdigest()[:16]


def test_frozen_seed_exit_steps():
    # digests recorded before the exit check moved into the basin regions;
    # any change to stepping, streams or the exit check shows up here
    got = {}
    cfg = escape.double_well_config(500.0, 3e-4, trials=60, max_steps=400, base_seed=3,
                                    gamma=2.0)
    got["double_well_sgd"] = escape.run_escape_experiment(cfg).exit_steps
    land = landscapes.QuadraticBasin(H=np.diag([10.0, 0.1]), center=np.zeros(2), height=0.5)
    opt = dynamics.OptimizerConfig(kind="SGD", alpha=1.5, step_h=0.05, noise_scale=0.03,
                                   sigma=np.array([3.0, 0.1]), beta1=0.9, beta2=0.99)
    cfg = escape.EscapeConfig(landscape=land, basin=landscapes.BasinSpec(land, 0.03, 2.0),
                              optimizer=opt, theta0=np.zeros(2), trials=80, max_steps=300,
                              base_seed=8)
    rep = escape.compare_optimizers(cfg, q_fixed_adam=np.array([3.0, 0.1]))
    for kind, stats in rep["stats"].items():
        got[f"sigma_{kind}"] = stats.exit_steps
    land = landscapes.QuadraticBasin(H=np.array([[3.0, 1.0], [1.0, 2.0]]),
                                     center=np.array([0.1, -0.2]), height=0.5)
    opt = dynamics.OptimizerConfig(kind="ADAM", alpha=1.5, step_h=0.05, noise_scale=0.1,
                                   beta1=0.9, beta2=0.99, eps_adam=0.5, v_noise_scale=0.5)
    cfg = escape.EscapeConfig(landscape=land, basin=landscapes.BasinSpec(land, 0.1, 2.0),
                              optimizer=opt, theta0=np.array([0.3, -0.2]), trials=60,
                              max_steps=300, base_seed=21)
    got["dense_adam"] = escape.run_escape_experiment(cfg).exit_steps
    assert {k: _digest(v) for k, v in got.items()} == {
        "double_well_sgd": "1436548056a7ecee",
        "sigma_SGD": "e82e0f1cbdf9c6fc",
        "sigma_ADAM": "3f86eb34294ab83c",
        "sigma_SGDM": "7f44a645ec57ab9d",
        "dense_adam": "5ea3715e41c9bc4e",
    }
    # each ensemble mixes exits with censored trials or spreads its exits
    assert all(np.unique(v).size > 5 for v in got.values())


def _float_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def test_frozen_flow_and_monitor_series():
    # digests recorded before Q_t had a single owner: adaptive Adam's flow
    # (criterion 4's config) and monitors (criterion 10's config) must not move
    got = {}
    for mu in (0.5, 2.0):
        land = landscapes.QuadraticBasin(H=np.array([[mu]]), center=np.zeros(1), height=10.0)
        cfg = dynamics.OptimizerConfig(kind="ADAM", alpha=1.5, step_h=1e-3, beta1=0.9,
                                       beta2=0.99, noise_scale=0.0)
        _, rep = dynamics.deterministic_flow(
            dynamics.SdeState.initial(np.array([1.0]), "ADAM"), land, cfg, 2.0)
        got[f"flow_mu{mu:g}"] = _float_digest(
            rep.lyapunov_series,
            [rep.observed_rate, rep.predicted_rate, rep.tau, rep.v_max])
    land = landscapes.QuadraticBasin(H=np.array([[1.0]]), center=np.zeros(1), height=10.0)
    cfg = dynamics.OptimizerConfig(kind="ADAM", alpha=1.5, step_h=1e-2, beta1=0.9,
                                   beta2=0.99, noise_scale=0.0)
    rep = probe.assumption_monitors(land, cfg, np.array([2.0]), 800, record_stride=10)
    got["monitors"] = _float_digest(rep.t, rep.rho, rep.tau, [rep.v_min, rep.v_max])
    assert got == {
        "flow_mu0.5": "2770fd5694b2bda1",
        "flow_mu2": "754f24359447dc4f",
        "monitors": "835e8ed6e99d336b",
    }


def test_frozen_interval_exit_steps():
    # digests recorded before the chunk kernel: 1D SGD on the sweep preset's
    # interval basin at three tail indices, max_steps = 600 ending mid-chunk
    got = {}
    for alpha, eps in ((1.5, 0.05), (1.0, 0.1), (2.0, 0.3)):
        cfg = interval_cfg(alpha=alpha, eps=eps, trials=300, max_steps=600, seed=4242)
        got[f"alpha{alpha:g}_eps{eps:g}"] = _digest(escape.run_escape_experiment(cfg).exit_steps)
    assert got == {
        "alpha1.5_eps0.05": "48c96506bd399ca7",
        "alpha1_eps0.1": "e65cb47eab857949",
        "alpha2_eps0.3": "8054055ceea3ea9e",
    }


def _kernel_case(land, substeps, step_gamma, alpha, sigma, offset, rel_noise,
                 max_steps, seed):
    """A 1D SGD config the chunk kernel takes, with drift factor r = 1 - step_gamma."""
    if land == "quadratic":
        # off-centre minimum, drift_scale != 1, region (-1, 1)
        center, half, mid, step_h, drift_scale = 0.3, 1.0, 0.0, 0.2, 0.5
        landscape = landscapes.QuadraticBasin(
            H=np.array([[step_gamma * substeps / (step_h * drift_scale)]]),
            center=np.array([center]), height=1.0)
        region = landscapes.IntervalRegion(-1.0, 1.0)
    else:
        landscape = landscapes.DoubleWell1D(float(land))
        lo, hi = landscape.right_basin_interval()
        region = landscapes.IntervalRegion(lo, hi)
        half, mid, step_h = 0.5 * (hi - lo), 1.0, 1.0
        drift_scale = step_gamma * substeps / (2.0 * landscape.a)
    noise = rel_noise * half
    opt = dynamics.OptimizerConfig(
        kind="SGD", alpha=alpha, step_h=step_h, noise_scale=noise, drift_scale=drift_scale,
        drift_substeps=substeps, sigma=None if sigma is None else np.array(sigma))
    return escape.EscapeConfig(
        landscape=landscape, basin=landscapes.BasinSpec(region, noise, 2.0), optimizer=opt,
        theta0=np.array([mid + offset * half]), trials=30, max_steps=max_steps,
        base_seed=seed)


@settings(max_examples=30, deadline=None)
@given(
    land=st.sampled_from(["150", "500", "1e5", "quadratic"]),
    substeps=st.sampled_from([1, 20]),
    step_gamma=st.sampled_from([0.05, 0.5, 1.0, 1.5, 1.95]),
    alpha=st.sampled_from([1.0, 1.5, 2.0]),
    sigma=st.sampled_from([None, [0.5], [[2.0]]]),
    offset=st.floats(-0.8, 0.8),
    rel_noise=st.floats(0.01, 0.3),
    max_steps=st.integers(1, 600),
    seed=st.integers(0, 2 ** 20),
)
def test_chunk_kernel_matches_generic_loop(land, substeps, step_gamma, alpha, sigma, offset,
                                           rel_noise, max_steps, seed):
    cfg = _kernel_case(land, substeps, step_gamma, alpha, sigma, offset, rel_noise,
                       max_steps, seed)
    assert escape._affine_drift(cfg) is not None
    ids = np.arange(cfg.trials)
    assert np.array_equal(escape._run_block(cfg, ids), escape._run_generic(cfg, ids))


@settings(max_examples=30, deadline=None)
@given(
    land=st.sampled_from(["150", "500", "1e5", "quadratic"]),
    substeps=st.sampled_from([1, 20]),
    step_gamma=st.sampled_from([0.05, 0.5, 1.0, 1.5, 1.95]),
    alpha=st.sampled_from([1.0, 1.5, 2.0]),
    sigma=st.sampled_from([None, [0.5], [[2.0]]]),
    offset=st.floats(-0.8, 0.8),
    rel_noise=st.floats(0.001, 0.1),
    length=st.sampled_from([1, 8, 200]),
    seed=st.integers(0, 2 ** 20),
)
def test_chunk_bracket_holds_generic_iterates(land, substeps, step_gamma, alpha, sigma,
                                              offset, rel_noise, length, seed):
    # the certified bracket contains the generic loop's iterate at every step
    # up to each trial's first exit, across two chunks (the bound is carried)
    cfg = _kernel_case(land, substeps, step_gamma, alpha, sigma, offset, rel_noise,
                       2 * length, seed)
    drift = escape._affine_drift(cfg)
    opt = cfg.optimizer
    scale = opt.increment_scale(opt.step_h)
    noise = dynamics.SasStream(opt.alpha, 1, seed + np.arange(cfg.trials)).draw(2 * length)
    state = dynamics.SdeState.initial(np.tile(cfg.theta0, (cfg.trials, 1)), "SGD")
    generic = []
    for j in range(2 * length):
        state = dynamics.levy_step(state, cfg.landscape, opt, scale * noise[:, j, :])
        generic.append(state.theta[:, 0])
    generic = np.array(generic).T
    y = np.full(cfg.trials, cfg.theta0[0] - drift[2])
    dev = escape._U * np.abs(y)
    brackets = [escape._chunk_bracket(
        drift, (opt.eps_noise * opt.apply_sigma(scale * part))[..., 0], y, dev)
        for part in (noise[:, :length], noise[:, length:])]
    low = np.hstack([lo for lo, _ in brackets])
    high = np.hstack([hi for _, hi in brackets])
    inside = cfg.basin.in_inner(generic[..., None])
    first = np.where(inside.all(axis=1), 2 * length, np.argmin(inside, axis=1))
    checked = np.arange(2 * length) <= first[:, None]
    assert np.all((low <= generic) & (generic <= high) | ~checked)


def _fallback_case(landscape, lo, hi, theta0, step_h=1.0, drift_scale=1.0):
    opt = dynamics.OptimizerConfig(kind="SGD", alpha=1.5, step_h=step_h, noise_scale=1e-4,
                                   drift_scale=drift_scale)
    basin = landscapes.BasinSpec(landscapes.IntervalRegion(lo, hi), 1e-4, 2.0)
    return escape.EscapeConfig(landscape=landscape, basin=basin, optimizer=opt,
                               theta0=np.array([theta0]), trials=20, max_steps=300,
                               base_seed=11)


@pytest.mark.parametrize("cfg", [
    # |r| > 1: r = 1 - 2.5 * 1 = -1.5
    _fallback_case(landscapes.QuadraticBasin(H=np.eye(1), center=np.zeros(1)),
                   -1.0, 1.0, 0.0, step_h=2.5),
    # the inner interval spans the double well's crossover: no affine gradient
    _fallback_case(landscapes.DoubleWell1D(150.0), 0.5, 1.5, 1.0),
    # r = -0.5 swings the offsets across c = 1 onto the left branch
    _fallback_case(landscapes.DoubleWell1D(1e4), 1.0005, 1.0100, 1.005,
                   drift_scale=1.5 / 2e4),
], ids=["r_above_1", "not_affine", "reach_leaves_branch"])
def test_chunk_kernel_declines_to_generic_loop(cfg):
    assert escape._affine_drift(cfg) is None
    ids = np.arange(cfg.trials)
    assert np.array_equal(escape._run_block(cfg, ids), escape._run_generic(cfg, ids))


def test_uncertain_trials_rerun_on_generic_loop(monkeypatch):
    # an infinite slack leaves no step certain, so every trial falls back
    cfg = escape.double_well_config(500.0, 3e-4, trials=40, max_steps=300, base_seed=3,
                                    gamma=2.0)
    ids = np.arange(cfg.trials)
    expected = escape._run_generic(cfg, ids)
    assert escape._affine_drift(cfg) is not None
    assert np.unique(expected).size > 5
    rerun = []
    generic = escape._run_generic

    def recording(cfg, trial_ids):
        rerun.append(trial_ids.copy())
        return generic(cfg, trial_ids)

    monkeypatch.setattr(escape, "_run_generic", recording)
    monkeypatch.setattr(escape, "_BOUND_SLACK", np.inf)
    got = escape.run_escape_experiment(cfg).exit_steps
    assert len(rerun) == 1 and np.array_equal(rerun[0], ids)
    assert np.array_equal(got, expected)


def test_chunk_kernel_engages_only_on_1d_sgd_intervals(monkeypatch):
    calls = []
    step = escape.levy_step

    def counting(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(escape, "levy_step", counting)
    for a in (1e5, 500.0, 150.0):  # fig3-style
        cfg = escape.double_well_config(a, 1.58e-4, trials=200, max_steps=2000,
                                        base_seed=700000, gamma=2.0)
        escape.run_escape_experiment(cfg)
    for eps in (0.02, 0.1):  # sweep-style
        escape.run_escape_experiment(interval_cfg(eps=eps, trials=200, max_steps=5000,
                                                  seed=4242))
    assert calls == []
    # compare-style: 2D, so the generic loop steps it
    land = landscapes.QuadraticBasin(H=np.diag([10.0, 0.1]), center=np.zeros(2), height=0.5)
    opt = dynamics.OptimizerConfig(kind="SGD", alpha=1.5, step_h=0.05, noise_scale=0.3,
                                   sigma=np.array([3.0, 0.1]))
    cfg = escape.EscapeConfig(landscape=land, basin=landscapes.BasinSpec(land, 0.3, 2.0),
                              optimizer=opt, theta0=np.zeros(2), trials=50,
                              max_steps=100, base_seed=8)
    escape.run_escape_experiment(cfg)
    assert len(calls) > 0
