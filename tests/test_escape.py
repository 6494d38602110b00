import hashlib
import math

import numpy as np
import pytest

from levyescape import dynamics, escape, geometry, landscapes


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


def test_reproducible_and_thread_invariant():
    cfg = interval_cfg(trials=200, max_steps=3000)
    a = escape.run_escape_experiment(cfg)
    b = escape.run_escape_experiment(cfg)
    c = escape.run_escape_experiment(cfg, threads=4)
    assert np.array_equal(a.exit_steps, b.exit_steps)
    assert np.array_equal(a.exit_steps, c.exit_steps)


def test_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("LEVY_ESCAPE_THREADS", "3")
    assert escape.resolve_threads() == 3
    assert escape.resolve_threads(2) == 2
    monkeypatch.delenv("LEVY_ESCAPE_THREADS")
    assert escape.resolve_threads() == 1


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
