import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from levyescape import dynamics, landscapes, probe
from levyescape.cli import main
from levyescape.stable import ParameterError, SampleSizeError

from oracles import finite_difference_gradient, noise_records_every_step, unblocked_gradient
from test_dynamics import CountingQuadratic


def small_setup(seed=0):
    model = probe.MlpModel.random_init(d_in=6, d_hidden=8, d_classes=3, seed=seed)
    data = probe.SyntheticDataset.blobs(n=200, d_in=6, k=3, seed=seed + 1)
    return model, data


def smooth_coordinate_mask(model, data, params, fd_step=1e-5):
    # Central differences are invalid where a hidden pre-activation sits
    # within the perturbation of its rectifier kink; drop those coordinates.
    w1, b1, _, _ = model.unpack(params)
    z1 = data.features @ w1 + b1
    margin = 10.0 * fd_step * (1.0 + float(np.max(np.abs(data.features))))
    risky = np.min(np.abs(z1), axis=0) < margin
    mask = np.ones(model.n_params, dtype=bool)
    n_w1 = model.d_in * model.d_hidden
    mask[:n_w1] = ~np.broadcast_to(risky, (model.d_in, model.d_hidden)).reshape(-1)
    mask[n_w1 : n_w1 + model.d_hidden] = ~risky
    return mask


def test_backprop_matches_finite_differences():
    model, data = small_setup()
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(20):
        params = model.params + 0.2 * rng.standard_normal(model.n_params)
        g = probe.full_gradient(model, data, params=params)
        fd = finite_difference_gradient(
            lambda p: probe.loss_value(model, data, params=p), params
        )
        mask = smooth_coordinate_mask(model, data, params)
        assert mask.mean() > 0.5
        checked += int(mask.sum())
        denom = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g[mask] - fd[mask])) / denom < 1e-5
    assert checked > 500


def test_backprop_matches_finite_differences_over_several_blocks():
    # 1000 rows of the default 20-32-3 MLP run as blocks of 409, 409 and 182
    model = probe.MlpModel.random_init(seed=6)
    data = probe.SyntheticDataset.blobs(n=1000, seed=7)
    params = model.params + 0.2 * np.random.default_rng(2).standard_normal(model.n_params)
    g = probe.full_gradient(model, data, params=params)
    fd = finite_difference_gradient(lambda p: probe.loss_value(model, data, params=p), params)
    mask = smooth_coordinate_mask(model, data, params)
    assert mask.mean() > 0.5
    assert np.max(np.abs(g[mask] - fd[mask])) / max(1.0, float(np.max(np.abs(g)))) < 1e-5


def test_blocked_gradient_matches_unblocked_oracle():
    small_model, small_data = small_setup()
    model = probe.MlpModel.random_init(seed=6)
    one_block = [(small_model, small_data, np.arange(200)),
                 (model, probe.SyntheticDataset.blobs(n=400, seed=4), np.arange(400)),
                 (model, probe.SyntheticDataset.blobs(n=409, seed=7), np.arange(409)),
                 (model, probe.SyntheticDataset.blobs(seed=7), np.arange(5, 2000, 61))]
    for m, data, rows in one_block:
        x, y = data.features[rows], data.labels[rows]
        oracle = unblocked_gradient(m, m.params, x, y)
        assert probe.minibatch_gradient(m, data, rows).tobytes() == oracle.tobytes()
        if rows.size == data.n:
            assert probe.full_gradient(m, data).tobytes() == oracle.tobytes()
    data = probe.SyntheticDataset.blobs(seed=7)
    oracle = unblocked_gradient(model, model.params, data.features, data.labels)
    g = probe.full_gradient(model, data)
    assert np.max(np.abs(g - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_full_gradient_bits_do_not_depend_on_blas_threads():
    # a 2000-row gradient in one product rounded differently at 1 and 2 OpenBLAS threads
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS")
    code = ("import hashlib; from levyescape import probe; "
            "g = probe.full_gradient(probe.MlpModel.random_init(seed=6), "
            "probe.SyntheticDataset.blobs(seed=7)); "
            "print(hashlib.sha256(g.tobytes()).hexdigest())")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


def test_duplicated_dataset_same_gradient():
    model, data = small_setup()
    doubled = probe.SyntheticDataset(
        features=np.concatenate([data.features, data.features]),
        labels=np.concatenate([data.labels, data.labels]),
    )
    assert np.allclose(probe.full_gradient(model, data),
                       probe.full_gradient(model, doubled))


def test_zero_weights_symmetric_two_class_bias_gradient():
    model = probe.MlpModel(d_in=4, d_hidden=6, d_classes=2)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 4))
    features = np.concatenate([x, x])
    labels = np.concatenate([np.zeros(50, int), np.ones(50, int)])
    data = probe.SyntheticDataset(features=features, labels=labels)
    g = probe.full_gradient(model, data)
    _, _, _, b2_grad = model.unpack(g)
    assert np.allclose(b2_grad, 0.0, atol=1e-12)


def test_minibatch_full_and_singletons():
    model, data = small_setup()
    full = probe.full_gradient(model, data)
    assert np.allclose(
        probe.minibatch_gradient(model, data, np.arange(data.n)), full
    )
    singles = np.mean(
        [probe.minibatch_gradient(model, data, np.array([i])) for i in range(data.n)],
        axis=0,
    )
    assert np.allclose(singles, full, atol=1e-12)
    with pytest.raises(IndexError):
        probe.minibatch_gradient(model, data, np.array([data.n]))


def test_disjoint_batches_average_to_full():
    model, data = small_setup()
    s = 20  # divides n = 200
    grads = [
        probe.minibatch_gradient(model, data, np.arange(i, i + s))
        for i in range(0, data.n, s)
    ]
    assert np.allclose(np.mean(grads, axis=0), probe.full_gradient(model, data))


def test_empty_data_raise_sample_size_error():
    model, data = small_setup()
    empty = probe.SyntheticDataset(features=np.zeros((0, 6)), labels=np.zeros(0, int))
    for call in (lambda: probe.full_gradient(model, empty), lambda: probe.loss_value(model, empty),
                 lambda: probe.minibatch_gradient(model, data, np.arange(0))):
        with pytest.raises(SampleSizeError):
            call()


def test_random_batch_noise_nonzero():
    model, data = small_setup()
    g_full = probe.full_gradient(model, data)
    g_batch = probe.minibatch_gradient(model, data, np.arange(32))
    assert np.linalg.norm(g_full - g_batch) > 0


def test_injected_noise_alpha_recovery():
    model = probe.MlpModel.random_init(seed=3)
    data = probe.SyntheticDataset.blobs(n=400, seed=4)
    cfg = dynamics.OptimizerConfig(kind="SGD", eta=0.05, alpha=1.5)
    records = probe.noise_trajectory(model, data, cfg, 150, window=16,
                                     batch_size=32, seed=9, record_stride=50,
                                     inject_alpha=1.3)
    assert records
    for rec in records:
        if rec.alpha_hat is not None:
            assert 1.2 <= rec.alpha_hat <= 1.4
    assert any(rec.alpha_hat is not None for rec in records)


def test_full_batch_noise_not_applicable():
    model, data = small_setup(seed=4)
    cfg = dynamics.OptimizerConfig(kind="SGD", eta=0.05, alpha=1.5)
    records = probe.noise_trajectory(model, data, cfg, 60, window=4,
                                     batch_size=data.n, seed=10, record_stride=20)
    assert records
    assert all(rec.alpha_hat is None for rec in records)


def test_genuine_run_heavy_tail_estimates():
    model = probe.MlpModel.random_init(seed=6)
    data = probe.SyntheticDataset.blobs(seed=7)
    cfg = dynamics.OptimizerConfig(kind="SGD", eta=0.05, alpha=1.5)
    records = probe.noise_trajectory(model, data, cfg, 300, window=16,
                                     batch_size=32, seed=11, record_stride=50)
    ests = [r.alpha_hat for r in records if r.alpha_hat is not None]
    assert ests
    assert all(0.5 < a <= 2.0 for a in ests)
    assert any(a < 2.0 for a in ests)


def test_noise_records_deterministic():
    model, data = small_setup(seed=5)
    cfg = dynamics.OptimizerConfig(kind="SGD", eta=0.05, alpha=1.5)
    r1 = probe.noise_trajectory(model, data, cfg, 60, window=8, batch_size=16,
                                seed=12, record_stride=20)
    r2 = probe.noise_trajectory(model, data, cfg, 60, window=8, batch_size=16,
                                seed=12, record_stride=20)
    for a, b in zip(r1, r2):
        assert a.step == b.step
        assert np.array_equal(a.noise, b.noise)
        assert a.alpha_hat == b.alpha_hat


def test_noise_records_match_every_step_oracle():
    # u_t is formed only on the steps a record reads; the records must not move
    model, data = small_setup(seed=2)
    cases = [(60, 8, 5, None), (60, 8, 8, None), (60, 8, 20, None), (67, 8, 20, None),
             (61, 16, 20, 1.3)]
    for kind in ("SGD", "ADAM"):
        cfg = dynamics.OptimizerConfig(kind=kind, eta=0.05, alpha=1.5)
        for n_steps, window, stride, inject in cases:
            args = (model, data, cfg, n_steps, window, 16, 12, stride, inject)
            got = probe.noise_trajectory(*args)
            want = noise_records_every_step(*args)
            assert [r.step for r in got] == [r.step for r in want]
            assert any(r.alpha_hat is not None for r in got)
            for a, b in zip(got, want):
                assert np.array_equal(a.noise, b.noise)
                assert (a.alpha_hat, a.noise_l2) == (b.alpha_hat, b.noise_l2)


def test_full_gradients_only_where_records_read(monkeypatch, tmp_path):
    calls = []
    full_gradient = probe.full_gradient

    def counting(*args, **kwargs):
        calls.append(1)
        return full_gradient(*args, **kwargs)

    monkeypatch.setattr(probe, "full_gradient", counting)
    # criterion 9's genuine run: 6 records of a 16-step window out of 300 steps
    cfg = dynamics.OptimizerConfig(kind="SGD", eta=0.05, alpha=1.5)
    probe.noise_trajectory(probe.MlpModel.random_init(seed=6),
                           probe.SyntheticDataset.blobs(seed=7), cfg, 300, window=16,
                           batch_size=32, seed=11, record_stride=50)
    assert len(calls) == 96
    calls.clear()
    # the CLI default: 600 steps, stride 50, window 16
    assert main(["probe", "--seed", "3", "--out", str(tmp_path / "probe.json")]) == 0
    assert len(calls) == 192
    calls.clear()
    model, data = small_setup()
    with pytest.raises(ParameterError, match="window"):
        probe.noise_trajectory(model, data, cfg, 10, window=0, record_stride=5)
    assert calls == []


def test_assumption_monitors_quadratic():
    land = landscapes.QuadraticBasin(H=np.array([[1.0]]), center=np.zeros(1),
                                     height=10.0)
    cfg = dynamics.OptimizerConfig(kind="ADAM", step_h=1e-2, beta1=0.9,
                                   beta2=0.99, noise_scale=0.0)
    rep = probe.assumption_monitors(land, cfg, np.array([2.0]), 800,
                                    record_stride=10)
    assert np.all(rep.rho >= 0.0)
    assert np.isfinite(rep.v_min) and np.isfinite(rep.v_max)
    assert rep.v_min <= rep.v_max
    assert np.all(np.isfinite(rep.t))
    # a frozen preconditioner: rho divides by q_fixed, and v stays 0
    land = landscapes.QuadraticBasin(H=np.array([[2.0]]), center=np.zeros(1),
                                     height=10.0)
    cfg = dynamics.OptimizerConfig(kind="ADAM", step_h=1e-2, beta1=0.9,
                                   beta2=0.99, noise_scale=0.0, q_fixed=[1.5])
    rep = probe.assumption_monitors(land, cfg, np.array([1.0]), 1000)
    assert np.isfinite(rep.rho[-1]) and rep.rho[-1] < 10.0
    assert rep.v_min == rep.v_max == 0.0


def test_assumption_monitors_from_minimizer():
    land = landscapes.QuadraticBasin(H=np.array([[1.0]]), center=np.zeros(1),
                                     height=10.0)
    cfg = dynamics.OptimizerConfig(kind="ADAM", step_h=1e-2, beta1=0.9,
                                   beta2=0.99, noise_scale=0.0)
    rep = probe.assumption_monitors(land, cfg, np.zeros(1), 100, record_stride=10)
    assert np.allclose(rep.rho, 0.0)
    assert np.all(np.isnan(rep.tau))  # gradient stays zero: not applicable


def test_assumption_monitors_one_gradient_per_state():
    land = CountingQuadratic()
    cfg = dynamics.OptimizerConfig(kind="ADAM", step_h=0.1, beta1=0.9, beta2=0.99,
                                   noise_scale=0.0)
    probe.assumption_monitors(land, cfg, np.array([1.0]), 10)
    assert land.calls == 11


def test_assumption_monitors_are_rows_of_the_flow_series():
    land = landscapes.QuadraticBasin(H=np.array([[1.0]]), center=np.zeros(1), height=10.0)
    cfg = dynamics.OptimizerConfig(kind="ADAM", step_h=1e-2, beta1=0.9, beta2=0.99,
                                   noise_scale=0.0)
    _, flow = dynamics.deterministic_flow(
        dynamics.SdeState.initial(np.array([2.0]), "ADAM"), land, cfg, 100 * cfg.step_h)
    # every record_stride-th step, and the last
    for stride, steps in ((1, range(1, 101)), (7, [*range(7, 100, 7), 100])):
        rep = probe.assumption_monitors(land, cfg, np.array([2.0]), 100, record_stride=stride)
        np.testing.assert_array_equal(np.column_stack([rep.t, rep.rho, rep.tau]),
                                      flow.monitor_series[np.asarray(steps) - 1])


def test_averaging_preserves_injected_alpha():
    rng = np.random.default_rng(8)
    from levyescape import stable

    law = stable.StableLaw(1.4)
    records = [
        probe.NoiseRecord(step=i, noise=stable.sample_sas(law, 800, rng=rng),
                          alpha_hat=None, noise_l2=0.0)
        for i in range(300)
    ]
    rep = probe.averaging_tail_comparison(records, beta1=0.9)
    assert 20 <= rep["decimation_gap"] <= 21
    assert abs(rep["alpha_raw"] - rep["alpha_avg"]) <= 0.1


def test_averaging_beta_zero_identity():
    rng = np.random.default_rng(9)
    records = [
        probe.NoiseRecord(step=i, noise=rng.standard_normal(400),
                          alpha_hat=None, noise_l2=0.0)
        for i in range(20)
    ]
    rep = probe.averaging_tail_comparison(records, beta1=0.0)
    assert rep["alpha_raw"] == rep["alpha_avg"]


def test_model_parameter_count_validation():
    with pytest.raises(ValueError):
        probe.MlpModel(d_in=4, d_hidden=4, d_classes=2, params=np.zeros(10))
