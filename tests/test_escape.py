import dataclasses
import hashlib
import math
import sys
import threading
import time
import types
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyescape import dynamics, escape, geometry, landscapes, probe, stable
from levyescape.stable import ParameterError, sas_from_uniforms
from oracles import chunk_outcome_oracle, generic_exit_steps_row_major


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
    assert math.isnan(stats.censored_mean_exit_steps)


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


def test_sigma_and_q_fixed_must_fit_the_landscape():
    # a scalar sigma took the dense branch, so every coordinate got the same
    # summed noise; a sigma or q_fixed of another d failed mid-run in numpy
    for sigma in (3.0, np.ones((2, 3)), np.ones((2, 2, 2))):
        with pytest.raises(ParameterError, match="square"):
            dynamics.OptimizerConfig(sigma=sigma)
    land = landscapes.QuadraticBasin(H=np.diag([4.0, 1.0]), center=np.zeros(2), height=1.0)

    def config(**field):
        opt = dynamics.OptimizerConfig(kind="ADAM", step_h=0.1, noise_scale=0.05, **field)
        return escape.EscapeConfig(landscape=land, basin=landscapes.BasinSpec(region=land, eps=0.05),
                                   optimizer=opt, theta0=np.zeros(2), trials=10, max_steps=10)

    for name, value in (("sigma", np.ones(3)), ("sigma", np.ones(1)), ("sigma", np.eye(3)),
                        ("q_fixed", np.ones(3)), ("q_fixed", 1.5), ("q_fixed", np.ones((2, 2)))):
        with pytest.raises(ParameterError, match=name):
            config(**{name: value})
    for name, value in (("sigma", np.ones(2)), ("sigma", np.eye(2)), ("q_fixed", np.ones(2))):
        assert config(**{name: value}).trials == 10
    well = escape.double_well_config(500, 1e-3)
    with pytest.raises(ParameterError, match="sigma"):
        dataclasses.replace(well, optimizer=dataclasses.replace(well.optimizer, sigma=np.ones(2)))


def _tail_run(cfg, k):
    """Exit steps of trials k.. of ``cfg``, run as an ensemble of their own."""
    return escape.run_escape_experiment(dataclasses.replace(
        cfg, base_seed=cfg.base_seed + k, trials=cfg.trials - k)).exit_steps


def test_reproducible_and_batch_invariant():
    # a trial's exit step does not depend on the trials beside it, on the
    # chunk kernel and on the generic loop
    cfg = interval_cfg(trials=200, max_steps=3000)
    assert escape._affine_drift(cfg) is not None
    a = escape.run_escape_experiment(cfg)
    b = escape.run_escape_experiment(cfg)
    assert np.array_equal(a.exit_steps, b.exit_steps)
    for k in (1, 37, 100):
        assert np.array_equal(_tail_run(cfg, k), a.exit_steps[k:])
    cfg = _compare_basin_cfg("SGD", 0.1, trials=100, max_steps=300, seed=3)
    assert escape._affine_drift(cfg) is None
    serial = escape.run_escape_experiment(cfg).exit_steps
    assert np.unique(serial).size > 10
    assert np.array_equal(_tail_run(cfg, 50), serial[50:])


def _count_transforms(monkeypatch):
    """Sizes of every batch of values passed to the CMS transform."""
    counted = []

    def counting(alpha, u_angle, u_exp, out=None, parts=None):
        counted.append(np.size(u_angle))
        return sas_from_uniforms(alpha, u_angle, u_exp, out=out, parts=parts)

    monkeypatch.setattr(dynamics, "sas_from_uniforms", counting)
    return counted


def test_noise_transformed_only_for_steps_taken(monkeypatch):
    # every trial leaves within the first chunk of 8 steps (at steps 1 to 5),
    # so only those 8 rows per trial may be transformed, not a 512-row block
    counted = _count_transforms(monkeypatch)
    land = landscapes.QuadraticBasin(H=np.eye(2), center=np.zeros(2), height=0.5)
    opt = dynamics.OptimizerConfig(kind="SGD", alpha=1.5, step_h=1.0, noise_scale=0.5)
    cfg = escape.EscapeConfig(landscape=land, basin=landscapes.BasinSpec(land, 0.1, 2.0),
                              optimizer=opt, theta0=np.zeros(2), trials=50,
                              max_steps=1000, base_seed=2)
    exit_steps = escape.run_escape_experiment(cfg).exit_steps
    assert exit_steps.min() == 1 and exit_steps.max() == 5
    assert sum(counted) == 8 * 2 * 50


def _record_draws(monkeypatch):
    """Row counts of every ``SasStream.draw``, in call order."""
    rows = []
    draw = dynamics.SasStream.draw

    def recording(self, n):
        rows.append(n)
        return draw(self, n)

    monkeypatch.setattr(dynamics.SasStream, "draw", recording)
    return rows


def _compare_basin_cfg(kind, eps, trials, max_steps, seed):
    # the compare preset's basin: H = diag(10, 0.1), height 0.5, sigma = (3, 0.1)
    land = landscapes.QuadraticBasin(H=np.diag([10.0, 0.1]), center=np.zeros(2), height=0.5)
    sigma = np.array([3.0, 0.1])
    opt = dynamics.OptimizerConfig(kind=kind, alpha=1.5, step_h=0.05, noise_scale=eps,
                                   sigma=sigma, beta2=0.99,
                                   q_fixed=sigma if kind == "ADAM" else None)
    return escape.EscapeConfig(landscape=land, basin=landscapes.BasinSpec(land, eps, 2.0),
                               optimizer=opt, theta0=np.zeros(2), trials=trials,
                               max_steps=max_steps, base_seed=seed)


def test_thinning_ensemble_transforms_little_unused_noise(monkeypatch):
    # Adam keeps 74 of 400 trials past step 8 and exits by step 30: chunks of
    # 8, 8 and 16 rows transform about 8.0 k values for the 4352 it uses,
    # where a 248-row second chunk transformed about 43 k
    counted = _count_transforms(monkeypatch)
    rows = _record_draws(monkeypatch)
    cfg = _compare_basin_cfg("ADAM", 0.3, trials=400, max_steps=5000, seed=3)
    stats = escape.run_escape_experiment(cfg)
    assert stats.n_exited == cfg.trials
    used = int(stats.exit_steps.sum()) * 2
    assert rows == [8, 8, 16]
    assert sum(counted) < 2 * used


def test_non_thinning_ensemble_keeps_long_chunks(monkeypatch):
    # fewer than half the trials leave in any chunk, so after the first 8
    # rows every chunk runs to the next multiple of 256 (the chunk kernel)
    rows = _record_draws(monkeypatch)
    cfg = escape.double_well_config(500.0, 1.58e-4, trials=200, max_steps=2000,
                                    base_seed=700000, gamma=2.0)
    stats = escape.run_escape_experiment(cfg)
    assert 0 < stats.n_exited < cfg.trials // 2
    assert rows == [8, 248] + [256] * 6 + [208]


def test_blocks_thinning_differently_give_serial_exit_steps(monkeypatch):
    # 2-D SGD on the generic loop; each block of trials picks its own chunks
    cfg = _compare_basin_cfg("SGD", 0.1, trials=100, max_steps=300, seed=3)
    rows = _record_draws(monkeypatch)
    schedules, parts = [], []
    for block in np.array_split(np.arange(cfg.trials), 2):
        parts.append(escape._run_generic(cfg, block))
        schedules.append(rows.copy())
        rows.clear()
    assert schedules[0] != schedules[1]
    serial = escape.run_escape_experiment(cfg).exit_steps
    assert np.unique(serial).size > 10
    assert np.array_equal(np.concatenate(parts), serial)


def test_stream_follows_survivors_once_per_chunk(monkeypatch):
    # trials leave at many more distinct steps than there are chunks, but the
    # stream is compacted only at the end of each drawn chunk
    rows = _record_draws(monkeypatch)
    takes = []
    take = dynamics.SasStream.take

    def counting(self, keep):
        takes.append(1)
        return take(self, keep)

    monkeypatch.setattr(dynamics.SasStream, "take", counting)
    cfg = _compare_basin_cfg("SGD", 0.3, trials=400, max_steps=5000, seed=3)
    stats = escape.run_escape_experiment(cfg)
    assert np.unique(stats.exit_steps).size > len(rows)
    assert 0 < len(takes) <= len(rows)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="a call moves its arguments into the callee's frame from Python 3.11")
def test_driver_keeps_no_reference_to_a_chunk_start():
    # the per-chunk step holds the only reference to its starting state, so
    # that state is freed as soon as the step moves past it
    cfg = _compare_basin_cfg("SGDM", 0.1, trials=200, max_steps=300, seed=5)
    freed = []

    def advance(cfg, state, noise):
        start = weakref.ref(state)
        state, ends = escape._levy_chunk(cfg, state, noise)
        freed.append(start() is None)
        return state, ends

    escape._run_chunks(cfg, np.arange(cfg.trials), dynamics.SdeState.initial(
        np.tile(cfg.theta0, (cfg.trials, 1)), "SGDM"), advance)
    assert len(freed) > 2 and all(freed)


def _layout_case(d, kind, h_dense, sigma_form):
    """An ensemble on a d-dim quadratic basin whose exits spread over the first 300 steps.

    ``kind`` is an optimizer kind, or "ADAM_Q" for Adam with ``q_fixed``.
    """
    rng = np.random.default_rng(d)
    h = np.geomspace(10.0, 0.1, d)
    if h_dense:
        rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
        h = (rot * h) @ rot.T
        h = 0.5 * (h + h.T)
    else:
        h = np.diag(h)
    sigma = {"none": None, "diag": rng.uniform(0.1, 3.0, d),
             "dense": np.eye(d) + 0.3 * rng.standard_normal((d, d))}[sigma_form]
    land = landscapes.QuadraticBasin(H=h, center=0.1 * rng.standard_normal(d), height=0.5)
    opt = dynamics.OptimizerConfig(
        kind=kind.removesuffix("_Q"), alpha=1.5, step_h=0.05, noise_scale=0.03, sigma=sigma,
        beta2=0.99, eps_adam=1.0, q_fixed=rng.uniform(0.5, 2.0, d) if kind == "ADAM_Q" else None)
    return escape.EscapeConfig(landscape=land, basin=landscapes.BasinSpec(land, 0.03, 2.0),
                               optimizer=opt, theta0=land.center, trials=40, max_steps=300,
                               base_seed=d)


_LAYOUT_DIMS = (2, 3, 5, 7, 8, 16)
_LAYOUT_KINDS = ("SGD", "ADAM", "ADAM_Q", "SGDM")


# case (2 i_d + i_kind) mod 6 of (H diagonal, dense) x (sigma none, diagonal,
# dense): every d and every kind meets both H forms and all three sigmas
@pytest.mark.parametrize("d, kind, h_dense, sigma_form", [
    (d, kind, c // 3 == 1, ("none", "diag", "dense")[c % 3])
    for i, d in enumerate(_LAYOUT_DIMS) for k, kind in enumerate(_LAYOUT_KINDS)
    for c in [(2 * i + k) % 6]])
def test_generic_loop_equals_the_row_major_loop(d, kind, h_dense, sigma_form):
    # the column-major state and noise change no bit of any exit step, also
    # in a smaller batch
    cfg = _layout_case(d, kind, h_dense, sigma_form)
    serial = escape.run_escape_experiment(cfg).exit_steps
    assert np.array_equal(serial, generic_exit_steps_row_major(cfg, np.arange(cfg.trials)))
    assert np.unique(serial).size > 10
    assert np.array_equal(_tail_run(cfg, 20), serial[20:])


def _chunk_layouts(monkeypatch):
    """The arrays of each ``_levy_chunk``'s input and output state, and its ends."""
    seen = []
    chunk = escape._levy_chunk

    def recording(cfg, state, noise):
        before = [a for a in tuple(state)[:3] if a is not None]
        state, ends = chunk(cfg, state, noise)
        seen.append((before + [a for a in tuple(state)[:3] if a is not None], ends))
        return state, ends

    monkeypatch.setattr(escape, "_levy_chunk", recording)
    return seen


def test_generic_loop_keeps_a_column_major_state(monkeypatch):
    # Adam ensembles with a diagonal H, and SGD ones with a dense H and a dense
    # sigma, stay column-major through their steps and their compactions, at
    # d = 2 and 3 as at d = 8 and 16; an edit that drops the layout costs
    # 10-20% of a step
    for case, arrays_per_chunk in (((2, "ADAM", False, "diag"), 6), ((3, "SGD", True, "dense"), 2),
                                   ((8, "SGD", True, "dense"), 2), ((16, "ADAM", False, "none"), 6)):
        seen = _chunk_layouts(monkeypatch)
        escape.run_escape_experiment(_layout_case(*case))
        assert sum((ends > 0).any() and (ends == 0).sum() > 1 for _, ends in seen) >= 2
        assert all(len(arrays) == arrays_per_chunk and all(a.flags.f_contiguous for a in arrays)
                   for arrays, _ in seen)
        monkeypatch.undo()


def test_generic_loop_keeps_rows_from_d_8(monkeypatch):
    # numpy adds 8 or more terms of a contiguous row pairwise but those of a
    # column-major batch's row in order; each chunk of the generic loop gives
    # every row of its column-major batch the ends and the state bits that the
    # same chunk gives that row alone, with a dense H and sigma and with Adam
    chunk = escape._levy_chunk
    for case in ((8, "SGD", True, "dense"), (8, "ADAM_Q", True, "dense"), (16, "ADAM_Q", True, "diag"),
                 (8, "ADAM", False, "none")):
        cfg, calls = _layout_case(*case), []

        def recording(cfg, state, noise):
            out = chunk(cfg, state, noise)
            calls.append((state, noise, out))
            return out

        monkeypatch.setattr(escape, "_levy_chunk", recording)
        escape.run_escape_experiment(cfg)
        monkeypatch.undo()
        assert len(calls) >= 2 and sum((ends == 0).sum() for _, _, (_, ends) in calls) > 10
        for state, noise, (out, ends) in calls:
            assert state.theta.flags.f_contiguous and state.theta.shape[1] == cfg.theta0.size
            kept = np.cumsum(ends == 0) - 1
            for i in range(len(ends)):
                row, row_ends = chunk(cfg, state.take(np.arange(len(ends)) == i), noise[i:i + 1])
                assert row_ends[0] == ends[i]
                if not ends[i]:
                    assert all(a[kept[i]].tobytes() == b[0].tobytes()
                               for a, b in zip(tuple(out)[:3], tuple(row)[:3]) if a is not None)


@pytest.mark.parametrize("d, kind", [(3, "SGD"), (4, "ADAM"), (5, "ADAM_Q"), (8, "SGDM"),
                                     (9, "SGD"), (16, "ADAM")])
def test_dense_h_and_sigma_paths_do_not_depend_on_the_batch(d, kind):
    # H d and a dense sigma's product round each row as it would alone: every
    # step of a batch equals its rows stepped one at a time, bit for bit, a
    # smaller batch gives the same exit steps, and so does each trial run alone
    cfg = _layout_case(d, kind, True, "dense")
    opt = cfg.optimizer
    noise = opt.increment_scale(opt.step_h) * dynamics.SasStream(
        opt.alpha, d, cfg.base_seed + np.arange(cfg.trials)).draw(20)
    batch = dynamics.SdeState.initial(np.tile(cfg.theta0, (cfg.trials, 1)), opt.kind)
    rows = [dynamics.SdeState.initial(cfg.theta0, opt.kind)] * cfg.trials
    for j in range(noise.shape[1]):
        batch = dynamics.levy_step(batch, cfg.landscape, opt, noise[:, j])
        rows = [dynamics.levy_step(row, cfg.landscape, opt, noise[i, j])
                for i, row in enumerate(rows)]
        assert batch.theta.tobytes() == np.array([row.theta for row in rows]).tobytes()
    serial = escape.run_escape_experiment(cfg).exit_steps
    assert np.unique(serial).size > 10
    assert np.array_equal(_tail_run(cfg, 20), serial[20:])
    alone = [escape.run_escape_experiment(dataclasses.replace(
        cfg, trials=1, base_seed=cfg.base_seed + i)).exit_steps[0] for i in range(cfg.trials)]
    assert np.array_equal(alone, serial)


@pytest.mark.parametrize("d", [8, 9, 16, 33])
@pytest.mark.parametrize("h_dense", [False, True], ids=["diag", "dense"])
def test_column_major_rows_round_as_each_row_alone(d, h_dense):
    # numpy's own last-axis sum adds 8 or more terms of a contiguous row in
    # pairwise blocks but a column-major batch's rows in order; ``row_sum``
    # adds both in index order, so each row of a column-major batch equals
    # that row taken alone, bit for bit
    kind = "ADAM_Q" if h_dense else "SGD"
    cfg = _layout_case(d, kind, h_dense, "dense" if h_dense else "diag")
    land, opt = cfg.landscape, cfg.optimizer
    rng = np.random.default_rng(d)
    z = rng.standard_normal((2000, d))
    # quadratic forms spread over the inside, the shell and the outside of the basin
    q_z = np.einsum("ni,ij,nj->n", z, land.H, z)[:, None]
    theta = np.asfortranarray(land.center + z * np.sqrt(rng.uniform(0.0, 2.0, (2000, 1)) / q_z))
    inc = np.asfortranarray(opt.increment_scale(opt.step_h) * rng.standard_cauchy((2000, d)))
    basin = landscapes.BasinSpec(land, 0.5)
    factor = 0.2 * math.sqrt(land.h_f_star / land.ell)  # a margin of a tenth of a_min

    def parts(x, dl):
        state = dynamics.levy_step(dynamics.SdeState.initial(x, opt.kind), land, opt, dl)
        return {"gradient": land.gradient(x), "q": land._offset_form(x)[1],
                "boundary_distance": land.boundary_distance(x),
                "in_inner": basin.in_inner(x, factor),
                "noise_term": opt.noise_term(dl),
                "levy_step": np.concatenate([a for a in tuple(state)[:2] if a is not None], -1)}

    batch = parts(theta, inc)
    alone = [parts(np.ascontiguousarray(x), np.ascontiguousarray(dl)) for x, dl in zip(theta, inc)]
    for name, value in batch.items():
        assert np.asarray(value).tobytes() == np.array([a[name] for a in alone]).tobytes(), name
    inner = basin.in_inner(theta, factor)
    assert 0 < inner.sum() < (land.boundary_distance(theta) > -np.inf).sum() < len(theta)


@settings(max_examples=200, deadline=None)
@given(fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       trials=st.integers(1, 5000), max_steps=st.integers(1, 20000))
def test_chunks_never_cross_a_multiple_of_256(fractions, trials, max_steps):
    # any sequence of active counts: each chunk keeps a fraction of its trials
    cfg = types.SimpleNamespace(max_steps=max_steps)
    step, active, thinned = 0, trials, True
    for keep in fractions:
        if step >= max_steps or not active:
            break
        chunk = escape._chunk_length(cfg, step, thinned)
        assert chunk >= 1
        assert step in (0, 8, 16, 32, 64, 128) or step % 256 == 0
        assert step // 256 == (step + chunk - 1) // 256
        started, active = active, int(keep * active)
        step += chunk
        thinned = 2 * active <= started


def test_censored_mean_exit_steps():
    cfg = escape.double_well_config(500.0, 3e-4, trials=60, max_steps=400, base_seed=3,
                                    gamma=2.0)
    stats = escape.run_escape_experiment(cfg)
    t = stats.exit_steps
    assert 0 < stats.n_exited < stats.n_trials  # some trials are censored
    expected = np.where(t > 0, np.minimum(t, cfg.max_steps), cfg.max_steps).sum() / (t > 0).sum()
    assert stats.censored_mean_exit_steps == pytest.approx(expected, rel=1e-15)
    assert stats.censored_mean_exit_steps > stats.mean_exit_steps
    summary = stats.summary()
    assert summary["censored_mean_exit_steps"] == stats.censored_mean_exit_steps
    assert summary["mean_exit_steps"] == stats.mean_exit_steps


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
    # a repeated amplitude would fit its one point twice
    for eps_list in ([0.1, 0.1], [0.01, 0.02, 0.02, 0.05]):
        with pytest.raises(ParameterError, match="sweep amplitudes must be distinct"):
            escape.scaling_sweep(cfg, eps_list)


def test_sweep_drops_low_exit_points():
    # amplitudes with fewer than 100 exits are dropped with a warning
    cfg = interval_cfg(alpha=1.5, trials=150, max_steps=200, seed=6)
    with pytest.warns(UserWarning, match="dropped"):
        rep = escape.scaling_sweep(cfg, [1e-4, 0.05, 0.1, 0.2])
    assert rep["dropped"] == [1e-4, 0.05]
    assert rep["eps"] == [0.1, 0.2]
    assert all(rep["stats"][e].n_exited >= 100 for e in rep["eps"])


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
    rep = escape.compare_optimizers(cfg)
    assert list(rep["stats"]) == ["SGD", "ADAM", "SGDM"]
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


def test_compare_transforms_the_shared_first_chunk_once(monkeypatch):
    # SGD, Adam and SGD-M read the same 2000 streams: their common first
    # chunk of 8 rows x 2 coordinates is seeded and transformed once, so the
    # three ensembles transform about 39 k values instead of 103 k
    counted = _count_transforms(monkeypatch)
    cfg = _compare_basin_cfg("SGD", 0.3, trials=2000, max_steps=5000, seed=5)
    q_fixed = np.array([3.0, 0.1])
    shared = escape.compare_optimizers(cfg, q_fixed_adam=q_fixed)["stats"]
    first_chunk = 8 * 2 * cfg.trials
    assert counted.count(first_chunk) == 1 and sum(counted) < 45_000
    # with no memo kept, each ensemble transforms its first chunk itself
    monkeypatch.setattr(dynamics, "_start_memo", None)
    monkeypatch.setattr(dynamics, "_START_MEMO_BYTES", 0)
    unshared = escape.compare_optimizers(cfg, q_fixed_adam=q_fixed)["stats"]
    assert counted.count(first_chunk) == 4
    for kind, stats in shared.items():
        assert np.array_equal(stats.exit_steps, unshared[kind].exit_steps)


def test_exit_steps_are_int32_and_max_steps_fits_them():
    cfg = _compare_basin_cfg("SGD", 0.3, trials=20, max_steps=50, seed=1)
    for run_cfg in (interval_cfg(trials=20, max_steps=50), cfg):  # chunk kernel, generic loop
        assert escape.run_escape_experiment(run_cfg).exit_steps.dtype == np.int32
    assert dataclasses.replace(cfg, max_steps=2 ** 31 - 1).max_steps == 2 ** 31 - 1
    with pytest.raises(ParameterError, match="max_steps"):
        dataclasses.replace(cfg, max_steps=2 ** 31)


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
                                   beta1=0.9, beta2=0.99, eps_adam=0.5)
    cfg = escape.EscapeConfig(landscape=land, basin=landscapes.BasinSpec(land, 0.1, 2.0),
                              optimizer=opt, theta0=np.array([0.3, -0.2]), trials=60,
                              max_steps=300, base_seed=21)
    got["dense_adam"] = escape.run_escape_experiment(cfg).exit_steps
    assert {k: _digest(v) for k, v in got.items()} == {
        "double_well_sgd": "1436548056a7ecee",
        "sigma_SGD": "e82e0f1cbdf9c6fc",
        "sigma_ADAM": "3f86eb34294ab83c",
        "sigma_SGDM": "7f44a645ec57ab9d",
        "dense_adam": "2768dbe24469fb3e",
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


def test_frozen_dense_flow_series():
    # digests recorded once the flow's sums went through row_sum: at d = 3 with a
    # dense H, the path, L, rho and tau no longer depend on the BLAS kernel.  The
    # fitted and predicted rates are left out, since polyfit and eigvalsh are LAPACK
    land = landscapes.QuadraticBasin(H=np.array([[2.0, 0.5, -0.3], [0.5, 1.5, 0.2],
                                                 [-0.3, 0.2, 1.0]]),
                                     center=np.array([0.3, -1.0, 2.0]), height=10.0)
    got = {}
    for name, kind, q_fixed in (("adam", "ADAM", None), ("adam_q_fixed", "ADAM", [1.5, 0.5, 2.0]),
                                ("sgdm", "SGDM", None)):
        cfg = dynamics.OptimizerConfig(kind=kind, step_h=1e-2, beta1=0.9, beta2=0.99,
                                       noise_scale=0.0, q_fixed=q_fixed)
        traj, rep = dynamics.deterministic_flow(
            dynamics.SdeState.initial(np.array([1.0, 0.5, 1.5]), kind), land, cfg, 3.0)
        got[name] = _float_digest(traj.theta, traj.m, rep.lyapunov_series, rep.monitor_series,
                                  [rep.tau, rep.v_max])
    assert got == {
        "adam": "17aa45c6e7ab1d5e",
        "adam_q_fixed": "af59e7c69e94ec47",
        "sgdm": "c726a41753859b68",
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
    expected = escape._run_generic(cfg, np.arange(cfg.trials))
    assert np.array_equal(escape.run_escape_experiment(cfg).exit_steps, expected)


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
    # up to each trial's first exit, across two chunks (the bound is carried);
    # brackets and iterates are time-major, (step, trial)
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
    generic = np.array(generic)
    y = np.full(cfg.trials, cfg.theta0[0] - drift[2])
    dev = escape._U * np.abs(y)
    brackets = [escape._chunk_bracket(drift, opt.noise_term(scale * part)[..., 0], y, dev)
                for part in (noise[:, :length], noise[:, length:])]
    low = np.vstack([lo for lo, _ in brackets])
    high = np.vstack([hi for _, hi in brackets])
    assert low.shape == high.shape == generic.shape == (2 * length, cfg.trials)
    inside = cfg.basin.in_inner(generic[..., None])
    first = np.where(inside.all(axis=0), 2 * length, np.argmin(inside, axis=0))
    checked = np.arange(2 * length)[:, None] <= first
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
    expected = escape._run_generic(cfg, np.arange(cfg.trials))
    assert np.array_equal(escape.run_escape_experiment(cfg).exit_steps, expected)


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


def _below_zero_case():
    land = landscapes.QuadraticBasin(H=np.array([[1.0]]), center=np.array([-3.0]), height=1.0)
    opt = dynamics.OptimizerConfig(kind="SGD", alpha=1.5, step_h=0.2, noise_scale=0.03)
    return escape.EscapeConfig(
        landscape=land, basin=landscapes.BasinSpec(landscapes.IntervalRegion(-4.7, -1.3), 0.03),
        optimizer=opt, theta0=np.array([-3.0]), trials=10, max_steps=10)


def _int_ends_case(lo, hi, trials=10, max_steps=10):
    """A 1D quadratic basin whose region ends are Python ints, centred on the region."""
    mid = (lo + hi) / 2
    land = landscapes.QuadraticBasin(H=np.array([[1.0]]), center=np.array([mid]), height=0.5)
    opt = dynamics.OptimizerConfig(kind="SGD", alpha=1.5, step_h=0.2, noise_scale=0.1)
    return escape.EscapeConfig(
        landscape=land, basin=landscapes.BasinSpec(landscapes.IntervalRegion(lo, hi), 0.1),
        optimizer=opt, theta0=np.array([mid]), trials=trials, max_steps=max_steps,
        base_seed=5)


_ENDPOINT_CASES = {
    **{f"fig3_a{a:g}": escape.double_well_config(a, 1.58e-4, trials=10, gamma=2.0)
       for a in (1e5, 500.0, 150.0)},
    "sweep_eps0.01": interval_cfg(eps=0.01, trials=10),
    "sweep_eps0.1": interval_cfg(eps=0.1, trials=10),
    "straddles_zero": _kernel_case("quadratic", 20, 0.5, 1.5, None, 0.3, 0.05, 10, 0),
    "below_zero": _below_zero_case(),
    "int_ends_-1_1": _int_ends_case(-1, 1),
    "int_ends_0_2": _int_ends_case(0, 2),
}


@pytest.mark.parametrize("name", sorted(_ENDPOINT_CASES))
def test_inner_ends_are_the_last_floats_in_inner_accepts(name):
    cfg = _ENDPOINT_CASES[name]
    region = cfg.basin.region
    if name == "straddles_zero":
        assert region.lo < 0.0 < region.hi
    if name == "below_zero":
        assert region.hi < 0.0
    drift = escape._affine_drift(cfg)
    assert drift is not None
    inner_lo, inner_hi = drift[4:]
    inner = cfg.basin.in_inner
    assert inner(np.array([inner_lo])) and inner(np.array([inner_hi]))
    assert not inner(np.array([np.nextafter(inner_lo, -np.inf)]))
    assert not inner(np.array([np.nextafter(inner_hi, np.inf)]))
    assert inner_lo <= cfg.theta0[0] <= inner_hi


@pytest.mark.parametrize("lo, hi", [(-1, 1), (0, 2)])
def test_chunk_kernel_matches_generic_loop_on_int_ends(lo, hi):
    # int ends must bound the inner interval by their values, not by their bits
    cfg = _int_ends_case(lo, hi, trials=200, max_steps=3000)
    assert isinstance(cfg.basin.region.hi, int) and escape._affine_drift(cfg) is not None
    ids = np.arange(cfg.trials)
    expected = escape._run_generic(cfg, ids)
    assert np.unique(expected).size > 20
    assert np.array_equal(escape.run_escape_experiment(cfg).exit_steps, expected)


@pytest.mark.parametrize("name", ["fig3_a500", "straddles_zero", "below_zero", "int_ends_0_2"])
def test_chunk_outcome_matches_the_in_inner_rule(name):
    cfg = _ENDPOINT_CASES[name]
    inner_lo, inner_hi = escape._affine_drift(cfg)[4:]
    theta0 = float(cfg.theta0[0])
    rng = np.random.default_rng(7)
    # random time-major brackets, (step, trial), across the inner interval and
    # past both of its ends; the oracle reads (trial, step)
    spread = inner_hi - inner_lo
    x = rng.uniform(inner_lo - 0.2 * spread, inner_hi + 0.2 * spread, (6, 300))
    x[:3] = rng.uniform(inner_lo, inner_hi, (3, 300))  # most trials start inside
    half = spread * 10.0 ** rng.uniform(-12, -1, 300)
    half[::7] = 0.0
    brackets = [(x - half, x + half)]
    # brackets with an end on I_lo or I_hi or one float beyond
    ends = []
    for end in (inner_lo, inner_hi):
        ends += [end, np.nextafter(end, -np.inf), np.nextafter(end, np.inf)]
    edge = rng.choice(ends, (6, 300))
    width = spread * 10.0 ** rng.uniform(-14, -2, (6, 300))
    inside = rng.uniform(inner_lo + 0.3 * spread, inner_hi - 0.3 * spread, (6, 300))
    on_low = rng.random((6, 300)) < 0.5
    low = np.where(on_low, edge, np.minimum(edge - width, inside))
    high = np.where(on_low, np.maximum(edge + width, inside), edge)
    brackets.append((low, high))
    low, high = np.where(on_low, edge, edge - width), np.where(on_low, edge + width, edge)
    low[:, :2], high[:, :2] = inner_lo, inner_hi  # exactly the inner interval: inside
    high[3, 1] = np.nextafter(inner_hi, np.inf)  # one float beyond it: undecided
    brackets.append((low, high))
    seen = set()
    for low, high in brackets:
        got = escape._chunk_outcome(inner_lo, inner_hi, low, high)
        assert np.array_equal(got, chunk_outcome_oracle(cfg.basin, theta0, low.T, high.T))
        seen.update(got.tolist())
    assert {-1, 0, 1, 2}.issubset(seen)


@pytest.mark.parametrize("name", ["fig3_a500", "straddles_zero", "below_zero", "int_ends_0_2"])
def test_scan_chunk_settles_columns_as_the_per_step_check(monkeypatch, name):
    # _scan_chunk settles each trial by _chunk_outcome on its full brackets; a
    # shortcut, such as settling a trial from its column extremes, must agree
    # with it, also where one step's bracket end lies within a few floats of
    # I_lo or I_hi
    cfg = _ENDPOINT_CASES[name]
    drift = escape._affine_drift(cfg)
    c, inner_lo, inner_hi = drift[2], *drift[4:]
    rng = np.random.default_rng(5)
    steps, trials = 6, 600
    spread = inner_hi - inner_lo
    x = rng.uniform(inner_lo + 0.3 * spread, inner_hi - 0.3 * spread, (steps, trials)) - c
    half = spread * 10.0 ** rng.uniform(-14, -2, trials)
    half[::9] = 0.0
    cols = np.arange(trials)
    end = np.where(rng.random(trials) < 0.5, inner_lo + half, inner_hi - half)
    x[rng.integers(0, steps, trials), cols] = (
        end + rng.integers(-3, 4, trials) * np.spacing(end)) - c
    x[:, 7] = np.nan
    xc = x + c
    monkeypatch.setattr(escape, "_chunk_bracket", lambda *args: (xc - half, xc + half))
    state = (np.zeros(trials), np.zeros(trials))
    _, ends = escape._scan_chunk(drift, cfg, state, np.zeros((trials, steps, 1)))
    assert np.array_equal(ends, escape._chunk_outcome(inner_lo, inner_hi, xc - half, xc + half))
    assert {-1, 0}.issubset(set(ends.tolist())) and ends.max() > 0


@pytest.mark.parametrize("name", ["fig3_a500", "sweep_eps0.01"])
def test_scan_chunk_does_not_depend_on_its_slices(monkeypatch, name):
    # one-row slices, the default and one slice per chunk give bit-identical
    # exit steps, offsets and bounds over a 256- and a 192-step chunk; 257
    # trials leave a one-row last slice under the default for L = 256
    cfg = {"fig3_a500": escape.double_well_config(500.0, 1.58e-4, trials=257, base_seed=31,
                                                  gamma=2.0),
           "sweep_eps0.01": interval_cfg(eps=0.01, trials=257, seed=31)}[name]
    drift = escape._affine_drift(cfg)
    opt = cfg.optimizer
    noise = dynamics.SasStream(opt.alpha, 1, cfg.base_seed + np.arange(cfg.trials)).draw(448)
    y0 = cfg.theta0[0] - drift[2]
    results = []
    for values in (1, escape._SCAN_SLICE, 256 * cfg.trials):
        monkeypatch.setattr(escape, "_SCAN_SLICE", values)
        state = (np.full(cfg.trials, y0), np.full(cfg.trials, escape._U * abs(y0)))
        state, first = escape._scan_chunk(drift, cfg, state, noise[:, :256])
        (y, dev), second = escape._scan_chunk(drift, cfg, state, noise[first == 0, 256:])
        results.append([a.tobytes() for a in (first, second, y, dev)])
        assert np.unique(y).size > cfg.trials // 2 and (dev > 0).all()
    assert results[0] == results[1] == results[2]


_POOLED_SCAN_CASES = {
    **{f"fig3_a{a:g}": escape.double_well_config(a, 1.58e-4, trials=600, base_seed=31, gamma=2.0)
       for a in (100000.0, 500.0, 150.0)},
    "sweep_eps0.01": interval_cfg(eps=0.01, trials=600, seed=31),
}


def _two_scan_chunks(cfg):
    """Bytes of ends, offsets and bounds over a 248- and a 208-step chunk,
    each of several slices of trials at 600 trials."""
    drift = escape._affine_drift(cfg)
    seeds = cfg.base_seed + np.arange(cfg.trials)
    noise = dynamics.SasStream(cfg.optimizer.alpha, 1, seeds).draw(456)
    y0 = cfg.theta0[0] - drift[2]
    state = (np.full(cfg.trials, y0), np.full(cfg.trials, escape._U * abs(y0)))
    state, first = escape._scan_chunk(drift, cfg, state, noise[:, :248])
    (y, dev), second = escape._scan_chunk(drift, cfg, state, noise[first == 0, 248:])
    return [a.tobytes() for a in (first, second, y, dev)]


@pytest.mark.parametrize("name", list(_POOLED_SCAN_CASES))
def test_pooled_scan_chunk_equals_the_serial_one(monkeypatch, name):
    # no workers, the default pool, and four workers switching every microsecond
    cfg = _POOLED_SCAN_CASES[name]
    with monkeypatch.context() as m:
        m.setattr(stable, "_pool", (None, 0))
        serial = _two_scan_chunks(cfg)
    assert _two_scan_chunks(cfg) == serial
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(4) as executor:
        monkeypatch.setattr(stable, "_pool", (executor, 4))
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert _two_scan_chunks(cfg) == serial
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_pooled_scan_chunk_raises_a_slice_error_once_its_slices_end(monkeypatch, failing):
    # one worker: the failing thread's first slice raises once the worker has
    # started a slice, and every other slice sleeps; the error reaches the
    # caller, and only after every started slice has returned
    cfg = _POOLED_SCAN_CASES["sweep_eps0.01"]
    caller, in_worker, running, failed = threading.get_ident(), threading.Event(), [], []
    bracket = escape._chunk_bracket

    def slow_or_failing(*args):
        running.append(None)
        try:
            on_caller = threading.get_ident() == caller
            if not on_caller:
                in_worker.set()
            if on_caller == (failing == "caller") and not failed:
                failed.append(None)
                assert in_worker.wait(30)
                raise RuntimeError("slice failed")
            time.sleep(0.05)
            return bracket(*args)
        finally:
            running.pop()

    monkeypatch.setattr(escape, "_chunk_bracket", slow_or_failing)
    with ThreadPoolExecutor(1) as executor:
        monkeypatch.setattr(stable, "_pool", (executor, 1))
        with pytest.raises(RuntimeError, match="slice failed"):
            _two_scan_chunks(cfg)
        assert running == []


def test_sweep_bound_stays_certain_over_a_long_run(monkeypatch):
    # the carried bound no longer decays with rho^L; on the sweep's smallest
    # amplitude no trial is left undecided over 60000 steps
    cfg = interval_cfg(eps=0.01, trials=200, max_steps=60000, seed=2024)
    assert escape._affine_drift(cfg) is not None
    rerun = []
    generic = escape._run_generic

    def recording(cfg, trial_ids):
        rerun.append(trial_ids.copy())
        return generic(cfg, trial_ids)

    monkeypatch.setattr(escape, "_run_generic", recording)
    stats = escape.run_escape_experiment(cfg)
    assert rerun == []
    assert stats.exit_steps.max() > 15000  # the bound was carried over 60 chunks and more


def test_small_noise_compare_exit_steps_are_frozen():
    # the compare basin at eps = 0.02, where most rows of each step stay
    # well inside: digests recorded while a q screen settled those rows
    # before the ray gap, so the exit rule keeps every small-noise exit step
    stats = [escape.run_escape_experiment(_compare_basin_cfg(kind, 0.02, 2000, 300, 8))
             for kind in ("SGD", "ADAM")]
    assert [_digest(s.exit_steps) for s in stats] == ["aec1b2c189509c4b", "0f14a26c90813b06"]
    assert min(s.n_exited for s in stats) > 0


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
