import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyescape import dynamics, landscapes, stable
from levyescape.dynamics import OptimizerConfig, SdeState
from levyescape.stable import ParameterError, sas_from_uniforms

from oracles import flow_states, momentum_flow_series


def quad(mu=1.0, d=1, height=10.0):
    return landscapes.QuadraticBasin(H=mu * np.eye(d), center=np.zeros(d),
                                     height=height)


class PlainQuadratic(landscapes.Landscape):
    """F = 1/2 theta^2 without the basin metadata, to exercise the generic path."""

    def __init__(self):
        self.dim = 1
        self.mu = 1.0
        self.ell = 1.0

    def value(self, theta):
        out = 0.5 * np.sum(np.asarray(theta) ** 2, axis=-1)
        return float(out) if out.ndim == 0 else out

    def gradient(self, theta):
        return np.asarray(theta, dtype=float)

    def minimizer(self):
        return np.zeros(1)


def noisy_path(state, land, cfg, n_steps, seed):
    """States of ``n_steps`` levy_steps driven by one seeded SasStream, as a trial steps."""
    stream = dynamics.SasStream(cfg.alpha, state.theta.size, seed)
    scale = cfg.increment_scale(cfg.step_h)
    path = [state]
    for _ in range(n_steps):
        path.append(dynamics.levy_step(path[-1], land, cfg, scale * stream.draw(1)[0]))
    return path


def test_sgd_step_zero_noise():
    land = landscapes.QuadraticBasin(H=np.array([[2.0]]), center=np.zeros(1),
                                     height=10.0)  # F = theta^2
    cfg = OptimizerConfig(kind="SGD", step_h=0.1, noise_scale=0.0)
    s1 = dynamics.levy_step(SdeState(theta=np.array([1.0])), land, cfg, np.zeros(1))
    assert s1.theta[0] == pytest.approx(0.8)
    assert s1.t == pytest.approx(0.1)


def test_bias_corrections_limit():
    cfg = OptimizerConfig(kind="ADAM", beta1=0.9, beta2=0.99, noise_scale=0.0)
    mu_t, omega_t = dynamics._bias_corrections(cfg, 1e6)
    assert mu_t == pytest.approx(1.0)
    assert omega_t == pytest.approx(1.0)


def test_adam_step_hand_evaluated():
    # F = 1/2 theta^2, theta=1, m=1, v=1, large t so mu = omega = 1
    land = quad(mu=1.0)
    cfg = OptimizerConfig(kind="ADAM", step_h=0.1, beta1=0.9, beta2=0.99,
                          eps_adam=1e-8, noise_scale=0.0)
    s0 = SdeState(theta=np.array([1.0]), m=np.array([1.0]), v=np.array([1.0]),
                  t=1e6)
    s1 = dynamics.levy_step(s0, land, cfg, np.zeros(1))
    assert s1.theta[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), rel=1e-9)
    assert s1.m[0] == pytest.approx(1.0)  # m' = 1 + 0.1*0.9*(1 - 1)
    assert s1.v[0] == pytest.approx(1.0)


def test_zero_noise_trajectory_monotone_value():
    land = quad(mu=2.0)
    cfg = OptimizerConfig(kind="SGD", step_h=0.05, noise_scale=0.0)
    traj = noisy_path(SdeState(theta=np.array([0.9])), land, cfg, 40, seed=0)
    vals = [land.value(s.theta) for s in traj]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class CountingQuadratic(PlainQuadratic):
    """F = 1/2 theta^2 that counts gradient calls and turns NaN from call ``nan_from``."""

    def __init__(self, nan_from=None):
        super().__init__()
        self.calls = 0
        self.nan_from = nan_from

    def gradient(self, theta):
        self.calls += 1
        if self.nan_from is not None and self.calls >= self.nan_from:
            return np.full_like(np.asarray(theta, dtype=float), np.nan)
        return super().gradient(theta)


def test_diverged_error_carries_state():
    # a NaN on the first gradient, or on the second drift substep's gradient
    for nan_from, substeps in ((1, 1), (2, 2)):
        cfg = OptimizerConfig(kind="SGD", step_h=0.1, noise_scale=0.0,
                              drift_substeps=substeps)
        state = SdeState(theta=np.array([1.0]))
        with pytest.raises(dynamics.DivergedError) as err:
            dynamics.levy_step(state, CountingQuadratic(nan_from), cfg, np.zeros(1))
        assert err.value.last_state is state


def test_flow_diverged_error_carries_last_row():
    # gradient call k is row k - 1's, so a NaN from it stops the flow there
    for kind in ("ADAM", "SGD"):
        cfg = OptimizerConfig(kind=kind, step_h=0.1, beta1=0.9, beta2=0.99, noise_scale=0.0)
        state0 = SdeState.initial(np.array([1.0]), kind)
        land = CountingQuadratic()
        traj, _ = dynamics.deterministic_flow(state0, land, cfg, 1.0)
        for k in (1, 5, land.calls):
            with pytest.raises(dynamics.DivergedError) as err:
                dynamics.deterministic_flow(state0, CountingQuadratic(nan_from=k), cfg, 1.0)
            for got, col in zip(err.value.last_state, traj):
                if col is None:
                    assert got is None, (kind, k)
                else:
                    np.testing.assert_array_equal(got, col[k - 1])


def test_sgd_step_gradient_count():
    # the first drift substep reuses the gradient levy_step already checked
    for substeps in (1, 20):
        land = CountingQuadratic()
        cfg = OptimizerConfig(kind="SGD", step_h=0.1, noise_scale=0.0,
                              drift_substeps=substeps)
        dynamics.levy_step(SdeState(theta=np.array([1.0])), land, cfg, np.zeros(1))
        assert land.calls == substeps


def test_sgd_flow_checks_every_gradient():
    # off quadratics the SGD flow steps through levy_step, which raises on a
    # non-finite gradient
    cfg = OptimizerConfig(kind="SGD", step_h=0.1, noise_scale=0.0)
    with pytest.raises(dynamics.DivergedError):
        dynamics.deterministic_flow(SdeState(theta=np.array([1.0])),
                                    CountingQuadratic(nan_from=5), cfg, 1.0)


def test_sgd_flow_takes_drift_substeps():
    for substeps in (1, 4):
        land = CountingQuadratic()
        cfg = OptimizerConfig(kind="SGD", step_h=0.1, noise_scale=0.0,
                              drift_substeps=substeps)
        traj, _ = dynamics.deterministic_flow(SdeState(theta=np.array([1.0])), land, cfg, 1.0)
        assert land.calls == 10 * substeps
        assert traj.theta[-1, 0] == pytest.approx((1 - 0.1 / substeps) ** (10 * substeps))


def test_sgd_flow_rate_band():
    for mu in (0.5, 2.0):
        land = quad(mu=mu)
        cfg = OptimizerConfig(kind="SGD", step_h=1e-3, noise_scale=0.0)
        _, rep = dynamics.deterministic_flow(SdeState(theta=np.array([1.0])),
                                             land, cfg, 2.0)
        assert 0.95 * 2 * mu <= rep.observed_rate <= 1.0 * 2 * mu
        assert rep.predicted_rate == pytest.approx(2 * mu)


def test_sgd_quadratic_flow_steps_with_drift_scale():
    # the implicit step solves (1 + h drift_scale mu) theta' = theta, as
    # levy_step steps h drift_scale
    mu, h, scale = 2.0, 1e-3, 0.5
    cfg = OptimizerConfig(kind="SGD", step_h=h, noise_scale=0.0, drift_scale=scale)
    traj, rep = dynamics.deterministic_flow(SdeState(theta=np.array([1.0])),
                                            quad(mu=mu), cfg, 2.0)
    assert traj.theta[1, 0] == pytest.approx(1.0 / (1.0 + h * scale * mu), rel=1e-15)
    assert 0.95 * 2 * mu * scale <= rep.observed_rate <= 2 * mu * scale
    assert rep.predicted_rate == 2 * mu * scale


def test_sgd_flow_generic_landscape_path():
    cfg = OptimizerConfig(kind="SGD", step_h=1e-3, noise_scale=0.0)
    _, rep = dynamics.deterministic_flow(SdeState(theta=np.array([1.0])),
                                         PlainQuadratic(), cfg, 2.0)
    assert rep.observed_rate == pytest.approx(2.0, rel=0.01)


def test_flow_from_minimizer_reports_not_applicable():
    cfg = OptimizerConfig(kind="SGD", step_h=1e-3, noise_scale=0.0)
    _, rep = dynamics.deterministic_flow(SdeState(theta=np.zeros(1)), quad(),
                                         cfg, 0.5)
    assert rep.observed_rate is None
    with pytest.raises(Exception):
        dynamics.deterministic_flow(SdeState(theta=np.zeros(1)), quad(), cfg, -1.0)


def test_adam_flow_lyapunov_monotone():
    # adaptive Adam, Adam with a frozen preconditioner, and SGD-M (Q = I)
    land = quad(mu=2.0)
    for kind, q_fixed in (("ADAM", None), ("ADAM", [1.5]), ("SGDM", None)):
        cfg = OptimizerConfig(kind=kind, step_h=1e-3, beta1=0.9, beta2=0.99,
                              noise_scale=0.0, q_fixed=q_fixed)
        state0 = SdeState.initial(np.array([1.0]), kind)
        _, rep = dynamics.deterministic_flow(state0, land, cfg, 5.0)
        L = rep.lyapunov_series[:, 1]
        assert np.all(np.diff(L) <= 1e-12), (kind, q_fixed)
        assert rep.predicted_rate > 0


def test_momentum_flow_one_gradient_per_state():
    # each state's gradient steps the flow and also gives its L, rho and tau
    for kind in ("ADAM", "SGDM"):
        land = CountingQuadratic()
        cfg = OptimizerConfig(kind=kind, step_h=0.1, beta1=0.9, beta2=0.99, noise_scale=0.0)
        dynamics.deterministic_flow(SdeState.initial(np.array([1.0]), kind), land, cfg, 1.0)
        assert land.calls == 11, kind


def test_flow_terms_match_per_state_oracle():
    # the array pass over the trajectory rounds as each state's own numpy calls
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    dense = landscapes.QuadraticBasin(H=a @ a.T + 0.5 * np.eye(3),
                                      center=np.array([0.3, -1.0, 2.0]), height=10.0)
    cases = [(quad(mu=2.0), "ADAM", None, [1.0]), (quad(mu=0.5), "SGDM", None, [-2.0]),
             (PlainQuadratic(), "ADAM", None, [1.5]), (PlainQuadratic(), "SGDM", None, [1.5])]
    cases += [(dense, kind, q_fixed, [1.0, 0.5, 1.5])
              for kind, q_fixed in (("ADAM", None), ("ADAM", [1.5, 0.5, 2.0]), ("SGDM", None))]
    for land, kind, q_fixed, theta0 in cases:
        cfg = OptimizerConfig(kind=kind, step_h=1e-2, beta1=0.9, beta2=0.99, noise_scale=0.0,
                              q_fixed=q_fixed)
        traj, rep = dynamics.deterministic_flow(SdeState.initial(np.array(theta0), kind),
                                                land, cfg, 3.0)
        series, monitors, tau, v_max = momentum_flow_series(flow_states(traj), land, cfg)
        np.testing.assert_array_equal(rep.lyapunov_series, series)
        np.testing.assert_array_equal(rep.monitor_series, monitors)
        assert (rep.tau, rep.v_max) == (tau, v_max), (kind, q_fixed)


def stepwise_monitors(traj, land, cfg):
    """(t, rho, tau) rows after the first state, accumulated one state at a time."""
    f_star = land.value(land.minimizer())
    rows, integral, prev = [], 0.0, 0.0
    for state in traj[1:]:
        mu_t, omega_t = dynamics._bias_corrections(cfg, state.t)
        g = land.gradient(state.theta)
        f = land.value(state.theta) - f_star
        q = cfg.preconditioner(state.v, omega_t)
        integrand = float((g / (1.0 + f)) @ (mu_t * state.m / q))
        integral += 0.5 * (prev + integrand) * cfg.step_h
        prev = integrand
        g_norm = float(np.linalg.norm(g))
        tau = float(np.linalg.norm(state.m)) / g_norm if g_norm > 1e-12 else math.nan
        rows.append((state.t, (10.0 / state.t) * integral, tau))
    return np.array(rows)


def test_flow_monitor_series_matches_stepwise_reference():
    land = landscapes.QuadraticBasin(H=np.diag([2.0, 0.5]), center=np.zeros(2), height=10.0)
    for kind, q_fixed in (("ADAM", None), ("ADAM", [1.5, 0.5]), ("SGDM", None)):
        cfg = OptimizerConfig(kind=kind, step_h=1e-2, beta1=0.9, beta2=0.99,
                              noise_scale=0.0, q_fixed=q_fixed)
        traj, rep = dynamics.deterministic_flow(
            SdeState.initial(np.array([1.0, -0.5]), kind), land, cfg, 0.5)
        assert rep.monitor_series.shape == (50, 3)
        np.testing.assert_array_equal(rep.monitor_series,
                                      stepwise_monitors(flow_states(traj), land, cfg))
    sgd = OptimizerConfig(kind="SGD", step_h=1e-2, noise_scale=0.0)
    _, rep = dynamics.deterministic_flow(SdeState(theta=np.array([1.0, -0.5])), land, sgd, 0.5)
    assert rep.monitor_series is None


def test_step_size_consistency():
    land = quad(mu=1.0)
    theta0 = np.array([1.0])
    ends = {}
    for h in (0.01, 0.005):
        cfg = OptimizerConfig(kind="SGD", step_h=h, noise_scale=0.0)
        traj = noisy_path(SdeState(theta=theta0), land, cfg, round(1.0 / h), seed=0)
        ends[h] = traj[-1].theta[0]
    assert abs(ends[0.01] - ends[0.005]) < 5 * 0.01 * 1.0


def test_gaussian_reduction_at_alpha_2():
    # at alpha = 2 the per-step noise is h^(1/2) * SaS(1) = N(0, 2h): exit
    # times on an interval match a Brownian-driven reference within MC error
    land = quad(mu=1.0)
    h, eps, n, horizon = 0.05, 0.45, 400, 4000
    cfg = OptimizerConfig(kind="SGD", alpha=2.0, step_h=h, noise_scale=eps)
    scale = cfg.increment_scale(h)
    exits_levy, exits_bm = [], []
    for trial in range(n):
        stream = dynamics.SasStream(2.0, 1, 1000 + trial)
        x = 0.0
        for k in range(horizon):
            x = x - h * x + eps * scale * stream.draw(1)[0][0]
            if abs(x) >= 1.0:
                exits_levy.append(k + 1)
                break
        rng = np.random.default_rng(5000 + trial)
        x = 0.0
        for k in range(horizon):
            x = x - h * x + eps * math.sqrt(2.0 * h) * rng.standard_normal()
            if abs(x) >= 1.0:
                exits_bm.append(k + 1)
                break
    assert len(exits_levy) > 300 and len(exits_bm) > 300
    m1, m2 = np.mean(exits_levy), np.mean(exits_bm)
    assert abs(m1 - m2) / m2 < 0.25


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_v_nonnegative_preserved(seed):
    # step_h * beta2 > 1, so the Euler step of v overshoots below zero unclamped
    land = quad(mu=1.0)
    cfg = OptimizerConfig(kind="ADAM", step_h=1.5, beta1=0.9, beta2=0.99,
                          alpha=1.5, noise_scale=0.1)
    traj = noisy_path(SdeState.initial(np.array([1.0]), "ADAM"), land, cfg, 50, seed)
    assert all(np.all(s.v >= 0) for s in traj)


def test_seed_determinism():
    land = quad(mu=1.0)
    cfg = OptimizerConfig(kind="SGD", step_h=0.05, alpha=1.5, noise_scale=0.1)
    runs = []
    for _ in range(2):
        traj = noisy_path(SdeState(theta=np.array([0.2])), land, cfg, 100, seed=99)
        runs.append(np.array([s.theta[0] for s in traj]))
    assert np.array_equal(runs[0], runs[1])


def test_stream_chunking_invariance():
    a = dynamics.SasStream(1.5, 2, 7)
    b = dynamics.SasStream(1.5, 2, 7)
    one = np.concatenate([a.draw(1) for _ in range(700)])
    bulk = b.draw(700)
    assert np.array_equal(one, bulk)


def oracle_rows(alpha, d, seed, n):
    """The first n rows of one seed's stream, one 512-row block at a time."""
    rng = np.random.default_rng(seed)
    blocks = [sas_from_uniforms(alpha, rng.random((512, d)), rng.random((512, d)))
              for _ in range(-(-n // 512))]
    return np.concatenate(blocks)[:n]


def test_frozen_stream_values():
    # digests recorded before the streams drew lazily; a seed array's digest
    # is that of its per-seed streams stacked
    seeds = {"int": 7, "array": np.array([3, 11, 12])}
    got = {}
    for kind, seed in seeds.items():
        for d in (1, 2, 3):
            for alpha in (1.0, 1.5, 2.0):
                h = hashlib.sha256()
                for pattern in ([1] * 700, [8, 248, 256], [700], [513]):
                    stream = dynamics.SasStream(alpha, d, seed)
                    rows = np.concatenate([stream.draw(n) for n in pattern], axis=-2)
                    n = sum(pattern)
                    oracle = np.stack([oracle_rows(alpha, d, s, n) for s in np.atleast_1d(seed)])
                    assert np.array_equal(rows, oracle if kind == "array" else oracle[0])
                    h.update(np.ascontiguousarray(rows).tobytes())
                got[(kind, d, alpha)] = h.hexdigest()[:16]
    assert got == {
        ("int", 1, 1.0): "3912881fd2ccf105",
        ("int", 1, 1.5): "2815d3d94d6fe28b",
        ("int", 1, 2.0): "2c9ffd347c448684",
        ("int", 2, 1.0): "0dfa7c13f6a5f0d3",
        ("int", 2, 1.5): "c8f8ecafd301fbb3",
        ("int", 2, 2.0): "aee7e6575c657110",
        ("int", 3, 1.0): "60f16967f17a7fab",
        ("int", 3, 1.5): "f46a6a102c7f58a1",
        ("int", 3, 2.0): "1a7cd5ba7a9cd7f6",
        ("array", 1, 1.0): "c2d22bd38ab1b00e",
        ("array", 1, 1.5): "8da87047a67318c3",
        ("array", 1, 2.0): "6fbb4c2f361b63a2",
        ("array", 2, 1.0): "b96884d451839c25",
        ("array", 2, 1.5): "4360be3688ba78ae",
        ("array", 2, 2.0): "02c87443c4db9674",
        ("array", 3, 1.0): "ce91be12c372bbe1",
        ("array", 3, 1.5): "2aeb6c255f3ede4e",
        ("array", 3, 2.0): "b2cb5f5f0b24b3f5",
    }


@given(st.integers(0, 2 ** 63 - 1))
@example(0)
@example(2 ** 32 - 1)
@example(2 ** 32)
@example(2 ** 63 - 1)
@settings(max_examples=200, deadline=None)
def test_seed_words_match_seed_sequence(seed):
    words = dynamics._seed_words(np.array([seed], dtype=np.uint64))[0]
    assert np.array_equal(words, np.random.SeedSequence(seed).generate_state(4, np.uint64))


@pytest.mark.parametrize("seeds", [2 ** 32 - 3 + np.arange(6), 2 ** 63 - 1 - np.arange(3)])
def test_stream_rows_for_wide_seeds(seeds):
    # the frozen digests use seeds below 2**32 only, one entropy word each;
    # these cross into two-word seeds and reach the top of the seed range
    rows = dynamics.SasStream(1.5, 2, seeds).draw(600)
    assert np.array_equal(rows, np.stack([oracle_rows(1.5, 2, int(s), 600) for s in seeds]))


@pytest.mark.parametrize("seed", [-1, 2 ** 63, np.array([0, -1]),
                                  np.array([2 ** 63], dtype=np.uint64), 1.0, np.array([[1, 2]])])
def test_stream_rejects_bad_seeds(seed):
    with pytest.raises(ParameterError):
        dynamics.SasStream(1.5, 1, seed)


def test_stream_seeds_ensemble_in_one_pass(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-trial seeding")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    rows = dynamics.SasStream(1.5, 1, np.arange(1000)).draw(600)
    assert rows.shape == (1000, 600, 1) and np.all(np.isfinite(rows))


@given(st.integers(0, 2 ** 63 - 1), st.integers(1, 3))
@example(0, 1)
@example(2 ** 32 - 1, 2)
@example(2 ** 32, 3)
@example(2 ** 63 - 1, 2)
@settings(max_examples=100, deadline=None)
def test_stepper_matches_numpy_pcg64(seed, d):
    # the angle cursor at output 0 and the exponential cursor BLOCK * d ahead
    angle = np.random.Generator(np.random.PCG64(seed))
    exp = np.random.Generator(np.random.PCG64(seed))
    exp.bit_generator.advance(dynamics.SasStream.BLOCK * d)
    stream = dynamics.SasStream(1.5, d, seed)
    assert stream.draw(0).shape == (0, d)
    rows = dynamics.SasStream._STEPPED // d
    for n in (1, rows - 1):
        u_angle, u_exp = stream._stepped_uniforms(n)
        assert np.array_equal(u_angle[0], angle.random((n, d)))
        assert np.array_equal(u_exp[0], exp.random((n, d)))
    # words that seed a generator to each cursor, as its next draw shows
    cursors, inc = tuple(stream._cursors), tuple(stream._inc)
    for words, rng in zip(dynamics._pcg_words_for(cursors, inc), (angle, exp)):
        state = np.random.PCG64(dynamics._state_words_type()(words[0])).state["state"]
        assert state == rng.bit_generator.state["state"]


def test_stream_steps_first_chunk_without_generators(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-trial generator")

    monkeypatch.setattr(np.random, "Generator", refuse)
    monkeypatch.setattr(np.random, "PCG64", refuse)
    seeds = np.arange(1000)
    stream = dynamics.SasStream(1.5, 2, seeds)
    first = stream.draw(8)
    keep = seeds % 16 == 0  # the trials that outlive the first chunk
    second = stream.take(keep).draw(dynamics.SasStream._STEPPED // 2 - 8)
    monkeypatch.undo()
    oracle = np.stack([oracle_rows(1.5, 2, int(s), dynamics.SasStream._STEPPED // 2)
                       for s in seeds])
    assert np.array_equal(first, oracle[:, :8])
    assert np.array_equal(second, oracle[keep, 8:])


_SMALL = dynamics.SasStream._STEPPED // 4  # rows of a stepped draw at d = 2


@given(st.integers(1, 3),
       st.lists(st.tuples(st.integers(0, 300), st.lists(st.booleans(), min_size=4, max_size=4)),
                min_size=1, max_size=6))
@example(2, [(_SMALL, [True, False, True, True]), (_SMALL, [True, True, False, True]),
             (300, [True, True]), (2, [False, True])])
@example(1, [(3, [True, True, True, True]), (600, [True, False, True, False]),
             (1, [True, True])])
@settings(max_examples=40, deadline=None)
def test_batched_stream_matches_trial_streams(d, requests):
    seeds = np.array([5, 6, 1000, 2 ** 31])
    batched = dynamics.SasStream(1.5, d, seeds)
    singles = [dynamics.SasStream(1.5, d, int(s)) for s in seeds]
    alive = np.arange(seeds.size)
    for n, mask in requests:
        expected = np.array([singles[i].draw(n) for i in alive]).reshape(alive.size, n, d)
        assert np.array_equal(batched.draw(n), expected)
        keep = np.array(mask[:alive.size], dtype=bool)
        batched, alive = batched.take(keep), alive[keep]


@pytest.mark.parametrize("d, pattern", [(1, [8, 256, 248, 256]), (2, [8, 600, 300])],
                         ids=["slices_to_a_block_end", "straddles_a_block"])
def test_pipelined_draws_match_trial_streams(monkeypatch, d, pattern):
    # each draw past the first fills and transforms several slices of trials,
    # on four workers switching every microsecond; at d = 1 the third draw
    # ends on a block's last row, at d = 2 the 600-row draw crosses it.  Half
    # of the trials are taken after the second draw and continue their streams
    seeds = 40 + np.arange(300)
    oracle = np.stack([oracle_rows(1.5, d, int(s), sum(pattern)) for s in seeds])
    keep = seeds % 2 == 0
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(4) as executor:
        monkeypatch.setattr(stable, "_pool", (executor, 4))
        sys.setswitchinterval(1e-6)
        try:
            stream, done = dynamics.SasStream(1.5, d, seeds), 0
            for k, n in enumerate(pattern):
                rows = oracle[:, done:done + n]
                assert np.array_equal(stream.draw(n), rows[keep] if k > 1 else rows)
                if k == 1:
                    stream = stream.take(keep)
                done += n
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("trials, pooled", [(128, False), (129, True)])
def test_one_slice_draw_asks_for_no_pool(monkeypatch, trials, pooled):
    # 128 trials of 256 rows are one slice of 32768 values, 129 are two
    asked = []
    monkeypatch.setattr(stable, "_slice_pool", lambda: asked.append(1) or (None, 0))
    stream = dynamics.SasStream(1.5, 1, np.arange(trials))
    stream.draw(8)
    rows = stream.draw(256)
    assert bool(asked) == pooled
    oracle = np.stack([oracle_rows(1.5, 1, s, 264)[8:] for s in range(trials)])
    assert np.array_equal(rows, oracle)


_MEMO_SEEDS = np.array([5, 6, 1000, 2 ** 31])


def test_start_memo_serves_a_second_stream(monkeypatch):
    # a fresh stream with the same key returns the first stream's rows, then
    # continues from its cursors: stepped, past the stepped outputs, and
    # across a 512-row block
    first = dynamics.SasStream(1.5, 2, _MEMO_SEEDS).draw(8)

    def refuse(*args):
        raise AssertionError("the shared start was seeded or transformed again")

    with monkeypatch.context() as m:
        m.setattr(dynamics, "_seed_words", refuse)
        m.setattr(dynamics, "sas_from_uniforms", refuse)
        stream = dynamics.SasStream(1.5, 2, _MEMO_SEEDS)
        assert stream.draw(8) is first
    rest = [stream.draw(4), stream.draw(596)]
    oracle = np.stack([oracle_rows(1.5, 2, int(s), 608) for s in _MEMO_SEEDS])
    assert np.array_equal(np.concatenate([first, *rest], axis=1), oracle)
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0, 0] = 0.0


@pytest.mark.parametrize("alpha, d, seeds, n, taken", [
    (1.5, 2, _MEMO_SEEDS, 8, True),
    (1.5, 2, _MEMO_SEEDS, 4, False),
    (1.2, 2, _MEMO_SEEDS, 8, False),
    (1.5, 1, _MEMO_SEEDS, 8, False),
    (1.5, 2, _MEMO_SEEDS + 1, 8, False),
    (1.5, 2, _MEMO_SEEDS[:3], 8, False),
], ids=["take_first", "n", "alpha", "dim", "seeds", "fewer_seeds"])
def test_start_memo_misses_on_another_key(monkeypatch, alpha, d, seeds, n, taken):
    dynamics.SasStream(1.5, 2, _MEMO_SEEDS).draw(8)
    counted = []

    def counting(alpha, u_angle, u_exp, out=None, parts=None):
        counted.append(np.size(u_angle))
        return sas_from_uniforms(alpha, u_angle, u_exp, out=out, parts=parts)

    monkeypatch.setattr(dynamics, "sas_from_uniforms", counting)
    stream = dynamics.SasStream(alpha, d, seeds)
    if taken:
        stream = stream.take(np.ones(seeds.size, dtype=bool))
    rows = stream.draw(n)
    assert sum(counted) == seeds.size * n * d
    assert np.array_equal(rows, np.stack([oracle_rows(alpha, d, int(s), n) for s in seeds]))


@pytest.mark.parametrize("memo_hit", [True, False], ids=["memo_hit", "memo_miss"])
def test_one_trial_stream_reads_its_one_seed_batch(monkeypatch, memo_hit):
    # an int seed draws the rows of the one-seed array [seed]: its first draw
    # from the start memo on a hit, then stepped up to 32 outputs per cursor
    # (16 rows at d = 2) and from generators past them
    batch = dynamics.SasStream(1.5, 2, np.array([5 if memo_hit else 6])).draw(8)
    stream = dynamics.SasStream(1.5, 2, 5)

    def refuse(*args, **kwargs):
        raise AssertionError("per-trial generator within the stepped outputs")

    with monkeypatch.context() as m:
        m.setattr(np.random, "Generator", refuse)
        rows = [stream.draw(n) for n in (8, 7, 1)]
    rows.append(stream.draw(600))
    assert np.shares_memory(rows[0], batch) == memo_hit
    assert [r.shape for r in rows] == [(8, 2), (7, 2), (1, 2), (600, 2)]
    assert np.array_equal(np.concatenate(rows), oracle_rows(1.5, 2, 5, 616))
    assert not rows[0].flags.writeable


@pytest.mark.parametrize("trials, kept", [(4096, True), (4097, False)])
def test_start_memo_keeps_no_first_draw_above_a_mebibyte(trials, kept):
    # 32 stepped values of 8 bytes per trial: 4096 trials fill 1 MiB exactly
    rows = dynamics.SasStream(1.5, 1, np.arange(trials)).draw(32)
    memo = dynamics._start_memo
    assert (memo is not None and memo[2] is rows) == kept
    assert rows.flags.writeable != kept


def test_discrete_reference_steps():
    cfg = OptimizerConfig(kind="SGD", eta=0.1)
    s = dynamics.discrete_reference_step(SdeState(theta=np.zeros(2)),
                                         np.array([1.0, -1.0]), cfg)
    assert np.allclose(s.theta, [-0.1, 0.1])

    cfg = OptimizerConfig(kind="ADAM", eta=0.1, beta1=0.9, beta2=0.999,
                          eps_adam=1e-8)
    s0 = SdeState.initial(np.zeros(2), "ADAM")
    c = np.array([2.0, -3.0])
    s1 = dynamics.discrete_reference_step(s0, c, cfg)
    # step 1: bias-corrected m = c, v = c^2, so the move is -eta*sign(c)
    assert np.allclose(s1.theta, -0.1 * np.sign(c), rtol=1e-6)


def test_discrete_adam_ten_constant_steps():
    # oracle: hand-iterated recursion with constant gradient 1
    eta, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    m = v = 0.0
    x = 0.0
    for t in range(1, 11):
        m = b1 * m + (1 - b1) * 1.0
        v = b2 * v + (1 - b2) * 1.0
        x -= eta * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
    cfg = OptimizerConfig(kind="ADAM", eta=eta, beta1=b1, beta2=b2, eps_adam=eps)
    s = SdeState.initial(np.array([0.0]), "ADAM")
    for _ in range(10):
        s = dynamics.discrete_reference_step(s, np.array([1.0]), cfg)
    assert s.theta[0] == pytest.approx(x, rel=1e-12)
    assert s.theta[0] == pytest.approx(-10 * eta, rel=1e-3)


def test_config_validation():
    with pytest.raises(Exception):
        OptimizerConfig(kind="RMSPROP")
    with pytest.raises(Exception):
        OptimizerConfig(alpha=2.5)
    with pytest.raises(Exception):
        OptimizerConfig(alpha=1.0)  # needs explicit noise_scale
    cfg = OptimizerConfig(alpha=1.0, noise_scale=0.05)
    assert cfg.eps_noise == 0.05
    cfg2 = OptimizerConfig(alpha=1.5, eta=1e-3)
    assert cfg2.eps_noise == pytest.approx(1e-3 ** (0.5 / 1.5))


@pytest.mark.parametrize("shape", [(3,), (5, 3), (4, 8, 3)], ids=["row", "batch", "chunk"])
def test_noise_term_is_amplitude_times_sigma_increment(shape):
    z = np.random.default_rng(2).standard_cauchy(shape)
    diag = np.array([3.0, 0.1, 1.5])
    dense = np.array([[1.0, 0.5, 0.0], [0.0, 2.0, -0.3], [0.1, 0.0, 0.7]])
    for sigma, sigma_z in ((None, z), (diag, z * diag), (dense, z @ dense.T)):
        cfg = OptimizerConfig(alpha=1.5, eta=0.02, sigma=sigma)
        assert np.array_equal(cfg.noise_term(z), cfg.eps_noise * sigma_z)
