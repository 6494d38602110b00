"""Layer microbenchmarks at fixed sizes, independent of the workload.

Each rate is the median over a few timed repetitions.  Inputs are drawn
before the clock starts, so only the named layer is timed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from levyescape import dynamics, escape, geometry, landscapes, probe, stable

from workloads import derive_seed


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def step_us(n, steps=400, reps=5):
    """Microseconds per ``levy_step`` of n SGD trials on the 1D quadratic basin."""
    land = landscapes.QuadraticBasin(H=np.array([[1.0]]), center=np.zeros(1), height=0.5)
    cfg = dynamics.OptimizerConfig(kind="SGD", eta=1e-3, alpha=1.5, step_h=0.2,
                                   noise_scale=0.01)
    noise = cfg.increment_scale(cfg.step_h) * stable.sample_sas(
        stable.StableLaw(1.5), steps * n, seed=n).reshape(steps, n, 1)

    def run():
        state = dynamics.SdeState(theta=np.zeros((n, 1)))
        for k in range(steps):
            state = dynamics.levy_step(state, land, cfg, noise[k])

    return 1e6 * _median_time(run, reps) / steps


def cms_draws_per_s(n=10 ** 6, reps=5):
    rng = np.random.default_rng(0)
    u_angle, u_exp = rng.random(n), rng.random(n)
    return n / _median_time(lambda: stable.sas_from_uniforms(1.5, u_angle, u_exp), reps)


def stream_draws_per_s(chunk=256, chunks=400, reps=5):
    """``SasStream.draw`` in chunks of 256 for one 1D trial, stream built untimed."""
    streams = [dynamics.SasStream(1.5, 1, seed) for seed in range(reps)]
    it = iter(streams)

    def run():
        stream = next(it)
        for _ in range(chunks):
            stream.draw(chunk)

    return chunk * chunks / _median_time(run, reps)


def radon_dirs_per_s(n_dirs=400_000, reps=3):
    w = geometry.QuadraticEscapeSet(A=np.diag([4.0, 1.0, 0.25]), c=1.0)
    return n_dirs / _median_time(lambda: geometry.radon_measure(w, 1.5, n_dirs=n_dirs, seed=9),
                                 reps)


def probe_grads_per_s(calls=50, reps=5):
    model = probe.MlpModel.random_init(seed=3)
    data = probe.SyntheticDataset.blobs(seed=4)

    def run():
        for _ in range(calls):
            probe.full_gradient(model, data)

    return calls / _median_time(run, reps)


def sweep_point(seed, alpha=1.5):
    """The scaling_alpha15 preset's eps = 0.01 point: 2000 trials, up to 60000 steps."""
    basin = landscapes.BasinSpec(region=landscapes.IntervalRegion(-1.0, 1.0), eps=0.01, gamma=2.0)
    land = landscapes.QuadraticBasin(H=np.array([[1.0]]), center=np.zeros(1), height=0.5)
    opt = dynamics.OptimizerConfig(kind="SGD", eta=1e-3, alpha=alpha, step_h=0.2,
                                   noise_scale=0.01)
    return escape.EscapeConfig(landscape=land, basin=basin, optimizer=opt, theta0=np.zeros(1),
                               trials=2000, max_steps=60000, base_seed=seed)


def threads2_speedup(seed):
    """(wall at threads=1 / wall at threads=2, same exit steps?) on the sweep point."""
    cfg = sweep_point(derive_seed(seed, 0))
    walls, steps = [], []
    for threads in (1, 2):
        t0 = time.perf_counter()
        steps.append(escape.run_escape_experiment(cfg, threads=threads).exit_steps)
        walls.append(time.perf_counter() - t0)
    return walls[0] / walls[1], bool(np.array_equal(*steps))


def run_all(seed):
    """Every microbenchmark metric, plus the checks they make."""
    speedup, same = threads2_speedup(seed)
    metrics = {
        "dynamics.step_us.n1": (step_us(1), "us"),
        "dynamics.step_us.n100": (step_us(100), "us"),
        "dynamics.step_us.n2000": (step_us(2000), "us"),
        "stable.cms_draws_per_s.bulk": (cms_draws_per_s(), "1/s"),
        "dynamics.stream_draws_per_s": (stream_draws_per_s(), "1/s"),
        "geometry.dirs_per_s.d3": (radon_dirs_per_s(), "1/s"),
        "probe.grads_per_s.full": (probe_grads_per_s(), "1/s"),
        "escape.threads2_speedup": (speedup, "ratio"),
    }
    return metrics, [("threads2_same_exit_steps", same)]
