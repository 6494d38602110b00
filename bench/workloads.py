"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload is an object with three methods:

* ``build(seed)`` makes the inputs of one pass from an integer seed;
* ``run(inputs)`` is the timed pass and returns the program's outputs;
* ``check(inputs, out)`` returns ``[(name, passed), ...]`` and runs outside
  the timed region.

``fig3``, ``sweep`` and ``compare`` run a checked-in preset through
``cli.main`` exactly as a user would, with the preset's seed replaced by one
derived from the benchmark seed.  The preset values are copied here, so a
later edit of ``presets/`` does not silently change the benchmark.
``analysis`` calls the public API with the inputs of acceptance criteria 1,
2, 3, 4, 7, 9 and 10 and checks them against the criteria's own tolerances.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pathlib
import sys

import numpy as np

from levyescape import cli, dynamics, escape, geometry, landscapes, probe, stable


def derive_seed(seed, k=0):
    """A 32-bit seed for pass ``k`` of a run at benchmark seed ``seed``.

    Hashing keeps runs at neighbouring benchmark seeds independent: the
    library seeds trial i with ``base_seed + i``, so consecutive base seeds
    would share almost every trial stream.
    """
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def trial_steps(max_steps, exit_steps):
    """Steps each trial ran: its exit step, or ``max_steps`` if censored."""
    return np.where(exit_steps > 0, exit_steps, max_steps)


@contextlib.contextmanager
def captured_ensembles():
    """Collect ``(EscapeConfig, EscapeStats)`` of every ensemble run inside the block.

    The CLI document carries only summaries; the checks and the trial-step
    counts need each trial's exit step.  The tap is one extra Python call per
    ensemble (3 to 4 per pass).
    """
    found = []
    inner = escape.run_escape_experiment

    def tap(cfg, threads=None):
        stats = inner(cfg, threads=threads)
        found.append((cfg, stats))
        return stats

    escape.run_escape_experiment = tap
    try:
        yield found
    finally:
        escape.run_escape_experiment = inner


def censored_mean_exit_steps(cfg, stats):
    """Right-censored exponential estimate of the mean exit step."""
    n_exited = int((stats.exit_steps > 0).sum())
    total = int(trial_steps(cfg.max_steps, stats.exit_steps).sum())
    return total / n_exited if n_exited else math.inf


def _exit_steps_ok(cfg, stats):
    s = stats.exit_steps
    return bool(np.all((s == -1) | ((s >= 1) & (s <= cfg.max_steps))))


class PresetWorkload:
    """A CLI preset run through ``cli.main`` with a derived seed."""

    def __init__(self, argv):
        self.argv = list(argv)

    def build(self, seed):
        return {"argv": self.argv + ["--seed", str(seed)]}

    def run(self, inputs):
        out = io.StringIO()
        with captured_ensembles() as ensembles, contextlib.redirect_stdout(out):
            rc = cli.main(inputs["argv"])
        return {"rc": rc, "doc": out.getvalue(), "ensembles": ensembles}

    def trial_steps(self, out):
        return sum(int(trial_steps(c.max_steps, s.exit_steps).sum())
                   for c, s in out["ensembles"])

    def check(self, inputs, out):
        checks = [("exit_code_0", out["rc"] == 0)]
        if out["rc"] != 0:
            return checks
        result = json.loads(out["doc"])["result"]
        checks.append(("exit_steps_in_range",
                       all(_exit_steps_ok(c, s) for c, s in out["ensembles"])))
        return checks + self.check_result(result, out["ensembles"])

    def check_result(self, result, ensembles):
        raise NotImplementedError


class Fig3(PresetWorkload):
    """presets/fig3_basins.cfg: 3 double-well basins x 1000 trials."""

    A_VALUES = (100000.0, 500.0, 150.0)

    def __init__(self):
        super().__init__([
            "escape", "--a-values", "100000 500 150", "--noise-scale", "1.58e-4",
            "--alpha", "1.5", "--trials", "1000", "--max-steps", "2000",
            "--gamma", "2.0", "--drift-scale", "5e-5", "--drift-substeps", "20",
        ])

    def check_result(self, result, ensembles):
        rows = [result[f"a_{a:g}"] for a in self.A_VALUES]
        probs = [r["escape_prob"] for r in rows]
        # The CLI's mean_exit_steps averages exited trials only, which biases
        # it low near max_steps / 2 for the shallow well; its 500 -> 150
        # ordering fails at about 1 in 30 seeds.  The right-censored
        # exponential estimate sum(min(T_i, max_steps)) / n_exited from the
        # same exit steps keeps criterion 6's ordering at every seed.
        means = [censored_mean_exit_steps(c, s) for c, s in ensembles]
        return [
            ("fig3_escape_prob_falls", probs[0] > probs[1] > probs[2]),
            ("fig3_censored_mean_exit_steps_rise", means[0] < means[1] < means[2]),
        ]


class Sweep(PresetWorkload):
    """presets/scaling_alpha15.cfg: 2000 trials x 4 amplitudes through scaling_sweep."""

    ALPHA = 1.5

    def __init__(self):
        super().__init__([
            "sweep", "--alpha", "1.5", "--eps-list", "0.01 0.02 0.05 0.1",
            "--b", "1.0", "--mu", "1.0", "--step-h", "0.2", "--gamma", "2.0",
            "--trials", "2000", "--max-steps", "60000",
        ])

    def check_result(self, result, ensembles):
        return [
            ("sweep_slope_within_10pct",
             abs(result["slope"] + self.ALPHA) <= 0.1 * self.ALPHA),
            ("sweep_no_amplitude_dropped", not result["dropped"]),
        ]


class Compare(PresetWorkload):
    """presets/measure_compare.cfg: radon measures plus SGD/ADAM/SGDM ensembles."""

    def __init__(self):
        super().__init__([
            "compare", "--alpha", "1.5", "--lambdas", "10 0.1", "--sigmas", "3 0.1",
            "--batch-size", "1", "--h-f-star", "1.0", "--noise-scale", "0.3",
            "--step-h", "0.05", "--gamma", "2.0", "--trials", "2000",
            "--max-steps", "5000", "--n-dirs", "400000",
        ])

    def check_result(self, result, ensembles):
        # criterion 8: the measure ratio predicts which optimizer exits first
        m_ratio = result["geometry"]["ratio_sgd_over_adam"]
        t_sgd = result["escape"]["SGD"]["mean_exit_time"]
        t_adam = result["escape"]["ADAM"]["mean_exit_time"]
        ok = (None not in (t_sgd, t_adam)
              and math.copysign(1.0, math.log(m_ratio))
              == math.copysign(1.0, math.log(t_adam / t_sgd)))
        return [("compare_measure_sign_matches_simulation", ok)]


def _acceptance_oracles():
    """The acceptance tests' own oracles, from ``tests/`` next to ``src/``.

    Imported only when a check runs, so they add nothing to set-up time.
    """
    tests = str(pathlib.Path(__file__).resolve().parent.parent / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles
    from test_probe import smooth_coordinate_mask

    return oracles, smooth_coordinate_mask


class Analysis:
    """Acceptance criteria 1, 2, 3, 4, 7, 9 and 10 through the public API.

    The inputs are the criteria's own, frozen seeds included, and the checks
    are their tolerances, so this workload gates what the acceptance tests
    gate.  The benchmark seed is not used: at other seeds the tolerances of
    criterion 3's KS test and criterion 9's injected-tail recovery fail at a
    few to a few tens of percent of seeds, which the seed-robustness table of
    ``report.py`` measures instead.  The cost of a pass does not depend on the
    seeds, since every size is fixed.
    """

    C1_ALPHAS = (1.0, 1.2, 1.5, 1.8, 2.0)
    C2_ALPHAS = (1.0, 1.5, 2.0)
    FROZEN_SEEDS = {
        "c1": [int(a * 1000) for a in C1_ALPHAS],
        "c2": [77 + int(10 * a) for a in C2_ALPHAS],
        "c3": 33,
        "c7_sets": [500 + i for i in range(5)],
        "c7_radon": [40 + i for i in range(5)],
        "c7_homo": 9,
        "c9_small": (0, 1, 2),
        "c9_inject": (3, 4, 9),
        "c9_genuine": (6, 7, 11),
    }

    @classmethod
    def derived_seeds(cls, seed):
        """Seeds shaped like ``FROZEN_SEEDS``, all drawn from ``seed``."""
        it = iter(int(x) for x in np.random.SeedSequence([seed, 1]).generate_state(32))
        return {key: (type(val)(next(it) for _ in val) if isinstance(val, (list, tuple))
                      else next(it)) for key, val in cls.FROZEN_SEEDS.items()}

    def build(self, seed):
        return self.inputs(self.FROZEN_SEEDS)

    def inputs(self, s):
        c7_sets = []
        for d, set_seed in zip((2, 2, 2, 3, 3), s["c7_sets"]):
            rng = np.random.default_rng(set_seed)
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            c7_sets.append(q @ np.diag(rng.uniform(0.2, 8.0, size=d)) @ q.T)
        return {
            "seeds": s,
            "flow_landscapes": {mu: landscapes.QuadraticBasin(
                H=np.array([[mu]]), center=np.zeros(1), height=10.0) for mu in (0.5, 2.0)},
            "flow_sgd": dynamics.OptimizerConfig(kind="SGD", alpha=1.5, step_h=1e-3,
                                                 noise_scale=0.0),
            "flow_adam": dynamics.OptimizerConfig(kind="ADAM", alpha=1.5, step_h=1e-3,
                                                  beta1=0.9, beta2=0.99, noise_scale=0.0),
            "c7_sets": c7_sets,
            "c7_diag": np.diag([4.0, 1.0, 0.25]),
            "c9_small": probe.MlpModel.random_init(d_in=6, d_hidden=8, d_classes=3,
                                                   seed=s["c9_small"][0]),
            "c9_small_data": probe.SyntheticDataset.blobs(n=200, d_in=6, k=3,
                                                          seed=s["c9_small"][1]),
            "c9_inject": probe.MlpModel.random_init(seed=s["c9_inject"][0]),
            "c9_inject_data": probe.SyntheticDataset.blobs(n=400, seed=s["c9_inject"][1]),
            "c9_genuine": probe.MlpModel.random_init(seed=s["c9_genuine"][0]),
            "c9_genuine_data": probe.SyntheticDataset.blobs(seed=s["c9_genuine"][1]),
            "c9_cfg": dynamics.OptimizerConfig(kind="SGD", eta=0.05, alpha=1.5),
            "c10_landscape": landscapes.QuadraticBasin(H=np.array([[1.0]]),
                                                       center=np.zeros(1), height=10.0),
            "c10_cfg": dynamics.OptimizerConfig(kind="ADAM", alpha=1.5, step_h=1e-2,
                                                beta1=0.9, beta2=0.99, noise_scale=0.0),
        }

    # steps of the single-trajectory loops: 2 mu x (SGD, ADAM) flows of 2000
    # steps, the monitors' paired 800-step runs, and 150 + 300 probe steps
    TRIAL_STEPS = 4 * 2000 + 2 * 800 + 150 + 300

    def trial_steps(self, out):
        return self.TRIAL_STEPS

    def run(self, inp):
        s = inp["seeds"]
        out = {}
        # criterion 1: sampler law
        cf_err, var2 = 0.0, None
        for i, alpha in enumerate(self.C1_ALPHAS):
            law = stable.StableLaw(alpha)
            x = stable.sample_sas(law, 10 ** 6, seed=s["c1"][i])
            for omega in (0.5, 1.0, 2.0):
                cf_err = max(cf_err, abs(stable.empirical_char_fn(x, omega) - law.char_fn(omega)))
            if alpha == 2.0:
                var2 = float(np.var(x))
        out["c1"] = (cf_err, var2)
        # criterion 2: tail-index estimator
        out["c2"] = [
            abs(stable.estimate_tail_index(
                stable.sample_sas(stable.StableLaw(a), 10 ** 6, seed=s["c2"][i]), k2=1000) - a)
            for i, a in enumerate(self.C2_ALPHAS)]
        # criterion 3: jump decomposition at eps = 0.1, delta = 1, h = 0.1
        alpha, h = 1.5, 0.1
        scale = stable.tail_normalization(alpha) * h ** (1.0 / alpha)
        inc = scale * stable.sample_sas(stable.StableLaw(alpha), 300_000, seed=s["c3"])
        events = stable.decompose_jumps(inc, h, stable.JumpDecompositionConfig(eps=0.1, delta=1.0))
        psi = stable.jump_intensity(alpha, 0.1, 1.0)
        out["c3"] = (events.times.size, psi, stable.interjump_time_test(events, psi))
        # criterion 4: noise-free flows
        flows = []
        for mu, land in inp["flow_landscapes"].items():
            _, rep = dynamics.deterministic_flow(
                dynamics.SdeState.initial(np.array([1.0]), "SGD"), land, inp["flow_sgd"], 2.0)
            _, arep = dynamics.deterministic_flow(
                dynamics.SdeState.initial(np.array([1.0]), "ADAM"), land, inp["flow_adam"], 2.0)
            flows.append((mu, rep.observed_rate, arep.lyapunov_series[:, 1]))
        out["c4"] = flows
        # criterion 7: radon measure against quadrature, and homogeneity in c
        out["c7"] = [geometry.radon_measure(geometry.QuadraticEscapeSet(A=a, c=1.3), 1.5,
                                            n_dirs=400_000, seed=seed)
                     for a, seed in zip(inp["c7_sets"], s["c7_radon"])]
        out["c7_homo"] = [geometry.radon_measure(
            geometry.QuadraticEscapeSet(A=inp["c7_diag"], c=k), 1.5, n_dirs=200_000,
            seed=s["c7_homo"], with_stderr=True) for k in (1.0, 0.5, 4.0)]
        # criterion 9: backprop, injected-tail recovery, genuine heavy tails
        model, data = inp["c9_small"], inp["c9_small_data"]
        rng = np.random.default_rng(s["c9_small"][2])
        perturbed = [model.params + 0.2 * rng.standard_normal(model.n_params) for _ in range(5)]
        out["c9_grads"] = [(p, probe.full_gradient(model, data, params=p)) for p in perturbed]
        out["c9_inject"] = probe.noise_trajectory(
            inp["c9_inject"], inp["c9_inject_data"], inp["c9_cfg"], 150, window=16,
            batch_size=32, seed=s["c9_inject"][2], record_stride=50, inject_alpha=1.3)
        out["c9_genuine"] = probe.noise_trajectory(
            inp["c9_genuine"], inp["c9_genuine_data"], inp["c9_cfg"], 300, window=16,
            batch_size=32, seed=s["c9_genuine"][2], record_stride=50)
        # criterion 10: assumption monitors
        out["c10"] = probe.assumption_monitors(inp["c10_landscape"], inp["c10_cfg"],
                                               np.array([2.0]), 800, record_stride=10)
        return out

    def check(self, inp, out):
        oracles, smooth_coordinate_mask = _acceptance_oracles()
        cf_err, var2 = out["c1"]
        n_events, psi, ks = out["c3"]
        checks = [
            ("c1_char_fn_error", cf_err < 0.01),
            ("c1_gaussian_variance", 1.98 <= var2 <= 2.02),
            ("c2_tail_index_error", all(e <= 0.05 for e in out["c2"])),
            ("c3_event_count", n_events >= 1000),
            ("c3_rate", abs(ks["rate"] - psi) / psi < 0.10),
            ("c3_ks", bool(ks["pass"])),
        ]
        for mu, rate, lyap in out["c4"]:
            checks.append((f"c4_sgd_rate_mu{mu:g}", 0.95 * 2 * mu <= rate <= 2 * mu))
            checks.append((f"c4_adam_lyapunov_mu{mu:g}", bool(np.all(np.diff(lyap) <= 1e-12))))
        grid = {2: oracles.radon_measure_grid_2d, 3: oracles.radon_measure_grid_3d}
        oracle = [grid[a.shape[0]](a, 1.3, 1.5) for a in inp["c7_sets"]]
        worst = max(abs(m - o) / o for m, o in zip(out["c7"], oracle))
        (m1, e1), *rest = out["c7_homo"]
        homo = all(abs(mk - k ** -0.75 * m1) <= 3.0 * math.hypot(ek, k ** -0.75 * e1)
                   for k, (mk, ek) in zip((0.5, 4.0), rest))
        checks += [("c7_grid_oracle", worst < 0.01), ("c7_homogeneity", homo)]
        model, data = inp["c9_small"], inp["c9_small_data"]
        fd_worst = 0.0
        for p, g in out["c9_grads"]:
            fd = oracles.finite_difference_gradient(
                lambda q: probe.loss_value(model, data, params=q), p)
            mask = smooth_coordinate_mask(model, data, p)
            fd_worst = max(fd_worst, float(np.max(np.abs(g[mask] - fd[mask])))
                           / max(1.0, float(np.max(np.abs(g)))))
        inj = [r.alpha_hat for r in out["c9_inject"] if r.alpha_hat is not None]
        gen = [r.alpha_hat for r in out["c9_genuine"] if r.alpha_hat is not None]
        rep = out["c10"]
        checks += [
            ("c9_backprop_vs_fd", fd_worst < 1e-5),
            ("c9_injected_recovery", bool(inj) and all(abs(a - 1.3) <= 0.1 for a in inj)),
            ("c9_genuine_heavy_tail", any(a < 2.0 for a in gen)),
            ("c10_rho_nonnegative", bool(np.all(rep.rho >= 0.0))),
            ("c10_v_extrema", bool(np.isfinite(rep.v_min) and np.isfinite(rep.v_max)
                                   and rep.v_min <= rep.v_max)),
        ]
        return checks


WORKLOADS = {"fig3": Fig3(), "sweep": Sweep(), "compare": Compare(), "analysis": Analysis()}


def exit_steps_digest(ensembles):
    """sha256 of each ensemble's exit steps, to spot changed frozen-seed results."""
    return [hashlib.sha256(np.ascontiguousarray(s.exit_steps, dtype=np.int64).tobytes())
            .hexdigest()[:16] for _, s in ensembles]
