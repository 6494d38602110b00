"""Write the benchmark's recorded baseline to ``bench/baseline.json``.

    python3 bench/report.py

* runs ``run.py`` with tracing off on every workload, for ``run_seconds`` of
  BENCHMARK.json, in two sets of ``RUNS`` seeds each (seeds 1..RUNS, then
  RUNS+1..2*RUNS; seed by seed, all workloads, so a slow spell of the
  machine is shared out).  It records per set the medians, quartiles and
  spread (q3 - q1) / median of each metric, and the change of each median
  from the first set to the second;
* runs ``run.py`` once per workload with tracing on, at seed 1;
* reruns the full gates of acceptance criteria 5, 6 and 8, and the checks of
  the ``analysis`` workload, at base seeds 1..ROBUSTNESS_SEEDS and as many
  hashed seeds, and records which parts pass.  This table is a measurement,
  not a gate;
* records the environment: versions, cores, CPU, last-level cache and BLAS
  threads.

Only the benchmark's own processes are measured.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig3", "sweep", "compare", "analysis")
RUNS = 10  # seeds per set
ROBUSTNESS_SEEDS = 5


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if it cannot be asked."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _read(path):
    try:
        return pathlib.Path(path).read_text().strip()
    except OSError:
        return None


def environment():
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
    llc = None
    for index in sorted(pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") in ("Unified", "Data"):
            llc = f"L{_read(index / 'level')} {_read(index / 'size')}"
    src = ROOT / "src" / "levyescape"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1) if model else platform.processor(),
        "last_level_cache": llc,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LEVY_ESCAPE_THREADS")},
        "src_sha256": digest.hexdigest(),
        "measured": ("only the benchmark's own processes: no machine-wide tracing, "
                     "no cache dropping, no change to CPU or kernel settings"),
    }


def bench_run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=600)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(results):
    table = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        entry = {"unit": first["unit"], "median": med, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
        table[name] = entry
    return table


def criterion_gates(seed):
    """Criteria 5, 6 and 8 at base seed ``seed``, each part reported on its own."""
    import numpy as np

    from levyescape import dynamics, escape, geometry, landscapes
    from microbench import sweep_point

    c5 = {}
    for alpha in (1.0, 1.5):
        rep = escape.scaling_sweep(sweep_point(seed, alpha), [0.01, 0.02, 0.05, 0.1])
        ratio = rep["mean_exit_time"][0] / escape.predicted_mean_exit(2.0 / alpha, alpha, 0.01)
        c5[f"alpha{alpha:g}_slope"] = abs(rep["slope"] + alpha) <= 0.1 * alpha
        c5[f"alpha{alpha:g}_factor3"] = 1.0 / 3.0 < ratio < 3.0
        if alpha == 1.5:
            c5["alpha1.5_band"] = 0.7 <= ratio <= 1.4

    stats = [escape.run_escape_experiment(escape.double_well_config(
        a, 1.58e-4, trials=1000, max_steps=2000, base_seed=seed, gamma=2.0))
        for a in (1e5, 500, 150)]
    probs = [s.escape_prob for s in stats]
    means = [s.mean_exit_steps for s in stats]
    c6 = {
        "prob_order": probs[0] > probs[1] > probs[2],
        "mean_order": means[0] < means[1] < means[2],
        "prob_bands": 0.45 <= probs[1] <= 0.85 and 0.02 <= probs[2] <= 0.25,
        "factor2": all(r / 2 <= m <= r * 2 for m, r in zip(means, (122.0, 457.0, 1898.0))),
        "mean_exit_steps": means,
    }

    spec = geometry.Spectrum(lambdas=np.array([10.0, 0.1]), sigmas=np.array([3.0, 0.1]))
    geo = geometry.compare_measures(spec, 1.5, n_dirs=400_000, seed=seed)
    land = landscapes.QuadraticBasin(H=np.diag(spec.lambdas), center=np.zeros(2), height=0.5)
    cfg = escape.EscapeConfig(
        landscape=land, basin=landscapes.BasinSpec(region=land, eps=0.3, gamma=2.0),
        optimizer=dynamics.OptimizerConfig(kind="SGD", eta=1e-3, alpha=1.5, step_h=0.05,
                                           noise_scale=0.3, sigma=spec.sigmas,
                                           beta1=0.9, beta2=0.99),
        theta0=np.zeros(2), trials=2000, max_steps=5000, base_seed=seed)
    rep = escape.compare_optimizers(cfg, q_fixed_adam=spec.sigmas)
    t_ratio = rep["stats"]["ADAM"].mean_exit_time / rep["stats"]["SGD"].mean_exit_time
    c8 = {"sign": math.copysign(1.0, math.log(geo["ratio_sgd_over_adam"]))
          == math.copysign(1.0, math.log(t_ratio))}
    return {"criterion5": c5, "criterion6": c6, "criterion8": c8}


def seed_robustness(seeds):
    import workloads

    analysis = workloads.WORKLOADS["analysis"]
    rows = []
    for seed in seeds:
        row = {"seed": seed, **criterion_gates(seed)}
        inputs = analysis.inputs(analysis.derived_seeds(seed))
        row["analysis_failed"] = [name for name, ok in analysis.check(inputs, analysis.run(inputs))
                                  if not ok]
        rows.append(row)
    rates = {}
    for crit in ("criterion5", "criterion6", "criterion8"):
        for part, value in rows[0][crit].items():
            if isinstance(value, bool):
                rates[f"{crit}.{part}"] = sum(r[crit][part] for r in rows) / len(rows)
    rates["analysis.all_checks"] = sum(not r["analysis_failed"] for r in rows) / len(rows)
    return {"base_seeds": list(seeds), "pass_rate": rates, "rows": rows}


def main():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sets = [range(1, RUNS + 1), range(RUNS + 1, 2 * RUNS + 1)]
    results = {w: [[] for _ in sets] for w in WORKLOADS}
    for i, seeds in enumerate(sets):
        for seed in seeds:
            for w in WORKLOADS:
                _, result = bench_run(w, seed, seconds, 0)
                results[w][i].append(result)
                print(w, seed, json.dumps(result), file=sys.stderr, flush=True)
    report = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        _, traced = bench_run(w, 1, seconds, 1)
        tables = [summarize(runs) for runs in results[w]]
        report["workloads"][w] = {
            "sets": [{"seeds": list(seeds),
                      "correct_runs": sum(r["correct"] for r in runs),
                      "checks_failed": sum(r["failed"] for r in runs),
                      "end_to_end": table}
                     for seeds, runs, table in zip(sets, results[w], tables)],
            "median_change": {name: tables[1][name]["median"] / entry["median"] - 1.0
                              for name, entry in tables[0].items()},
            "per_layer_seed1": traced["metrics"],
        }
    # consecutive base seeds share all but one trial stream each (trial i is
    # seeded base_seed + i), so hashed seeds are added for independent rows
    k = ROBUSTNESS_SEEDS
    report["seed_robustness"] = seed_robustness(
        list(range(1, k + 1)) + [workloads.derive_seed(s) for s in range(1, k + 1)])
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
