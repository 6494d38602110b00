"""levyescape benchmark: one workload per process, checked outputs, one JSON line.

Run from the repository root:

    python3 bench/run.py --workload fig3 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``fig3``, ``sweep``, ``compare``, ``analysis``.
The package is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.

``--trace 0`` repeats the workload for ``--seconds``, each pass on inputs
derived from ``(seed, pass)``, and reports medians over passes:

* ``wall_s``: time of one pass, set-up excluded;
* ``trial_steps_per_s``: trial-steps of the pass / ``wall_s``.  A trial
  step is one step of one trajectory: sum over ensembles of
  min(T_i, max_steps); on ``analysis``, which runs no ensemble, the steps
  of its single-trajectory loops;
* ``cpu_s``: process user+sys time of one pass (BLAS threads included);
* ``setup_s``: median over fresh processes of the time from process start
  until the package is imported and the inputs are built;
* ``peak_rss_mb``: ``ru_maxrss`` of this process after the last pass,
  before the checks.

Times are calibrated: the speed of a core of a shared cloud host swings by
up to 2x within seconds, independently on each core.  So a fixed
computation of about 2 ms that does not use the package
(``NumpyReference``) is timed before a pass, every ``SAMPLE_EVERY_S``
during it and after it (``SpeedSampler``).  The time those timings take is
taken out of the pass, and the pass's times are scaled by ``REF_S`` /
(harmonic mean of the timings).  Each set-up process samples a pure-Python
reference the same way from its own start, since numpy is not imported
yet.  The metrics are thus seconds at the reference speed; the raw times
are printed on the details line.

``--trace 1`` alternates untraced and traced passes on the inputs of pass 0,
reports per-layer times and counts from the spans of ``spans.py`` (those of
the traced pass with the median wall time; a layer the workload never calls
reads 0), the tracing overhead, and the fixed-size layer microbenchmarks of
``microbench.py``.
Span times are raw seconds; they include the reference timings that fall
inside a span, about 2% of it.

Every pass is checked outside the timed region (untraced passes after the
last one); ``attempted`` and ``failed`` count those checks.  A line of
details (per-pass times, check names, exit-step digests) precedes the
result, which is the last line of standard output.
Only this benchmark's own processes are measured.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROCESSES = 9
# nominal times of the two reference computations, close to their times on
# a quiet 2-core Xeon; they only set the unit of the calibrated times
REF_S = 0.0022  # NumpyReference.time, calibrates passes
PY_REF_S = 0.0004  # python_reference, calibrates set-up processes
# wall time between reference timings: about 2% of a pass, 4% of a set-up
SAMPLE_EVERY_S = 0.1
SETUP_SAMPLE_EVERY_S = 0.02


def import_package():
    """Import levyescape from ``src/`` of this checkout, or exit with status 2."""
    sys.path.insert(0, str(SRC))
    try:
        import levyescape
    except ImportError as exc:
        print(f"bench: cannot import levyescape from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not pathlib.Path(levyescape.__file__).resolve().is_relative_to(SRC):
        print(f"bench: levyescape resolved outside {SRC}: {levyescape.__file__}",
              file=sys.stderr)
        sys.exit(2)


def monotonic():
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can be
    # compared with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def python_reference():
    """Time a fixed pure-Python computation; usable before numpy is imported."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += (i * 0.5) % 7.0
    table = {}
    for i in range(800):
        table[i] = str(i)
    return time.perf_counter() - t0


class NumpyReference:
    """A fixed computation, independent of the package, that gauges machine speed.

    It mixes what the workloads do: a Python loop over small numpy arrays
    (like the lockstep stepper) and bulk elementwise numpy work.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x0 = rng.random((256, 1))
        self.h = np.array([[1.0]])
        self.bulk = rng.random(50_000)

    def time(self):
        np = self.np
        t0 = time.perf_counter()
        x = self.x0
        for _ in range(150):
            x = x - 0.01 * (x @ self.h) + 1e-3 * np.sin(x)
            x = x[np.abs(x[:, 0]) < 10.0]
        np.exp(np.sqrt(self.bulk))
        return time.perf_counter() - t0


class SpeedSampler:
    """Times ``reference`` on entry, every ``every`` seconds of wall time, and on exit.

    The periodic timings run in a SIGALRM handler on the main thread, so they
    see the speed of the core the measured code runs on.  After the block,
    ``spent`` is the time all timings took and ``scale(nominal)`` converts a
    time measured across the block to seconds at the nominal speed.
    """

    def __init__(self, reference, every):
        self.reference = reference
        self.every = every

    def _tick(self, *_):
        self.ticks.append(self.reference())

    def __enter__(self):
        self.ticks = []
        self.timings = [self.reference()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.timings += self.ticks + [self.reference()]

    @property
    def spent(self):
        return sum(self.timings)

    def scale(self, nominal):
        # work per second is proportional to 1 / reference time, so the
        # harmonic mean of the timings gives the mean speed over the block
        return nominal / statistics.harmonic_mean(self.timings)


def setup_probe(workload, seed):
    """Child process body: import, build inputs, report clock, sampler time, scale."""
    with SpeedSampler(python_reference, SETUP_SAMPLE_EVERY_S) as speed:
        import_package()
        import workloads

        workloads.WORKLOADS[workload].build(workloads.derive_seed(seed, 0))
    end = monotonic()
    print(json.dumps([end, speed.spent, speed.scale(PY_REF_S)]))


def measure_setup(workload, seed):
    """Calibrated set-up times of ``SETUP_PROCESSES`` fresh processes."""
    times = []
    for _ in range(SETUP_PROCESSES):
        start = monotonic()
        child = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        end, spent, scale = json.loads(child.stdout.strip().splitlines()[-1])
        times.append((end - start - spent) * scale)
    return times


def timed_pass(wl, inputs, ref):
    """Run one pass; return (outputs, calibrated wall, calibrated cpu, raw wall)."""
    cpu0, t0 = time.process_time(), time.perf_counter()
    with SpeedSampler(ref.time, SAMPLE_EVERY_S) as speed:
        out = wl.run(inputs)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    scale = speed.scale(REF_S)
    return out, (wall - speed.spent) * scale, (cpu - speed.spent) * scale, wall


def run_untraced(wl, seed, seconds, ref):
    import workloads

    walls, cpus, rates, raw, passes = [], [], [], [], []
    while not passes or sum(raw) < seconds:
        inputs = wl.build(workloads.derive_seed(seed, len(passes)))
        out, wall, cpu, raw_wall = timed_pass(wl, inputs, ref)
        walls.append(wall)
        cpus.append(cpu)
        raw.append(raw_wall)
        rates.append(wl.trial_steps(out) / wall)
        passes.append((inputs, out))
    # read before the checks run: they import the test oracles, whose
    # scipy.integrate alone takes about 50 MiB
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = [wl.check(inputs, out) for inputs, out in passes]
    digests = [workloads.exit_steps_digest(out.get("ensembles", [])) for _, out in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "trial_steps_per_s": (statistics.median(rates), "trial-steps/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    return metrics, checks, {"wall_s": walls, "raw_wall_s": raw, "cpu_s": cpus,
                             "exit_steps_sha256": digests}


def run_traced(wl, seed, seconds, ref):
    import microbench
    import spans
    import workloads

    inputs = wl.build(workloads.derive_seed(seed, 0))
    plain, traced, raw, layers, checks = [], [], [], [], []
    while not traced or sum(raw) < seconds:
        out, wall, _, raw_wall = timed_pass(wl, inputs, ref)
        plain.append(wall)
        raw.append(raw_wall)
        checks.append(wl.check(inputs, out))
        with spans.Tracer() as tracer:
            out, wall, _, raw_wall = timed_pass(wl, inputs, ref)
        traced.append(wall)
        raw.append(raw_wall)
        checks.append(wl.check(inputs, out))
        # self times need every span on one thread; see spans.py
        checks.append([("trace_spans_on_one_thread", tracer.single_thread)])
        layers.append(spans.layer_metrics(tracer, out.get("ensembles", [])))
    # the layer metrics of the median traced pass, so that identities such as
    # escape.run_s = self + stream_init + stream + step hold exactly
    median_pass = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    metrics = dict(layers[median_pass])
    metrics["trace_overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    micro, micro_checks = microbench.run_all(seed)
    metrics.update(micro)
    checks.append(micro_checks)
    return metrics, checks, {"untraced_wall_s": plain, "traced_wall_s": traced}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig3", "sweep", "compare", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_package()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ref = NumpyReference()
    if args.trace:
        metrics, checks, detail = run_traced(wl, args.seed, args.seconds, ref)
    else:
        setup = measure_setup(args.workload, args.seed)
        metrics, checks, detail = run_untraced(wl, args.seed, args.seconds, ref)
        metrics["setup_s"] = (statistics.median(setup), "s")
        detail["setup_s"] = setup
    flat = [(name, bool(ok)) for group in checks for name, ok in group]
    failed = sorted({name for name, ok in flat if not ok})
    detail.update(workload=args.workload, seed=args.seed,
                  checks=sorted({name for name, _ in flat}), failed_checks=failed)
    print(json.dumps(detail))
    n_failed = sum(not ok for _, ok in flat)
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": len(flat),
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
