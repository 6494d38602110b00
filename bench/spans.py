"""Spans around the package's public calls, recorded from outside the package.

The tracer replaces public names with wrappers for the duration of a traced
pass and puts the originals back afterwards.  Each call becomes a span
(see ``Tracer``) kept in memory; per-layer times and counts are
computed from the spans when the pass ends.  Each thread keeps its own stack
of open spans, so spans opened in worker threads never nest under another
thread's.  A worker thread's spans have no parent, so self times such as
``escape.self_s`` are only meaningful when every span ran on the thread that
opened the tracer; ``Tracer.single_thread`` says whether that held, and the
traced run fails its check when it did not.
"""

from __future__ import annotations

import collections
import functools
import threading
import time

from levyescape import cli, dynamics, escape, geometry, landscapes, probe, stable

from workloads import trial_steps


def _dirs(result, args, kwargs):
    # radon_measure samples directions only for d >= 2; d = 1 is closed form
    w = args[0]
    return kwargs.get("n_dirs", 1_000_000) if w.dim >= 2 else 0


def _size(result, args, kwargs):
    return result.size


# (owner, attribute, span name, extra count); a count is stored under the
# span name and added to for every call.  The scaling_sweep,
# compare_optimizers and compare_measures spans only keep their library work
# out of cli.main's self time, which is then config parsing and JSON output.
TARGETS = [
    (cli, "main", "cli.main", None),
    (escape, "scaling_sweep", "escape.scaling_sweep", None),
    (escape, "compare_optimizers", "escape.compare_optimizers", None),
    (geometry, "compare_measures", "geometry.compare_measures", None),
    (escape, "run_escape_experiment", "escape.run", None),
    (escape, "levy_step", "dynamics.step", None),
    (dynamics, "levy_step", "dynamics.step", None),
    (dynamics.SasStream, "__init__", "dynamics.stream_init", None),
    (dynamics.SasStream, "draw", "dynamics.stream", None),
    (dynamics, "sas_from_uniforms", "stable.cms", _size),
    (stable, "sas_from_uniforms", "stable.cms", _size),
    (landscapes.QuadraticBasin, "gradient", "landscapes.gradient", None),
    (landscapes.DoubleWell1D, "gradient", "landscapes.gradient", None),
    (dynamics, "deterministic_flow", "dynamics.flow", None),
    (probe, "assumption_monitors", "dynamics.flow", None),
    (geometry, "radon_measure", "geometry.radon", _dirs),
    (probe, "full_gradient", "probe.grad", None),
    (probe, "minibatch_gradient", "probe.grad", None),
]


class Tracer:
    """Installs span wrappers on ``TARGETS``; use as a context manager.

    A span is ``[name, start, end, parent span or None, thread id]``.
    """

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stacks = {}  # thread id -> open spans, innermost last
        self._saved = []
        self._thread = threading.get_ident()

    def _wrap(self, inner, name, count):
        spans, counts, stacks = self.spans, self.counts, self._stacks
        clock, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            span = [name, clock(), 0.0, stack[-1] if stack else None, tid]
            stack.append(span)
            spans.append(span)
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                counts[name] += count(result, args, kwargs)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, count in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @property
    def single_thread(self):
        """True if every span ran on the thread that created the tracer."""
        return all(span[4] == self._thread for span in self.spans)

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the time its direct children
        cover.  No traced name calls itself, so inclusive sums do not double
        count.
        """
        covered = collections.defaultdict(float)  # id(span) -> children's time
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[id(parent)] += end - start
        calls = collections.Counter()
        incl = collections.defaultdict(float)
        self_s = collections.defaultdict(float)
        for span in self.spans:
            name, start, end = span[:3]
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - covered[id(span)]
        return calls, incl, self_s


def layer_metrics(tracer, ensembles):
    """Per-layer metrics of one traced pass, as ``{name: (value, unit)}``.

    ``ensembles`` are the pass's ``(EscapeConfig, EscapeStats)`` pairs; the
    escape counts come from their exit steps, so they repeat exactly at one
    seed.  A layer the pass never called reads 0.
    """
    calls, incl, self_s = tracer.totals()  # 0 for a name never called
    draws = tracer.counts["stable.cms"]
    dirs = tracer.counts["geometry.radon"]
    steps = [(c, trial_steps(c.max_steps, s.exit_steps)) for c, s in ensembles]
    trial = sum(int(t.sum()) for _, t in steps)
    lockstep = sum(int(t.max()) for _, t in steps)
    used = sum(int(c.theta0.size * t.sum()) for c, t in steps)
    n_trials = sum(c.trials for c, _ in ensembles)
    censored = sum(int((s.exit_steps < 0).sum()) for _, s in ensembles)

    def per(num, den):
        return num / den if den else 0.0

    return {
        "stable.cms_s": (incl["stable.cms"], "s"),
        "stable.draws": (draws, "count"),
        "stable.draws_per_s": (per(draws, incl["stable.cms"]), "1/s"),
        "dynamics.stream_init_s": (incl["dynamics.stream_init"], "s"),
        "dynamics.stream_s": (incl["dynamics.stream"], "s"),
        "dynamics.draws_used_frac": (per(used, draws) if ensembles else 0.0, "ratio"),
        "dynamics.step_s": (incl["dynamics.step"], "s"),
        "dynamics.steps": (calls["dynamics.step"], "count"),
        "dynamics.us_per_step": (1e6 * per(incl["dynamics.step"], calls["dynamics.step"]), "us"),
        "dynamics.flow_s": (incl["dynamics.flow"], "s"),
        "landscapes.gradient_calls": (calls["landscapes.gradient"], "count"),
        "landscapes.gradient_s": (incl["landscapes.gradient"], "s"),
        "escape.run_s": (incl["escape.run"], "s"),
        "escape.self_s": (self_s["escape.run"], "s"),
        "escape.trial_steps": (trial, "count"),
        "escape.lockstep_steps": (lockstep, "count"),
        "escape.mean_active": (per(trial, lockstep), "count"),
        "escape.censored_frac": (per(censored, n_trials), "ratio"),
        "geometry.radon_s": (incl["geometry.radon"], "s"),
        "geometry.dirs": (dirs, "count"),
        "geometry.dirs_per_s": (per(dirs, incl["geometry.radon"]), "1/s"),
        "probe.grad_s": (incl["probe.grad"], "s"),
        "probe.grad_calls": (calls["probe.grad"], "count"),
        "probe.grads_per_s": (per(calls["probe.grad"], incl["probe.grad"]), "1/s"),
        "cli.overhead_s": (self_s["cli.main"], "s"),
    }
