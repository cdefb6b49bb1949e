"""Span tracer for the traced benchmark run.

The tracer wraps the public lmgsqueeze functions listed in TARGETS, plus
``numpy.linalg.eigh``, and rebinds every name that refers to them in the
lmgsqueeze modules. Names imported inside function bodies (``rotate_state``
in the noise loop, ``trace_from_states`` in ``run_schedule``) are looked up
on their module at call time, so rebinding the module attribute catches
them too. Spans are kept in memory as [name, start, end, parent index] and
written out once the run ends. A span's self time is its duration minus the
durations of its direct children; the spans are strictly nested (one
thread), so the self times of all spans add up to the root span's duration.
"""

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _columns(args, kwargs, result):
    return _arg(args, kwargs, 1, "states").shape[1]


def _cycles(args, kwargs, result):
    return _arg(args, kwargs, 1, "schedule").cycle_count


def _bytes_written(args, kwargs, result):
    return sum(os.path.getsize(path) for path in result)


# (module, attribute, span name, (counter name, count function) or None)
TARGETS = (
    ("lmgsqueeze.cli", "validate_config", "cli.validate_config", None),
    ("lmgsqueeze.algebra", "second_moment_operators", "algebra.second_moment_operators", None),
    ("lmgsqueeze.algebra", "quadratic_form", "algebra.quadratic_form", None),
    ("lmgsqueeze.canonical", "realize_hamiltonian", "canonical.realize_hamiltonian", None),
    ("lmgsqueeze.states", "coherent_state", "states.coherent_state", None),
    ("lmgsqueeze.states", "rotate_state", "states.rotate_state", None),
    ("lmgsqueeze.propagate", "hamiltonian_eig", "propagate.hamiltonian_eig", None),
    ("lmgsqueeze.propagate", "evolve", "propagate.evolve", None),
    ("lmgsqueeze.propagate", "evolve_batch", "propagate.evolve_batch", None),
    (
        "lmgsqueeze.propagate",
        "run_schedule",
        "propagate.run_schedule",
        ("propagate.schedule_cycles", _cycles),
    ),
    (
        "lmgsqueeze.metrics",
        "batch_squeezing",
        "metrics.batch_squeezing",
        ("metrics.batch_squeezing_columns", _columns),
    ),
    ("lmgsqueeze.metrics", "trace_from_states", "metrics.trace_from_states", None),
    ("lmgsqueeze.metrics", "first_local_minimum", "metrics.first_local_minimum", None),
    ("lmgsqueeze.metrics", "minimize_hamiltonian", "metrics.minimize_hamiltonian", None),
    ("lmgsqueeze.pulses", "effective_hamiltonian", "pulses.effective_hamiltonian", None),
    ("lmgsqueeze.experiments", "predicted_optimal_time", "experiments.predicted_optimal_time", None),
    ("lmgsqueeze.experiments", "noise_monte_carlo", "experiments.noise_monte_carlo", None),
    (
        "lmgsqueeze.experiments",
        "write_result",
        "experiments.write_result",
        ("experiments.io_bytes", _bytes_written),
    ),
    ("numpy.linalg", "eigh", "linalg.eigh", None),
)


class Tracer:
    """Records nested spans and counts for one process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, counter=None):
        """``fn`` wrapped so that each call records a span named ``name``."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts[counter[0]] += counter[1](args, kwargs, result)
                return result
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        """Rebind each target in its own module and in every lmgsqueeze
        module that holds the same object under any name."""
        for module_name, attr, span_name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original, counter)
            modules = {id(owner): owner}
            for name, module in list(sys.modules.items()):
                if module is not None and (name == "lmgsqueeze" or name.startswith("lmgsqueeze.")):
                    modules[id(module)] = module
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    def self_times(self):
        """Per span name: (total self time in seconds, number of spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        calls = Counter()
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            totals[name] += (end - start) - inner
            calls[name] += 1
        return {name: (totals[name], calls[name]) for name in totals}

    def metrics(self):
        """Flat per-layer metrics: ``<span>_s`` (self time), ``<span>_share``
        (self time over the duration of the top-level spans),
        ``<span>_calls``, the counters, and the share of eigensolves served
        without a factorization."""
        out = {}
        for _, _, span_name, counter in TARGETS:
            out[f"{span_name}_s"] = out[f"{span_name}_share"] = 0.0
            out[f"{span_name}_calls"] = 0
            if counter is not None:
                out[counter[0]] = self.counts[counter[0]]
        total = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        for name, (seconds, calls) in self.self_times().items():
            out[f"{name}_s"] = seconds
            out[f"{name}_share"] = seconds / total
            out[f"{name}_calls"] = calls
        factorized = {
            parent for name, _, _, parent in self.spans if name == "linalg.eigh" and parent >= 0
        }
        eig_spans = [i for i, span in enumerate(self.spans) if span[0] == "propagate.hamiltonian_eig"]
        hits = sum(1 for i in eig_spans if i not in factorized)
        out["propagate.eig_hit_ratio"] = hits / len(eig_spans) if eig_spans else 0.0
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
