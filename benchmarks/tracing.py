"""Span tracing for the benchmark, installed from outside the program.

Each seam is a module attribute through which gmmlor looks a function
up (``gmmlor.estimate.solve_quartic``, ``gmmlor.cli.read_lors_csv``, ...).
:func:`Tracer.install` swaps it for a wrapper that records a span (name,
parent, start, end) and the seam's work counters, so nothing inside
``src/gmmlor`` is edited.  Spans stay in memory until the run writes
them out.  A seam whose attribute no longer exists is recorded as
missing and its layer metrics read -1.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter


def _rows(lors):
    """Event count of a ``fit_mean`` argument: (s, phi) pair or sequence."""
    return len(lors[0]) if isinstance(lors, tuple) else len(lors)


def _fit_iterations(result):
    phase2 = sum(1 for rec in result.trace if rec.phase == 2)
    return {
        "estimate.iterations": result.state.iteration,
        "estimate.iterations_phase2": phase2,
    }


#: (module, attribute, span name, counters(args, kwargs, result) -> dict)
SEAMS = (
    ("gmmlor.cli", "simulate_lors", "simulate.simulate_lors",
     lambda a, kw, r: {"simulate.events": len(r)}),
    ("gmmlor.cli", "write_lors_csv", "simulate.write_lors_csv",
     lambda a, kw, r: {"simulate.csv_bytes_written": os.path.getsize(a[0])}),
    ("gmmlor.cli", "read_lors_csv", "simulate.read_lors_csv",
     lambda a, kw, r: {"simulate.csv_rows_read": r[0].size}),
    ("gmmlor.cli", "fit", "estimate.fit",
     lambda a, kw, r: _fit_iterations(r)),
    ("gmmlor.estimate", "_memberships_arrays", "estimate.estep",
     lambda a, kw, r: {"estimate.estep_cells": a[0].size * len(a[4])}),
    ("gmmlor.estimate", "fit_mean", "estimate.fit_mean",
     lambda a, kw, r: {"estimate.fit_mean_rows": _rows(a[0])}),
    ("gmmlor.estimate", "center_offsets", "estimate.center_offsets", None),
    ("gmmlor.estimate", "estimate_covariance",
     "estimate.estimate_covariance", None),
    ("gmmlor.estimate", "solve_orientation", "estimate.solve_orientation",
     None),
    ("gmmlor.estimate", "refine_sigmas", "estimate.refine_sigmas", None),
    ("gmmlor.estimate", "solve_quartic", "quartic.solve_quartic", None),
    ("gmmlor.estimate", "log_line_integral_profile",
     "projection.log_line_integral_profile", None),
    # centring looks mean_sinusoid up in estimate, the E-step in projection
    ("gmmlor.estimate", "mean_sinusoid", "projection.mean_sinusoid", None),
    ("gmmlor.projection", "mean_sinusoid", "projection.mean_sinusoid", None),
    ("gmmlor.cli", "evaluate_against_truth", "metrics.evaluate", None),
    ("gmmlor.metrics", "kl_divergence", "metrics.kl_divergence",
     lambda a, kw, r: {"metrics.kl_grid_points": kw.get("grid_n", 512) ** 2}),
    ("gmmlor.metrics", "density_at_points", "model.density_at_points",
     lambda a, kw, r: {"model.density_points": len(a[1])}),
)

#: Root span around each CLI command the benchmark issues.
COMMAND_SPAN = "cli.main"

#: Per-layer metric -> (unit, span that must exist, how it is computed).
#: Kinds: "total" inclusive seconds, "self" self seconds, "calls" span
#: count, "counter" a seam counter, "isotropic" solve_orientation spans
#: that never reached solve_quartic.
LAYER_METRICS = {
    "simulate.simulate_lors_s": ("s", "simulate.simulate_lors", "total"),
    "simulate.events": ("count", "simulate.simulate_lors", "counter"),
    "simulate.write_lors_csv_s": ("s", "simulate.write_lors_csv", "total"),
    "simulate.csv_bytes_written": ("bytes", "simulate.write_lors_csv",
                                   "counter"),
    "simulate.read_lors_csv_s": ("s", "simulate.read_lors_csv", "total"),
    "simulate.csv_rows_read": ("count", "simulate.read_lors_csv", "counter"),
    "estimate.fit_s": ("s", "estimate.fit", "total"),
    "estimate.fit_self_s": ("s", "estimate.fit", "self"),
    "estimate.iterations": ("count", "estimate.fit", "counter"),
    "estimate.iterations_phase2": ("count", "estimate.fit", "counter"),
    "estimate.estep_s": ("s", "estimate.estep", "total"),
    "estimate.estep_calls": ("count", "estimate.estep", "calls"),
    "estimate.estep_cells": ("count", "estimate.estep", "counter"),
    "estimate.fit_mean_s": ("s", "estimate.fit_mean", "total"),
    "estimate.fit_mean_calls": ("count", "estimate.fit_mean", "calls"),
    "estimate.fit_mean_rows": ("count", "estimate.fit_mean", "counter"),
    "estimate.center_offsets_s": ("s", "estimate.center_offsets", "total"),
    "estimate.estimate_covariance_s": ("s", "estimate.estimate_covariance",
                                       "total"),
    "estimate.estimate_covariance_calls": (
        "count", "estimate.estimate_covariance", "calls"),
    "estimate.solve_orientation_s": ("s", "estimate.solve_orientation",
                                     "total"),
    "estimate.solve_orientation_calls": (
        "count", "estimate.solve_orientation", "calls"),
    "estimate.orientation_isotropic": (
        "count", "estimate.solve_orientation", "isotropic"),
    "estimate.refine_sigmas_s": ("s", "estimate.refine_sigmas", "total"),
    "quartic.solve_quartic_s": ("s", "quartic.solve_quartic", "total"),
    "quartic.solve_quartic_calls": ("count", "quartic.solve_quartic",
                                    "calls"),
    "projection.log_line_integral_profile_s": (
        "s", "projection.log_line_integral_profile", "total"),
    "projection.mean_sinusoid_s": ("s", "projection.mean_sinusoid", "total"),
    "metrics.evaluate_s": ("s", "metrics.evaluate", "total"),
    "metrics.kl_divergence_s": ("s", "metrics.kl_divergence", "total"),
    "metrics.kl_grid_points": ("count", "metrics.kl_divergence", "counter"),
    "model.density_at_points_s": ("s", "model.density_at_points", "total"),
    "model.density_points": ("count", "model.density_at_points", "counter"),
    "cli.self_s": ("s", COMMAND_SPAN, "self"),
}

#: Value reported for a layer whose seam no longer exists.
MISSING = -1


class Tracer:
    """Records nested spans and counters in memory.

    A span is ``[name, parent index or -1, start, end]``; the open spans
    form a stack, so the benchmark must stay single-threaded while
    tracing (``--jobs 1``).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, self.clock(), None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = self.clock()
            self._stack.pop()

    def wrap(self, fn, name, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counters is not None:
                self.counters.update(counters(args, kwargs, result))
            return result

        return traced

    def install(self, seams=SEAMS):
        """Wrap every seam that exists; remember the rest as missing."""
        present = set()
        for module_name, attr, name, counters in seams:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counters))
            present.add(name)
        self.missing = {seam[2] for seam in seams} - present

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        return summarize(self.spans)

    def layer_metrics(self):
        """Every LAYER_METRICS entry as {name: value}."""
        table = self.summary()
        quartic_parents = {
            span[1] for span in self.spans
            if span[0] == "quartic.solve_quartic"
        }
        isotropic = sum(
            1 for i, span in enumerate(self.spans)
            if span[0] == "estimate.solve_orientation"
            and i not in quartic_parents
        )
        out = {}
        for metric, (_unit, span_name, kind) in LAYER_METRICS.items():
            row = table.get(span_name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            if span_name in self.missing:
                value = MISSING
            elif kind == "total":
                value = row["total_s"]
            elif kind == "self":
                value = row["self_s"]
            elif kind == "calls":
                value = row["calls"]
            elif kind == "isotropic":
                value = isotropic
            else:
                value = self.counters.get(metric, 0)
            out[metric] = value
        return out


def summarize(spans):
    """Calls, inclusive and self time per span name.

    Self time is a span's duration minus that of its direct children,
    which never overlap: the tracer keeps open spans on one stack.  A
    name nested inside itself counts its inclusive time once per span,
    as a profiler's cumulative column does.
    """
    children_s = [0.0] * len(spans)
    for _name, parent, start, end in spans:
        if parent >= 0:
            children_s[parent] += end - start
    table: dict[str, dict] = {}
    for (name, _parent, start, end), inner in zip(spans, children_s):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - inner
    return table
