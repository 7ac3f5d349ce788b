"""Span tracer for the traced benchmark run.

The tracer wraps qinet's public functions where their callers bind them,
for example ``qinet.cli.solve_theta_exact`` and
``qinet.analysis.check_symmetry``, so that every call across a layer
boundary records a span: name, start, end, parent span and the op it
belongs to.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer numbers once the run ends.  Nothing under ``src/`` changes, and no
hot helper (``routing_probs``, ``QueueMarginal.xi``) is wrapped.
"""
from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name).  A module appears once per binding the
# program calls through; the same span name can come from several bindings.
BOUNDARIES = (
    ("qinet.cli", "main", "cli.main"),
    ("qinet.cli", "load_config", "cli.load_config"),
    ("qinet.cli", "build_reduced_generator", "generator.build"),
    ("qinet", "build_reduced_generator", "generator.build"),
    ("qinet.cli", "solve_theta_exact", "exact.solve"),
    ("qinet", "solve_theta_exact", "exact.solve"),
    ("qinet.cli", "solve_theta_recursive", "recursive.solve"),
    ("qinet.cli", "theta_unit_base_stock", "closed_form.solve"),
    ("qinet.generator", "enumerate_inventory_states", "model.enumerate"),
    ("qinet.closed_form", "enumerate_inventory_states", "model.enumerate"),
    ("qinet.recursive", "enumerate_inventory_states", "model.enumerate"),
    ("qinet.simulate", "enumerate_inventory_states", "model.enumerate"),
    ("qinet.analysis", "check_symmetry", "analysis.symmetry"),
    ("qinet.analysis", "check_cut_homogeneous", "analysis.cut"),
    ("qinet.analysis", "check_cut_heterogeneous", "analysis.cut"),
    ("qinet.analysis", "total_variation", "analysis.tv"),
    ("qinet.analysis", "inventory_marginal", "analysis.marginals"),
    ("qinet.analysis", "queue_marginal", "analysis.marginals"),
    ("qinet.analysis", "ergodicity_check", "analysis.ergodicity"),
    ("qinet.cli", "simulate", "simulate.run"),
    ("qinet.cli", "decoupling_test", "simulate.decoupling"),
    ("qinet.cli", "merge_results", "simulate.merge"),
    ("qinet.simulate:SimulationResult", "empirical_theta", "simulate.empirical_theta"),
)


def _count(name, result):
    """Work count a span carries: states built, or events simulated."""
    if name == "generator.build":
        return result.size
    if name == "simulate.run":
        return result.total_events
    return 0


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "error", "count")

    def __init__(self, name, op, parent, start):
        self.name, self.op, self.parent, self.start = name, op, parent, start
        self.end, self.error, self.count = None, None, 0


class Tracer:
    """Records spans while installed; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, tracer.op, parent, time.perf_counter())
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            span.count = _count(name, result)
            return result

        return wrapper

    def install(self):
        for target, attr, name in BOUNDARIES:
            module, _, cls = target.partition(":")
            owner = sys.modules[module]
            if cls:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def first_error(self, op):
        """Innermost ``(span name, exception class)`` that failed in ``op``."""
        for span in reversed(self.spans):
            if span.op == op and span.error and span.name != "cli.main":
                return span.name, span.error
        return None


LAYERS = ("cli.main", "cli.load_config", "generator.build", "exact.solve", "recursive.solve",
          "closed_form.solve", "model.enumerate", "analysis.symmetry", "analysis.cut",
          "analysis.tv", "analysis.marginals", "analysis.ergodicity", "simulate.run",
          "simulate.decoupling", "simulate.merge", "simulate.empirical_theta")


def layer_metrics(spans, passes, ops_per_pass):
    """Per-layer metrics, each a per-pass mean over ``passes`` traced passes."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    agg = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0, "count": 0} for name in LAYERS}
    for i, span in enumerate(spans):
        a = agg[span.name]
        a["calls"] += 1
        a["busy_s"] += span.end - span.start
        a["self_s"] += span.end - span.start - child_time[i]
        a["failed"] += span.error is not None
        a["count"] += span.count

    out = {}
    for name in LAYERS:
        a = agg[name]
        out[f"{name}.calls"] = a["calls"] / passes
        out[f"{name}.busy_s"] = a["busy_s"] / passes
        out[f"{name}.self_s"] = a["self_s"] / passes
        out[f"{name}.failed"] = a["failed"] / passes
        out[f"{name}.ok_ratio"] = (a["calls"] - a["failed"]) / a["calls"] if a["calls"] else None
    out["generator.build.states"] = agg["generator.build"]["count"] / passes
    out["generator.builds_per_op"] = agg["generator.build"]["calls"] / (passes * ops_per_pass)
    busy = agg["simulate.run"]["busy_s"]
    out["simulate.run.events"] = agg["simulate.run"]["count"] / passes
    out["simulate.run.events_per_s"] = agg["simulate.run"]["count"] / busy if busy else None
    out["cli.self_s"] = out.pop("cli.main.self_s")
    return out
