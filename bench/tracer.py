"""Outside-in tracing of the edge_ricci package for the benchmark's traced run.

``Tracer.installed()`` replaces every binding of each traced function — in
its defining module and in every package module that imported the name —
with a wrapper that records one span per call: name, start, end, parent
span and op id.  Spans stay in memory; ``layer_metrics`` reduces them to the
per-layer metrics when the run ends.  Nothing inside the package changes,
and every binding is restored on exit.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

PACKAGE = "edge_ricci"

VERIFY_CHECKS = (
    "check_spectral_gap_bound",
    "check_triangle_gap_diagnostic",
    "check_weighted_spectral_gap_bound",
    "check_bounds",
    "check_adjacent_pair_reduction",
    "check_spectral_equivalence",
    "check_tree_formula",
)
CRITERIA = tuple(range(1, 12))

# (span name, module, attribute path, what the span notes about its call).
# Two attribute paths may share a span name; they are reported as one layer.
TARGETS = (
    ("graph_core.parse", "graph_core", "parse_edgelist", None),
    ("graph_core.parse", "graph_core", "parse_weighted", None),
    ("edge_geometry.row", "edge_geometry", "EdgeSpace.row", "row_hit"),
    ("edge_geometry.row", "edge_geometry", "WeightedEdgeSpace.row", "row_hit"),
    ("edge_geometry.edge_measure", "edge_geometry", "edge_measure", None),
    ("edge_geometry.pairwise_costs", "edge_geometry", "pairwise_costs", None),
    ("curvature.ricci", "curvature", "ricci", "pair_key"),
    ("curvature.pair_transport_problem", "curvature", "pair_transport_problem", None),
    ("curvature.transport_for_pair", "curvature", "transport_for_pair", None),
    ("transport.solve_wasserstein", "transport", "solve_wasserstein", "cells"),
    ("transport.verify_coupling", "transport", "verify_coupling", None),
    ("transport.lipschitz_excess", "transport", "lipschitz_excess", None),
    ("transport.brute_force_wasserstein", "transport", "brute_force_wasserstein", None),
    ("laplacian.symmetrized", "laplacian", "symmetrized", None),
    ("spectra.spectrum_of", "spectra", "spectrum_of", "operator_key"),
    ("spectra.eigenvalues_symmetric", "spectra", "eigenvalues_symmetric", "dim3"),
    *((f"verify.{c}", "verify", c, None) for c in VERIFY_CHECKS),
    ("verify.verification_report", "verify", "verification_report", None),
    ("verify.report_to_json", "verify", "report_to_json", None),
    *((f"acceptance.criterion_{n}", "acceptance", f"criterion_{n}", None) for n in CRITERIA),
    ("cli.run", "cli", "run", None),
)

# Per-layer metrics in output order: (name, unit, better).
PER_LAYER = (
    ("graph_core.parse.calls", "count", "lower"),
    ("graph_core.parse.self_s", "s", "lower"),
    ("edge_geometry.row.calls", "count", "lower"),
    ("edge_geometry.row.self_s", "s", "lower"),
    ("edge_geometry.row.hit_frac", "ratio", "higher"),
    ("edge_geometry.edge_measure.calls", "count", "lower"),
    ("edge_geometry.edge_measure.self_s", "s", "lower"),
    ("edge_geometry.pairwise_costs.calls", "count", "lower"),
    ("edge_geometry.pairwise_costs.self_s", "s", "lower"),
    ("curvature.ricci.calls", "count", "lower"),
    ("curvature.ricci.distinct_frac", "ratio", "higher"),
    ("curvature.pair_transport_problem.self_s", "s", "lower"),
    ("curvature.transport_for_pair.self_s", "s", "lower"),
    ("transport.solve_wasserstein.calls", "count", "lower"),
    ("transport.solve_wasserstein.self_s", "s", "lower"),
    ("transport.solve_wasserstein.cells", "count", "lower"),
    ("transport.verify_coupling.self_s", "s", "lower"),
    ("transport.lipschitz_excess.self_s", "s", "lower"),
    ("transport.brute_force_wasserstein.calls", "count", "lower"),
    ("transport.brute_force_wasserstein.self_s", "s", "lower"),
    ("laplacian.symmetrized.calls", "count", "lower"),
    ("laplacian.symmetrized.self_s", "s", "lower"),
    ("spectra.spectrum_of.calls", "count", "lower"),
    ("spectra.spectrum_of.distinct_frac", "ratio", "higher"),
    ("spectra.eigenvalues_symmetric.calls", "count", "lower"),
    ("spectra.eigenvalues_symmetric.self_s", "s", "lower"),
    ("spectra.eigenvalues_symmetric.dim3", "count", "lower"),
    *((f"verify.{c}.incl_s", "s", "lower") for c in VERIFY_CHECKS),
    ("verify.verification_report.self_s", "s", "lower"),
    ("verify.report_to_json.self_s", "s", "lower"),
    *((f"acceptance.criterion_{n}.incl_s", "s", "lower") for n in CRITERIA),
    ("cli.run.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Span recorder.  One instance per traced run; not thread-safe."""

    def __init__(self):
        # span: (name, parent index or -1, start, end, op id, note)
        self.spans: list = []
        self._stack: list[int] = []
        self._op = -1
        self._alive: dict[int, object] = {}

    def begin_op(self, op: int) -> None:
        """Tag later spans with ``op``.  Graphs noted during an op are kept
        alive until the next op, so their ids cannot be reused within it."""
        self._op = op
        self._alive = {}

    def _graph_key(self, g) -> int:
        self._alive[id(g)] = g
        return id(g)

    def _notes(self, kind, fn):
        """Function (args, kwargs) -> the span's note, computed before the call."""
        if kind is None:
            return None
        if kind == "row_hit":
            def note(args, kwargs):
                rows = getattr(args[0], "_rows", None)
                return rows is not None and args[1] in rows
            return note
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments
        if kind == "pair_key":
            def note(args, kwargs):
                a = bound(args, kwargs)
                e, f = a["e"], a["f"]
                return (self._op, self._graph_key(a["g"]), min(e, f), max(e, f))
        elif kind == "operator_key":
            def note(args, kwargs):
                a = bound(args, kwargs)
                return (self._op, self._graph_key(a["g"]), a["operator"], a["weighting"])
        elif kind == "cells":
            def note(args, kwargs):
                p = bound(args, kwargs)["problem"]
                return len(p.mu.atoms) * len(p.nu.atoms)
        elif kind == "dim3":
            def note(args, kwargs):
                return len(bound(args, kwargs)["matrix"]) ** 3
        else:
            raise ValueError(f"unknown note {kind!r}")
        return note

    def wrap(self, name: str, fn, note_kind=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = self._notes(note_kind, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            extra = note(args, kwargs) if note is not None else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end, self._op, extra)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of every target inside the package, then restore."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        undo = []
        try:
            for name, module, path, note_kind in TARGETS:
                owner = sys.modules[f"{PACKAGE}.{module}"]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr]
                wrapper = self.wrap(name, orig, note_kind)
                holders = [owner] if outer else [m for m in modules
                                                  if any(v is orig for v in vars(m).values())]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, orig))
            yield self
        finally:
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)


def span_stats(spans):
    """Per span name: calls, self seconds (children excluded), inclusive
    seconds, and the notes its spans took."""
    child = [0.0] * len(spans)
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    notes: dict[str, list] = {}
    for k, (name, _, start, end, _, extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[k])
        incl_s[name] = incl_s.get(name, 0.0) + (end - start)
        if extra is not None:
            notes.setdefault(name, []).append(extra)
    return {"calls": calls, "self_s": self_s, "incl_s": incl_s}, notes


def layer_metrics(spans, overhead_frac: float) -> dict[str, float]:
    """Reduce spans to the PER_LAYER metrics (zero for a layer never called)."""
    stats, notes = span_stats(spans)
    calls = stats["calls"]

    def frac(num, den):
        return num / den if den else 0.0

    derived = {
        "edge_geometry.row.hit_frac": frac(
            sum(notes.get("edge_geometry.row", [])), calls.get("edge_geometry.row", 0)),
        "curvature.ricci.distinct_frac": frac(
            len(set(notes.get("curvature.ricci", []))), calls.get("curvature.ricci", 0)),
        "transport.solve_wasserstein.cells": sum(notes.get("transport.solve_wasserstein", [])),
        "spectra.spectrum_of.distinct_frac": frac(
            len(set(notes.get("spectra.spectrum_of", []))), calls.get("spectra.spectrum_of", 0)),
        "spectra.eigenvalues_symmetric.dim3": sum(notes.get("spectra.eigenvalues_symmetric", [])),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        layer, stat = metric.rsplit(".", 1)
        out[metric] = stats[stat].get(layer, 0)
    return out

