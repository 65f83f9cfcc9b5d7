"""The functions the benchmark's tracer hooks keep their names and parameters.

bench/tracer.py finds each traced function by module, attribute path and
parameter name, and reads ``problem.mu.atoms`` and ``problem.nu.atoms`` for
its ``cells`` note.  A renamed hook or a moved parameter would otherwise
show only under ``python3 -m pytest bench``.  Here its Tracer runs, as it
stands, around one report on a small unweighted and a small weighted graph,
and around acceptance criterion 9, the one caller of the brute-force oracle.
"""

import importlib.util
import math
import re
from pathlib import Path

import pytest

import edge_ricci.acceptance  # noqa: F401  (the tracer hooks every package module)
import edge_ricci.cli  # noqa: F401
from edge_ricci.curvature import ricci_all_adjacent
from edge_ricci.graph_core import WeightedGraph, generate
from edge_ricci.verify import verification_report

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
TRANSPORT_LAYERS = (
    "edge_geometry.pairwise_costs",
    "curvature.pair_transport_problem",
    "transport.solve_wasserstein",
    "transport.verify_coupling",
)


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _graph(weighted):
    g = generate("random:7:0.5", seed=2)
    if weighted:
        g = WeightedGraph(g, {v: 0.5 + 0.2 * k for k, v in enumerate(g.labels)},
                          {g.edge_endpoints(e): 0.5 + 0.1 * e for e in range(g.n_edges)})
    return g


@pytest.mark.parametrize("weighted", [False, True])
def test_tracer_sees_every_transport_layer_and_every_pair(weighted):
    tracing = _tracer()
    g = _graph(weighted)
    t = tracing.Tracer()
    t.begin_op(0)
    with t.installed():
        verification_report(g)
    stats, notes = tracing.span_stats(t.spans)
    # verify solves each adjacent pair once and no other: the all-pairs
    # check reads the adjacent minimum, which bounds every pair by the
    # triangle inequality for W
    pairs = sorted(note[2:] for note in notes["curvature.ricci"])
    assert pairs == sorted(ricci_all_adjacent(g))
    assert len(pairs) < math.comb(g.n_edges, 2)
    if not weighted:
        # an exact pair's W comes from its residual LP: one problem per
        # pair, and no cost block, full-support solve or coupling check
        assert stats["calls"]["curvature.pair_transport_problem"] == len(pairs)
        for layer in ("edge_geometry.pairwise_costs", "transport.solve_wasserstein",
                      "transport.verify_coupling", "transport.lipschitz_excess"):
            assert stats["calls"].get(layer, 0) == 0, layer
        return
    for layer in TRANSPORT_LAYERS:
        assert stats["calls"].get(layer, 0) > 0, layer
    cells = notes["transport.solve_wasserstein"]
    assert len(cells) == stats["calls"]["transport.solve_wasserstein"]
    # the solver's marginal check is the public verify_coupling, once a solve
    assert stats["calls"]["transport.verify_coupling"] == len(cells)
    # the Lipschitz walk runs once a float solve
    assert stats["calls"].get("transport.lipschitz_excess", 0) == len(cells)
    assert all(c > 0 for c in cells)
    assert tracing.layer_metrics(t.spans, 0.0)["transport.solve_wasserstein.cells"] == sum(cells)


def test_tracer_sees_every_oracle_comparison_of_criterion_9():
    # the selftest trace's transport.brute_force_wasserstein.calls and
    # .self_s come from this hook, one span per comparison the detail counts
    tracing = _tracer()
    t = tracing.Tracer()
    t.begin_op(0)
    with t.installed():
        result = edge_ricci.acceptance.criterion_9(0)
    stats, _ = tracing.span_stats(t.spans)
    compared = int(re.search(r"(\d+) oracle comparisons agree", result.detail).group(1))
    assert result.passed and compared == 96
    assert stats["calls"]["transport.brute_force_wasserstein"] == compared
    assert stats["calls"]["acceptance.criterion_9"] == 1
