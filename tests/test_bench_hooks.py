"""The functions the benchmark's tracer hooks keep their names and parameters.

bench/tracer.py finds each traced function by module, attribute path and
parameter name, and reads ``problem.mu.atoms`` and ``problem.nu.atoms`` for
its ``cells`` note.  A renamed hook or a moved parameter would otherwise
show only under ``python3 -m pytest bench``.  Here its Tracer runs, as it
stands, around one report on a small unweighted and a small weighted graph,
around full solves of the weighted graph's pairs, and around acceptance
criterion 9, the one caller of the brute-force oracle.
"""

import importlib.util
import math
import re
from pathlib import Path

import pytest

import edge_ricci.acceptance  # noqa: F401  (the tracer hooks every package module)
import edge_ricci.cli  # noqa: F401
from edge_ricci.curvature import pair_transport_problem, ricci_all_adjacent
from edge_ricci.graph_core import WeightedGraph, generate
from edge_ricci.transport import TransportProblem
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
    # a pair's W comes from its residual LP on either input: one problem per
    # pair, and no full-support solve, coupling check, Lipschitz walk or
    # cost block
    assert stats["calls"]["curvature.pair_transport_problem"] == len(pairs)
    for layer in ("transport.solve_wasserstein", "transport.verify_coupling",
                  "transport.lipschitz_excess", "edge_geometry.pairwise_costs"):
        assert stats["calls"].get(layer, 0) == 0, layer


def test_tracer_sees_every_layer_of_a_full_solve():
    # a caller that reads a plan and a dual (criterion 9) gets a full
    # solve, whose hooks the report above no longer reaches: every adjacent
    # pair of the weighted graph through transport_for_pair, and one
    # hand-built twin, whose solve walks the Lipschitz bound
    tracing = _tracer()
    g = _graph(True)
    pairs = sorted(ricci_all_adjacent(g))
    t = tracing.Tracer()
    t.begin_op(0)
    with t.installed():
        for e, f in pairs:
            edge_ricci.curvature.transport_for_pair(g, e, f)
        p = pair_transport_problem(g, *pairs[0])
        # through the module, whose attribute the tracer wraps
        edge_ricci.transport.solve_wasserstein(TransportProblem(p.mu, p.nu, p.atoms, p.rows))
    stats, notes = tracing.span_stats(t.spans)
    for layer in TRANSPORT_LAYERS:
        assert stats["calls"].get(layer, 0) > 0, layer
    assert stats["calls"]["curvature.transport_for_pair"] == len(pairs)
    cells = notes["transport.solve_wasserstein"]
    assert len(cells) == stats["calls"]["transport.solve_wasserstein"] == len(pairs) + 1
    # the solver's marginal check is the public verify_coupling, once a solve
    assert stats["calls"]["transport.verify_coupling"] == len(cells)
    # only the hand-built problem's costs are not a certified metric
    assert stats["calls"]["transport.lipschitz_excess"] == 1
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
