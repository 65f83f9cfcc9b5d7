from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from edge_ricci.curvature import lower_bound, ricci_all_adjacent, upper_bound
from edge_ricci.edge_geometry import (
    EdgeMeasure,
    edge_degree,
    edge_distance,
    edge_measure,
    edge_neighborhood,
    edge_space,
)
from edge_ricci.errors import IsolatedEdgeError, NonpositiveWeightError, UnknownEdgeError
from edge_ricci.graph_core import Graph, WeightedGraph, generate
from edge_ricci.transport import TransportProblem, solve_wasserstein


def test_edge_space_on_k4():
    g = generate("complete:4")
    space = edge_space(g)
    assert space.degrees == (4,) * 6
    for e in range(6):
        assert e not in space.neighbors[e]
        for f in space.neighbors[e]:
            assert space.shared_vertex[e][f] == space.shared_vertex[f][e]
            assert e in space.neighbors[f]


def test_edge_degree_formula():
    # deg(x) + deg(y) - 2 for every edge of a lopsided tree
    g = Graph(["h", "a", "b", "c", "t"],
              [("h", "a"), ("h", "b"), ("h", "c"), ("c", "t")])
    assert edge_degree(g, g.edge_ordinal("h", "a")) == 3 + 1 - 2
    assert edge_degree(g, g.edge_ordinal("h", "c")) == 3 + 2 - 2
    assert edge_degree(g, g.edge_ordinal("c", "t")) == 2 + 1 - 2
    assert edge_neighborhood(g, g.edge_ordinal("c", "t")) == (g.edge_ordinal("h", "c"),)


def test_edge_distance_values():
    c6 = generate("cycle:6")
    e = c6.edge_ordinal("v0", "v1")
    antipodal = c6.edge_ordinal("v3", "v4")
    assert edge_distance(c6, e, e) == 0
    assert edge_distance(c6, e, c6.edge_ordinal("v1", "v2")) == 1
    assert edge_distance(c6, e, antipodal) == 3
    p5 = generate("path:5")
    assert edge_distance(p5, 0, 3) == 3


def _bfs_hops(g, e):
    """Hop counts from edge e over the line graph, by breadth-first search."""
    dist = {e: 0}
    frontier = [e]
    while frontier:
        nxt = []
        for a in frontier:
            for b in range(g.n_edges):
                if b not in dist and set(g.edges[a]) & set(g.edges[b]):
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    return tuple(dist[f] for f in range(g.n_edges))


@given(st.integers(0, 200))
def test_unit_rows_are_int_hop_counts(seed):
    g = generate("random:8:0.35", seed=seed)
    space = edge_space(g)
    for e in range(g.n_edges):
        row = space.row(e)
        assert row == _bfs_hops(g, e)
        assert all(type(d) is int for d in row)


def test_overflowing_row_raises_on_every_call():
    # v0-v1 to v2-v3 costs 1e308 + 1e308 = inf; a row kept after the first
    # call would come back from the second without raising
    base = generate("path:5")
    space = edge_space(WeightedGraph(base, {v: 1e308 for v in base.labels}))
    for _ in range(2):
        with pytest.raises(NonpositiveWeightError, match="from v0-v1 reach inf"):
            space.row(0)


def test_edge_distance_rejects_bad_ordinal():
    with pytest.raises(UnknownEdgeError):
        edge_distance(generate("cycle:4"), 0, 17)


def test_weighted_distance_picks_cheap_connectors():
    """Opposite edges of a 4-cycle: the two routes cost w(v1)+w(v2) and
    w(v0)+w(v3); the distance is the cheaper sum."""
    base = generate("cycle:4")
    e = base.edge_ordinal("v0", "v1")
    f = base.edge_ordinal("v2", "v3")
    cheap_ends = WeightedGraph(base, {"v0": 0.1, "v1": 5.0, "v2": 5.0, "v3": 0.1})
    assert edge_distance(cheap_ends, e, f) == pytest.approx(0.2)
    alternating = WeightedGraph(base, {"v0": 0.1, "v1": 5.0, "v2": 0.1, "v3": 5.0})
    assert edge_distance(alternating, e, f) == pytest.approx(5.1)
    # adjacent edges cost exactly the shared vertex's weight
    g2 = base.edge_ordinal("v1", "v2")
    assert edge_distance(alternating, e, g2) == pytest.approx(5.0)


def test_weighted_distance_reduces_to_hops_at_unit_weights():
    """At unit weights a WeightedGraph reproduces the exact quantities of its
    base graph in floats; the base graph keeps ints and Fractions."""
    floors, ceilings = set(), set()
    for seed in (5, 11):
        base = generate("random:8:0.35", seed=seed)
        wg = WeightedGraph(base)
        for e in range(base.n_edges):
            degree = edge_degree(base, e)
            assert type(degree) is int
            assert edge_degree(wg, e) == pytest.approx(degree, abs=1e-12)
            exact, unit = edge_measure(base, e), edge_measure(wg, e)
            assert all(type(x) is Fraction for x in exact.masses)
            assert unit.atoms == exact.atoms
            assert unit.masses == pytest.approx([float(x) for x in exact.masses], abs=1e-12)
            for f in range(base.n_edges):
                hops = edge_distance(base, e, f)
                assert type(hops) is int
                assert edge_distance(wg, e, f) == pytest.approx(hops, abs=1e-12)
        unit = ricci_all_adjacent(wg)
        for (e, f), cp in ricci_all_adjacent(base).items():
            assert type(cp.kappa) is Fraction
            assert unit[(e, f)].kappa == pytest.approx(float(cp.kappa), abs=1e-12)
            floor = lower_bound(base, e, f)
            ceiling = upper_bound(base, e, f, "intersection")
            assert type(floor) is Fraction and type(ceiling) is Fraction
            assert lower_bound(wg, e, f) == pytest.approx(float(floor), abs=1e-12)
            assert upper_bound(wg, e, f, "intersection") == pytest.approx(
                float(ceiling), abs=1e-12)
            floors.add(floor == 0)
            ceilings.add(ceiling == 0)
    # clamped and negative floors, empty and nonempty intersections
    assert floors == ceilings == {True, False}


def test_uniform_measure_is_exact():
    g = generate("star:4")
    m = edge_measure(g, 0)
    assert m.exact
    assert m.masses == (Fraction(1, 3),) * 3
    assert set(m.atoms) == set(edge_neighborhood(g, 0))
    assert sum(m.as_dict().values()) == 1


def test_weighted_measure_is_weight_proportional():
    base = generate("star:3")
    e0 = base.edge_ordinal("v0", "v1")
    wg = WeightedGraph(base, None, {("v0", "v2"): 3.0, ("v0", "v3"): 1.0})
    m = edge_measure(wg, e0)
    assert not m.exact
    table = m.as_dict()
    assert table[base.edge_ordinal("v0", "v2")] == pytest.approx(0.75)
    assert table[base.edge_ordinal("v0", "v3")] == pytest.approx(0.25)
    assert edge_degree(wg, e0) == pytest.approx(4.0)


def test_mixed_masses_make_a_float_measure():
    # a Fraction first and a float second is not exact; the transport
    # problem then works in floats instead of failing on float.denominator
    mixed = EdgeMeasure(0, (1, 2), (Fraction(1, 2), 0.5))
    assert not mixed.exact
    exact = EdgeMeasure(3, (2,), (Fraction(1),))
    cost = {(a, b): int(a != b) for a in (1, 2) for b in (1, 2)}
    problem = TransportProblem(mixed, exact, cost)
    assert not problem.exact and problem.scale == 1
    assert solve_wasserstein(problem).distance == pytest.approx(0.5)


def test_single_edge_measure_is_undefined():
    g = generate("path:2")
    with pytest.raises(IsolatedEdgeError):
        edge_measure(g, 0)


@given(st.integers(0, 200))
def test_edge_distance_is_a_metric(seed):
    g = generate("random:7:0.35", seed=seed)
    m = g.n_edges
    rows = [[edge_distance(g, e, f) for f in range(m)] for e in range(m)]
    for e in range(m):
        assert rows[e][e] == 0
        for f in range(m):
            assert rows[e][f] == rows[f][e]
            assert (rows[e][f] == 0) == (e == f)
            for k in range(m):
                assert rows[e][f] <= rows[e][k] + rows[k][f]


@given(st.integers(0, 100))
def test_adjacency_matches_distance_one(seed):
    g = generate("random:6:0.4", seed=seed)
    space = edge_space(g)
    for e in range(g.n_edges):
        for f in range(g.n_edges):
            if e != f:
                assert (f in space.shared_vertex[e]) == (edge_distance(g, e, f) == 1)
