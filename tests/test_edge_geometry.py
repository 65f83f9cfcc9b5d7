import heapq
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from edge_ricci import cli, transport
from edge_ricci.curvature import PairProblem, pair_bounds, pair_transport_problem, ricci_all_adjacent
from edge_ricci.edge_geometry import (
    EdgeMeasure,
    EdgeSpace,
    edge_distance,
    edge_measure,
    edge_space,
    pairwise_costs,
    shared_vertex,
    slicer,
)
from edge_ricci.errors import (
    IsolatedEdgeError,
    MetricCertificateError,
    NonpositiveWeightError,
    UnknownEdgeError,
)
from edge_ricci.graph_core import Graph, WeightedGraph, generate, parse_weighted
from edge_ricci.transport import TransportProblem, solve_wasserstein


def test_edge_space_on_k4():
    g = generate("complete:4")
    space = edge_space(g)
    assert space.degrees == (4,) * 6
    for e in range(6):
        assert e not in space.neighbors[e]
        for f in space.neighbors[e]:
            assert shared_vertex(g, e, f) == shared_vertex(g, f, e)
            assert e in space.neighbors[f]


def test_edge_degree_formula():
    # deg(x) + deg(y) - 2 for every edge of a lopsided tree
    g = Graph(["h", "a", "b", "c", "t"],
              [("h", "a"), ("h", "b"), ("h", "c"), ("c", "t")])
    space = edge_space(g)
    assert space.degrees[g.edge_ordinal("h", "a")] == 3 + 1 - 2
    assert space.degrees[g.edge_ordinal("h", "c")] == 3 + 2 - 2
    assert space.degrees[g.edge_ordinal("c", "t")] == 2 + 1 - 2
    assert space.neighbors[g.edge_ordinal("c", "t")] == (g.edge_ordinal("h", "c"),)


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
            degree = edge_space(base).degrees[e]
            assert type(degree) is int
            assert edge_space(wg).degrees[e] == pytest.approx(degree, abs=1e-12)
            exact, unit = edge_measure(base, e), edge_measure(wg, e)
            assert all(type(x) is Fraction for x in exact.masses)
            assert unit.atoms == exact.atoms
            assert unit.masses == pytest.approx([float(x) for x in exact.masses], abs=1e-12)
            for f in range(base.n_edges):
                hops = edge_distance(base, e, f)
                assert type(hops) is int
                assert edge_distance(wg, e, f) == pytest.approx(hops, abs=1e-12)
        unit = ricci_all_adjacent(wg)
        for (e, f), kappa in ricci_all_adjacent(base).items():
            assert type(kappa) is Fraction
            assert unit[(e, f)] == pytest.approx(float(kappa), abs=1e-12)
            floor, _, ceiling = pair_bounds(base, e, f)
            assert type(floor) is Fraction and type(ceiling) is Fraction
            unit_floor, unit_ceiling, _ = pair_bounds(wg, e, f)
            assert unit_floor == pytest.approx(float(floor), abs=1e-12)
            assert unit_ceiling == pytest.approx(float(ceiling), abs=1e-12)
            floors.add(floor == 0)
            ceilings.add(ceiling == 0)
    # clamped and negative floors, empty and nonempty intersections
    assert floors == ceilings == {True, False}


def test_uniform_measure_is_exact():
    g = generate("star:4")
    m = edge_measure(g, 0)
    assert m.exact
    assert m.masses == (Fraction(1, 3),) * 3
    assert set(m.atoms) == set(edge_space(g).neighbors[0])
    assert sum(m.masses) == 1


def test_weighted_measure_is_weight_proportional():
    base = generate("star:3")
    e0 = base.edge_ordinal("v0", "v1")
    wg = WeightedGraph(base, None, {("v0", "v2"): 3.0, ("v0", "v3"): 1.0})
    m = edge_measure(wg, e0)
    assert not m.exact
    table = dict(zip(m.atoms, m.masses))
    assert table[base.edge_ordinal("v0", "v2")] == pytest.approx(0.75)
    assert table[base.edge_ordinal("v0", "v3")] == pytest.approx(0.25)
    assert edge_space(wg).degrees[e0] == pytest.approx(4.0)


def test_mixed_masses_make_a_float_measure():
    # a Fraction first and a float second is not exact; the transport
    # problem then works in floats instead of failing on float.denominator
    mixed = EdgeMeasure(0, (1, 2), (Fraction(1, 2), 0.5))
    assert not mixed.exact
    exact = EdgeMeasure(3, (2,), (Fraction(1),))
    problem = TransportProblem(mixed, exact, (1, 2), ((0, 1), (1, 0)))
    assert not problem.exact and problem.scale == 1
    # every amount is a float mass, the exact measure's too
    assert [*problem.supply.values(), *problem.demand.values()] == [0.5, 0.5, 1.0]
    assert all(type(x) is float for x in (*problem.supply.values(), *problem.demand.values()))
    assert solve_wasserstein(problem).distance == pytest.approx(0.5)


def test_measure_exactness_is_a_field_set_once():
    m = EdgeMeasure(3, (2, 4), (Fraction(1, 2), Fraction(1, 2)))
    assert vars(m)["exact"] is True
    # not an argument, and no part of equality or repr
    assert m == EdgeMeasure(3, (2, 4), (Fraction(1, 2), Fraction(1, 2)))
    assert "exact" not in repr(m)
    with pytest.raises(TypeError):
        EdgeMeasure(3, (2,), (Fraction(1),), True)


@pytest.mark.parametrize("weighted", [False, True])
def test_cost_block_entries_are_edge_distances(weighted):
    base = generate("random:8:0.5", seed=3)
    g = base
    if weighted:
        # non-constant vertex weights, so distances are not hop counts
        g = WeightedGraph(base, {v: 0.5 + 0.25 * k for k, v in enumerate(base.labels)},
                          {base.edge_endpoints(e): 1.0 for e in range(base.n_edges)})
    atoms = (0, 2, 3, 7, base.n_edges - 1)
    rows = pairwise_costs(g, atoms)
    assert type(rows) is tuple and len(rows) == len(atoms)
    for a, row in zip(atoms, rows):
        assert row == tuple(edge_distance(g, a, b) for b in atoms)
        assert all(type(c) is (float if weighted else int) for c in row)


@pytest.mark.parametrize("atoms", [(3,), (0, 3)])
def test_small_cost_blocks_have_tuple_rows(atoms):
    # itemgetter of one position returns the bare entry, not a 1-tuple
    g = generate("random:8:0.5", seed=3)
    rows = pairwise_costs(g, atoms)
    assert rows == tuple(tuple(edge_distance(g, a, b) for b in atoms) for a in atoms)
    assert all(type(row) is tuple for row in rows)


def test_slicer_returns_a_tuple_for_any_number_of_positions():
    row = (5, 6, 7)
    assert [slicer(p)(row) for p in ((), (1,), (0, 2))] == [(), (6,), (5, 7)]


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
                assert (f in space.neighbors[e]) == (edge_distance(g, e, f) == 1)


@given(st.integers(0, 100))
def test_weighted_rows_are_symmetric_bitwise(seed):
    # every row entry is a min over one symmetric vertex metric, so no
    # summation order can tell d(e, f) from d(f, e)
    rng = random.Random(seed)
    base = generate("random:8:0.4", seed=seed)
    wg = WeightedGraph(base, {v: 10 ** rng.uniform(-3, 3) for v in base.labels},
                       {base.edge_endpoints(e): 1.0 for e in range(base.n_edges)})
    space = edge_space(wg)
    rows = [space.row(e) for e in range(wg.n_edges)]
    for e in range(wg.n_edges):
        for f in range(e):
            assert rows[e][f] == rows[f][e], (e, f)


@pytest.mark.parametrize("seed", range(4))
def test_vertex_metric_pushes_each_other_vertex_once_per_run(seed, monkeypatch):
    # no heap entry goes stale, so a run pushes each other vertex exactly
    # once, even at weights twelve decades apart
    rng = random.Random(seed)
    base = generate("random:12:0.4", seed=seed)
    wg = WeightedGraph(base, {v: 10 ** rng.uniform(-6, 6) for v in base.labels},
                       {base.edge_endpoints(e): 1.0 for e in range(base.n_edges)})
    pushes = []
    push = heapq.heappush
    monkeypatch.setattr(heapq, "heappush", lambda pq, item: pushes.append(item) or push(pq, item))
    edge_space(wg).row(0)  # builds the metric
    n = wg.n_vertices
    assert len(pushes) == n * (n - 1)
    assert sorted(Counter(y for _, y in pushes).values()) == [n - 1] * n


def _line_graph_rows(g):
    """Distance rows by the edge-path definition itself: one Dijkstra per
    edge over the line graph, each hop charged its connector's weight."""
    space = edge_space(g)
    rows = []
    for e in range(g.n_edges):
        dist = [math.inf] * g.n_edges
        dist[e] = 0.0
        pq = [(0.0, e)]
        while pq:
            d, a = heapq.heappop(pq)
            if d > dist[a]:
                continue
            for b in space.neighbors[a]:
                nd = d + space.vertex_weight[shared_vertex(g, a, b)]
                if nd < dist[b]:
                    dist[b] = nd
                    heapq.heappush(pq, (nd, b))
        rows.append(dist)
    return rows


def test_weighted_rows_match_line_graph_dijkstra(load_script):
    digest = load_script("output_digest")
    for family in digest.FAMILIES:
        for weights in ("random", "wide"):
            wg = parse_weighted(digest.weighted_document(family, weights))
            space = edge_space(wg)
            for e, want in enumerate(_line_graph_rows(wg)):
                assert list(space.row(e)) == pytest.approx(want, rel=1e-13, abs=0), (family, e)


def _digest_graphs(digest):
    """Every unweighted family of scripts/output_digest.py, and the four
    weighted documents of one of them."""
    graphs = [generate(family, seed=0) for family in digest.FAMILIES]
    graphs += [parse_weighted(digest.weighted_document("random:12:0.6", weights))
               for weights in digest.WEIGHTS]
    return graphs


def _units_before(mu, nu, exact):
    """A problem's (scale, supply, demand), read per mass as transport did
    before measures carried their own units."""
    scale = math.lcm(*{m.denominator for m in (*mu.masses, *nu.masses)}) if exact else 1

    def units(m):
        return m.numerator * (scale // m.denominator) if exact else float(m)

    return (scale, {a: units(m) for a, m in zip(mu.atoms, mu.masses)},
            {b: units(m) for b, m in zip(nu.atoms, nu.masses)})


def test_measure_units_are_its_masses_over_its_scale(load_script):
    for g in _digest_graphs(load_script("output_digest")):
        space = edge_space(g)
        for e in range(g.n_edges):
            if not space.neighbors[e]:
                continue  # the one-edge graph
            m = edge_measure(g, e)
            if m.exact:
                assert all(type(u) is int for u in m.units)
                assert [Fraction(u, m.scale) for u in m.units] == list(m.masses)
                assert sum(m.units) == m.scale
            else:
                assert m.scale == 1 and m.units == m.masses
                assert all(type(u) is float for u in m.units)
            for f in space.neighbors[e]:
                p = pair_transport_problem(g, e, f)
                scale, supply, demand = _units_before(p.mu, p.nu, p.exact)
                assert p.scale == scale
                for got, want in ((p.supply, supply), (p.demand, demand)):
                    assert list(got.items()) == list(want.items())
                    assert list(map(type, got.values())) == list(map(type, want.values()))


def test_an_exact_measure_off_one_names_its_sum():
    with pytest.raises(ValueError, match="measure sums to 5/6, not 1"):
        EdgeMeasure(0, (1, 2), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError, match="matching, nonempty atoms and masses"):
        EdgeMeasure(0, (1, 2), (Fraction(1),))


def _corrupting(monkeypatch, s, t, delta):
    """Patch EdgeSpace's Dijkstra runs to return P with P[s][t] moved by delta."""
    runs = EdgeSpace._shortest_paths

    def corrupt(space):
        metric = runs(space)
        metric[s][t] += delta
        return metric

    monkeypatch.setattr(EdgeSpace, "_shortest_paths", corrupt)


@pytest.mark.parametrize("delta", [-1, 1])
def test_metric_certificate_names_a_corrupted_entry(monkeypatch, delta):
    # On cycle:6, P(v0, v3) = 4: both ends and one vertex between them on
    # either side.  Bellman's equation at (v0, v3) reads its neighbours v2
    # and v4, which the corruption leaves at 3, so it gives 4 back
    g = generate("cycle:6")
    s, t = g.labels.index("v0"), g.labels.index("v3")
    space = edge_space(g)
    assert not space.certified
    space.row(0)
    assert space.certified and space._metric[s][t] == 4
    _corrupting(monkeypatch, s, t, delta)
    fresh = generate("cycle:6")
    with pytest.raises(MetricCertificateError,
                       match=rf"P\(v0, v3\) = {4 + delta} misses Bellman's equation, "
                             rf"which gives 4"):
        edge_space(fresh).row(0)
    assert not edge_space(fresh).certified


def test_verify_on_a_corrupted_metric_exits_2_with_one_error_line(monkeypatch, capsys):
    g = generate("complete:5")
    _corrupting(monkeypatch, 1, 3, 1)
    assert cli.run(["verify", "--family", "complete:5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: vertex metric P({g.labels[1]}, {g.labels[3]}) = 3 "
                                f"misses Bellman's equation, which gives 2"]


@pytest.mark.parametrize("family", ["complete:6", "petersen", "tree:15", "random:12:0.6"])
def test_exact_pair_problems_are_certified_and_their_blocks_valid(family):
    # a pair problem's block passes every check of a hand-built problem, and
    # the hand-built twin agrees on every field but the certificate
    g = generate(family, seed=1)
    for e, near in enumerate(edge_space(g).neighbors):
        for f in near:
            p = pair_transport_problem(g, e, f)
            twin = TransportProblem(p.mu, p.nu, p.atoms, p.rows)
            assert type(p) is PairProblem and p.certified and p.exact
            assert not twin.certified
            for name in ("position", "exact", "scale", "supply", "demand"):
                assert getattr(p, name) == getattr(twin, name), name


def test_a_weighted_space_is_not_certified_and_its_solves_walk(monkeypatch):
    base = generate("random:8:0.5", seed=3)
    wg = WeightedGraph(base, {v: 0.5 + 0.25 * k for k, v in enumerate(base.labels)},
                       {base.edge_endpoints(e): 1.0 for e in range(base.n_edges)})
    monkeypatch.setattr(EdgeSpace, "_certify", lambda space, metric: pytest.fail("certified"))
    walks = []
    walk = transport.lipschitz_excess
    monkeypatch.setattr(transport, "lipschitz_excess",
                        lambda problem, dual: walks.append(problem) or walk(problem, dual))
    solves = 0
    for e, near in enumerate(edge_space(wg).neighbors):
        for f in near:
            p = pair_transport_problem(wg, e, f)
            assert not p.certified and not p.exact
            solve_wasserstein(p)
            solves += 1
    assert not edge_space(wg).certified
    assert solves and len(walks) == solves
