"""Curvature values frozen from hand derivations.

Each pinned constant is derived in the comment next to it; the transport
optimum behind each one is independently confirmed by the transportation
simplex oracle in test_transport.py, so these constants double as regression
oracles for the whole measure -> cost -> solver pipeline.
"""

import collections
import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from edge_ricci import cli, curvature, edge_geometry, transport
from edge_ricci.curvature import (
    adjacent_minimum,
    edges_adjacent,
    pair_bounds,
    ricci,
    ricci_all_adjacent,
    ricci_all_pairs,
    transport_for_pair,
    tree_curvature_formula,
)
from edge_ricci.edge_geometry import edge_distance, edge_measure, edge_space
from edge_ricci.errors import (
    InvalidParameterError,
    NotAdjacentError,
    NotATreeError,
    SamePairError,
    TransportError,
    UnknownEdgeError,
)
from edge_ricci.graph_core import Graph, WeightedGraph, generate, parse_edgelist
from edge_ricci.rng import SplitMix64
from edge_ricci.verify import check_adjacent_pair_reduction, verification_report


def test_path3_is_flat():
    # both measures are point masses on the other edge; W = d = 1
    g = generate("path:3")
    kappa = ricci(g, 0, 1)
    assert kappa == 0 and type(kappa) is Fraction
    assert transport_for_pair(g, 0, 1).distance == 1 and edge_distance(g, 0, 1) == 1


def test_path4_end_edges_have_curvature_one():
    # both end edges load everything on the middle edge: identical measures
    # at distance 2
    g = generate("path:4")
    e0 = g.edge_ordinal("v0", "v1")
    e2 = g.edge_ordinal("v2", "v3")
    assert not edges_adjacent(g, e0, e2)
    assert edge_distance(g, e0, e2) == 2 and transport_for_pair(g, e0, e2).distance == 0
    assert ricci(g, e0, e2) == 1


@pytest.mark.parametrize("e, f", [(-1, 0), (0, -1), (2, 0), (0, 2)])
def test_edges_adjacent_rejects_ordinals_out_of_range(e, f):
    # -1 used to index the last edge's row, and 2 to raise a bare IndexError
    with pytest.raises(UnknownEdgeError):
        edges_adjacent(generate("path:3"), e, f)


def test_cycle4_opposite_edges():
    g = generate("cycle:4")
    e = g.edge_ordinal("v0", "v1")
    f = g.edge_ordinal("v2", "v3")
    assert ricci(g, e, f) == 1


def test_triangle_curvature_is_one_half():
    g = generate("complete:3")
    assert all(kappa == Fraction(1, 2) for kappa in ricci_all_adjacent(g).values())


@pytest.mark.parametrize("m,want", [(3, Fraction(1, 2)), (4, Fraction(2, 3)),
                                    (7, Fraction(5, 6)), (5, Fraction(3, 4))])
def test_star_curvature(m, want):
    g = generate(f"star:{m}")
    assert all(kappa == want for kappa in ricci_all_adjacent(g).values())


def test_bipartite_2_3_depends_on_shared_vertex():
    g = generate("bipartite:2:3")
    # v0, v1 have degree 3; v2, v3, v4 have degree 2
    via_left = ricci(g, g.edge_ordinal("v0", "v2"), g.edge_ordinal("v0", "v3"))
    via_right = ricci(g, g.edge_ordinal("v0", "v2"), g.edge_ordinal("v1", "v2"))
    assert via_left == Fraction(1, 3)   # (3 - 2)/(2 + 3 - 2)
    assert via_right == 0               # (2 - 2)/(2 + 3 - 2)


def test_pair_argument_validation():
    g = generate("path:4")
    with pytest.raises(SamePairError):
        ricci(g, 1, 1)
    with pytest.raises(NotAdjacentError):
        tree_curvature_formula(g, 0, 2)
    assert adjacent_minimum(generate("path:2")) is None


_PAIR_ARGS = [(1, 1), (9, 9), (0, 9), (9, 0), (-1, 0), (0, -1), (0, 2)]
_UNKNOWN_9 = (UnknownEdgeError, "edge ordinal 9 out of range (0..2)")
_UNKNOWN_MINUS_1 = (UnknownEdgeError, "edge ordinal -1 out of range (0..2)")
_SOLVE_ERRORS = [(SamePairError, "curvature needs two distinct edges, got 1 twice"),
                 (SamePairError, "curvature needs two distinct edges, got 9 twice"),
                 _UNKNOWN_9, _UNKNOWN_9, _UNKNOWN_MINUS_1, _UNKNOWN_MINUS_1, None]
# the first error of each pair function on each of _PAIR_ARGS on path:4, as
# (type, message), or None where the call returns
_PRECEDENCE = {
    # ricci checks both ordinals before it asks for two distinct edges
    ricci: [_SOLVE_ERRORS[0], _UNKNOWN_9, *_SOLVE_ERRORS[2:]],
    curvature.pair_transport_problem: _SOLVE_ERRORS,
    transport_for_pair: _SOLVE_ERRORS,
    pair_bounds: [(SamePairError, "need two distinct edges, got 1 twice"),
                  (SamePairError, "need two distinct edges, got 9 twice"),
                  _UNKNOWN_9, _UNKNOWN_9, _UNKNOWN_MINUS_1, _UNKNOWN_MINUS_1,
                  (NotAdjacentError, "edges v0-v1 and v2-v3 share no vertex")],
}


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("fn", list(_PRECEDENCE), ids=lambda fn: fn.__name__)
def test_pair_errors_keep_their_precedence(fn, warm):
    # on a fresh graph, and on one whose table, measures and rows are built
    for (e, f), want in zip(_PAIR_ARGS, _PRECEDENCE[fn], strict=True):
        g = generate("path:4")
        if warm:
            ricci_all_adjacent(g)
            ricci(g, 0, 2)
        if want is None:
            fn(g, e, f)
            continue
        with pytest.raises(want[0]) as info:
            fn(g, e, f)
        assert (type(info.value), str(info.value)) == want, (e, f)


# ------------------------------------------------------------------ bounds

def test_k4_bounds_bracket_the_value():
    g = generate("complete:4")
    k = ricci(g, 0, 1)
    floor, ceiling, intersection = pair_bounds(g, 0, 1)
    assert floor == -1                  # -2 (1 - 1/4 - 1/4)
    assert ceiling == Fraction(3, 2)    # all 6 edges / 4
    assert intersection == Fraction(1, 2)
    assert all(type(x) is Fraction for x in (floor, ceiling, intersection))
    assert floor <= k <= ceiling
    with pytest.raises(NotAdjacentError):
        pair_bounds(generate("path:4"), 0, 2)
    with pytest.raises(SamePairError):
        pair_bounds(g, 1, 1)


def test_cycle_bounds_pin_the_value_to_zero():
    # both neighborhoods are single edges: the floor clamps at 0 and the
    # union ceiling counts the 4 edges {e, f, g, h} over max degree 2
    g = generate("cycle:4")
    e = g.edge_ordinal("v0", "v1")
    f = g.edge_ordinal("v1", "v2")
    floor, ceiling, intersection = pair_bounds(g, e, f)
    assert floor == 0
    assert ceiling == 2
    # an empty pool: an exact zero, so the report's tolerance stays 0
    assert intersection == 0 and type(intersection) is Fraction
    assert ricci(g, e, f) == 0


def test_weighted_bounds():
    base = generate("cycle:4")
    e = base.edge_ordinal("v0", "v1")
    f = base.edge_ordinal("v1", "v2")
    heavy = WeightedGraph(base, None, {("v0", "v3"): 5.0, ("v2", "v3"): 5.0})
    floor, ceiling, intersection = pair_bounds(heavy, e, f)
    # floor: -2 (1 - w(f)/d_e - w(e)/d_f)+ with weighted degrees;
    # d_e = w(v0v3) + w(v1v2) = 6, d_f = w(v0v1) + w(v2v3) = 6
    assert floor == pytest.approx(-2 * (1 - 1 / 6 - 1 / 6))
    assert ceiling == pytest.approx(0.0)  # disjoint neighborhoods
    assert intersection is None
    # when the bracket goes negative the positive part clamps the floor at 0
    clamped, _, _ = pair_bounds(WeightedGraph(base, None, {("v0", "v1"): 2.0}), e, f)
    assert clamped == 0.0
    assert math.copysign(1.0, clamped) == 1.0  # not -0.0


def test_weighted_ceiling_is_none_without_constant_vertex_weights():
    base = generate("cycle:4")
    e = base.edge_ordinal("v0", "v1")
    f = base.edge_ordinal("v1", "v2")
    floor, ceiling, intersection = pair_bounds(WeightedGraph(base, {"v0": 3.0}), e, f)
    assert floor == 0.0 and type(floor) is float
    assert ceiling is None and intersection is None


# ------------------------------------------------------- tree formula

def _spider():
    return Graph(
        ["h", "a1", "b1", "a2", "b2", "a3", "b3"],
        [("h", "a1"), ("a1", "b1"), ("h", "a2"), ("a2", "b2"),
         ("h", "a3"), ("a3", "b3")],
    )


def test_tree_formula_matches_on_internal_pairs():
    # hub pair of the 3-leg spider: both non-shared endpoints are internal
    g = _spider()
    e = g.edge_ordinal("h", "a1")
    f = g.edge_ordinal("h", "a2")
    assert tree_curvature_formula(g, e, f) == Fraction(1, 3)
    assert ricci(g, e, f) == Fraction(1, 3)


def test_tree_formula_overshoots_on_leaf_pairs():
    # leg pair: m_f is a point mass on e itself, so everything m_e holds is
    # one hop from home and kappa = 0; the formula still reports 2/3
    g = _spider()
    e = g.edge_ordinal("h", "a1")
    f = g.edge_ordinal("a1", "b1")
    assert tree_curvature_formula(g, e, f) == Fraction(2, 3)
    assert ricci(g, e, f) == 0


def test_tree_formula_rejects_non_trees_and_weighted():
    with pytest.raises(NotATreeError):
        tree_curvature_formula(generate("cycle:5"), 0, 1)
    with pytest.raises(InvalidParameterError):
        tree_curvature_formula(WeightedGraph(generate("path:4")), 0, 1)


# -------------------------------------------------------- whole-graph ops

def test_adjacent_minimum_is_the_all_pairs_minimum():
    g = generate("complete:4")
    assert adjacent_minimum(g) == (Fraction(1, 2), (0, 1))
    assert min(kappa for _, kappa in ricci_all_pairs(g)) == Fraction(1, 2)
    c4 = generate("cycle:4")
    assert adjacent_minimum(c4)[0] == 0
    # opposite pairs sit at +1, min stays 0
    assert min(kappa for _, kappa in ricci_all_pairs(c4)) == 0


def test_all_adjacent_table_is_complete_and_keyed_low_high():
    g = generate("star:4")
    table = ricci_all_adjacent(g)
    assert len(table) == 6  # C(4, 2) leg pairs
    assert all(e < f for e, f in table)


@pytest.mark.parametrize("kind", ["unweighted", "weighted", "reversed"])
def test_adjacent_table_keys_ascend_as_built(kind):
    # callers iterate the table as it is, without sorting it
    g = generate("random:9:0.5", seed=5)
    if kind == "weighted":
        g = _random_weights(g, 5)
    elif kind == "reversed":
        lines = [f"{u} {v}\n" for u, v in map(g.edge_endpoints, range(g.n_edges))]
        g = parse_edgelist("".join(reversed(lines)))
    table = ricci_all_adjacent(g)
    assert len(table) > 1 and list(table) == sorted(table)


def test_adjacent_table_is_built_once_per_graph():
    g = generate("petersen")
    table = ricci_all_adjacent(g)
    assert ricci_all_adjacent(g) is table
    assert len(list(ricci_all_pairs(g))) == math.comb(15, 2)
    assert ricci_all_adjacent(g) is table
    assert len(table) == 30  # no non-adjacent pair is added to the table


def _weighted_circulant(g):
    return WeightedGraph(g, {"v0": 2.0},
                         {g.edge_endpoints(e): 1.0 + e / 10 for e in range(g.n_edges)})


def test_weighted_and_base_graph_keep_separate_tables():
    # weighted first, then the base graph
    base = generate("circulant:8:1,2")
    weighted = ricci_all_adjacent(_weighted_circulant(base))
    plain = ricci_all_adjacent(base)
    assert plain is not weighted and plain.keys() == weighted.keys()
    assert all(isinstance(kappa, float) for kappa in weighted.values())
    assert all(isinstance(kappa, Fraction) for kappa in plain.values())
    # base graph first, then a weighted graph over it
    base = generate("circulant:8:1,2")
    plain = ricci_all_adjacent(base)
    weighted = ricci_all_adjacent(_weighted_circulant(base))
    assert all(isinstance(kappa, Fraction) for kappa in plain.values())
    assert all(isinstance(kappa, float) for kappa in weighted.values())
    assert any(weighted[k] != plain[k] for k in plain)


def _count_transport_solves(monkeypatch):
    # a pair's kappa comes from residual_cost, a pair's plan and dual from
    # solve_wasserstein: both count as the pair's solve
    calls = []
    for name in ("solve_wasserstein", "residual_cost"):
        def counting(problem, solve=getattr(curvature, name)):
            calls.append((problem.mu.owner, problem.nu.owner))
            return solve(problem)

        monkeypatch.setattr(curvature, name, counting)
    return calls


def test_report_solves_each_adjacent_pair_once(monkeypatch):
    # the all-pairs check reads the adjacent minimum and solves nothing more,
    # and the per-graph state its pairs read is built once: each edge's
    # measure once, each distance row at most once
    calls = _count_transport_solves(monkeypatch)
    measures, rows = collections.Counter(), collections.Counter()
    build, row = edge_geometry._build_measure, edge_geometry.EdgeSpace.row

    def counting_build(g, e):
        measures[e] += 1
        return build(g, e)

    def counting_row(space, e):
        if e not in space._rows:
            rows[e] += 1
        return row(space, e)

    monkeypatch.setattr(edge_geometry, "_build_measure", counting_build)
    monkeypatch.setattr(edge_geometry.EdgeSpace, "row", counting_row)
    g = generate("petersen")  # not a tree, m = 15
    verification_report(g)
    assert sorted(calls) == sorted(ricci_all_adjacent(g))
    assert len(calls) == 30 < math.comb(g.n_edges, 2)
    assert measures == dict.fromkeys(range(g.n_edges), 1)
    assert rows and set(rows.values()) == {1}


def test_weighted_report_solves_each_adjacent_pair_once(monkeypatch):
    calls = _count_transport_solves(monkeypatch)
    wg = _weighted_circulant(generate("circulant:8:1,2"))
    verification_report(wg)
    assert sorted(calls) == sorted(ricci_all_adjacent(wg))
    assert len(calls) < math.comb(wg.n_edges, 2)


def test_all_pairs_command_solves_each_edge_pair_once(monkeypatch, capsys):
    calls = _count_transport_solves(monkeypatch)
    assert cli.run(["curvature", "--family", "petersen", "--all-pairs",
                    "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    m = generate("petersen").n_edges
    assert len(rows) == len(calls) == len(set(calls)) == m * (m - 1) // 2


def test_all_pairs_walk_reuses_the_adjacent_table():
    g = generate("cycle:5")
    table = ricci_all_adjacent(g)
    pairs = list(ricci_all_pairs(g))
    m = g.n_edges
    assert [key for key, _ in pairs] == [(e, f) for e in range(m) for f in range(e + 1, m)]
    assert all(kappa is table[key] for key, kappa in pairs if key in table)
    assert all(kappa == ricci(g, *key) for key, kappa in pairs)
    assert ricci_all_adjacent(g) is table and len(table) == 5


@pytest.mark.parametrize("family,seed", [("cycle:4", 0), ("complete:6", 0), ("petersen", 0),
                                         ("star:6", 0), ("tree:15", 0), ("random:12:0.6", 0),
                                         ("random:12:0.6", 1), ("random:12:0.6", 2)])
def test_residual_curvature_equals_the_full_solve_and_the_oracle(family, seed):
    # an exact pair's kappa comes from its residual LP alone; on every pair,
    # adjacent or not (cycle:4's opposite edges leave an empty residual),
    # it is kappa from the full-support solve and from the oracle, exactly
    g = generate(family, seed=seed)
    for e in range(g.n_edges):
        for f in range(e + 1, g.n_edges):
            d = edge_distance(g, e, f)
            problem = curvature.pair_transport_problem(g, e, f)
            assert problem.certified
            kappa = ricci(g, e, f)
            assert kappa == 1 - transport_for_pair(g, e, f).distance / d
            assert kappa == 1 - transport.brute_force_wasserstein(problem) / d


# ------------------------------------ the adjacent minimum bounds all pairs

@given(st.integers(0, 200), st.booleans())
def test_weighted_glued_minimum_is_the_adjacent_minimum(seed, constant_vertices):
    # the triangle inequality for W, in floats: the reduction reports the
    # adjacent minimum for all pairs, and solving every pair finds nothing
    # below it beyond rounding
    base = generate("random:7:0.5", seed=seed)
    wg = _random_weights(base, seed)
    if constant_vertices:
        edges = map(base.edge_endpoints, range(base.n_edges))
        wg = WeightedGraph(base, {v: 1.5 for v in base.labels},
                           dict(zip(edges, wg.edge_weights)))
    chk = check_adjacent_pair_reduction(wg)
    assert chk.lhs == chk.rhs == adjacent_minimum(wg)[0]
    assert min(kappa for _, kappa in ricci_all_pairs(wg)) >= chk.rhs - 1e-9


def test_vertex_weights_below_an_ulp_of_the_distances_fall_back_to_solves(monkeypatch):
    # hops through the 1e-20 vertices vanish in the float distances, so a
    # geodesic's hop distances need not sum to d(e, f) in the last bits;
    # the reduction still solves only the 6 adjacent pairs, and the oracle
    # that solves the 9 others finds nothing below the adjacent minimum
    base = generate("cycle:6")
    wg = WeightedGraph(base, {v: 1e-20 if k % 2 else 1.0 for k, v in enumerate(base.labels)},
                       {base.edge_endpoints(e): 1.0 for e in range(base.n_edges)})
    calls = _count_transport_solves(monkeypatch)
    chk = check_adjacent_pair_reduction(wg)
    assert sorted(calls) == sorted(ricci_all_adjacent(wg)) and len(calls) == 6
    assert chk.holds and chk.lhs == chk.rhs == adjacent_minimum(wg)[0]
    assert min(kappa for _, kappa in ricci_all_pairs(wg)) >= chk.rhs - 1e-9
    assert len(set(calls)) == len(calls) == math.comb(6, 2)


@given(st.integers(0, 150))
def test_bounds_bracket_everywhere(seed):
    g = generate("random:7:0.4", seed=seed)
    for (e, f), kappa in ricci_all_adjacent(g).items():
        assert isinstance(kappa, Fraction)
        assert kappa <= 1
        floor, ceiling, _ = pair_bounds(g, e, f)
        assert floor <= kappa <= ceiling
        assert transport_for_pair(g, e, f).gap == 0


@given(st.integers(3, 8), st.sampled_from([0.3, 0.5, 0.7, 0.9]), st.integers(0, 10**6))
def test_unweighted_curvature_keeps_the_jost_liu_triangle_bracket(n, p, seed):
    # Unweighted edge curvature is the Ollivier curvature, with no idleness,
    # of the line graph, so J. Jost and S. Liu, Discrete Comput. Geom. 51
    # (2014) 300-322, Thms. 3 and 4, bracket it by the triangle count
    # # = |Gamma(e) n Gamma(f)|, exactly and with no code of the solver
    g = generate(f"random:{n}:{p}", seed=seed)
    space = edge_space(g)
    for (e, f), kappa in ricci_all_adjacent(g).items():
        d_e, d_f = space.degrees[e], space.degrees[f]
        lo, hi = min(d_e, d_f), max(d_e, d_f)
        shared = len(set(space.neighbors[e]) & set(space.neighbors[f]))
        base = 1 - Fraction(1, d_e) - Fraction(1, d_f)
        floor = (-max(base - Fraction(shared, lo), 0) - max(base - Fraction(shared, hi), 0)
                 + Fraction(shared, hi))
        assert floor <= kappa <= Fraction(shared, hi), (e, f)


@given(st.integers(0, 150))
def test_curvature_is_symmetric(seed):
    g = generate("random:6:0.4", seed=seed)
    for e in range(min(3, g.n_edges)):
        for f in range(e + 1, min(4, g.n_edges)):
            assert ricci(g, e, f) == ricci(g, f, e)


@given(st.integers(0, 29))
def test_weighted_curvature_is_symmetric_bitwise(seed):
    # the solver sums a plan's cost in source order, so solving (f, e) apart
    # from (e, f) would move kappa's last bits; one orientation moves none
    wg = _random_weights(generate("random:10:0.4", seed=seed), 1000 + seed)
    for (e, f), kappa in ricci_all_adjacent(wg).items():
        assert ricci(wg, f, e) == kappa


@pytest.mark.parametrize("weighted", [False, True])
def test_a_curvature_is_a_fraction_unweighted_and_a_float_weighted(weighted):
    # the table, ricci in both orientations and the all-pairs walk give the
    # same number, of the one type the input's kind fixes
    base = generate("random:8:0.5", seed=3)
    g = _random_weights(base, 1003) if weighted else base
    kind = float if weighted else Fraction
    table = ricci_all_adjacent(g)
    for (e, f), kappa in ricci_all_pairs(g):
        assert type(kappa) is kind
        assert ricci(g, e, f) == ricci(g, f, e) == kappa
        assert table.get((e, f), kappa) == kappa
    assert all(type(kappa) is kind for kappa in table.values())


def test_the_adjacent_table_keeps_numbers_alone():
    # with the distance rows and the measures warm, the table of complete:8
    # (168 pairs) retains about 18 KiB; with each pair's transport kept it
    # retained 327 KiB.  The full collection empties the free lists, whose
    # blocks tracemalloc would count as live
    g = generate("complete:8")
    space = edge_space(g)
    for e in range(g.n_edges):
        space.row(e)
        edge_measure(g, e)
    tracemalloc.start()
    try:
        ricci_all_adjacent(g)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


# ------------------------------------------------------------ weight scaling

def _random_weights(base, seed, vertex_scale=1.0, edge_scale=1.0):
    """Weights in [0.5, 2) from SplitMix64(seed), vertices first, then edges."""
    rng = SplitMix64(seed)
    vw = {v: vertex_scale * (0.5 + 1.5 * rng.uniform()) for v in base.labels}
    ew = {base.edge_endpoints(e): edge_scale * (0.5 + 1.5 * rng.uniform())
          for e in range(base.n_edges)}
    return WeightedGraph(base, vw, ew)


def _assert_same_kappas(table, reference):
    assert table.keys() == reference.keys()
    for key, kappa in reference.items():
        assert math.isclose(table[key], kappa, rel_tol=1e-9, abs_tol=1e-9)


def test_large_vertex_weights_keep_the_float_certificate():
    # at vertex weights near 1e8 rounding leaves a duality gap near 4.5e-8:
    # 1e-16 of the cost scale, but over an absolute 1e-9 bound
    base = generate("random:8:0.4", seed=3)
    reference = ricci_all_adjacent(_random_weights(base, 11))
    for scale in (1e8, 1e12):
        scaled = ricci_all_adjacent(_random_weights(base, 11, vertex_scale=scale))
        _assert_same_kappas(scaled, reference)


@given(st.integers(0, 30), st.integers(-8, 12), st.booleans())
def test_curvature_is_invariant_under_weight_scaling(seed, exponent, vertices):
    # W and d scale together with the vertex weights; the measures do not
    # change with the edge weights
    base = generate("random:6:0.5", seed=seed)
    scale = 10.0 ** exponent
    if vertices:
        scaled = _random_weights(base, seed, vertex_scale=scale)
    else:
        scaled = _random_weights(base, seed, edge_scale=scale)
    _assert_same_kappas(ricci_all_adjacent(scaled),
                        ricci_all_adjacent(_random_weights(base, seed)))


def _wide_weights(base, rng, span, vertex_scale=1.0):
    """Weights 10**U(-span, span) from rng, vertices in label order, then
    edges in ordinal order; the vertex weights times vertex_scale."""
    vw = {v: vertex_scale * 10 ** rng.uniform(-span, span) for v in base.labels}
    ew = {base.edge_endpoints(e): 10 ** rng.uniform(-span, span)
          for e in range(base.n_edges)}
    return WeightedGraph(base, vw, ew)


def test_weights_twelve_decades_wide_keep_the_float_certificate():
    # One draw sequence runs through the graphs.  The rounding error of a
    # reduced cost grows with the potentials, which reach the largest cost;
    # measured against each arc's own cost, complementary slackness failed
    # on graphs 12 and 146
    rng = random.Random(1)
    for k in range(147):
        g = _wide_weights(generate("random:8:0.5", seed=k), rng, 6)
        if k in (12, 146):
            assert all(math.isfinite(kappa) for kappa in ricci_all_adjacent(g).values())


@pytest.mark.parametrize("seed", [7, 36])
def test_power_of_two_vertex_scaling_changes_no_bit(seed):
    # Scaling the vertex weights by 2**k is exact in binary64: it scales
    # every distance and every cost exactly, so a solver whose decisions are
    # all scale-free gives every kappa to the last bit.  At seed 36 the
    # certificate once failed from k = 10 on ("complementary slackness
    # violated ... -0.125" at k = 40)
    base = generate("random:8:0.5", seed=seed)

    def kappas(k):
        g = _wide_weights(base, random.Random(seed), 3, vertex_scale=2.0 ** k)
        return dict(ricci_all_adjacent(g))

    reference = kappas(0)
    for k in range(-30, 41):
        assert kappas(k) == reference, k


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_float_certificate_tolerance_follows_the_largest_cost(monkeypatch, k):
    # The accepted Lipschitz excess and duality gap are 1e-9 times the
    # largest cost at every scale of the weights.  With a floor of 1 on
    # that scale, at k = -40 (largest cost 4.6e-10, W = 3.9e-10) an excess
    # of 1e-8 of the largest cost passed, and so did a dual objective of 0,
    # a gap as large as the distance
    # a hand-built problem over the pair's rows: its costs are not a
    # certified metric, so its solve walks the Lipschitz bound
    g = _wide_weights(generate("random:8:0.5", seed=36), random.Random(36), 3,
                      vertex_scale=2.0 ** k)
    pair = curvature.pair_transport_problem(g, 0, 1)
    problem = transport.TransportProblem(pair.mu, pair.nu, pair.atoms, pair.rows)
    assert not problem.certified
    cmax = max(map(max, problem.rows))
    for c in (1e-10, 1e-8):
        monkeypatch.setattr(transport, "lipschitz_excess", lambda p, dual: c * cmax)
        if c < 1e-9:
            transport.solve_wasserstein(problem)
        else:
            with pytest.raises(TransportError, match="breaks the Lipschitz bound"):
                transport.solve_wasserstein(problem)
    monkeypatch.undo()
    monkeypatch.setattr(transport, "dual_objective", lambda p, dual: 0)
    with pytest.raises(TransportError, match="duality gap"):
        transport.solve_wasserstein(problem)


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_float_residual_tolerance_follows_the_largest_cost(monkeypatch, k):
    # The residual certificate's float tolerances follow the largest cost
    # too: source 0's potential moved by c times it, after the loop, passes
    # below 1e-10 (slackness and dual feasibility) and 1e-9 (the gap) and
    # fails above, at every scale of the weights; a flow amount moved off
    # its arc passes below the marginals' 1e-12 and fails above
    g = _wide_weights(generate("random:8:0.5", seed=36), random.Random(36), 3,
                      vertex_scale=2.0 ** k)
    problem = curvature.pair_transport_problem(g, 0, 1)
    assert problem.certified and not problem.exact
    cmax, w = max(map(max, problem.rows)), transport.residual_cost(problem)
    loop = transport._primal_dual

    def moving(c, amount=0.0):
        def planted(cost, supply, demand, *rest):
            flow, phi = loop(cost, supply, demand, *rest)
            phi[0] += c * cmax
            flow[0][next(j for j, x in enumerate(flow[0]) if x)] -= amount
            return flow, phi
        monkeypatch.setattr(transport, "_primal_dual", planted)

    for c, amount in ((1e-11, 0.0), (-1e-11, 0.0), (0.0, 1e-13)):
        moving(c, amount)
        assert transport.residual_cost(problem) == pytest.approx(w, rel=1e-12)
    for c, amount, what in ((1e-9, 0.0, "complementary slackness violated on arc"),
                            (-1e-9, 0.0, "reduced cost .* < .* on arc"),
                            (1e-6, 0.0, "flow cost .* != dual objective"),
                            (0.0, 1e-11, "invalid flow: row sums")):
        moving(c, amount)
        with pytest.raises(TransportError, match=r"residual \d+x\d+: " + what):
            transport.residual_cost(problem)


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_a_pair_problem_and_its_hand_built_twin_share_one_tolerance_scale(k):
    # Both problem types read largest_cost through their own costs, one
    # slicing the space's distance rows and the other the block: the same
    # maximum, so the same float thresholds, and the certified residual W
    # is the twin's full solve to the last bit at every scale
    g = _wide_weights(generate("random:8:0.5", seed=36), random.Random(36), 3,
                      vertex_scale=2.0 ** k)
    for e in range(g.n_edges):
        for f in range(e + 1, g.n_edges):
            p = curvature.pair_transport_problem(g, e, f)
            twin = transport.TransportProblem(p.mu, p.nu, p.atoms, p.rows)
            assert not p.exact and p.certified and not twin.certified
            assert type(p.largest_cost) is type(twin.largest_cost) is float
            assert p.largest_cost == twin.largest_cost
            w = transport.solve_wasserstein(twin).distance
            assert transport.residual_cost(p).hex() == w.hex()


@given(st.integers(0, 200), st.sampled_from(["unit", "wide"]), st.integers(-40, 40))
def test_float_residual_distance_is_the_full_solves_to_the_last_bit(seed, kind, k):
    # a float pair's kappa comes from its residual LP, with the full solve's
    # settings and its left fold of the flow's cost, so every W and every
    # kappa keeps its bits, on every pair, adjacent or not, at every 2**k
    base = generate("random:7:0.5", seed=seed)
    if kind == "unit":
        g = _random_weights(base, seed, vertex_scale=2.0 ** k)
    else:
        g = _wide_weights(base, random.Random(seed), 6, vertex_scale=2.0 ** k)
    for e in range(g.n_edges):
        for f in range(e + 1, g.n_edges):
            problem = curvature.pair_transport_problem(g, e, f)
            assert problem.certified and not problem.exact
            w = transport.solve_wasserstein(problem).distance
            assert transport.residual_cost(problem).hex() == w.hex()
            assert ricci(g, e, f).hex() == (1 - w / edge_distance(g, e, f)).hex()
