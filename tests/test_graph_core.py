import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from edge_ricci.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EmptyInputError,
    FormatError,
    InvalidParameterError,
    NonpositiveWeightError,
    SelfLoopError,
    UnknownEdgeError,
    UnknownVertexError,
)
import edge_ricci
from edge_ricci.graph_core import (
    Graph,
    WeightedGraph,
    derived,
    generate,
    is_tree,
    parse_edgelist,
    parse_weighted,
    serialize_edgelist,
    serialize_weighted,
)
from edge_ricci.rng import SplitMix64


def test_construction_basics():
    g = Graph(["a", "b", "c"], [("a", "b"), ("c", "b")])
    assert g.n_vertices == 3 and g.n_edges == 2
    # b is index 1, at edges a-b (0) and b-c (1)
    assert g.incident == ((0,), (0, 1), (1,))
    assert g.edge_endpoints(g.edge_ordinal("b", "a")) == ("a", "b")
    assert g.edge_name(0) == "a-b"


def test_edges_are_canonically_ordered():
    g = Graph(["x", "y", "z"], [("z", "y"), ("y", "x")])
    # ordinals follow sorted index pairs regardless of input order
    assert [g.edge_endpoints(e) for e in range(2)] == [("x", "y"), ("y", "z")]


def test_construction_rejections():
    with pytest.raises(SelfLoopError):
        Graph(["a"], [("a", "a")])
    with pytest.raises(DuplicateEdgeError):
        Graph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(DisconnectedError):
        Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(EmptyInputError):
        Graph([], [])
    with pytest.raises(EmptyInputError, match="graph needs at least one edge"):
        Graph(["a"], [])
    with pytest.raises(FormatError):
        Graph(["a", "b c"], [("a", "b c")])
    with pytest.raises(UnknownEdgeError, match=r"ordinal 99 out of range \(0\.\.3\)"):
        generate("cycle:4").edge_endpoints(99)
    with pytest.raises(DuplicateEdgeError, match="vertex label 'a' listed twice"):
        Graph(["a", "b", "a"], [("a", "b")])
    with pytest.raises(UnknownVertexError, match="edge endpoint 'c' not in vertex list"):
        Graph(["a", "b"], [("a", "c")])
    with pytest.raises(UnknownVertexError, match="edge endpoint 'c' not in vertex list"):
        Graph(["a", "b"], [("c", "a")])
    with pytest.raises(UnknownVertexError, match="vertex 'nope' not in graph"):
        generate("cycle:4").edge_ordinal("v0", "nope")
    with pytest.raises(UnknownVertexError, match="vertex 'nope' not in graph"):
        generate("cycle:4").edge_ordinal("nope", "v0")
    with pytest.raises(UnknownEdgeError, match="no edge 'v0' 'v2'"):
        generate("cycle:4").edge_ordinal("v0", "v2")


@pytest.mark.parametrize("spec", ["petersen", "random:12:0.6"])
def test_edge_ordinal_finds_every_edge_from_either_end(spec):
    g = generate(spec)
    for e in range(g.n_edges):
        u, v = g.edge_endpoints(e)
        assert g.edge_ordinal(u, v) == g.edge_ordinal(v, u) == e
    u, v = next((u, v) for u in g.labels for v in g.labels
                if u != v and not any(sum(g.edges[k]) - g.index[u] == g.index[v]
                                      for k in g.incident[g.index[u]]))
    with pytest.raises(UnknownEdgeError, match=f"no edge '{u}' '{v}'"):
        g.edge_ordinal(u, v)
    with pytest.raises(UnknownEdgeError, match=f"no edge '{u}' '{u}'"):
        g.edge_ordinal(u, u)


def test_parse_serialize_round_trip():
    text = "a b\nb c # comment\n\n# full comment line\nc d\r\n"
    g = parse_edgelist(text)
    assert g.n_edges == 3
    again = parse_edgelist(serialize_edgelist(g))
    assert again.labels == g.labels and again.edges == g.edges


@pytest.mark.parametrize("bad", ["", "   \n# only comments\n", "a b c\n", "a a\n"])
def test_parse_edgelist_rejects(bad):
    with pytest.raises((EmptyInputError, FormatError, SelfLoopError)):
        parse_edgelist(bad)


def test_weighted_document_round_trip():
    base = generate("cycle:4")
    wg = WeightedGraph(
        base,
        {"v0": 2.0},
        {("v0", "v1"): 0.25},
    )
    doc = serialize_weighted(wg)
    back = parse_weighted(doc)
    # vertex indices may be reassigned by first appearance; labels must agree
    def label_pairs(g):
        return sorted(tuple(sorted(g.edge_endpoints(e))) for e in range(g.n_edges))
    assert label_pairs(back) == label_pairs(base)
    assert back.vertex_weights[back.index["v0"]] == 2.0
    assert back.vertex_weights[back.index["v1"]] == 1.0
    assert back.edge_weights[back.edge_ordinal("v0", "v1")] == 0.25
    # document is valid JSON with the documented shape
    shape = json.loads(doc)
    assert set(shape) == {"edges", "vertex_weights"}


def test_weighted_rejections():
    base = generate("cycle:4")
    with pytest.raises(NonpositiveWeightError):
        WeightedGraph(base, {"v0": 0.0})
    with pytest.raises(NonpositiveWeightError):
        WeightedGraph(base, None, {("v0", "v1"): -1.0})
    with pytest.raises(UnknownVertexError):
        WeightedGraph(base, {"nope": 1.0})
    # both keys name the edge v0-v1; the last weight used to win
    with pytest.raises(DuplicateEdgeError, match="edge 'v1' 'v0' weighted twice"):
        WeightedGraph(generate("path:3"), {}, {("v0", "v1"): 1.0, ("v1", "v0"): 2.0})
    for not_a_number in (True, "2.5", b"2.5"):
        with pytest.raises(NonpositiveWeightError, match="is not a number"):
            WeightedGraph(base, {"v0": not_a_number})
    with pytest.raises(FormatError):
        parse_weighted("not json")
    with pytest.raises(EmptyInputError):
        parse_weighted('{"edges": []}')


def test_constant_vertex_weight_predicate():
    base = generate("cycle:4")
    assert WeightedGraph(base).constant_vertex_weights
    assert not WeightedGraph(base, {"v0": 1.5}).constant_vertex_weights


def test_a_weighted_graph_is_a_graph_equal_only_to_itself():
    base = generate("cycle:4")
    wg = WeightedGraph(base, {"v0": 2.0})
    assert isinstance(wg, Graph)
    assert (wg.labels, wg.edges) == (base.labels, base.edges)
    assert wg.incident is base.incident
    assert wg != base and base != wg
    twin = WeightedGraph(base, {"v0": 2.0})
    assert wg == wg and wg != twin
    assert len({base, wg, twin}) == 3
    assert (base == 3) is False  # Graph.__eq__ defers to int, then identity
    assert repr(base) == "Graph(|V|=4, |E|=4)"
    assert repr(wg) == "WeightedGraph(Graph(|V|=4, |E|=4))"


def test_equal_graphs_hash_alike():
    # the same edges listed in another order give another vertex order
    g1 = parse_edgelist("a b\nb c\n")
    g2 = parse_edgelist("b c\na b\n")
    assert g1.labels != g2.labels and g1 == g2
    assert hash(g1) == hash(g2)
    assert len({g1, g2}) == 1


@pytest.mark.parametrize("spec,seed", [
    ("complete:6", 0), ("cycle:5", 0), ("bipartite:2:3", 0), ("star:4", 0),
    ("path:2", 0), ("tree:9", 3), ("circulant:9:1,2", 0), ("petersen", 0),
    *(("random:10:0.3", seed) for seed in range(4)),
])
def test_incident_lists_the_edges_at_each_vertex_ascending(spec, seed):
    g = generate(spec, seed=seed)
    assert len(g.incident) == g.n_vertices
    for v, ks in enumerate(g.incident):
        assert list(ks) == sorted(ks)
        assert ks == tuple(k for k, pair in enumerate(g.edges) if v in pair)
    assert sum(map(len, g.incident)) == 2 * g.n_edges


# ------------------------------------------------------------- families

def test_family_sizes():
    assert generate("complete:5").n_edges == 10
    assert generate("cycle:7").n_edges == 7
    assert generate("star:6").n_edges == 6
    assert generate("path:5").n_edges == 4
    assert generate("bipartite:2:3").n_edges == 6


def test_petersen_shape():
    g = generate("petersen")
    assert g.n_vertices == 10 and g.n_edges == 15
    assert all(len(ks) == 3 for ks in g.incident)
    # girth 5: no triangles through any edge
    for i, j in g.edges:
        far_i = {sum(g.edges[k]) - i for k in g.incident[i]}
        far_j = {sum(g.edges[k]) - j for k in g.incident[j]}
        assert not (far_i & far_j)


def test_circulant_offsets():
    g = generate("circulant:8:1,2")
    assert g.n_edges == 16
    assert all(len(ks) == 4 for ks in g.incident)
    # offsets are normalized mod n: 7 == -1 == 1 for n = 8
    assert generate("circulant:8:1,7").n_edges == 8


def test_random_tree_is_tree():
    for seed in range(6):
        g = generate("tree:9", seed=seed)
        assert is_tree(g) and g.n_vertices == 9
    assert generate("tree:2").edges == ((0, 1),)  # no Pruefer sequence to decode


def test_random_connected_spans_p_range():
    # p = 1 fills in every pair; small p keeps the spanning tree skeleton
    assert generate("random:6:1.0", seed=3).n_edges == 15
    g = generate("random:7:0.1", seed=3)
    assert g.n_edges >= 6


def test_generation_is_seed_deterministic():
    a = generate("random:8:0.4", seed=11)
    b = generate("random:8:0.4", seed=11)
    c = generate("random:8:0.4", seed=12)
    assert a.edges == b.edges
    assert a.edges != c.edges  # overwhelmingly likely for this family size


@pytest.mark.parametrize("spec", [
    "complete", "complete:1", "cycle:2", "bipartite:0:3", "path:1",
    "random:5:0", "random:5:2", "circulant:5:0", "mystery:3", "petersen:1", "star:0",
])
def test_family_grammar_rejects(spec):
    # a star names its own parameter, not the bipartite parts it is built from
    match = "star needs m >= 1, got 0" if spec == "star:0" else None
    with pytest.raises(InvalidParameterError, match=match):
        generate(spec)


# ------------------------------------------------------------------ rng

def test_splitmix64_reference_vectors():
    # first outputs of the published splitmix64 for these seeds
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]
    with pytest.raises(ValueError, match=r"below\(\) needs n >= 1"):
        SplitMix64(0).below(0)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 1000))
def test_splitmix64_below_in_range(seed, n):
    r = SplitMix64(seed)
    assert all(0 <= r.below(n) < n for _ in range(20))


def test_splitmix64_uniform_in_unit_interval():
    r = SplitMix64(99)
    xs = [r.uniform() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < sum(xs) / len(xs) < 0.6


def test_derived_builds_once_and_keeps_nothing_when_build_raises():
    g = generate("cycle:4")
    built = []

    def build():
        built.append(object())
        return built[-1]

    first = derived(g, "probe", build)
    assert derived(g, "probe", build) is first and len(built) == 1

    def fail():
        raise InvalidParameterError("cannot build")

    with pytest.raises(InvalidParameterError):
        derived(g, "broken", fail)
    assert derived(g, "broken", build) is built[-1] and len(built) == 2
    # a WeightedGraph keeps its values apart from its base Graph's
    assert derived(WeightedGraph(g), "probe", build) is not first


def test_only_graph_core_reads_private_graph_fields():
    private = {name for cls in (Graph, WeightedGraph) for name in cls.__slots__
               if name.startswith("_") and not name.endswith("__")}
    reads = []
    for path in sorted(Path(edge_ricci.__file__).parent.glob("*.py")):
        if path.name == "graph_core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += [f"{path.name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in private]
    assert private and reads == []
