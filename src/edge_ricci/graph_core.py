"""Graph data model, edge-list / JSON parsing, and named graph families.

The model is deliberately small: finite simple connected undirected graphs
with opaque string vertex labels.  Vertices receive dense integer indices in
first-appearance order and edges receive ordinals in lexicographic index
order; everything downstream (measures, Laplacians, reports) is expressed in
those ordinals, so construction order pins the output order of every table.
Instances never mutate after __init__, which makes them safe to share.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_left
import math
from typing import Iterable, Mapping, Sequence

from .errors import (
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
from .rng import SplitMix64


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise FormatError(f"vertex label {label!r} must be a nonempty string")
    if any(ch.isspace() for ch in label):
        raise FormatError(f"vertex label {label!r} contains whitespace")
    return label


def check_edge_ordinal(g: Graph, e: int) -> int:
    """e if it is an edge ordinal of g (0..m-1), else UnknownEdgeError."""
    if not 0 <= e < g.n_edges:
        raise UnknownEdgeError(f"edge ordinal {e} out of range (0..{g.n_edges - 1})")
    return e


class Graph:
    """Simple connected undirected graph with at least one edge, immutable
    after construction.

    labels:     vertex labels in first-appearance order
    edges:      index pairs (i, j) with i < j, sorted lexicographically;
                the position of a pair in this tuple is its edge ordinal
    incident:   incident[v] holds the ordinals of the edges at vertex index
                v, ascending; its length is v's degree
    """

    __slots__ = (
        "labels", "index", "edges", "incident", "_derived", "__weakref__",
    )

    def __init__(self, labels: Iterable[str], edge_pairs: Iterable[tuple[str, str]]):
        labels = tuple(_check_label(v) for v in labels)
        index: dict[str, int] = {}
        for v in labels:
            if v in index:
                raise DuplicateEdgeError(f"vertex label {v!r} listed twice")
            index[v] = len(index)

        seen: set[tuple[int, int]] = set()
        edges: list[tuple[int, int]] = []
        for u, v in edge_pairs:
            if u not in index:
                raise UnknownVertexError(f"edge endpoint {u!r} not in vertex list")
            if v not in index:
                raise UnknownVertexError(f"edge endpoint {v!r} not in vertex list")
            if u == v:
                raise SelfLoopError(f"self loop at vertex {u!r}")
            key = (min(index[u], index[v]), max(index[u], index[v]))
            if key in seen:
                raise DuplicateEdgeError(f"duplicate edge {u!r} {v!r}")
            seen.add(key)
            edges.append(key)
        if not edges:
            raise EmptyInputError("graph needs at least one edge")
        edges.sort()

        incident: list[list[int]] = [[] for _ in labels]
        for k, (i, j) in enumerate(edges):
            incident[i].append(k)
            incident[j].append(k)

        # connectivity; report one vertex from the unreached part
        reached = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for y in (sum(edges[k]) - x for k in incident[x]):  # the far ends
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        if len(reached) != len(labels):
            missing = min(set(range(len(labels))) - reached)
            raise DisconnectedError(
                f"graph is disconnected: vertex {labels[missing]!r} is not "
                f"reachable from {labels[0]!r}"
            )

        self.labels = labels
        self.index = index
        self.edges = tuple(edges)
        self.incident = tuple(map(tuple, incident))
        self._derived = {}

    # -- identity is by labelled vertex/edge sets, not by index assignment,
    #    so parse(serialize(g)) == g even when appearance order differs.
    def _identity(self) -> tuple[frozenset, frozenset]:
        return frozenset(self.labels), frozenset(
            frozenset((self.labels[i], self.labels[j])) for i, j in self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        return f"Graph(|V|={self.n_vertices}, |E|={self.n_edges})"

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_ordinal(self, u: str, v: str) -> int:
        """Ordinal of the edge {u, v}; raises if absent.

        Found by bisection in the incident edges of its lower endpoint
        index: their ordinals ascend, and so do their index pairs.
        """
        if u not in self.index:
            raise UnknownVertexError(f"vertex {u!r} not in graph")
        if v not in self.index:
            raise UnknownVertexError(f"vertex {v!r} not in graph")
        i, j = self.index[u], self.index[v]
        key = (min(i, j), max(i, j))
        near = self.incident[key[0]]
        k = bisect_left(near, key, key=self.edges.__getitem__)
        if k < len(near) and self.edges[near[k]] == key:
            return near[k]
        raise UnknownEdgeError(f"no edge {u!r} {v!r}")

    def edge_endpoints(self, e: int) -> tuple[str, str]:
        """Endpoint labels of edge ordinal e, in index order."""
        i, j = self.edges[check_edge_ordinal(self, e)]
        return self.labels[i], self.labels[j]

    def edge_name(self, e: int) -> str:
        u, v = self.edge_endpoints(e)
        return f"{u}-{v}"


def is_tree(g: Graph) -> bool:
    # connected is guaranteed by construction
    return g.n_edges == g.n_vertices - 1


class WeightedGraph(Graph):
    """A Graph with positive vertex and edge weights (default 1.0).

    It takes the structural fields of the Graph it is built from as they
    are, and adds the weights by position, as tuples of floats:
    vertex_weights[i] is the weight of labels[i] and edge_weights[e] that of
    edge ordinal e.  constant_vertex_weights and constant_edge_weights say,
    decided once here by _constant, whether each tuple holds one value.
    Equality is identity, so a WeightedGraph never equals its base and
    keeps its own `derived` values.
    """

    __slots__ = ("vertex_weights", "edge_weights",
                 "constant_vertex_weights", "constant_edge_weights")

    def __init__(
        self,
        graph: Graph,
        vertex_weight: Mapping[str, float] | None = None,
        edge_weight: Mapping[tuple[str, str], float] | None = None,
    ):
        self.labels, self.index = graph.labels, graph.index
        self.edges, self.incident = graph.edges, graph.incident
        self._derived = {}
        vw = [1.0] * self.n_vertices
        for v, w in (vertex_weight or {}).items():
            if v not in self.index:
                raise UnknownVertexError(f"vertex weight for unknown vertex {v!r}")
            vw[self.index[v]] = _check_weight(w, f"vertex {v!r}")
        ew: list[float | None] = [None] * self.n_edges
        for (u, v), w in (edge_weight or {}).items():
            e = self.edge_ordinal(u, v)
            if ew[e] is not None:
                raise DuplicateEdgeError(f"edge {u!r} {v!r} weighted twice")
            ew[e] = _check_weight(w, f"edge {u!r} {v!r}")
        self.vertex_weights = tuple(vw)
        self.edge_weights = tuple(1.0 if w is None else w for w in ew)
        self.constant_vertex_weights = _constant(self.vertex_weights)
        self.constant_edge_weights = _constant(self.edge_weights)

    def __eq__(self, other: object) -> bool:
        return self is other

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"WeightedGraph({super().__repr__()})"


def derived(g: Graph, key, build):
    """The value kept on g under key, made by build() on first use.

    This is the one place per-graph values are cached: the edge space (which
    keeps each edge's measure and distance row), the adjacent curvature
    table and its minimum, and spectra, each under its owner's key.  If build() raises, nothing is stored.  A
    kept value must not refer back to g, so graphs are freed by reference
    counting alone.
    """
    cache = g._derived
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _constant(weights: Sequence[float]) -> bool:
    """The one constancy rule for positive weights: max - min <= 1e-12 max."""
    lo, hi = min(weights), max(weights)
    return hi - lo <= 1e-12 * hi


def _check_weight(w: object, what: str) -> float:
    # float() would also read True as 1.0 and the text "2.5" as 2.5
    if isinstance(w, (bool, str, bytes)):
        raise NonpositiveWeightError(f"weight for {what} is not a number: {w!r}")
    try:
        w = float(w)
    except (TypeError, ValueError):
        raise NonpositiveWeightError(f"weight for {what} is not a number: {w!r}")
    except OverflowError:
        raise NonpositiveWeightError(
            f"weight for {what} must be positive and finite, got an integer "
            "too large for a float") from None
    if not math.isfinite(w) or w <= 0.0:
        raise NonpositiveWeightError(f"weight for {what} must be positive and finite, got {w}")
    return w


# --------------------------------------------------------------- parsing

def parse_edgelist(text: str) -> Graph:
    """Parse edge-list text: one 'u v' pair per line, '#' starts a comment.

    Accepts \\n or \\r\\n endings.  Vertex order is first appearance.
    """
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) != 2:
            raise FormatError(
                f"line {lineno}: expected 'u v', got {len(tokens)} tokens: {line!r}"
            )
        u, v = tokens
        if u == v:
            raise SelfLoopError(f"line {lineno}: self loop at vertex {u!r}")
        pairs.append((u, v))
    if not pairs:
        raise EmptyInputError("no edges in input")
    return _graph_of_pairs(pairs)


def _graph_of_pairs(pairs: list[tuple[str, str]]) -> Graph:
    """The graph on these edges, its vertices in first-appearance order."""
    return Graph(dict.fromkeys(x for pair in pairs for x in pair), pairs)


def serialize_edgelist(g: Graph) -> str:
    """Inverse of parse_edgelist up to vertex/edge set equality."""
    lines = [f"{u} {v}" for u, v in (g.edge_endpoints(e) for e in range(g.n_edges))]
    return "\n".join(lines) + "\n"


def _coerce_label(value: object) -> str:
    if isinstance(value, str):
        return _check_label(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise FormatError(f"vertex label must be a string or integer, got {value!r}")


def parse_weighted(text: str) -> WeightedGraph:
    """Parse the weighted JSON document.

    {"edges": [[u, v, w], ...], "vertex_weights": {u: w, ...}}
    The third edge entry and the vertex_weights block are optional; missing
    weights default to 1.0.  Any other top-level key is an error, so a
    misspelled block is never read as absent, and so is a key repeated in
    any one object, which json.loads alone would read as its last value.
    """
    if not text.strip():
        raise EmptyInputError("empty weighted-graph document")
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "edges" not in doc:
        raise FormatError('weighted document must be an object with an "edges" list')
    for key in doc:
        if key not in ("edges", "vertex_weights"):
            raise FormatError(f"unknown key {key!r} in weighted document; "
                              'expected "edges" and optionally "vertex_weights"')
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list) or not raw_edges:
        raise EmptyInputError('"edges" must be a nonempty list')

    pairs: list[tuple[str, str]] = []
    ew: dict[tuple[str, str], object] = {}
    for k, entry in enumerate(raw_edges):
        if not isinstance(entry, list) or len(entry) not in (2, 3):
            raise FormatError(f"edges[{k}]: expected [u, v] or [u, v, w], got {entry!r}")
        u, v = _coerce_label(entry[0]), _coerce_label(entry[1])
        pairs.append((u, v))
        ew[(u, v)] = entry[2] if len(entry) == 3 else 1.0

    raw_vw = doc.get("vertex_weights")
    if raw_vw is None:
        raw_vw = {}
    elif not isinstance(raw_vw, dict):
        raise FormatError('"vertex_weights" must be an object mapping vertex '
                          f"labels to weights, got {type(raw_vw).__name__}")
    vw = {_coerce_label(v): w for v, w in raw_vw.items()}
    # WeightedGraph validates every weight
    return WeightedGraph(_graph_of_pairs(pairs), vertex_weight=vw, edge_weight=ew)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise FormatError(f"repeated key {key!r} in weighted document")
        doc[key] = value
    return doc


def serialize_weighted(wg: WeightedGraph) -> str:
    doc = {
        "edges": [[u, v, w] for (u, v), w in
                  zip(map(wg.edge_endpoints, range(wg.n_edges)), wg.edge_weights)],
        "vertex_weights": dict(zip(wg.labels, wg.vertex_weights)),
    }
    return json.dumps(doc, sort_keys=False)


# --------------------------------------------------------------- families

_FAMILY_GRAMMAR = (
    "family spec is name[:p1[:p2]] with name in {complete, cycle, bipartite, "
    "star, path, tree, random, circulant, petersen}; e.g. complete:5, "
    "bipartite:2:3, random:8:0.4, circulant:9:1,2"
)


def generate(spec: str, seed: int | None = None) -> Graph:
    """Build the family a spec like 'cycle:6' or 'circulant:9:1,2' names.

    The randomized families (tree, random) are seeded through splitmix64;
    seed defaults to 0, so a spec and a seed pin the graph.  A builder
    returns the vertex count n and its edges as index pairs; the vertices
    are labelled v0..v{n-1} here, once for every family.
    """
    name, *args = spec.split(":")
    if name not in _FAMILIES or len(args) != len(_FAMILIES[name][1]):
        raise InvalidParameterError(f"unrecognized family spec {spec!r}; {_FAMILY_GRAMMAR}")
    build, parsers, seeded = _FAMILIES[name]
    params = [parse(arg) for parse, arg in zip(parsers, args)]
    if seeded:
        params.append(0 if seed is None else seed)
    n, pairs = build(*params)
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(vs[i], vs[j]) for i, j in pairs])


def _integer(what: str):
    def parse(s: str) -> int:
        try:
            return int(s)
        except ValueError:
            raise InvalidParameterError(f"{what} must be an integer; {_FAMILY_GRAMMAR}")
    return parse


def _number(what: str):
    def parse(s: str) -> float:
        try:
            return float(s)
        except ValueError:
            raise InvalidParameterError(f"{what} must be a number; {_FAMILY_GRAMMAR}")
    return parse


def _offsets(s: str) -> tuple[int, ...]:
    return tuple(map(_integer("offset"), s.split(",")))


# Each builder checks its parameters and returns (n, index pairs).
_Family = tuple[int, list[tuple[int, int]]]


def _complete(n: int) -> _Family:
    if n < 2:
        raise InvalidParameterError(f"complete graph needs n >= 2, got {n}")
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def _cycle(n: int) -> _Family:
    if n < 3:
        raise InvalidParameterError(f"cycle needs n >= 3, got {n}")
    return n, [(i, (i + 1) % n) for i in range(n)]


def _complete_bipartite(n: int, m: int) -> _Family:
    if n < 1 or m < 1:
        raise InvalidParameterError(f"bipartite parts need n, m >= 1, got {n}, {m}")
    return n + m, [(i, n + j) for i in range(n) for j in range(m)]


def _star(m: int) -> _Family:
    if m < 1:
        raise InvalidParameterError(f"star needs m >= 1, got {m}")
    return _complete_bipartite(1, m)


def _path(n: int) -> _Family:
    if n < 2:
        raise InvalidParameterError(f"path needs n >= 2, got {n}")
    return n, [(i, i + 1) for i in range(n - 1)]


def _random_tree(n: int, seed: int) -> _Family:
    """Uniform labelled tree via a random Pruefer sequence."""
    if n < 2:
        raise InvalidParameterError(f"random tree needs n >= 2, got {n}")
    return n, _prufer_edges(n, SplitMix64(seed))


def _prufer_edges(n: int, rng: SplitMix64) -> list[tuple[int, int]]:
    if n == 2:
        return [(0, 1)]
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _random_connected(n: int, p: float, seed: int) -> _Family:
    """Random spanning tree plus independent extra edges with probability p.

    Connectivity is guaranteed by the tree skeleton; the remaining vertex
    pairs are scanned in lexicographic order so a seed pins the graph.
    """
    if n < 2:
        raise InvalidParameterError(f"random connected graph needs n >= 2, got {n}")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError(f"edge probability must be in (0, 1], got {p}")
    rng = SplitMix64(seed)
    tree = set(tuple(sorted(e)) for e in _prufer_edges(n, rng))
    extra = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in tree:
                continue
            if rng.uniform() < p:
                extra.append((i, j))
    return n, sorted(tree) + extra


def _circulant(n: int, offsets: Sequence[int]) -> _Family:
    if n < 3:
        raise InvalidParameterError(f"circulant needs n >= 3, got {n}")
    norm = set()
    for off in offsets:
        off = off % n
        if off == 0:
            raise InvalidParameterError("circulant offset 0 (mod n) gives self loops")
        norm.add(min(off, n - off))
    return n, sorted({tuple(sorted((i, (i + off) % n))) for i in range(n) for off in norm})


def _petersen() -> _Family:
    """Outer 5-cycle, inner pentagram, five spokes."""
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    pairs += [(i, i + 5) for i in range(5)]
    return 10, pairs


# name -> (builder, one parser per spec parameter, whether the builder also
# takes the seed)
_FAMILIES = {
    "complete": (_complete, (_integer("n"),), False),
    "cycle": (_cycle, (_integer("n"),), False),
    "bipartite": (_complete_bipartite, (_integer("n"), _integer("m")), False),
    "star": (_star, (_integer("m"),), False),
    "path": (_path, (_integer("n"),), False),
    "tree": (_random_tree, (_integer("n"),), True),
    "random": (_random_connected, (_integer("n"), _number("p")), True),
    "circulant": (_circulant, (_integer("n"), _offsets), False),
    "petersen": (_petersen, (), False),
}
