"""Geometry of the edge space: neighborhoods, degrees, distances, measures.

Two distinct edges are neighbors when they share a vertex (in a simple graph
the shared vertex is unique).  Each quantity is defined once, for edge
weights w and vertex weights; an unweighted Graph is the unit-weight case
and carries exact rationals, a WeightedGraph carries floats.

- The degree d_e of edge e is the weight sum over its neighbors; at unit
  weights it is the neighbor count deg(x) + deg(y) - 2 for e = {x, y}.
- The measure of e gives each neighbor f mass w(f)/d_e.
- The distance between edges is the cheapest edge path e_0, e_1, ..., e_n,
  each hop charged the weight of the vertex it passes: the sum of the n
  connector weights, the hop count at unit weights.

edge_space(g) builds a graph's space once and is the one place that picks
its class: EdgeSpace (int degrees and vertex weights) for a Graph, its
subclass WeightedEdgeSpace (float ones) for a WeightedGraph.  Both share one
Dijkstra row, int hop counts at unit weights.  Every function below reads
their common fields alone.
The space and each edge's measure are kept per graph by graph_core.derived.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import IsolatedEdgeError, NonpositiveWeightError, UnknownEdgeError
from .graph_core import Graph, WeightedGraph, derived


class EdgeSpace:
    """Line adjacency of a Graph at unit weights.

    neighbors[e]      ordinals of the edges sharing a vertex with e, ascending
    shared_vertex[e]  neighbor ordinal -> index of the vertex it shares with e
    weight[e]         Fraction(1)
    degrees[e]        the neighbor count, an int
    vertex_weight[v]  1, an int, so distance rows are int hop counts

    Distance rows are filled lazily.  Holds the labels and edges (for edge
    names) but not the graph that keeps it, so that graph is freed by
    reference counting alone.  Built once per Graph instance and read-only
    afterwards, so concurrent readers are safe.
    """

    __slots__ = ("neighbors", "shared_vertex", "degrees", "weight", "vertex_weight",
                 "_labels", "_edges", "_rows")

    def __init__(self, g: Graph):
        incident: list[list[int]] = [[] for _ in g.labels]
        for e, (i, j) in enumerate(g.edges):
            incident[i].append(e)
            incident[j].append(e)
        neighbors: list[tuple[int, ...]] = []
        shared: list[dict[int, int]] = []
        for e, (i, j) in enumerate(g.edges):
            nbrs: dict[int, int] = {}
            for v in (i, j):
                for f in incident[v]:
                    if f != e:
                        nbrs[f] = v
            neighbors.append(tuple(sorted(nbrs)))
            shared.append(nbrs)
        self.neighbors = tuple(neighbors)
        self.shared_vertex = tuple(shared)
        self.weight = (Fraction(1),) * g.n_edges
        self.degrees = tuple(len(nbrs) for nbrs in neighbors)
        self.vertex_weight = (1,) * g.n_vertices
        self._labels, self._edges = g.labels, g.edges
        self._rows: dict[int, tuple] = {}

    def row(self, e: int) -> tuple:
        """Dijkstra distance row from edge e, each hop charged its connector's
        vertex weight: int hop counts at unit weights, else floats."""
        cached = self._rows.get(e)
        if cached is not None:
            return cached
        dist = [math.inf] * len(self.neighbors)
        dist[e] = self.vertex_weight[0] * 0  # zero in the weights' number type
        pq = [(dist[e], e)]
        while pq:
            d, a = heapq.heappop(pq)
            if d > dist[a]:
                continue
            shared = self.shared_vertex[a]
            for b in self.neighbors[a]:
                nd = d + self.vertex_weight[shared[b]]
                if nd < dist[b]:
                    dist[b] = nd
                    heapq.heappush(pq, (nd, b))
        # the graph is connected, so an infinite distance is an overflow
        if math.inf in dist:
            i, j = self._edges[e]
            raise NonpositiveWeightError(
                f"edge distances from {self._labels[i]}-{self._labels[j]} reach inf: "
                f"its connectors' vertex weights overflow a float"
            )
        out = tuple(dist)
        self._rows[e] = out
        return out


class WeightedEdgeSpace(EdgeSpace):
    """Line adjacency of a WeightedGraph with its float weights: the same
    fields as EdgeSpace, with weight[e] the edge weight, degrees[e] the
    weight sum over the neighbors and vertex_weight[v] the vertex weight."""

    __slots__ = ()

    def __init__(self, wg: WeightedGraph):
        super().__init__(wg)
        self.weight = tuple(map(wg.w_edge, range(wg.n_edges)))
        self.degrees = tuple(sum(self.weight[f] for f in nbrs) for nbrs in self.neighbors)
        for e, d in enumerate(self.degrees):
            if not math.isfinite(d):
                raise NonpositiveWeightError(
                    f"edge {wg.edge_name(e)} has weighted degree {d}: "
                    f"its neighbors' weights overflow a float"
                )
        self.vertex_weight = tuple(map(wg.w_vertex, wg.labels))

    # bench/tracer.py wraps this class's own row; a super().row call would double its spans
    row = EdgeSpace.row


def edge_space(g: Graph) -> EdgeSpace:
    """The graph's edge space, built on first use and kept by derived."""
    kind = WeightedEdgeSpace if isinstance(g, WeightedGraph) else EdgeSpace
    return derived(g, "edge_space", lambda: kind(g))


def _check_ordinal(g: Graph, e: int) -> int:
    if not 0 <= e < g.n_edges:
        raise UnknownEdgeError(f"edge ordinal {e} out of range (0..{g.n_edges - 1})")
    return e


def edge_neighborhood(g: Graph, e: int) -> tuple[int, ...]:
    """Ordinals of the edges sharing a vertex with e, ascending."""
    _check_ordinal(g, e)
    return edge_space(g).neighbors[e]


def edge_degree(g: Graph, e: int):
    """Weight sum d_e over the neighborhood of e: the int neighbor count
    deg(x) + deg(y) - 2 for e = {x, y} unweighted, a float on a
    WeightedGraph."""
    _check_ordinal(g, e)
    return edge_space(g).degrees[e]


def edge_distance(g: Graph, e: int, e2: int):
    """Cheapest connector-weight sum over edge paths from e to e2 (0 iff
    e == e2): the int hop count unweighted, a float on a WeightedGraph."""
    _check_ordinal(g, e)
    _check_ordinal(g, e2)
    return edge_space(g).row(e)[e2]


@dataclass(frozen=True)
class EdgeMeasure:
    """Probability measure on edge ordinals attached to an owner edge."""

    owner: int
    atoms: tuple[int, ...]
    masses: tuple  # all Fraction (exact) or all float

    def __post_init__(self):
        if len(self.atoms) != len(self.masses) or not self.atoms:
            raise ValueError("measure needs matching, nonempty atoms and masses")
        total = sum(self.masses)
        if abs(total - 1) > (0 if self.exact else 1e-12):
            raise ValueError(f"measure sums to {total}, not 1")

    @property
    def exact(self) -> bool:
        return all(isinstance(m, Fraction) for m in self.masses)

    def as_dict(self) -> dict[int, object]:
        return dict(zip(self.atoms, self.masses))


def edge_measure(g: Graph, e: int) -> EdgeMeasure:
    """Mass w(f)/d_e on each neighbor f of e (uniform 1/d_e at unit weights).

    Built once per edge and graph, and kept by derived.
    """
    _check_ordinal(g, e)
    return derived(g, ("edge_measure", e), lambda: _build_measure(g, e))


def _build_measure(g: Graph, e: int) -> EdgeMeasure:
    space = edge_space(g)
    nbrs = space.neighbors[e]
    if not nbrs:
        raise IsolatedEdgeError(
            f"edge {g.edge_name(e)} has no neighbors; its measure is undefined"
        )
    d = space.degrees[e]
    return EdgeMeasure(e, nbrs, tuple(space.weight[f] / d for f in nbrs))


def pairwise_costs(g: Graph, atoms: tuple[int, ...]) -> dict[tuple[int, int], object]:
    """Distance table over all ordered atom pairs (ints, or floats if weighted)."""
    space = edge_space(g)
    out: dict[tuple[int, int], object] = {}
    for a in atoms:
        row = space.row(a)
        for b in atoms:
            out[(a, b)] = row[b]
    return out
