"""Geometry of the edge space: neighborhoods, degrees, distances, measures.

Two distinct edges are neighbors when they share a vertex (in a simple graph
the shared vertex is unique).  Distances between edges are shortest paths in
this edge adjacency; in the weighted case each hop is charged the weight of
the connecting vertex, so a path e_0, e_1, ..., e_n costs the sum of the n
interior connector weights.

The uniform measure of an edge e spreads mass 1/d_e over its d_e neighbors;
the weighted measure gives neighbor f mass w(f)/d_e with d_e the sum of the
neighbor edge weights.  Unweighted quantities are exact rationals.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import IsolatedEdgeError, UnknownEdgeError
from .graph_core import Graph, WeightedGraph, base_graph

AnyGraph = Union[Graph, WeightedGraph]


class EdgeSpace:
    """Line adjacency plus a lazily filled distance-row cache for one graph.

    Built once per Graph instance (single-writer initialization guarded by
    the import lock semantics of CPython attribute assignment) and read-only
    afterwards, so concurrent readers are safe.
    """

    __slots__ = ("neighbors", "shared_vertex", "degrees", "_rows")

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
        self.degrees = tuple(len(nbrs) for nbrs in neighbors)
        self._rows: dict[int, tuple[int, ...]] = {}

    def row(self, e: int) -> tuple[int, ...]:
        """BFS distance row from edge e over the line adjacency (hop count)."""
        cached = self._rows.get(e)
        if cached is not None:
            return cached
        n = len(self.neighbors)
        dist = [-1] * n
        dist[e] = 0
        frontier = [e]
        while frontier:
            nxt = []
            for a in frontier:
                for b in self.neighbors[a]:
                    if dist[b] < 0:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        out = tuple(dist)
        self._rows[e] = out
        return out


class WeightedEdgeSpace:
    """Dijkstra distance rows with vertex-weight hop costs.

    Holds the base Graph and the vertex-weight map, never the WeightedGraph
    that owns it, so the owner is freed by reference counting alone.
    """

    __slots__ = ("graph", "vertex_weight", "space", "_rows")

    def __init__(self, wg: WeightedGraph):
        self.graph = wg.graph
        self.vertex_weight = wg.vertex_weight
        self.space = edge_space(wg.graph)
        self._rows = {}

    def row(self, e: int) -> tuple[float, ...]:
        cached = self._rows.get(e)
        if cached is not None:
            return cached
        g = self.graph
        n = g.n_edges
        dist = [math.inf] * n
        dist[e] = 0.0
        pq = [(0.0, e)]
        while pq:
            d, a = heapq.heappop(pq)
            if d > dist[a]:
                continue
            for b in self.space.neighbors[a]:
                v = self.space.shared_vertex[a][b]
                nd = d + self.vertex_weight[g.labels[v]]
                if nd < dist[b]:
                    dist[b] = nd
                    heapq.heappush(pq, (nd, b))
        out = tuple(dist)
        self._rows[e] = out
        return out


def edge_space(g: Graph) -> EdgeSpace:
    space = g._space
    if space is None:
        space = EdgeSpace(g)
        g._space = space
    return space


def weighted_edge_space(wg: WeightedGraph) -> WeightedEdgeSpace:
    space = wg._wspace
    if space is None:
        space = WeightedEdgeSpace(wg)
        wg._wspace = space
    return space


def _check_ordinal(g: Graph, e: int) -> int:
    if not 0 <= e < g.n_edges:
        raise UnknownEdgeError(f"edge ordinal {e} out of range (0..{g.n_edges - 1})")
    return e


def edge_neighborhood(g: AnyGraph, e: int) -> tuple[int, ...]:
    """Ordinals of the edges sharing a vertex with e, ascending."""
    base = base_graph(g)
    _check_ordinal(base, e)
    return edge_space(base).neighbors[e]


def edge_degree(g: AnyGraph, e: int) -> int:
    """Neighbor count |Gamma(e)| = deg(x) + deg(y) - 2 for e = {x, y}."""
    base = base_graph(g)
    _check_ordinal(base, e)
    return edge_space(base).degrees[e]


def weighted_edge_degree(wg: WeightedGraph, e: int) -> float:
    """Sum of the edge weights over the neighborhood of e."""
    g = wg.graph
    _check_ordinal(g, e)
    space = edge_space(g)
    return sum(wg.w_edge(f) for f in space.neighbors[e])


def edge_distance(g: Graph, e: int, e2: int) -> int:
    """Hop distance between edges in the line adjacency (0 iff e == e2)."""
    _check_ordinal(g, e)
    _check_ordinal(g, e2)
    d = edge_space(g).row(e)[e2]
    if d < 0:  # cannot happen on a connected graph; defensive
        raise UnknownEdgeError(f"edges {e} and {e2} not connected")
    return d


def weighted_edge_distance(wg: WeightedGraph, e: int, e2: int) -> float:
    """Cheapest connector-weight sum over edge paths from e to e2."""
    g = wg.graph
    _check_ordinal(g, e)
    _check_ordinal(g, e2)
    return weighted_edge_space(wg).row(e)[e2]


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
        if isinstance(total, Fraction):
            if total != 1:
                raise ValueError(f"exact measure sums to {total}, not 1")
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"measure sums to {total}, not 1")

    @property
    def exact(self) -> bool:
        return isinstance(self.masses[0], Fraction)

    def as_dict(self) -> dict[int, object]:
        return dict(zip(self.atoms, self.masses))


def edge_measure(g: AnyGraph, e: int) -> EdgeMeasure:
    """Uniform (or weight-proportional) measure on the neighborhood of e."""
    base = base_graph(g)
    _check_ordinal(base, e)
    space = edge_space(base)
    nbrs = space.neighbors[e]
    if not nbrs:
        raise IsolatedEdgeError(
            f"edge {base.edge_name(e)} has no neighbors; its measure is undefined"
        )
    if isinstance(g, WeightedGraph):
        d = sum(g.w_edge(f) for f in nbrs)
        return EdgeMeasure(e, nbrs, tuple(g.w_edge(f) / d for f in nbrs))
    d = len(nbrs)
    return EdgeMeasure(e, nbrs, tuple(Fraction(1, d) for _ in nbrs))


def pairwise_costs(g: AnyGraph, atoms: tuple[int, ...]) -> dict[tuple[int, int], object]:
    """Distance table over all ordered atom pairs (ints, or floats if weighted)."""
    if isinstance(g, WeightedGraph):
        space = weighted_edge_space(g)
    else:
        space = edge_space(g)
    out: dict[tuple[int, int], object] = {}
    for a in atoms:
        row = space.row(a)
        for b in atoms:
            out[(a, b)] = row[b]
    return out
