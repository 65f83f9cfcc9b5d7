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

pairwise_costs gives a transport problem its costs: per atom of the sorted
joint support, a row tuple sliced from that atom's cached distance row by
slicer, in C.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .errors import IsolatedEdgeError, NonpositiveWeightError
from .graph_core import Graph, WeightedGraph, check_edge_ordinal, derived


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
    fields as EdgeSpace, with weight and vertex_weight the graph's own
    edge_weights and vertex_weights tuples and degrees[e] the weight sum
    over e's neighbors."""

    __slots__ = ()

    def __init__(self, wg: WeightedGraph):
        super().__init__(wg)
        self.weight = wg.edge_weights
        self.degrees = tuple(sum(self.weight[f] for f in nbrs) for nbrs in self.neighbors)
        for e, d in enumerate(self.degrees):
            if not math.isfinite(d):
                raise NonpositiveWeightError(
                    f"edge {wg.edge_name(e)} has weighted degree {d}: "
                    f"its neighbors' weights overflow a float"
                )
        self.vertex_weight = wg.vertex_weights

    # bench/tracer.py wraps this class's own row; a super().row call would double its spans
    row = EdgeSpace.row


def edge_space(g: Graph) -> EdgeSpace:
    """The graph's edge space, built on first use and kept by derived."""
    kind = WeightedEdgeSpace if isinstance(g, WeightedGraph) else EdgeSpace
    return derived(g, "edge_space", lambda: kind(g))


def edge_neighborhood(g: Graph, e: int) -> tuple[int, ...]:
    """Ordinals of the edges sharing a vertex with e, ascending."""
    check_edge_ordinal(g, e)
    return edge_space(g).neighbors[e]


def edge_degree(g: Graph, e: int):
    """Weight sum d_e over the neighborhood of e: the int neighbor count
    deg(x) + deg(y) - 2 for e = {x, y} unweighted, a float on a
    WeightedGraph."""
    check_edge_ordinal(g, e)
    return edge_space(g).degrees[e]


def edge_distance(g: Graph, e: int, e2: int):
    """Cheapest connector-weight sum over edge paths from e to e2 (0 iff
    e == e2): the int hop count unweighted, a float on a WeightedGraph."""
    check_edge_ordinal(g, e)
    check_edge_ordinal(g, e2)
    return edge_space(g).row(e)[e2]


@dataclass(frozen=True)
class EdgeMeasure:
    """Probability measure on edge ordinals attached to an owner edge.

    Set once, when the measure is built: exact, whether every mass is a
    Fraction; scale, the LCM of its denominators (1 for float masses); and
    units, the masses in those units (ints when exact, else the masses).
    """

    owner: int
    atoms: tuple[int, ...]
    masses: tuple  # all Fraction (exact) or all float
    exact: bool = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)
    units: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        masses = self.masses
        if len(self.atoms) != len(masses) or not self.atoms:
            raise ValueError("measure needs matching, nonempty atoms and masses")
        exact = all(isinstance(m, Fraction) for m in masses)
        scale, units = 1, masses
        if exact:
            scale = math.lcm(*{m.denominator for m in masses})
            units = tuple([m.numerator * (scale // m.denominator) for m in masses])
        if abs(sum(units) - scale) > (0 if exact else 1e-12):
            raise ValueError(f"measure sums to {sum(masses)}, not 1")
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "units", units)


def edge_measure(g: Graph, e: int) -> EdgeMeasure:
    """Mass w(f)/d_e on each neighbor f of e (uniform 1/d_e at unit weights).

    Built once per edge and graph, and kept by derived.
    """
    check_edge_ordinal(g, e)
    return derived(g, ("edge_measure", e), lambda: _build_measure(g, e))


def _build_measure(g: Graph, e: int) -> EdgeMeasure:
    space = edge_space(g)
    nbrs = space.neighbors[e]
    if not nbrs:
        raise IsolatedEdgeError(
            f"edge {g.edge_name(e)} has no neighbors; its measure is undefined"
        )
    d = space.degrees[e]
    # tuple() of a list: see pairwise_costs
    return EdgeMeasure(e, nbrs, tuple([space.weight[f] / d for f in nbrs]))


def slicer(positions: Sequence[int]):
    """row -> tuple(row[p] for p in positions), sliced in C by itemgetter.

    itemgetter of one position returns the bare entry, and of none raises,
    so those two get a tuple of their own.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda row: (row[p],)
    return lambda row: ()


def pairwise_costs(g: Graph, atoms: tuple[int, ...]) -> tuple[tuple, ...]:
    """Distance rows over sorted atoms (ints, or floats if weighted):
    rows[k][l] = d(atoms[k], atoms[l]), each row sliced from the atom's
    distance row."""
    space = edge_space(g)
    # a list, not an iterator: CPython sizes an iterator's tuple by resizing
    # it, which strands a tuple on a free list every call
    return tuple(list(map(slicer(atoms), map(space.row, atoms))))
