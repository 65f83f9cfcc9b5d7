"""Geometry of the edge space: neighborhoods, degrees, distances, measures.

Two distinct edges are neighbors when they share a vertex (in a simple graph
the shared vertex is unique).  Each quantity is defined once, for edge
weights w and vertex weights; an unweighted Graph is the unit-weight case
and carries exact rationals, a WeightedGraph carries floats.

- The degree d_e of edge e is the weight sum over its neighbors; at unit
  weights it is the neighbor count deg(x) + deg(y) - 2 for e = {x, y}.
- The measure of e gives each neighbor f mass w(f)/d_e.
- The distance between edges is the cheapest edge path e_0, e_1, ..., e_n,
  each hop charged the weight of the vertex it passes (the hop count at unit
  weights).  It is d(e, f) = min P(x, y) over x in e, y in f, where P(x, y)
  is the least vertex-weight sum over vertex paths from x to y, both ends
  counted: consecutive connectors of an edge path are equal (a wasted hop)
  or the ends of an edge, so an optimal path's connectors form a vertex path
  from an end of e to an end of f, and every such vertex path is the
  connectors of an edge path.  At unit weights d(e, f) is 1 + hops.

edge_space(g) builds a graph's space once and is the one place that picks
its class: EdgeSpace (int degrees and vertex weights) for a Graph, its
subclass WeightedEdgeSpace (float ones) for a WeightedGraph.  Both build P
by one Dijkstra run per vertex in the weights' own number type, one value
per unordered vertex pair, so distance rows are symmetric to the last bit.
Every function below reads their common fields alone.
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

    neighbors[e]      ordinals of the edges sharing a vertex with e, ascending,
                      read from g.incident
    weight[e]         Fraction(1)
    degrees[e]        the neighbor count, an int
    vertex_weight[v]  1, an int, so distances are int hop counts

    The vertex metric and the distance rows are filled lazily.  Holds the
    labels, edges and incident table (for the metric and edge names) but not
    the graph that keeps it, so that graph is freed by reference counting
    alone.  Built once per Graph instance and read-only afterwards, so
    concurrent readers are safe.
    """

    __slots__ = ("neighbors", "degrees", "weight", "vertex_weight",
                 "_labels", "_edges", "_incident", "_metric", "_rows")

    def __init__(self, g: Graph):
        incident = g.incident
        self.neighbors = tuple(
            tuple(sorted({*incident[i], *incident[j]} - {e}))
            for e, (i, j) in enumerate(g.edges)
        )
        self.weight = (Fraction(1),) * g.n_edges
        self.degrees = tuple(map(len, self.neighbors))
        self.vertex_weight = (1,) * g.n_vertices
        self._labels, self._edges, self._incident = g.labels, g.edges, incident
        self._metric: list[list] | None = None
        self._rows: dict[int, tuple] = {}

    def _vertex_metric(self) -> list[list]:
        """P[x][y] by one Dijkstra run per vertex; each unordered pair keeps
        the value of its smaller vertex's run, so P is symmetric bitwise."""
        w, edges = self.vertex_weight, self._edges
        # x's neighbors are the far ends i + j - x of its edges (i, j)
        adjacent = [[sum(edges[k]) - x for k in ks] for x, ks in enumerate(self._incident)]
        metric: list[list] = []
        for s in range(len(w)):
            dist = [math.inf] * len(w)
            dist[s] = w[s]
            pq = [(dist[s], s)]
            # no entry goes stale: entering y costs w[y] from any neighbor, pops
            # come in nondecreasing order and rounding is monotone, so y's
            # first push already carries its least distance
            while pq:
                d, x = heapq.heappop(pq)
                for y in adjacent[x]:
                    nd = d + w[y]
                    if nd < dist[y]:
                        dist[y] = nd
                        heapq.heappush(pq, (nd, y))
            dist[:s] = [run[s] for run in metric]
            metric.append(dist)
        return metric

    def row(self, e: int) -> tuple:
        """Distance row from edge e: min P(x, y) over x in e and y in f for
        each f != e, int hop counts at unit weights, else floats."""
        cached = self._rows.get(e)
        if cached is not None:
            return cached
        if self._metric is None:
            self._metric = self._vertex_metric()
        i, j = self._edges[e]
        # conditionals, not min(): a third of the time, and the same numbers
        near = [a if a < b else b for a, b in zip(self._metric[i], self._metric[j])]
        dist = [near[x] if near[x] < near[y] else near[y] for x, y in self._edges]
        dist[e] = self.vertex_weight[0] * 0  # zero in the weights' number type
        # the graph is connected, so an infinite distance is an overflow
        if math.inf in dist:
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


def shared_vertex(g: Graph, e: int, f: int) -> int:
    """Index of the one vertex that adjacent edges e and f share."""
    (v,) = set(g.edges[e]) & set(g.edges[f])
    return v


def edge_distance(g: Graph, e: int, e2: int):
    """Cheapest connector-weight sum over edge paths from e to e2 (0 iff
    e == e2), read from the vertex metric: the int hop count unweighted, a
    float on a WeightedGraph."""
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
