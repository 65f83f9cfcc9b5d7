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
The space is kept per graph by graph_core.derived, and keeps each edge's
measure and distance row.

An EdgeSpace certifies its int P once per graph, right after the Dijkstra
runs and before any row is read: P[s][s] = w(s), and every other P[s][t]
is the min over neighbors u of t of P[s][u] + w(t) (Bellman's equations).
With positive weights on a connected graph they have one solution, so a P
that passes is the vertex metric, and the failure of an entry raises
MetricCertificateError naming both vertices, the stored value and the
equation's.  The edge distance is then a metric: it is symmetric, 0 only
on the diagonal, and for the triangle inequality through an edge g, let
y1 be g's connector on an optimal path from e and y2 its connector on one
to f; if y1 = y2 the two paths join at that vertex, and otherwise y1 and
y2 are the two ends of g, which one hop joins.  The transport solver
relies on this lemma for every problem sliced from the space.

A WeightedEdgeSpace certifies its float P at the same point, by two
inequalities instead: a float row of P mixes the rounding of different
runs, so exact equations fail on correct metrics.  With eps = 1e-12, each
holds within eps of its left side:

  (I1) P(x, z) <= P(x, u) + P(u, z) - w(u) + eps P(x, z) for all x, u, z;
  (I2) P(y1, z) <= w(y1) + P(y2, z) + eps P(y1, z) for each edge {y1, y2},
       both ways, and every z.

A least path through u, or one that starts with the hop from y1 to y2,
bounds each left side, so both hold on a correct P up to rounding, which
is about 1e-16 per vertex of the path; a failure raises
MetricCertificateError naming both vertices and both sides.  Lemma: they
give the edge metric's triangle inequality within that tolerance, d(e, f)
<= (1 + 3 eps)(d(e, g) + d(g, f)).  Proof: let P(x, y1) = d(e, g) and
P(y2, z) = d(g, f) with x in e, y1 and y2 in g, z in f, and D their sum.
If y1 = y2 = u, (I1) gives (1 - eps) P(x, z) <= D.  Otherwise y1 and y2 are
the ends of g, and (I2) gives P(y1, z) - w(y1) <= P(y2, z) + eps P(y1, z)
with (1 - eps) P(y1, z) <= D (as w(y1) <= P(x, y1)), so (I1) at u = y1
gives (1 - eps) P(x, z) <= D + eps D / (1 - eps).  Either way d(e, f) <=
P(x, z) <= D / (1 - eps)^2 <= (1 + 3 eps) D, up to the check's own
rounding, a few units in the last place.  The symmetry and the zero
diagonal hold bitwise, as on int P.  The checks run in C map chains, n^3
comparisons for (I1).

pairwise_costs builds a pair's K x K block, when one is read, from the
cached distance rows by slicer, in C.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add, itemgetter, le

from .errors import IsolatedEdgeError, MetricCertificateError, NonpositiveWeightError
from .graph_core import Graph, WeightedGraph, check_edge_ordinal, derived

_METRIC_TOL = 1e-12  # float P's certificate: accepted excess per unit of the left side


class EdgeSpace:
    """Line adjacency of a Graph at unit weights.

    neighbors[e]      ordinals of the edges sharing a vertex with e, ascending,
                      read from g.incident
    weight[e]         Fraction(1)
    degrees[e]        the neighbor count, an int
    vertex_weight[v]  1, an int, so distances are int hop counts
    names[e]          g.edge_name(e)
    n_edges           g.n_edges
    certified         True once the vertex metric passed its certificate
                      (_certify: Bellman's equations here, the two
                      inequalities on a WeightedEdgeSpace), which runs
                      before any row is read

    It is the graph's pair context, read by every edge pair.  The vertex
    metric, the distance rows (row) and the measures (measure) are filled
    lazily, each once.  Holds the labels, edges and incident table but not
    the graph that keeps it, so that graph is freed by reference counting
    alone.  Built once per Graph instance; a filled entry never changes.
    """

    __slots__ = ("neighbors", "degrees", "weight", "vertex_weight", "names", "n_edges",
                 "certified", "_labels", "_edges", "_incident", "_metric", "_rows",
                 "_measures")

    def __init__(self, g: Graph):
        incident, labels = g.incident, g.labels
        self.neighbors = tuple(
            tuple(sorted({*incident[i], *incident[j]} - {e}))
            for e, (i, j) in enumerate(g.edges)
        )
        self.weight = (Fraction(1),) * g.n_edges
        self.degrees = tuple(map(len, self.neighbors))
        self.vertex_weight = (1,) * g.n_vertices
        self.names = tuple(f"{labels[i]}-{labels[j]}" for i, j in g.edges)
        self.n_edges = g.n_edges
        self._labels, self._edges, self._incident = labels, g.edges, incident
        self.certified = False
        self._metric: list[list] | None = None
        self._rows: dict[int, tuple] = {}
        self._measures: dict[int, EdgeMeasure] = {}

    def _vertex_metric(self) -> list[list]:
        """P, certified before any row reads it (see _certify)."""
        metric = self._shortest_paths()
        self._certify(metric)
        self.certified = True
        return metric

    def _neighbors_of_vertices(self) -> list[list[int]]:
        # x's neighbors are the far ends i + j - x of its edges (i, j)
        edges = self._edges
        return [[sum(edges[k]) - x for k in ks] for x, ks in enumerate(self._incident)]

    def _shortest_paths(self) -> list[list]:
        """P[x][y] by one Dijkstra run per vertex; each unordered pair keeps
        the value of its smaller vertex's run, so P is symmetric bitwise."""
        w, adjacent = self.vertex_weight, self._neighbors_of_vertices()
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

    def _certify(self, metric: list[list]) -> None:
        """Check P against Bellman's equations, exactly: P[s][s] = w(s), and
        every other P[s][t] is the min over neighbors u of t of P[s][u] +
        w(t).  What a pass proves is in the module docstring."""
        w, labels = self.vertex_weight, self._labels
        near = list(map(slicer, self._neighbors_of_vertices()))
        for s, run in enumerate(metric):
            want = [min(pick(run)) + wt for pick, wt in zip(near, w)]
            want[s] = w[s]
            if want != run:
                t = next(t for t, (p, q) in enumerate(zip(run, want)) if p != q)
                raise MetricCertificateError(
                    f"vertex metric P({labels[s]}, {labels[t]}) = {run[t]} misses "
                    f"Bellman's equation, which gives {want[t]}"
                )

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
                f"edge distances from {self.names[e]} reach inf: "
                f"its connectors' vertex weights overflow a float"
            )
        out = tuple(dist)
        self._rows[e] = out
        return out

    def measure(self, e: int) -> EdgeMeasure:
        """edge_measure of e, built on first read (UnknownEdgeError first)."""
        kept = self._measures.get(e)
        if kept is None:
            kept = self._measures[e] = _build_measure(self, check_edge_ordinal(self, e))
        return kept


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

    def _certify(self, metric: list[list]) -> None:
        """Check float P against the two inequalities of the module
        docstring, each within 1e-12 of its left side: P(x, z) <= P(x, u) +
        P(u, z) - w(u) for all x, u, z, and P(y1, z) <= w(y1) + P(y2, z) for
        each edge {y1, y2}, both ways, and every z.  What a pass proves is
        in the module docstring."""
        w, labels = self.vertex_weight, self._labels
        # each left side less its tolerance
        low = [[p * (1 - _METRIC_TOL) for p in run] for run in metric]
        for x, run in enumerate(metric):
            for u, (p, wu) in enumerate(zip(run, w)):
                if not all(map(le, low[x], map(add, metric[u], repeat(p - wu)))):
                    rhs = [q + (p - wu) for q in metric[u]]
                    z = _first_excess(low[x], rhs)
                    raise MetricCertificateError(
                        f"vertex metric P({labels[x]}, {labels[z]}) = {run[z]} exceeds "
                        f"P({labels[x]}, {labels[u]}) + P({labels[u]}, {labels[z]}) "
                        f"- w({labels[u]}) = {rhs[z]}")
        for edge in self._edges:
            for y1, y2 in (edge, edge[::-1]):
                if not all(map(le, low[y1], map(add, metric[y2], repeat(w[y1])))):
                    rhs = [q + w[y1] for q in metric[y2]]
                    z = _first_excess(low[y1], rhs)
                    raise MetricCertificateError(
                        f"vertex metric P({labels[y1]}, {labels[z]}) = {metric[y1][z]} "
                        f"exceeds w({labels[y1]}) + P({labels[y2]}, {labels[z]}) = {rhs[z]}")

    # bench/tracer.py wraps this class's own row; a super().row call would double its spans
    row = EdgeSpace.row


def _first_excess(low: list, rhs: list) -> int:
    """The first z whose tolerance-shrunk left side low[z] exceeds rhs[z]."""
    return next(z for z, (p, q) in enumerate(zip(low, rhs)) if not p <= q)


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
        exact = all(map(isinstance, masses, repeat(Fraction)))
        scale, units = 1, masses
        if exact:
            dens = [m.denominator for m in masses]
            scale = math.lcm(*dens)
            units = tuple([m.numerator * (scale // d) for m, d in zip(masses, dens)])
        if abs(sum(units) - scale) > (0 if exact else 1e-12):
            raise ValueError(f"measure sums to {sum(masses)}, not 1")
        vars(self).update(exact=exact, scale=scale, units=units)


def edge_measure(g: Graph, e: int) -> EdgeMeasure:
    """Mass w(f)/d_e on each neighbor f of e (uniform 1/d_e at unit weights).

    Built once per edge and graph, and kept by the graph's edge space.
    """
    return edge_space(g).measure(check_edge_ordinal(g, e))


def _build_measure(space: EdgeSpace, e: int) -> EdgeMeasure:
    nbrs = space.neighbors[e]
    if not nbrs:
        raise IsolatedEdgeError(
            f"edge {space.names[e]} has no neighbors; its measure is undefined"
        )
    d, last, masses = space.degrees[e], None, []
    for w in map(space.weight.__getitem__, nbrs):
        if w is not last:  # one division per weight object: at unit weights, 1/d_e for all
            last, share = w, w / d
        masses.append(share)
    return EdgeMeasure(e, nbrs, tuple(masses))


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
