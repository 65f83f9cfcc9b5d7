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

Both classes certify P once per graph, before any row is read, by one
check of each Dijkstra run before the runs are mixed (EdgeSpace._certify),
bitwise in the weights' own arithmetic fl (exact on ints).  The run from s
comes with a path witness, its pop order and each vertex's parent:

  (a) run[s] = w(s);
  (b) run[y] <= fl(run[x] + w(y)) on every arc (x, y);
  (c) the order lists s, then every other finite entry t once, after its
      parent p, a neighbor of t with run[t] = fl(run[p] + w(t)).

With (a), (b) and (c) are Bellman's equations.  Dijkstra meets all three:
entering y costs w(y) from any neighbor, pops come in nondecreasing order
and rounding is monotone, so no heap entry goes stale.  A failure raises
MetricCertificateError naming the first entry that misses its equation,
with both values, else the first that is no path sum by its witness.  The
equations alone pass the run (1, 0.5, 0.5) on the path s-a-b of weights
1, 1e-20, 1e-20, as fl(0.5 + 1e-20) = 0.5; (c) refuses it.  An entry that
overflowed to inf is exempt from (c), and row refuses it.

Lemma (the edge metric).  Let P* and d* be the exact vertex and edge
metrics, u = 2^-53 and gamma = (n - 1) u / (1 - (n - 1) u), 0 on int
input.  Every finite entry of P lies in [(1 - gamma) P*, (1 + gamma) P*],
and d against d* too.  Proof: by (c) an entry is a left fold of w along
its parents' path, simple as their places in the order fall, so at least
(1 - gamma) times its sum, at least P*; by (b) and monotone rounding it is
at most the fold along a least path, at most (1 + gamma) P*.  Mixing and
d's min over connectors keep both bounds.  d* is a metric: through an
edge g, the optimal paths from e and to f reach g's connectors y1 and y2,
equal or joined by one hop.  So d is symmetric bitwise, 0 only on the
diagonal, and d(e, f) <= (1 + 3 gamma)(d(e, g) + d(g, f)), exactly on int
input.  The transport solver relies on this for every problem sliced from
the space.

pairwise_costs builds a pair's K x K block, when one is read, from the
cached distance rows by slicer, in C.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, repeat
from operator import add, itemgetter, le, lt

from .errors import IsolatedEdgeError, MetricCertificateError, NonpositiveWeightError
from .graph_core import Graph, WeightedGraph, check_edge_ordinal, derived


class EdgeSpace:
    """Line adjacency of a Graph at unit weights.

    neighbors[e]      ordinals of the edges sharing a vertex with e, ascending,
                      read from g.incident
    weight[e]         Fraction(1)
    degrees[e]        the neighbor count, an int
    vertex_weight[v]  1, an int, so distances are int hop counts
    names[e]          g.edge_name(e)
    n_edges           g.n_edges
    certified         True once every Dijkstra run of the vertex metric
                      passed _certify (Bellman's equations and a path
                      witness, on both classes), which runs before any row
                      is read

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
        """P: each Dijkstra run passes _certify, then takes its entries
        before s from the earlier runs, so P is symmetric bitwise."""
        adjacent = self._neighbors_of_vertices()
        tails, heads = zip(*[(x, y) for x, ys in enumerate(adjacent) for y in ys])
        steps = list(map(self.vertex_weight.__getitem__, heads))
        arcs = slicer(tails), slicer(heads), steps, dict(zip(zip(tails, heads), steps))
        metric: list[list] = []
        for s, (run, order, parent) in enumerate(self._shortest_paths(adjacent)):
            self._certify(s, run, order, parent, arcs)
            run[:s] = [earlier[s] for earlier in metric]
            metric.append(run)
        self.certified = True
        return metric

    def _neighbors_of_vertices(self) -> list[list[int]]:
        # x's neighbors are the far ends i + j - x of its edges (i, j)
        edges = self._edges
        return [[sum(edges[k]) - x for k in ks] for x, ks in enumerate(self._incident)]

    def _shortest_paths(self, adjacent: list[list[int]]) -> list[tuple[list, list, list]]:
        """One Dijkstra run per source s, unmixed: (run, order, parent), with
        run[t] the least vertex-weight sum from s to t (inf if it overflows),
        order the pop order and parent[t] the vertex t was first reached
        from (s for s and for entries never reached)."""
        w = self.vertex_weight
        runs = []
        for s in range(len(w)):
            dist = [math.inf] * len(w)
            dist[s], parent, order = w[s], [s] * len(w), []
            pq = [(dist[s], s)]
            while pq:
                d, x = heapq.heappop(pq)
                order.append(x)
                for y in adjacent[x]:
                    nd = d + w[y]
                    if nd < dist[y]:
                        dist[y], parent[y] = nd, x
                        heapq.heappush(pq, (nd, y))
            runs.append((dist, order, parent))
        return runs

    def _certify(self, s: int, run: list, order: list[int], parent: list[int],
                 arcs: tuple) -> None:
        """Check the run from s and its path witness, bitwise, against (a),
        (b) and (c) of the module docstring, which says what a pass proves.
        arcs holds pickers of run[x] and run[y] over the arcs (x, y), each
        arc's w(y), and those by arc."""
        (tails, heads, steps, step), w, inf = arcs, self.vertex_weight, math.inf
        rest = order[1:]
        via = list(map(parent.__getitem__, rest))
        at = dict(zip(order, count()))
        popped = list(map(run.__getitem__, order))
        # distinct finite entries, as many as the run has, are all of them;
        # a parent that is no neighbor has no step, so its sum is nan
        if (run[s] == w[s] and order[:1] == [s]
                and all(map(le, heads(run), map(add, tails(run), steps)))
                and len(at) == len(order) == len(run) - run.count(inf) and inf not in popped
                and all(map(lt, map(at.get, via, repeat(len(order))), count(1)))
                and popped[1:] == list(map(add, map(run.__getitem__, via),
                                           map(step.get, zip(via, rest), repeat(math.nan))))):
            return
        labels = self._labels
        want = [min(map(run.__getitem__, us)) + wt
                for us, wt in zip(self._neighbors_of_vertices(), w)]
        want[s] = w[s]
        t = next((t for t, (x, y) in enumerate(zip(run, want)) if x != y), None)
        if t is not None:
            raise MetricCertificateError(f"vertex metric P({labels[s]}, {labels[t]}) = {run[t]} "
                                         f"misses Bellman's equation, which gives {want[t]}")
        # the first entry popped a wrong number of times or, other than s,
        # popped first, or whose parent is no neighbor, popped later or
        # misses its sum
        t = next(t for t, (x, p, i) in enumerate(zip(run, parent, map(at.get, range(len(run)))))
                 if order.count(t) != math.isfinite(x) or t != s and i is not None and not (
                     i and (p, t) in step and at.get(p, i) < i and x == run[p] + w[t]))
        raise MetricCertificateError(f"vertex metric P({labels[s]}, {labels[t]}) = {run[t]} "
                                     f"is no path sum by its witness")

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
