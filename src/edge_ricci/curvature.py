"""Coarse Ricci curvature of edge pairs.

For distinct edges e, e' at edge distance d(e, e') the curvature is

    kappa(e, e') = 1 - W(m_e, m_e') / d(e, e'),

where W is the exact 1-Wasserstein distance between the neighborhood
measures and d the shortest-path distance in the line adjacency (see
edge_geometry).  One formula serves both graph kinds: an unweighted graph is
the unit-weight case, where everything is rational and returned as
Fraction; weighted graphs produce certified floats.  Every pair's W comes
from transport.residual_cost on pair_transport_problem's PairProblem, which
solves and certifies the residual LP alone (the cancellation lemma,
transport): its costs are the graph's certified edge metric (edge_geometry),
and no full plan, envelope dual, sorted joint support or cost block is
built.  W comes times the problem's scale, so an exact kappa is one
Fraction, and a float W is the full solve's to the last bit; this layer
rechecks nothing.  transport_for_pair returns the full TransportResult, for
callers that read the plan or the dual.

All pairs of a graph read one pair context, its edge space: distance rows,
each edge's measure (atoms, units, scale), neighbors, degrees and edge
names, each built once.  So ricci checks a pair's ordinals once, and a pair
pays only for the cancellation, the loop, the residual certificate, kappa,
and in verify.check_bounds its _bounds and check lines.

Only adjacent pairs need solving for the least curvature: since W is a
metric, the minimum over all distinct pairs is the adjacent minimum (the
proof is in verify.check_adjacent_pair_reduction).

Also here: pair_bounds, the combinatorial floor and ceilings of an adjacent
pair, and the closed-form tree expression, all of which the verification
layer tests against the transport-derived values.  The floor is written once
over weights and degrees; what stays specific to one kind is what the paper
states for it: the union-form ceiling and the tree formula are unweighted,
and the weighted ceiling needs constant vertex weights, which pair_bounds
alone decides.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .edge_geometry import (  # edge_measure unused here, but bench/test_bench.py reads it
    edge_measure,
    edge_space,
    pairwise_costs,
    shared_vertex,
    slicer,
)
from .errors import (
    InvalidParameterError,
    NonpositiveWeightError,
    NotAdjacentError,
    NotATreeError,
    SamePairError,
)
from .graph_core import Graph, WeightedGraph, check_edge_ordinal, derived, is_tree
from .transport import TransportProblem, residual_cost, solve_wasserstein


def edges_adjacent(g, e: int, f: int) -> bool:
    """True when e and f are distinct edges sharing a vertex (neighbors[e]
    never holds e itself).  An ordinal out of range raises UnknownEdgeError."""
    return check_edge_ordinal(g, f) in edge_space(g).neighbors[check_edge_ordinal(g, e)]


class PairProblem(TransportProblem):
    """The transport problem between the measures of edges e and f of g.

    Its measures and costs come from g's edge space, whose distance row of
    an edge is indexed by edge ordinal: costs(sources, sinks) slices each
    source's row at the sinks, and ``largest_cost`` (the float tolerances)
    is the largest K x K cost sliced so.  The sorted joint support ``atoms``
    and the block ``rows`` (by pairwise_costs) are built only when read (a
    full solve, a hand-built twin, the oracle), like ``position``,
    ``supply`` and ``demand``.  Distance rows pass every check of a block
    (a 0 at the row's own edge, sums of positive weights elsewhere, and no
    row kept with an infinite entry), so none is validated per pair.
    ``certified`` is True once the space certified its vertex metric, which
    building the problem forces: the costs are then a metric (within the
    edge-metric lemma's 1 + 3 gamma on float input), the solver takes the
    dual's Lipschitz bound as proved, and residual_cost may take W from the
    residual alone.
    """

    def __init__(self, g, e: int, f: int):
        space = edge_space(g)
        mu, nu = space.measure(e), space.measure(f)
        space.row(e)  # the first row read builds and certifies the vertex metric
        vars(self).update(mu=mu, nu=nu, _g=g, _space=space)
        self._settle(mu.exact and nu.exact, space.certified)

    @cached_property
    def atoms(self) -> tuple[int, ...]:
        return tuple(sorted({*self.mu.atoms, *self.nu.atoms}))

    @cached_property
    def rows(self) -> tuple[tuple, ...]:
        return pairwise_costs(self._g, self.atoms)

    @cached_property
    def largest_cost(self):
        # the block's entries, sliced unsorted from the space's rows
        joint = {*self.mu.atoms, *self.nu.atoms}
        return max(map(max, self.costs(joint, joint)))

    def costs(self, sources, sinks) -> list[tuple]:
        # an edge's ordinal is its position in a distance row
        return list(map(slicer(sinks), map(self._space.row, sources)))


def pair_transport_problem(g, e: int, f: int) -> PairProblem:
    """Transport instance between the neighborhood measures of e and f,
    sliced from g's edge space; kappa(e, f) reads the one of (min(e, f),
    max(e, f))."""
    if e == f:
        raise SamePairError(f"curvature needs two distinct edges, got {e} twice")
    return PairProblem(g, e, f)


def transport_for_pair(g, e: int, f: int):
    """The pair's optimal TransportResult, its certificate checked by the
    solver; kappa(e, f) reads transport_for_pair(g, min(e, f), max(e, f))."""
    return solve_wasserstein(pair_transport_problem(g, e, f))


def ricci(g, e: int, f: int):
    """kappa(e, f) = 1 - W(m_e, m_f) / d(e, f) for distinct edges (else
    pair_transport_problem raises SamePairError), with W from the residual
    LP of the certified problem: a Fraction on unweighted input and a float
    on weighted input; a float that overflows raises
    NonpositiveWeightError naming the pair.  Only the (min, max) problem is
    solved, so kappa(e, f) == kappa(f, e) bitwise, also on float weights,
    where the solver's summation order would move the last bits."""
    lo, hi = (e, f) if e < f else (f, e)
    if not (0 <= lo and hi < len(g.edges)):
        check_edge_ordinal(g, lo)
        check_edge_ordinal(g, hi)
    dist = edge_space(g).row(lo)[hi]
    problem = pair_transport_problem(g, lo, hi)
    total = residual_cost(problem)  # W times the problem's scale
    if problem.exact:
        # 1 - (total/scale)/dist = (q - total)/q: one Fraction, normalized once
        q = problem.scale * dist
        return Fraction(q - total, q)
    kappa = 1 - total / dist
    if not math.isfinite(kappa):
        raise NonpositiveWeightError(
            f"curvature of {g.edge_name(e)},{g.edge_name(f)} overflows a float: "
            f"W {total} over edge distance {dist}"
        )
    return kappa


def ricci_all_adjacent(g) -> dict[tuple[int, int], object]:
    """kappa for every unordered adjacent pair, keyed by (e, f), e < f,
    with the keys in ascending order: e ascends, and each f through e's
    ascending neighborhood, so callers iterate the table as built.

    The table keeps the numbers alone; a pair's plan and dual come from
    transport_for_pair.  It is built once per graph instance and kept by
    derived; a WeightedGraph and the Graph it was built from each keep their
    own.  Every call returns that same dict, which callers must treat as
    read-only.
    """
    return derived(g, "ricci_all_adjacent", lambda: {
        (e, f): ricci(g, e, f)
        for e, near in enumerate(edge_space(g).neighbors) for f in near if f > e
    })


def ricci_all_pairs(g):
    """Yield ((e, f), kappa) for every distinct pair, e < f, in key order.

    Adjacent pairs come from the per-graph table of ricci_all_adjacent; the
    others are solved as they are reached and not kept, so no all-pairs
    table is retained.  This walk backs `curvature --all-pairs` and the
    all-pairs minimum of acceptance criteria 2 and 7.
    """
    table = ricci_all_adjacent(g)
    m = g.n_edges
    for e in range(m):
        for f in range(e + 1, m):
            kappa = table.get((e, f))
            yield (e, f), kappa if kappa is not None else ricci(g, e, f)


def adjacent_minimum(g):
    """(kappa, (e, f)) of the least adjacent curvature, or None without pairs.

    Ties go to the smallest pair key.  Since W is a metric this is also the
    minimum over all distinct pairs (module docstring).  Built once per
    graph instance and kept by derived, like the table it reads.
    """
    def build():
        table = ricci_all_adjacent(g)
        if not table:
            return None
        key = min(table, key=lambda k: (table[k], k))
        return table[key], key
    return derived(g, "adjacent_minimum", build)


def _require_adjacent(g, e: int, f: int) -> None:
    if e == f:
        raise SamePairError(f"need two distinct edges, got {e} twice")
    if not edges_adjacent(g, e, f):
        raise NotAdjacentError(
            f"edges {g.edge_name(e)} and {g.edge_name(f)} share no vertex"
        )


def pair_bounds(g, e: int, f: int):
    """(floor, ceiling, intersection) for an adjacent pair e, f.

    floor: the universal -2 (1 - m_e(f) - m_f(e))_+ with m_e(f) = w(f)/d_e;
    unweighted this is -2 (1 - 1/d_e - 1/d_f)_+ as an exact Fraction.
    Each ceiling is the edge weight of a pool of edges over max(d_e, d_f).
    ceiling: unweighted, the pool is Gamma(e) u Gamma(f), the union taken
    literally from the neighborhood definition (so it holds e and f, each a
    neighbor of the other); exact Fraction.  On a WeightedGraph the printed
    bound is already the intersection form, stated for one common vertex
    weight: None when the vertex weights are not constant.
    intersection: the pool Gamma(e) n Gamma(f), unweighted only (None on a
    WeightedGraph); a diagnostic, reported but never asserted, often much
    tighter.
    """
    _require_adjacent(g, e, f)
    return _bounds(g, edge_space(g), e, f)


def _bounds(g, space, e: int, f: int):
    """pair_bounds of e and f, known to be adjacent, from g's edge space."""
    d_e, d_f = space.degrees[e], space.degrees[f]
    both = set(space.neighbors[e]) & set(space.neighbors[f])
    top = max(d_e, d_f)
    if not isinstance(g, WeightedGraph):
        # every edge weighs 1 and every degree is the int neighbor count, so
        # the slack is (d_e d_f - d_f - d_e) / (d_e d_f), formed in ints,
        # and the union holds d_e + d_f - |both| edges
        slack = d_e * d_f - d_f - d_e
        floor = Fraction(-2 * slack if slack > 0 else 0, d_e * d_f)
        return floor, Fraction(d_e + d_f - len(both), top), Fraction(len(both), top)
    slack = 1 - space.weight[f] / d_e - space.weight[e] / d_f
    floor = -2 * slack if slack > 0 else 0.0  # never -0.0
    if not g.constant_vertex_weights:
        return floor, None, None
    return floor, sum(space.weight[a] for a in both) / top, None


def tree_curvature_formula(g: Graph, e: int, f: int) -> Fraction:
    """Closed-form tree value for adjacent pairs sharing vertex y:

        deg(y)/min(d_e, d_f) + (2 deg(y) - 2)/max(d_e, d_f) - 2.

    This matches the transport value whenever both non-shared endpoints are
    internal vertices of the tree; pairs whose smaller-degree edge ends in a
    leaf can exceed the true curvature (see the verification layer, which
    reports the formula as stated).
    """
    if isinstance(g, WeightedGraph):
        raise InvalidParameterError("tree formula is defined for unweighted graphs")
    if not is_tree(g):
        raise NotATreeError("closed-form curvature needs a tree")
    _require_adjacent(g, e, f)
    deg_y = len(g.incident[shared_vertex(g, e, f)])
    lo, hi = sorted(edge_space(g).degrees[k] for k in (e, f))
    return Fraction(deg_y, lo) + Fraction(2 * deg_y - 2, hi) - 2
