"""Coarse Ricci curvature of edge pairs.

For distinct edges e, e' at edge distance d(e, e') the curvature is

    kappa(e, e') = 1 - W(m_e, m_e') / d(e, e'),

where W is the exact 1-Wasserstein distance between the neighborhood
measures and d the shortest-path distance in the line adjacency (see
edge_geometry).  One formula serves both graph kinds: an unweighted graph is
the unit-weight case, where everything is rational and returned as
Fraction; weighted graphs produce certified floats.  W comes from
transport.solve_wasserstein on pair_transport_problem's PairProblem, and
the solver checks the certificate itself: plan marginals, complementary
slackness and the duality gap on every solve, and the dual's Lipschitz
bound by a walk on float problems and by the lemma of the graph's
certified edge metric (edge_geometry) on exact ones.  This layer rechecks
nothing.

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

from .edge_geometry import edge_distance, edge_measure, edge_space, pairwise_costs, shared_vertex
from .errors import (
    InvalidParameterError,
    NonpositiveWeightError,
    NotAdjacentError,
    NotATreeError,
    SamePairError,
)
from .graph_core import Graph, WeightedGraph, check_edge_ordinal, derived, is_tree
from .transport import TransportProblem, solve_wasserstein


def edges_adjacent(g, e: int, f: int) -> bool:
    """True when e and f are distinct edges sharing a vertex (neighbors[e]
    never holds e itself).  An ordinal out of range raises UnknownEdgeError."""
    return check_edge_ordinal(g, f) in edge_space(g).neighbors[check_edge_ordinal(g, e)]


class PairProblem(TransportProblem):
    """The transport problem between the measures of edges e and f of g.

    It builds its own block from g's edge space: atoms, the sorted joint
    support of the two measures, and rows sliced from the space's distance
    rows by pairwise_costs.  Such rows pass every check of the block by
    construction (a distance row has a 0 at its own edge, sums of positive
    weights elsewhere, and the space raises before it keeps a row with an
    infinite entry), so no block is validated per pair.  ``certified`` is
    True when the problem is exact and the space certified its vertex
    metric: the rows are then slices of a metric, and the solver takes the
    dual's Lipschitz bound as proved.
    """

    def __init__(self, g, e: int, f: int):
        mu, nu = edge_measure(g, e), edge_measure(g, f)
        atoms = tuple(sorted({*mu.atoms, *nu.atoms}))
        rows = pairwise_costs(g, atoms)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "rows", rows)
        exact = mu.exact and nu.exact and edge_space(g).certified
        self._settle(exact, exact)


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
    pair_transport_problem raises SamePairError): a Fraction on unweighted
    input, a float on weighted input; a float that overflows raises
    NonpositiveWeightError naming the pair.  Only the (min, max) problem is
    solved, so kappa(e, f) == kappa(f, e) bitwise, also on float weights,
    where the solver's summation order would move the last bits."""
    lo, hi = sorted((e, f))
    dist = edge_distance(g, lo, hi)
    w = transport_for_pair(g, lo, hi).distance
    if isinstance(w, Fraction):
        # 1 - (p/q)/dist = (q dist - p)/(q dist): one Fraction, normalized once
        q = w.denominator * dist
        return Fraction(q - w.numerator, q)
    kappa = 1 - w / dist
    if not math.isfinite(kappa):
        raise NonpositiveWeightError(
            f"curvature of {g.edge_name(e)},{g.edge_name(f)} overflows a float: "
            f"W {w} over edge distance {dist}"
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
    space = edge_space(g)
    d_e, d_f = space.degrees[e], space.degrees[f]
    near_e, near_f = set(space.neighbors[e]), set(space.neighbors[f])
    top = max(d_e, d_f)
    if not isinstance(g, WeightedGraph):
        # every edge weighs 1 and every degree is an int, so the slack is
        # (d_e d_f - d_f - d_e) / (d_e d_f), formed in ints
        slack = d_e * d_f - d_f - d_e
        floor = Fraction(-2 * slack if slack > 0 else 0, d_e * d_f)
        return floor, Fraction(len(near_e | near_f), top), Fraction(len(near_e & near_f), top)
    slack = 1 - space.weight[f] / d_e - space.weight[e] / d_f
    floor = -2 * slack if slack > 0 else 0.0  # never -0.0
    if not g.constant_vertex_weights:
        return floor, None, None
    return floor, sum(space.weight[a] for a in near_e & near_f) / top, None


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
