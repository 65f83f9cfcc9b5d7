"""Coarse Ricci curvature of edge pairs.

For distinct edges e, e' at edge distance d(e, e') the curvature is

    kappa(e, e') = 1 - W(m_e, m_e') / d(e, e'),

where W is the exact 1-Wasserstein distance between the neighborhood
measures and d the shortest-path distance in the line adjacency.  On an
unweighted graph everything is rational and returned as Fraction; weighted
graphs produce certified floats.

Also here: the combinatorial lower and upper bounds for adjacent pairs and
the closed-form tree expression, all of which the verification layer tests
against the transport-derived values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .edge_geometry import (
    edge_degree,
    edge_distance,
    edge_measure,
    edge_neighborhood,
    edge_space,
    pairwise_costs,
    weighted_edge_degree,
    weighted_edge_distance,
)
from .errors import (
    InvalidParameterError,
    NonconstantVertexWeightsError,
    NotAdjacentError,
    NotATreeError,
    SamePairError,
    TransportError,
)
from .graph_core import Graph, WeightedGraph, base_graph, is_tree, vertex_degree
from .transport import (
    TransportProblem,
    TransportResult,
    lipschitz_excess,
    solve_wasserstein,
    verify_coupling,
)


@dataclass(frozen=True)
class CurvaturePair:
    """Curvature of one ordered edge pair together with its transport data."""

    e: int
    f: int
    distance: object
    wasserstein: object
    kappa: object
    transport: TransportResult

    @property
    def exact(self) -> bool:
        return isinstance(self.kappa, Fraction)


def edges_adjacent(g, e: int, f: int) -> bool:
    """True when distinct edges e and f share a vertex."""
    base = base_graph(g)
    if e == f:
        return False
    return f in edge_space(base).shared_vertex[e]


def pair_transport_problem(g, e: int, f: int) -> TransportProblem:
    """Transport instance between the neighborhood measures of e and f."""
    if e == f:
        raise SamePairError(f"curvature needs two distinct edges, got {e} twice")
    mu = edge_measure(g, e)
    nu = edge_measure(g, f)
    atoms = tuple(sorted(set(mu.atoms) | set(nu.atoms)))
    return TransportProblem(mu, nu, pairwise_costs(g, atoms))


def transport_for_pair(g, e: int, f: int) -> TransportResult:
    """Solve the pair's transport problem and recheck plan and certificate."""
    problem = pair_transport_problem(g, e, f)
    result = solve_wasserstein(problem)
    check = verify_coupling(problem, result.plan)
    if not check.ok:
        raise TransportError(f"invalid plan for pair ({e},{f}): {check.violations[0]}")
    excess = lipschitz_excess(problem, result.dual)
    if excess > (0 if result.exact else 1e-9):
        raise TransportError(
            f"dual certificate for pair ({e},{f}) breaks the Lipschitz bound by {excess}"
        )
    return result


def ricci(g, e: int, f: int) -> CurvaturePair:
    """kappa(e, f) = 1 - W(m_e, m_f) / d(e, f) for distinct edges."""
    if e == f:
        raise SamePairError(f"curvature needs two distinct edges, got {e} twice")
    if isinstance(g, WeightedGraph):
        dist = weighted_edge_distance(g, e, f)
    else:
        dist = edge_distance(g, e, f)
    result = transport_for_pair(g, e, f)
    w = result.distance
    if isinstance(w, Fraction):
        kappa = 1 - Fraction(w, dist)
    else:
        kappa = 1.0 - w / dist
    return CurvaturePair(e, f, dist, w, kappa, result)


def ricci_all_adjacent(g) -> dict[tuple[int, int], CurvaturePair]:
    """Curvature for every unordered adjacent pair, keyed by (e, f), e < f.

    The table is built once per graph instance and kept in its `_adjacent`
    slot; a WeightedGraph and its base Graph each keep their own.  Every
    call returns that same dict, which callers must treat as read-only.
    """
    table = g._adjacent
    if table is None:
        base = base_graph(g)
        table = {}
        for e in range(base.n_edges):
            for f in edge_neighborhood(base, e):
                if f > e:
                    table[(e, f)] = ricci(g, e, f)
        g._adjacent = table
    return table


def adjacent_minimum(g):
    """(kappa, (e, f)) of the least adjacent curvature, or None without pairs.

    Ties go to the smallest pair key.
    """
    table = ricci_all_adjacent(g)
    if not table:
        return None
    key = min(table, key=lambda k: (table[k].kappa, k))
    return table[key].kappa, key


def kappa_min(g, pairs: str = "adjacent"):
    """Minimum curvature over 'adjacent' pairs or over 'all' distinct pairs.

    Adjacent pairs come from the per-graph table of ricci_all_adjacent.
    'all' solves only the non-adjacent pairs on top of it and keeps just
    their kappa, so no all-pairs table is retained.
    """
    if pairs not in ("adjacent", "all"):
        raise InvalidParameterError(f"pairs must be 'adjacent' or 'all', got {pairs!r}")
    found = adjacent_minimum(g)
    if found is None:
        raise InvalidParameterError("graph has no distinct edge pairs")
    least = found[0]
    if pairs == "all":
        table = ricci_all_adjacent(g)
        m = base_graph(g).n_edges
        for e in range(m):
            for f in range(e + 1, m):
                if (e, f) not in table:
                    least = min(least, ricci(g, e, f).kappa)
    return least


def _require_adjacent(g, e: int, f: int) -> None:
    if e == f:
        raise SamePairError(f"need two distinct edges, got {e} twice")
    if not edges_adjacent(g, e, f):
        base = base_graph(g)
        raise NotAdjacentError(
            f"edges {base.edge_name(e)} and {base.edge_name(f)} share no vertex"
        )


def lower_bound(g, e: int, f: int):
    """Universal curvature floor for adjacent pairs.

    Unweighted: kappa >= -2 (1 - 1/d_e - 1/d_f)_+ as an exact Fraction.
    Weighted:   kappa >= -2 (1 - w(f)/d_e - w(e)/d_f)_+ with weighted degrees.
    """
    _require_adjacent(g, e, f)
    if isinstance(g, WeightedGraph):
        d_e = weighted_edge_degree(g, e)
        d_f = weighted_edge_degree(g, f)
        slack = 1.0 - g.w_edge(f) / d_e - g.w_edge(e) / d_f
        return -2.0 * slack if slack > 0 else 0.0
    d_e = edge_degree(g, e)
    d_f = edge_degree(g, f)
    slack = 1 - Fraction(1, d_e) - Fraction(1, d_f)
    return -2 * slack if slack > 0 else Fraction(0)


def upper_bound(g, e: int, f: int, variant: str = "as-stated"):
    """Combinatorial curvature ceiling for adjacent pairs.

    Unweighted 'as-stated': kappa <= |Gamma(e) u Gamma(f)| / max(d_e, d_f),
    with the union taken literally from the neighborhood definition (so it
    contains e and f themselves, each being a neighbor of the other).
    Unweighted 'intersection': |Gamma(e) n Gamma(f)| / max(d_e, d_f) — a
    diagnostic only, reported but never asserted; it is often much tighter.
    Weighted (either variant; constant vertex weights required): the
    printed bound is already the intersection form, the total edge weight
    of Gamma(e) n Gamma(f) over the larger weighted degree.
    """
    _require_adjacent(g, e, f)
    if variant not in ("as-stated", "intersection"):
        raise InvalidParameterError(
            f"variant must be 'as-stated' or 'intersection', got {variant!r}"
        )
    if isinstance(g, WeightedGraph):
        if not g.has_constant_vertex_weights():
            raise NonconstantVertexWeightsError(
                "weighted curvature ceiling assumes one common vertex weight"
            )
        shared = set(edge_neighborhood(g, e)) & set(edge_neighborhood(g, f))
        num = sum(g.w_edge(a) for a in shared)
        return num / max(weighted_edge_degree(g, e), weighted_edge_degree(g, f))
    if variant == "intersection":
        pool = set(edge_neighborhood(g, e)) & set(edge_neighborhood(g, f))
    else:
        pool = set(edge_neighborhood(g, e)) | set(edge_neighborhood(g, f))
    return Fraction(len(pool), max(edge_degree(g, e), edge_degree(g, f)))


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
    y = edge_space(g).shared_vertex[e][f]
    deg_y = vertex_degree(g, g.labels[y])
    d_e, d_f = edge_degree(g, e), edge_degree(g, f)
    lo, hi = min(d_e, d_f), max(d_e, d_f)
    return Fraction(deg_y, lo) + Fraction(2 * deg_y - 2, hi) - 2
