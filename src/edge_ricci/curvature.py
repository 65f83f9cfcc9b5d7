"""Coarse Ricci curvature of edge pairs.

For distinct edges e, e' at edge distance d(e, e') the curvature is

    kappa(e, e') = 1 - W(m_e, m_e') / d(e, e'),

where W is the exact 1-Wasserstein distance between the neighborhood
measures and d the shortest-path distance in the line adjacency (see
edge_geometry).  One formula serves both graph kinds: an unweighted graph is
the unit-weight case, where everything is rational and returned as
Fraction; weighted graphs produce certified floats.  W comes from
transport.solve_wasserstein, which checks the whole certificate (plan
marginals, the dual's Lipschitz bound and the duality gap) itself; this
layer rechecks nothing.

Also here: the combinatorial lower and upper bounds for adjacent pairs and
the closed-form tree expression, all of which the verification layer tests
against the transport-derived values.  The bounds are written once over
measures, weights and degrees; what stays specific to one kind is what the
paper states for it: the union-form ceiling and the tree formula are
unweighted, and the weighted ceiling needs constant vertex weights.
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
)
from .errors import (
    InvalidParameterError,
    NonconstantVertexWeightsError,
    NotAdjacentError,
    NotATreeError,
    SamePairError,
    TransportError,
)
from .graph_core import Graph, WeightedGraph, derived, is_tree, vertex_degree
from .transport import (
    TransportProblem,
    TransportResult,
    _marginal_violations,
    solve_wasserstein,
)


@dataclass(frozen=True)
class CurvaturePair:
    """Curvature of one ordered edge pair together with its transport data."""

    e: int
    f: int
    distance: object
    kappa: object
    transport: TransportResult

    @property
    def exact(self) -> bool:
        return isinstance(self.kappa, Fraction)


def edges_adjacent(g, e: int, f: int) -> bool:
    """True when distinct edges e and f share a vertex."""
    if e == f:
        return False
    return f in edge_space(g).shared_vertex[e]


def pair_transport_problem(g, e: int, f: int) -> TransportProblem:
    """Transport instance between the neighborhood measures of e and f."""
    if e == f:
        raise SamePairError(f"curvature needs two distinct edges, got {e} twice")
    mu = edge_measure(g, e)
    nu = edge_measure(g, f)
    atoms = tuple(sorted(set(mu.atoms) | set(nu.atoms)))
    return TransportProblem(mu, nu, atoms, pairwise_costs(g, atoms))


def transport_for_pair(g, e: int, f: int) -> TransportResult:
    """The pair's optimal transport, with its certificate checked by the solver."""
    return solve_wasserstein(pair_transport_problem(g, e, f))


def ricci(g, e: int, f: int) -> CurvaturePair:
    """kappa(e, f) = 1 - W(m_e, m_f) / d(e, f) for distinct edges."""
    if e == f:
        raise SamePairError(f"curvature needs two distinct edges, got {e} twice")
    dist = edge_distance(g, e, f)
    result = transport_for_pair(g, e, f)
    return CurvaturePair(e, f, dist, 1 - result.distance / dist, result)


def ricci_all_adjacent(g) -> dict[tuple[int, int], CurvaturePair]:
    """Curvature for every unordered adjacent pair, keyed by (e, f), e < f,
    with the keys in ascending order: e ascends, and each f through e's
    ascending neighborhood, so callers iterate the table as built.

    The table is built once per graph instance and kept by derived; a
    WeightedGraph and the Graph it was built from each keep their own.
    Every call returns that same dict, which callers must treat as read-only.
    """
    return derived(g, "ricci_all_adjacent", lambda: {
        (e, f): ricci(g, e, f)
        for e in range(g.n_edges) for f in edge_neighborhood(g, e) if f > e
    })


def ricci_all_pairs(g):
    """Yield ((e, f), CurvaturePair) for every distinct pair, e < f, in key order.

    Adjacent pairs come from the per-graph table of ricci_all_adjacent; the
    others are solved as they are reached and not kept, so no all-pairs
    table is retained.  This walk backs `curvature --all-pairs` and
    kappa_min(g, "all"); the least curvature alone, without the table,
    comes cheaper from glued_all_pairs_minimum.
    """
    table = ricci_all_adjacent(g)
    m = g.n_edges
    for e in range(m):
        for f in range(e + 1, m):
            cp = table.get((e, f))
            yield (e, f), cp if cp is not None else ricci(g, e, f)


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

    'all' walks ricci_all_pairs, so every non-adjacent pair is solved on
    top of the per-graph adjacent table.  glued_all_pairs_minimum finds the
    same minimum with a coupling per non-adjacent pair in place of most of
    those solves; this solved form is its oracle.
    """
    if pairs not in ("adjacent", "all"):
        raise InvalidParameterError(f"pairs must be 'adjacent' or 'all', got {pairs!r}")
    found = adjacent_minimum(g)
    if found is None:
        raise InvalidParameterError("graph has no distinct edge pairs")
    if pairs == "adjacent":
        return found[0]
    return min(cp.kappa for _, cp in ricci_all_pairs(g))


@dataclass(frozen=True)
class AllPairsMinimum:
    """The least curvature over all distinct pairs and how it was certified.

    glued counts the non-adjacent pairs closed by a checked glued coupling;
    solved lists, ascending, the non-adjacent pairs (e, f), e < f, that
    were solved instead.
    """

    kappa: object
    glued: int
    solved: tuple[tuple[int, int], ...]


def glued_all_pairs_minimum(g) -> AllPairsMinimum:
    """Least curvature over all distinct pairs, solving only adjacent pairs.

    Take a non-adjacent pair e < f and a geodesic e = p_0, ..., p_k = f in
    the edge space.  Gluing a coupling of (m_e, m_p) to the adjacent plan of
    (p, q), pi(a, c) = sum_b pi_1(a, b) pi_2(b, c) / m_p(b), gives a
    coupling of (m_e, m_q) that costs at most the sum of the two costs (the
    gluing lemma; C. Villani, Optimal Transport, Old and New, 2009, ch. 1).
    Along the geodesic the glued coupling therefore costs at most
    sum W(p_i, p_i+1) <= d(e, f)(1 - kappa_min), with kappa_min the
    adjacent minimum, and a coupling that does proves kappa(e, f) >=
    kappa_min.  Once every non-adjacent pair has one, the adjacent minimum
    is the minimum over all pairs.

    For each e the geodesics are its shortest-path tree: the parent of f is
    the least-index neighbor p with row_e[p] + vertex_weight == row_e[f],
    exact because the Dijkstra row set row_e[f] by that very sum.  The tree
    is walked depth first over the subtrees that hold a pair f > e, keeping
    only the couplings on the current path, each as a dict per column c of
    the rows a it holds.  Unweighted, amounts are ints in the coupling's
    unit, a mass of 1/unit: the unit starts at d_e and grows by
    scale / d_p on each step p -> q, with scale that of the stored plan of
    (p, q), whose int amounts are glued as they are.  Weighted, amounts are
    float masses.
    Each pair's coupling has both marginals checked (tolerance 0 exact,
    1e-12 float; a failure raises TransportError) and its cost compared
    with d(e, f)(1 - kappa_min) at tolerance 0.  A pair whose cost does not
    close is solved, and its curvature lowers the minimum if it is less.
    """
    found = adjacent_minimum(g)
    if found is None:
        raise InvalidParameterError("graph has no distinct edge pairs")
    kappa = found[0]
    exact = isinstance(kappa, Fraction)
    slack = 1 - kappa
    space = edge_space(g)
    m = g.n_edges
    rows = list(map(space.row, range(m)))
    shared, vertex_weight = space.shared_vertex, space.vertex_weight
    glued, solved = 0, []
    for e in range(m):
        row = rows[e]
        needed = {f for f in range(e + 1, m) if f not in shared[e]}
        # the shortest-path tree of e, cut to the paths that reach a needed
        # pair; a vertex weight below half an ulp of the distances can loop
        # parents, and the pairs on such a loop stay unreached and are solved
        kids: dict[int, list[int]] = {}
        seen = {e}
        for f in sorted(needed):
            while f not in seen:
                seen.add(f)
                p = next(p for p in space.neighbors[f]
                         if row[p] + vertex_weight[shared[f][p]] == row[f])
                kids.setdefault(p, []).append(f)
                f = p
        unit = space.degrees[e] if exact else 1
        root = {a: {a: x} for a, x in _in_units(g, e, unit, exact).items()}
        path = [(e, root, unit, iter(kids.get(e, ())))]
        while path:
            p, coupling, unit, todo = path[-1]
            f = next(todo, None)
            if f is None:
                path.pop()
                continue
            steps, grow = _glue_step(g, p, f, exact)
            glue = {}
            for b, c, x in steps:
                column = glue.setdefault(c, {})
                for a, y in coupling.get(b, {}).items():
                    column[a] = column.get(a, 0) + y * x
            unit *= grow
            if f in needed:
                needed.discard(f)
                entries = [(a, c, y) for c, column in glue.items() for a, y in column.items()]
                violations = _marginal_violations(
                    entries, _in_units(g, e, unit, exact), _in_units(g, f, unit, exact),
                    exact)
                if violations:
                    raise TransportError(
                        f"glued coupling for pair ({e},{f}) along a {len(path)}-hop "
                        f"geodesic of length {row[f]}, over {len(space.neighbors[e])}x"
                        f"{len(space.neighbors[f])} atoms: {violations[0]}")
                cost = sum(y * rows[a][c] for a, c, y in entries)
                if cost <= row[f] * unit * slack:
                    glued += 1
                else:
                    solved.append((e, f))
            if f in kids:
                path.append((f, glue, unit, iter(kids[f])))
        solved.extend((e, f) for f in needed)
    solved.sort()
    for e, f in solved:
        kappa = min(kappa, ricci(g, e, f).kappa)
    return AllPairsMinimum(kappa, glued, tuple(solved))


def _in_units(g, e: int, unit, exact: bool) -> dict:
    """Atom -> m_e(atom) in the coupling's units: the int unit/d_e when
    exact (m_e is then uniform), else the float mass."""
    if exact:
        space = edge_space(g)
        return dict.fromkeys(space.neighbors[e], unit // space.degrees[e])
    return edge_measure(g, e).as_dict()


def _glue_step(g, p: int, q: int, exact: bool):
    """The adjacent plan of (p, q) as (b, c, x) entries to glue to a
    coupling of (m_e, m_p), and the factor the coupling's unit grows by.

    Exact, x is the plan's stored int amount pi(b, c) scale, and since
    m_p(b) = 1/d_p the unit grows by scale // d_p; float, x is
    pi(b, c) / m_p(b) and the unit stays 1."""
    transport = ricci_all_adjacent(g)[min(p, q), max(p, q)].transport
    plan = transport.plan if p < q else ((b, c, x) for c, b, x in transport.plan)
    if exact:
        return plan, transport.scale // edge_space(g).degrees[p]
    mass = edge_measure(g, p).as_dict()
    return ((b, c, x / mass[b]) for b, c, x in plan), 1


def _require_adjacent(g, e: int, f: int) -> None:
    if e == f:
        raise SamePairError(f"need two distinct edges, got {e} twice")
    if not edges_adjacent(g, e, f):
        raise NotAdjacentError(
            f"edges {g.edge_name(e)} and {g.edge_name(f)} share no vertex"
        )


def lower_bound(g, e: int, f: int):
    """Universal curvature floor for adjacent pairs:

        kappa >= -2 (1 - m_e(f) - m_f(e))_+

    with m_e the measure of e, so m_e(f) = w(f)/d_e; unweighted this is
    -2 (1 - 1/d_e - 1/d_f)_+ as an exact Fraction.
    """
    _require_adjacent(g, e, f)
    slack = 1 - edge_measure(g, e).as_dict()[f] - edge_measure(g, f).as_dict()[e]
    return -2 * slack if slack > 0 else slack - slack  # a typed zero, never -0.0


def upper_bound(g, e: int, f: int, variant: str = "as-stated"):
    """Combinatorial curvature ceiling for adjacent pairs: the edge weight of
    a pool of edges over the larger degree, max(d_e, d_f).

    Unweighted 'as-stated': the pool is Gamma(e) u Gamma(f), with the union
    taken literally from the neighborhood definition (so it contains e and
    f themselves, each being a neighbor of the other); exact Fraction.
    Unweighted 'intersection': the pool is Gamma(e) n Gamma(f) — a
    diagnostic only, reported but never asserted; it is often much tighter.
    Weighted (either variant; constant vertex weights required): the
    printed bound is already the intersection form.
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
        variant = "intersection"
    space = edge_space(g)
    near_e, near_f = set(space.neighbors[e]), set(space.neighbors[f])
    pool = near_e & near_f if variant == "intersection" else near_e | near_f
    top = max(space.degrees[e], space.degrees[f])
    if isinstance(g, WeightedGraph):
        return sum(space.weight[a] for a in pool) / top
    # every edge weighs 1 and every degree is an int
    return Fraction(len(pool), top)


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
