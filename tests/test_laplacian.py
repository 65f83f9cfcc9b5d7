"""Operator assembly: frozen small matrices, dual routes, reorientation.

The dense incidence matrix and the dense products over it live here, as
the reference the sparse builders must match entry for entry; they take
edge flips, so the suite also checks that no operator depends on the
orientation the library builds in.

numpy.linalg appears here purely as an oracle for the hand-rolled
eigensolver and for the AB/BA spectrum comparisons.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edge_ricci.errors import InvalidParameterError, IsolatedEdgeError
from edge_ricci.edge_geometry import edge_measure, edge_space, shared_vertex
from edge_ricci.graph_core import SplitMix64, WeightedGraph, generate
from edge_ricci.laplacian import (
    assemble,
    dump_matrix,
    gram_moments,
    symmetrized,
    weight_pair,
)
from edge_ricci.spectra import eigenvalues_symmetric, spectrum_of


def dense_incidence(g, flips=()):
    """Signed incidence matrix, one row per edge: -1 at the tail, +1 at the
    head, with the edges listed in flips reversed."""
    rows = []
    for e, (i, j) in enumerate(g.edges):
        s = -1 if e in flips else 1
        row = [0] * g.n_vertices
        row[i], row[j] = -s, s
        rows.append(row)
    return rows


def test_incidence_of_path3():
    g = generate("path:3")
    assert dense_incidence(g) == [[-1, 1, 0], [0, -1, 1]]
    assert dense_incidence(g, flips=(1,)) == [[-1, 1, 0], [0, 1, -1]]


def test_unit_vertex_operator_is_the_combinatorial_laplacian():
    g = generate("path:3")
    assert assemble(g, "vertex", "unit") == [
        [Fraction(1), Fraction(-1), Fraction(0)],
        [Fraction(-1), Fraction(2), Fraction(-1)],
        [Fraction(0), Fraction(-1), Fraction(1)],
    ]


def test_walk_vertex_operator_is_the_normalized_laplacian():
    vals = spectrum_of(generate("cycle:4"), "vertex", "walk").values
    assert vals == pytest.approx((0.0, 1.0, 1.0, 2.0), abs=1e-12)
    # walk scheme: W0 = degree diagonal, W1 = identity
    w0, w1 = weight_pair(generate("star:3"), "walk")
    assert w0 == [Fraction(3), Fraction(1), Fraction(1), Fraction(1)]
    assert w1 == [Fraction(1)] * 3


def test_triangle_degree_edge_operator_frozen():
    # every edge degree is 2, so W1 = diag(1/2) and the diagonal is 2/d = 1;
    # the (e01, e12) coupling is at a head/tail meeting, hence the sign
    got = assemble(generate("complete:3"), "edge", "degree")
    h = Fraction(1, 2)
    assert got == [[1, h, -h], [h, 1, h], [-h, h, 1]]
    vals = spectrum_of(generate("complete:3"), "edge", "degree").values
    assert vals == pytest.approx((0.0, 1.5, 1.5), abs=1e-12)


def test_graph_weighting_uses_the_given_weights():
    wg = WeightedGraph(generate("path:3"), {"v1": 4.0}, {("v0", "v1"): 2.0})
    w0, w1 = weight_pair(wg, "graph")
    assert w0 == [1.0, 4.0, 1.0]
    assert w1 == [2.0, 1.0]


@pytest.mark.parametrize("spec", ["cycle:5", "complete:4", "petersen"])
def test_edge_operator_kernel_counts_independent_cycles(spec):
    g = generate(spec)
    s = spectrum_of(g, "edge", "degree")
    assert s.zero_multiplicity == g.n_edges - g.n_vertices + 1


# ---------------------------------------------------------- dual routes

def apply_down_part(g, values):
    """Off-diagonal part of the degree-weighted edge operator, measure route.

    For each edge e and every neighbor e' sharing vertex v, canonically
    oriented,

        unweighted: sgn_e(v) sgn_e'(v) m_e(e') (d_e / d_e') u(e')
        weighted:   sgn_e(v) sgn_e'(v) m_e(e') (d_e / w0(v)) u(e')

    summed over e', where m_e is the neighborhood measure and d_e the
    (weighted) edge degree.  This is computed from measures and degrees,
    not from incidence products, so it cross-checks `assemble` minus its
    diagonal.
    """
    space = edge_space(g)

    def sign_at(e, v):
        return 1 if v == g.edges[e][1] else -1  # the head carries +1

    out = []
    for e in range(g.n_edges):
        measure = edge_measure(g, e)
        me = dict(zip(measure.atoms, measure.masses))
        d_e = space.degrees[e]
        acc = None
        for f in space.neighbors[e]:
            v = shared_vertex(g, e, f)
            if isinstance(g, WeightedGraph):
                scale = d_e / g.vertex_weights[v]
            else:
                scale = Fraction(d_e, space.degrees[f])
            term = sign_at(e, v) * sign_at(f, v) * me[f] * scale * values[f]
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else 0 * values[e])
    return out


@given(st.integers(0, 120))
def test_down_part_matches_assemble_without_diagonal(seed):
    g = generate("random:6:0.5", seed=seed)
    mat = assemble(g, "edge", "degree")
    probe = [Fraction(k + 1, 3) for k in range(g.n_edges)]
    via_measures = apply_down_part(g, probe)
    for e in range(g.n_edges):
        direct = sum(mat[e][f] * probe[f] for f in range(g.n_edges) if f != e)
        assert via_measures[e] == direct  # exact Fractions on both routes


def test_down_part_weighted_route():
    wg = WeightedGraph(generate("cycle:4"), {"v0": 2.0, "v2": 0.5},
                       {("v1", "v2"): 3.0})
    mat = assemble(wg, "edge", "graph")
    probe = [1.0, -2.0, 0.25, 3.0]
    via_measures = apply_down_part(wg, probe)
    for e in range(4):
        direct = sum(mat[e][f] * probe[f] for f in range(4) if f != e)
        assert via_measures[e] == pytest.approx(direct, abs=1e-12)


def _dense_operator(g, operator, weighting, flips=()):
    """W0^-1 D^T W1 D or D W0^-1 D^T W1, dense over the full incidence."""
    d0 = dense_incidence(g, flips)
    w0, w1 = weight_pair(g, weighting)
    n, m = len(w0), len(w1)
    if operator == "vertex":
        return [[sum((d0[e][u] * w1[e] * d0[e][v] for e in range(m)), 0 * w1[0]) / w0[u]
                 for v in range(n)] for u in range(n)]
    return [[sum((d0[e][v] * d0[f][v] / w0[v] for v in range(n)), 0 * w1[0]) * w1[f]
             for f in range(m)] for e in range(m)]


def _dense_gram(g, operator, weighting, flips=()):
    """The dense B^T B / B B^T product over the full incidence matrix."""
    d0 = dense_incidence(g, flips)
    w0, w1 = weight_pair(g, weighting)
    n, m = len(w0), len(w1)
    b = [[math.sqrt(w1[e]) * d0[e][v] / math.sqrt(w0[v]) for v in range(n)]
         for e in range(m)]
    if operator == "vertex":
        return [[sum(b[e][u] * b[e][v] for e in range(m)) for v in range(n)]
                for u in range(n)]
    return [[sum(b[e][v] * b[f][v] for v in range(n)) for f in range(m)]
            for e in range(m)]


def _random_weights(g, seed):
    rng = SplitMix64(seed)
    vw = {v: 0.5 + 1.5 * rng.uniform() for v in g.labels}
    ew = {g.edge_endpoints(e): 0.5 + 1.5 * rng.uniform() for e in range(g.n_edges)}
    return WeightedGraph(g, vw, ew)


def test_weightings_but_graph_ignore_the_weights():
    # unit, walk and degree read the structure alone: the degree scheme's
    # W1 holds 1/neighbor count, never a weighted degree
    base = generate("random:9:0.4", seed=3)
    wg = _random_weights(base, 3)
    for weighting in ("unit", "walk", "degree"):
        pair = weight_pair(wg, weighting)
        assert pair == weight_pair(base, weighting)
        assert all(type(x) is Fraction for w in pair for x in w)
    assert spectrum_of(wg, "edge", "degree").values == \
        spectrum_of(base, "edge", "degree").values


@pytest.mark.parametrize("operator", ["vertex", "edge"])
@pytest.mark.parametrize("weighting", ["unit", "walk", "degree", "graph"])
@pytest.mark.parametrize("spec,seed", [("random:9:0.4", 3), ("petersen", 0),
                                       ("star:6", 0), ("tree:12", 5)])
def test_sparse_symmetrized_equals_dense_gram(spec, seed, weighting, operator):
    g = generate(spec, seed=seed)
    if weighting == "graph":
        g = _random_weights(g, seed)
    got = symmetrized(g, operator, weighting)
    assert got == _dense_gram(g, operator, weighting)  # same sums in the same order
    assert all(type(x) is float for row in got for x in row)
    # reversing edges conjugates B B^T by the +-1 diagonal S and leaves
    # B^T B alone: the same spectrum either way
    m = g.n_edges
    flips = range(0, m, 3)
    sign = [-1 if e in flips else 1 for e in range(m)]
    flipped = _dense_gram(g, operator, weighting, flips)
    if operator == "vertex":
        assert flipped == got
    else:
        assert flipped == [[sign[e] * sign[f] * x for f, x in enumerate(row)]
                           for e, row in enumerate(got)]


@pytest.mark.parametrize("operator", ["vertex", "edge"])
@pytest.mark.parametrize("weighting", ["unit", "walk", "degree", "graph"])
@pytest.mark.parametrize("spec,seed", [("random:9:0.4", 3), ("petersen", 0),
                                       ("tree:12", 5)])
def test_gram_moments_are_the_operator_trace_and_trace_of_square(spec, seed,
                                                                 weighting, operator):
    # B^T B and B B^T share tr and ||.||_F^2 (sums of sigma^2 and sigma^4),
    # similar matrices share tr(L) and tr(L^2), and tr(S^2) = ||S||_F^2 for
    # the symmetric S: the one pair is each operator's, exactly on the
    # unweighted schemes
    g = generate(spec, seed=seed)
    if weighting == "graph":
        g = _random_weights(g, seed)
    a = assemble(g, operator, weighting)
    size = len(a)
    trace = sum(a[i][i] for i in range(size))
    square = sum(a[i][j] * a[j][i] for i in range(size) for j in range(size))
    tr, sq, shift = gram_moments(g, weighting)
    if weighting == "graph":
        got = math.ldexp(tr, shift), math.ldexp(sq, 2 * shift)
        assert got == pytest.approx((trace, square), rel=1e-12)
    else:
        assert shift == 0 and (tr, sq) == (trace, square)
        assert type(tr) is type(sq) is Fraction


@pytest.mark.parametrize("operator", ["vertex", "edge"])
@pytest.mark.parametrize("weighting", ["unit", "walk", "degree", "graph"])
@pytest.mark.parametrize("spec,seed", [("random:9:0.4", 3), ("star:6", 0)])
def test_sparse_assemble_equals_dense_product(spec, seed, weighting, operator):
    g = generate(spec, seed=seed)
    if weighting == "graph":
        g = _random_weights(g, seed)
    got = assemble(g, operator, weighting)
    want = _dense_operator(g, operator, weighting)
    assert got == want
    assert [[type(x) for x in row] for row in got] == \
        [[type(x) for x in row] for row in want]


def test_assemble_agrees_with_symmetrized_spectrum():
    # non-symmetric assembled operator vs its symmetric similar form,
    # eigenvalues from numpy on both sides
    g = generate("random:7:0.45", seed=5)
    raw = np.array([[float(x) for x in row] for row in assemble(g, "edge", "degree")])
    ours = sorted(np.linalg.eigvals(raw).real)
    oracle = np.linalg.eigvalsh(np.array(symmetrized(g, "edge", "degree")))
    assert ours == pytest.approx(list(oracle), abs=1e-9)
    ql = eigenvalues_symmetric(symmetrized(g, "edge", "degree"))
    assert list(ql) == pytest.approx(list(oracle), abs=1e-10)


# --------------------------------------------------------- orientation

def test_reorientation_leaves_operators_alone():
    g = generate("random:6:0.6", seed=9)
    flips = (0, 2, g.n_edges - 1)
    # the vertex operator is sign-squared in the incidence: identical matrix
    assert _dense_operator(g, "vertex", "walk", flips) == assemble(g, "vertex", "walk")
    # the edge operator is conjugated by the +-1 diagonal S of the flips,
    # so it changes entrywise but keeps its spectrum
    sign = [-1 if e in flips else 1 for e in range(g.n_edges)]
    edge = assemble(g, "edge", "degree")
    flipped = _dense_operator(g, "edge", "degree", flips)
    assert flipped != edge
    assert flipped == [[sign[e] * sign[f] * x for f, x in enumerate(row)]
                       for e, row in enumerate(edge)]
    a = spectrum_of(g, "edge", "degree").values
    b = eigenvalues_symmetric(_dense_gram(g, "edge", "degree", flips))
    assert a == pytest.approx(b, abs=1e-10)


def test_weight_validation():
    g = generate("complete:3")
    with pytest.raises(IsolatedEdgeError):
        assemble(generate("path:2"), "edge", "degree")
    with pytest.raises(InvalidParameterError):
        assemble(g, operator="hodge")
    with pytest.raises(InvalidParameterError):
        assemble(g, weighting="fancy")
    with pytest.raises(InvalidParameterError):
        weight_pair(g, "graph")  # needs a WeightedGraph


def test_dump_matrix_header_and_body():
    text = dump_matrix([[Fraction(1, 2), 0], [0, 1]], "edge")
    lines = text.splitlines()
    assert lines[0] == "# edge 2 2"
    assert lines[1] == "0.5 0"
    assert text.endswith("\n")
    assert dump_matrix([[0] * 4] * 4, "vertex").splitlines()[0] == "# vertex 4 4"
