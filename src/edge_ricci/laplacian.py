"""Incidence-based Laplacians on vertices (dim 0) and edges (dim 1).

Each edge {x, y} with x before y in vertex order is oriented x -> y, and
the boundary convention is d[x, y] = [y] - [x] (so the head carries +1).
With D the signed edge-by-vertex incidence matrix and diagonal weights W0
(vertices) and W1 (edges), the two operators are

    vertex:  W0^-1 D^T W1 D      (n x n)
    edge:    D W0^-1 D^T W1      (m x m)

and a weighting scheme fixes the pair (W0, W1):

    unit     W0 = I, W1 = I: the combinatorial Laplacian and its edge
             companion
    walk     W0 = diag(vertex degree), W1 = I: the vertex operator is the
             random-walk normalized Laplacian
    degree   W0 = I, W1 = diag(1/d_e) with d_e the edge degree: the edge
             operator is the one whose spectral gap the curvature bounds;
             its diagonal is 2/d_e
    graph    W0, W1 from a WeightedGraph's vertex and edge weights

Because each scheme is one consistent pair, the vertex and edge operators
of a scheme share their nonzero spectra (they are AB and BA for
A = W0^-1 D^T W1, B = D).  Unweighted schemes produce exact Fraction
entries.  The operators are not symmetric in general but are similar to
symmetric positive-semidefinite matrices (conjugation by W1^1/2 resp.
W0^1/2); `symmetrized` returns that form for the eigensolver.  Both
builders run one sparse product over each edge's two endpoints.

The two symmetrized forms are the Gram matrices B^T B (n x n) and B B^T
(m x m) of B = W1^1/2 D W0^-1/2, so by the SVD of B the larger one's
spectrum is the smaller one's plus |m - n| zeros (G. H. Golub and C. F.
Van Loan, *Matrix Computations*).  `spectra.spectrum_of` solves only the
smaller side.  The two sides also share their trace and squared Frobenius
norm, which `gram_moments` sums once, from B^T B, for the verifier to
check the shared spectrum against.

Eigenvalues never depend on the orientation: reversing edge e negates row
e of D, which leaves the vertex operator unchanged and conjugates the edge
operator by a +-1 diagonal.  So the builders take no orientation; the test
suite checks the independence against a dense incidence with flipped edges.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .edge_geometry import edge_space
from .errors import InvalidParameterError, IsolatedEdgeError
from .graph_core import WeightedGraph

OPERATORS = ("vertex", "edge")
WEIGHTINGS = ("unit", "walk", "degree", "graph")


def weight_pair(g, weighting: str):
    """The scheme's diagonals: w0 over vertices, w1 over edges.  Only
    'graph' reads weights, a WeightedGraph's vertex_weights and
    edge_weights as they are; 'degree' uses neighbor counts."""
    n, m = g.n_vertices, g.n_edges
    if weighting == "unit":
        return [Fraction(1)] * n, [Fraction(1)] * m
    if weighting == "walk":
        w0 = [Fraction(len(ks)) for ks in g.incident]
        return w0, [Fraction(1)] * m
    if weighting == "degree":
        counts = [len(nbrs) for nbrs in edge_space(g).neighbors]
        if 0 in counts:
            raise IsolatedEdgeError(
                "degree weighting needs every edge to have a neighbor"
            )
        return [Fraction(1)] * n, [Fraction(1, c) for c in counts]
    if weighting == "graph":
        if not isinstance(g, WeightedGraph):
            raise InvalidParameterError("weighting 'graph' needs a WeightedGraph")
        return list(g.vertex_weights), list(g.edge_weights)
    raise InvalidParameterError(
        f"weighting must be one of {WEIGHTINGS}, got {weighting!r}"
    )


def _incidence_product(g, operator: str, left, right, zero=0):
    """L^T R (vertex) or L R^T (edge) for two matrices shaped like D.

    left[e] and right[e] hold row e's entries at the tail and at the head
    of edge e; every other entry is zero.  Each output entry is summed over
    shared edges or shared endpoints only, in the order the dense product
    would add them, starting from `zero`: O(m + sum of squared vertex
    degrees) work.
    """
    n, m = g.n_vertices, g.n_edges
    if operator == "vertex":
        out = [[zero] * n for _ in range(n)]
        for (i, j), (li, lj), (ri, rj) in zip(g.edges, left, right):
            out[i][i] += li * ri
            out[i][j] += li * rj
            out[j][i] += lj * ri
            out[j][j] += lj * rj
        return out
    out = [[zero] * m for _ in range(m)]
    for v, near in enumerate(g.incident):  # vertices ascending, as the dense sum runs
        entries = [(e, left[e][g.edges[e][1] == v], right[e][g.edges[e][1] == v]) for e in near]
        for e, le, _ in entries:
            row = out[e]
            for f, _, rf in entries:
                row[f] += le * rf
    return out


def check_operator(operator: str) -> None:
    """Raise InvalidParameterError unless operator is in OPERATORS."""
    if operator not in OPERATORS:
        raise InvalidParameterError(f"operator must be one of {OPERATORS}, got {operator!r}")


def assemble(g, operator: str = "edge", weighting: str = "degree"):
    """Operator matrix as a list of rows (Fractions when exact, else floats).

    The product starts from the integer 0; scaling each row (vertex) or
    column (edge) by its weight gives every entry the weights' number type.
    """
    check_operator(operator)
    w0, w1 = weight_pair(g, weighting)
    signs = [(-1, 1)] * g.n_edges
    if operator == "vertex":
        # W0^-1 D^T W1 D: D^T times W1 D, then row u divided by w0[u]
        out = _incidence_product(g, operator, signs, [(-w, w) for w in w1])
        return [[x / w for x in row] for row, w in zip(out, w0)]
    # D W0^-1 D^T W1: D times W0^-1 D^T, then column f multiplied by w1[f]
    right = [(-1 / w0[i], 1 / w0[j]) for i, j in g.edges]
    out = _incidence_product(g, operator, signs, right)
    return [[x * w for x, w in zip(row, w1)] for row in out]


def symmetrized(g, operator: str = "edge", weighting: str = "degree"):
    """Symmetric PSD matrix similar to the operator (same eigenvalues).

    Both forms are Gram matrices of B = W1^1/2 D W0^-1/2: the vertex
    operator is similar to B^T B and the edge operator to B B^T.  Entries
    are floats (the conjugation takes square roots).
    """
    check_operator(operator)
    w0, w1 = weight_pair(g, weighting)
    root0 = [math.sqrt(w) for w in w0]
    # row e of B: its entries at the tail and at the head of e
    b = [(-math.sqrt(w) / root0[i], math.sqrt(w) / root0[j])
         for (i, j), w in zip(g.edges, w1)]
    return _incidence_product(g, operator, b, b, 0.0)


def gram_moments(g, weighting: str = "degree"):
    """(trace, square, shift): the trace and squared Frobenius norm of
    2^-shift B^T B.

    B B^T has the same two moments (tr = sum sigma^2 and ||.||_F^2 =
    sum sigma^4 over B's singular values), so this is what both symmetrized
    operators share; the test suite compares it with both.  Both moments
    are summed over the sparse entries from the squares B_ev^2 =
    w1(e) / w0(v): as integers over one common denominator on the
    unweighted schemes, giving exact Fractions at shift 0, and in floats on
    'graph', where every square is first divided by the power of two
    2^shift that puts the largest in [1/2, 1), so that neither moment
    overflows or underflows at extreme weights.  Every term is nonnegative
    and each off-diagonal square is added as one product.
    """
    w0, w1 = weight_pair(g, weighting)
    # B_ev^2 at the tail and at the head of each edge
    squares = [(w / w0[i], w / w0[j]) for (i, j), w in zip(g.edges, w1)]
    exact = isinstance(w1[0], Fraction)
    if exact:
        scale = math.lcm(*(x.denominator for pair in squares for x in pair))
        squares = [(a.numerator * (scale // a.denominator),
                    b.numerator * (scale // b.denominator)) for a, b in squares]
    else:
        shift = math.frexp(max(map(max, squares)))[1]
        squares = [(math.ldexp(a, -shift), math.ldexp(b, -shift)) for a, b in squares]
    diagonal = [0] * g.n_vertices
    off = 0
    for (i, j), (a, b) in zip(g.edges, squares):
        diagonal[i] += a
        diagonal[j] += b
        off += a * b
    trace, square = sum(diagonal), sum(x * x for x in diagonal) + 2 * off
    if exact:
        return Fraction(trace, scale), Fraction(square, scale * scale), 0
    return trace, square, shift


def dump_matrix(matrix, label: str) -> str:
    """Text form: '# label rows cols' then one row per line."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    lines = [f"# {label} {rows} {cols}"]
    for row in matrix:
        lines.append(" ".join(f"{float(x):.17g}" for x in row))
    return "\n".join(lines) + "\n"
