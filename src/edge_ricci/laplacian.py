"""Incidence-based Laplacians on vertices (dim 0) and edges (dim 1).

Each edge {x, y} with x before y in vertex order is canonically oriented
x -> y; an orientation is a tuple of +-1 flips against that base, and the
boundary convention is d[x, y] = [y] - [x] (so the head carries +1).  With
D the signed edge-by-vertex incidence matrix and diagonal weights W0
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
W0^1/2); `symmetrized` returns that form for the eigensolver.  Eigenvalues
never depend on the orientation, which the test suite checks by explicit
reorientation.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Sequence

from .edge_geometry import edge_space
from .errors import (
    BadOrientationError,
    InvalidParameterError,
    IsolatedEdgeError,
)
from .graph_core import WeightedGraph, base_graph

OPERATORS = ("vertex", "edge")
WEIGHTINGS = ("unit", "walk", "degree", "graph")


def canonical_orientation(g) -> tuple[int, ...]:
    """All edges run from their lower-index endpoint to the higher."""
    return (1,) * base_graph(g).n_edges


def check_orientation(g, orientation: Sequence[int]) -> tuple[int, ...]:
    base = base_graph(g)
    orientation = tuple(orientation)
    if len(orientation) != base.n_edges:
        raise BadOrientationError(
            f"orientation has {len(orientation)} signs for {base.n_edges} edges"
        )
    for e, s in enumerate(orientation):
        if s not in (1, -1):
            raise BadOrientationError(f"orientation[{e}] = {s!r}, need +1 or -1")
    return orientation


def orientation_hash(orientation: Sequence[int]) -> str:
    """Short stable digest of a sign pattern, for matrix dump headers."""
    text = "".join("+" if s == 1 else "-" for s in orientation)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]


def build_incidence(g, orientation: Sequence[int] | None = None) -> list[list[int]]:
    """Signed incidence matrix, one row per edge: -s at tail, +s at head."""
    base = base_graph(g)
    if orientation is None:
        orientation = canonical_orientation(base)
    orientation = check_orientation(base, orientation)
    rows = []
    for e, (i, j) in enumerate(base.edges):
        row = [0] * base.n_vertices
        row[i] = -orientation[e]
        row[j] = orientation[e]
        rows.append(row)
    return rows


def weight_pair(g, weighting: str):
    """The scheme's diagonals: w0 over vertices, w1 over edges."""
    base = base_graph(g)
    n, m = base.n_vertices, base.n_edges
    if weighting == "unit":
        return [Fraction(1)] * n, [Fraction(1)] * m
    if weighting == "walk":
        w0 = [Fraction(len(base._adj_idx[v])) for v in range(n)]
        return w0, [Fraction(1)] * m
    if weighting == "degree":
        space = edge_space(base)
        if any(d == 0 for d in space.degrees):
            raise IsolatedEdgeError(
                "degree weighting needs every edge to have a neighbor"
            )
        return [Fraction(1)] * n, [Fraction(1, space.degrees[e]) for e in range(m)]
    if weighting == "graph":
        if not isinstance(g, WeightedGraph):
            raise InvalidParameterError("weighting 'graph' needs a WeightedGraph")
        w0 = [g.w_vertex(lbl) for lbl in g.graph.labels]
        w1 = [g.w_edge(e) for e in range(m)]
        return w0, w1
    raise InvalidParameterError(
        f"weighting must be one of {WEIGHTINGS}, got {weighting!r}"
    )


def assemble(
    g,
    operator: str = "edge",
    weighting: str = "degree",
    orientation: Sequence[int] | None = None,
):
    """Operator matrix as a list of rows (Fractions when exact, else floats)."""
    base = base_graph(g)
    if operator not in OPERATORS:
        raise InvalidParameterError(f"operator must be one of {OPERATORS}, got {operator!r}")
    d0 = build_incidence(base, orientation)
    w0, w1 = weight_pair(g, weighting)

    n, m = base.n_vertices, base.n_edges
    if operator == "vertex":
        # W0^-1 D^T W1 D
        out = [[w0[u] * 0 for _ in range(n)] for u in range(n)]
        for e in range(m):
            for u in range(n):
                if d0[e][u]:
                    for v in range(n):
                        if d0[e][v]:
                            out[u][v] += d0[e][u] * w1[e] * d0[e][v]
        for u in range(n):
            for v in range(n):
                out[u][v] = out[u][v] / w0[u]
        return out
    # D W0^-1 D^T W1
    out = [[w1[0] * 0 for _ in range(m)] for _ in range(m)]
    for e in range(m):
        for f in range(m):
            acc = None
            for v in range(n):
                if d0[e][v] and d0[f][v]:
                    term = d0[e][v] * d0[f][v] / w0[v]
                    acc = term if acc is None else acc + term
            if acc is not None:
                out[e][f] = acc * w1[f]
    return out


def symmetrized(
    g,
    operator: str = "edge",
    weighting: str = "degree",
    orientation: Sequence[int] | None = None,
):
    """Symmetric PSD matrix similar to the operator (same eigenvalues).

    Both forms are Gram matrices of B = W1^1/2 D W0^-1/2: the vertex
    operator is similar to B^T B and the edge operator to B B^T.  Entries
    are floats (the conjugation takes square roots).  Row e of B holds two
    nonzeros, at the tail and the head of edge e, so each Gram entry is
    summed over shared endpoints only, in the order the dense product
    would add them: O(m + sum of squared vertex degrees) work.
    """
    base = base_graph(g)
    if operator not in OPERATORS:
        raise InvalidParameterError(f"operator must be one of {OPERATORS}, got {operator!r}")
    if orientation is None:
        orientation = canonical_orientation(base)
    orientation = check_orientation(base, orientation)
    w0, w1 = weight_pair(g, weighting)
    n, m = base.n_vertices, base.n_edges
    root0 = [math.sqrt(w) for w in w0]
    b = []  # row e of B: its entries at the tail and at the head of e
    for e, (i, j) in enumerate(base.edges):
        root1, s = math.sqrt(w1[e]), orientation[e]
        b.append((root1 * -s / root0[i], root1 * s / root0[j]))
    if operator == "vertex":
        out = [[0.0] * n for _ in range(n)]
        for (i, j), (bi, bj) in zip(base.edges, b):
            out[i][i] += bi * bi
            out[j][j] += bj * bj
            out[i][j] += bi * bj
            out[j][i] += bj * bi
        return out
    incident: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for e, ((i, j), (bi, bj)) in enumerate(zip(base.edges, b)):
        incident[i].append((e, bi))
        incident[j].append((e, bj))
    out = [[0.0] * m for _ in range(m)]
    for entries in incident:  # vertices ascending, as the dense sum runs
        for e, be in entries:
            row = out[e]
            for f, bf in entries:
                row[f] += be * bf
    return out


def dump_matrix(matrix, label: str, orientation: Sequence[int]) -> str:
    """Text form: '# label rows cols orientation-hash' then one row per line."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    lines = [f"# {label} {rows} {cols} {orientation_hash(orientation)}"]
    for row in matrix:
        lines.append(" ".join(f"{float(x):.17g}" for x in row))
    return "\n".join(lines) + "\n"
