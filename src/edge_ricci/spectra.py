"""Symmetric eigenvalues via Householder tridiagonalization and implicit QL.

Self-contained solver so the numerics are reproducible bit-for-bit across
platforms with the same libm; numpy.linalg is used only as an oracle in the
test suite.  The matrix is reduced to tridiagonal form by n - 2 Householder
reflections, then the tridiagonal matrix is diagonalized by QL sweeps with
Wilkinson's implicit shift (Golub & Van Loan, *Matrix Computations*, 8.3;
EISPACK tred1/tql1).  Only eigenvalues are wanted, so the reflections and
rotations are never accumulated.

Convergence: an off-diagonal entry e_k of the tridiagonal form counts as
zero once |e_k| <= eps * (|d_k| + |d_k+1|), with eps the double-precision
machine epsilon and d_k, d_k+1 its two diagonal neighbours.  Each eigenvalue
gets at most 30 QL iterations; past that NoConvergenceError is raised.

A graph's vertex and edge operators are solved once per weighting, on the
smaller side: the vertex side (n x n) when n <= m, else the edge side
(m x m).  The two symmetrized forms are the Gram matrices B^T B and B B^T
of one matrix B (see `laplacian`), so the other side's spectrum is the
solved one plus |m - n| zeros, exactly: padding keeps every solved value,
and no threshold decides which values are zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain
from operator import mul, ne

from .errors import (
    NoConvergenceError,
    NoNonzeroEigenvalueError,
    NonFiniteMatrixError,
    NotSymmetricError,
)
from .graph_core import derived
from .laplacian import check_operator, symmetrized

_EPS = sys.float_info.epsilon
_MAX_ITERATIONS = 30  # QL iterations per eigenvalue


def _tridiagonalize(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Diagonal d and subdiagonal e of a tridiagonal matrix similar to a.

    e[k] couples rows k - 1 and k (e[0] is 0).  Row k is reduced against
    the leading k x k block, from the last row up; a is consumed.
    """
    n = len(a)
    d = [0.0] * n
    e = [0.0] * n
    for k in range(n - 1, 0, -1):
        d[k] = a[k][k]
        if k == 1:
            e[1] = a[1][0]
            break
        scale = sum(map(abs, a[k][:k]))
        if scale == 0.0:
            continue
        # reflection P = I - u u^T / h mapping row k's left part onto e_(k-1)
        u = [x / scale for x in a[k][:k]]
        h = sum(map(mul, u, u))
        f = u[-1]
        g = -math.copysign(math.sqrt(h), f)
        e[k] = scale * g
        h -= f * g
        u[-1] = f - g
        # leading block A <- P A P = A - u q^T - q u^T
        p = [sum(map(mul, a[j], u)) / h for j in range(k)]
        half = sum(map(mul, u, p)) / (h + h)
        q = [pj - half * uj for pj, uj in zip(p, u)]
        for j in range(k):
            uj, qj = u[j], q[j]
            a[j] = [x - (uj * qi + qj * ui) for x, ui, qi in zip(a[j], u, q)]
    d[0] = a[0][0]
    return d, e


def _tridiagonal_eigenvalues(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the tridiagonal (d, e) by implicit-shift QL; d is consumed."""
    n = len(d)
    e = e[1:] + [0.0]  # now e[k] couples rows k and k + 1
    for lo in range(n):
        iterations = 0
        while True:
            m = lo
            while m < n - 1 and abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == lo:
                break
            if iterations == _MAX_ITERATIONS:
                raise NoConvergenceError(
                    f"eigenvalue {lo} of a {n}x{n} matrix did not converge "
                    f"within {_MAX_ITERATIONS} QL iterations"
                )
            iterations += 1
            # Wilkinson shift from the leading 2x2 block of the active part
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            r = math.hypot(g, 1.0)
            g = d[m] - d[lo] + e[lo] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, lo - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # the block split early: deflate and sweep again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[lo] -= p
                e[lo] = g
                e[m] = 0.0
    return d


def eigenvalues_symmetric(matrix) -> tuple[float, ...]:
    """Ascending eigenvalues of a symmetric matrix (lists or array-like)."""
    a = [list(map(float, row)) for row in matrix]
    n = len(a)
    for k, row in enumerate(a):
        if len(row) != n:
            raise NotSymmetricError(
                f"{n}-row matrix is not square: row {k} has {len(row)} entries")
    if n == 0:
        return ()
    # every entry checked, in C: max() below would pass over a NaN
    if not all(map(math.isfinite, chain.from_iterable(a))):
        raise NonFiniteMatrixError(f"{n}x{n} matrix has an infinite or NaN entry")
    scale = max(1.0, max(map(abs, chain.from_iterable(a))))
    # a matrix equal to its transpose needs no pass over its mirror pairs
    if any(map(ne, a, map(list, zip(*a)))):
        for p in range(n):
            for q in range(p + 1, n):
                x, y = a[p][q], a[q][p]
                if x != y:  # equal mirrors stay as they are: x + y could overflow
                    if abs(x - y) > 1e-12 * scale:
                        raise NotSymmetricError(
                            f"{n}x{n} matrix: entry ({p},{q}) = {x} but ({q},{p}) = {y}")
                    a[p][q] = a[q][p] = 0.5 * x + 0.5 * y  # halved first, so no overflow
    if n == 1:
        return (a[0][0],)
    return tuple(sorted(_tridiagonal_eigenvalues(*_tridiagonalize(a))))


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with a zero threshold baked in."""

    values: tuple[float, ...]
    zero_tol: float

    @property
    def zero_multiplicity(self) -> int:
        return sum(1 for v in self.values if abs(v) <= self.zero_tol)

    @property
    def lambda1(self) -> float:
        """Smallest eigenvalue above the zero threshold."""
        for v in self.values:
            if v > self.zero_tol:
                return v
        raise NoNonzeroEigenvalueError(
            f"no eigenvalue above {self.zero_tol} in {self.values}"
        )


def _solved_side(g) -> str:
    """The operator whose symmetrized form is the smaller Gram matrix."""
    return "vertex" if g.n_vertices <= g.n_edges else "edge"


def _pad(values: tuple[float, ...], size: int) -> tuple[float, ...]:
    """values plus zeros up to size, ascending: the other Gram side."""
    return tuple(sorted(values + (0.0,) * (size - len(values))))


def spectrum_of(g, operator: str = "edge", weighting: str = "degree",
                zero_tol: float | None = None) -> Spectrum:
    """Spectrum of an assembled operator (via its symmetrized form).

    Only the smaller side is solved, once per weighting and graph instance,
    and kept by derived; the other side is that spectrum padded with
    |m - n| zeros (module docstring), rebuilt on each call.  When zero_tol
    is omitted it defaults to 1e-8 * max(1, largest eigenvalue) —
    relative, since nothing in the operators pins an absolute scale.  It is
    applied per call, so one cached solve serves every tolerance.  An
    eigensolver error is raised again with the solved side and the
    weighting named.
    """
    check_operator(operator)
    side = _solved_side(g)
    try:
        solved = derived(g, ("spectrum_of", side, weighting), lambda:
                         eigenvalues_symmetric(symmetrized(g, side, weighting)))
    except (NonFiniteMatrixError, NoConvergenceError) as exc:
        raise type(exc)(f"{side} side, {weighting} weighting: {exc}") from exc
    if operator == side:
        values = solved
    else:
        values = _pad(solved, g.n_vertices if operator == "vertex" else g.n_edges)
    if zero_tol is None:
        zero_tol = 1e-8 * max(1.0, values[-1])
    return Spectrum(values, zero_tol)


def spectral_equivalence_gap(g, weighting: str = "degree") -> float:
    """Numerical oracle for the padding in spectrum_of.

    Solves the larger side directly, outside derived, and returns its
    largest distance from the padded spectrum, relative to
    max(1, largest eigenvalue).  Each call costs one eigensolve.
    """
    larger = "edge" if _solved_side(g) == "vertex" else "vertex"
    padded = spectrum_of(g, larger, weighting).values
    direct = eigenvalues_symmetric(symmetrized(g, larger, weighting))
    return max(abs(x - y) for x, y in zip(padded, direct)) / max(1.0, direct[-1])
