"""Exception types raised by the library.

Every error carries a human-readable message naming the offending line,
vertex, edge, or parameter, so CLI users can act on it directly.
"""

from __future__ import annotations


class EdgeRicciError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- graphs

class GraphError(EdgeRicciError):
    pass


class EmptyInputError(GraphError):
    """Input text or document contains no edges."""


class FormatError(GraphError):
    """A line or document does not follow the expected format."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same unordered vertex pair appears twice."""


class DisconnectedError(GraphError):
    """The graph is not connected."""


class NonpositiveWeightError(GraphError):
    """A vertex or edge weight is zero, negative, or not finite, or a sum or
    quotient of finite weights overflows."""


class InvalidParameterError(GraphError):
    """A parameter or argument cannot be used: a malformed family spec or a
    family parameter out of range; an unknown weighting or operator, or one
    the graph's kind does not support; a --zero-tol that is not a finite
    number >= 0; --weighted without --input; or an input or output file
    that cannot be read or written."""


class UnknownVertexError(GraphError):
    """A vertex label does not belong to the graph."""


class UnknownEdgeError(GraphError):
    """An edge (or edge ordinal) does not belong to the graph."""


# ---------------------------------------------------------- edge geometry

class IsolatedEdgeError(EdgeRicciError):
    """The edge has no neighboring edges, so its measure is undefined."""


class MetricCertificateError(EdgeRicciError):
    """An entry of an exact vertex metric misses Bellman's equation."""


# ---------------------------------------------------------------- transport

class TransportError(EdgeRicciError):
    pass


class MassImbalanceError(TransportError):
    """Total supply and total demand differ."""


class MissingPotentialError(TransportError):
    """A dual potential lacks a value on some support atom."""


# ---------------------------------------------------------------- curvature

class SamePairError(EdgeRicciError):
    """Curvature needs two distinct edges."""


class NotAdjacentError(EdgeRicciError):
    """The bound requires the two edges to share a vertex."""


class NotATreeError(EdgeRicciError):
    """The closed-form tree expression requires an acyclic graph."""


# ------------------------------------------------------------------ spectra

class NotSymmetricError(EdgeRicciError):
    """The eigensolver input is not symmetric within tolerance."""


class NonFiniteMatrixError(EdgeRicciError):
    """The eigensolver input has an infinite or NaN entry, as weights near
    the float limit produce once they are summed."""


class NoConvergenceError(EdgeRicciError):
    """An eigenvalue of the tridiagonal form needed more QL iterations than
    the cap allows (30 per eigenvalue) before its off-diagonal neighbour fell
    to eps times the adjacent diagonal magnitudes; the message names the
    matrix size."""


class NoNonzeroEigenvalueError(EdgeRicciError):
    """The spectrum has no eigenvalue above the zero threshold."""
