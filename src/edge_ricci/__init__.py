"""Edge curvature, combinatorial Laplacians, and spectral bounds on graphs.

The package computes a coarse Ricci curvature attached to *pairs of edges*
of a finite connected graph — one minus the ratio of an exact 1-Wasserstein
transport cost between the uniform measures an edge spreads over its
neighboring edges and the distance between the two edges — assembles the
matching vertex and edge Laplacians under several weighting conventions,
and verifies curvature/spectral-gap inequalities with exact rational
arithmetic wherever the input is unweighted.

Main entry points: :func:`generate` for named graph families,
:func:`ricci_all_adjacent` for curvature tables and :func:`adjacent_minimum`
for their least value, :func:`spectrum_of` for eigenvalues,
:func:`verification_report` for the full check suite, and
:mod:`edge_ricci.cli` for the command line.
"""

from .curvature import (
    adjacent_minimum,
    edges_adjacent,
    pair_bounds,
    ricci,
    ricci_all_adjacent,
    transport_for_pair,
    tree_curvature_formula,
)
from .edge_geometry import EdgeMeasure, edge_distance, edge_measure, edge_space
from .errors import EdgeRicciError
from .graph_core import (
    Graph,
    WeightedGraph,
    generate,
    parse_edgelist,
    parse_weighted,
    serialize_edgelist,
    serialize_weighted,
)
from .laplacian import OPERATORS, WEIGHTINGS, assemble, dump_matrix, symmetrized
from .spectra import Spectrum, eigenvalues_symmetric, spectral_equivalence_gap, spectrum_of
from .transport import (
    TransportProblem,
    TransportResult,
    brute_force_wasserstein,
    solve_wasserstein,
)
from .verify import (
    TheoremCheck,
    VerificationReport,
    check_spectral_gap_bound,
    check_weighted_spectral_gap_bound,
    report_to_json,
    report_to_text,
    verification_report,
)

__version__ = "0.1.0"

__all__ = [
    "EdgeMeasure", "EdgeRicciError", "Graph", "OPERATORS",
    "Spectrum", "TheoremCheck", "TransportProblem", "TransportResult",
    "VerificationReport", "WEIGHTINGS", "WeightedGraph", "adjacent_minimum",
    "assemble", "brute_force_wasserstein", "check_spectral_gap_bound",
    "check_weighted_spectral_gap_bound", "dump_matrix", "edge_distance",
    "edge_measure", "edge_space", "edges_adjacent", "eigenvalues_symmetric",
    "generate", "pair_bounds", "parse_edgelist", "parse_weighted",
    "report_to_json", "report_to_text", "ricci", "ricci_all_adjacent",
    "serialize_edgelist", "serialize_weighted", "solve_wasserstein",
    "spectral_equivalence_gap", "spectrum_of", "symmetrized",
    "transport_for_pair", "tree_curvature_formula", "verification_report", "__version__",
]
