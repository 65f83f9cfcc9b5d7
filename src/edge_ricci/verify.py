"""Theorem checks and structured verification reports.

Each check records its two sides, the relation asserted between them, the
tolerance used, and witnesses (usually the extremal edge pair), so a failed
run names what broke.  Inapplicability — a hypothesis such as edge-regularity
or a positive curvature floor not being met — is first-class report content,
never an error, so corpus sweeps do not abort.  Checks marked diagnostic are
reported but must not drive exit codes: they log related quantities that are
informative but not asserted (the intersection form of the curvature
ceiling, and the 4/d constant that appears when every adjacent pair sits in
a triangle).

Reports serialize to JSON (17 significant digits), plain text tables
(6 digits), and CSV for the curvature table.  Wall-clock timing is kept on
the in-memory report only; serializers omit it so identical inputs yield
byte-identical output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .curvature import (
    adjacent_minimum,
    kappa_min,
    lower_bound,
    ricci_all_adjacent,
    tree_curvature_formula,
    upper_bound,
)
from .edge_geometry import edge_space
from .errors import InvalidParameterError
from .graph_core import Graph, WeightedGraph, is_tree
from .spectra import spectral_equivalence_gap, spectrum_of

_GAP_TOL = 1e-9
_EQUIV_TOL = 1e-8
_NO_ADJACENT_PAIRS = "graph has no adjacent edge pairs"


@dataclass(frozen=True)
class TheoremCheck:
    """One verified statement: holds iff lhs `relation` rhs within tolerance."""

    name: str
    applicable: bool
    reason: str  # why inapplicable; empty when applicable
    lhs: float | None
    rhs: float | None
    relation: str  # ">=" or "=="
    tolerance: float
    holds: bool | None
    witnesses: tuple[tuple[str, float], ...] = ()
    diagnostic: bool = False


def _check(name, lhs, rhs, relation, tolerance, witnesses=(), diagnostic=False):
    lhs_f, rhs_f = float(lhs), float(rhs)
    if relation == ">=":
        holds = lhs_f >= rhs_f - tolerance
    elif relation == "==":
        holds = abs(lhs_f - rhs_f) <= tolerance
    else:
        raise InvalidParameterError(f"unknown relation {relation!r}")
    wit = tuple((str(k), float(v)) for k, v in witnesses)
    return TheoremCheck(name, True, "", lhs_f, rhs_f, relation, tolerance,
                        holds, wit, diagnostic)


def _kappa_tol(*kappas) -> float:
    """Zero when every curvature is an exact Fraction, else _GAP_TOL."""
    return 0.0 if all(isinstance(k, Fraction) for k in kappas) else _GAP_TOL


def _inapplicable(name, reason, diagnostic=False):
    return TheoremCheck(name, False, reason, None, None, "", 0.0, None, (),
                        diagnostic)


def edge_regularity(g):
    """The common neighbor count when all |Gamma(e)| agree, else None;
    never a weighted degree."""
    counts = {len(nbrs) for nbrs in edge_space(g).neighbors}
    return counts.pop() if len(counts) == 1 else None


def _gap_hypotheses(g, name: str, diagnostic: bool = False):
    """(d, kappa_min, pair) when g is edge-regular with a positive adjacent
    curvature minimum, else the inapplicable check naming what failed."""
    d = edge_regularity(g)
    if d is None:
        what = "edge neighbor counts" if isinstance(g, WeightedGraph) else "edge degrees"
        return _inapplicable(name, f"{what} are not all equal", diagnostic)
    found = adjacent_minimum(g)
    if found is None:
        return _inapplicable(name, _NO_ADJACENT_PAIRS, diagnostic)
    kmin, pair = found
    if kmin <= 0:
        return _inapplicable(
            name, f"adjacent curvature minimum {float(kmin):.6g} is not positive",
            diagnostic)
    return d, kmin, pair


def check_spectral_gap_bound(g) -> TheoremCheck:
    """Gap of the degree-weighted edge operator vs curvature + 2/d - 1.

    Hypotheses: an unweighted graph, every edge degree equals a common d,
    and the adjacent curvature minimum is positive.  Graphs failing any are
    classified inapplicable with the reason recorded.
    """
    name = "spectral-gap-vs-curvature"
    if isinstance(g, WeightedGraph):
        return _inapplicable(name, "needs an unweighted graph")
    found = _gap_hypotheses(g, name)
    if isinstance(found, TheoremCheck):
        return found
    d, kmin, pair = found
    lam1 = spectrum_of(g, "edge", "degree").lambda1
    rhs = float(kmin) + 2.0 / d - 1.0
    wit = ((f"pair {g.edge_name(pair[0])},{g.edge_name(pair[1])}", float(kmin)),
           ("edge-degree", float(d)))
    return _check(name, lam1, rhs, ">=", _GAP_TOL, wit)


def _in_triangle(g: Graph, e: int, f: int) -> bool:
    v = edge_space(g).shared_vertex[e][f]
    (a, b), (c, d) = g.edges[e], g.edges[f]
    x = a if b == v else b
    z = c if d == v else d
    return g.labels[z] in g.adjacency[g.labels[x]]


def check_triangle_gap_diagnostic(g) -> TheoremCheck:
    """Diagnostic only, unweighted: gap vs curvature + 4/d - 1 when every
    adjacent pair closes a triangle.  The 4/d constant shows up there but
    is never asserted; failures here are informational."""
    name = "spectral-gap-vs-curvature-triangle-diagnostic"
    if isinstance(g, WeightedGraph):
        return _inapplicable(name, "needs an unweighted graph", diagnostic=True)
    found = _gap_hypotheses(g, name, diagnostic=True)
    if isinstance(found, TheoremCheck):
        return found
    d, kmin, _ = found
    space = edge_space(g)
    for e in range(g.n_edges):
        for f in space.neighbors[e]:
            if f > e and not _in_triangle(g, e, f):
                return _inapplicable(
                    name,
                    f"pair {g.edge_name(e)},{g.edge_name(f)} closes no triangle",
                    diagnostic=True)
    lam1 = spectrum_of(g, "edge", "degree").lambda1
    rhs = float(kmin) + 4.0 / d - 1.0
    return _check(name, lam1, rhs, ">=", _GAP_TOL, (("edge-degree", float(d)),),
                  diagnostic=True)


def check_weighted_spectral_gap_bound(wg: WeightedGraph) -> TheoremCheck:
    """Weighted gap bound: lambda_1 >= (d (kappa - 1) + 2) w1/w0 for constant
    vertex weight w0, constant edge weight w1, constant neighbor count d,
    and positive weighted curvature minimum."""
    name = "weighted-spectral-gap-vs-curvature"
    if not isinstance(wg, WeightedGraph):
        return _inapplicable(name, "needs a weighted graph")
    if not wg.has_constant_vertex_weights():
        return _inapplicable(name, "vertex weights are not constant")
    w1_values = [wg.w_edge(e) for e in range(wg.n_edges)]
    if max(w1_values) - min(w1_values) > 1e-12 * max(w1_values):
        return _inapplicable(name, "edge weights are not constant")
    found = _gap_hypotheses(wg, name)
    if isinstance(found, TheoremCheck):
        return found
    d, kmin, pair = found
    w0 = wg.w_vertex(wg.labels[0])
    w1 = w1_values[0]
    lam1 = spectrum_of(wg, "edge", "graph").lambda1
    rhs = (d * (float(kmin) - 1.0) + 2.0) * w1 / w0
    wit = ((f"pair {wg.edge_name(pair[0])},{wg.edge_name(pair[1])}", float(kmin)),
           ("neighbor-count", float(d)), ("w0", w0), ("w1", w1))
    return _check(name, lam1, rhs, ">=", _GAP_TOL, wit)


def check_bounds(g) -> list[TheoremCheck]:
    """Curvature floor and ceiling for every adjacent pair.

    Unweighted: the floor and the union-form ceiling are asserted; the
    intersection-form ceiling is attached as a diagnostic.  Weighted: the
    floor is asserted; the ceiling needs constant vertex weights and is
    otherwise recorded as inapplicable (one entry per pair either way).
    """
    weighted = isinstance(g, WeightedGraph)
    const_vw = g.has_constant_vertex_weights() if weighted else True
    out = []
    for (e, f), cp in sorted(ricci_all_adjacent(g).items()):
        tag = f"({g.edge_name(e)},{g.edge_name(f)})"
        wit = ((f"kappa{tag}", float(cp.kappa)),)
        tol = _kappa_tol(cp.kappa)
        out.append(_check(f"curvature-floor{tag}", cp.kappa,
                          lower_bound(g, e, f), ">=", tol, wit))
        if weighted and not const_vw:
            out.append(_inapplicable(f"curvature-ceiling{tag}",
                                     "vertex weights are not constant"))
        else:
            out.append(_check(f"curvature-ceiling{tag}", upper_bound(g, e, f),
                              cp.kappa, ">=", tol, wit))
        if not weighted:
            out.append(_check(f"curvature-ceiling-intersection{tag}",
                              upper_bound(g, e, f, "intersection"), cp.kappa,
                              ">=", tol, wit, diagnostic=True))
    return out


def check_adjacent_pair_reduction(g) -> TheoremCheck:
    """A curvature floor over adjacent pairs extends to all distinct pairs:
    min over every pair >= min over adjacent pairs."""
    name = "adjacent-min-extends-to-all-pairs"
    if g.n_edges < 3:
        return _inapplicable(name, "fewer than three edges")
    lhs = kappa_min(g, "all")
    rhs = kappa_min(g, "adjacent")
    return _check(name, lhs, rhs, ">=", _kappa_tol(lhs, rhs))


def check_spectral_equivalence(g, weighting: str = "degree") -> list[TheoremCheck]:
    """Vertex and edge operators of one weighting share nonzero spectra, and
    the edge operator's kernel has dimension |E| - |V| + 1."""
    gap = spectral_equivalence_gap(g, weighting)
    zero_mult = spectrum_of(g, "edge", weighting).zero_multiplicity
    expected = g.n_edges - g.n_vertices + 1
    return [
        _check(f"vertex-edge-nonzero-spectra[{weighting}]",
               gap, 0.0, "==", _EQUIV_TOL),
        _check(f"edge-kernel-dimension[{weighting}]",
               zero_mult, expected, "==", 0.0),
    ]


def check_tree_formula(g: Graph) -> list[TheoremCheck]:
    """Closed-form tree curvature vs transport, per adjacent pair.

    Pairs where the formula value is <= 1 are asserted to match exactly;
    pairs where it exceeds 1 (leaf-leaf configurations, where the formula
    cannot be a curvature at all) are attached as diagnostics.
    """
    if not is_tree(g):
        return [_inapplicable("tree-formula[]", "graph is not a tree")]
    out = []
    for (e, f), cp in sorted(ricci_all_adjacent(g).items()):
        value = tree_curvature_formula(g, e, f)
        name = f"tree-formula[]({g.edge_name(e)},{g.edge_name(f)})"
        diagnostic = value > 1
        out.append(_check(name, cp.kappa, value, "==", 0.0,
                          (("formula", float(value)),), diagnostic=diagnostic))
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Everything one verification run produced, ready to serialize."""

    graph: dict
    checks: tuple[TheoremCheck, ...]
    curvature: tuple[tuple[int, int, float], ...]
    spectra: dict
    elapsed_seconds: float = field(compare=False, default=0.0)

    def failed(self) -> tuple[TheoremCheck, ...]:
        """Asserted, applicable checks that did not hold."""
        return tuple(c for c in self.checks
                     if c.applicable and not c.diagnostic and not c.holds)


def verification_report(g) -> VerificationReport:
    """Run the full check battery appropriate to the graph's kind."""
    start = time.perf_counter()
    weighted = isinstance(g, WeightedGraph)
    d = edge_regularity(g)
    summary = {
        "vertices": g.n_vertices,
        "edges": g.n_edges,
        "edge_regular_degree": d,
        "weighted": weighted,
    }
    checks: list[TheoremCheck] = []
    if weighted:
        checks.append(check_weighted_spectral_gap_bound(g))
    else:
        checks.append(check_spectral_gap_bound(g))
        checks.append(check_triangle_gap_diagnostic(g))
    checks.extend(check_bounds(g))
    checks.append(check_adjacent_pair_reduction(g))
    for weighting in (("graph",) if weighted else ("unit", "walk", "degree")):
        checks.extend(check_spectral_equivalence(g, weighting))
    if not weighted and is_tree(g):
        checks.extend(check_tree_formula(g))

    curvature = tuple(
        (e, f, float(cp.kappa))
        for (e, f), cp in sorted(ricci_all_adjacent(g).items())
    )
    weighting = "graph" if weighted else "unit"
    spectra = {
        "L0": spectrum_of(g, "vertex", weighting).values,
        "L1": spectrum_of(g, "edge", weighting).values,
        "Lprime1": spectrum_of(g, "edge", "degree").values,
    }
    elapsed = time.perf_counter() - start
    return VerificationReport(summary, tuple(checks), curvature, spectra, elapsed)


# ------------------------------------------------------------- serializers

def _json_escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _json_value(obj) -> str:
    """Minimal JSON emitter with floats at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (float, Fraction)):
        return f"{float(obj):.17g}"
    if isinstance(obj, str):
        return _json_escape(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{_json_escape(str(k))}: {_json_value(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _check_payload(c: TheoremCheck) -> dict:
    return {
        "name": c.name,
        "applicable": c.applicable,
        "reason": c.reason,
        "lhs": c.lhs,
        "rhs": c.rhs,
        "relation": c.relation,
        "tolerance": c.tolerance,
        "holds": c.holds,
        "diagnostic": c.diagnostic,
        "witnesses": [[k, v] for k, v in c.witnesses],
    }


def report_to_json(report: VerificationReport) -> str:
    payload = {
        "graph": report.graph,
        "checks": [_check_payload(c) for c in report.checks],
        "curvature": [[e, f, k] for e, f, k in report.curvature],
        "spectra": {k: list(v) for k, v in report.spectra.items()},
    }
    return _json_value(payload) + "\n"


def report_to_text(report: VerificationReport) -> str:
    g = report.graph
    lines = [
        f"graph: {g['vertices']} vertices, {g['edges']} edges, "
        f"edge-regular degree {g['edge_regular_degree']}, weighted {g['weighted']}",
        "",
        "checks:",
    ]
    for c in report.checks:
        if not c.applicable:
            status = "n/a "
            detail = c.reason
        else:
            status = "ok  " if c.holds else "FAIL"
            detail = f"lhs {c.lhs:.6g} {c.relation} rhs {c.rhs:.6g} (tol {c.tolerance:.6g})"
        mark = " [diagnostic]" if c.diagnostic else ""
        lines.append(f"  {status} {c.name}: {detail}{mark}")
    lines.append("")
    lines.append("curvature (edge, edge, kappa):")
    for e, f, k in report.curvature:
        lines.append(f"  {e:>3} {f:>3}  {k:.6g}")
    lines.append("")
    lines.append("spectra:")
    for name, values in report.spectra.items():
        body = " ".join(f"{v:.6g}" for v in values)
        lines.append(f"  {name}: {body}")
    return "\n".join(lines) + "\n"


def curvature_to_csv(rows) -> str:
    """CSV of (edge, edge, kappa) rows, kappa at 17 significant digits:
    a report's `curvature` table, or the CLI's named-edge rows."""
    lines = ["e,e2,kappa"]
    for e, f, k in rows:
        lines.append(f"{e},{f},{k:.17g}")
    return "\n".join(lines) + "\n"
