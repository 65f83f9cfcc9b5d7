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

The three gap checks are one bound over the scheme's weights:
lambda_1 of the edge operator >= (d (kappa_min - 1) + c) w1/w0, with c = 2,
or c = 4 for the triangle diagnostic.  Unweighted input reads the 'degree'
scheme, (w0, w1) = (1, 1/d), so its right side is an exact Fraction
rounded once; weighted input reads its own constant weights, in floats.
Each records the witnesses (pair, kappa_min), (neighbor-count, d),
(w0, w0) and (w1, w1).

Reports serialize to JSON (17 significant digits), plain text tables
(6 digits), and CSV for the curvature table.  A report keeps no timing,
so identical inputs yield byte-identical output.  report_to_json writes
one f-string per check, the bytes _json_value would write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .curvature import (
    _bounds,
    adjacent_minimum,
    ricci_all_adjacent,
    tree_curvature_formula,
)
from .edge_geometry import edge_space
from .errors import IsolatedEdgeError
from .graph_core import Graph, WeightedGraph, is_tree
from .laplacian import gram_moments, weight_pair
from .spectra import spectrum_of

_GAP_TOL = 1e-9
_EQUIV_TOL = 1e-8
_NO_ADJACENT_PAIRS = "graph has no adjacent edge pairs"


@dataclass(frozen=True)
class TheoremCheck:
    """One verified statement: holds iff lhs `relation` rhs within tolerance.

    The fields, in this order, are the check's keys in `report_to_json`.
    """

    name: str
    applicable: bool
    reason: str  # why inapplicable; empty when applicable
    lhs: float | None
    rhs: float | None
    relation: str  # ">=" or "=="
    tolerance: float
    holds: bool | None
    diagnostic: bool = False
    witnesses: tuple[tuple[str, float], ...] = ()


def _check(name, lhs, rhs, relation, tolerance, witnesses=(), diagnostic=False):
    """The check lhs `relation` rhs, relation ">=" or "==".  Two exact
    sides (int or Fraction) compare exactly, with tolerance 0; otherwise
    both are rounded to floats and compared within tolerance.  The record
    holds floats; witnesses are (str, float) pairs, kept as given."""
    exact = isinstance(lhs, (int, Fraction)) and isinstance(rhs, (int, Fraction))
    if not exact:
        lhs, rhs = float(lhs), float(rhs)
    if relation == ">=":
        holds = lhs >= rhs if exact else lhs >= rhs - tolerance
    else:  # "=="; not lhs == rhs on floats: the two differ at equal infinities
        holds = lhs == rhs if exact else abs(lhs - rhs) <= tolerance
    return TheoremCheck(name, True, "", float(lhs), float(rhs), relation,
                        0.0 if exact else float(tolerance), holds, diagnostic, witnesses)


def _inapplicable(name, reason, diagnostic=False):
    return TheoremCheck(name, False, reason, None, None, "", 0.0, None,
                        diagnostic)


def edge_regularity(g):
    """The common neighbor count when all |Gamma(e)| agree, else None;
    never a weighted degree."""
    counts = {len(nbrs) for nbrs in edge_space(g).neighbors}
    return counts.pop() if len(counts) == 1 else None


def _gap_hypotheses(g, name: str, weighted: bool, diagnostic: bool = False):
    """(d, kappa_min, pair) when g meets every hypothesis of the gap bounds,
    else the inapplicable check naming the first that fails, in this order:
    g is a WeightedGraph iff weighted; when weighted, constant vertex and
    then edge weights; edge-regularity (one neighbor count d for every
    edge); an adjacent pair; a positive adjacent curvature minimum."""
    if isinstance(g, WeightedGraph) != weighted:
        need = "a weighted" if weighted else "an unweighted"
        return _inapplicable(name, f"needs {need} graph", diagnostic)
    if weighted and not g.constant_vertex_weights:
        return _inapplicable(name, "vertex weights are not constant", diagnostic)
    if weighted and not g.constant_edge_weights:
        return _inapplicable(name, "edge weights are not constant", diagnostic)
    d = edge_regularity(g)
    if d is None:
        what = "edge neighbor counts" if weighted else "edge degrees"
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


def _gap_check(g, name: str, weighted: bool, triangle: bool = False) -> TheoremCheck:
    """The gap bound of the module docstring, c = 2, under _gap_hypotheses;
    the triangle diagnostic (c = 4) also needs every adjacent pair to close
    a triangle.  The right side keeps the weights' number type until _check."""
    found = _gap_hypotheses(g, name, weighted, triangle)
    if isinstance(found, TheoremCheck):
        return found
    d, kmin, pair = found
    if triangle:
        for e, f in ricci_all_adjacent(g):
            x, z = set(g.edges[e]) ^ set(g.edges[f])  # the two far ends
            if not any(z in g.edges[k] for k in g.incident[x]):
                return _inapplicable(
                    name, f"pair {g.edge_name(e)},{g.edge_name(f)} closes no triangle",
                    diagnostic=True)
    scheme = "graph" if weighted else "degree"
    w0, w1 = (weights[0] for weights in weight_pair(g, scheme))
    lam1 = spectrum_of(g, "edge", scheme).lambda1
    rhs = (d * (kmin - 1) + (4 if triangle else 2)) * w1 / w0
    wit = ((f"pair {g.edge_name(pair[0])},{g.edge_name(pair[1])}", float(kmin)),
           ("neighbor-count", float(d)), ("w0", float(w0)), ("w1", float(w1)))
    return _check(name, lam1, rhs, ">=", _GAP_TOL, wit, diagnostic=triangle)


def check_spectral_gap_bound(g) -> TheoremCheck:
    """Gap of the degree-weighted edge operator vs curvature + 2/d - 1, on
    an unweighted edge-regular graph with positive curvature minimum."""
    return _gap_check(g, "spectral-gap-vs-curvature", weighted=False)


def check_triangle_gap_diagnostic(g) -> TheoremCheck:
    """Diagnostic only, unweighted: gap vs curvature + 4/d - 1 when every
    adjacent pair closes a triangle.  The 4/d constant shows up there but
    is never asserted; failures here are informational."""
    return _gap_check(g, "spectral-gap-vs-curvature-triangle-diagnostic",
                      weighted=False, triangle=True)


def check_weighted_spectral_gap_bound(wg: WeightedGraph) -> TheoremCheck:
    """Weighted gap bound lambda_1 >= (d (kappa_min - 1) + 2) w1/w0, for
    constant vertex weight w0 and constant edge weight w1."""
    return _gap_check(wg, "weighted-spectral-gap-vs-curvature", weighted=True)


def check_bounds(g) -> list[TheoremCheck]:
    """Curvature floor and ceiling for every adjacent pair, from pair_bounds.

    The floor is asserted on every pair.  The ceiling is asserted where
    pair_bounds gives one and otherwise recorded as inapplicable (one entry
    per pair either way); the intersection-form ceiling, where there is one,
    is attached as a diagnostic.
    """
    out, space = [], edge_space(g)
    names = space.names
    for (e, f), kappa in ricci_all_adjacent(g).items():
        floor, ceiling, intersection = _bounds(g, space, e, f)
        tag = f"({names[e]},{names[f]})"
        wit = ((f"kappa{tag}", float(kappa)),)
        out.append(_check(f"curvature-floor{tag}", kappa, floor, ">=", _GAP_TOL, wit))
        if ceiling is None:
            out.append(_inapplicable(f"curvature-ceiling{tag}",
                                     "vertex weights are not constant"))
        else:
            out.append(_check(f"curvature-ceiling{tag}", ceiling, kappa,
                              ">=", _GAP_TOL, wit))
        if intersection is not None:
            out.append(_check(f"curvature-ceiling-intersection{tag}", intersection,
                              kappa, ">=", _GAP_TOL, wit, diagnostic=True))
    return out


def check_adjacent_pair_reduction(g) -> TheoremCheck:
    """A curvature floor over adjacent pairs extends to all distinct pairs:
    min over every pair >= min over adjacent pairs.

    Proof (Y. Ollivier, J. Funct. Anal. 256 (2009) 810-864, Prop. 19).  The
    edge distance d is the shortest-path metric of the line adjacency with
    positive hop weights, so a non-adjacent pair (e, f) has a geodesic
    e = p_0, ..., p_k = f of adjacent hops with d(e, f) = sum d(p_i, p_i+1).
    W is a metric on measures over that metric space, so by the triangle
    inequality
        W(e, f) <= sum W(p_i, p_i+1) <= sum d(p_i, p_i+1)(1 - kappa_min)
                 = d(e, f)(1 - kappa_min),
    that is kappa(e, f) >= kappa_min.  Hypotheses: W is a metric, and each
    adjacent W(p_i, p_i+1) is the value its own solve certified (the
    residual transport's certificate on unweighted input; the plan's
    marginals, the dual's Lipschitz bound and the duality gap on weighted
    input).  Nothing beyond the adjacent solves is computed: lhs and
    rhs are both the adjacent minimum, read from the per-graph table, and
    acceptance criterion 7 tests the theorem against every pair solved.
    """
    name = "adjacent-min-extends-to-all-pairs"
    if g.n_edges < 3:
        return _inapplicable(name, "fewer than three edges")
    kmin = adjacent_minimum(g)[0]
    return _check(name, kmin, kmin, ">=", _GAP_TOL)


def check_spectral_equivalence(g, weighting: str = "degree") -> list[TheoremCheck]:
    """Vertex and edge operators of one weighting share nonzero spectra, and
    the edge operator's kernel has dimension |E| - |V| + 1.  Both are n/a
    where the weighting is undefined: degree weighting on the one-edge
    graph, whose edge has no neighbor.

    The sharing is a theorem: spectrum_of solves one Gram side and pads the
    other with zeros (spectra module docstring), and acceptance criterion 8
    tests the padding against a direct solve of the larger side.  What this
    check asserts is the solve: lhs is the larger relative error of the sum
    and the sum of squares of the shared spectrum against the trace and
    squared Frobenius norm that laplacian.gram_moments sums from B^T B,
    exactly on the unweighted schemes.  The spectrum is first scaled by the
    moments' power of two, which is exact, so lhs is finite wherever the
    spectrum is, and the test suite checks that scaling every vertex or
    every edge weight by a power of four leaves it bitwise unchanged.  The
    kernel dimension is read from the padded edge spectrum, so it still
    depends on the solved side's own zero count.
    """
    names = (f"vertex-edge-nonzero-spectra[{weighting}]",
             f"edge-kernel-dimension[{weighting}]")
    try:
        spectrum = spectrum_of(g, "edge", weighting)
        tr, sq, shift = gram_moments(g, weighting)
    except IsolatedEdgeError as exc:
        return [_inapplicable(name, str(exc)) for name in names]
    values = [math.ldexp(v, -shift) for v in spectrum.values]
    tr, sq = float(tr), float(sq)
    lhs = max(abs(math.fsum(values) - tr) / tr,
              abs(math.fsum(v * v for v in values) - sq) / sq)
    expected = g.n_edges - g.n_vertices + 1
    return [
        _check(names[0], lhs, 0.0, "==", _EQUIV_TOL),
        _check(names[1], spectrum.zero_multiplicity, expected, "==", 0.0),
    ]


def check_tree_formula(g: Graph) -> list[TheoremCheck]:
    """Closed-form tree curvature vs transport, per adjacent pair.

    Pairs where the formula value is <= 1 are asserted to match exactly;
    pairs where it exceeds 1 (leaf-leaf configurations, where the formula
    cannot be a curvature at all) are attached as diagnostics.
    """
    if not is_tree(g):
        return [_inapplicable("tree-formula", "graph is not a tree")]
    out = []
    for (e, f), kappa in ricci_all_adjacent(g).items():
        value = tree_curvature_formula(g, e, f)
        name = f"tree-formula({g.edge_name(e)},{g.edge_name(f)})"
        diagnostic = value > 1
        out.append(_check(name, kappa, value, "==", 0.0,
                          (("formula", float(value)),), diagnostic=diagnostic))
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Everything one verification run produced, ready to serialize."""

    graph: dict
    checks: tuple[TheoremCheck, ...]
    curvature: tuple[tuple[int, int, float], ...]
    spectra: dict

    def failed(self) -> tuple[TheoremCheck, ...]:
        """Asserted, applicable checks that did not hold."""
        return tuple(c for c in self.checks
                     if c.applicable and not c.diagnostic and not c.holds)


def verification_report(g) -> VerificationReport:
    """Run the full check battery appropriate to the graph's kind."""
    weighted = isinstance(g, WeightedGraph)
    d = edge_regularity(g)
    # the curvature checks read this per-graph table; building it here keeps
    # its transport solves out of whichever check would reach it first
    table = ricci_all_adjacent(g)
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

    curvature = tuple((e, f, float(kappa)) for (e, f), kappa in table.items())
    weighting = "graph" if weighted else "unit"
    try:
        lprime1 = spectrum_of(g, "edge", "degree").values
    except IsolatedEdgeError:  # the one-edge graph
        lprime1 = ()
    spectra = {
        "L0": spectrum_of(g, "vertex", weighting).values,
        "L1": spectrum_of(g, "edge", weighting).values,
        "Lprime1": lprime1,
    }
    return VerificationReport(summary, tuple(checks), curvature, spectra)


# ------------------------------------------------------------- serializers

_JSON_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\",
                 **{c: f"\\u{c:04x}" for c in range(0x20)}}


_JSON_LITERALS = {None: "null", True: "true", False: "false"}


def _json_escape(s: str) -> str:
    # a printable string holds no control character, so needs no table
    plain = s.isprintable() and '"' not in s and "\\" not in s
    return '"' + (s if plain else s.translate(_JSON_ESCAPES)) + '"'


def _json_value(obj) -> str:
    """Minimal JSON emitter with floats at 17 significant digits."""
    if obj is None or obj is True or obj is False:
        return _JSON_LITERALS[obj]
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, str):
        return _json_escape(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{_json_escape(str(k))}: {_json_value(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_number(x) -> str:
    return "null" if x is None else f"{x:.17g}"


def report_to_json(report: VerificationReport) -> str:
    """_json_value of the report's fields, written as one f-string per check."""
    checks = ", ".join([
        f'{{"name": {_json_escape(c.name)}, "applicable": {_JSON_LITERALS[c.applicable]}, '
        f'"reason": {_json_escape(c.reason)}, "lhs": {_json_number(c.lhs)}, '
        f'"rhs": {_json_number(c.rhs)}, "relation": {_json_escape(c.relation)}, '
        f'"tolerance": {c.tolerance:.17g}, "holds": {_JSON_LITERALS[c.holds]}, '
        f'"diagnostic": {_JSON_LITERALS[c.diagnostic]}, "witnesses": ['
        f'{", ".join([f"[{_json_escape(k)}, {v:.17g}]" for k, v in c.witnesses])}]}}'
        for c in report.checks])
    curvature = ", ".join([f"[{e}, {f}, {k:.17g}]" for e, f, k in report.curvature])
    spectra = ", ".join([
        f'{_json_escape(name)}: [{", ".join([f"{v:.17g}" for v in values])}]'
        for name, values in report.spectra.items()])
    return (f'{{"graph": {_json_value(report.graph)}, "checks": [{checks}], '
            f'"curvature": [{curvature}], "spectra": {{{spectra}}}}}\n')


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
        lines.append(" ".join([f"  {name}:", *(f"{v:.6g}" for v in values)]))
    return "\n".join(lines) + "\n"


def curvature_to_csv(rows) -> str:
    """CSV of (edge, edge, kappa) rows, kappa at 17 significant digits:
    a report's `curvature` table, or the CLI's named-edge rows."""
    lines = ["e,e2,kappa"]
    for e, f, k in rows:
        lines.append(f"{_csv_field(e)},{_csv_field(f)},{k:.17g}")
    return "\n".join(lines) + "\n"


def _csv_field(value) -> str:
    """RFC 4180 minimal quoting (labels hold no whitespace, so no newlines)."""
    text = str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text
