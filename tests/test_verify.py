"""Theorem checks, applicability classification, and report serialization."""

import gc
import json
import re
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from edge_ricci import curvature, graph_core, laplacian, spectra, transport, verify
from edge_ricci.curvature import ricci_all_adjacent
from edge_ricci.graph_core import Graph, WeightedGraph, generate
from edge_ricci.rng import SplitMix64
from edge_ricci.verify import (
    _GAP_TOL,
    TheoremCheck,
    VerificationReport,
    _check,
    _json_escape,
    check_adjacent_pair_reduction,
    check_bounds,
    check_spectral_equivalence,
    check_spectral_gap_bound,
    check_tree_formula,
    check_triangle_gap_diagnostic,
    check_weighted_spectral_gap_bound,
    curvature_to_csv,
    edge_regularity,
    report_to_json,
    report_to_text,
    verification_report,
)


def test_gap_bound_on_k4():
    chk = check_spectral_gap_bound(generate("complete:4"))
    assert chk.applicable and chk.holds
    assert chk.lhs == pytest.approx(1.0, abs=1e-9)   # lambda_1 = n/(2(n-2))
    assert chk.rhs == pytest.approx(0.0, abs=1e-12)  # 1/2 + 2/4 - 1
    assert ("neighbor-count", 4.0) in chk.witnesses


def test_gap_checks_round_an_exact_right_side_once():
    # star:6: kappa_min = 4/5 and d = 5, so kappa_min + 2/d - 1 = 1/5
    # exactly; three float roundings used to report 0.20000000000000018
    chk = check_spectral_gap_bound(generate("star:6"))
    assert chk.rhs == float(Fraction(1, 5))
    assert chk.witnesses == (("pair v0-v1,v0-v2", 0.8), ("neighbor-count", 5.0),
                             ("w0", 1.0), ("w1", 0.2))
    triangle = check_triangle_gap_diagnostic(generate("complete:8"))
    assert triangle.rhs == float(Fraction(1, 2) + Fraction(4, 12) - 1)
    assert [k for k, _ in triangle.witnesses] == [
        "pair v0-v1,v0-v2", "neighbor-count", "w0", "w1"]


def test_gap_bound_classification():
    pet = check_spectral_gap_bound(generate("petersen"))
    assert not pet.applicable and "not positive" in pet.reason
    path = check_spectral_gap_bound(generate("path:4"))
    assert not path.applicable and "not all equal" in path.reason
    assert pet.holds is None and pet.lhs is None


def test_triangle_diagnostic():
    k4 = check_triangle_gap_diagnostic(generate("complete:4"))
    assert k4.diagnostic and k4.applicable and k4.holds
    assert k4.rhs == pytest.approx(0.5)  # 1/2 + 4/4 - 1
    star = check_triangle_gap_diagnostic(generate("star:4"))
    assert not star.applicable and "closes no triangle" in star.reason
    assert star.diagnostic  # stays diagnostic even when inapplicable


def _flat_star(m):
    """star:m with every vertex weight 2 and every edge weight 0.5."""
    base = generate(f"star:{m}")
    edges = map(base.edge_endpoints, range(base.n_edges))
    return WeightedGraph(base, dict.fromkeys(base.labels, 2.0), dict.fromkeys(edges, 0.5))


def test_weighted_gap_bound():
    base = generate("star:4")
    flat = _flat_star(4)
    chk = check_weighted_spectral_gap_bound(flat)
    assert chk.applicable and chk.holds
    assert ("w0", 2.0) in chk.witnesses and ("w1", 0.5) in chk.witnesses
    # rhs = (d (kappa - 1) + 2) w1 / w0 with d = 3, kappa = 2/3
    assert chk.rhs == pytest.approx((3 * (2 / 3 - 1) + 2) * 0.5 / 2.0)

    lopsided = WeightedGraph(base, {"v0": 9.0})
    assert "vertex weights are not constant" in check_weighted_spectral_gap_bound(lopsided).reason
    heavy_edge = WeightedGraph(base, None, {("v0", "v1"): 3.0})
    assert "edge weights are not constant" in check_weighted_spectral_gap_bound(heavy_edge).reason
    assert "needs a weighted graph" in check_weighted_spectral_gap_bound(base).reason


def test_weight_constancy_is_decided_once_per_weighted_graph(monkeypatch):
    # the constructor decides both flags; the gap and bounds checks read them
    calls = []
    constant = graph_core._constant
    monkeypatch.setattr(graph_core, "_constant",
                        lambda weights: calls.append(weights) or constant(weights))
    wg = _flat_star(5)
    assert len(calls) == 2
    report = verification_report(wg)
    assert len(calls) == 2
    assert any(c.name.startswith("curvature-ceiling") and c.holds for c in report.checks)


def test_gap_checks_catch_eigenvalues_a_millionth_low(monkeypatch):
    # star:5 is an equality case of both gap bounds: lhs 0.24999999999999975
    # against rhs 0.25 holds within _GAP_TOL, a relative 1e-6 less does not
    assert check_spectral_gap_bound(generate("star:5")).holds
    assert check_weighted_spectral_gap_bound(_flat_star(5)).holds
    solve = spectra.eigenvalues_symmetric
    monkeypatch.setattr(spectra, "eigenvalues_symmetric",
                        lambda matrix: tuple(x * (1 - 1e-6) for x in solve(matrix)))
    for chk in (check_spectral_gap_bound(generate("star:5")),
                check_weighted_spectral_gap_bound(_flat_star(5))):
        assert chk.applicable and not chk.holds, chk
        assert (chk.lhs, chk.rhs) == (0.24999974999999974, 0.25)


def test_bounds_battery_on_k4():
    checks = check_bounds(generate("complete:4"))
    assert len(checks) == 36  # 12 adjacent pairs x (floor, ceiling, diagnostic)
    by_name = {c.name: c for c in checks}
    first = "(v0-v1,v0-v2)"
    assert by_name[f"curvature-floor{first}"].rhs == -1.0
    assert by_name[f"curvature-ceiling{first}"].lhs == 1.5
    assert by_name[f"curvature-ceiling-intersection{first}"].lhs == 0.5
    assert by_name[f"curvature-ceiling-intersection{first}"].diagnostic
    assert all(c.holds for c in checks)


def test_bounds_weighted_ceiling_needs_constant_vertex_weights():
    wg = WeightedGraph(generate("cycle:4"), {"v0": 2.0})
    checks = check_bounds(wg)
    ceilings = [c for c in checks if c.name.startswith("curvature-ceiling")]
    assert ceilings and all(not c.applicable for c in ceilings)
    assert all(c.reason == "vertex weights are not constant" for c in ceilings)
    floors = [c for c in checks if c.name.startswith("curvature-floor")]
    assert floors and all(c.holds for c in floors)
    # constant vertex weights: per pair a floor and a ceiling, both
    # asserted, and no intersection line
    base = generate("cycle:4")
    wg = WeightedGraph(base, dict.fromkeys(base.labels, 2.0), {("v0", "v1"): 3.0})
    checks = check_bounds(wg)
    families = ["curvature-floor", "curvature-ceiling"] * len(ricci_all_adjacent(wg))
    assert [c.name.split("(")[0] for c in checks] == families
    assert all(c.applicable and not c.diagnostic and c.holds for c in checks)


def _bound_line(name, lhs, rhs, wit, diagnostic=False):
    # lhs >= rhs: exactly, tolerance 0, when both sides are exact, else in
    # floats within _GAP_TOL
    exact = all(isinstance(x, Fraction) for x in (lhs, rhs))
    holds = lhs >= rhs if exact else float(lhs) >= float(rhs) - _GAP_TOL
    return TheoremCheck(name, True, "", float(lhs), float(rhs), ">=",
                        0.0 if exact else _GAP_TOL, holds, diagnostic, wit)


def _bound_lines_pair_by_pair(g):
    """check_bounds(g) as the public ricci and pair_bounds give it, pair by
    pair in key order."""
    lines = []
    for e in range(g.n_edges):
        for f in range(e + 1, g.n_edges):
            if not curvature.edges_adjacent(g, e, f):
                continue
            kappa = curvature.ricci(g, e, f)
            floor, ceiling, intersection = curvature.pair_bounds(g, e, f)
            tag = f"({g.edge_name(e)},{g.edge_name(f)})"
            wit = ((f"kappa{tag}", float(kappa)),)
            lines.append(_bound_line(f"curvature-floor{tag}", kappa, floor, wit))
            if ceiling is None:
                lines.append(TheoremCheck(f"curvature-ceiling{tag}", False,
                                          "vertex weights are not constant",
                                          None, None, "", 0.0, None))
            else:
                lines.append(_bound_line(f"curvature-ceiling{tag}", ceiling, kappa, wit))
            if intersection is not None:
                lines.append(_bound_line(f"curvature-ceiling-intersection{tag}",
                                         intersection, kappa, wit, diagnostic=True))
    return lines


@pytest.mark.parametrize("kind", ["unweighted", "constant-vertex-weights", "vertex-weights"])
def test_bound_lines_are_the_public_pair_functions_pair_by_pair(kind):
    # every field of every line, in order, with its type (repr tells 0 from
    # 0.0 and -0.0 from 0.0), against lines built from ricci and pair_bounds
    base = generate("random:9:0.45", seed=4)
    rng = SplitMix64(4)
    edges = {base.edge_endpoints(e): 0.5 + 1.5 * rng.uniform() for e in range(base.n_edges)}
    g = {"unweighted": base,
         "constant-vertex-weights": WeightedGraph(base, dict.fromkeys(base.labels, 1.5), edges),
         "vertex-weights": WeightedGraph(
             base, {v: 0.5 + 1.5 * rng.uniform() for v in base.labels}, edges)}[kind]
    want = _bound_lines_pair_by_pair(g)
    got = check_bounds(g)
    assert len(want) > 3 * base.n_vertices
    assert [repr(c) for c in got] == [repr(c) for c in want]
    assert got == want


def test_adjacent_pair_reduction():
    assert not check_adjacent_pair_reduction(generate("path:3")).applicable
    chk = check_adjacent_pair_reduction(generate("tree:8", seed=3))
    assert chk.applicable and chk.holds


def test_spectral_equivalence_checks():
    eq, kernel = check_spectral_equivalence(generate("petersen"), "walk")
    assert eq.name == "vertex-edge-nonzero-spectra[walk]" and eq.holds
    assert kernel.name == "edge-kernel-dimension[walk]" and kernel.holds
    assert kernel.rhs == 6.0  # 15 - 10 + 1


def test_nonzero_spectra_check_catches_a_perturbed_eigenvalue(monkeypatch):
    # the shared spectrum is derived from one solve, so only its moments
    # against the Gram traces can catch a wrong eigenvalue
    solve = spectra.eigenvalues_symmetric

    def off_by_one_in_a_thousand(matrix):
        values = list(solve(matrix))
        values[-1] *= 1.001
        return tuple(values)

    monkeypatch.setattr(spectra, "eigenvalues_symmetric", off_by_one_in_a_thousand)
    for g, weighting in ((generate("petersen"), "unit"), (generate("tree:9", seed=2), "walk"),
                         (WeightedGraph(generate("cycle:5"), {"v0": 2.0}), "graph")):
        eq, kernel = check_spectral_equivalence(g, weighting)
        assert not eq.holds and kernel.holds, (eq, kernel)


def test_kernel_check_catches_a_dropped_pad_zero(monkeypatch):
    pad = spectra._pad
    monkeypatch.setattr(spectra, "_pad", lambda values, size: pad(values, size - 1))
    eq, kernel = check_spectral_equivalence(generate("petersen"), "degree")
    assert eq.holds and not kernel.holds
    assert (kernel.lhs, kernel.rhs) == (5.0, 6.0)


@pytest.mark.parametrize("weighted", [False, True])
def test_nonzero_spectra_check_catches_a_skewed_trace(monkeypatch, weighted):
    # a Gram trace off by a relative 1e-6, a Fraction or a float, makes the
    # moment check FAIL with that relative error as lhs
    g = generate("complete:4")
    if weighted:
        g = WeightedGraph(g, {"v0": 2.0}, {("v1", "v2"): 3.0})
    weighting = "graph" if weighted else "degree"
    assert check_spectral_equivalence(g, weighting)[0].holds
    moments = laplacian.gram_moments

    def skewed(g, weighting):
        tr, sq, shift = moments(g, weighting)
        return tr * (1 + Fraction(1, 10**6)), sq, shift

    monkeypatch.setattr(verify, "gram_moments", skewed)
    eq, kernel = check_spectral_equivalence(g, weighting)
    assert not eq.holds and kernel.holds
    assert eq.lhs == pytest.approx(1e-6, rel=1e-5)


@pytest.mark.parametrize("spec, seed", [("random:8:0.5", 1), ("random:10:0.5", 2),
                                        ("random:12:0.5", 3)])
def test_nonzero_spectra_lhs_is_unchanged_by_power_of_four_weight_scaling(spec, seed):
    # scaling every vertex weight, or every edge weight, by 4^k scales the
    # Gram matrices by 4^-k or 4^k, exactly in binary; the moments and the
    # spectrum are scaled back by one power of two, so lhs keeps its bits
    # as long as the weights stay normal floats
    base = generate(spec, seed=seed)
    rng = SplitMix64(seed)
    vw = {v: 0.5 + 1.5 * rng.uniform() for v in base.labels}
    ew = {base.edge_endpoints(e): 0.5 + 1.5 * rng.uniform() for e in range(base.n_edges)}
    want = check_spectral_equivalence(WeightedGraph(base, vw, ew), "graph")[0].lhs
    for k in sorted({-499, 499, *range(-499, 500, 23)}):
        s = 4.0 ** k
        scaled_vertices = WeightedGraph(base, {v: w * s for v, w in vw.items()}, ew)
        scaled_edges = WeightedGraph(base, vw, {e: w * s for e, w in ew.items()})
        for wg in (scaled_vertices, scaled_edges):
            eq, _ = check_spectral_equivalence(wg, "graph")
            assert eq.holds and eq.lhs == want, (k, eq.lhs, want)


def test_tree_formula_red_is_honest():
    # the two leaf pairs of the 4-path have formula value exactly 1, inside
    # the asserted range, and the assertion fails; nothing hides that
    checks = check_tree_formula(generate("path:4"))
    assert len(checks) == 2
    assert all(c.applicable and not c.diagnostic for c in checks)
    assert all(c.holds is False for c in checks)
    assert all(("formula", 1.0) in c.witnesses for c in checks)
    [cycle] = check_tree_formula(generate("cycle:4"))
    assert not cycle.applicable and cycle.reason == "graph is not a tree"


def test_tree_formula_flags_out_of_range_pairs_as_diagnostic():
    # star pairs: deg_y = 5, d_e = d_f = 4 -> formula 5/4 + 8/4 - 2 = 5/4,
    # above the kappa <= 1 range, so the mismatch with kappa = 3/4 is
    # recorded but cannot fail a run
    checks = check_tree_formula(generate("star:5"))
    assert len(checks) == 10
    assert all(c.diagnostic for c in checks)
    assert all(("formula", 1.25) in c.witnesses for c in checks)


def test_gap_checks_need_an_unweighted_graph():
    base = generate("complete:5")
    rng = SplitMix64(11)
    wg = WeightedGraph(
        base,
        {v: 0.5 + 1.5 * rng.uniform() for v in base.labels},
        {base.edge_endpoints(e): 0.5 + 1.5 * rng.uniform() for e in range(base.n_edges)})
    gap = check_spectral_gap_bound(wg)
    triangle = check_triangle_gap_diagnostic(wg)
    for chk in (gap, triangle):
        assert not chk.applicable and chk.holds is None and chk.lhs is None
        assert chk.reason == "needs an unweighted graph"
    assert not gap.diagnostic and triangle.diagnostic
    assert check_spectral_gap_bound(base).applicable
    assert check_triangle_gap_diagnostic(base).applicable


def test_edge_regularity():
    assert edge_regularity(generate("complete:4")) == 4
    assert edge_regularity(generate("path:4")) is None


def test_edge_regularity_counts_neighbors_on_weighted_graphs():
    # one heavy edge makes the weighted degrees unequal; the counts stay 4
    base = generate("complete:4")
    wg = WeightedGraph(base, {"v0": 2.0}, {base.edge_endpoints(0): 3.0})
    assert edge_regularity(wg) == edge_regularity(base) == 4
    assert type(edge_regularity(wg)) is int
    path = generate("path:4")
    assert edge_regularity(WeightedGraph(path, {"v1": 2.0})) is None
    report = verification_report(wg)
    assert report.graph["edge_regular_degree"] == 4
    assert report.spectra["Lprime1"] == verification_report(base).spectra["Lprime1"]


def _regular_or_biregular_bipartite(g):
    """Every vertex degree equal, or a 2-colouring with one degree per colour."""
    adj = [[] for _ in range(g.n_vertices)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    degree = [len(nbrs) for nbrs in adj]
    if len(set(degree)) == 1:
        return True
    colour = {0: 0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in colour:
                colour[v] = 1 - colour[u]
                frontier.append(v)
            elif colour[v] == colour[u]:
                return False
    return all(len({degree[v] for v in colour if colour[v] == c}) == 1 for c in (0, 1))


_specs = st.one_of(
    st.builds("random:{}:{}".format, st.integers(3, 9), st.sampled_from([0.2, 0.5, 1.0])),
    st.builds("bipartite:{}:{}".format, st.integers(1, 4), st.integers(1, 4)),
    st.builds("{}:{}".format, st.sampled_from(["star", "cycle", "path", "tree"]),
              st.integers(3, 9)),
)


@given(_specs, st.integers(0, 10**6))
def test_edge_regularity_means_regular_or_biregular_bipartite(spec, seed):
    # deg(x) + deg(y) is constant over the edges of a connected graph exactly
    # when the graph is regular or bipartite with one degree per side
    g = generate(spec, seed=seed)
    assert (edge_regularity(g) is not None) == _regular_or_biregular_bipartite(g)


# ------------------------------------------------------------- reports

def test_report_on_k4_is_all_green_and_byte_stable():
    g = generate("complete:4")
    report = verification_report(g)
    assert report.failed() == ()
    assert report.graph == {"vertices": 4, "edges": 6,
                            "edge_regular_degree": 4, "weighted": False}
    payload = json.loads(report_to_json(report))
    assert set(payload) == {"graph", "checks", "curvature", "spectra"}
    assert set(payload["spectra"]) == {"L0", "L1", "Lprime1"}
    names = {c["name"] for c in payload["checks"]}
    assert "spectral-gap-vs-curvature" in names
    assert "adjacent-min-extends-to-all-pairs" in names
    assert "vertex-edge-nonzero-spectra[degree]" in names
    # a second report serializes to the same bytes
    again = verification_report(g)
    assert report_to_json(report) == report_to_json(again)


def test_check_keys_are_the_fields_in_order():
    payload = json.loads(report_to_json(verification_report(generate("path:4"))))
    assert {tuple(c) for c in payload["checks"]} == {(
        "name", "applicable", "reason", "lhs", "rhs", "relation", "tolerance",
        "holds", "diagnostic", "witnesses")}


@pytest.mark.parametrize("char, escaped", [
    ('"', '\\"'), ("\\", "\\\\"), ("\x00", "\\u0000"), ("\x01", "\\u0001"),
    ("\x08", "\\u0008"), ("\x1f", "\\u001f"), ("\x7f", "\x7f"), ("\u00e9", "\u00e9"),
])
def test_json_escape_bytes(char, escaped):
    assert _json_escape(f"a{char}b") == f'"a{escaped}b"'


def test_report_failed_surfaces_tree_formula():
    report = verification_report(generate("path:4"))
    assert {c.name.split("(")[0] for c in report.failed()} == {"tree-formula"}


def test_weighted_report_uses_graph_weighting():
    wg = WeightedGraph(generate("cycle:4"), None, {("v0", "v1"): 2.0})
    report = verification_report(wg)
    payload = json.loads(report_to_json(report))
    assert payload["graph"]["weighted"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "weighted-spectral-gap-vs-curvature" in names
    assert "vertex-edge-nonzero-spectra[graph]" in names
    assert report.failed() == ()  # inapplicable entries are not failures


def test_reports_leave_no_reference_cycles():
    # the per-graph caches must not point back at their graph, or every
    # graph outlives its report until the next cyclic collection
    base = generate("circulant:8:1,2")
    wg = WeightedGraph(base, {"v0": 2.0},
                       {base.edge_endpoints(e): 1.0 + e / 10 for e in range(base.n_edges)})
    g = generate("petersen")
    gc.disable()
    try:
        verification_report(g)
        verification_report(wg)
        refs = [weakref.ref(x) for x in (g, wg, base)]
        del g, wg, base
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_text_rendering():
    text = report_to_text(verification_report(generate("petersen")))
    assert "n/a  spectral-gap-vs-curvature" in text
    assert "ok   adjacent-min-extends-to-all-pairs" in text
    assert "[diagnostic]" in text


def test_curvature_csv_golden():
    assert curvature_to_csv(verification_report(generate("path:3")).curvature) == (
        "e,e2,kappa\n0,1,0\n"
    )
    k3 = curvature_to_csv(verification_report(generate("complete:3")).curvature)
    assert k3.splitlines()[1] == "0,1,0.5"


def test_exact_sides_compare_exactly():
    # two Fractions 1e-20 apart round to one float, but are not equal; the
    # tolerance is 0 for exact sides whatever the caller passes, and is
    # recorded as the float 0.0
    a = Fraction(-1, 3)
    b = a + Fraction(1, 10**20)
    assert float(a) == float(b)
    for relation in ("==", ">="):
        c = _check("x", a, b, relation, _GAP_TOL)
        assert c.holds is False and c.tolerance == 0.0 and type(c.tolerance) is float
        assert (c.lhs, c.rhs) == (float(a), float(b))
    assert _check("x", b, a, ">=", _GAP_TOL).holds
    assert _check("x", 3, Fraction(3), "==", _GAP_TOL).holds
    # a float side rounds both to floats and compares within the tolerance
    c = _check("x", a, float(a) + 1e-12, "==", _GAP_TOL)
    assert c.holds and c.tolerance == _GAP_TOL


@pytest.mark.parametrize("weighted", [False, True])
def test_reduction_on_a_warm_table_solves_nothing(monkeypatch, weighted):
    g = generate("random:8:0.5", seed=4)
    if weighted:
        g = WeightedGraph(g, {v: 0.5 + 0.25 * k for k, v in enumerate(g.labels)},
                          {g.edge_endpoints(e): 1.0 + 0.125 * e for e in range(g.n_edges)})
    ricci_all_adjacent(g)
    calls = []
    ricci, post_init = curvature.ricci, transport.TransportProblem.__post_init__
    monkeypatch.setattr(curvature, "ricci", lambda *a: calls.append(a) or ricci(*a))
    monkeypatch.setattr(transport.TransportProblem, "__post_init__",
                        lambda self: calls.append(self) or post_init(self))
    chk = check_adjacent_pair_reduction(g)
    assert chk.applicable and chk.holds and chk.lhs == chk.rhs
    assert calls == []


def test_report_builds_the_curvature_minimum_once(monkeypatch):
    # complete:6 is edge-regular with kappa 1/2, so both gap checks and the
    # reduction read the minimum; only its first reader scans the table
    g = generate("complete:6")
    scans = []
    table = curvature.ricci_all_adjacent
    monkeypatch.setattr(curvature, "ricci_all_adjacent",
                        lambda graph: scans.append(graph) or table(graph))
    checks = {c.name: c for c in verification_report(g).checks}
    assert len(scans) == 1
    for name in ("spectral-gap-vs-curvature", "adjacent-min-extends-to-all-pairs",
                 "spectral-gap-vs-curvature-triangle-diagnostic"):
        assert checks[name].applicable and checks[name].holds
    assert checks["adjacent-min-extends-to-all-pairs"].lhs == 0.5
    assert checks["spectral-gap-vs-curvature"].witnesses[0] == ("pair v0-v1,v0-v2", 0.5)


@pytest.mark.parametrize("spec, regular", [("complete:5", True), ("random:12:0.6", False)])
def test_report_solves_no_pair_inside_a_check(monkeypatch, spec, regular):
    # the report builds the adjacent table before its first check, so a
    # trace charges no check with the solves: without that, the gap check
    # would build it on an edge-regular graph and the bounds check otherwise
    g = generate(spec, seed=0)
    assert (edge_regularity(g) is not None) == regular
    inside, solves = [], Counter()
    ricci = curvature.ricci
    monkeypatch.setattr(curvature, "ricci",
                        lambda *a: solves.update([inside[-1] if inside else None]) or ricci(*a))
    for name in [n for n in vars(verify) if n.startswith("check_")]:
        def traced(*args, _check=getattr(verify, name), _name=name, **kwargs):
            inside.append(_name)
            try:
                return _check(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(verify, name, traced)
    verification_report(g)
    assert solves == {None: len(ricci_all_adjacent(g))}


def _relabelled(g, rng):
    """g under fresh labels, with its vertex and edge lists shuffled, and
    the map from the new labels back to g's."""
    fresh = [f"w{k}" for k in range(g.n_vertices)]
    rng.shuffle(fresh)
    back = dict(zip(fresh, g.labels))
    to = dict(zip(g.labels, fresh))
    labels = list(fresh)
    rng.shuffle(labels)
    pairs = [tuple(to[v] for v in g.edge_endpoints(e)) for e in range(g.n_edges)]
    pairs = [p if rng.random() < 0.5 else p[::-1] for p in pairs]
    rng.shuffle(pairs)
    return Graph(labels, pairs), back


def _pair_key(g, e, f, back):
    return frozenset(frozenset(back[v] for v in g.edge_endpoints(k)) for k in (e, f))


_PAIR_TAG = re.compile(r"^(.*)\(([^-,()]+)-([^-,()]+),([^-,()]+)-([^-,()]+)\)$")


def _check_key(chk, back):
    """(name, applicable, holds), with a pair-tagged name as its prefix and
    the unordered pair of edges, labels mapped through `back`."""
    tagged = _PAIR_TAG.match(chk.name)
    name = chk.name
    if tagged:
        a, b, c, d = (back[v] for v in tagged.groups()[1:])
        name = (tagged[1], frozenset((frozenset((a, b)), frozenset((c, d)))))
    return name, chk.applicable, chk.holds


def _weighted_twins(g, h, back, rng):
    """g and its relabelling h as WeightedGraphs with the same weights on
    the same vertices and edges, each drawn in [0.5, 2) from rng."""
    vw = {v: 0.5 + 1.5 * rng.random() for v in g.labels}
    ew = {frozenset(g.edge_endpoints(e)): 0.5 + 1.5 * rng.random() for e in range(g.n_edges)}
    h_edges = map(h.edge_endpoints, range(h.n_edges))
    return (WeightedGraph(g, vw, {tuple(pair): w for pair, w in ew.items()}),
            WeightedGraph(h, {v: vw[back[v]] for v in h.labels},
                          {(u, v): ew[frozenset((back[u], back[v]))] for u, v in h_edges}))


@pytest.mark.parametrize("weighted", [False, True])
@given(st.sampled_from(["random:9:0.5", "tree:12"]), st.integers(0, 10**6),
       st.randoms(use_true_random=False))
def test_relabelling_changes_no_curvature_and_no_verdict(weighted, spec, seed, rng):
    g = generate(spec, seed=seed)
    h, back = _relabelled(g, rng)
    if weighted:
        g, h = _weighted_twins(g, h, back, rng)
    same = {v: v for v in g.labels}
    table = {_pair_key(g, e, f, same): kappa for (e, f), kappa in ricci_all_adjacent(g).items()}
    mapped = {_pair_key(h, e, f, back): kappa
              for (e, f), kappa in ricci_all_adjacent(h).items()}
    if weighted:
        # float rows are not symmetric, so h may solve a pair the other way round
        assert mapped.keys() == table.keys()
        assert all(abs(mapped[k] - kappa) <= 1e-9 * max(1.0, abs(kappa))
                   for k, kappa in table.items())
    else:
        assert mapped == table
        assert all(isinstance(k, Fraction) for k in mapped.values())
    before = Counter(_check_key(c, same) for c in verification_report(g).checks)
    after = Counter(_check_key(c, back) for c in verification_report(h).checks)
    assert after == before


# text with the characters JSON escapes (U+0008 included) and non-ASCII
_texts = st.text(st.one_of(st.sampled_from('"\\\x08'), st.characters(max_codepoint=0x1f),
                           st.characters(min_codepoint=0x20, max_codepoint=0x2fff,
                                         blacklist_categories=("Cs",))),
                 max_size=6)
_floats = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
                    st.integers(-10**6, 10**6).map(float),
                    st.floats(allow_nan=False, allow_infinity=False))
_theorem_checks = st.builds(
    TheoremCheck, name=_texts, applicable=st.booleans(), reason=_texts,
    lhs=st.none() | _floats, rhs=st.none() | _floats,
    relation=st.sampled_from([">=", "==", ""]) | _texts,
    tolerance=st.sampled_from([0.0, _GAP_TOL, 1e-8]) | _floats,
    holds=st.sampled_from([None, True, False]), diagnostic=st.booleans(),
    witnesses=st.lists(st.tuples(_texts, _floats), max_size=3).map(tuple))
_reports = st.builds(
    VerificationReport,
    graph=st.fixed_dictionaries({"vertices": st.integers(1, 99), "edges": st.integers(1, 99),
                                 "edge_regular_degree": st.none() | st.integers(0, 99),
                                 "weighted": st.booleans()}),
    checks=st.lists(_theorem_checks, max_size=4).map(tuple),
    curvature=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), _floats),
                       max_size=4).map(tuple),
    spectra=st.dictionaries(st.sampled_from(["L0", "L1", "Lprime1"]) | _texts,
                            st.lists(_floats, max_size=4).map(tuple), max_size=3))


@given(st.text(st.one_of(
    st.sampled_from('"\\\x00\x08\x1f\x7f\x85\xa0\u2028\u2029\ufeff\U0001f600\U000e0001'),
    st.characters(blacklist_categories=("Cs",)))))
@example("\\")
@example('"')
@example("a\x1fb")
@example("\u2028")
@example("\U0001f600\\")
def test_json_escape_takes_the_table_only_where_it_changes_something(s):
    # the printable fast path returns what the table would, on any text:
    # controls, quotes, backslashes, separators and non-BMP characters
    assert _json_escape(s) == '"' + s.translate(verify._JSON_ESCAPES) + '"'
    assert json.loads(_json_escape(s)) == s


@given(_reports)
def test_report_json_is_the_generic_emitter_on_the_whole_report(report):
    text = report_to_json(report)
    assert text == verify._json_value({
        "graph": report.graph,
        "checks": [vars(c) for c in report.checks],
        "curvature": report.curvature,
        "spectra": report.spectra,
    }) + "\n"
    payload = json.loads(text)
    assert payload["graph"] == report.graph
    assert payload["checks"] == [
        {**vars(c), "witnesses": [list(w) for w in c.witnesses]} for c in report.checks]
    assert payload["curvature"] == [list(row) for row in report.curvature]
    assert payload["spectra"] == {k: list(v) for k, v in report.spectra.items()}


def test_exact_checks_fail_inside_the_float_tolerance(monkeypatch):
    # each patched side is kappa moved by 1e-30, far inside the float
    # tolerance: only an exact comparison sees it
    g = generate("tree:9", seed=2)
    table = ricci_all_adjacent(g)
    eps = Fraction(1, 10**30)
    monkeypatch.setattr(verify, "_bounds", lambda g, space, e, f: (
        table[e, f] + eps, table[e, f] - eps, table[e, f] - eps))
    monkeypatch.setattr(verify, "tree_curvature_formula",
                        lambda g, e, f: table[e, f] + eps)
    checks = verification_report(g).checks
    for family in ("curvature-floor(", "curvature-ceiling(", "tree-formula("):
        found = [c for c in checks if c.name.startswith(family)]
        assert len(found) == len(table)
        assert all(c.applicable and c.holds is False and c.tolerance == 0.0
                   and abs(c.lhs - c.rhs) <= _GAP_TOL for c in found)
