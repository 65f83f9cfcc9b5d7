"""Theorem checks, applicability classification, and report serialization."""

import gc
import json
import weakref

import pytest
from hypothesis import given, strategies as st

from edge_ricci.graph_core import WeightedGraph, generate
from edge_ricci.rng import SplitMix64
from edge_ricci.verify import (
    TheoremCheck,
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
    assert ("edge-degree", 4.0) in chk.witnesses


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


def test_weighted_gap_bound():
    base = generate("star:4")
    flat = WeightedGraph(base, {lbl: 2.0 for lbl in base.labels},
                         {tuple(sorted(base.edge_endpoints(e))): 0.5
                          for e in range(base.n_edges)})
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
    floors = [c for c in checks if c.name.startswith("curvature-floor")]
    assert floors and all(c.holds for c in floors)


def test_adjacent_pair_reduction():
    assert not check_adjacent_pair_reduction(generate("path:3")).applicable
    chk = check_adjacent_pair_reduction(generate("tree:8", seed=3))
    assert chk.applicable and chk.holds


def test_spectral_equivalence_checks():
    eq, kernel = check_spectral_equivalence(generate("petersen"), "walk")
    assert eq.name == "vertex-edge-nonzero-spectra[walk]" and eq.holds
    assert kernel.name == "edge-kernel-dimension[walk]" and kernel.holds
    assert kernel.rhs == 6.0  # 15 - 10 + 1


def test_tree_formula_red_is_honest():
    # the two leaf pairs of the 4-path have formula value exactly 1, inside
    # the asserted range, and the assertion fails; nothing hides that
    checks = check_tree_formula(generate("path:4"))
    assert len(checks) == 2
    assert all(c.applicable and not c.diagnostic for c in checks)
    assert all(c.holds is False for c in checks)
    assert all(("formula", 1.0) in c.witnesses for c in checks)


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
    # elapsed time differs between runs; serialized bytes must not
    again = verification_report(g)
    assert report.elapsed_seconds != 0.0
    assert report_to_json(report) == report_to_json(again)


def test_report_failed_surfaces_tree_formula():
    report = verification_report(generate("path:4"))
    assert {c.name.split("(")[0] for c in report.failed()} == {"tree-formula[]"}


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
