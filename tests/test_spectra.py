"""Eigensolver checks against numpy and against closed-form spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edge_ricci import spectra
from edge_ricci.edge_geometry import edge_measure
from edge_ricci.errors import (
    NoConvergenceError,
    NoNonzeroEigenvalueError,
    NonFiniteMatrixError,
    NotSymmetricError,
)
from edge_ricci.graph_core import SplitMix64, WeightedGraph, generate, parse_weighted
from edge_ricci.laplacian import symmetrized
from edge_ricci.spectra import (
    Spectrum,
    eigenvalues_symmetric,
    spectral_equivalence_gap,
    spectrum_of,
)
from edge_ricci.verify import edge_regularity, verification_report


def _random_symmetric(n: int, seed: int) -> list[list[float]]:
    rng = SplitMix64(seed)
    a = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = 4.0 * rng.uniform() - 2.0
    return a


def _assert_matches_numpy(a, rel=1e-12):
    got = eigenvalues_symmetric(a)
    want = np.linalg.eigvalsh(np.array(a, dtype=float))
    scale = max(1.0, float(np.abs(want).max()))
    assert list(got) == pytest.approx(list(want), abs=rel * scale)
    return got


@given(st.integers(1, 60), st.integers(0, 500))
def test_eigenvalues_match_numpy(n, seed):
    _assert_matches_numpy(_random_symmetric(n, seed))


def test_degenerate_and_clustered_spectra():
    assert _assert_matches_numpy([[0.0] * 6 for _ in range(6)]) == (0.0,) * 6
    diag = [[float(3 - abs(i - 3)) if i == j else 0.0 for j in range(7)]
            for i in range(7)]
    assert _assert_matches_numpy(diag) == (0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0)
    # K8 edge operator, degree weighting: a 21-fold 0 and a 7-fold 2/3
    vals = _assert_matches_numpy(symmetrized(generate("complete:8"), "edge", "degree"))
    assert vals == pytest.approx([0.0] * 21 + [2 / 3] * 7, abs=1e-12)
    # star:9 edge operator: all nine edges meet, an eightfold 1/8 and 5/4
    vals = _assert_matches_numpy(symmetrized(generate("star:9"), "edge", "degree"))
    assert vals == pytest.approx([1 / 8] * 8 + [5 / 4], abs=1e-12)
    # K8 edge operator, unit weighting: a 21-dimensional kernel and a
    # sevenfold 8 (the nonzero spectrum of the K8 Laplacian)
    g = generate("complete:8")
    vals = _assert_matches_numpy(symmetrized(g, "edge", "unit"))
    assert vals == pytest.approx([0.0] * 21 + [8.0] * 7, abs=1e-12)
    assert spectrum_of(g, "edge", "unit").zero_multiplicity == 21


def test_a_block_that_splits_mid_sweep_deflates_early(monkeypatch):
    # entries 600 decades apart make one QL rotation's norm underflow to 0
    # inside a sweep, so the sweep deflates the block there and starts over;
    # math.hypot returns 0 nowhere else in the solver
    a = [[0, 0, 1e300, 1e300, 0], [0, 1e-300, 0, 1, 0], [1e300, 0, -1, 0, -1],
         [1e300, 1, 0, 1, -1], [0, 0, -1, -1, 1e300]]
    hypot, splits = math.hypot, []

    def counted(*args):
        r = hypot(*args)
        if r == 0.0:
            splits.append(args)
        return r

    monkeypatch.setattr(spectra.math, "hypot", counted)
    _assert_matches_numpy(a, rel=1e-15)
    assert len(splits) == 1


def test_no_convergence_names_the_matrix_size(monkeypatch):
    monkeypatch.setattr(spectra, "_MAX_ITERATIONS", 0)
    with pytest.raises(NoConvergenceError, match="5x5"):
        eigenvalues_symmetric(_random_symmetric(5, 1))


@given(st.integers(1, 10), st.integers(0, 200))
def test_trace_identity(n, seed):
    a = _random_symmetric(n, seed)
    got = eigenvalues_symmetric(a)
    assert sum(got) == pytest.approx(sum(a[i][i] for i in range(n)), abs=1e-9 * n)


def test_edge_cases():
    assert eigenvalues_symmetric([]) == ()
    assert eigenvalues_symmetric([[7.5]]) == (7.5,)
    assert eigenvalues_symmetric([[0, 0], [0, 0]]) == (0.0, 0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_entries_are_rejected_with_the_size(bad):
    # a NaN off the diagonal would slip past max() and the symmetry test
    a = [[1.0, 0.5, 0.0], [0.5, 1.0, bad], [0.0, bad, 1.0]]
    with pytest.raises(NonFiniteMatrixError, match="3x3"):
        eigenvalues_symmetric(a)


def test_mirror_entries_near_the_float_limit_do_not_overflow():
    # averaging 1e308 with its equal mirror once overflowed to inf and gave
    # (nan, nan); equal mirrors are left as they are, and mirrors that
    # differ within the tolerance are averaged from their halves
    assert eigenvalues_symmetric([[0.0, 1e308], [1e308, 0.0]]) == (
        -9.999999999999998e307, 9.999999999999998e307)
    near = math.nextafter(1e308, 0.0)
    got = eigenvalues_symmetric([[0.0, 1e308], [near, 0.0]])
    assert all(map(math.isfinite, got))
    assert got == pytest.approx((-1e308, 1e308), rel=1e-15)


def test_symmetry_is_enforced():
    # both errors name the matrix size, as the non-finite and convergence
    # errors do
    with pytest.raises(NotSymmetricError, match="^2-row matrix is not square: row 0 has 3 "):
        eigenvalues_symmetric([[1, 2, 3], [2, 1, 0]])
    with pytest.raises(NotSymmetricError, match="^3-row matrix is not square: row 2 has 2 "):
        eigenvalues_symmetric([[1, 0, 0], [0, 1, 0], [0, 1]])
    with pytest.raises(NotSymmetricError,
                       match=r"^2x2 matrix: entry \(0,1\) = 2.0 but \(1,0\) = 3.0"):
        eigenvalues_symmetric([[1, 2], [3, 1]])


def test_cycle_spectra_match_closed_forms():
    # C4's line structure is again a 4-cycle: eigenvalues 1 - cos(2 pi k / 4)
    assert spectrum_of(generate("cycle:4"), "edge", "degree").values == pytest.approx(
        (0.0, 1.0, 1.0, 2.0), abs=1e-10
    )
    golden = sorted([0.0] + [(5 - math.sqrt(5)) / 4] * 2 + [(5 + math.sqrt(5)) / 4] * 2)
    assert spectrum_of(generate("cycle:5"), "edge", "degree").values == pytest.approx(
        golden, abs=1e-10
    )
    # complete graph, unweighted combinatorial Laplacian: {0, n, ..., n}
    assert spectrum_of(generate("complete:4"), "vertex", "unit").values == pytest.approx(
        (0.0, 4.0, 4.0, 4.0), abs=1e-10
    )


def test_spectrum_accessors():
    s = Spectrum((0.0, 1e-12, 0.25, 1.5), zero_tol=1e-9)
    assert s.zero_multiplicity == 2
    assert s.lambda1 == 0.25
    with pytest.raises(NoNonzeroEigenvalueError):
        Spectrum((0.0, 0.0), zero_tol=1e-9).lambda1


def test_default_zero_tolerance_is_relative():
    # scale the operator up 1e9: absolute 1e-8 would misclassify the kernel
    g = generate("cycle:6")
    big = spectrum_of(
        WeightedGraph(g, None, {ep: 1e9 for ep in
                                (("v0", "v1"), ("v1", "v2"), ("v2", "v3"),
                                 ("v3", "v4"), ("v4", "v5"), ("v0", "v5"))}),
        "edge", "graph",
    )
    assert big.zero_multiplicity == 1


@pytest.mark.parametrize("spec", ["complete:5", "star:6", "bipartite:2:4",
                                  "petersen", "circulant:8:1,2"])
@pytest.mark.parametrize("weighting", ["unit", "walk", "degree"])
def test_vertex_and_edge_operators_share_nonzero_spectra(spec, weighting):
    # the oracle solves the larger side directly and compares it with the
    # zero-padded smaller side that spectrum_of derives
    assert spectral_equivalence_gap(generate(spec), weighting) <= 1e-9


def _weighted_draw(spec, seed, wide):
    g = generate(spec, seed=seed)
    rng = SplitMix64(seed)
    draw = (lambda: 10 ** (-6 + 12 * rng.uniform())) if wide else \
        (lambda: 0.5 + 1.5 * rng.uniform())
    return WeightedGraph(g, {v: draw() for v in g.labels},
                         {g.edge_endpoints(e): draw() for e in range(g.n_edges)})


@pytest.mark.parametrize("spec", [
    "petersen", "complete:5", "random:9:0.5",     # m > n
    "cycle:6", "cycle:7",                         # m = n
    "tree:9", "path:5", "star:6",                 # m < n
])
@pytest.mark.parametrize("weighting", ["unit", "walk", "degree", "graph", "wide"])
def test_both_sides_match_a_direct_solve(spec, weighting):
    if weighting in ("graph", "wide"):
        g, weighting = _weighted_draw(spec, 3, weighting == "wide"), "graph"
    else:
        g = generate(spec, seed=3)
    for operator, size in (("vertex", g.n_vertices), ("edge", g.n_edges)):
        got = spectrum_of(g, operator, weighting).values
        want = eigenvalues_symmetric(symmetrized(g, operator, weighting))
        assert len(got) == size
        scale = max(1.0, want[-1])
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-12 * scale, operator


def test_operators_are_positive_semidefinite():
    for seed in range(6):
        g = generate("random:7:0.4", seed=seed)
        for operator in ("vertex", "edge"):
            vals = spectrum_of(g, operator, "degree").values
            assert vals[0] >= -1e-10


def _count_solves(monkeypatch):
    calls = []
    solve = spectra.eigenvalues_symmetric

    def counting(matrix):
        calls.append(len(matrix))
        return solve(matrix)

    monkeypatch.setattr(spectra, "eigenvalues_symmetric", counting)
    return calls


def test_one_solve_per_operator_and_weighting(monkeypatch):
    calls = _count_solves(monkeypatch)
    verification_report(generate("petersen"))
    assert calls == [10] * 3  # the vertex side of unit, walk and degree
    calls.clear()
    g = generate("circulant:8:1,2")
    wg = WeightedGraph(g, {"v0": 2.0},
                       {g.edge_endpoints(e): 1.0 + e / 10 for e in range(g.n_edges)})
    verification_report(wg)
    assert calls == [8] * 2  # the vertex side of graph and degree
    calls.clear()
    verification_report(generate("tree:9", seed=1))
    assert calls == [8] * 3  # a tree's edge side is the smaller


def _kept_spectra(g):
    return sorted(key for key in g._derived
                  if isinstance(key, tuple) and key[0] == "spectrum_of")


def test_a_report_keeps_only_the_solved_side_of_each_weighting():
    # the other side is padded on each read, not kept beside the solve
    g = generate("random:20:0.2")
    verification_report(g)
    assert _kept_spectra(g) == [("spectrum_of", "vertex", w)
                                for w in ("degree", "unit", "walk")]
    wg = parse_weighted('{"edges": [["a", "b", 0.7], ["b", "c", 1.1], '
                        '["c", "d", 2.3], ["a", "c", 0.9]], "vertex_weights": {"a": 0.3}}')
    verification_report(wg)
    assert _kept_spectra(wg) == [("spectrum_of", "vertex", w) for w in ("degree", "graph")]


def test_zero_tolerance_is_applied_per_read(monkeypatch):
    calls = _count_solves(monkeypatch)
    g = generate("cycle:5")
    strict = spectrum_of(g, "edge", "unit", zero_tol=1e-9)
    loose = spectrum_of(g, "edge", "unit", zero_tol=2.0)
    assert len(calls) == 1
    assert strict.values == loose.values
    assert (strict.zero_multiplicity, loose.zero_multiplicity) == (1, 3)


def _walk_complement_spectrum(g):
    """spec(I - P) with P(e, f) = m_e(f), symmetric on an edge-regular graph."""
    m = g.n_edges
    walk = [[float(e == f) for f in range(m)] for e in range(m)]
    for e in range(m):
        measure = edge_measure(g, e)
        for f, mass in zip(measure.atoms, measure.masses):
            walk[e][f] -= float(mass)
    return eigenvalues_symmetric(walk)


@pytest.mark.parametrize("spec, bipartite", [
    ("star:5", True), ("star:7", True), ("bipartite:3:3", True),
    ("bipartite:2:4", True), ("cycle:6", True), ("cycle:8", True),
    ("circulant:8:1,3", True), ("complete:4", False), ("petersen", False),
])
def test_degree_edge_operator_is_a_shifted_walk_on_bipartite_graphs(spec, bipartite):
    # L'1 = (2I + S)/d with S the signed line adjacency; edge flips make
    # every entry of S +1 exactly when the graph is bipartite, and then
    # spec(L'1) = 1 + 2/d - spec(I - P)
    g = generate(spec)
    d = edge_regularity(g)
    shifted = sorted(1 + 2 / d - x for x in _walk_complement_spectrum(g))
    gap = max(abs(x - y) for x, y in zip(spectrum_of(g, "edge", "degree").values, shifted))
    assert (gap <= 1e-12) is bipartite, gap
