"""Scripted acceptance gate: eleven numbered criteria, one verdict each.

Every criterion is a function returning a CriterionResult with a pinned
tolerance baked in.  ``run_all`` executes them in order; the CLI ``selftest``
subcommand prints one line per criterion and exits nonzero when any fail.
Criteria are deliberately independent of each other — a red in one never
masks a green in another.

Randomized criteria derive their instance streams from the single ``seed``
argument through splitmix64, so reruns are byte-reproducible and two
different seeds exercise different corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .curvature import (
    kappa_min,
    pair_transport_problem,
    ricci_all_adjacent,
    tree_curvature_formula,
)
from .edge_geometry import edge_space
from .graph_core import Graph, WeightedGraph, generate
from .rng import SplitMix64
from .spectra import spectrum_of
from .transport import brute_force_wasserstein
from .verify import (
    check_adjacent_pair_reduction,
    check_bounds,
    check_spectral_equivalence,
    check_spectral_gap_bound,
    check_weighted_spectral_gap_bound,
    edge_regularity,
)

_TOL = 1e-9

_TITLES = {
    1: "complete graphs: curvature 1/2 and gap n/(2(n-2))",
    2: "cycles: zero curvature and 4-/5-cycle spectra",
    3: "stars: curvature, gap, and bound equality",
    4: "complete bipartite: exact curvature table",
    5: "spectral gap bound: corpus classification",
    6: "curvature floor and ceiling on random graphs",
    7: "adjacent minimum extends to all pairs",
    8: "vertex/edge spectra agree; kernel dimension",
    9: "transport duality gaps and brute-force oracle",
    10: "tree curvature formula (in-range pairs)",
    11: "weighted gap bound and unweighted reduction",
}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{mark}] {self.title}: {self.detail}"


def _verdict(number, failures, ok_detail, lead=""):
    """Pass with ok_detail, or fail with lead and the first three failures."""
    if failures:
        shown = "; ".join(failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        return CriterionResult(number, _TITLES[number], False, lead + shown + more)
    return CriterionResult(number, _TITLES[number], True, ok_detail)


def _uniform(rng: SplitMix64):
    """A draw of a weight uniform on [0.5, 2.0) from rng."""
    return lambda: 0.5 + 1.5 * rng.uniform()


def _weighted(base: Graph, vertex, edge) -> WeightedGraph:
    """base with weight vertex() on every vertex, then edge() on every edge;
    vertices draw first, so a shared random stream is read in that order."""
    vw = {v: vertex() for v in base.labels}
    ew = {base.edge_endpoints(e): edge() for e in range(base.n_edges)}
    return WeightedGraph(base, vw, ew)


def _table_failures(g: Graph, name: str, closed_form) -> list[str]:
    """One failure per adjacent pair whose curvature is not exactly the
    value of closed_form(e, f), which returns (value, note after the pair)."""
    failures = []
    for (e, f), cp in sorted(ricci_all_adjacent(g).items()):
        want, note = closed_form(e, f)
        if cp.kappa != want:
            failures.append(f"{name} pair {g.edge_name(e)},{g.edge_name(f)}{note}: "
                            f"kappa {cp.kappa} != {want}")
    return failures


# ----------------------------------------------------------- criterion 1

def criterion_1(seed: int = 0) -> CriterionResult:
    """Complete graphs n in 3..6: every adjacent curvature is exactly 1/2 and
    the degree-weighted edge gap is n/(2(n-2)) within 1e-9."""
    failures = []
    for n in range(3, 7):
        g = generate(f"complete:{n}")
        failures += _table_failures(g, f"K{n}", lambda e, f: (Fraction(1, 2), ""))
        lam1 = spectrum_of(g, "edge", "degree").lambda1
        want = n / (2.0 * (n - 2))
        if abs(lam1 - want) > _TOL:
            failures.append(f"K{n}: lambda1 {lam1!r} != {want!r}")
    return _verdict(1, failures, "n in 3..6, all pairs exact, gaps within 1e-9")


# ----------------------------------------------------------- criterion 2

def criterion_2(seed: int = 0) -> CriterionResult:
    """Cycles n in 4..8: adjacent curvatures are exactly zero and the minimum
    over *all* pairs is exactly zero; 4- and 5-cycle edge spectra match their
    closed forms within 1e-9.

    Non-adjacent cycle pairs can have strictly positive curvature (opposite
    edges of a 4-cycle carry identical measures), so "flat" here means the
    minimum vanishes, not every pair.
    """
    failures = []
    for n in range(4, 9):
        g = generate(f"cycle:{n}")
        failures += _table_failures(g, f"C{n}", lambda e, f: (0, ""))
        if kappa_min(g, "all") != 0:
            failures.append(f"C{n}: min over all pairs {kappa_min(g, 'all')} != 0")
    closed = {
        4: (0.0, 1.0, 1.0, 2.0),
        5: (0.0, (5 - math.sqrt(5)) / 4, (5 - math.sqrt(5)) / 4,
            (5 + math.sqrt(5)) / 4, (5 + math.sqrt(5)) / 4),
    }
    for n, want in closed.items():
        got = spectrum_of(generate(f"cycle:{n}"), "edge", "degree").values
        dev = max(abs(a - b) for a, b in zip(got, want))
        if len(got) != len(want) or dev > _TOL:
            failures.append(f"C{n} spectrum {got} != {want}")
    return _verdict(2, failures,
                    "n in 4..8 flat (adjacent and min-over-all), spectra within 1e-9")


# ----------------------------------------------------------- criterion 3

def criterion_3(seed: int = 0) -> CriterionResult:
    """Stars with m leaves, m in 2..8: curvature (m-2)/(m-1) exactly, gap
    1/(m-1) within 1e-9, and the gap bound is an *equality*.

    For m = 2 the curvature minimum is zero, so the packaged bound check
    classifies the star inapplicable; the equality itself still holds
    numerically and is asserted directly for every m."""
    failures = []
    for m in range(2, 9):
        g = generate(f"star:{m}")
        want_kappa = Fraction(m - 2, m - 1)
        failures += _table_failures(g, f"star:{m}", lambda e, f: (want_kappa, ""))
        lam1 = spectrum_of(g, "edge", "degree").lambda1
        if abs(lam1 - 1.0 / (m - 1)) > _TOL:
            failures.append(f"star:{m}: lambda1 {lam1!r} != 1/{m - 1}")
        d = m - 1  # every edge of the star touches the other m-1 edges
        rhs = float(want_kappa) + 2.0 / d - 1.0
        if abs(lam1 - rhs) > _TOL:
            failures.append(f"star:{m}: bound not tight, lambda1 {lam1!r} vs {rhs!r}")
        if m >= 3:
            chk = check_spectral_gap_bound(g)
            if not (chk.applicable and chk.holds):
                failures.append(f"star:{m}: packaged gap check did not hold ({chk.reason})")
    return _verdict(3, failures, "m in 2..8, equality within 1e-9 at every size")


# ----------------------------------------------------------- criterion 4

def criterion_4(seed: int = 0) -> CriterionResult:
    """Complete bipartite graphs: adjacent curvature equals
    (deg(shared vertex) - 2)/(n + m - 2) exactly, for (n, m) in
    (2,2), (2,3), (3,3), (2,4)."""
    failures = []
    for n, m in ((2, 2), (2, 3), (3, 3), (2, 4)):
        g = generate(f"bipartite:{n}:{m}")
        space = edge_space(g)

        def closed_form(e, f):
            y = g.labels[space.shared_vertex[e][f]]
            return Fraction(len(g.adjacency[y]) - 2, n + m - 2), f" via {y}"
        failures += _table_failures(g, f"K{n},{m}", closed_form)
    return _verdict(4, failures, "(2,2),(2,3),(3,3),(2,4) all exact")


# ----------------------------------------------------------- criterion 5

# (family spec, expected applicability, None = derive from hypotheses)
_CLASSIFICATION_CORPUS = (
    ("complete:3", True), ("complete:4", True), ("complete:5", True),
    ("complete:6", True),
    ("star:3", True), ("star:4", True), ("star:5", True), ("star:6", True),
    ("bipartite:2:2", False),   # curvature minimum is exactly 0
    ("bipartite:3:3", True),    # kappa = 1/4 > 0, bound holds (rhs < 0)
    ("petersen", False),        # adjacent curvature minimum is 0
    ("circulant:8:1,2", None),
    ("circulant:9:1,2", None),
)


def criterion_5(seed: int = 0) -> CriterionResult:
    """Gap-vs-curvature check across a fixed corpus: applicable graphs hold
    within 1e-9 and inapplicable ones are classified as such (edge degrees
    not constant, or curvature minimum not positive)."""
    failures = []
    for spec, expect in _CLASSIFICATION_CORPUS:
        g = generate(spec)
        chk = check_spectral_gap_bound(g)
        if expect is None:
            # derive the expected classification independently of the check
            d = edge_regularity(g)
            expect = d is not None and kappa_min(g, "adjacent") > 0
        if chk.applicable != expect:
            failures.append(f"{spec}: applicability {chk.applicable} != {expect}"
                            f" ({chk.reason or 'hypotheses met'})")
        elif chk.applicable and not chk.holds:
            failures.append(f"{spec}: bound failed, lhs {chk.lhs!r} rhs {chk.rhs!r}")
    return _verdict(5, failures,
                    f"{len(_CLASSIFICATION_CORPUS)} graphs classified and verified")


# ----------------------------------------------------------- criterion 6

def _bounds_corpus(seed: int):
    """Criterion 6's graphs, one at a time, as (kind, name, |V|, graph): 50
    exact random graphs, then 20 weighted ones with constant vertex weights."""
    for i in range(50):
        n = 4 + i % 7
        p = (0.25, 0.4, 0.6)[i % 3]
        yield "exact", f"graph #{i}", n, generate(f"random:{n}:{p}", seed=seed * 101 + i)
    for i in range(20):
        n = 4 + i % 6
        base = generate(f"random:{n}:0.4", seed=seed * 101 + 5000 + i)
        w0 = (1.0, 2.0, 0.5)[i % 3]
        draw = _uniform(SplitMix64(seed * 101 + 6000 + i))
        yield "weighted", f"weighted #{i}", n, _weighted(base, lambda: w0, draw)


def criterion_6(seed: int = 0) -> CriterionResult:
    """Curvature floor and ceiling on random graphs: 50 seeded connected
    graphs (|V| <= 10, exact arithmetic, tolerance zero) plus 20 seeded
    weighted graphs with constant vertex weights (float route, 1e-9)."""
    failures = []
    counts = {"exact": 0, "weighted": 0}
    for kind, name, n, g in _bounds_corpus(seed):
        for chk in check_bounds(g):
            if chk.diagnostic or not chk.applicable:
                continue
            counts[kind] += 1
            if not chk.holds:
                failures.append(f"{name} ({n} vertices): {chk.name} "
                                f"lhs {chk.lhs!r} rhs {chk.rhs!r}")
    return _verdict(6, failures, f"{counts['exact']} exact and "
                    f"{counts['weighted']} weighted pair bounds hold")


# ----------------------------------------------------------- criterion 7

def criterion_7(seed: int = 0) -> CriterionResult:
    """The adjacent-pair curvature minimum is a floor for all distinct pairs
    on 20 seeded graphs with |V| <= 9 (half random connected, half trees)."""
    failures = []
    for i in range(20):
        n = 4 + i % 6
        spec = f"tree:{n + 3}" if i % 2 else f"random:{n}:0.4"
        g = generate(spec, seed=seed * 211 + i)
        chk = check_adjacent_pair_reduction(g)
        if not chk.applicable:
            continue  # tiny graphs with < 3 edges carry no content here
        if not chk.holds:
            failures.append(f"{spec} #{i}: all-pairs min {chk.lhs!r} < "
                            f"adjacent min {chk.rhs!r}")
    return _verdict(7, failures, "20 seeded graphs, exact comparison")


# ----------------------------------------------------------- criterion 8

_EQUIVALENCE_BASES = ("complete:4", "complete:5", "star:5", "bipartite:3:3",
                      "cycle:6", "petersen", "circulant:8:1,2")


def criterion_8(seed: int = 0) -> CriterionResult:
    """Vertex and edge operators built from one weighting share their nonzero
    spectra (within 1e-8) and the edge operator's kernel has dimension
    |E| - |V| + 1; checked for the unit/walk/degree weightings on a fixed
    corpus and for 10 random positive weight assignments."""
    failures = []
    checked = 0
    for spec in _EQUIVALENCE_BASES:
        g = generate(spec)
        for weighting in ("unit", "walk", "degree"):
            for chk in check_spectral_equivalence(g, weighting):
                checked += 1
                if not chk.holds:
                    failures.append(f"{spec} [{weighting}]: {chk.name} "
                                    f"lhs {chk.lhs!r} rhs {chk.rhs!r}")
    draw = _uniform(SplitMix64(seed * 401 + 17))
    for i in range(10):
        spec = _EQUIVALENCE_BASES[i % 5]
        wg = _weighted(generate(spec), draw, draw)
        for chk in check_spectral_equivalence(wg, "graph"):
            checked += 1
            if not chk.holds:
                failures.append(f"{spec} random weights #{i}: {chk.name} "
                                f"lhs {chk.lhs!r} rhs {chk.rhs!r}")
    return _verdict(8, failures, f"{checked} spectrum/kernel checks")


# ----------------------------------------------------------- criterion 9

_EXACT_TRANSPORT_CORPUS = ("cycle:5", "cycle:6", "star:4", "star:5",
                           "complete:4", "path:5", "bipartite:2:3", "tree:8")
_FLOAT_TRANSPORT_CORPUS = ("cycle:4", "star:4", "complete:4", "bipartite:2:3",
                           "tree:7")


def _transport_corpus(seed: int):
    """Criterion 9's graphs, one at a time, as (name, gap word, graph,
    tolerance): the exact corpus, then the float one with random weights."""
    for spec in _EXACT_TRANSPORT_CORPUS:
        yield spec, "exact gap", generate(spec, seed=seed * 307), 0
    draw = _uniform(SplitMix64(seed * 307 + 99))
    for spec in _FLOAT_TRANSPORT_CORPUS:
        wg = _weighted(generate(spec, seed=seed * 307 + 1), draw, draw)
        yield f"weighted {spec}", "gap", wg, _TOL


def criterion_9(seed: int = 0) -> CriterionResult:
    """Every transport solve closes its duality gap (exactly on rationals,
    within 1e-9 on floats), and on instances with at most 4 support atoms per
    side the optimum matches a spanning-tree brute-force enumeration."""
    failures = []
    gaps = oracles = 0
    for name, gap_word, g, tol in _transport_corpus(seed):
        for (e, f), cp in sorted(ricci_all_adjacent(g).items()):
            pair = f"{name} {g.edge_name(e)},{g.edge_name(f)}"
            gaps += 1
            if abs(cp.transport.gap) > tol:
                failures.append(f"{pair}: {gap_word} {cp.transport.gap}")
            problem = pair_transport_problem(g, e, f)
            if len(problem.mu.atoms) <= 4 and len(problem.nu.atoms) <= 4:
                oracles += 1
                bf = brute_force_wasserstein(problem)
                if abs(bf - cp.wasserstein) > tol * max(1.0, abs(bf)):
                    failures.append(f"{pair}: solver {cp.wasserstein} != oracle {bf}")
    return _verdict(9, failures,
                    f"{gaps} gaps closed, {oracles} oracle comparisons agree")


# ----------------------------------------------------------- criterion 10

def criterion_10(seed: int = 0) -> CriterionResult:
    """Tree formula deg(y)/min(d_e,d_f) + (2 deg(y) - 2)/max(d_e,d_f) - 2 vs
    the computed curvature, exact, on a 4-path plus 20 seeded random trees
    with |V| <= 12 — asserted wherever the formula value is a possible
    curvature (<= 1).

    Pairs whose non-shared endpoints are both internal match.  Pairs with a
    leaf endpoint generally do not (the formula counts a transport route the
    optimal plan avoids), so this criterion is expected to stay red; the
    detail line reports the mismatch census.
    """
    failures = []
    matched = in_range = beyond = 0
    trees = ["path:4"] + [f"tree:{4 + i % 9}" for i in range(20)]
    for i, spec in enumerate(trees):
        g = generate(spec, seed=seed * 503 + i)
        for (e, f), cp in sorted(ricci_all_adjacent(g).items()):
            value = tree_curvature_formula(g, e, f)
            if value > 1:
                beyond += 1  # cannot equal any curvature; nothing to assert
                continue
            in_range += 1
            if cp.kappa == value:
                matched += 1
            else:
                failures.append(f"{spec} #{i} {g.edge_name(e)},{g.edge_name(f)}: "
                                f"formula {value} vs kappa {cp.kappa}")
    detail = (f"{matched}/{in_range} in-range pairs match exactly; "
              f"{beyond} pairs have formula > 1 and are out of range")
    return _verdict(10, failures, detail, lead=f"{detail}; first mismatches: ")


# ----------------------------------------------------------- criterion 11

_WEIGHTED_GAP_CORPUS = ("complete:4", "complete:5", "star:4", "star:5",
                        "bipartite:3:3")


def criterion_11(seed: int = 0) -> CriterionResult:
    """Weighted gap bound lambda1 >= (d(kappa-1)+2) w1/w0 on constant-weight
    graphs for (w0, w1) in {(1, 1/d), (2, 0.5), (0.5, 1)}, and numeric
    agreement of the (1, 1/d) case with the unweighted bound."""
    failures = []
    checked = 0
    for spec in _WEIGHTED_GAP_CORPUS:
        base = generate(spec)
        d = edge_regularity(base)
        if d is None:
            failures.append(f"{spec}: corpus graph is not edge-regular")
            continue
        plain = check_spectral_gap_bound(base)
        for w0, w1 in ((1.0, 1.0 / d), (2.0, 0.5), (0.5, 1.0)):
            chk = check_weighted_spectral_gap_bound(_weighted(base, lambda: w0, lambda: w1))
            checked += 1
            if not chk.applicable:
                failures.append(f"{spec} (w0={w0}, w1={w1}): inapplicable: {chk.reason}")
            elif not chk.holds:
                failures.append(f"{spec} (w0={w0}, w1={w1}): lhs {chk.lhs!r} "
                                f"rhs {chk.rhs!r}")
            elif w0 == 1.0 and plain.applicable:
                # w0 = 1, w1 = 1/d: both sides must agree with the
                # unweighted bound, number for number
                if abs(chk.lhs - plain.lhs) > _TOL or abs(chk.rhs - plain.rhs) > _TOL:
                    failures.append(f"{spec}: (1, 1/d) does not reduce to the "
                                    f"unweighted bound: {chk.lhs!r}/{chk.rhs!r} vs "
                                    f"{plain.lhs!r}/{plain.rhs!r}")
    return _verdict(11, failures,
                    f"{checked} weighted bounds hold; (1, 1/d) matches unweighted")


# ----------------------------------------------------------------- driver

_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
             criterion_11)


def run_all(seed: int = 0) -> list[CriterionResult]:
    """Run the full gate in order.  Never raises for a red criterion; an
    unexpected exception inside one is reported as its failure."""
    results = []
    for i, fn in enumerate(_CRITERIA, start=1):
        try:
            results.append(fn(seed))
        except Exception as exc:  # noqa: BLE001 - a crash is a failed criterion
            results.append(CriterionResult(
                i, _TITLES[i], False, f"raised {type(exc).__name__}: {exc}"))
    return results
