"""Acceptance criteria, one test per criterion.

The same battery backs the CLI ``selftest`` subcommand; here each criterion
is a separate test so CI output shows one pass/fail line per criterion.

Criterion 10 (closed-form tree curvature matching transport on every
adjacent pair) is EXPECTED TO FAIL: on pairs whose smaller edge ends in a
leaf the formula overshoots the true curvature — the 4-path's leaf pairs
have formula value 1 but curvature 0.  The criterion is implemented exactly
as stated and reports the mismatch census instead of being weakened to pass.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from edge_ricci import acceptance, curvature
from edge_ricci.acceptance import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_11,
    run_all,
)
from edge_ricci.curvature import adjacent_minimum, edges_adjacent
from edge_ricci.graph_core import generate
from edge_ricci.spectra import Spectrum


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_all(seed=0)}


def test_gate_covers_all_eleven_criteria(results):
    assert sorted(results) == list(range(1, 12))
    for r in results.values():
        assert r.line().startswith(f"criterion {r.number:2d} [")


@pytest.mark.parametrize("number", range(1, 12))
def test_criterion(results, number):
    r = results[number]
    assert r.passed, r.line()


def test_criterion_7_catches_a_pair_below_the_adjacent_minimum(monkeypatch):
    # a mutant: one non-adjacent pair of the criterion's graph #1 (tree:8 at
    # seed 1) solves 1/100 below the adjacent minimum; the check reports the
    # adjacent minimum, so only the solved oracle can see it
    target = generate("tree:8", seed=1)
    kmin = adjacent_minimum(target)[0]
    m = target.n_edges
    pair = next((e, f) for e in range(m) for f in range(e + 1, m)
                if not edges_adjacent(target, e, f))
    ricci = curvature.ricci

    def lowered(g, e, f):
        if g == target and (e, f) == pair:
            return kmin - Fraction(1, 100)
        return ricci(g, e, f)

    monkeypatch.setattr(curvature, "ricci", lowered)
    result = criterion_7(seed=0)
    assert not result.passed
    assert result.detail == (f"tree:8 #1: adjacent min {float(kmin)!r} != "
                             f"solved all-pairs min {kmin - Fraction(1, 100)}")


def test_criterion_2_catches_a_non_adjacent_pair_below_zero(monkeypatch):
    # a mutant: one non-adjacent pair of the 6-cycle solves at -1/100; every
    # adjacent pair stays flat, so only the all-pairs minimum can see it
    target = generate("cycle:6")
    m = target.n_edges
    pair = next((e, f) for e in range(m) for f in range(e + 1, m)
                if not edges_adjacent(target, e, f))
    ricci = curvature.ricci

    def lowered(g, e, f):
        if g == target and (e, f) == pair:
            return Fraction(-1, 100)
        return ricci(g, e, f)

    monkeypatch.setattr(curvature, "ricci", lowered)
    result = criterion_2(seed=0)
    assert not result.passed
    assert result.detail == "C6: min over all pairs -1/100 != 0"


def test_criterion_5_names_a_misclassified_graph_and_a_failed_bound(monkeypatch):
    # mutants of the gap check: circulant:9:1,2 (adjacent minimum 0) is
    # reported applicable, against the criterion's own derivation, and the
    # bound on complete:4 is reported as not holding
    misclassified, failed = generate("circulant:9:1,2"), generate("complete:4")
    check = acceptance.check_spectral_gap_bound

    def planted(g):
        chk = check(g)
        if g == misclassified:
            return dataclasses.replace(chk, applicable=True, reason="")
        if g == failed:
            return dataclasses.replace(chk, holds=False)
        return chk

    monkeypatch.setattr(acceptance, "check_spectral_gap_bound", planted)
    result = criterion_5(seed=0)
    assert not result.passed
    assert result.detail == ("complete:4: bound failed, lhs 0.9999999999999992 rhs 0.0; "
                             "circulant:9:1,2: applicability True != False (hypotheses met)")


# ---------------------------------------- planted defects, one per criterion

def _plant(monkeypatch, name, change, at=(0,)):
    """acceptance.<name> returns change(result) on its calls numbered in at
    (from 0, in the criterion's own order) and its true result otherwise."""
    real, calls = getattr(acceptance, name), itertools.count()

    def planted(*args):
        out = real(*args)
        return change(out) if next(calls) in at else out

    monkeypatch.setattr(acceptance, name, planted)


def _first_pair(kappa):
    """A change of the first pair of an adjacent table to kappa, leaving the
    kept table as it is."""
    return lambda table: {**table, min(table): kappa}


def _spectrum(*values):
    return lambda sp: Spectrum(values, sp.zero_tol)


def _failing_first(**fields):
    """A change that fails the first of a list of checks."""
    return lambda checks: [dataclasses.replace(checks[0], holds=False, **fields), *checks[1:]]


def test_criterion_1_names_a_wrong_table_entry_and_a_wrong_gap(monkeypatch):
    # K3's first pair solves at 1/3, and K4's gap reads 0.5
    _plant(monkeypatch, "ricci_all_adjacent", _first_pair(Fraction(1, 3)))
    _plant(monkeypatch, "spectrum_of", _spectrum(0.0, 0.5, 3.0), at=(1,))
    result = criterion_1(seed=0)
    assert not result.passed
    assert result.detail == "K3 pair v0-v1,v0-v2: kappa 1/3 != 1/2; K4: lambda1 0.5 != 1.0"


def test_criterion_2_names_a_spectrum_off_its_closed_form(monkeypatch):
    _plant(monkeypatch, "spectrum_of", _spectrum(0.0, 1.0, 1.0, 2.0, 2.0), at=(1,))
    result = criterion_2(seed=0)
    assert not result.passed
    assert result.detail == (
        "C5 spectrum (0.0, 1.0, 1.0, 2.0, 2.0) != (0.0, 0.6909830056250525, "
        "0.6909830056250525, 1.8090169943749475, 1.8090169943749475)")


def test_criterion_3_names_a_wrong_gap_a_loose_bound_and_a_failed_check(monkeypatch):
    # star:4's gap reads 0.25 against 1/3, and star:5's packaged check fails
    _plant(monkeypatch, "spectrum_of", _spectrum(0.0, 0.25, 1.0, 1.0), at=(2,))
    _plant(monkeypatch, "check_spectral_gap_bound",
           lambda chk: dataclasses.replace(chk, holds=False), at=(2,))
    result = criterion_3(seed=0)
    assert not result.passed
    assert result.detail == ("star:4: lambda1 0.25 != 1/3; star:4: bound not tight, "
                             "lambda1 0.25 vs 0.33333333333333326; "
                             "star:5: packaged gap check did not hold ()")


def test_criterion_6_names_a_bound_that_fails(monkeypatch):
    # the first check on the first random graph is reported failing
    _plant(monkeypatch, "check_bounds", _failing_first())
    result = criterion_6(seed=0)
    assert not result.passed
    assert result.detail == ("graph #0 (4 vertices): curvature-floor(v0-v1,v0-v2) "
                             "lhs 0.3333333333333333 rhs -0.6666666666666666")


def test_criterion_8_names_a_failed_check_and_a_padded_spectrum_off_a_direct_solve(monkeypatch):
    # K4's unit spectra are reported apart, and its walk padding 1e-6 off
    _plant(monkeypatch, "check_spectral_equivalence", _failing_first(lhs=0.25))
    _plant(monkeypatch, "spectral_equivalence_gap", lambda gap: 1e-6, at=(1,))
    result = criterion_8(seed=0)
    assert not result.passed
    assert result.detail == ("complete:4 [unit]: vertex-edge-nonzero-spectra[unit] lhs 0.25 "
                             "rhs 0.0; complete:4 [walk]: padded spectrum is 1e-06 from a "
                             "direct solve")


def test_criterion_9_names_an_open_gap_and_an_oracle_mismatch(monkeypatch):
    # the 5-cycle's first pair reports a gap of 1/7, and the oracle prices
    # its second pair 1 above the solver
    _plant(monkeypatch, "solve_wasserstein", lambda r: dataclasses.replace(r, gap=Fraction(1, 7)))
    _plant(monkeypatch, "brute_force_wasserstein", lambda w: w + 1, at=(1,))
    result = criterion_9(seed=0)
    assert not result.passed
    assert result.detail == ("cycle:5 v0-v1,v0-v4: exact gap 1/7; "
                             "cycle:5 v0-v1,v1-v2: solver 1 != oracle 2")


def test_criterion_9_checks_the_tables_kappa_against_the_oracle(monkeypatch):
    # the table takes an exact pair's kappa from its residual LP, not from
    # the full solve the criterion compares: a kappa off on the second pair
    # is named there
    _plant(monkeypatch, "ricci", lambda kappa: kappa + Fraction(1, 100), at=(1,))
    result = criterion_9(seed=0)
    assert not result.passed
    assert result.detail == "cycle:5 v0-v1,v1-v2: kappa 1/100 != 1 - oracle / d = 0"


def test_criterion_9_compares_every_pair_with_the_oracle():
    # seed 4's corpus has five pairs with 5 atoms a side, past the size the
    # oracle once reached; each of its 101 pairs is compared all the same
    assert criterion_9(seed=4).detail == "101 gaps closed, 101 oracle comparisons agree"


def test_criterion_9_solves_each_problem_it_builds_once_and_keeps_no_table(monkeypatch):
    built, solved = [], []
    build, solve = acceptance.pair_transport_problem, acceptance.solve_wasserstein
    monkeypatch.setattr(acceptance, "pair_transport_problem",
                        lambda g, e, f: built.append(build(g, e, f)) or built[-1])
    monkeypatch.setattr(acceptance, "solve_wasserstein",
                        lambda problem: solved.append(problem) or solve(problem))
    monkeypatch.setattr(acceptance, "ricci_all_adjacent", None)
    assert criterion_9(seed=0).passed
    assert len(built) > 0 and list(map(id, solved)) == list(map(id, built))


def test_criterion_11_names_each_way_a_weighted_bound_can_fail(monkeypatch):
    # complete:4 at (1, 1/4) is reported inapplicable and at (2, 0.5) as
    # failing; complete:5's gap at (1, 1/6) is off the unweighted one; and
    # star:5 reads as not edge-regular, the fourth failure
    check = "check_weighted_spectral_gap_bound"
    _plant(monkeypatch, check, lambda c: dataclasses.replace(c, applicable=False,
                                                             reason="planted"))
    _plant(monkeypatch, check, lambda c: dataclasses.replace(c, holds=False), at=(1,))
    _plant(monkeypatch, check, lambda c: dataclasses.replace(c, lhs=c.lhs + 0.5), at=(3,))
    _plant(monkeypatch, "edge_regularity", lambda d: None, at=(3,))
    result = criterion_11(seed=0)
    assert not result.passed
    assert result.detail == (
        "complete:4 (w0=1.0, w1=0.25): inapplicable: planted; "
        "complete:4 (w0=2.0, w1=0.5): lhs 0.9999999999999992 rhs 0.0; "
        "complete:5: (1, 1/d) does not reduce to the unweighted bound: "
        "1.3333333333333333/-0.16666666666666666 vs 0.8333333333333333/-0.16666666666666666"
        " (+1 more)")


def test_a_criterion_that_raises_fails_alone(monkeypatch):
    def passing(number):
        return lambda seed: acceptance.CriterionResult(number, "", True, f"seed {seed}")

    def crash(seed):
        return 1 / 0

    monkeypatch.setattr(acceptance, "_CRITERIA", (passing(1), crash, passing(3)))
    results = run_all(seed=4)
    assert [(r.number, r.passed, r.detail) for r in results] == [
        (1, True, "seed 4"), (2, False, "raised ZeroDivisionError: division by zero"),
        (3, True, "seed 4")]
    assert results[1].title == acceptance._TITLES[2]
