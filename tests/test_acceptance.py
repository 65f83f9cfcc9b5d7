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
from fractions import Fraction

import pytest

from edge_ricci import acceptance, curvature
from edge_ricci.acceptance import criterion_2, criterion_5, criterion_7, run_all
from edge_ricci.curvature import adjacent_minimum, edges_adjacent
from edge_ricci.graph_core import generate


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
        cp = ricci(g, e, f)
        if g == target and (e, f) == pair:
            return dataclasses.replace(cp, kappa=kmin - Fraction(1, 100))
        return cp

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
        cp = ricci(g, e, f)
        if g == target and (e, f) == pair:
            return dataclasses.replace(cp, kappa=Fraction(-1, 100))
        return cp

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
