"""Transport solver tests.

The transportation simplex is the oracle here: it pivots from basis to basis
of the balanced transport polytope under Bland's rule, which ends at an
optimal basis, and shares no code with the solver.  The solver must agree
with it exactly in rational mode and to 1e-12 relative in float mode.
"""

import ast
import inspect
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, strategies as st

from edge_ricci import cli, transport
from edge_ricci.curvature import (
    edges_adjacent,
    pair_transport_problem,
    ricci,
    ricci_all_adjacent,
    transport_for_pair,
)
from edge_ricci.edge_geometry import EdgeMeasure, edge_measure
from edge_ricci.errors import MassImbalanceError, MissingPotentialError, TransportError
from edge_ricci.graph_core import WeightedGraph, generate
from edge_ricci.rng import SplitMix64
from edge_ricci.transport import (
    TransportProblem,
    brute_force_wasserstein,
    dual_objective,
    lipschitz_excess,
    residual_cost,
    solve_wasserstein,
    verify_coupling,
)


def _block(atoms, cost):
    """atoms and their cost rows, whose entries are cost(a, b): the last two
    arguments of a TransportProblem."""
    return atoms, tuple(tuple(cost(a, b) for b in atoms) for a in atoms)


def _cost(problem, a, b):
    """The problem's cost from atom a to atom b."""
    position = problem.position
    return problem.rows[position[a]][position[b]]


def _table(measure):
    """The measure's mass by atom."""
    return dict(zip(measure.atoms, measure.masses))


def _problem(mu_masses, nu_masses, mu_atoms, nu_atoms):
    exact = isinstance(mu_masses[0], Fraction)
    atoms = tuple(sorted(set(mu_atoms) | set(nu_atoms)))
    return TransportProblem(
        EdgeMeasure(0, tuple(mu_atoms), tuple(mu_masses)),
        EdgeMeasure(1, tuple(nu_atoms), tuple(nu_masses)),
        *_block(atoms, lambda a, b: abs(a - b) if exact else float(abs(a - b))),
    )


def test_point_masses_move_the_whole_unit():
    p = _problem((Fraction(1),), (Fraction(1),), (0,), (5,))
    r = solve_wasserstein(p)
    assert r.distance == 5 and type(r.distance) is Fraction and r.gap == 0
    assert r.plan == ((0, 5, Fraction(1)),)


def test_identical_measures_cost_nothing():
    p = _problem((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)),
                 (2, 7), (2, 7))
    r = solve_wasserstein(p)
    assert r.distance == 0 and r.gap == 0
    # nothing is left after the common mass is cancelled: the plan is the
    # diagonal, in units of 1/2, and the certificate is still defined on
    # the whole support
    assert r.scale == p.scale == 2
    assert r.plan == ((2, 2, 1), (7, 7, 1))
    assert verify_coupling(p, r.plan) == ()
    assert lipschitz_excess(p, r.dual) <= 0
    assert set(r.dual) == {2, 7}


def test_triangle_adjacent_pair_costs_one_half():
    # K3: each edge spreads 1/2 on each neighbor; optimal plan leaves the
    # shared 1/2 in place and moves the other 1/2 across distance 1
    g = generate("complete:3")
    p = pair_transport_problem(g, 0, 1)
    r = solve_wasserstein(p)
    assert r.distance == Fraction(1, 2)
    assert brute_force_wasserstein(p) == Fraction(1, 2)


def test_split_is_cheaper_than_greedy():
    # one unit at 0 must split toward {1, 3}; greedy single-sink routing
    # would pay 3, the optimum pays 1/2 + 3/2
    p = _problem((Fraction(1),), (Fraction(1, 2), Fraction(1, 2)), (0,), (1, 3))
    r = solve_wasserstein(p)
    assert r.distance == Fraction(2)
    assert brute_force_wasserstein(p) == Fraction(2)


def _two_valued(atoms, tight):
    """Cost 1 on the unordered pairs in tight, 2 between other distinct atoms:
    a metric, since any two costs sum to at least the third."""
    return _block(atoms, lambda a, b: 0 if a == b else 1 if {a, b} in tight else 2)


def test_phase_search_passes_a_dead_branch_and_a_zero_cost_cycle():
    # Sources 0-3 and sinks 4-7 carry 1/4 each.  Every sink's least cost is
    # 1, so the arcs of cost 1 are the tight ones of the column-reduced
    # start.  The first phase's one-arc paths ship 0->4, 1->5 and 3->7,
    # which leaves source 2 with supply and sink 6 with demand.  The search
    # from 2 first takes 4 into the dead branch 4->0->7->3, which closes the
    # zero-cost cycle 0->7->3->4->0 (forward arcs 0-7 and 3-4, flow on 0-4
    # and 3-7), and only then finds the live path 2->5->1->6.
    tight = [{0, 4}, {0, 7}, {1, 5}, {1, 6}, {2, 4}, {2, 5}, {3, 4}, {3, 7}]
    quarter = (Fraction(1, 4),) * 4
    p = TransportProblem(EdgeMeasure(0, (0, 1, 2, 3), quarter),
                         EdgeMeasure(1, (4, 5, 6, 7), quarter),
                         *_two_valued(tuple(range(8)), tight))
    r = solve_wasserstein(p)
    assert r.distance == brute_force_wasserstein(p) == 1
    assert r.plan == ((0, 4, 1), (1, 6, 1), (2, 5, 1), (3, 7, 1))
    assert verify_coupling(p, r.plan) == ()


def test_column_reduced_start_needs_no_dual_step_when_the_column_minima_match(monkeypatch):
    # Sources at 0, 10 and 20, sinks at 1, 11.5 and 22, 1/3 each: every
    # sink's least cost is from the source beside it, so the start makes
    # the diagonal tight and the first phase ships it all.  A full solve
    # slices twice, the residual costs and then the envelope block, and once
    # more per dual step, so two calls mean no dual step.
    calls, slicer = [], transport.slicer

    def counting(positions):
        calls.append(positions)
        return slicer(positions)

    x = (0.0, 10.0, 20.0, 1.0, 11.5, 22.0)
    third = (1 / 3,) * 3
    p = TransportProblem(EdgeMeasure(0, (0, 1, 2), third), EdgeMeasure(1, (3, 4, 5), third),
                         *_block(tuple(range(6)), lambda a, b: abs(x[a] - x[b])))
    monkeypatch.setattr(transport, "slicer", counting)
    r = solve_wasserstein(p)
    assert len(calls) == 2
    assert [(a, b) for a, b, _ in r.plan] == [(0, 3), (1, 4), (2, 5)]
    assert r.distance == pytest.approx(1.5, rel=1e-15)


def test_a_float_solve_that_never_drains_stops_at_the_budget(monkeypatch):
    # A negative tightness threshold leaves no arc tight, so no phase ships
    # and the dual steps run the budget out: the solve raises instead of
    # spinning.
    monkeypatch.setattr(transport, "_FLOAT_EPS_TIGHT", -1.0)
    p = _problem((0.5, 0.5), (0.5, 0.5), (0, 1), (2, 3))
    with pytest.raises(TransportError) as exc:
        solve_wasserstein(p)
    assert str(exc.value) == ("transport for pair (0,1) over 2x2 atoms, residual 2x2: "
                              "augmentation budget exhausted; instance does not drain")


def test_a_residual_with_one_sink_and_no_source_keeps_its_potentials():
    # After the common mass is cancelled, the two sources are left with
    # 0.9e-15 each, below the dust, while the sink at 2 keeps twice that:
    # the residual is 0x1.  The column-reduced start has no column minimum
    # to take there and must leave the sink's potential in place.
    a = 0.5 - 0.9e-15
    p = _problem((0.5, 0.5), (a, a, 1 - 2 * a), (0, 1), (0, 1, 2))
    r = solve_wasserstein(p)
    assert r.distance == 0
    assert r.plan == ((0, 0, a), (1, 1, a))
    assert verify_coupling(p, r.plan) == ()


@given(st.data())
def test_solver_matches_brute_force_on_two_valued_costs(data):
    # costs of 1 and 2 tie often, so phases see many tight paths, dead
    # branches and zero-cost cycles
    s = data.draw(st.integers(1, 5))
    t = data.draw(st.integers(1, 5))
    atoms = tuple(range(s + t))
    pairs = [{a, b} for a in atoms for b in atoms if a < b]
    tight = data.draw(st.lists(st.sampled_from(pairs), unique_by=frozenset))
    masses = []
    for n in (s, t):
        weights = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        masses.append(tuple(Fraction(w, sum(weights)) for w in weights))
    p = TransportProblem(EdgeMeasure(0, atoms[:s], masses[0]),
                         EdgeMeasure(1, atoms[s:], masses[1]), *_two_valued(atoms, tight))
    r = solve_wasserstein(p)
    assert r.distance == brute_force_wasserstein(p)
    assert verify_coupling(p, r.plan) == ()


def _uniform(s, t):
    """s atoms against t others on a line, each side at uniform mass."""
    return _problem((Fraction(1, s),) * s, (Fraction(1, t),) * t,
                    range(s), range(s, s + t))


def test_oracle_answers_six_atoms_against_one():
    p = _uniform(6, 1)
    assert brute_force_wasserstein(p) == solve_wasserstein(p).distance == Fraction(7, 2)


def _scrambled_line(s, t):
    """s atoms against t others at the points 0..s+t-1 of a line, masses
    rising with the label on one side and falling on the other, and their
    distance from the two CDFs: the sum over unit gaps of |F_mu - F_nu|.

    The points are the labels in a scrambled order, so the northwest
    corner, which pairs the atoms in label order, is in general not the
    monotone coupling, and the oracle pivots on most shapes (12 times at
    6x6).
    """
    n = s + t
    rank = sorted(range(n), key=lambda a: a * 0.618 % 1)  # the atom at each point
    point = {a: x for x, a in enumerate(rank)}
    mu = [Fraction(2 * (k + 1), s * (s + 1)) for k in range(s)]
    nu = [Fraction(2 * (t - k), t * (t + 1)) for k in range(t)]
    problem = TransportProblem(
        EdgeMeasure(0, tuple(range(s)), tuple(mu)), EdgeMeasure(1, tuple(range(s, n)), tuple(nu)),
        *_block(tuple(range(n)), lambda a, b: abs(point[a] - point[b])))
    mass = mu + [-m for m in nu]
    cdf_gap = distance = 0
    for a in rank[:-1]:
        cdf_gap += mass[a]
        distance += abs(cdf_gap)
    return problem, distance


@pytest.mark.parametrize("s,t", [*((s, t) for s in range(1, 5) for t in range(1, 5)),
                                 (1, 6), (6, 1), (5, 5), (6, 6)])
def test_oracle_matches_the_line_distance_on_every_shape(s, t):
    problem, distance = _scrambled_line(s, t)
    bf = brute_force_wasserstein(problem)
    assert type(bf) is Fraction
    assert bf == distance == solve_wasserstein(problem).distance


def test_oracle_raises_once_its_pivot_budget_is_spent(monkeypatch):
    # a negative threshold lets an arc of positive reduced cost enter, so
    # the pivots never stop; 4x4 atoms allow 4 * 4 * 8 of them
    p = _as_float(pair_transport_problem(generate("complete:4"), 0, 1))
    assert brute_force_wasserstein(p) == solve_wasserstein(p).distance
    monkeypatch.setattr(transport, "_ORACLE_EPS", -1.0)
    with pytest.raises(TransportError, match=r"oracle for pair \(0,1\) over 4x4 atoms: "
                                             r"no optimal basis after 128 pivots"):
        brute_force_wasserstein(p)


def test_mass_imbalance_is_rejected():
    # each side passes the per-measure sum check (within 1e-12 of 1) but the
    # two sides disagree by ~2e-12, which the problem-level guard must catch
    with pytest.raises(MassImbalanceError):
        TransportProblem(
            EdgeMeasure(0, (0,), (1.0 + 9.9e-13,)),
            EdgeMeasure(1, (1,), (1.0 - 9.9e-13,)),
            *_block((0, 1), lambda a, b: float(abs(a - b))),
        )
    with pytest.raises(ValueError):
        EdgeMeasure(1, (1, 2), (Fraction(1, 2), Fraction(1, 4)))


def _point_pair(rows, atoms=(0, 1), masses=(Fraction(1), Fraction(1))):
    """Unit point masses at atoms 0 and 1, with cost rows over atoms."""
    return TransportProblem(EdgeMeasure(0, (0,), masses[:1]),
                            EdgeMeasure(1, (1,), masses[1:]), atoms, rows)


def test_cost_table_must_cover_joint_support():
    # the atoms must be the sorted joint support (0, 1), whatever the rows
    # hold
    for atoms in ((0,), (1, 0), (0, 1, 2), (0, 2)):
        rows = tuple(tuple(int(a != b) for b in atoms) for a in atoms)
        with pytest.raises(TransportError, match=r"not the joint support \(0, 1\)"):
            _point_pair(rows, atoms)
    with pytest.raises(TransportError, match=r"negative cost -1 for pair \(0, 1\)"):
        _point_pair(((0, -1), (1, 0)))


def test_a_short_or_ragged_row_names_its_atom():
    for rows, atom in ((((0, 1), (1,)), 1),        # short row
                       (((0, 1, 1), (1, 0)), 0),   # long row
                       (((0,), (1, 0)), 0)):       # short leading row
        with pytest.raises(TransportError, match=rf"cost row of atom {atom} has"):
            _point_pair(rows)
    with pytest.raises(TransportError, match="1 rows for 2 atoms"):
        _point_pair(((0, 1),))


_ONE = (Fraction(1), Fraction(1))


@pytest.mark.parametrize("rows, atoms, masses, fragment", [
    (((0, 1), (1, 0)), (0, 2), _ONE, "not the joint support"),
    (((0, 1),), (0, 1), _ONE, "1 rows for 2 atoms"),
    (((0, 1), (1,)), (0, 1), _ONE, "cost row of atom 1 has 1 entries"),
    (((0, 1), (1, 2)), (0, 1), _ONE, "nonzero self cost 2 at atom 1"),
    (((0, -1), (1, 0)), (0, 1), _ONE, r"negative cost -1 for pair \(0, 1\)"),
    # each side is within 1e-12 of 1, and the two differ by about 2e-12
    (((0.0, 1.0), (1.0, 0.0)), (0, 1), (1 + 9.9e-13, 1 - 9.9e-13), "supply .* != demand"),
])
def test_problem_errors_name_the_edge_pair_and_the_atom_counts(rows, atoms, masses, fragment):
    # as the solver's own errors do: owners 0 and 1, one atom a side
    with pytest.raises(TransportError,
                       match=r"^transport for pair \(0,1\) over 1x1 atoms: .*" + fragment):
        _point_pair(rows, atoms, masses)


def test_a_finite_block_whose_sum_overflows_is_valid():
    # every entry is finite; only the sum of the whole block reaches inf
    p = _point_pair(((0.0, 1e308), (1e308, 0.0)), masses=(1.0, 1.0))
    assert not p.exact


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_costs_are_rejected(bad):
    with pytest.raises(TransportError, match=r"non-finite cost .* \(1, 0\)"):
        _point_pair(((0.0, 1.0), (bad, 0.0)), masses=(1.0, 1.0))


@pytest.mark.parametrize("at", [1, 2, 3])
def test_nan_past_the_first_entry_of_a_row_is_rejected(at):
    # min() keeps its first value against a NaN, so a row guard built on
    # min and max alone passes these rows
    rows = [[float(abs(a - b)) for b in range(4)] for a in range(4)]
    rows[0][at] = math.nan
    with pytest.raises(TransportError, match=rf"non-finite cost nan for pair \(0, {at}\)"):
        TransportProblem(EdgeMeasure(0, (0, 1), (0.5, 0.5)),
                         EdgeMeasure(1, (2, 3), (0.5, 0.5)),
                         (0, 1, 2, 3), tuple(map(tuple, rows)))


def test_problem_records_its_units():
    # exact: masses become integers over the LCM of their denominators
    p = _problem((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)),
                 (0, 1), (1, 2))
    assert p.exact and p.scale == 6
    assert p.supply == {0: 3, 1: 3} and p.demand == {1: 2, 2: 4}
    assert all(type(m) is int for m in (*p.supply.values(), *p.demand.values()))
    # float: unit scale, the masses as floats
    p = _problem((0.25, 0.75), (1.0,), (0, 1), (2,))
    assert not p.exact and p.scale == 1
    assert p.supply == {0: 0.25, 1: 0.75} and p.demand == {2: 1.0}
    assert all(type(m) is float for m in (*p.supply.values(), *p.demand.values()))


def test_verify_coupling_reads_amounts_in_the_problems_units():
    # the problem's units are halves (scale 2), so each atom holds 1; a
    # coupling that splits each half into 1/3 + 1/6 gives those amounts
    # times 2, and need not be in whole units to pass
    p = _problem((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)),
                 (0, 1), (2, 3))
    two_thirds, third = Fraction(2, 3), Fraction(1, 3)
    split = ((0, 2, two_thirds), (0, 3, third), (1, 2, third), (1, 3, two_thirds))
    assert verify_coupling(p, split) == ()
    # the same plan as masses holds half of each row and column
    masses = tuple((a, b, x / p.scale) for a, b, x in split)
    assert verify_coupling(p, masses) == ("row 0: amount 1/2 != mu 1",
                                          "column 2: amount 1/2 != nu 1")


def test_verify_coupling_names_a_negative_amount():
    # K4, edges v0-v1 and v0-v2 (scale 4): the exact optimal plan with one
    # unit turned round the cycle 1 -> 0, 1 -> 5, 4 -> 5, 4 -> 0, which keeps
    # every row and column sum and leaves two amounts at -1
    p = pair_transport_problem(generate("complete:4"), 0, 1)
    plan = ((1, 0, 2), (1, 5, -1), (2, 2, 1), (3, 3, 1), (4, 0, -1), (4, 5, 2))
    assert verify_coupling(p, plan) == ("plan entry (1, 5, -1) has a negative amount",
                                        "plan entry (4, 0, -1) has a negative amount")


def test_verify_coupling_flags_corruption():
    p = _problem((Fraction(1, 2), Fraction(1, 2)), (Fraction(1),), (0, 1), (2,))
    r = solve_wasserstein(p)
    assert verify_coupling(p, r.plan) == ()
    # move some mass to the wrong row
    bad = ((0, 2, Fraction(3, 4)), (1, 2, Fraction(1, 4)))
    violations = verify_coupling(p, bad)
    assert violations and "row" in violations[0]
    assert verify_coupling(p, ((9, 2, Fraction(1)),))
    assert verify_coupling(p, ((0, 9, Fraction(1)),))[0] == "plan column 9 is outside supp(nu)"


def test_dual_certificate_is_lipschitz_and_tight():
    g = generate("cycle:5")
    p = pair_transport_problem(g, 0, 1)
    r = solve_wasserstein(p)
    assert lipschitz_excess(p, r.dual) <= 0
    assert dual_objective(p, r.dual) == r.distance


@st.composite
def exact_instances(draw):
    s = draw(st.integers(1, 4))
    t = draw(st.integers(1, 4))
    atoms = draw(st.lists(st.integers(0, 9), min_size=s + t, max_size=s + t,
                          unique=True))
    weights = [draw(st.integers(1, 6)) for _ in range(s)]
    total = sum(weights)
    mu = tuple(Fraction(w, total) for w in weights)
    weights = [draw(st.integers(1, 6)) for _ in range(t)]
    total = sum(weights)
    nu = tuple(Fraction(w, total) for w in weights)
    return _problem(mu, nu, atoms[:s], atoms[s:])


@st.composite
def overlapping_instances(draw, exact=True):
    """Supports that share atoms, up to full overlap with different masses."""
    shared = draw(st.integers(1, 4))
    only_mu = draw(st.integers(0, 4 - shared))
    only_nu = draw(st.integers(0, 4 - shared))
    atoms = draw(st.lists(st.integers(0, 9), min_size=shared + only_mu + only_nu,
                          max_size=shared + only_mu + only_nu, unique=True))
    mu_atoms = atoms[:shared] + atoms[shared:shared + only_mu]
    nu_atoms = atoms[:shared] + atoms[shared + only_mu:]
    masses = []
    for side in (mu_atoms, nu_atoms):
        weights = [draw(st.integers(1, 6)) for _ in side]
        total = sum(weights)
        masses.append(tuple(Fraction(w, total) if exact else w / total
                            for w in weights))
    # shuffle so shared atoms do not always come first
    order = draw(st.permutations(range(len(mu_atoms))))
    mu_atoms = [mu_atoms[k] for k in order]
    mu = tuple(masses[0][k] for k in order)
    return _problem(mu, masses[1], mu_atoms, nu_atoms)


@given(exact_instances())
def test_solver_matches_brute_force(problem):
    r = solve_wasserstein(problem)
    assert r.gap == 0
    assert r.distance == brute_force_wasserstein(problem)
    assert verify_coupling(problem, r.plan) == ()
    assert lipschitz_excess(problem, r.dual) <= 0


@given(overlapping_instances())
def test_solver_matches_brute_force_on_overlapping_supports(problem):
    r = solve_wasserstein(problem)
    assert r.distance == brute_force_wasserstein(problem)
    assert r.gap == 0
    assert verify_coupling(problem, r.plan) == ()
    assert lipschitz_excess(problem, r.dual) <= 0


@given(overlapping_instances(exact=False))
def test_float_solver_matches_brute_force_on_overlapping_supports(problem):
    r = solve_wasserstein(problem)
    assert type(r.distance) is float
    assert r.distance == pytest.approx(brute_force_wasserstein(problem),
                                       rel=1e-12, abs=1e-12)
    assert abs(r.gap) <= 1e-9
    assert verify_coupling(problem, r.plan) == ()
    assert lipschitz_excess(problem, r.dual) <= 1e-12


@st.composite
def metric_instances(draw, exact):
    """Two measures on a shortest-path metric of up to 12 points.

    The points lie on a path, plus random chords, with integer edge lengths
    (exact) or float ones in [0.5, 2]; the supports are random and may
    overlap, up to both taking every point, and so are the masses.
    """
    n = draw(st.integers(2, 12))
    length = st.integers(1, 4) if exact else st.floats(0.5, 2)
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2 * n))
    d = [[0 if a == b else math.inf for b in range(n)] for a in range(n)]
    for a, b in [(a, a + 1) for a in range(n - 1)] + chords:
        if a != b:
            d[a][b] = d[b][a] = min(d[a][b], draw(length))
    for k in range(n):
        for a in range(n):
            for b in range(n):
                d[a][b] = min(d[a][b], d[a][k] + d[k][b])
    measures = []
    for owner in (0, 1):
        atoms = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        weights = draw(st.lists(st.integers(1, 6), min_size=len(atoms), max_size=len(atoms)))
        total = sum(weights)
        measures.append(EdgeMeasure(owner, tuple(atoms), tuple(
            Fraction(w, total) if exact else w / total for w in weights)))
    joint = tuple(sorted(set(measures[0].atoms) | set(measures[1].atoms)))
    return TransportProblem(*measures, *_block(joint, lambda a, b: d[a][b]))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@given(st.data())
def test_solver_equals_the_oracle_on_metric_instances(exact, data):
    problem = data.draw(metric_instances(exact))
    bf = brute_force_wasserstein(problem)
    distance = solve_wasserstein(problem).distance
    assert problem.exact == exact and type(bf) is type(distance)
    if exact:
        assert bf == distance
    else:
        assert bf == pytest.approx(distance, rel=1e-12, abs=1e-12)


_SOLVER_NAMES = {"solve_wasserstein", "verify_coupling", "dual_objective",
                 "lipschitz_excess", "slicer", "_instance",
                 "_FLOAT_EPS_TIGHT", "_FLOAT_EPS_CS", "_FLOAT_EPS_GAP", "_FLOAT_DUST"}
_PROBLEM_UNITS = {"supply", "demand", "scale", "exact", "certified"}
_PROBLEM_INPUTS = {"rows", "position", "mu", "nu"}


def test_oracle_shares_no_code_with_the_solver():
    # the oracle's functions name no solver function or threshold, read of
    # the problem only its measures and cost rows, and none of the units it
    # fixes for the solver; they call only each other
    tree = ast.parse(inspect.getsource(transport))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    oracle = {"_basis_tree", "brute_force_wasserstein"}
    assert oracle <= functions.keys()
    for name in oracle:
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                assert node.id not in _SOLVER_NAMES, (name, node.id)
                assert node.id in oracle or node.id not in functions, (name, node.id)
            elif isinstance(node, ast.Attribute):
                assert node.attr not in _SOLVER_NAMES | _PROBLEM_UNITS, (name, node.attr)
                if isinstance(node.value, ast.Name) and node.value.id == "problem":
                    assert node.attr in _PROBLEM_INPUTS, (name, node.attr)


@st.composite
def dual_instances(draw):
    """A problem whose cost table may be asymmetric, and any potential."""
    atoms = draw(st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True))
    cut = draw(st.integers(1, len(atoms)))
    mu_atoms, nu_atoms = atoms[:cut], atoms[cut - 1:]
    masses = []
    for side in (mu_atoms, nu_atoms):
        weights = [draw(st.integers(1, 6)) for _ in side]
        masses.append(tuple(Fraction(w, sum(weights)) for w in weights))
    joint = tuple(sorted(atoms))
    cost = _block(joint, lambda a, b: 0 if a == b else draw(st.integers(0, 7)))
    problem = TransportProblem(EdgeMeasure(0, tuple(mu_atoms), masses[0]),
                               EdgeMeasure(1, tuple(nu_atoms), masses[1]), *cost)
    f = {a: draw(st.integers(-8, 8)) for a in atoms}
    return problem, f


@given(dual_instances())
def test_certificate_walks_match_both_orders(instance):
    problem, f = instance
    joint = sorted(f)
    both_orders = [abs(f[a] - f[b]) - _cost(problem, a, b)
                   for a in joint for b in joint if a != b]
    assert lipschitz_excess(problem, f) == max(both_orders, default=0)
    mu, nu = _table(problem.mu), _table(problem.nu)
    objective = dual_objective(problem, f)
    assert type(objective) is Fraction
    assert objective == sum(f[a] * (mu.get(a, 0) - nu.get(a, 0)) for a in joint)
    assert problem.exact and problem.atoms == tuple(joint)


@pytest.mark.parametrize("check", [lipschitz_excess, dual_objective])
def test_a_potential_missing_an_atom_is_rejected(check):
    p = _problem((Fraction(1),), (Fraction(1),), (0,), (5,))
    with pytest.raises(MissingPotentialError, match="atom 5"):
        check(p, {0: 0})


def test_full_overlap_with_different_masses_moves_only_the_difference():
    # mu = (1/2, 1/4, 1/4), nu = (1/4, 1/4, 1/2) on atoms 0, 1, 2: a quarter
    # stays at 0, 1 and 2 each, and the last quarter travels 0 -> 2
    p = _problem((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                 (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)), (0, 1, 2), (0, 1, 2))
    r = solve_wasserstein(p)
    assert r.distance == Fraction(1, 2) == brute_force_wasserstein(p)
    # in units of 1/4
    assert r.scale == 4
    assert r.plan == ((0, 0, 1), (0, 2, 1), (1, 1, 1), (2, 2, 1))
    assert verify_coupling(p, r.plan) == ()


@given(st.integers(0, 500))
def test_float_route_certifies_itself(seed):
    rng = SplitMix64(seed)
    base = generate("random:6:0.5", seed=seed)
    wg = WeightedGraph(
        base,
        {v: 0.5 + 1.5 * rng.uniform() for v in base.labels},
        {base.edge_endpoints(e): 0.5 + 1.5 * rng.uniform()
         for e in range(base.n_edges)},
    )
    p = pair_transport_problem(wg, 0, 1)
    r = solve_wasserstein(p)
    assert type(r.distance) is float
    assert abs(r.gap) <= 1e-9
    bf = brute_force_wasserstein(p)
    assert r.distance == pytest.approx(bf, rel=1e-12, abs=1e-12)


@given(st.integers(0, 500), st.integers(4, 7), st.sampled_from((0.4, 0.7)), st.booleans())
def test_every_adjacent_plan_is_a_coupling_in_its_problems_units(seed, n, prob, weighted):
    g = generate(f"random:{n}:{prob}", seed=seed)
    if weighted:
        rng = SplitMix64(seed)
        g = WeightedGraph(g, {v: 0.5 + 1.5 * rng.uniform() for v in g.labels},
                          {g.edge_endpoints(e): 0.5 + 1.5 * rng.uniform()
                           for e in range(g.n_edges)})
    for e, f in ricci_all_adjacent(g):
        problem = pair_transport_problem(g, e, f)
        r = solve_wasserstein(problem)
        assert verify_coupling(problem, r.plan) == ()
        assert r.scale == problem.scale
        amounts = [x for _, _, x in r.plan]
        if weighted:
            assert not problem.exact and r.scale == 1
            assert math.isclose(sum(amounts), 1, abs_tol=1e-12)
        else:
            assert problem.exact and all(type(x) is int for x in amounts)
            assert sum(amounts) == r.scale


def _cancelled(problem):
    """The instance left after removing the common mass, rescaled to unit
    mass, and the mass left: W(problem) = left * W(instance).

    W depends only on mu - nu (Kantorovich-Rubinstein), and a transport
    cost scales with the mass moved.  Built here, not by the solver.
    """
    mu, nu = _table(problem.mu), _table(problem.nu)
    sides = [{a: m - nu.get(a, 0) for a, m in mu.items() if m > nu.get(a, 0)},
             {b: m - mu.get(b, 0) for b, m in nu.items() if m > mu.get(b, 0)}]
    left = sum(sides[0].values())
    mu, nu = (EdgeMeasure(k, tuple(side), tuple(m / left for m in side.values()))
              for k, side in enumerate(sides))
    joint = tuple(sorted(set(mu.atoms) | set(nu.atoms)))
    return TransportProblem(mu, nu, *_block(joint, lambda a, b: _cost(problem, a, b))), left


_WIDE_FAMILIES = ("random:7:0.5", "random:8:0.4", "random:8:0.5")


@st.composite
def wide_edge_pairs(draw):
    """An edge-pair problem of a seeded random graph with 5-6 atoms a side."""
    g = generate(draw(st.sampled_from(_WIDE_FAMILIES)), seed=draw(st.integers(0, 1000)))
    sizes = [len(edge_measure(g, e).atoms) for e in range(g.n_edges)]
    pairs = [(e, f) for e, f in combinations(range(g.n_edges), 2)
             if 5 <= sizes[e] <= 6 and 5 <= sizes[f] <= 6]
    assume(pairs)
    return pair_transport_problem(g, *draw(st.sampled_from(pairs)))


@given(wide_edge_pairs())
def test_solver_matches_the_oracle_on_wide_edge_pairs(problem):
    # few distinct costs, so many paths of reduced cost 0: the exact phases
    # do their work here
    r = solve_wasserstein(problem)
    instance, left = _cancelled(problem)
    assert r.distance == left * brute_force_wasserstein(instance)
    assert r.gap == 0
    assert verify_coupling(problem, r.plan) == ()


def _as_float(problem):
    """The same problem with float masses and float costs."""
    mu, nu = (EdgeMeasure(m.owner, m.atoms, tuple(map(float, m.masses)))
              for m in (problem.mu, problem.nu))
    return TransportProblem(mu, nu, *_block(problem.atoms,
                                            lambda a, b: float(_cost(problem, a, b))))


def _assert_optimal_by_weak_duality(problem, result):
    """Prove the exact plan optimal in Fractions, with no solver helper.

    The plan is a coupling of mu and nu, the dual is 1-Lipschitz on the
    cost block, and the plan's cost equals the dual objective: every
    coupling costs at least that objective (weak duality), so the plan's
    cost is the minimum.
    """
    atoms = problem.atoms
    mu, nu = _table(problem.mu), _table(problem.nu)
    rows, cols = dict.fromkeys(mu, Fraction(0)), dict.fromkeys(nu, Fraction(0))
    cost = Fraction(0)
    for a, b, amount in result.plan:
        x = Fraction(amount, result.scale)
        assert x > 0
        rows[a] += x
        cols[b] += x
        cost += x * _cost(problem, a, b)
    assert rows == mu and cols == nu
    f = {a: Fraction(result.dual[a]) for a in atoms}
    assert all(abs(f[a] - f[b]) <= _cost(problem, a, b) for a in atoms for b in atoms)
    assert cost == sum(f[a] * (mu.get(a, 0) - nu.get(a, 0)) for a in atoms)
    assert cost == result.distance


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_distances_match_float_runs_and_the_oracle(seed):
    # the dense shape, about 12 atoms a side: each exact plan is proved
    # optimal by its own dual, in test code.  Float mode runs the same loop,
    # so the float run checks that the two number types agree; the oracle,
    # a second algorithm, checks both
    g = generate("random:12:0.6", seed=seed)
    for e, f in combinations(range(g.n_edges), 2):
        if not edges_adjacent(g, e, f):
            continue
        p = pair_transport_problem(g, e, f)
        q = _as_float(p)
        assert p.exact and not q.exact
        exact = solve_wasserstein(p)
        _assert_optimal_by_weak_duality(p, exact)
        assert brute_force_wasserstein(p) == exact.distance
        float_run = solve_wasserstein(q).distance
        assert math.isclose(float_run, exact.distance, rel_tol=1e-12)
        assert math.isclose(brute_force_wasserstein(q), float_run, rel_tol=1e-12)


@pytest.mark.parametrize("family,seed", [("complete:6", 0), ("petersen", 0), ("tree:15", 0),
                                         ("random:12:0.6", 0), ("random:12:0.6", 1),
                                         ("random:12:0.6", 2)])
def test_certified_solves_return_a_1_lipschitz_dual(family, seed):
    # the solver takes the Lipschitz bound of an exact graph problem from
    # its certified metric and skips the walk; the walk, run here as an
    # oracle, finds no pair that breaks it
    g = generate(family, seed=seed)
    for (e, f) in ricci_all_adjacent(g):
        p = pair_transport_problem(g, e, f)
        assert p.exact and p.certified
        assert lipschitz_excess(p, solve_wasserstein(p).dual) <= 0


def test_symmetry_of_the_distance():
    g = generate("tree:9", seed=4)
    for e, f in ((0, 3), (1, 5), (2, 7)):
        a = solve_wasserstein(pair_transport_problem(g, e, f)).distance
        b = solve_wasserstein(pair_transport_problem(g, f, e)).distance
        assert a == b


_BROKEN_CHECKS = {
    # the solver checks its plan's marginals with the public verify_coupling
    "verify_coupling": lambda problem, plan: ("row 9: off",),
    "lipschitz_excess": lambda problem, dual: Fraction(1, 10**6),
    "dual_objective": lambda problem, dual: 0,
}


@pytest.mark.parametrize("name", sorted(_BROKEN_CHECKS))
def test_certificate_failure_names_the_pair_and_the_size(monkeypatch, name):
    # K4, edges v0-v1 and v0-v2: four atoms a side, two of them shared, so the
    # residual instance is 2x2; every half of the certificate is the solver's.
    # A graph's exact problem takes the Lipschitz bound from its certified
    # metric, so the walk is broken on the same instance in floats
    p = pair_transport_problem(generate("complete:4"), 0, 1)
    if name == "lipschitz_excess":
        p = _as_float(p)
    solve_wasserstein(p)
    monkeypatch.setattr(transport, name, _BROKEN_CHECKS[name])
    with pytest.raises(TransportError, match=r"pair \(0,1\) over 4x4 atoms, residual 2x2"):
        solve_wasserstein(p)


def test_slackness_failure_names_the_pair_and_the_size(monkeypatch):
    # the same K4 instance in floats; source 0's potential raised by 1e-9
    # of the largest cost, after the loop, keeps every reduced cost >= 0 and
    # the gap below 1e-9 of it (source 0 holds less than a unit), but moves
    # its arcs that carry flow past the accepted 1e-10
    p = _as_float(pair_transport_problem(generate("complete:4"), 0, 1))
    solve_wasserstein(p)
    loop = transport._primal_dual

    def planted(*args):
        flow, phi = loop(*args)
        phi[0] += 1e-9 * p.largest_cost
        return flow, phi

    monkeypatch.setattr(transport, "_primal_dual", planted)
    with pytest.raises(TransportError, match=r"pair \(0,1\) over 4x4 atoms, residual 2x2: "
                                             r"complementary slackness violated on arc"):
        solve_wasserstein(p)


# K4, edges v0-v1 and v0-v2 as above, whose exact kappa comes from its 2x2
# residual of unit masses: what each residual check says of its plant
# (conftest.RESIDUAL_PLANTS)
_RESIDUAL_FAILURES = {
    "flow": "invalid flow: row sums [0, 2] for supply [1, 1], "
            "column sums [0, 2] for demand [1, 1]",
    "sign": "negative flow -1",
    "potential": "reduced cost -1 < 0 on arc (0,0)",
    "objective": "flow cost 2 != dual objective 1: complementary slackness violated "
                 "on arc (0,0): 1",
}
_K4_RESIDUAL = "transport for pair (0,1) over 4x4 atoms, residual 2x2: "


@pytest.mark.parametrize("kind, solve", [
    *(pytest.param(kind, ricci, id=kind) for kind in sorted(_RESIDUAL_FAILURES)),
    *(pytest.param(kind, transport_for_pair, id=f"{kind}-transport_for_pair")
      for kind in sorted(_RESIDUAL_FAILURES))])
def test_residual_certificate_failure_names_the_pair_and_the_size(plant_residual, kind, solve):
    # kappa and the full solve share the residual solve and its certificate,
    # so each plant fails both with the same message
    g = generate("complete:4")
    assert ricci(g, 0, 1) == Fraction(1, 2)
    plant_residual(kind)
    with pytest.raises(TransportError) as exc:
        solve(g, 0, 1)
    assert str(exc.value) == _K4_RESIDUAL + _RESIDUAL_FAILURES[kind]


@pytest.mark.parametrize("kind", sorted(_RESIDUAL_FAILURES))
def test_verify_on_a_planted_residual_exits_2_with_one_error_line(plant_residual, capsys, kind):
    plant_residual(kind)
    assert cli.run(["verify", "--family", "complete:4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: " + _K4_RESIDUAL + _RESIDUAL_FAILURES[kind]]


def test_the_residual_path_refuses_an_uncertified_problem():
    # a hand-built block need not be a metric, and W of the residual LP is
    # W of the problem only on a metric
    p = pair_transport_problem(generate("complete:4"), 0, 1)
    q = TransportProblem(p.mu, p.nu, p.atoms, p.rows)
    assert q.exact and not q.certified
    with pytest.raises(TransportError, match=r"pair \(0,1\) over 4x4 atoms: not certified"):
        residual_cost(q)
