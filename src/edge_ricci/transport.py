"""Exact 1-Wasserstein distance between edge measures.

The primal problem is the transportation LP over supp(mu) x supp(nu).  The
distance depends only on mu - nu (Kantorovich-Rubinstein duality), so the
common mass min(mu(a), nu(a)) at every shared atom stays where it is at zero
cost and is cancelled first.  The residual instance, whose two supports are
disjoint, is solved by the primal-dual method (Ahuja, Magnanti & Orlin,
Network Flows, 1993, ch. 9; Kuhn's Hungarian method, 1955) with node
potentials phi that keep every reduced cost c(u, v) + phi(u) - phi(v) >= 0.
The returned plan is the full optimal coupling of mu and nu: the residual
plan plus one diagonal (a, a, common) stay entry per shared atom, as a
sorted tuple of (source, sink, amount) entries in the problem's units.

The potentials start as the column-reduced dual of Kuhn's method: every
source at 0 and every sink at its least cost from any source.  Each reduced
cost is then a cost minus the least cost in its column, so it is >= 0 (a
feasible dual), and every sink has a tight arc before the first phase.
Then one loop serves both number types: a phase, then a dual step, until a
phase leaves no source with supply.  The phase ships along every residual
path of tight arcs.  It ships the one-arc paths directly, then searches
depth first from each source with supply left, with one arc iterator per
node.  It keeps a dead set, which later searches skip: every node reached
by a search that found no sink with open demand.  A dead node stays dead
for the whole phase.  It reaches no node of a path shipped later (such a
node would take it on to that path's open sink), and shipping adds reverse
arcs only among that path's nodes, so what it reaches never grows.  So the
dead set a phase returns, the reached set R, is exactly the set of nodes
that tight residual arcs reach from the sources with supply left.  Every
arc that leaves R runs from a source in R to a sink outside it and is not
tight: a backward arc carries flow, so its forward twin is tight and R
holds both ends.  The dual step takes delta, the least reduced cost over
those arcs, and adds it to the potential of every node outside R.  Arcs
inside R or outside it keep their reduced costs, arcs into R grow dearer,
and the arcs out of R fall by delta, so at least one of them turns tight.
Each step keeps the dual feasible whatever it started from, so the argument
below needs only a feasible start.

In exact mode an arc is tight when its reduced cost is 0, and the loop
ends: after a dual step the next phase reaches all of R again plus the sink
that turned tight, so unless that sink has open demand R grows by at least
one node.  At most S + T steps thus separate two phases that ship, for S
sources and T sinks, and each of those ships at least one unit (amounts
are positive integers).  In float mode an arc is tight when its reduced
cost is at most 1e-12 times the block's largest cost.  The potentials and
their rounding error scale with the costs, so an absolute threshold would
make the solver's choices depend on the unit of the weights; with this one,
scaling every vertex weight by a power of two scales every cost and every
threshold exactly, and changes no bit of the result.  A budget of
8 (S + 2)(T + 2) dual steps guards the loop in both number types, but only
float mode can reach it, where rounding could recycle residual arcs: past
it the solve raises instead of spinning.

A problem holds its costs as one row tuple per atom of the sorted joint
support, and ``position`` maps each atom to its row.  The solver's source
x sink matrix, the dual step, the dual envelope and the Lipschitz check
index the rows by position, never by an (a, b) key; the matrix, the dual
step and the envelope slice them in C, with edge_geometry.slicer.

A TransportProblem fixes its number domain once, when it is built, and
every later step reads it.  When both measures are exact rationals and the
costs are integers (the unweighted case) the problem's scale is the LCM of
the measures' own scales and its masses are the measures' integer units
rescaled to it, so the whole computation runs in integer arithmetic and the
distance, plan, and dual certificate are exact; a plan amount is the mass
times the scale, an int.  Otherwise the scale is 1 and the amounts are
binary64 masses, where supply, demand and flow at most 1e-15 count as
rounding noise.  The number type fixes only the zero, that noise, the
tightness threshold and the certificate tolerances; exact mode is the case
where all of them are 0.

The dual certificate is a single function f, a dict on the full joint
support with |f(a) - f(b)| <= d(a, b), built from the final potentials of
the residual sinks by the envelope f(a) = min_j (beta_j + d(a, j)); strong
duality makes its objective equal the primal cost.  The solver checks the
certificate on the uncancelled problem before it returns.  Every solve
checks complementary slackness on the residual arcs that carry flow, both
marginals of the full plan, and the duality gap.  The Lipschitz bound on f
is checked per solve, by walking unordered pairs, unless the problem is a
certified curvature.PairProblem.  Such a problem is exact and slices its
rows from an unweighted graph's edge space, whose vertex metric was
certified once per graph before any row was read (edge_geometry), so its
costs are a metric d.  The envelope of a metric is 1-Lipschitz: if j
attains f(b), then f(a) <= beta_j + d(a, j) <= beta_j + d(b, j) + d(a, b)
= f(b) + d(a, b) by the triangle inequality, and the same with a and b
swapped by symmetry.  So the walk would re-prove a lemma, and those solves
skip it.  Float problems keep the walk, since float metrics are not
certified.  In float mode the accepted slackness, Lipschitz and gap errors
are relative to the largest cost alone, as the tightness threshold is: the
rounding error of a reduced cost grows with the potentials, which reach
the largest cost, whatever the arc's own cost, and a floor of 1 would pass
any certificate below unit cost scale.  A failure raises TransportError
naming the edge pair and the instance size.  A hand-built problem's cost
rows are validated once, when it is built, in one pass in C; a
PairProblem's rows pass those checks by construction, so it skips them.
The dual objective is summed in the problem's units.  So are the plan's
marginals: the solver's marginal check is verify_coupling itself.

brute_force_wasserstein is the independent oracle used by the test suite
and the acceptance gate: the transportation simplex under Bland's rule, which
pivots from vertex to vertex of the transportation polytope (spanning trees
of the bipartite support graph) until no arc prices below its potentials, so
it answers every instance.  Exact instances pivot in scaled integers: the
oracle takes the LCM of the mass denominators itself, keeps its own float
threshold and pivot budget, and shares no code with the flow solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from operator import add, getitem, le, mul, sub
from typing import Mapping

from .edge_geometry import EdgeMeasure, slicer
from .errors import MassImbalanceError, MissingPotentialError, TransportError

# float mode; the first three are per unit of the largest cost, the last
# per unit of mass
_FLOAT_EPS_TIGHT = 1e-12  # an arc whose reduced cost is at most this is tight
_FLOAT_EPS_CS = 1e-10     # accepted complementary slackness error
_FLOAT_EPS_GAP = 1e-9     # accepted Lipschitz excess and duality gap
_FLOAT_DUST = 1e-15       # supply, demand and flow at most this are rounding noise


@dataclass(frozen=True)
class TransportProblem:
    """Measures plus the costs over their sorted joint support ``atoms``:
    rows[k][l] is the cost from atoms[k] to atoms[l].

    Construction validates the rows in one pass in C: atoms must be the
    sorted joint support (rows in another atom order would pass the other
    checks), there is one row per atom, each with one entry per atom,
    every atom costs 0 to itself, and every entry is finite and >= 0.  The
    same pass records whether every cost is an int, which with exact masses
    makes the problem exact.  Then it fixes the solver units: ``scale`` is
    the LCM of the measures' scales when exact and 1 otherwise, and the
    read-only ``supply`` and ``demand`` map each atom of mu and nu to its
    mass in those units (int when exact, float otherwise), whose totals must
    agree.  ``position`` maps each atom to its index in atoms and rows.
    ``certified`` is False: only a curvature.PairProblem, which slices its
    own rows from a certified metric, sets it.  Every error raised here names the
    edge pair and the atom counts.
    """

    mu: EdgeMeasure
    nu: EdgeMeasure
    atoms: tuple[int, ...]
    rows: tuple[tuple, ...]
    position: Mapping[int, int] = field(init=False, repr=False, compare=False)
    exact: bool = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)
    supply: Mapping[int, object] = field(init=False, repr=False, compare=False)
    demand: Mapping[int, object] = field(init=False, repr=False, compare=False)
    certified: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu, nu = self.mu, self.nu

        def invalid(what: str) -> TransportError:
            return TransportError(f"{_instance(mu, nu)}: {what}")

        joint = tuple(sorted(set(mu.atoms) | set(nu.atoms)))
        atoms, rows = self.atoms, self.rows
        if atoms != joint:
            raise invalid(f"cost block atoms {atoms} are not the joint support {joint}")
        n = len(joint)
        if len(rows) != n:
            raise invalid(f"cost block has {len(rows)} rows for {n} atoms")
        # The whole block is checked at once, in C: min() skips a NaN past
        # the first entry, but the sum carries it.  Only a block that fails
        # is walked row by row, to name its first bad entry; a finite block
        # whose sum overflows passes that walk.
        total = sum(map(sum, rows))
        if not (set(map(len, rows)) == {n} and not any(map(getitem, rows, range(n)))
                and min(map(min, rows)) >= 0 and total < math.inf):
            for k, (a, row) in enumerate(zip(joint, rows)):
                if len(row) != n:
                    raise invalid(f"cost row of atom {a} has {len(row)} entries, not {n}")
                if row[k] != 0:
                    raise invalid(f"nonzero self cost {row[k]} at atom {a}")
                for b, c in zip(joint, row):
                    if not 0 <= c < math.inf:
                        what = "negative" if c < 0 else "non-finite"
                        raise invalid(f"{what} cost {c} for pair {(a, b)}")
        # ints sum to an int; one float or Fraction makes the sum one too
        self._settle(mu.exact and nu.exact and type(total) is int, False)

    def _settle(self, exact: bool, certified: bool) -> None:
        """Set the solver units and the fields that hang on them."""
        mu, nu = self.mu, self.nu
        scale = math.lcm(mu.scale, nu.scale) if exact else 1

        def units(m: EdgeMeasure) -> dict:
            return dict(zip(m.atoms, map(mul, m.units, repeat(scale // m.scale)) if exact
                            else map(float, m.masses)))

        supply, demand = units(mu), units(nu)
        if abs(sum(supply.values()) - sum(demand.values())) > (0 if exact else 1e-12):
            raise MassImbalanceError(
                f"{_instance(mu, nu)}: supply {sum(mu.masses)} != demand {sum(nu.masses)}")
        object.__setattr__(self, "position", {a: k for k, a in enumerate(self.atoms)})
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "certified", certified)


def _instance(mu: EdgeMeasure, nu: EdgeMeasure) -> str:
    """How an error names a transport instance: edge pair and atom counts."""
    return (f"transport for pair ({mu.owner},{nu.owner}) over "
            f"{len(mu.atoms)}x{len(nu.atoms)} atoms")


@dataclass(frozen=True)
class TransportResult:
    """A transport whose certificate checked out, as plain values.

    plan: the optimal coupling's (source atom, sink atom, amount) entries,
    amount > 0, sorted by atom pair.  An amount is the mass times scale, the
    problem's scale: an int when exact, else the float mass (scale 1).
    dual: the Kantorovich potential f, a dict on the whole joint support,
    1-Lipschitz there.
    """

    distance: object          # Fraction (exact mode) or float
    plan: tuple[tuple[int, int, object], ...]
    scale: int
    dual: Mapping[int, object]
    gap: object               # primal cost minus dual objective


def solve_wasserstein(problem: TransportProblem) -> TransportResult:
    """Minimum-cost transport, returned only once its certificate checks out.

    The certificate tolerance is 0 in exact mode.  In float mode it is the
    largest cost times 1e-10 for complementary slackness and times 1e-9 for
    the Lipschitz bound and the duality gap.  A certified problem's
    Lipschitz bound is a lemma, not walked (module docstring).  Every
    TransportError raised here names the pair and the instance size.
    """
    exact, scale = problem.exact, problem.scale
    mu, nu = problem.mu, problem.nu
    rows, position = problem.rows, problem.position
    supply, demand = dict(problem.supply), dict(problem.demand)
    if exact:
        zero, dust, tight_tol, cs_tol, tol = 0, 0, 0, 0, 0
    else:
        # The potentials and their rounding error scale with the costs, and
        # so do the distance and its accepted error: the threshold and the
        # tolerances are relative to the largest cost.
        cmax = max(map(max, rows))
        zero, dust, tight_tol = 0.0, _FLOAT_DUST, _FLOAT_EPS_TIGHT * cmax
        cs_tol, tol = _FLOAT_EPS_CS * cmax, _FLOAT_EPS_GAP * cmax
        # The two float sums disagree by a few ulp; rescale demand so the
        # totals match exactly, otherwise the loop below chases the dust.
        fix = sum(supply.values()) / sum(demand.values())
        demand = {b: d * fix for b, d in demand.items()}

    # Mass both measures hold at an atom stays put at zero cost; only the
    # residual instance, whose two supports are disjoint, is solved.
    common = {a: min(supply[a], demand[a]) for a in supply.keys() & demand.keys()}
    for a, x in common.items():
        supply[a] -= x
        demand[a] -= x
    sources = [a for a in mu.atoms if supply[a] > dust]
    sinks = [b for b in nu.atoms if demand[b] > dust]
    supply = [supply[a] for a in sources]
    demand = [demand[b] for b in sinks]

    S, T = len(sources), len(sinks)

    def failure(what: str) -> TransportError:
        return TransportError(f"{_instance(mu, nu)}, residual {S}x{T}: {what}")

    pick = slicer([position[b] for b in sinks])  # a row's entries at the sinks
    cost = [pick(rows[position[a]]) for a in sources]
    flow = [[zero] * T for _ in range(S)]
    carriers = [set() for _ in range(T)]  # the sources with flow into each sink
    phi = [zero] * (S + T)  # node potentials; reduced cost c + phi[u] - phi[v] >= 0
    sink_nodes = range(S, S + T)

    def drain(i, j, amt):
        # take amt off source i's supply and sink j's demand; what is left
        # below the dust counts as 0
        supply[i] -= amt
        demand[j] -= amt
        if supply[i] <= dust:
            supply[i] = zero
        if demand[j] <= dust:
            demand[j] = zero

    def ship(parent, tgt):
        # walk the parent links back from sink tgt: each sink is entered by
        # a forward arc from a source, and each source but the root by a
        # backward arc from a sink, whose residual capacity is its flow
        fwd, back = [], []
        j = tgt
        while True:
            src = parent[S + j]
            fwd.append((src, j))
            if parent[src] is None:
                break
            j = parent[src] - S
            back.append((src, j))
        amt = min(supply[src], demand[tgt], *(flow[i][j] for i, j in back))
        for i, j in fwd:
            flow[i][j] += amt
            carriers[j].add(i)
        for i, j in back:
            flow[i][j] -= amt
            if flow[i][j] <= dust:
                flow[i][j] = zero
                carriers[j].discard(i)
        drain(src, tgt, amt)

    def search(r, tight, dead):
        # depth-first search from source r over tight residual arcs, one
        # arc iterator per node, for a sink with open demand: the search's
        # parent links and that sink, or None, and then every node it
        # reached joins dead
        parent = {r: None}
        stack = [(r, iter(tight[r]))]
        while stack:
            u, arcs = stack[-1]
            for v in arcs:
                if v in parent or v in dead:
                    continue
                parent[v] = u
                if v < S:
                    stack.append((v, iter(tight[v])))
                elif demand[v - S]:
                    return parent, v - S
                else:
                    stack.append((v, iter(carriers[v - S])))
                break
            else:
                stack.pop()
        dead.update(parent)
        return None

    def phase():
        # ship along every residual path of tight arcs, then return the dead
        # set: the nodes those arcs reach from the sources with supply left.
        # A forward arc is tight when its reduced cost is at most tight_tol;
        # backward arcs carry flow and so are tight by slackness.  One-arc
        # paths ship directly, longer ones by search.
        bound = [p + tight_tol for p in phi[S:]]
        tight = [list(compress(sink_nodes, map(le, map(add, row, repeat(phi[i])), bound)))
                 for i, row in enumerate(cost)]
        for i, arcs in enumerate(tight):
            for v in arcs:
                if not supply[i]:
                    break
                j = v - S
                if demand[j]:
                    amt = min(supply[i], demand[j])
                    flow[i][j] += amt
                    carriers[j].add(i)
                    drain(i, j, amt)
        dead = set()
        for r in range(S):
            while supply[r] and r not in dead and (found := search(r, tight, dead)):
                ship(*found)
        return dead

    # The primal-dual loop (see the module docstring): the column-reduced
    # start, a phase, then dual steps and phases until a phase leaves no
    # source with supply.  In float mode it also ends once no sink has
    # demand: supply left then is dust, which the marginal check bounds.
    # The budget counts dual steps.
    if S:  # with no source, zip(*cost) is empty and would shrink phi
        phi[S:] = map(min, zip(*cost))
    budget = (S + 2) * (T + 2) * 8
    reached = phase()
    while reached and any(demand):
        budget -= 1
        if budget < 0:
            raise failure("augmentation budget exhausted; instance does not drain")
        # the dual step: raise every node outside the reached set by delta,
        # the least reduced cost from a source in it to a sink outside it
        out = [j for j in range(T) if S + j not in reached]
        at_out, phi_out = slicer(out), [phi[S + j] for j in out]
        delta = min(min(map(sub, at_out(cost[i]), phi_out)) + phi[i]
                    for i in reached if i < S)
        for v in range(S + T):
            if v not in reached:
                phi[v] += delta
        reached = phase()

    # envelope dual certificate over the whole joint support:
    # f(a) = min_j (beta_j + d(a, sink_j)) over the residual sinks, and
    # f = 0 when mu = nu leaves nothing to ship
    beta = [-phi[S + j] for j in range(T)]
    dual = {a: min(map(add, beta, pick(row)), default=zero)
            for a, row in zip(problem.atoms, rows)}

    # the certificate: complementary slackness on the residual plan (whose
    # cost is summed on the way), then, on the uncancelled problem, plan
    # marginals in units, dual feasibility, and a closed duality gap.  The
    # full plan is one diagonal stay entry per shared atom plus the residual
    # flow; (source, sink) pairs are unique, so the sort compares no amounts.
    # Flows are 0 or positive, so compress visits the arcs that carry flow,
    # in the same source-major order as a walk over every arc.
    entries = [(a, a, x) for a, x in common.items()]
    total = zero
    for i, (out, c, a) in enumerate(zip(flow, cost, sources)):
        for j in compress(range(T), out):
            x = out[j]
            rc = c[j] + phi[i] - phi[S + j]
            if abs(rc) > cs_tol:
                raise failure(f"complementary slackness violated on arc ({i},{j}): {rc}")
            total += x * c[j]
            entries.append((a, sinks[j], x))
    plan = tuple(sorted(entries))
    violations = verify_coupling(problem, plan)
    if violations:
        raise failure(f"invalid plan: {violations[0]}")
    distance = Fraction(total, scale) if exact else total
    # the envelope of a metric is 1-Lipschitz, so a problem sliced from a
    # certified metric needs no walk (curvature.PairProblem)
    if not problem.certified:
        excess = lipschitz_excess(problem, dual)
        if excess > tol:
            raise failure(f"dual certificate breaks the Lipschitz bound by {excess}")
    gap = distance - dual_objective(problem, dual)
    if abs(gap) > tol:
        raise failure(f"duality gap {gap} exceeds {tol}")
    return TransportResult(distance, plan, scale, dual, gap)


def verify_coupling(problem: TransportProblem,
                    plan: tuple[tuple[int, int, object], ...]) -> tuple[str, ...]:
    """Recheck both marginals: the violations, empty for a coupling.

    Row and column sums of the plan against problem.supply and
    problem.demand, with tolerance 0 when exact and 1e-12 otherwise; names
    the first offending row and column.  The plan's amounts are in the
    problem's units, each mass times problem.scale, as the solver returns
    them.
    """
    mu, nu = problem.supply, problem.demand
    row = dict.fromkeys(mu, 0)
    col = dict.fromkeys(nu, 0)
    violations = []
    for a, b, amount in plan:
        if a not in row:
            violations.append(f"plan row {a} is outside supp(mu)")
            continue
        if b not in col:
            violations.append(f"plan column {b} is outside supp(nu)")
            continue
        row[a] += amount
        col[b] += amount
    tol = 0 if problem.exact else 1e-12
    for a, want in mu.items():
        if abs(row[a] - want) > tol:
            violations.append(f"row {a}: amount {row[a]} != mu {want}")
            break
    for b, want in nu.items():
        if abs(col[b] - want) > tol:
            violations.append(f"column {b}: amount {col[b]} != nu {want}")
            break
    return tuple(violations)


def dual_objective(problem: TransportProblem, dual: Mapping[int, object]) -> object:
    """sum f(a) (mu(a) - nu(a)) over the joint support.

    The sum runs in the problem's units, a left fold in joint-support order;
    in exact mode those are integers and the result is the sum over the
    scale.
    """
    joint = problem.atoms
    supply, demand = problem.supply, problem.demand
    total = 0
    for a, fa in zip(joint, _values_on(dual, joint)):
        total += fa * (supply.get(a, 0) - demand.get(a, 0))
    return Fraction(total, problem.scale) if problem.exact else total


def lipschitz_excess(problem: TransportProblem, dual: Mapping[int, object]) -> object:
    """max over joint pairs of |f(a) - f(b)| - d(a, b); feasible iff <= 0.

    Walks unordered pairs of block positions against the cheaper of the two
    orders, which gives the maximum over both orders without assuming the
    costs symmetric.
    """
    rows = problem.rows
    f = _values_on(dual, problem.atoms)
    worst = None
    for k, (fa, row) in enumerate(zip(f, rows)):
        for l in range(k + 1, len(f)):
            ab, ba = row[l], rows[l][k]
            excess = abs(fa - f[l]) - (ba if ba < ab else ab)
            if worst is None or excess > worst:
                worst = excess
    return worst if worst is not None else 0


def _values_on(dual: Mapping[int, object], joint: tuple[int, ...]) -> list:
    """The potential's values in joint-support order, once each atom has one."""
    for a in joint:
        if a not in dual:
            raise MissingPotentialError(f"potential undefined on atom {a}")
    return [dual[a] for a in joint]


# ------------------------------------------------------------------ oracle

# float mode, per unit of the largest cost: an arc whose reduced cost is at
# least minus this does not enter the basis
_ORACLE_EPS = 1e-12


def _basis_tree(basis, s: int, t: int, root: int) -> dict[int, object]:
    """Parent links of the basis tree rooted at node root, parents first.

    Nodes are 0..s-1 for sources and s..s+t-1 for sinks; an arc (i, j) of
    the basis joins node i and node s + j.
    """
    adjacent = [[] for _ in range(s + t)]
    for i, j in basis:
        adjacent[i].append(s + j)
        adjacent[s + j].append(i)
    parent, stack = {root: None}, [root]
    while stack:
        u = stack.pop()
        for w in adjacent[u]:
            if w not in parent:
                parent[w] = u
                stack.append(w)
    return parent


def brute_force_wasserstein(problem: TransportProblem) -> object:
    """Optimal cost by the transportation simplex (G. B. Dantzig, Linear
    Programming and Extensions, 1963, ch. 14-15) on the full K_{s,t}.

    The first basis is the northwest corner's staircase of s + t - 1 arcs.
    Each pivot sets potentials u_i + v_j = c_ij on the basis tree, enters
    the least arc (source-major) whose reduced cost c_ij - u_i - v_j is
    negative, and sends flow round the arc's cycle in the tree; the least
    arc that the ratio test empties leaves.  With this rule, Bland's (Math.
    Oper. Res. 2, 1977), the simplex cannot cycle, so exact instances end
    at an optimal basis.  Exact for rational measures with integer costs:
    the masses are scaled to integers by the LCM of their denominators,
    every basic solution is integral, and the optimum comes back as a
    Fraction over that scale.  Float instances pivot in floats, and an arc
    enters only when its reduced cost is below -1e-12 times the largest
    cost.  A budget of s t (s + t) pivots guards the loop: past it the
    oracle raises TransportError naming the pair and the atom counts.
    """
    mu, nu = problem.mu, problem.nu
    s, t = len(mu.atoms), len(nu.atoms)
    rows, pos = problem.rows, problem.position
    cost = [[rows[pos[a]][pos[b]] for b in nu.atoms] for a in mu.atoms]
    masses = (*mu.masses, *nu.masses)
    exact = (all(isinstance(m, Fraction) for m in masses)
             and all(isinstance(c, int) for row in cost for c in row))
    scale = math.lcm(*{m.denominator for m in masses}) if exact else 1
    if exact:
        masses = tuple(m.numerator * (scale // m.denominator) for m in masses)
    eps = 0 if exact else _ORACLE_EPS * max(map(max, cost))
    # the northwest corner: walk from (0, 0) to (s - 1, t - 1), down once a
    # row is spent, right otherwise; flow maps each basic arc to its amount
    left, flow, i, j = list(masses), {}, 0, 0
    while True:
        x = flow[i, j] = min(left[i], left[s + j])
        left[i] -= x
        left[s + j] -= x
        if (i, j) == (s - 1, t - 1):
            break
        if i < s - 1 and (j == t - 1 or not left[i]):
            i += 1
        else:
            j += 1
    budget = s * t * (s + t)
    for _ in range(budget + 1):
        phi = [0] * (s + t)  # u_i at node i, v_j at node s + j
        for w, u in _basis_tree(flow, s, t, 0).items():
            if u is not None:
                phi[w] = (cost[u][w - s] if u < s else cost[w][u - s]) - phi[u]
        entering = next(((i, j) for i in range(s) for j in range(t) if (i, j) not in flow
                         and cost[i][j] - phi[i] - phi[s + j] < -eps), None)
        if entering is None:
            total = sum(cost[i][j] * x for (i, j), x in flow.items())
            return Fraction(total, scale) if exact else total
        # the cycle: the entering arc, then the tree path from its sink back
        # to its source, whose arcs lose and gain flow in turn
        i, j = entering
        parent, path, w = _basis_tree(flow, s, t, i), [], s + j
        while w != i:
            u = parent[w]
            path.append((u, w - s) if u < s else (w, u - s))
            w = u
        theta = min(flow[arc] for arc in path[::2])
        leaving = min(arc for arc in path[::2] if flow[arc] == theta)
        flow[entering] = theta
        for arc in path[1::2]:
            flow[arc] += theta
        for arc in path[::2]:
            flow[arc] -= theta
        del flow[leaving]
    raise TransportError(f"oracle for pair ({mu.owner},{nu.owner}) over {s}x{t} atoms: "
                         f"no optimal basis after {budget} pivots")
