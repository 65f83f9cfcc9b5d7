"""Exact 1-Wasserstein distance between edge measures.

The primal problem is the transportation LP over supp(mu) x supp(nu).  The
distance depends only on mu - nu (Kantorovich-Rubinstein duality), so the
common mass min(mu(a), nu(a)) at every shared atom stays where it is at zero
cost and is cancelled first.  The residual instance, whose two supports are
disjoint, is solved by the primal-dual method (Ahuja, Magnanti & Orlin,
Network Flows, 1993, ch. 9; Kuhn's Hungarian method, 1955) with node
potentials phi that keep every reduced cost c(u, v) + phi(u) - phi(v) >= 0.
solve_wasserstein returns the full optimal coupling of mu and nu: the
residual plan plus one diagonal (a, a, common) stay entry per shared atom,
as a sorted tuple of (source, sink, amount) entries in the problem's units,
with an envelope dual on the whole joint support.  residual_cost, for
certified problems, returns the number W alone, in the problem's units
(the last paragraphs).  Both start from one setup, _residual.

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

A problem holds one cost row tuple per atom of the sorted joint support,
indexed by ``position``, never by an (a, b) key.  The solver's source x sink
matrix and the dual envelope come from problem.costs, which slices rows in
C with edge_geometry.slicer, as the dual step slices the matrix.

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

The dual certificate of a full solve is a single function f, a dict on
the full joint support with |f(a) - f(b)| <= d(a, b), built from the final
potentials of the residual sinks by the envelope f(a) = min_j (beta_j +
d(a, j)), beta_j = -phi(sink j); strong duality makes its objective equal
the primal cost.  solve_wasserstein checks the certificate on the
uncancelled problem before it returns a TransportResult: complementary
slackness on the residual arcs that carry flow, both marginals of the full
plan (verify_coupling), the Lipschitz bound, and the duality gap
(dual_objective).  The Lipschitz bound on f is checked per solve, by
walking unordered pairs, unless the problem is a certified
curvature.PairProblem.  Such a problem slices its rows from a graph's edge
space, whose vertex metric was certified once per graph before any row was
read (edge_geometry), so its costs are a metric d: exactly on unweighted
input, and on float input up to the triangle inequality's tolerance there,
d(a, c) <= (1 + 3 eps)(d(a, b) + d(b, c)) with eps = 1e-12.  The envelope
of a metric is 1-Lipschitz: if j attains f(b), then f(a) <= beta_j +
d(a, j) <= beta_j + d(b, j) + d(a, b) = f(b) + d(a, b) by the triangle
inequality, and the same with a and b swapped by symmetry.  On float input
the same lines give an excess of at most 3 eps (d(a, b) + d(b, j)), below
6e-12 of the largest cost, far inside the 1e-9 a walk accepts.  So the walk
would re-prove a lemma, and those solves skip it; hand-built problems, whose
costs nothing certified, keep it.  In float mode the accepted slackness,
Lipschitz and gap errors are relative to the largest cost alone, as the
tightness threshold is: the rounding error of a reduced cost grows with the
potentials, which reach the largest cost, whatever the arc's own cost, and
a floor of 1 would pass any certificate below unit cost scale.  A failure
raises TransportError naming the edge pair and the instance size.  The dual
objective and the plan's marginals (verify_coupling) are summed in the
problem's units.

On a certified problem the number W needs no full plan and no envelope,
by the cancellation lemma: when the costs are a metric d, W(mu, nu) is the
optimum of the residual LP, which moves mu' = mu minus the common mass to
nu' = nu minus the common mass over supp(mu') x supp(nu').  Proof: the
residual plan plus the diagonal stays is a coupling of mu and nu of the
same cost, so W is at most the residual optimum.  The envelope f of
feasible residual potentials is 1-Lipschitz (above), with f >= -phi on
the sources and f <= -phi on the sinks, so every coupling of mu and nu
costs at least the sum of f (mu - nu) = f (mu' - nu'), which is at least
the residual dual objective, the sum of nu'_j phi_j less that of
mu'_i phi_i.  On float input each of those steps holds within the
tolerances: the Lipschitz excess above costs at most 6e-12 of the largest
cost per unit of mass, and the residual checks below accept 1e-9 of it.
So residual_cost, which ricci uses on every input, solves the residual
with the same loop and checks that the flow is >= 0 and meets both
residual marginals, that every residual arc's reduced cost is >= 0, and
that the flow's cost equals the dual objective: in exact mode in integer
units, where the last check is complementary slackness on the arcs that
carry flow; in float mode the marginals within 1e-12, and, in units of
the largest cost, every reduced cost >= -1e-10, |reduced cost| <= 1e-10 on
the arcs that carry flow, and the gap within 1e-9, as solve_wasserstein
accepts.  With the graph's metric certificate (edge_geometry) that is a
complete certificate of W, for both number types: "a dual certificate
checked on every transport solve" means this residual certificate plus
the per-graph metric certificate.  A float W is solve_wasserstein's to the
last bit: the same largest cost, demand rescale, dust and threshold make
the loop's choices the same, and the flow's cost is the same left fold,
source-major.  Hand-built problems never take that path, and a caller that
reads a plan or a dual gets a full TransportResult from solve_wasserstein
(curvature.transport_for_pair), checked as above.

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
from functools import cached_property
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
    makes the problem exact; ``largest_cost`` is the largest entry.  Then
    it fixes the solver units (_settle): ``scale`` is the LCM of the
    measures' scales when exact and 1 otherwise, and the read-only
    ``supply`` and ``demand`` map each atom of mu and nu to its mass in
    those units, whose totals must agree.  ``position`` maps each atom to
    its index in atoms and rows; all three are built when first read.
    costs(sources, sinks) slices the rows of sources at sinks.
    ``certified`` is False: only a PairProblem, which slices its own costs
    from a certified metric, sets it.  Every error raised here names the
    edge pair and the atom counts.
    """

    mu: EdgeMeasure
    nu: EdgeMeasure
    atoms: tuple[int, ...]
    rows: tuple[tuple, ...]
    exact: bool = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)
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
        vars(self)["largest_cost"] = max(map(max, rows))

    def _settle(self, exact: bool, certified: bool) -> None:
        """Set the solver units and the masses in them, in atom order (exact
        masses balance: each measure's units sum to its scale)."""
        mu, nu = self.mu, self.nu
        # lists: tuple() of a map resizes its guess, stranding a tuple per call
        if exact:
            scale = math.lcm(mu.scale, nu.scale)
            supply = list(map(mul, mu.units, repeat(scale // mu.scale)))
            demand = list(map(mul, nu.units, repeat(scale // nu.scale)))
        else:
            scale, supply, demand = 1, list(map(float, mu.masses)), list(map(float, nu.masses))
            if abs(sum(supply) - sum(demand)) > 1e-12:
                raise MassImbalanceError(
                    f"{_instance(mu, nu)}: supply {sum(mu.masses)} != demand {sum(nu.masses)}")
        vars(self).update(exact=exact, scale=scale, certified=certified,
                          _supply=supply, _demand=demand)

    @cached_property
    def position(self) -> Mapping[int, int]:
        return {a: k for k, a in enumerate(self.atoms)}

    @cached_property
    def supply(self) -> Mapping[int, object]:
        return dict(zip(self.mu.atoms, self._supply))

    @cached_property
    def demand(self) -> Mapping[int, object]:
        return dict(zip(self.nu.atoms, self._demand))

    def costs(self, sources, sinks) -> list[tuple]:
        """One tuple per atom of sources: its costs to the atoms of sinks,
        sliced from its row in C."""
        pick, rows, position = slicer([self.position[b] for b in sinks]), self.rows, self.position
        return [pick(rows[position[a]]) for a in sources]


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
    zero, dust, tight_tol, cs_tol, tol, common, sources, sinks, supply, demand = _residual(problem)
    S, T = len(sources), len(sinks)
    failure = _failing(problem, S, T)
    # every atom's costs to the residual sinks: the sources' rows are the
    # loop's cost matrix, and all of them span the envelope below
    block = problem.costs(problem.atoms, sinks)
    position = problem.position
    cost = [block[position[a]] for a in sources]
    flow, phi = _primal_dual(cost, supply, demand, zero, dust, tight_tol, failure)

    # envelope dual certificate over the whole joint support:
    # f(a) = min_j (beta_j + d(a, sink_j)) over the residual sinks, and
    # f = 0 when mu = nu leaves nothing to ship
    beta = [-phi[S + j] for j in range(T)]
    dual = {a: min(map(add, beta, c), default=zero) for a, c in zip(problem.atoms, block)}

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


def residual_cost(problem: TransportProblem):
    """W of a certified problem times its scale (an int when exact, else
    solve_wasserstein's float to the last bit), from its residual LP alone
    and certified by the checks the module docstring lists.  Given the flow
    and dual feasibility checks, the gap between the flow's cost and the
    dual objective is the sum of flow times reduced cost, so in exact mode
    a gap names an arc that breaks complementary slackness.  Every
    TransportError raised here names the pair and the residual size."""
    if not problem.certified:
        raise TransportError(f"{_instance(problem.mu, problem.nu)}: not certified")
    zero, dust, tight_tol, cs_tol, tol, _, sources, sinks, supply, demand = _residual(problem)
    S, T = len(sources), len(sinks)
    failure = _failing(problem, S, T)
    cost = problem.costs(sources, sinks)
    flow, phi = _primal_dual(cost, supply[:], demand[:], zero, dust, tight_tol, failure)
    u, v = phi[:S], phi[S:]

    # one walk over the arcs that carry flow (a negative amount is one)
    # finds the least amount, the column sums and the flow's cost, a float
    # cost summed as solve_wasserstein sums it, a source-major left fold
    least, cols, total = zero, [zero] * T, zero
    for out, c in zip(flow, cost):
        for j in compress(range(T), out):
            x = out[j]
            if x < least:
                least = x
            cols[j] += x
            total += x * c[j]
    # a flow: amounts >= 0, rows summing to the supply, columns to the
    # demand (within 1e-12 in float mode)
    if least < 0:
        raise failure(f"negative flow {least}")
    rows = list(map(sum, flow))
    if (rows != supply or cols != demand) and max(
            map(abs, map(sub, rows + cols, supply + demand))) > (0 if problem.exact else 1e-12):
        raise failure(f"invalid flow: row sums {rows} for supply {supply}, "
                      f"column sums {cols} for demand {demand}")
    # dual feasibility, c + u_i - v_j >= -cs_tol on every arc: the least
    # c_ij - v_j of each row plus u_i, in C
    if T and min(map(add, map(min, map(map, repeat(sub), cost, repeat(v))), u),
                 default=zero) < -cs_tol:
        i = next(i for i in range(S) if min(map(sub, cost[i], v)) + u[i] < -cs_tol)
        j = min(range(T), key=lambda j: cost[i][j] - v[j])
        raise failure(f"reduced cost {cost[i][j] + u[i] - v[j]} < {-cs_tol} on arc ({i},{j})")
    # a flow cost equal to the dual objective; then complementary slackness
    # on the arcs that carry flow, which in exact mode a closed gap implies
    # (above), so there it is sought only to name an open gap's arc
    objective = sum(map(mul, demand, v)) - sum(map(mul, supply, u))
    slack = ""
    if tol or total != objective:
        arc = next(((i, j) for i, out in enumerate(flow) for j in compress(range(T), out)
                    if abs(cost[i][j] + u[i] - v[j]) > cs_tol), None)
        if arc:
            i, j = arc
            slack = (f"complementary slackness violated on arc ({i},{j}): "
                     f"{cost[i][j] + u[i] - v[j]}")
    if abs(total - objective) > tol:
        raise failure(f"flow cost {total} != dual objective {objective}"
                      + (f": {slack}" if slack else ""))
    if slack:
        raise failure(slack)
    return total


def _residual(problem: TransportProblem) -> tuple:
    """Both solvers' setup: the number type's zero, dust, tightness
    threshold and slackness and gap tolerances (relative to the problem's
    largest_cost in float mode); then the stays {atom: common
    mass}, the residual sources and sinks (the atoms whose mass left in
    units exceeds dust, in the measures' atom order) and their supply and
    demand lists.  Float demand is rescaled so that the totals match
    exactly: the two sums disagree by a few ulp, and the loop would chase
    the dust."""
    supply, demand = problem._supply[:], problem._demand[:]
    if problem.exact:
        zero = dust = tight_tol = cs_tol = tol = 0
    else:
        cmax = problem.largest_cost
        fix = sum(supply) / sum(demand)
        demand = [d * fix for d in demand]
        zero, dust, tight_tol, cs_tol, tol = (0.0, _FLOAT_DUST, _FLOAT_EPS_TIGHT * cmax,
                                              _FLOAT_EPS_CS * cmax, _FLOAT_EPS_GAP * cmax)
    mu, nu = problem.mu.atoms, problem.nu.atoms
    common = {}
    for a in set(mu).intersection(nu):
        i, j = mu.index(a), nu.index(a)
        s, t = supply[i], demand[j]
        x = common[a] = s if s <= t else t
        supply[i], demand[j] = s - x, t - x
    if dust:  # float mode: a mass left at most the dust counts as 0
        supply = [x if x > dust else zero for x in supply]
        demand = [x if x > dust else zero for x in demand]
    # amounts are >= 0, so each selects its own atom when it is positive
    return (zero, dust, tight_tol, cs_tol, tol, common,
            list(compress(mu, supply)), list(compress(nu, demand)),
            list(compress(supply, supply)), list(compress(demand, demand)))


def _failing(problem: TransportProblem, S: int, T: int):
    """The TransportError of a solve: the instance and its residual size."""
    return lambda what: TransportError(
        f"{_instance(problem.mu, problem.nu)}, residual {S}x{T}: {what}")


def _primal_dual(cost: list, supply: list, demand: list, zero, dust, tight_tol,
                 failure) -> tuple[list, list]:
    """The primal-dual loop of the module docstring on the S x T residual:
    cost[i][j] from source i to sink j, and the supply and demand lists,
    which it drains.  Returns the flow, one list per source, and the node
    potentials phi, sources first, with every reduced cost
    c[i][j] + phi[i] - phi[S + j] >= -tight_tol.  Raises failure's error
    once the dual-step budget is spent."""
    S, T = len(supply), len(demand)
    flow = [[zero] * T for _ in range(S)]
    carriers = [set() for _ in range(T)]  # the sources with flow into each sink
    phi = [zero] * (S + T)  # node potentials; reduced cost c + phi[u] - phi[v] >= 0
    sink_nodes = range(S, S + T)

    # The primal-dual loop (see the module docstring): the column-reduced
    # start, then phases and dual steps until a phase leaves no source with
    # supply.  In float mode it also ends once no sink has demand: supply
    # left then is dust, which the marginal check bounds.  The budget
    # counts dual steps.
    if S:  # with no source, zip(*cost) is empty and would shrink phi
        phi[S:] = map(min, zip(*cost))
    budget = (S + 2) * (T + 2) * 8
    while True:
        # The phase ships along every residual path of tight arcs and leaves
        # in dead the nodes those arcs reach from the sources with supply
        # left.  A forward arc is tight when its reduced cost is at most
        # tight_tol; backward arcs carry flow and so are tight by slackness.
        # One-arc paths ship directly, longer ones by search.  Shipping
        # takes the amount off the root's supply and the sink's demand, and
        # what is left at most the dust counts as 0.
        bound = list(map(add, phi[S:], repeat(tight_tol)))
        tight = [None] * S  # each source's tight arcs, listed when first read
        for i, s in enumerate(supply):
            if not s:
                continue
            tight[i] = arcs = list(compress(sink_nodes, map(
                le, map(add, cost[i], repeat(phi[i])), bound)))
            out = flow[i]
            for v in arcs:
                j = v - S
                t = demand[j]
                if t:  # ship min(s, t), the first of equals as min() gives it
                    amt = s if s <= t else t
                    out[j] += amt
                    carriers[j].add(i)
                    s -= amt
                    t -= amt
                    demand[j] = zero if t <= dust else t
                    if s <= dust:
                        s = zero
                        break
            supply[i] = s
        dead = set()
        for r in range(S):
            while supply[r] and r not in dead:
                # depth-first search from source r over tight residual
                # arcs, one arc iterator per node, for a sink tgt with open
                # demand; if it finds none, every node it reached joins dead
                parent, tgt = {r: None}, None
                stack = [(r, iter(tight[r]))]
                while stack:
                    u, arcs = stack[-1]
                    for v in arcs:
                        if v in parent or v in dead:
                            continue
                        parent[v] = u
                        if v < S:
                            if tight[v] is None:
                                tight[v] = list(compress(sink_nodes, map(
                                    le, map(add, cost[v], repeat(phi[v])), bound)))
                            stack.append((v, iter(tight[v])))
                        elif demand[v - S]:
                            tgt = v - S
                            stack.clear()
                        else:
                            stack.append((v, iter(carriers[v - S])))
                        break
                    else:
                        stack.pop()
                if tgt is None:
                    dead.update(parent)
                    break
                # walk the parent links back from sink tgt: each sink is
                # entered by a forward arc from a source, and each source
                # but r by a backward arc from a sink, whose residual
                # capacity is its flow
                fwd, back = [], []
                j = tgt
                while True:
                    src = parent[S + j]
                    fwd.append((src, j))
                    if parent[src] is None:
                        break
                    j = parent[src] - S
                    back.append((src, j))
                amt = min(supply[r], demand[tgt], *(flow[i][j] for i, j in back))
                for i, j in fwd:
                    flow[i][j] += amt
                    carriers[j].add(i)
                for i, j in back:
                    flow[i][j] -= amt
                    if flow[i][j] <= dust:
                        flow[i][j] = zero
                        carriers[j].discard(i)
                supply[r] -= amt
                demand[tgt] -= amt
                if supply[r] <= dust:
                    supply[r] = zero
                if demand[tgt] <= dust:
                    demand[tgt] = zero
        if not (dead and any(demand)):
            return flow, phi
        budget -= 1
        if budget < 0:
            raise failure("augmentation budget exhausted; instance does not drain")
        # the dual step: raise every node outside the dead set by delta, the
        # least reduced cost from a source in it to a sink outside it
        outside = [v for v in range(S + T) if v not in dead]
        out = [v - S for v in outside if v >= S]
        at_out, phi_out = slicer(out), [phi[S + j] for j in out]
        delta = min(min(map(sub, at_out(cost[i]), phi_out)) + phi[i]
                    for i in dead if i < S)
        for v in outside:
            phi[v] += delta


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
