"""Exact 1-Wasserstein distance between edge measures.

The primal problem is the transportation LP over supp(mu) x supp(nu).  The
distance depends only on mu - nu (Kantorovich-Rubinstein duality), so the
common mass min(mu(a), nu(a)) at every shared atom stays where it is at zero
cost and is cancelled first; the residual instance, whose two supports are
disjoint, is solved by successive shortest augmenting paths with node
potentials.  In exact mode each round opens a primal-dual phase (Ahuja,
Magnanti & Orlin, Network Flows, 1993, ch. 9): flow is shipped along every
path of reduced cost exactly 0 before the next Dijkstra runs; float mode
ships one path per round.  The first exact round needs no Dijkstra: from
zero potentials and zero flow it settles every source at 0 and every sink
at the least cost cmin, so those potentials are set directly and the phase
runs on the arcs of cost cmin.  A phase ships the one-arc tight paths
directly, then searches depth first from each source with supply left,
with one arc iterator per node.  It keeps a dead set, which later searches
skip: every node reached by a search that found no sink with open demand.
A dead node stays dead for the whole phase.  It reaches no node of a path
shipped later (such a node would take it on to that path's open sink), and
shipping adds reverse arcs only among that path's nodes, so what it
reaches never grows.  The returned plan is the full optimal coupling of mu
and nu: the residual plan plus one diagonal (a, a, common) stay entry per
shared atom, as a sorted tuple of (source, sink, amount) entries in the
problem's units.

Costs come as one CostBlock (see edge_geometry): the sorted joint support
and one row tuple per atom.  The solver's source x sink matrix, the dual
envelope and the Lipschitz check index its rows by position, never by an
(a, b) key; the matrix and the envelope slice them in C, with
edge_geometry.slicer.  Each Dijkstra round stops early: once the first
sink with open demand settles at distance D, it pops the entries keyed
<= D and stops.  That changes no float.  Every node nearer than D is
settled, with the distance and parent the full search gives it, and every
other node gets D in the potential update whatever its distance.  Every
open sink at D is settled too, so the target (the least-index open sink at
D) and its path are the full search's.  Unreached nodes carry math.inf.  A
popped sink relaxes only the sources that carry flow into it, kept per
sink; the heap orders its entries by (distance, node), so the order of
that scan changes nothing either.

A TransportProblem fixes its number domain once, when it is built, and
every later step reads it.  When both measures are exact rationals and the
costs are integers (the unweighted case) the problem records the LCM of
the mass denominators as its scale and the masses as integers in those
units, so the whole computation runs in integer arithmetic and the
distance, plan, and dual certificate are exact; a plan amount is the mass
times the scale, an int.  Otherwise the scale is 1 and the amounts are
binary64 masses, where supply, demand and flow below 1e-15
count as rounding noise and the accepted certificate error is relative to
the largest cost: scaling the vertex weights scales every cost, and the
accepted error with it.  Both number types run the same code, apart from
the exact phases; exact mode is the case of zero noise and zero tolerance.

The dual certificate is a single function f, a dict on the full joint
support with |f(a) - f(b)| <= d(a, b), built from the final potentials of
the residual sinks by the envelope f(a) = min_j (beta_j + d(a, j)); strong
duality makes its objective equal the primal cost.  The solver checks the whole
certificate on the uncancelled problem before it returns: complementary
slackness on the residual plan, both marginals of the full plan, the
Lipschitz bound on f, and the duality gap.  A failure raises TransportError
naming the edge pair and the instance size.  The cost block is validated
once, when the problem is built, in one pass in C; the Lipschitz check walks
unordered pairs, and the dual objective is summed in the problem's units.
So are the plan's marginals, in the one check that the public
verify_coupling makes too.

brute_force_wasserstein enumerates every vertex of the transportation
polytope (spanning trees of the bipartite support graph) and is the
independent oracle used by the test suite and the acceptance gate.  Exact
instances are enumerated in scaled integers: the oracle takes the LCM of the
mass denominators itself and shares no code with the flow solver.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import add, getitem
from typing import Mapping

from .edge_geometry import CostBlock, EdgeMeasure, slicer
from .errors import MassImbalanceError, MissingPotentialError, TransportError

_FLOAT_EPS_CS = 1e-10   # complementary slackness tolerance, float mode
_FLOAT_EPS_GAP = 1e-9   # accepted primal-dual gap per unit of cost scale, float mode
_FLOAT_DUST = 1e-15     # residual supply/demand/flow below this is rounding noise


@dataclass(frozen=True)
class TransportProblem:
    """Measures plus a square cost block over their sorted joint support.

    Construction validates the block in one pass in C: its atoms
    must be the sorted joint support, each row must have one entry per atom,
    every atom costs 0 to itself, and every entry is finite and >= 0.  The
    same pass records whether every cost is an int, which with exact masses
    makes the problem exact.  Then it fixes the solver units: ``scale`` is
    the LCM of the mass denominators when exact and 1 otherwise, and the
    read-only ``supply`` and ``demand`` map each atom of mu and nu to its
    mass in those units (int when exact, float otherwise), whose totals must
    agree.  Every error raised here names the edge pair and the atom counts.
    """

    mu: EdgeMeasure
    nu: EdgeMeasure
    cost: CostBlock
    exact: bool = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)
    supply: Mapping[int, object] = field(init=False, repr=False, compare=False)
    demand: Mapping[int, object] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu, nu = self.mu, self.nu

        def invalid(what: str, error=TransportError) -> TransportError:
            return error(f"{_instance(mu, nu)}: {what}")

        joint = tuple(sorted(set(mu.atoms) | set(nu.atoms)))
        atoms, rows = self.cost.atoms, self.cost.rows
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
        exact = mu.exact and nu.exact and type(total) is int
        scale = math.lcm(*{m.denominator for m in (*mu.masses, *nu.masses)}) if exact else 1

        def units(m):
            return m.numerator * (scale // m.denominator) if exact else float(m)

        supply = {a: units(m) for a, m in zip(mu.atoms, mu.masses)}
        demand = {b: units(m) for b, m in zip(nu.atoms, nu.masses)}
        if abs(sum(supply.values()) - sum(demand.values())) > (0 if exact else 1e-12):
            raise invalid(f"supply {sum(mu.masses)} != demand {sum(nu.masses)}",
                          MassImbalanceError)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)

    def joint_support(self) -> tuple[int, ...]:
        return self.cost.atoms


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

    @property
    def exact(self) -> bool:
        return isinstance(self.distance, Fraction)


def solve_wasserstein(problem: TransportProblem) -> TransportResult:
    """Minimum-cost transport, returned only once its certificate checks out.

    The certificate tolerance is 0 in exact mode and 1e-9 x max(1, largest
    cost) in float mode.  Every TransportError raised here names the pair
    and the instance size.
    """
    exact, scale = problem.exact, problem.scale
    mu, nu = problem.mu, problem.nu
    rows, position = problem.cost.rows, problem.cost.position
    supply, demand = dict(problem.supply), dict(problem.demand)
    if exact:
        zero, dust, eps_cs, tol = 0, 0, 0, 0
    else:
        zero, dust, eps_cs = 0.0, _FLOAT_DUST, _FLOAT_EPS_CS
        # The distance and the potentials scale with the costs, so the
        # accepted certificate error does too.
        tol = _FLOAT_EPS_GAP * max(1.0, max(map(max, rows)))
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
            if flow[i][j] < dust:
                flow[i][j] = zero
            if not flow[i][j]:
                carriers[j].discard(i)
        supply[src] -= amt
        demand[tgt] -= amt
        if supply[src] < dust:
            supply[src] = zero
        if demand[tgt] < dust:
            demand[tgt] = zero

    def search(r, tight, dead):
        # depth-first search from source r over residual arcs of reduced
        # cost 0, one arc iterator per node, for a sink with open demand:
        # the search's parent links and that sink, or None, and then every
        # node it reached joins dead
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
        # primal-dual phase, exact mode only, where every amount is an int:
        # ship along every path of reduced cost 0.  Forward arcs are tight
        # for the whole phase; backward arcs carry flow and so are tight by
        # slackness.  One-arc paths ship directly, longer ones by search.
        tight = [[S + j for j, c in enumerate(row) if c + phi[i] == phi[S + j]]
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
                    supply[i] -= amt
                    demand[j] -= amt
        dead = set()
        for r in range(S):
            while supply[r] and r not in dead and (found := search(r, tight, dead)):
                ship(*found)

    # The first exact round is closed-form: from zero potentials and zero
    # flow, Dijkstra settles every source at 0 and every sink at the least
    # cost cmin, and its target is a sink at cmin, so the phase on the arcs
    # of cost cmin ships at least one unit.
    if exact and S:
        phi[S:] = [min(map(min, cost))] * T
        phase()

    # The budget caps Dijkstra rounds.  Each round ships along at least one
    # path, and in exact mode each path ships at least one unit (amounts are
    # positive integers), so the phase loop after a round ends and there are
    # at most as many rounds as units of supply; no bound in S and T is
    # proven here.  Float rounding can recycle residual arcs, so the cap
    # turns a pathological instance into an error instead of a spin.
    budget = (S + 2) * (T + 2) * 8
    inf = math.inf
    active_sources = [i for i in range(S) if supply[i] > dust]
    while active_sources:
        budget -= 1
        if budget < 0:
            raise failure("augmentation budget exhausted; instance does not drain")
        # multi-source Dijkstra over reduced costs in the residual network;
        # reduced costs are >= 0 by invariant, but float rounding can leave a
        # -1e-17 that Dijkstra would cycle on forever, so it counts as 0.
        # It stops once every entry keyed <= d_tgt, the distance of the
        # first open sink to settle, is popped: every node nearer than
        # d_tgt is then settled, every other node gets d_tgt in the
        # potential update below whatever its distance, and each open sink
        # at d_tgt is settled, so the target and its path are those of the
        # full search.
        dist = [inf] * (S + T)
        parent: list[int | None] = [None] * (S + T)
        pq = []
        for i in active_sources:
            dist[i] = zero
            heapq.heappush(pq, (zero, i))
        d_tgt = inf
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist[u]:
                continue
            if d > d_tgt:
                break
            phi_u = phi[u]
            if u < S:
                row = cost[u]
                for j in range(T):
                    v = S + j
                    rc = row[j] + phi_u - phi[v]
                    nd = d + rc if rc > zero else d
                    if nd < dist[v]:
                        dist[v] = nd
                        parent[v] = u
                        heapq.heappush(pq, (nd, v))
            else:
                j = u - S
                if d_tgt == inf and demand[j] > dust:
                    d_tgt = d
                for i in carriers[j]:
                    rc = -cost[i][j] + phi_u - phi[i]
                    nd = d + rc if rc > zero else d
                    if nd < dist[i]:
                        dist[i] = nd
                        parent[i] = u
                        heapq.heappush(pq, (nd, i))
        if d_tgt == inf:
            if any(x > dust for x in demand):
                raise failure("flow network admits no augmenting path")
            break  # only sub-threshold float dust is left unshipped
        tgt = min(j for j in range(T) if demand[j] > dust and dist[S + j] == d_tgt)

        # potentials stay dual-feasible after augmenting along tight arcs
        for v in range(S + T):
            phi[v] = phi[v] + (dist[v] if dist[v] < d_tgt else d_tgt)

        ship(parent, tgt)
        if exact:
            phase()
        active_sources = [i for i in range(S) if supply[i] > dust]

    # envelope dual certificate over the whole joint support:
    # f(a) = min_j (beta_j + d(a, sink_j)) over the residual sinks, and
    # f = 0 when mu = nu leaves nothing to ship
    beta = [-phi[S + j] for j in range(T)]
    dual = {a: min(map(add, beta, pick(row)), default=zero)
            for a, row in zip(problem.cost.atoms, rows)}

    # the certificate: complementary slackness on the residual plan (whose
    # cost is summed on the way), then, on the uncancelled problem, plan
    # marginals in units, dual feasibility, and a closed duality gap.  The
    # full plan is one diagonal stay entry per shared atom plus the residual
    # flow; (source, sink) pairs are unique, so the sort compares no amounts.
    entries = [(a, a, x) for a, x in common.items()]
    total = zero
    for i in range(S):
        for j in range(T):
            x = flow[i][j]
            if x > zero:
                rc = cost[i][j] + phi[i] - phi[S + j]
                if abs(rc) > eps_cs * max(1.0, abs(cost[i][j])):
                    raise failure(f"complementary slackness violated on arc ({i},{j}): {rc}")
                total += x * cost[i][j]
                entries.append((sources[i], sinks[j], x))
    plan = tuple(sorted(entries))
    violations = _marginal_violations(plan, problem.supply, problem.demand, exact)
    if violations:
        raise failure(f"invalid plan: {violations[0]}")
    distance = Fraction(total, scale) if exact else total
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

    Names the first offending row and column.  The plan's amounts are in
    the problem's units, each mass times problem.scale, as the solver
    returns them.
    """
    return _marginal_violations(plan, problem.supply, problem.demand, problem.exact)


def _marginal_violations(plan, mu: Mapping[int, object], nu: Mapping[int, object],
                         exact: bool) -> tuple[str, ...]:
    """Row and column sums of plan against the atom -> amount maps mu and nu,
    with tolerance 0 when exact and 1e-12 otherwise."""
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
    tol = 0 if exact else 1e-12
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
    joint = problem.joint_support()
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
    rows = problem.cost.rows
    f = _values_on(dual, problem.joint_support())
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

# the arc subsets _elimination_plans tests at 4x5, the widest instance the
# oracle is meant for; 5x5 takes 2 042 975 of them
_MAX_ORACLE_SUBSETS = math.comb(20, 8)
_tree_plans: dict[tuple[int, int], list] = {}


def _elimination_plans(s: int, t: int) -> list[list[tuple[int, int, int, int]]]:
    """All spanning trees of K_{s,t} as leaf-elimination schedules.

    Each schedule entry is (leaf_node, source, sink, other_node); nodes are
    0..s-1 for sources and s..s+t-1 for sinks.
    """
    key = (s, t)
    if key in _tree_plans:
        return _tree_plans[key]
    arcs = [(i, s + j) for i in range(s) for j in range(t)]
    n = s + t
    plans = []
    for chosen in combinations(range(len(arcs)), n - 1):
        # spanning tree test by union-find
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for k in chosen:
            u, v = arcs[k]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if not ok:
            continue
        adj = {v: [] for v in range(n)}
        for k in chosen:
            u, v = arcs[k]
            adj[u].append((k, v))
            adj[v].append((k, u))
        degree = {v: len(adj[v]) for v in range(n)}
        removed = set()
        leaves = [v for v in range(n) if degree[v] == 1]
        schedule = []
        while leaves:
            leaf = leaves.pop()
            if degree[leaf] != 1:
                continue
            arc_k = next(k for k, w in adj[leaf] if k not in removed)
            other = next(w for k, w in adj[leaf] if k == arc_k)
            removed.add(arc_k)
            u, v = arcs[arc_k]
            schedule.append((leaf, u, v - s, other))
            degree[other] -= 1
            degree[leaf] = 0
            if degree[other] == 1:
                leaves.append(other)
        plans.append(schedule)
    _tree_plans[key] = plans
    return plans


def brute_force_wasserstein(problem: TransportProblem) -> object:
    """Optimal cost by enumerating transportation-polytope vertices.

    Exact for rational measures with integer costs: the balances are scaled
    to integers by the LCM of the mass denominators, every vertex is
    evaluated in integer arithmetic, and the minimum comes back as a
    Fraction over that scale.  Float instances are enumerated in floats.
    Listing the trees tests C(s t, s + t - 1) arc subsets for s and t atoms
    a side, so the oracle refuses, before listing any, every instance that
    needs more than 4x5 does: C(20, 8) = 125 970.  6x1, 4x4 and 3x6 are in
    reach; 5x5 and 4x6 are not.
    """
    s, t = len(problem.mu.atoms), len(problem.nu.atoms)
    subsets = math.comb(s * t, s + t - 1)
    if subsets > _MAX_ORACLE_SUBSETS:
        raise TransportError(
            f"oracle limited to {_MAX_ORACLE_SUBSETS} arc subsets, "
            f"{s}x{t} atoms need {subsets}")
    sources = list(problem.mu.atoms)
    sinks = list(problem.nu.atoms)
    cost = [[problem.cost[(a, b)] for b in sinks] for a in sources]
    masses = (*problem.mu.masses, *problem.nu.masses)
    exact = (all(isinstance(m, Fraction) for m in masses)
             and all(isinstance(c, int) for row in cost for c in row))
    if exact:
        scale = math.lcm(*{m.denominator for m in masses})
        masses = tuple(m.numerator * (scale // m.denominator) for m in masses)
    start = (*masses[:s], *(-m for m in masses[s:]))
    best = None
    for schedule in _elimination_plans(s, t):
        balance = list(start)
        total = 0
        feasible = True
        for leaf, i, j, other in schedule:
            x = balance[leaf] if leaf < s else -balance[leaf]
            if x < 0:
                feasible = False
                break
            balance[other] += balance[leaf]
            total += x * cost[i][j]
        if feasible and (best is None or total < best):
            best = total
    if best is None:
        raise TransportError("no feasible basic solution found")
    return Fraction(best, scale) if exact else best
