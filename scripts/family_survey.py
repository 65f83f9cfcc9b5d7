#!/usr/bin/env python3
"""Survey the spectral gap bound across graph families, auditing every graph.

A row gives a graph's adjacent curvature minimum, the degree-weighted edge
gap, the bound's right side kappa + 2/d - 1 where it applies, and the slack:
0 at stars, the equality case; a right side <= 0 is marked vacuous.  The
seeded families (tree, random) are built once per seed of --seeds and named
with it, as in `random:7:0.5 #3`; every other family is built once.  Every
graph is built before the header is printed, so a malformed spec ends the
run with one `error:` line and exit 2.

Every graph is audited on its one curvature table, each pair solved once:
each solve checks its own certificate (the residual transport's: flow
marginals, dual feasibility, flow cost equal to the dual objective); every
asserted curvature bound and the gap bound hold; and with three edges or more no pair, solved, is below the adjacent
minimum (a theorem, as W is a metric; compared exactly).  The first
violation (CERTIFICATE, BOUND, REDUCTION or GAP BOUND) stops the sweep with
one line naming the graph, and exit 1.  A census ends the table: graphs,
unequal edge degrees, no adjacent edge pair (K2; named only when some graph
has none), curvature floor <= 0, bound applies, and the slack's
min/mean/max where it applies.

Usage:
    python3 scripts/family_survey.py
    python3 scripts/family_survey.py --families complete:3..10 star:2..12
    python3 scripts/family_survey.py --families random:6:0.95 --seeds 0..59
"""

import argparse
import sys
from collections import deque

from edge_ricci.curvature import adjacent_minimum, ricci_all_pairs
from edge_ricci.errors import EdgeRicciError, InvalidParameterError, TransportError
from edge_ricci.graph_core import generate
from edge_ricci.verify import check_bounds, check_spectral_gap_bound, edge_regularity

DEFAULT_SWEEP = (
    "complete:3..8", "cycle:3..8", "star:2..10",
    "bipartite:2:2", "bipartite:2:3", "bipartite:3:3", "bipartite:3:4",
    "petersen", "circulant:8:1,2", "circulant:10:1,2",
)
SEEDED = ("tree", "random")  # the families generate draws from a seed


def expand(spec: str) -> list[str]:
    """The specs a trailing a..b range on the last parameter names, b
    included; a range that is malformed or names none is an error."""
    head, sep, tail = spec.rpartition(":")
    if not (sep and ".." in tail):
        return [spec]
    lo, hi = tail.split("..", 1)
    try:
        items = [f"{head}:{k}" for k in range(int(lo), int(hi) + 1)]
    except ValueError:
        items = []
    if not items:
        raise InvalidParameterError(f"family spec {spec!r}: {tail!r} is not a range a..b, a <= b")
    return items


def seed_range(text: str) -> range:
    """The seeds 'S' or 'A..B' names, B included; none is an error."""
    lo, _, hi = text.partition("..")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError(text)
    return seeds


def sweep(families: list[str], seeds: range):
    """(name, graph) for every graph the families name, in order."""
    for spec in families:
        for item in expand(spec):
            if item.partition(":")[0] in SEEDED:
                for seed in seeds:
                    yield f"{item} #{seed}", generate(item, seed=seed)
            else:
                yield item, generate(item)


def audit(name: str, g) -> str | None:
    """The report line of g's first violation, or None (module docstring).
    check_bounds builds g's adjacent table, solving each pair once."""
    try:
        for bound in check_bounds(g):
            if bound.applicable and not bound.diagnostic and not bound.holds:
                return f"BOUND VIOLATION {name} {bound.name}"
        if g.n_edges >= 3:
            adjacent = adjacent_minimum(g)[0]
            solved = min(kappa for _, kappa in ricci_all_pairs(g))
            if solved < adjacent:
                return (f"REDUCTION VIOLATION {name}: adjacent minimum {adjacent}, "
                        f"solved minimum {solved}")
    except TransportError as exc:  # names the pair and the instance size
        return f"CERTIFICATE VIOLATION {name}: {exc}"
    return None


def survey(graphs: deque, show_inapplicable: bool) -> int:
    """Audit and print the (name, graph) rows, taking each off graphs as it
    is reached, so no graph's tables outlive its row."""
    width = max([16, *(len(name) for name, _ in graphs)])
    header = (f"{'family':<{width}} {'d':>4} {'kappa_min':>10} {'lambda1':>10} "
              f"{'rhs':>10} {'slack':>10}")
    print(header)
    print("-" * len(header))
    total, not_regular, no_pair = len(graphs), 0, 0
    slacks = []
    while graphs:
        name, g = graphs.popleft()
        if failure := audit(name, g):
            print(failure)
            return 1
        chk = check_spectral_gap_bound(g)
        if not chk.applicable:
            not_regular += edge_regularity(g) is None
            no_pair += adjacent_minimum(g) is None
            if show_inapplicable:
                print(f"{name:<{width}} {'-':>4} {'-':>10} {'-':>10} {'-':>10} "
                      f"n/a: {chk.reason}")
            continue
        if not chk.holds:
            print(f"GAP BOUND VIOLATION {name}: lhs {chk.lhs} rhs {chk.rhs}")
            return 1
        # witnesses: the minimizing pair with its kappa, d, w0 and w1
        (_, kmin), (_, d), *_ = chk.witnesses
        slack = chk.lhs - chk.rhs
        # the equality case leaves a rounding residue of either sign;
        # print it as 0 so it never reads -0.000000
        if equality := abs(slack) < 1e-9:
            slack = 0.0
        slacks.append(slack)
        flag = ("  <- equality" if equality
                else "  <- vacuous" if chk.rhs <= 0 else "")
        print(f"{name:<{width}} {int(d):>4} {kmin:>10.6f} {chk.lhs:>10.6f} "
              f"{chk.rhs:>10.6f} {slack:>10.6f}{flag}")
    # the other edge-regular graphs the bound does not apply to lack a positive floor
    no_pair_clause = f", {no_pair} with no adjacent edge pair" if no_pair else ""
    print(f"{total} graphs: {not_regular} with unequal edge degrees{no_pair_clause}, "
          f"{total - not_regular - no_pair - len(slacks)} with curvature floor <= 0, "
          f"{len(slacks)} where the bound applies")
    if slacks:
        print(f"slack min/mean/max {min(slacks):.6f} {sum(slacks) / len(slacks):.6f} "
              f"{max(slacks):.6f}")
    else:
        print("the bound's hypotheses held on no graph: the gap bound was not checked")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", nargs="+", default=list(DEFAULT_SWEEP),
                    help="family specs; the last parameter may be a range a..b")
    ap.add_argument("--seeds", type=seed_range, default=range(1),
                    help="seed S or range A..B for the seeded families (default 0)")
    ap.add_argument("--show-inapplicable", action="store_true",
                    help="also list graphs the bound does not apply to")
    args = ap.parse_args(argv)
    try:
        graphs = deque(sweep(args.families, args.seeds))
    except EdgeRicciError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return survey(graphs, args.show_inapplicable)


if __name__ == "__main__":
    sys.exit(main())
