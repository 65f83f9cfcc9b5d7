#!/usr/bin/env python3
"""Randomized audit: how often the gap bound applies, and how tight it is.

Samples connected random graphs, classifies each against the bound's two
hypotheses (equal edge degrees, positive adjacent curvature minimum), and
for the applicable ones records the slack lambda1 - (kappa + 2/d - 1).
Every curvature bound, every adjacent plan's marginals (read in its
problem's units) and the adjacent-to-all-pairs reduction are asserted along
the way, so this doubles as a soak test; any violation aborts with a report
line.  The reduction is a theorem (W is a metric, so the adjacent minimum
bounds every pair); once per sample the minimum found by solving every pair
is compared with the adjacent minimum, exactly, with tolerance 0.

Usage:
    python3 scripts/random_audit.py --samples 60 --vertices 6 --prob 0.95

Sparse samples rarely have equal edge degrees: at the defaults (7 vertices,
p = 0.5) the bound's hypotheses hold on none of 100 samples, and the report
says so instead of a bare count of 0.
"""

import argparse
import sys

from edge_ricci.curvature import (
    adjacent_minimum,
    pair_transport_problem,
    ricci_all_adjacent,
    ricci_all_pairs,
)
from edge_ricci.graph_core import generate
from edge_ricci.transport import verify_coupling
from edge_ricci.verify import check_bounds, check_spectral_gap_bound, edge_regularity


def audit(samples: int, vertices: int, prob: float, seed: int) -> int:
    not_regular = no_positive_floor = 0
    slacks = []
    for k in range(samples):
        g = generate(f"random:{vertices}:{prob}", seed=seed + k)
        for (e, f), cp in ricci_all_adjacent(g).items():
            assert cp.transport.gap == 0, "duality gap on an exact solve"
            violations = verify_coupling(pair_transport_problem(g, e, f), cp.transport.plan)
            if violations:
                print(f"COUPLING VIOLATION seed {seed + k} pair ({e},{f}): {violations[0]}")
                return 1
        for bound in check_bounds(g):
            if not bound.diagnostic and not bound.holds:
                print(f"BOUND VIOLATION seed {seed + k} {bound.name}")
                return 1
        # the reduction theorem against every pair solved (exact, tolerance 0)
        if g.n_edges >= 3:
            adjacent = adjacent_minimum(g)[0]
            oracle = min(cp.kappa for _, cp in ricci_all_pairs(g))
            if oracle < adjacent:
                print(f"REDUCTION VIOLATION seed {seed + k}: adjacent minimum "
                      f"{adjacent}, solved minimum {oracle}")
                return 1
        chk = check_spectral_gap_bound(g)
        if not chk.applicable:
            if edge_regularity(g) is None:
                not_regular += 1
            else:
                no_positive_floor += 1
            continue
        if not chk.holds:
            print(f"GAP BOUND VIOLATION seed {seed + k}: "
                  f"lhs {chk.lhs} rhs {chk.rhs}")
            return 1
        slacks.append(chk.lhs - chk.rhs)

    print(f"samples                  {samples}")
    print(f"edge degrees unequal     {not_regular}")
    print(f"curvature floor <= 0     {no_positive_floor}")
    print(f"bound applicable         {len(slacks)}")
    if slacks:
        print(f"slack min/mean/max       {min(slacks):.6f} "
              f"{sum(slacks) / len(slacks):.6f} {max(slacks):.6f}")
    else:
        print("the bound's hypotheses held on no sample: the gap bound was not checked")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--vertices", type=int, default=7)
    ap.add_argument("--prob", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    return audit(args.samples, args.vertices, args.prob, args.seed)


if __name__ == "__main__":
    sys.exit(main())
