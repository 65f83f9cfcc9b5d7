#!/usr/bin/env python3
"""Survey the spectral gap bound across graph families.

For each family in the sweep, print the adjacent curvature minimum, the gap
of the degree-weighted edge operator, the bound's right-hand side
(kappa + 2/d - 1 when it applies), and the slack.  Stars sit at zero slack:
they are the equality case.  A row whose right-hand side is <= 0 is marked
vacuous: the gap is positive anyway, so the bound says nothing there.

Usage:
    python3 scripts/family_survey.py
    python3 scripts/family_survey.py --families complete:3..10 star:2..12
"""

import argparse
import sys

from edge_ricci.graph_core import generate
from edge_ricci.verify import check_spectral_gap_bound

DEFAULT_SWEEP = (
    "complete:3..8",
    "cycle:3..8",
    "star:2..10",
    "bipartite:2:2",
    "bipartite:2:3",
    "bipartite:3:3",
    "bipartite:3:4",
    "petersen",
    "circulant:8:1,2",
    "circulant:10:1,2",
)


def expand(spec: str):
    """Allow a trailing a..b range on the last parameter."""
    head, sep, tail = spec.rpartition(":")
    if sep and ".." in tail:
        lo, hi = tail.split("..", 1)
        for k in range(int(lo), int(hi) + 1):
            yield f"{head}:{k}"
    else:
        yield spec


def survey(families: list[str], show_inapplicable: bool) -> int:
    header = f"{'family':<16} {'d':>4} {'kappa_min':>10} {'lambda1':>10} {'rhs':>10} {'slack':>10}"
    print(header)
    print("-" * len(header))
    for spec in families:
        for item in expand(spec):
            g = generate(item)
            chk = check_spectral_gap_bound(g)
            if not chk.applicable:
                if show_inapplicable:
                    print(f"{item:<16} {'-':>4} {'-':>10} {'-':>10} {'-':>10} "
                          f"n/a: {chk.reason}")
                continue
            # witnesses: the minimizing pair with its kappa, d, w0 and w1
            (_, kmin), (_, d), *_ = chk.witnesses
            slack = chk.lhs - chk.rhs
            # the equality case leaves a rounding residue of either sign;
            # print it as 0 so it never reads -0.000000
            equality = abs(slack) < 1e-9
            if equality:
                slack = 0.0
            flag = ("  <- equality" if equality
                    else "  <- vacuous" if chk.rhs <= 0 else "")
            print(f"{item:<16} {int(d):>4} {kmin:>10.6f} {chk.lhs:>10.6f} "
                  f"{chk.rhs:>10.6f} {slack:>10.6f}{flag}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", nargs="+", default=list(DEFAULT_SWEEP),
                    help="family specs; the last parameter may be a range a..b")
    ap.add_argument("--show-inapplicable", action="store_true",
                    help="also list families the bound does not apply to")
    args = ap.parse_args(argv)
    return survey(args.families, args.show_inapplicable)


if __name__ == "__main__":
    sys.exit(main())
