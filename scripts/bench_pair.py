#!/usr/bin/env python3
"""Paired benchmark runs of a git ref and the working tree, with a verdict.

    python3 scripts/bench_pair.py HEAD~1 --workload dense-exact
    python3 scripts/bench_pair.py main --workload dense-exact selftest --pairs 10
    python3 scripts/bench_pair.py main --workload selftest --seed 1

Both sides run from copies in one temporary directory: REF as ``git archive``
writes it, and the working tree as the files ``git ls-files -co
--exclude-standard`` lists (tracked files with their uncommitted edits, and
untracked files git does not ignore), so neither side runs in place; both
copies are made once, whatever the number of workloads.  Each pair runs
``bench/run.py --trace 0`` at the ``--seed`` given (default 0, bench/run.py's
own default; a claim made at one seed is best checked at another) for
BENCHMARK.json's run length, for each named workload in turn, once in each
copy, each after its own
package's ``__pycache__`` is removed (``bench_record.run_bench``); the side
that runs first alternates from pair to pair.  For each workload, one table
gives, for each end-to-end metric of BENCHMARK.json, both medians, the
interquartile range of REF's runs (statistics.quantiles, n=4), the working
tree's wins and the verdict:

    gain     the working tree wins at least nine tenths of the pairs, ties
             counting for neither, and the medians differ, in its favour,
             by more than REF's interquartile range;
    worse    the working tree's median is worse than REF's by more than the
             metric's bound, read as a fraction of REF's median;
    no gain  anything else.

A failed run stops the script with an ``error:`` line and exit code 1; a
``--pairs`` count below 1 is bad usage, refused with exit code 2 before
anything is copied.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import ROOT, run_bench  # noqa: E402

def iqr(values: list[float]) -> float:
    """q3 - q1 of statistics.quantiles(values, n=4); 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def wins(ref: list[float], tree: list[float], better: str) -> int:
    """The pairs (ref[i], tree[i]) in which tree is strictly better."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (r - t) > 0 for r, t in zip(ref, tree))


def verdict(ref: list[float], tree: list[float], better: str, bound: float) -> str:
    """'gain', 'worse' or 'no gain' for one metric's paired values, ref[i]
    and tree[i] from pair i (module docstring)."""
    sign = 1 if better == "lower" else -1
    gap = sign * (statistics.median(ref) - statistics.median(tree))
    if 10 * wins(ref, tree, better) >= 9 * len(ref) and gap > iqr(ref):
        return "gain"
    if -gap > bound * abs(statistics.median(ref)):
        return "worse"
    return "no gain"


def pair_count(text: str) -> int:
    """--pairs: a whole number of at least 1; anything else is bad usage."""
    pairs = int(text)
    if pairs < 1:
        raise ValueError(text)
    return pairs


def export(ref: str, target: Path) -> None:
    """The files of ref, as git archive writes them, under target."""
    proc = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                          capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(target, filter="data")


def snapshot(source: Path, target: Path) -> None:
    """The working tree at source, as git ls-files -co --exclude-standard
    lists it, copied under target; a tracked file deleted in the tree is
    listed but left out."""
    proc = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"],
                          cwd=source, capture_output=True, check=True)
    for name in filter(None, proc.stdout.decode().split("\0")):
        if (source / name).is_file():
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source / name, target / name)


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the git ref to compare the working tree with")
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=pair_count, default=10)
    parser.add_argument("--seed", type=int, default=0,
                        help="the workloads' seed, passed to bench/run.py (default 0)")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]
    runs: dict[str, dict[str, list[dict]]] = {
        workload: {"ref": [], "tree": []} for workload in args.workload}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp) / side for side in ("ref", "tree")}
        try:
            export(args.ref, roots["ref"])
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {args.ref}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 1
        snapshot(ROOT, roots["tree"])
        try:
            for i in range(args.pairs):
                for workload, sides in runs.items():
                    for side in ("ref", "tree") if i % 2 == 0 else ("tree", "ref"):
                        sides[side].append(run_bench(workload, args.seed, seconds, 0, roots[side]))
                print(f"pair {i + 1}/{args.pairs}: done", file=sys.stderr)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for workload, sides in runs.items():
        print(f"workload {workload}  ref {args.ref}  pairs {args.pairs}  "
              f"seed {args.seed}  seconds {seconds:g}")
        print(f"{'metric':<12} {'ref median':>12} {'tree median':>12} {'ref IQR':>10} "
              f"{'wins':>6}  verdict")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            ref, tree = ([run["metrics"][name]["value"] for run in sides[side]]
                         for side in ("ref", "tree"))
            won = wins(ref, tree, metric["better"])
            print(f"{name:<12} {statistics.median(ref):>12.6g} "
                  f"{statistics.median(tree):>12.6g} {iqr(ref):>10.3g} "
                  f"{f'{won}/{args.pairs}':>6}  "
                  f"{verdict(ref, tree, metric['better'], metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
