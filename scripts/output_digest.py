#!/usr/bin/env python3
"""Digest the CLI's output on a fixed corpus, to diff two versions of the code.

For every input, run ``verify --format json|text|csv``,
``curvature --all-pairs --format csv``, ``curvature --format json`` (the
adjacent table), and ``spectrum --format json`` and ``spectrum
--dump-matrix vertex|edge`` for each weighting that applies (unit, walk
and degree on edge lists, and graph too on weighted documents) in process, and
print one line per invocation: the exit code, the sha256 of stdout and
stderr, the input and the command.  The corpus is built here and nowhere
else: the families below (seed 0) as edge lists, and for each family
three weighted documents, with unit weights, one constant weight, and
random weights in [0.5, 2).  Then ``selftest --seed S`` runs for each
seed in SELFTEST_SEEDS, so the acceptance gate's lines are digested too.
Last, ``generate --family SPEC`` runs for each family and for one
malformed spec per kind of spec error, so the family grammar's graphs and
error messages are digested too.

Two versions of the code give the same bytes exactly when this script's
outputs are identical:

    PYTHONPATH=src python3 scripts/output_digest.py > before.txt
    # ... change the code ...
    PYTHONPATH=src python3 scripts/output_digest.py | diff before.txt -
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from edge_ricci.cli import run
from edge_ricci.graph_core import WeightedGraph, generate, serialize_weighted
from edge_ricci.rng import SplitMix64

FAMILIES = (
    "petersen",
    "complete:8",
    "circulant:20:1,3",
    "tree:30",
    "cycle:7",
    "star:6",
    "random:20:0.2",
    "random:12:0.6",
    "path:3",
    "bipartite:2:3",
)
# one per kind of spec error: unknown name, wrong arity, non-integer n,
# non-number p, non-integer offset, n out of range
MALFORMED = (
    "hexagon:6",
    "cycle:5:2",
    "complete:five",
    "random:8:half",
    "circulant:9:1,x",
    "cycle:2",
)
WEIGHTS = ("unit", "constant", "random")
SELFTEST_SEEDS = (0, 1)
COMMANDS = (
    ("verify", "--format", "json"),
    ("verify", "--format", "text"),
    ("verify", "--format", "csv"),
    ("curvature", "--all-pairs", "--format", "csv"),
    ("curvature", "--format", "json"),
)


def spectrum_commands(weightings: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """Eigenvalues as JSON for each weighting, then both matrix dumps for each."""
    return tuple(("spectrum", "--weighting", weighting, "--format", "json")
                 for weighting in weightings) + tuple(
        ("spectrum", "--weighting", weighting, "--dump-matrix", operator)
        for weighting in weightings for operator in ("vertex", "edge"))


def weighted_document(family: str, weights: str) -> str:
    """The family's weighted JSON document with the named kind of weights."""
    g = generate(family, seed=0)
    if weights == "unit":
        vertex = [1.0] * g.n_vertices
        edge = [1.0] * g.n_edges
    elif weights == "constant":
        vertex = [1.5] * g.n_vertices
        edge = [2.5] * g.n_edges
    else:
        rng = SplitMix64(11)
        vertex = [0.5 + 1.5 * rng.uniform() for _ in range(g.n_vertices)]
        edge = [0.5 + 1.5 * rng.uniform() for _ in range(g.n_edges)]
    return serialize_weighted(WeightedGraph(
        g,
        vertex_weight=dict(zip(g.labels, vertex)),
        edge_weight=dict(zip(map(g.edge_endpoints, range(g.n_edges)), edge)),
    ))


def digest(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    data = out.getvalue().encode() + b"\0" + err.getvalue().encode()
    return code, hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        plain = COMMANDS + spectrum_commands(("unit", "walk", "degree"))
        inputs = [(family, ["--family", family], plain) for family in FAMILIES]
        weighted = COMMANDS + spectrum_commands(("unit", "walk", "degree", "graph"))
        for family in FAMILIES:
            for weights in WEIGHTS:
                path = Path(tmp) / f"{len(inputs)}.json"
                path.write_text(weighted_document(family, weights), encoding="utf-8")
                inputs.append((f"{family}/{weights}",
                               ["--weighted", "--input", str(path)], weighted))
        for label, source, commands in inputs:
            for command in commands:
                code, sha = digest([command[0], *source, *command[1:]])
                print(f"{code} {sha} {label} {' '.join(command)}")
    for seed in SELFTEST_SEEDS:
        code, sha = digest(["selftest", "--seed", str(seed)])
        print(f"{code} {sha} gate selftest --seed {seed}")
    for spec in FAMILIES + MALFORMED:
        code, sha = digest(["generate", "--family", spec])
        print(f"{code} {sha} {spec} generate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
