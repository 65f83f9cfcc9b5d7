#!/usr/bin/env python3
"""Digest the CLI's output on a fixed corpus, to diff two versions of the code.

For every input, run ``verify --format json|text|csv``,
``curvature --all-pairs --format csv``, ``curvature --format json`` (the
adjacent table), and ``spectrum --format json`` and ``spectrum --operator
vertex|edge --format matrix`` for each weighting that applies (unit, walk
and degree on edge lists, and graph too on weighted documents) in process, and
print one line per invocation: the exit code, the sha256 of stdout and
stderr, the input and the command.  The corpus is built here and nowhere
else: the families below (seed 0) as edge lists; each family's edge list
again, read from a file with its lines reversed, so that the parser
assigns another vertex order than the family builder; one edge list whose
labels need JSON escapes; and for each family four weighted documents,
with unit weights, one constant weight, random weights in [0.5, 2), and
wide random weights 10**(-6 + 12u), twelve decades apart at the extremes.
Then ``selftest --seed S`` runs for each seed in SELFTEST_SEEDS, so the
acceptance gate's lines are digested too.
Then ``generate --family SPEC`` runs for each family and for one
malformed spec per kind of spec error, so the family grammar's graphs and
error messages are digested too.  Last come four weighted documents of
cycle:4 at extreme weights, with the weighted documents' commands: every
vertex weight 1e300, every edge weight 1e-200, every vertex weight 1e-300,
and vertex weights 1, 1e-20, 1e-20, 1e-20, where a float path sum absorbs
every vertex weight after the first.  Then ``verify --format json`` runs on
two documents that repeat a key, inside "vertex_weights" and at the top
level, and on a triangle's edge list and weighted document, each saved with
a leading UTF-8 byte order mark.  An invocation that raises instead of
exiting prints ``raised:<exception type>`` in place of its exit code, and
the run goes on.

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
from edge_ricci.graph_core import (
    WeightedGraph,
    generate,
    serialize_edgelist,
    serialize_weighted,
)
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
    "path:2",
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
WEIGHTS = ("unit", "constant", "random", "wide")
# a 5-cycle plus one chord on labels with a quote, a backslash, control
# characters (U+0008 must stay \u0008, not \b) and a non-ASCII letter
ESCAPES_EDGELIST = 'q" b\\\nb\\ c\x01\nc\x01 d\x08\nd\x08 \u00e9\n\u00e9 q"\nq" c\x01\n'
SELFTEST_SEEDS = (0, 1)
# (label, the vertex weights, every edge weight) of the cycle:4 documents
EXTREMES = (("vertex-1e300", (1e300,) * 4, 1.0), ("edge-1e-200", (1.0,) * 4, 1e-200),
            ("vertex-1e-300", (1e-300,) * 4, 1.0),
            ("vertex-absorbed", (1.0, 1e-20, 1e-20, 1e-20), 1.0))
# a triangle plus a pendant edge, with a key repeated in vertex_weights,
# then with "edges" repeated (the second list drops the pendant)
_TRIANGLE = '["a","b",1],["b","c",1],["c","a",1]'
REPEATED_KEYS = (
    ("repeated-vertex-key",
     f'{{"edges": [{_TRIANGLE},["c","d",1]], "vertex_weights": {{"a": 3, "a": 1}}}}'),
    ("repeated-edges-key",
     f'{{"edges": [{_TRIANGLE},["c","d",1]], "edges": [{_TRIANGLE}]}}'),
)
# (label, text, flags) of the triangle inputs saved with a byte order mark
BOM_INPUTS = (
    ("bom-edgelist", "a b\nb c\nc a\n", ()),
    ("bom-weighted", f'{{"edges": [{_TRIANGLE}]}}', ("--weighted",)),
)
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
        ("spectrum", "--weighting", weighting, "--operator", operator, "--format", "matrix")
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

        def draw() -> float:
            u = rng.uniform()
            return 0.5 + 1.5 * u if weights == "random" else 10 ** (-6 + 12 * u)

        vertex = [draw() for _ in range(g.n_vertices)]
        edge = [draw() for _ in range(g.n_edges)]
    return document(g, vertex, edge)


def document(g, vertex: list[float], edge: list[float]) -> str:
    """g's weighted JSON document, weights listed in vertex and edge order."""
    return serialize_weighted(WeightedGraph(
        g,
        vertex_weight=dict(zip(g.labels, vertex)),
        edge_weight=dict(zip(map(g.edge_endpoints, range(g.n_edges)), edge)),
    ))


def reversed_edgelist(family: str) -> str:
    """The family's edge list with its lines in reverse order."""
    lines = serialize_edgelist(generate(family, seed=0)).splitlines()
    return "\n".join(reversed(lines)) + "\n"


def digest(argv: list[str]) -> tuple[int | str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as exc:  # a crash is one line, not the end of the run
            code = f"raised:{type(exc).__name__}"
    data = out.getvalue().encode() + b"\0" + err.getvalue().encode()
    return code, hashlib.sha256(data).hexdigest()


def print_digests(inputs) -> None:
    """One line per (label, source, commands) input and command."""
    for label, source, commands in inputs:
        for command in commands:
            code, sha = digest([command[0], *source, *command[1:]])
            print(f"{code} {sha} {label} {' '.join(command)}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        plain = COMMANDS + spectrum_commands(("unit", "walk", "degree"))
        inputs = [(family, ["--family", family], plain) for family in FAMILIES]
        edge_lists = [(f"{family}/reversed", reversed_edgelist(family))
                      for family in FAMILIES] + [("escapes", ESCAPES_EDGELIST)]
        for label, text in edge_lists:
            path = Path(tmp) / f"{len(inputs)}.txt"
            path.write_text(text, encoding="utf-8")
            inputs.append((label, ["--input", str(path)], plain))
        weighted = COMMANDS + spectrum_commands(("unit", "walk", "degree", "graph"))
        for family in FAMILIES:
            for weights in WEIGHTS:
                path = Path(tmp) / f"{len(inputs)}.json"
                path.write_text(weighted_document(family, weights), encoding="utf-8")
                inputs.append((f"{family}/{weights}",
                               ["--weighted", "--input", str(path)], weighted))
        print_digests(inputs)
        for seed in SELFTEST_SEEDS:
            code, sha = digest(["selftest", "--seed", str(seed)])
            print(f"{code} {sha} gate selftest --seed {seed}")
        for spec in FAMILIES + MALFORMED:
            code, sha = digest(["generate", "--family", spec])
            print(f"{code} {sha} {spec} generate")
        g = generate("cycle:4")
        extremes = []
        for label, vertex, edge in EXTREMES:
            path = Path(tmp) / f"{label}.json"
            path.write_text(document(g, list(vertex), [edge] * g.n_edges),
                            encoding="utf-8")
            extremes.append((f"cycle:4/{label}", ["--weighted", "--input", str(path)],
                             weighted))
        print_digests(extremes)
        verify_json = (("verify", "--format", "json"),)
        documents = []
        for label, text in REPEATED_KEYS:
            path = Path(tmp) / f"{label}.json"
            path.write_text(text, encoding="utf-8")
            documents.append((label, ["--weighted", "--input", str(path)], verify_json))
        for label, text, flags in BOM_INPUTS:
            path = Path(tmp) / f"{label}.txt"
            path.write_text(text, encoding="utf-8-sig")  # writes the mark first
            documents.append((label, [*flags, "--input", str(path)], verify_json))
        print_digests(documents)
    return 0


if __name__ == "__main__":
    sys.exit(main())
