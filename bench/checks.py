"""Correctness checks for the benchmark's ops.

On the default seed an op's output is compared with the reference made at
the commit the benchmark was defined on (``reference.json``).  On any other
seed the output is checked against invariants the benchmark computes from
its own input.  Each check returns a list of problems; empty means correct.
"""

from __future__ import annotations

import hashlib
import json
import math

from workloads import GraphInput

DEFAULT_SEED = 0
# Spectra and weighted curvature may change in the low bits (say, after an
# eigensolver swap); exact curvature tables may not.
REL_TOL = 1e-9


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def verdicts(report: dict) -> list:
    return [[c["name"], c["applicable"], c["holds"]] for c in report["checks"]]


def reference_entry(g: GraphInput, exit_code: int, text: str) -> dict:
    """What the reference keeps of one verify op's output."""
    report = json.loads(text)
    entry = {"exit": exit_code, "verdicts_sha256": digest(verdicts(report)),
             "spectra": report["spectra"]}
    if g.edge_weights is None:
        entry["curvature_sha256"] = digest(report["curvature"])
    else:
        entry["curvature"] = report["curvature"]
    return entry


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _program_edges(g: GraphInput) -> list[tuple[int, int]]:
    """Edges as the program orders them: endpoints numbered by first
    appearance in the file, pairs sorted (see ``graph_core.Graph``)."""
    first: dict[int, int] = {}
    for u, v in g.edges:
        for x in (u, v):
            first.setdefault(x, len(first))
    return sorted((min(first[u], first[v]), max(first[u], first[v])) for u, v in g.edges)


def adjacent_pairs(g: GraphInput) -> set[tuple[int, int]]:
    """(e, f) with e < f for every two edges that share a vertex, in program ordinals."""
    edges = _program_edges(g)
    return {(e, f) for e in range(len(edges)) for f in range(e + 1, len(edges))
            if set(edges[e]) & set(edges[f])}


def l1_trace(g: GraphInput) -> float:
    """Trace of L1 from the input: 2m, or sum_e w1(e) (1/w0(x) + 1/w0(y))."""
    if g.edge_weights is None:
        return 2.0 * len(g.edges)
    w0 = g.vertex_weights
    return math.fsum(w * (1.0 / w0[u] + 1.0 / w0[v])
                     for (u, v), w in zip(g.edges, g.edge_weights))


def check_verify(g: GraphInput, exit_code, text: str | None, ref: dict | None) -> list[str]:
    """Problems with one verify op's exit code and JSON report."""
    if exit_code not in (0, 1):
        return [f"exit code {exit_code!r}"]
    try:
        report = json.loads(text)
    except (TypeError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    failed = any(c["applicable"] and not c["diagnostic"] and not c["holds"]
                 for c in report["checks"])
    if exit_code != int(failed):
        problems.append(f"exit code {exit_code} but failed checks: {failed}")
    n, m = len(g.labels), len(g.edges)
    if (report["graph"]["vertices"], report["graph"]["edges"]) != (n, m):
        problems.append(f"graph size {report['graph']} != ({n}, {m})")
    rows = report["curvature"]
    pairs = [(e, f) for e, f, _ in rows]
    if len(set(pairs)) != len(pairs) or set(pairs) != adjacent_pairs(g):
        problems.append("curvature rows are not one per adjacent edge pair")
    if any(k > 1.0 for _, _, k in rows):
        problems.append("a curvature exceeds 1")
    spectra = report["spectra"]
    lengths = tuple(len(spectra.get(k, ())) for k in ("L0", "L1", "Lprime1"))
    if lengths != (n, m, m):
        problems.append(f"spectrum lengths {lengths} != ({n}, {m}, {m})")
    elif not _close(math.fsum(spectra["L1"]), l1_trace(g)):
        problems.append(f"sum of L1 eigenvalues {math.fsum(spectra['L1'])!r} "
                        f"!= trace {l1_trace(g)!r}")
    if ref is not None:
        problems += _against_reference(report, exit_code, ref)
    return problems


def _against_reference(report: dict, exit_code: int, ref: dict) -> list[str]:
    problems = []
    if exit_code != ref["exit"]:
        problems.append(f"exit code {exit_code} != reference {ref['exit']}")
    if digest(verdicts(report)) != ref["verdicts_sha256"]:
        problems.append("verdict vector differs from reference")
    if "curvature_sha256" in ref:
        if digest(report["curvature"]) != ref["curvature_sha256"]:
            problems.append("exact curvature table differs from reference")
    else:
        got, want = report["curvature"], ref["curvature"]
        if [r[:2] for r in got] != [r[:2] for r in want] or not all(
                _close(a[2], b[2]) for a, b in zip(got, want)):
            problems.append("weighted curvature differs from reference beyond 1e-9")
    for key, want in ref["spectra"].items():
        got = report["spectra"].get(key, [])
        if len(got) != len(want) or not all(_close(a, b) for a, b in zip(got, want)):
            problems.append(f"spectrum {key} differs from reference beyond 1e-9")
    return problems


def check_selftest(results, ref: list[bool] | None) -> list[str]:
    """Problems with one pass of the acceptance criteria."""
    numbers = [getattr(r, "number", None) for r in results]
    if numbers != list(range(1, 12)):
        return [f"criteria returned {numbers}, not 1..11"]
    problems = [f"criterion {r.number}: {r.detail}" for r in results
                if r.detail.startswith("raised")]
    passed = [r.passed for r in results]
    if ref is not None and passed != ref:
        problems.append(f"pass/fail vector {passed} != reference {ref}")
    return problems
