"""The benchmark's own tests: inputs, correctness checks and tracer.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import random

import pytest

import checks
import pace
import run
import tracer as tracing
from workloads import WORKLOADS, graphs, random_graph

pkg = run.import_package()


def _connected(g) -> bool:
    adj = {v: set() for v in range(len(g.labels))}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, todo = {0}, [0]
    while todo:
        for y in adj[todo.pop()] - seen:
            seen.add(y)
            todo.append(y)
    return len(seen) == len(g.labels)


@pytest.mark.parametrize("name", ["dense-exact", "sparse-spectral", "weighted-float"])
def test_inputs_come_from_the_seed_alone(name):
    w = WORKLOADS[name]
    first = graphs(w, 3, 3)
    assert first == graphs(w, 3, 3)
    assert first != graphs(w, 4, 3)
    for g in first:
        assert (len(g.labels), len(g.edges)) == (w.n, w.m)
        assert len({frozenset(e) for e in g.edges}) == w.m
        assert _connected(g)
        if w.weighted:
            assert all(0.5 <= x < 2.0 for x in g.vertex_weights + g.edge_weights)


def _verify_op(tmp_path, g):
    op = run.VerifyOp(0, g, tmp_path, None)
    return op, op(pkg, "plain")


@pytest.mark.parametrize("weighted", [False, True])
def test_traced_verify_writes_the_same_bytes(tmp_path, weighted):
    op = run.VerifyOp(0, random_graph(random.Random(5), 8, 13, weighted), tmp_path, None)
    plain = op(pkg, "plain")
    t = tracing.Tracer()
    t.begin_op(0)
    with t.installed():
        traced = op(pkg, "traced")
    assert t.spans and op.same(plain, traced)
    assert op.check(plain, "plain") == []


def test_tracer_restores_every_binding():
    before = {name: getattr(pkg.curvature, name)
              for name in ("solve_wasserstein", "edge_measure", "pairwise_costs", "ricci")}
    row = pkg.edge_geometry.EdgeSpace.row
    oracle = pkg.transport.brute_force_wasserstein
    with tracing.Tracer().installed():
        assert pkg.curvature.solve_wasserstein is not before["solve_wasserstein"]
        assert pkg.acceptance.brute_force_wasserstein is not oracle
        assert pkg.acceptance.brute_force_wasserstein is pkg.transport.brute_force_wasserstein
        assert pkg.edge_geometry.EdgeSpace.row is not row
    assert {name: getattr(pkg.curvature, name) for name in before} == before
    assert pkg.edge_geometry.EdgeSpace.row is row
    assert pkg.curvature.solve_wasserstein is pkg.transport.solve_wasserstein


# C(m, 2) for the three graphs; the seed commit's solve counts were
# 2790, 4902 and 2067.
@pytest.mark.parametrize("spec, pairs", [
    ("complete:10", 990), ("random:30:0.15", 3570), ("tree:60", 1711)])
def test_every_edge_pair_reaches_curvature(spec, pairs):
    g = pkg.generate(spec)
    assert math.comb(g.n_edges, 2) == pairs
    t = tracing.Tracer()
    t.begin_op(0)
    with t.installed():
        pkg.verification_report(g)
    stats, notes = tracing.span_stats(t.spans)
    assert len(set(notes["curvature.ricci"])) == pairs
    assert stats["calls"]["transport.solve_wasserstein"] >= pairs


def test_self_times_partition_each_op(tmp_path):
    op = run.VerifyOp(0, random_graph(random.Random(2), 7, 10, False), tmp_path, None)
    t = tracing.Tracer()
    t.begin_op(0)
    with t.installed():
        op(pkg, "traced")
    (root,) = [s for s in t.spans if s[1] == -1]
    assert root[0] == "cli.run"
    stats, _ = tracing.span_stats(t.spans)
    assert math.isclose(sum(stats["self_s"].values()), root[3] - root[2], rel_tol=1e-9)
    assert stats["calls"]["graph_core.parse"] == 1


def test_checks_catch_wrong_reports(tmp_path):
    g = random_graph(random.Random(9), 9, 15, False)
    op, rc = _verify_op(tmp_path, g)
    text = op.output("plain").read_text()
    assert checks.check_verify(g, rc, text, None) == []
    ref = checks.reference_entry(g, rc, text)
    assert checks.check_verify(g, rc, text, ref) == []

    def tampered(edit):
        report = json.loads(text)
        edit(report)
        return checks.check_verify(g, rc, json.dumps(report), ref)

    assert tampered(lambda r: r["curvature"].pop())
    assert tampered(lambda r: r["curvature"][0].__setitem__(2, 1.5))
    assert tampered(lambda r: r["spectra"]["L1"].__setitem__(-1, r["spectra"]["L1"][-1] + 1e-6))
    assert tampered(lambda r: r["checks"][0].__setitem__("holds", not r["checks"][0]["holds"]))
    assert checks.check_verify(g, 2, text, None)


def test_pacer_scales_probe_work_to_its_reference_time():
    # Work that is the probe itself runs at whatever speed the probe does, so
    # its reference time is the reference probe time whatever the machine.
    loops = 100
    with pace.Pacer().running() as pacer:
        ref_s, raw_s, _ = pacer.timed(lambda: [pace.probe() for _ in range(loops)])
    assert raw_s > 0
    assert ref_s == pytest.approx(loops * pace.REF_PROBE_S, rel=0.25)


def test_benchmark_json_lists_the_tracer_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    layers = json.loads((run.ROOT / "bench" / "layers.json").read_text())
    listed = [m for layer in layers.values() for m in layer["metrics"]]
    assert sorted(listed) == sorted(name for name, _, _ in tracing.PER_LAYER)


def test_selftest_check_flags_raises_and_reference_changes():
    result = pkg.acceptance.CriterionResult
    good = [result(n, "t", n != 10, "ok") for n in range(1, 12)]
    want = [n != 10 for n in range(1, 12)]
    assert checks.check_selftest(good, want) == []
    assert checks.check_selftest(good[:10], want)
    assert checks.check_selftest(good, [True] * 11)
    crashed = good[:4] + [result(5, "t", False, "raised ValueError: x")] + good[5:]
    assert checks.check_selftest(crashed, None)
