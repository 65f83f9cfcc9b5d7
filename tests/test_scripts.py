"""The scripts under scripts/ run end to end on small inputs."""

import collections
import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import types
from fractions import Fraction

import pytest

from edge_ricci import transport


@pytest.mark.parametrize("name, argv", [
    ("family_survey", ["--families", "complete:4", "star:4", "cycle:5"]),
    ("family_survey", ["--families", "random:6:0.95", "tree:7", "--seeds", "0..4"]),
])
def test_script_exits_zero(name, argv, capsys, load_script):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out


def _table(out: str) -> list[str]:
    """The survey's rows: the lines after the header, up to the census."""
    lines = out.splitlines()[2:]
    return lines[:next(i for i, line in enumerate(lines) if " graphs: " in line)]


def test_family_survey_prints_stars_at_zero_slack(capsys, load_script):
    # every star is the equality case; its slack is a rounding residue of
    # either sign, printed as 0
    assert load_script("family_survey").main([]) == 0
    out = capsys.readouterr().out
    rows = _table(out)
    assert not any("-0.000000" in row for row in rows)
    stars = [row for row in rows if row.startswith("star:")]
    assert len(stars) == 8
    assert all(row.endswith(" 0.000000  <- equality") for row in stars)
    assert out.splitlines()[-2:] == [
        "28 graphs: 0 with unequal edge degrees, 10 with curvature floor <= 0, "
        "18 where the bound applies",
        "slack min/mean/max 0.000000 0.551720 1.000000"]


def test_family_survey_marks_a_right_side_at_or_below_zero_vacuous(capsys, load_script):
    # complete:3 has kappa_min 1/2 and d = 2, so its right side is 1/2;
    # complete:4 (d = 4) reaches 0 and complete:5 (d = 6) -1/6
    families = ["complete:3..5", "star:4"]
    assert load_script("family_survey").main(["--families", *families]) == 0
    rows = _table(capsys.readouterr().out)
    marked = {row.split()[0]: row.endswith("  <- vacuous") for row in rows}
    assert marked == {"complete:3": False, "complete:4": True, "complete:5": True,
                      "star:4": False}


def test_family_survey_builds_a_seeded_family_once_per_seed(monkeypatch, capsys, load_script):
    module = load_script("family_survey")
    built = []
    generate = module.generate
    monkeypatch.setattr(module, "generate",
                        lambda spec, seed=None: built.append((spec, seed)) or generate(spec, seed))
    argv = ["--families", "tree:7", "complete:3..4", "--seeds", "2..3", "--show-inapplicable"]
    assert module.main(argv) == 0
    assert built == [("tree:7", 2), ("tree:7", 3), ("complete:3", None), ("complete:4", None)]
    rows = _table(capsys.readouterr().out)
    assert [row.split(" n/a: ")[0].split()[:2] for row in rows] == [
        ["tree:7", "#2"], ["tree:7", "#3"], ["complete:3", "2"], ["complete:4", "4"]]


@pytest.mark.parametrize("seeds", ["5..2", "x", "1..y"])
def test_family_survey_rejects_a_seed_range_naming_no_seed(seeds, capsys, load_script):
    with pytest.raises(SystemExit) as exc:
        load_script("family_survey").main(["--seeds", seeds])
    assert exc.value.code == 2
    assert f"invalid seed_range value: '{seeds}'" in capsys.readouterr().err


@pytest.mark.parametrize("spec, error", [
    ("foo:3", "error: unrecognized family spec 'foo:3'; family spec is "),
    ("complete:a..4", "error: family spec 'complete:a..4': 'a..4' is not a range a..b, a <= b"),
    ("complete:4..2", "error: family spec 'complete:4..2': '4..2' is not a range a..b, a <= b"),
])
def test_family_survey_rejects_a_malformed_spec_before_the_header(spec, error, capsys,
                                                                  load_script):
    # exit 1 means a violated check; a spec that names no graph is bad usage
    assert load_script("family_survey").main(["--families", "complete:3", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(error) and err.count("\n") == 1


def test_family_survey_aligns_seeded_rows_with_the_header(capsys, load_script):
    # 'random:6:0.95 #12' is 17 characters, one past the default width of
    # the family column; every column, also on n/a rows, ends under its
    # heading
    argv = ["--families", "random:6:0.95", "--seeds", "6..12", "--show-inapplicable"]
    assert load_script("family_survey").main(argv) == 0
    out = capsys.readouterr().out
    header, rows = out.splitlines()[0], _table(out)

    def ends(line):
        return [m.end() for m in re.finditer(r"\S+", line[17:])][:4]

    assert header.startswith("family" + " " * 12) and len(rows) == 7
    assert any(row.startswith("random:6:0.95 #12 ") for row in rows)
    assert all(ends(row) == ends(header) for row in rows)


@pytest.mark.parametrize("argv, applicable", [
    # 7 vertices, p = 0.5: edge degrees unequal on every graph
    (["--families", "random:7:0.5", "--seeds", "0..2"], False),
    (["--families", "random:6:0.95", "--seeds", "0..2"], True),
])
def test_family_survey_says_when_the_bound_was_never_checked(argv, applicable, capsys,
                                                             load_script):
    assert load_script("family_survey").main(argv) == 0
    census = {False: ["3 graphs: 3 with unequal edge degrees, 0 with curvature floor <= 0, "
                      "0 where the bound applies",
                      "the bound's hypotheses held on no graph: the gap bound was not checked"],
              True: ["3 graphs: 1 with unequal edge degrees, 0 with curvature floor <= 0, "
                     "2 where the bound applies",
                     "slack min/mean/max 1.000000 1.000000 1.000000"]}
    assert capsys.readouterr().out.splitlines()[-2:] == census[applicable]


def test_family_survey_counts_graphs_with_no_adjacent_pair_apart(capsys, load_script):
    # K2 (path:2, star:1) has one edge, so no adjacent pair and no
    # curvature floor; path:3 has one pair, of curvature 0
    assert load_script("family_survey").main(["--families", "path:2", "star:1", "path:3"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "3 graphs: 0 with unequal edge degrees, 2 with no adjacent edge pair, "
        "1 with curvature floor <= 0, 0 where the bound applies",
        "the bound's hypotheses held on no graph: the gap bound was not checked"]


def test_family_survey_default_sweep_bytes_are_pinned(capsys, load_script):
    # a change that moves one printed digit or one census count of the
    # default sweep changes this digest
    assert load_script("family_survey").main([]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5ef3981bf2f631f619dbc75d5eba57afbe1ffc657a05c57a6243d26c8fb33a4a")


def test_output_digest_covers_every_input_and_command(monkeypatch, capsys, load_script):
    module = load_script("output_digest")
    monkeypatch.setattr(module, "FAMILIES", ("cycle:4", "star:4"))
    monkeypatch.setattr(module, "SELFTEST_SEEDS", (0,))
    assert module.main() == 0
    lines = capsys.readouterr().out.splitlines()
    # two families, their two reversed edge lists and the escapes edge list
    # with five commands, three spectra and six matrix dumps each, eight
    # weighted documents with five commands, four spectra and eight matrix
    # dumps each, one selftest, generate for the two families and for the
    # six malformed specs, the four extreme-weight documents like the
    # weighted ones, then verify on the two repeated-key documents and the
    # two byte-order-marked triangles
    assert len(lines) == 5 * (5 + 3 + 6) + 8 * (5 + 4 + 8) + 1 + 2 + 6 + 4 * 17 + 2 + 2
    assert all(len(line.split()[1]) == 64 for line in lines)
    # exit 1 is a report with a failed check, not a crash; a malformed spec
    # is bad usage; a crash would read raised:<type>
    codes = [line.split()[0] for line in lines]
    assert all(code in ("0", "1") for code in codes[:-78] + codes[-72:-4])
    assert codes[-78:-72] == ["2"] * 6
    assert codes[-4:] == ["2", "2", "0", "0"]
    assert lines[0].endswith(" cycle:4 verify --format json")
    assert lines[4].endswith(" cycle:4 curvature --format json")
    assert lines[5].endswith(" cycle:4 spectrum --weighting unit --format json")
    assert lines[13].endswith(" cycle:4 spectrum --weighting degree"
                              " --operator edge --format matrix")
    assert lines[14].endswith(" star:4 verify --format json")
    assert lines[28].endswith(" cycle:4/reversed verify --format json")
    assert lines[42].endswith(" star:4/reversed verify --format json")
    assert lines[56].endswith(" escapes verify --format json")
    assert lines[69].endswith(" escapes spectrum --weighting degree"
                              " --operator edge --format matrix")
    assert lines[70].endswith(" cycle:4/unit verify --format json")
    assert lines[121].endswith(" cycle:4/wide verify --format json")
    assert lines[177].endswith(" star:4/random spectrum --weighting unit --format json")
    assert lines[180].endswith(" star:4/random spectrum --weighting graph --format json")
    assert lines[186].endswith(" star:4/random spectrum --weighting degree"
                               " --operator edge --format matrix")
    assert lines[188].endswith(" star:4/random spectrum --weighting graph"
                               " --operator edge --format matrix")
    assert lines[189].endswith(" star:4/wide verify --format json")
    assert lines[205].endswith(" star:4/wide spectrum --weighting graph"
                               " --operator edge --format matrix")
    assert lines[206].endswith(" gate selftest --seed 0")
    assert lines[207].endswith(" cycle:4 generate")
    assert lines[208].endswith(" star:4 generate")
    assert lines[209].endswith(" hexagon:6 generate")
    assert lines[214].endswith(" cycle:2 generate")
    assert lines[215].endswith(" cycle:4/vertex-1e300 verify --format json")
    assert lines[249].endswith(" cycle:4/vertex-1e-300 verify --format json")
    assert lines[266].endswith(" cycle:4/vertex-absorbed verify --format json")
    assert lines[-5].endswith(" cycle:4/vertex-absorbed spectrum --weighting graph"
                              " --operator edge --format matrix")
    assert lines[-4].endswith(" repeated-vertex-key verify --format json")
    assert lines[-3].endswith(" repeated-edges-key verify --format json")
    assert lines[-2].endswith(" bom-edgelist verify --format json")
    assert lines[-1].endswith(" bom-weighted verify --format json")


_SEEDED = ["--families", "random:7:0.5", "--seeds", "0..2"]


def test_family_survey_reports_a_solved_pair_below_the_adjacent_minimum(monkeypatch, capsys,
                                                                        load_script):
    # a solved all-pairs minimum 1/100 below the adjacent one stops the
    # sweep at its first graph with the violation line
    module = load_script("family_survey")
    ricci_all_pairs = module.ricci_all_pairs

    def lowered(g):
        for key, kappa in ricci_all_pairs(g):
            yield key, kappa - Fraction(1, 100)

    monkeypatch.setattr(module, "ricci_all_pairs", lowered)
    assert module.main(_SEEDED) == 1
    adjacent = module.adjacent_minimum(module.generate("random:7:0.5", seed=0))[0]
    assert capsys.readouterr().out.splitlines()[2:] == [
        f"REDUCTION VIOLATION random:7:0.5 #0: adjacent minimum {adjacent}, "
        f"solved minimum {adjacent - Fraction(1, 100)}"]


def test_family_survey_solves_every_pair_once_per_graph(monkeypatch, capsys, load_script):
    # the default sweep's 28 graphs all have three edges or more but star:2
    module = load_script("family_survey")
    calls = []
    ricci_all_pairs = module.ricci_all_pairs
    monkeypatch.setattr(module, "ricci_all_pairs",
                        lambda g: calls.append(g) or ricci_all_pairs(g))
    assert module.main(_SEEDED) == 0
    assert len(calls) == 3 and len(set(map(id, calls))) == 3
    calls.clear()
    assert module.main([]) == 0
    assert len(calls) == 27
    capsys.readouterr()


def test_family_survey_solves_each_pair_once(monkeypatch, capsys, load_script):
    # every binding of solve_wasserstein and residual_cost counts its
    # calls, keyed by the graph under audit and the solved pair: the checks
    # all read the one table, whose solves check their own certificates
    module = load_script("family_survey")
    current, solved = [], collections.Counter()
    for name in ("solve_wasserstein", "residual_cost"):
        real = getattr(transport, name)

        def counting(problem, real=real):
            solved[current[-1], problem.mu.owner, problem.nu.owner] += 1
            return real(problem)

        for mod in [module, *(m for k, m in sys.modules.items() if k.startswith("edge_ricci"))]:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    audit = module.audit
    monkeypatch.setattr(module, "audit", lambda name, g: current.append(name) or audit(name, g))
    for argv in ([], _SEEDED):
        solved.clear()
        assert module.main(argv) == 0
        assert solved and set(solved.values()) == {1}
    capsys.readouterr()


def _plant(monkeypatch, module, name, change):
    """Replace module.name(x) by change(x, module.name(x)) on its first
    argument x, a graph."""
    real, seen = getattr(module, name), []

    def planted(x):
        if not seen:
            seen.append(x)
        return change(x, real(x)) if x is seen[0] else real(x)

    monkeypatch.setattr(module, name, planted)


def _planted_failure(monkeypatch, capsys, module, name, change, argv=_SEEDED):
    """The lines after the header once change is planted into module.name."""
    _plant(monkeypatch, module, name, change)
    assert module.main(argv) == 1
    return capsys.readouterr().out.splitlines()[2:]


def _residual_failure(plant_residual, capsys, module, kind):
    """The lines after the header once the residual certificate's defect
    kind (conftest.RESIDUAL_PLANTS) is planted into the solver's loop."""
    plant_residual(kind)
    assert module.main(_SEEDED) == 1
    return capsys.readouterr().out.splitlines()[2:]


# the first pair the survey solves: the solver's message names it and the
# instance size
_FIRST_SOLVE = ("CERTIFICATE VIOLATION random:7:0.5 #0: "
                "transport for pair (0,1) over 6x6 atoms, residual 3x3: ")


def test_family_survey_reports_a_plan_that_is_not_a_coupling(plant_residual, capsys, load_script):
    out = _residual_failure(plant_residual, capsys, load_script("family_survey"), "flow")
    assert out == [_FIRST_SOLVE + "invalid flow: row sums [0, 2, 1] for supply [1, 1, 1], "
                   "column sums [2, 1, 0] for demand [1, 1, 1]"]


def test_family_survey_reports_an_exact_duality_gap(plant_residual, capsys, load_script):
    out = _residual_failure(plant_residual, capsys, load_script("family_survey"), "objective")
    assert out == [_FIRST_SOLVE + "flow cost 3 != dual objective 2: complementary "
                   "slackness violated on arc (0,2): 1"]


def test_family_survey_reports_a_curvature_bound_that_fails(monkeypatch, capsys, load_script):
    module = load_script("family_survey")
    names = [c.name for c in module.check_bounds(module.generate("random:7:0.5", seed=0))]
    out = _planted_failure(
        monkeypatch, capsys, module, "check_bounds",
        lambda g, checks: [dataclasses.replace(checks[0], holds=False), *checks[1:]])
    assert out == [f"BOUND VIOLATION random:7:0.5 #0 {names[0]}"]


def test_family_survey_reports_a_gap_bound_that_fails(monkeypatch, capsys, load_script):
    out = _planted_failure(monkeypatch, capsys, load_script("family_survey"),
                           "check_spectral_gap_bound",
                           lambda g, chk: dataclasses.replace(chk, holds=False),
                           ["--families", "complete:4", "star:4"])
    assert out == ["GAP BOUND VIOLATION complete:4: lhs 0.9999999999999992 rhs 0.0"]


def test_bench_record_summarizes_result_lines(load_script):
    module = load_script("bench_record")
    lines = [
        'workload selftest  seed 0  ops 3\n{"correct": true, "attempted": 3, "failed": 0, '
        '"metrics": {"wall_s": {"value": 24.0, "unit": "s"}, '
        '"peak_rss_mb": {"value": 27.5, "unit": "MiB"}}}\n',
        '{"correct": true, "attempted": 3, "failed": 0, '
        '"metrics": {"wall_s": {"value": 26.0, "unit": "s"}, '
        '"peak_rss_mb": {"value": 27.0, "unit": "MiB"}}}',
    ]
    plain = [module.result_line(line) for line in lines]
    traced = {"correct": True, "attempted": 2, "failed": 0,
              "metrics": {"curvature.ricci.calls": {"value": 10603, "unit": "count"}}}
    summary = module.summarize(plain, traced)
    # statistics.quantiles(n=4) of two values reaches past both
    assert summary["plain"] == {
        "wall_s": {"median": 25.0, "q1": 23.5, "q3": 26.5, "unit": "s"},
        "peak_rss_mb": {"median": 27.25, "q1": 26.875, "q3": 27.625, "unit": "MiB"},
        "ops_per_run": 3,
    }
    assert summary["traced"] == {"ops": 2, "metrics": {"curvature.ricci.calls": 10603}}
    one = module.summarize(plain[:1], traced)["plain"]["wall_s"]
    assert (one["median"], one["q1"], one["q3"]) == (24.0, 24.0, 24.0)


@pytest.mark.parametrize("stdout", ["", "\n", "workload selftest  seed 0  ops 3\n",
                                    '{"correct": true', "[1, 2]\n"])
def test_bench_record_treats_a_run_without_a_result_line_as_failed(
        stdout, monkeypatch, capsys, load_script):
    module = load_script("bench_record")
    assert module.result_line(stdout) is None
    ran = []

    def run(argv, **kwargs):
        ran.append(argv)
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(module, "subprocess", types.SimpleNamespace(run=run))
    monkeypatch.setattr(module, "shutil", types.SimpleNamespace(rmtree=lambda *a, **k: None))
    assert module.main(["0", "--seeds", "0", "--seconds", "1"]) == 1
    assert len(ran) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


def test_bench_record_compiles_every_module_the_cli_imports(load_script):
    module = load_script("bench_record")
    cost = module.source_cost(repeats=1)
    # -X importtime lists each module a fresh interpreter imports, on stderr
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import edge_ricci.cli"],
                          env={**os.environ, "PYTHONPATH": str(module.ROOT / "src")},
                          capture_output=True, text=True, check=True)
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()}
    assert set(cost["compile_s"]) == {name for name in imported
                                      if name.partition(".")[0] == "edge_ricci"}
    assert {"edge_ricci", "edge_ricci.cli", "edge_ricci.transport"} <= set(cost["compile_s"])
    assert all(t > 0 for t in cost["compile_s"].values())
    assert cost["compile_s_total"] == pytest.approx(sum(cost["compile_s"].values()))
    assert "edge_ricci/edge_geometry.py" in cost["lines"]
    assert cost["lines_total"] == sum(cost["lines"].values()) > 0


def test_bench_record_counts_ast_nodes_past_comments_docstrings_and_line_breaks(load_script):
    module = load_script("bench_record")
    base = "def f(x, y):\n    return max(x, y) + 1\n"
    same = ['"""A module docstring."""\n' + base,
            "# a comment\n" + base.replace("+ 1", "+ 1  # and another"),
            'def f(x, y):\n    """A function docstring."""\n    return max(x, y) + 1\n',
            "def f(x,\n      y):\n\n    return max(\n        x, y) + 1\n"]
    assert {module.ast_nodes(source) for source in same} == {module.ast_nodes(base)}
    assert module.ast_nodes(base + "z = 0\n") > module.ast_nodes(base)
    cost = module.source_cost(repeats=1)
    assert set(cost["ast_nodes"]) == set(cost["lines"])
    assert cost["ast_nodes_total"] == sum(cost["ast_nodes"].values()) > 0


_PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize("tree, better, want", [
    # ten wins and a median gap of 0.2 against a parent IQR of 0.0575
    ([x - 0.2 for x in _PARENT], "lower", "gain"),
    # nine of ten still claims it; eight does not
    ([x - 0.2 for x in _PARENT[:9]] + [1.5], "lower", "gain"),
    ([x - 0.2 for x in _PARENT[:8]] + [1.5, 1.5], "lower", "no gain"),
    # ties count for neither side
    ([x - 0.2 for x in _PARENT[:8]] + _PARENT[8:], "lower", "no gain"),
    # ten wins, but a median gap of 0.05 inside the parent's IQR
    ([x - 0.05 for x in _PARENT], "lower", "no gain"),
    # a median 30 % worse passes the 0.25 bound
    ([x * 1.3 for x in _PARENT], "lower", "worse"),
    ([x * 1.2 for x in _PARENT], "lower", "no gain"),
    # where higher is better the same numbers read the other way
    ([x + 0.2 for x in _PARENT], "higher", "gain"),
    ([x - 0.3 for x in _PARENT], "higher", "worse"),
])
def test_bench_pair_verdict(tree, better, want, load_script):
    assert load_script("bench_pair").verdict(_PARENT, tree, better, 0.25) == want


def test_bench_pair_alternates_sides_and_prints_each_metric(monkeypatch, capsys, load_script):
    module = load_script("bench_pair")
    exported, order = [], []
    monkeypatch.setattr(module, "export", lambda ref, target: exported.append((ref, target)))
    monkeypatch.setattr(module, "snapshot",
                        lambda source, target: exported.append((source, target)))

    def run_bench(workload, seed, seconds, trace, root):
        side = root.name
        order.append((workload, side))
        value = 1.0 if side == "tree" else 2.0
        return {"correct": True, "metrics": {name: {"value": value} for name in
                                             ("wall_s", "op_p50_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(module, "run_bench", run_bench)
    argv = ["HEAD", "--workload", "selftest", "dense-exact", "--pairs", "3"]
    assert module.main(argv) == 0
    # both sides run from sibling copies made once, never from the working tree
    (ref, ref_root), (source, tree_root) = exported
    assert (ref, ref_root.name, source, tree_root.name) == ("HEAD", "ref", module.ROOT, "tree")
    assert ref_root.parent == tree_root.parent != module.ROOT
    # each pair runs both workloads, and each workload alternates its first side
    assert [w for w, _ in order] == (["selftest"] * 2 + ["dense-exact"] * 2) * 3
    for workload in ("selftest", "dense-exact"):
        assert [side for w, side in order if w == workload] == [
            "ref", "tree", "tree", "ref", "ref", "tree"]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * 6
    for table, workload in zip((lines[:6], lines[6:]), ("selftest", "dense-exact")):
        assert table[0].startswith(f"workload {workload}  ref HEAD  pairs 3  ")
        rows = table[2:]
        assert [row.split()[0] for row in rows] == [
            "wall_s", "op_p50_s", "setup_s", "peak_rss_mb"]
        assert all(row.split()[1:] == ["2", "1", "0", "3/3", "gain"] for row in rows)


@pytest.mark.parametrize("argv, seed", [([], 0), (["--seed", "1"], 1), (["--seed", "7"], 7)])
def test_bench_pair_passes_its_seed_to_every_run_and_prints_it(argv, seed, monkeypatch, capsys,
                                                              load_script):
    module = load_script("bench_pair")
    seeds = []
    monkeypatch.setattr(module, "export", lambda ref, target: None)
    monkeypatch.setattr(module, "snapshot", lambda source, target: None)

    def run_bench(workload, seed, seconds, trace, root):
        seeds.append(seed)
        return {"correct": True, "metrics": {name: {"value": 1.0} for name in
                                             ("wall_s", "op_p50_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(module, "run_bench", run_bench)
    assert module.main(["HEAD", "--workload", "selftest", "--pairs", "2", *argv]) == 0
    assert seeds == [seed] * 4
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith(f"workload selftest  ref HEAD  pairs 2  seed {seed}  seconds ")


def test_bench_pair_names_a_ref_git_cannot_export(capsys, load_script):
    module = load_script("bench_pair")
    assert module.main(["no-such-ref", "--workload", "selftest", "--pairs", "1"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: git archive no-such-ref: ")


@pytest.mark.parametrize("pairs", ["0", "-3", "x"])
def test_bench_pair_rejects_a_pair_count_below_one_before_any_export(pairs, monkeypatch,
                                                                    capsys, load_script):
    module = load_script("bench_pair")
    monkeypatch.setattr(module, "export", lambda ref, target: pytest.fail("exported"))
    with pytest.raises(SystemExit) as exc:
        module.main(["HEAD", "--workload", "selftest", "--pairs", pairs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert err.splitlines()[-1].endswith(f"error: argument --pairs: "
                                         f"invalid pair_count value: '{pairs}'")


def test_bench_pair_snapshot_copies_the_tree_as_git_lists_it(tmp_path, load_script):
    # an uncommitted edit and an untracked file are copied; an ignored file
    # and a tracked file deleted in the tree are not
    module = load_script("bench_pair")
    source, target = tmp_path / "source", tmp_path / "target"
    (source / "src").mkdir(parents=True)
    (source / ".gitignore").write_text("*.log\n")
    (source / "src" / "a.py").write_text("committed\n")
    (source / "gone.py").write_text("committed\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "seed"]):
        subprocess.run(git + argv, cwd=source, check=True, capture_output=True)
    (source / "src" / "a.py").write_text("edited\n")
    (source / "src" / "new.py").write_text("untracked\n")
    (source / "run.log").write_text("ignored\n")
    (source / "gone.py").unlink()
    module.snapshot(source, target)
    copied = sorted(p.relative_to(target).as_posix() for p in target.rglob("*") if p.is_file())
    assert copied == [".gitignore", "src/a.py", "src/new.py"]
    assert (target / "src" / "a.py").read_text() == "edited\n"
