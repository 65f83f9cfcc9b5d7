"""End-to-end command tests, run in-process through cli.main."""

import contextlib
import io
import itertools
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from edge_ricci.cli import main
from edge_ricci.graph_core import generate, serialize_edgelist


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_matches_library_serialization(capsys):
    code, out, err = run_cli(capsys, "generate", "--family", "star:5")
    assert code == 0 and err == ""
    assert out == serialize_edgelist(generate("star:5"))


def test_generate_seed_changes_random_families(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["generate", "--family", "random:8:0.4", "--seed", "1",
                 "--output", str(a)]) == 0
    assert main(["generate", "--family", "random:8:0.4", "--seed", "2",
                 "--output", str(b)]) == 0
    assert a.read_text() != b.read_text()
    capsys.readouterr()


def test_curvature_formats(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "curvature", "--family", "complete:3",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["e,e2,kappa", "v0-v1,v0-v2,0.5",
                                "v0-v1,v1-v2,0.5", "v0-v2,v1-v2,0.5"]
    code, out, _ = run_cli(capsys, "curvature", "--family", "cycle:4",
                           "--all-pairs", "--format", "json")
    assert code == 0
    rows = json.loads(out)["curvature"]
    assert len(rows) == 6  # C(4,2) pairs, including the two at distance 2
    assert [r[2] for r in rows].count(1.0) == 2
    code, out, _ = run_cli(capsys, "curvature", "--family", "path:3")
    assert code == 0 and out.splitlines()[0].split() == ["e", "e2", "kappa"]


def test_curvature_reads_edge_list_files(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("a b\nb c\n")
    code, out, _ = run_cli(capsys, "curvature", "--input", str(path),
                           "--format", "csv")
    assert code == 0 and out.splitlines()[1] == "a-b,b-c,0"


def test_curvature_reads_weighted_documents(capsys, tmp_path):
    doc = {"edges": [["a", "b"], ["b", "c"], ["c", "a", 2.0]],
           "vertex_weights": {"b": 3.0}}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "curvature", "--input", str(path),
                           "--weighted", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["curvature"]) == 3


def test_spectrum_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "cycle:4",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["operator"] == "edge" and payload["weighting"] == "degree"
    assert payload["values"] == pytest.approx([0.0, 1.0, 1.0, 2.0], abs=1e-9)
    assert payload["zero_multiplicity"] == 1
    assert payload["lambda1"] == pytest.approx(1.0)


def test_spectrum_lambda1_null_when_no_gap(capsys, tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text("a b\n")
    code, out, _ = run_cli(capsys, "spectrum", "--input", str(path),
                           "--operator", "edge", "--weighting", "unit",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [2.0] and payload["lambda1"] == 2.0
    code, out, _ = run_cli(capsys, "spectrum", "--family", "cycle:3",
                           "--zero-tol", "10", "--format", "json")
    assert json.loads(out)["lambda1"] is None


def test_spectrum_csv_and_text_are_pinned(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "cycle:4",
                           "--format", "csv")
    assert code == 0
    assert out == ("index,value\n0,1.1346560073810229e-16\n1,1\n"
                   "2,1.0000000000000002\n3,2.0000000000000004\n")
    code, out, _ = run_cli(capsys, "spectrum", "--family", "cycle:4",
                           "--format", "text")
    assert code == 0
    assert out == ("edge operator, degree weighting: 4 eigenvalues, 1 zero "
                   "(tol 2e-08)\n    0  1.13466e-16\n    1  1\n    2  1\n    3  2\n")


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_spectrum_rejects_a_negative_or_non_finite_zero_tol(capsys, value):
    code, _, err = run_cli(capsys, "spectrum", "--family", "cycle:4",
                           "--zero-tol", value)
    assert_one_error_line(code, err)
    assert "--zero-tol must be a finite number >= 0" in err


def test_verify_has_no_zero_tol(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "cycle:4", "--zero-tol", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_spectrum_dump_matrix(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "complete:4",
                           "--dump-matrix", "edge")
    assert code == 0
    header = out.splitlines()[0].split()
    assert header[:4] == ["#", "edge", "6", "6"]
    assert len(header[4]) == 12
    assert len(out.splitlines()) == 7



_DUMP_HASH = "29f5099b939a"  # sha256 of the all-'+' sign pattern of three edges
_DUMP_GOLDEN = {
    ("complete:3", "unit", "vertex"): "2 -1 -1\n-1 2 -1\n-1 -1 2\n",
    ("complete:3", "unit", "edge"): "2 1 -1\n1 2 1\n-1 1 2\n",
    ("complete:3", "walk", "vertex"): "1 -0.5 -0.5\n-0.5 1 -0.5\n-0.5 -0.5 1\n",
    ("complete:3", "walk", "edge"): "1 0.5 -0.5\n0.5 1 0.5\n-0.5 0.5 1\n",
    ("complete:3", "degree", "vertex"): "1 -0.5 -0.5\n-0.5 1 -0.5\n-0.5 -0.5 1\n",
    ("complete:3", "degree", "edge"): "1 0.5 -0.5\n0.5 1 0.5\n-0.5 0.5 1\n",
    ("path:4", "unit", "vertex"): "1 -1 0 0\n-1 2 -1 0\n0 -1 2 -1\n0 0 -1 1\n",
    ("path:4", "unit", "edge"): "2 -1 0\n-1 2 -1\n0 -1 2\n",
    ("path:4", "walk", "vertex"): "1 -1 0 0\n-0.5 1 -0.5 0\n0 -0.5 1 -0.5\n0 0 -1 1\n",
    ("path:4", "walk", "edge"): "1.5 -0.5 0\n-0.5 1 -0.5\n0 -0.5 1.5\n",
    ("path:4", "degree", "vertex"): "1 -1 0 0\n-1 1.5 -0.5 0\n0 -0.5 1.5 -1\n0 0 -1 1\n",
    ("path:4", "degree", "edge"): "2 -0.5 0\n-1 1 -1\n0 -0.5 2\n",
}
_WEIGHTED_DUMP_GOLDEN = {
    "vertex": (
        "# vertex 4 4 48d854359126\n"
        "5.3333333333333339 -2.3333333333333335 -3 0\n"
        "-0.41176470588235292 1.0588235294117647 -0.6470588235294118 0\n"
        "-0.31034482758620691 -0.37931034482758624 1.4827586206896552 "
        "-0.79310344827586199\n"
        "0 0 -2.2999999999999998 2.2999999999999998\n"),
    "edge": (
        "# edge 4 4 48d854359126\n"
        "2.7450980392156863 3 -0.6470588235294118 0\n"
        "2.3333333333333335 3.3103448275862069 0.37931034482758624 "
        "-0.7931034482758621\n"
        "-0.41176470588235292 0.31034482758620691 1.0263691683569982 "
        "-0.7931034482758621\n"
        "0 -0.31034482758620691 -0.37931034482758624 3.0931034482758619\n"),
}


@pytest.mark.parametrize("family, weighting, operator", sorted(_DUMP_GOLDEN))
def test_spectrum_dump_matrix_bytes_are_pinned(capsys, family, weighting, operator):
    code, out, _ = run_cli(capsys, "spectrum", "--family", family,
                           "--weighting", weighting, "--dump-matrix", operator)
    assert code == 0
    body = _DUMP_GOLDEN[family, weighting, operator]
    size = body.count("\n")
    assert out == f"# {operator} {size} {size} {_DUMP_HASH}\n" + body


@pytest.mark.parametrize("operator", ["vertex", "edge"])
def test_weighted_dump_matrix_bytes_are_pinned(capsys, tmp_path, operator):
    # non-constant, non-dyadic weights: the bytes pin the rounding of each sum
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "edges": [["a", "b", 0.7], ["b", "c", 1.1], ["c", "d", 2.3], ["a", "c", 0.9]],
        "vertex_weights": {"a": 0.3, "b": 1.7, "c": 2.9}}))
    code, out, _ = run_cli(capsys, "spectrum", "--input", str(path), "--weighted",
                           "--weighting", "graph", "--dump-matrix", operator)
    assert code == 0
    assert out == _WEIGHTED_DUMP_GOLDEN[operator]

def test_zero_tol_is_checked_before_a_matrix_dump(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--family", "cycle:4",
                             "--dump-matrix", "edge", "--zero-tol", "-1")
    assert_one_error_line(code, err)
    assert "--zero-tol must be a finite number >= 0" in err
    assert out == ""
    # a valid --zero-tol leaves the dump's bytes as they are
    code, out, _ = run_cli(capsys, "spectrum", "--family", "complete:3",
                           "--weighting", "degree", "--dump-matrix", "edge",
                           "--zero-tol", "0.5")
    assert code == 0
    assert out == f"# edge 3 3 {_DUMP_HASH}\n" + _DUMP_GOLDEN["complete:3", "degree", "edge"]


def test_verify_exit_codes_and_determinism(capsys):
    code, first, _ = run_cli(capsys, "verify", "--family", "complete:4",
                             "--format", "json")
    assert code == 0
    code, second, _ = run_cli(capsys, "verify", "--family", "complete:4",
                              "--format", "json")
    assert first == second  # byte-identical across runs
    payload = json.loads(first)
    assert set(payload) == {"graph", "checks", "curvature", "spectra"}
    # the 4-path carries two asserted tree-formula checks that fail
    code, out, _ = run_cli(capsys, "verify", "--family", "path:4")
    assert code == 1 and "FAIL tree-formula" in out


def test_verify_csv_is_curvature_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "complete:3",
                           "--format", "csv")
    assert code == 0
    assert out == "e,e2,kappa\n0,1,0.5\n0,2,0.5\n1,2,0.5\n"


# The full `selftest --seed 0` output, red census line included, so a
# miscounted or reworded criterion shows as a diff.
SELFTEST_SEED_0 = (
    "criterion  1 [PASS] complete graphs: curvature 1/2 and gap "
    "n/(2(n-2)): n in 3..6, all pairs exact, gaps within 1e-9\n"
    "criterion  2 [PASS] cycles: zero curvature and 4-/5-cycle spectra: n "
    "in 4..8 flat (adjacent and min-over-all), spectra within 1e-9\n"
    "criterion  3 [PASS] stars: curvature, gap, and bound equality: m in "
    "2..8, equality within 1e-9 at every size\n"
    "criterion  4 [PASS] complete bipartite: exact curvature table: "
    "(2,2),(2,3),(3,3),(2,4) all exact\n"
    "criterion  5 [PASS] spectral gap bound: corpus classification: 13 "
    "graphs classified and verified\n"
    "criterion  6 [PASS] curvature floor and ceiling on random graphs: "
    "4444 exact and 1218 weighted pair bounds hold\n"
    "criterion  7 [PASS] adjacent minimum extends to all pairs: 20 seeded "
    "graphs, exact comparison\n"
    "criterion  8 [PASS] vertex/edge spectra agree; kernel dimension: 62 "
    "spectrum/kernel checks\n"
    "criterion  9 [PASS] transport duality gaps and brute-force oracle: 96 "
    "gaps closed, 96 oracle comparisons agree\n"
    "criterion 10 [FAIL] tree curvature formula (in-range pairs): 42/128 "
    "in-range pairs match exactly; 26 pairs have formula > 1 and are out "
    "of range; first mismatches: path:4 #0 v0-v1,v1-v2: formula 1 vs kappa "
    "0; path:4 #0 v1-v2,v2-v3: formula 1 vs kappa 0; tree:4 #1 "
    "v0-v1,v1-v3: formula 1 vs kappa 0 (+83 more)\n"
    "criterion 11 [PASS] weighted gap bound and unweighted reduction: 15 "
    "weighted bounds hold; (1, 1/d) matches unweighted\n"
    "10/11 criteria passed\n"
)


def test_selftest_reports_each_criterion(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    lines = out.splitlines()
    assert len(lines) == 12
    for i, line in enumerate(lines[:11], start=1):
        assert line.startswith(f"criterion {i:2d} ")
    fails = [ln for ln in lines if "[FAIL]" in ln]
    # the tree-formula criterion is expected red: the closed form is wrong
    # on leaf pairs and the gate reports that rather than hiding it
    assert [ln.split()[1] for ln in fails] == ["10"]
    assert lines[-1] == "10/11 criteria passed"
    assert code == 1
    assert out == SELFTEST_SEED_0


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "curvature", "--family", "dodecahedron")
    assert code == 2 and "family spec is name[:p1[:p2]]" in err
    code, _, err = run_cli(capsys, "curvature", "--input",
                           str(tmp_path / "missing.txt"))
    assert code == 2 and "cannot read" in err
    code, _, err = run_cli(capsys, "curvature", "--family", "cycle:4",
                           "--weighted")
    assert code == 2 and "families are unweighted" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("a a\n")
    code, _, err = run_cli(capsys, "curvature", "--input", str(bad))
    assert code == 2 and "self loop" in err
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--family", "cycle:4", "--weighting", "fancy"])
    assert exc.value.code == 2
    capsys.readouterr()


def assert_one_error_line(code, err):
    assert code == 2
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_oversized_integer_weight_exits_2(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"edges": [["a", "b", 1' + "0" * 400 + ']]}')
    code, _, err = run_cli(capsys, "verify", "--input", str(path), "--weighted")
    assert_one_error_line(code, err)
    assert "too large for a float" in err


@pytest.mark.parametrize("vertex_weights", [[1, 2], [], 0])
def test_vertex_weights_not_an_object_exits_2(capsys, tmp_path, vertex_weights):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"edges": [["a", "b"], ["b", "c"]],
                                "vertex_weights": vertex_weights}))
    code, _, err = run_cli(capsys, "verify", "--input", str(path), "--weighted")
    assert_one_error_line(code, err)
    assert '"vertex_weights" must be an object' in err


def test_non_utf8_edge_list_exits_2(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"a b\n\xff\xfe c\n")
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert_one_error_line(code, err)
    assert "not UTF-8 text" in err


def test_json_the_parser_rejects_exits_2(capsys, tmp_path):
    # beyond the interpreter's digit limit, and nested past its recursion limit
    for text in ('{"edges": [["a", "b", ' + "1" * 5000 + "]]}",
                 "[" * 100000 + "]" * 100000):
        path = tmp_path / "g.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "curvature", "--input", str(path),
                               "--weighted")
        assert_one_error_line(code, err)
        assert "invalid JSON" in err


def test_output_flag_writes_files(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["verify", "--family", "cycle:5", "--format", "json",
                 "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert set(json.loads(target.read_text())) == {"graph", "checks",
                                                   "curvature", "spectra"}


_OVERFLOWING = '{"edges": [["a","b",1e308],["b","c",1e308],["c","d",1e308]]}'


@pytest.mark.parametrize("command", ["verify", "curvature"])
def test_overflowing_edge_degree_exits_2(capsys, tmp_path, command):
    # b-c's degree is 1e308 + 1e308 = inf; its measure used to sum to 0.0
    path = tmp_path / "g.json"
    path.write_text(_OVERFLOWING)
    code, _, err = run_cli(capsys, command, "--input", str(path), "--weighted")
    assert_one_error_line(code, err)
    assert "edge b-c has weighted degree inf" in err


def test_overflowing_operator_entries_exit_2(capsys, tmp_path):
    # the graph-weighted edge operator's diagonal overflows; its spectrum
    # used to print as nan with exit 0
    path = tmp_path / "g.json"
    path.write_text(_OVERFLOWING)
    code, out, err = run_cli(capsys, "spectrum", "--input", str(path), "--weighted",
                             "--weighting", "graph")
    assert_one_error_line(code, err)
    assert out == "" and "3x3 matrix has an infinite or NaN entry" in err


def test_overflowing_edge_distances_exit_2(capsys, tmp_path):
    # every degree is finite, but a-b to c-d costs 1e308 + 1e308 = inf; the
    # float certificate tolerance became inf and the pair printed as nan
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"]],
        "vertex_weights": {v: 1e308 for v in "abcdef"},
    }))
    for argv in (("curvature", "--all-pairs"), ("verify",)):
        code, out, err = run_cli(capsys, *argv, "--input", str(path), "--weighted")
        assert_one_error_line(code, err)
        assert out == "" and "edge distances from a-b reach inf" in err


_weights = st.one_of(st.floats(0.5, 2.0), st.floats(), st.integers(-1, 3),
                     st.sampled_from([1e308, 5e-324]))
_labels = st.sampled_from("abcde")
_edges = st.lists(st.sampled_from(list(itertools.combinations("abcde", 2))),
                  min_size=1, max_size=7, unique=True)
# an edge list, its first line sometimes made a comment or given a third token
_edge_lists = st.tuples(_edges, st.sampled_from(["", "#", " 1.5"])).map(
    lambda t: "".join(f"{u} {v}\n" for u, v in t[0]).replace("\n", t[1] + "\n", 1))
_weighted_docs = st.fixed_dictionaries(
    {"edges": _edges.flatmap(lambda es: st.tuples(*[
        st.one_of(st.just([u, v]), _weights.map(lambda w, u=u, v=v: [u, v, w]))
        for u, v in es]))},
    optional={"vertex_weights": st.dictionaries(_labels, _weights, max_size=5)},
).map(json.dumps)
_fuzz_inputs = st.one_of(
    st.binary(max_size=40),
    _edge_lists.map(str.encode),
    _weighted_docs.map(str.encode),
)


@settings(max_examples=60)
@given(_fuzz_inputs)
def test_fuzzed_inputs_exit_cleanly(data):
    # the exit code is 0, 1 or 2, stderr holds at most one error: line, and
    # nothing escapes as an exception (run in-process, it would fail here)
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        for command in ("curvature", "spectrum", "verify"):
            for flags in ((), ("--weighted",)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, "--input", path, *flags])
                assert code in (0, 1, 2)
                lines = err.getvalue().splitlines()
                assert sum(line.startswith("error:") for line in lines) <= 1
                assert "Traceback" not in err.getvalue()
    finally:
        os.unlink(path)
