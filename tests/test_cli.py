"""End-to-end command tests, run in-process through cli.run."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from edge_ricci import cli
from edge_ricci.cli import run
from edge_ricci.graph_core import generate, parse_edgelist, serialize_edgelist


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_matches_library_serialization(capsys):
    code, out, err = run_cli(capsys, "generate", "--family", "star:5")
    assert code == 0 and err == ""
    assert out == serialize_edgelist(generate("star:5"))


def test_generate_seed_changes_random_families(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert run(["generate", "--family", "random:8:0.4", "--seed", "1",
                "--output", str(a)]) == 0
    assert run(["generate", "--family", "random:8:0.4", "--seed", "2",
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
        run(["verify", "--family", "cycle:4", "--zero-tol", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_spectrum_dump_matrix(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "complete:4",
                           "--operator", "edge", "--format", "matrix")
    assert code == 0
    assert out.splitlines()[0] == "# edge 6 6"
    assert len(out.splitlines()) == 7


def test_spectrum_matrix_dumps_the_named_operator(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "complete:4",
                           "--operator", "vertex", "--format", "matrix")
    assert code == 0
    assert out.splitlines()[0] == "# vertex 4 4"
    assert len(out.splitlines()) == 5


def test_the_retired_dump_matrix_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--family", "complete:4", "--dump-matrix", "edge"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "unrecognized arguments: --dump-matrix edge" in err


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
        "# vertex 4 4\n"
        "5.3333333333333339 -2.3333333333333335 -3 0\n"
        "-0.41176470588235292 1.0588235294117647 -0.6470588235294118 0\n"
        "-0.31034482758620691 -0.37931034482758624 1.4827586206896552 "
        "-0.79310344827586199\n"
        "0 0 -2.2999999999999998 2.2999999999999998\n"),
    "edge": (
        "# edge 4 4\n"
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
                           "--weighting", weighting, "--operator", operator,
                           "--format", "matrix")
    assert code == 0
    body = _DUMP_GOLDEN[family, weighting, operator]
    size = body.count("\n")
    assert out == f"# {operator} {size} {size}\n" + body


@pytest.mark.parametrize("operator", ["vertex", "edge"])
def test_weighted_dump_matrix_bytes_are_pinned(capsys, tmp_path, operator):
    # non-constant, non-dyadic weights: the bytes pin the rounding of each sum
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "edges": [["a", "b", 0.7], ["b", "c", 1.1], ["c", "d", 2.3], ["a", "c", 0.9]],
        "vertex_weights": {"a": 0.3, "b": 1.7, "c": 2.9}}))
    code, out, _ = run_cli(capsys, "spectrum", "--input", str(path), "--weighted",
                           "--weighting", "graph", "--operator", operator,
                           "--format", "matrix")
    assert code == 0
    assert out == _WEIGHTED_DUMP_GOLDEN[operator]


def test_zero_tol_is_checked_before_a_matrix_dump(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--family", "cycle:4",
                             "--operator", "edge", "--format", "matrix",
                             "--zero-tol", "-1")
    assert_one_error_line(code, err)
    assert "--zero-tol must be a finite number >= 0" in err
    assert out == ""
    # a valid --zero-tol leaves the dump's bytes as they are
    code, out, _ = run_cli(capsys, "spectrum", "--family", "complete:3",
                           "--weighting", "degree", "--operator", "edge",
                           "--format", "matrix", "--zero-tol", "0.5")
    assert code == 0
    assert out == "# edge 3 3\n" + _DUMP_GOLDEN["complete:3", "degree", "edge"]


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


# Weights in [0.5, 2) with vertex weights that are not constant: every
# curvature comes from the float transport path.
_FLOAT_DOC = {
    "edges": [["v0", "v1", 0.772], ["v0", "v3", 1.492], ["v0", "v5", 1.002],
              ["v0", "v7", 0.797], ["v1", "v4", 1.234], ["v1", "v7", 1.241],
              ["v2", "v3", 1.22], ["v2", "v5", 1.187], ["v2", "v7", 0.897],
              ["v3", "v4", 0.881], ["v4", "v5", 1.538], ["v4", "v6", 0.987],
              ["v5", "v7", 1.512], ["v6", "v7", 1.681]],
    "vertex_weights": {"v0": 1.799, "v1": 1.916, "v2": 0.852, "v3": 0.856,
                       "v4": 1.602, "v5": 1.363, "v6": 0.803, "v7": 1.516},
}
_VERIFY_JSON_SHA256 = {
    "weighted": "780535b51382ee2fdb908a83c42ddc35d737ee97bafa585a52220e6d266120ba",
    "random:10:0.6": "b4f2a6c7723e74b065d94216f1fc75ade3ad649be7402bff8a95a5e285b049e0",
}


@pytest.mark.parametrize("source", sorted(_VERIFY_JSON_SHA256))
def test_verify_json_bytes_are_pinned(capsys, tmp_path, source):
    # a solver change that moves one float bit of a curvature, a potential
    # or an eigenvalue changes these digests
    if source == "weighted":
        path = tmp_path / "g.json"
        path.write_text(json.dumps(_FLOAT_DOC))
        argv = ["--input", str(path), "--weighted"]
    else:
        argv = ["--family", source, "--seed", "0"]
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_JSON_SHA256[source]


@pytest.mark.parametrize("source", ["path:2", "weighted"])
def test_verify_reports_on_the_one_edge_graph(capsys, tmp_path, source):
    # K2's edge has no neighbor, so degree weighting is undefined there: its
    # two checks are n/a and Lprime1 is empty, where verify used to exit 2
    if source == "weighted":
        path = tmp_path / "k2.json"
        path.write_text('{"edges": [["a", "b", 2.0]]}')
        argv = ["--input", str(path), "--weighted"]
    else:
        argv = ["--family", source]
    code, out, err = run_cli(capsys, "verify", *argv, "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["curvature"] == [] and payload["spectra"]["Lprime1"] == []
    checks = {c["name"]: c for c in payload["checks"]}
    held = ("unit", "walk") if source == "path:2" else ("graph",)
    for weighting in held:
        for name in ("vertex-edge-nonzero-spectra", "edge-kernel-dimension"):
            check = checks[f"{name}[{weighting}]"]
            assert check["applicable"] and check["holds"]
    if source == "path:2":
        for name in ("vertex-edge-nonzero-spectra", "edge-kernel-dimension"):
            check = checks[f"{name}[degree]"]
            assert not check["applicable"]
            assert check["reason"] == "degree weighting needs every edge to have a neighbor"
    # asked for directly, the undefined operator is still an input error
    code, _, err = run_cli(capsys, "spectrum", *argv, "--weighting", "degree")
    assert_one_error_line(code, err)
    code, out, err = run_cli(capsys, "curvature", *argv, "--format", "json")
    assert (code, out, err) == (0, '{\n  "curvature": []\n}\n', "")


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
        run(["spectrum", "--family", "cycle:4", "--weighting", "fancy"])
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
    # the offset counts a leading byte order mark: it is a file offset
    path.write_bytes(b"\xef\xbb\xbfa b\n\xff c\n")
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert_one_error_line(code, err)
    assert "not UTF-8 text (byte 7: invalid start byte)" in err


_OVERFLOWING_KAPPA = json.dumps({
    "edges": [["a", "b", 1], ["b", "c", 1], ["c", "a", 1], ["c", "d", 1], ["a", "e", 1]],
    "vertex_weights": {"a": 1e10, "b": 1e-300, "c": 1e10, "d": 1e10, "e": 1e10}})
_OVERFLOW_MESSAGE = ("curvature of a-b,b-c overflows a float: "
                     "W 6666666666.666666 over edge distance 1e-300")


@pytest.mark.parametrize("argv", [
    ("curvature", "--format", "json"),
    ("curvature", "--all-pairs"),
    ("verify", "--format", "json"),
])
def test_overflowing_curvature_is_one_error_line(capsys, tmp_path, argv):
    path = tmp_path / "g.json"
    path.write_text(_OVERFLOWING_KAPPA)
    code, out, err = run_cli(capsys, *argv, "--input", str(path), "--weighted")
    assert_one_error_line(code, err)
    assert out == "" and _OVERFLOW_MESSAGE in err


_TRIANGLE_AND_PENDANT = '{"edges": [["a", "b", 1], ["b", "c", 1], ["c", "a", 1], ["c", "d", 1]]}'


@pytest.mark.parametrize("source, message", [
    ('[1, 2]', 'must be an object with an "edges" list'),
    ('{"edges": [["a"]]}', "edges[0]: expected [u, v] or [u, v, w]"),
    ('{"edges": [["a", "b", 1, 2]]}', "edges[0]: expected [u, v] or [u, v, w]"),
    ('{"edges": ["ab"]}', "edges[0]: expected [u, v] or [u, v, w]"),
    ('{"edges": [["", "b"]]}', "vertex label '' must be a nonempty string"),
    ('{"edges": [[true, "b"]]}', "vertex label must be a string or integer, got True"),
    ("tree:1", "random tree needs n >= 2"),
    ("random:1:0.5", "random connected graph needs n >= 2"),
    ("circulant:2:1", "circulant needs n >= 3"),
    # two faults: the unknown vertex is met before its weight is read
    ('{"edges": [["a", "b"], ["b", "c"]], "vertex_weights": {"zz": -1}}',
     "vertex weight for unknown vertex 'zz'"),
    # a misspelled block used to be read as absent: unit weights
    ('{"edges": [["a", "b"], ["b", "c"]], "vertex_weight": {"a": 2}}',
     "unknown key 'vertex_weight' in weighted document"),
    # json.loads keeps the last of a repeated key: these ran at a = 1 and
    # on the triangle alone
    (_TRIANGLE_AND_PENDANT[:-1] + ', "vertex_weights": {"a": 3, "a": 1}}',
     "repeated key 'a' in weighted document"),
    (_TRIANGLE_AND_PENDANT[:-1] + ', "edges": [["a", "b", 1], ["b", "c", 1], ["c", "a", 1]]}',
     "repeated key 'edges' in weighted document"),
    # W(a-b, b-c) ~ 6.7e9 over d = 1e-300: kappa overflows to -inf, which
    # the JSON report used to print as a bare -inf
    (_OVERFLOWING_KAPPA, _OVERFLOW_MESSAGE),
    ("star:0", "star needs m >= 1, got 0"),
])
def test_malformed_input_exits_2(capsys, tmp_path, source, message):
    if source.startswith(("[", "{")):
        path = tmp_path / "g.json"
        path.write_text(source)
        argv = ["--input", str(path), "--weighted"]
    else:
        argv = ["--family", source]
    code, out, err = run_cli(capsys, "verify", *argv)
    assert_one_error_line(code, err)
    assert out == "" and message in err


def test_integer_labels_read_as_strings(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"edges": [[1, 2], [2, 3]]}')
    code, out, err = run_cli(capsys, "curvature", "--input", str(path), "--weighted",
                             "--format", "csv")
    assert code == 0 and err == ""
    assert out == "e,e2,kappa\n1-2,2-3,0\n"


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
    code = run(["verify", "--family", "cycle:5", "--format", "json",
                "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert set(json.loads(target.read_text())) == {"graph", "checks",
                                                   "curvature", "spectra"}


@pytest.mark.parametrize("argv", [
    ("generate", "--family", "cycle:3"),
    ("curvature", "--family", "cycle:3"),
    ("spectrum", "--family", "cycle:3"),
    ("verify", "--family", "cycle:3"),
])
def test_an_unwritable_output_exits_2(capsys, tmp_path, argv):
    # a directory in place of the file; exit 1 would read "a check failed"
    code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path))
    assert_one_error_line(code, err)
    assert out == "" and err.startswith(f"error: cannot write {tmp_path}: ")
    missing = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, *argv, "--output", str(missing))
    assert_one_error_line(code, err)
    assert out == "" and err.startswith(f"error: cannot write {missing}: ")


@pytest.mark.parametrize("text,flags", [
    ("v0 v1\nv1 v2\nv2 v0\n", ()),
    ('{"edges": [["a", "b", 2.0], ["b", "c"], ["c", "a", 0.5]], '
     '"vertex_weights": {"a": 3}}', ("--weighted",)),
])
def test_a_leading_byte_order_mark_is_ignored(capsys, tmp_path, text, flags):
    # the mark once became part of the first label (a 4-vertex path in place
    # of the triangle), and JSON rejected it
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    runs = [run_cli(capsys, "verify", "--input", str(path), *flags, "--format", "json")
            for path in (plain, marked)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and '"vertices": 3' in runs[0][1]


def test_curvature_csv_quotes_names_holding_commas_or_quotes(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text('a,b c\nc "d\n"d a,b\n')
    code, out, err = run_cli(capsys, "curvature", "--input", str(path),
                             "--all-pairs", "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 3 for row in rows)
    g = parse_edgelist(path.read_text())
    assert [tuple(row[:2]) for row in rows[1:]] == [
        (g.edge_name(e), g.edge_name(f))
        for e, f in itertools.combinations(range(g.n_edges), 2)]


@pytest.mark.parametrize("doc", [
    '{"edges": [["a","b","2.5"],["b","c"]]}',
    '{"edges": [["a","b",true],["b","c"]]}',
    '{"edges": [["a","b",false],["b","c"]]}',
    '{"edges": [["a","b"],["b","c"]], "vertex_weights": {"b": "3"}}',
    '{"edges": [["a","b",[1]],["b","c"]]}',
])
def test_weights_that_are_not_numbers_exit_2(capsys, tmp_path, doc):
    # a JSON string or boolean used to be read as a float, so "2.5" was
    # 2.5 and true was 1.0; false was rejected as "got 0.0"
    path = tmp_path / "g.json"
    path.write_text(doc)
    code, _, err = run_cli(capsys, "verify", "--input", str(path), "--weighted")
    assert_one_error_line(code, err)
    assert "is not a number" in err


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


def test_subnormal_vertex_weight_error_names_the_weighting(capsys, tmp_path):
    # a vertex weight of 5e-324 overflows the symmetrized operator; the
    # eigensolver's error used to name neither the side nor the weighting
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"edges": [["a", "b", 1.0], ["b", "c", 1.0]],
                                "vertex_weights": {"a": 5e-324}}))
    code, out, err = run_cli(capsys, "verify", "--input", str(path), "--weighted")
    assert_one_error_line(code, err)
    assert out == "" and err == ("error: edge side, graph weighting: "
                                 "2x2 matrix has an infinite or NaN entry\n")


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


@pytest.mark.parametrize("vertex, edge", [(1e300, 1.0), (1.0, 1e-200), (1e-300, 1.0)])
def test_extreme_uniform_weights_verify_without_a_traceback(capsys, tmp_path, vertex, edge):
    # the squared Frobenius norm of the Gram side used to underflow to 0.0,
    # a ZeroDivisionError, or overflow to inf, a FAIL; the moment check now
    # holds at all three (the kernel dimension may FAIL: its zero threshold
    # has a floor of 1e-8)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "edges": [[u, v, edge] for u, v in ("ab", "bc", "cd", "da")],
        "vertex_weights": {v: vertex for v in "abcd"},
    }))
    code, out, err = run_cli(capsys, "verify", "--input", str(path), "--weighted")
    assert code in (0, 1) and err == ""
    assert "  ok   vertex-edge-nonzero-spectra[graph]: " in out


_weights = st.one_of(st.floats(0.5, 2.0), st.floats(), st.integers(-1, 3),
                     st.sampled_from([1e308, 5e-324]), st.booleans(),
                     st.sampled_from(["2.5", " 3e0 ", "1", "nan"]))
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
                    code = run([command, "--input", path, *flags])
                assert code in (0, 1, 2)
                lines = err.getvalue().splitlines()
                assert sum(line.startswith("error:") for line in lines) <= 1
                assert "Traceback" not in err.getvalue()
    finally:
        os.unlink(path)


def _outcomes(capsys, runs):
    """(exit code, stdout, stderr) of each argv run in turn in this process;
    argparse's own exits (usage errors, --help) count by their code."""
    out = []
    for argv in runs:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_the_parser_is_built_once_and_answers_as_a_fresh_one(capsys, monkeypatch):
    # an input error, --help, a report that fails a check, one that
    # passes, a spectrum, a usage error, an edge list and a subcommand's help
    runs = [["verify", "--family", "k4"], ["--help"], ["verify", "--family", "path:4"],
            ["verify", "--family", "complete:4", "--format", "json"],
            ["spectrum", "--family", "cycle:5", "--format", "csv"], ["spectrum", "--zero-tol"],
            ["generate", "--family", "star:4"], ["verify", "--help"]]
    cli.build_parser.cache_clear()
    shared = _outcomes(capsys, runs)
    assert cli.build_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _outcomes(capsys, runs)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 1, 0, 0, 2, 0, 0]
    assert all(out for code, out, _ in shared if code == 0)


def test_importing_the_cli_leaves_the_acceptance_criteria_unloaded():
    code = ("import sys, edge_ricci.cli; "
            "sys.exit('edge_ricci.acceptance' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("command,family", [("generate", "star:10000000"),
                                            ("verify", "cycle:10000000")])
def test_a_graph_too_large_for_memory_exits_2_with_one_error_line(command, family):
    # ten million vertices need gigabytes; under a 256 MiB address-space
    # limit the child runs out of memory within about a second
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-m", "edge_ricci", command, "--family", family],
                          env=env, preexec_fn=limit, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {command}: out of memory"]
