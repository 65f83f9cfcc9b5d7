"""The scripts under scripts/ run end to end on small inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("family_survey", ["--families", "complete:4", "star:4", "cycle:5"]),
    ("random_audit", ["--samples", "5", "--vertices", "6"]),
])
def test_script_exits_zero(name, argv, capsys):
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out


def test_output_digest_covers_every_input_and_command(monkeypatch, capsys):
    module = _load("output_digest")
    monkeypatch.setattr(module, "FAMILIES", ("cycle:4", "star:4"))
    monkeypatch.setattr(module, "SELFTEST_SEEDS", (0,))
    assert module.main() == 0
    lines = capsys.readouterr().out.splitlines()
    # two edge lists with five commands, three spectra and six matrix dumps
    # each, six weighted documents with five commands, four spectra and
    # eight matrix dumps each, one selftest, then generate for the two
    # families and for the six malformed specs
    assert len(lines) == 2 * (5 + 3 + 6) + 6 * (5 + 4 + 8) + 1 + 2 + 6
    assert all(len(line.split()[1]) == 64 for line in lines)
    # exit 1 is a report with a failed check, not a crash; a malformed spec
    # is bad usage
    assert all(line.split()[0] in ("0", "1") for line in lines[:-6])
    assert all(line.split()[0] == "2" for line in lines[-6:])
    assert lines[0].endswith(" cycle:4 verify --format json")
    assert lines[4].endswith(" cycle:4 curvature --format json")
    assert lines[5].endswith(" cycle:4 spectrum --weighting unit --format json")
    assert lines[13].endswith(" cycle:4 spectrum --weighting degree --dump-matrix edge")
    assert lines[14].endswith(" star:4 verify --format json")
    assert lines[118].endswith(" star:4/random spectrum --weighting unit --format json")
    assert lines[121].endswith(" star:4/random spectrum --weighting graph --format json")
    assert lines[127].endswith(" star:4/random spectrum --weighting degree --dump-matrix edge")
    assert lines[129].endswith(" star:4/random spectrum --weighting graph --dump-matrix edge")
    assert lines[130].endswith(" gate selftest --seed 0")
    assert lines[131].endswith(" cycle:4 generate")
    assert lines[132].endswith(" star:4 generate")
    assert lines[133].endswith(" hexagon:6 generate")
    assert lines[-1].endswith(" cycle:2 generate")
