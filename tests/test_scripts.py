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
