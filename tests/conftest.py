import importlib.util
from pathlib import Path

import hypothesis
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# Derandomized so CI failures replay exactly; no deadline because the exact
# rational transport path has a long tail on dense examples.
hypothesis.settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def load_script():
    """load_script(name) imports scripts/<name>.py as a module."""

    def load(name):
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load
