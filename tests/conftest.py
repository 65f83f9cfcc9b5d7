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


def _move_a_unit(flow, phi, S, T):
    # one unit off the first arc that carries flow, onto the arc one row and
    # one column on: two rows and two columns miss their marginals
    i, j = next((i, j) for i, out in enumerate(flow) for j, x in enumerate(out) if x)
    flow[i][j] -= 1
    flow[(i + 1) % S][(j + 1) % T] += 1


def _turn_a_cycle(flow, phi, S, T):
    # one unit round the cycle (0,0) (0,1) (1,1) (1,0): every marginal holds,
    # and an arc that carried no flow on that cycle goes negative
    for i, j, x in ((0, 0, 1), (0, 1, -1), (1, 1, 1), (1, 0, -1)):
        flow[i][j] += x


def _lower_a_source(flow, phi, S, T):
    # source 0's arcs that carry flow were tight; they now price at -1
    phi[0] -= 1


def _raise_a_source(flow, phi, S, T):
    # every reduced cost stays >= 0, but the dual objective falls by source
    # 0's supply, one unit on a residual of unit masses
    phi[0] += 1


RESIDUAL_PLANTS = {"flow": _move_a_unit, "sign": _turn_a_cycle,
                   "potential": _lower_a_source, "objective": _raise_a_source}


@pytest.fixture
def plant_residual(monkeypatch):
    """plant_residual(kind) corrupts what every later run of the solver's
    primal-dual loop returns, with one defect of RESIDUAL_PLANTS: a flow
    unit moved, a unit turned round a cycle through an empty arc, a
    potential that leaves a reduced cost negative, or a potential that
    leaves the dual objective one unit short."""
    from edge_ricci import transport

    def plant(kind):
        loop = transport._primal_dual

        def planted(cost, supply, demand, *rest):
            S, T = len(supply), len(demand)
            flow, phi = loop(cost, supply, demand, *rest)
            RESIDUAL_PLANTS[kind](flow, phi, S, T)
            return flow, phi

        monkeypatch.setattr(transport, "_primal_dual", planted)

    return plant
