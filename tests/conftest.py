from __future__ import annotations

import pytest

from oadetect.engine import AnalysisBudget, Mode
from oadetect.harness import load_bundled, scenario_units


def budget(**overrides) -> AnalysisBudget:
    """Deterministic default budget for tests: wall clock off."""
    kwargs = {"wall_clock": None}
    kwargs.update(overrides)
    return AnalysisBudget(**kwargs)


def load_scenario_program(name: str):
    """Parsed program and single (unit, entry) pair of a bundled scenario."""
    s = load_bundled(name)
    program, units = scenario_units(s)
    assert len(units) == 1
    return program, units[0][1]


@pytest.fixture(scope="session")
def fig1_simple():
    return load_scenario_program("fig1_simple")


@pytest.fixture(scope="session")
def fig1_advanced():
    return load_scenario_program("fig1_advanced")


@pytest.fixture(scope="session")
def mkref_scenario():
    return load_scenario_program("mkref")


@pytest.fixture(scope="session")
def deep_hierarchy():
    return load_scenario_program("deep_hierarchy")


ALL_MODES = (Mode.NOPA, Mode.PA, Mode.HYBRID)

# A conflict on the first path, then twelve forks that exhaust a fuel of 300:
# a timeout that holds the conflict of its completed paths.
CONFLICT_THEN_FORKS = (
    "class A {\n  field static g: int;\n  method m() {\n"
    "    A::g = 1 @L;\n    A::g = 2 @R;\n    c = 1;\n"
    + "".join(f"    if c {{\n      w{i} = 1;\n    }}\n" for i in range(12))
    + "  }\n}\n"
)
