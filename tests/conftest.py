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


def _nested_calls(methods: int = 6, nesting: int = 200) -> str:
    """Static methods chained by calls, each call under `nesting` nested
    `if`s; the first method is the entry, with a conflict on every path."""
    lines = ["class Main {"]
    for i in range(methods):
        lines.append(f"  static method m{i}() {{")
        if i == 0:
            lines += ["    x = 1 @L;", "    x = 2 @R;"]
        lines.append("    c = 1;")
        lines += ["    " + "  " * d + "if c {" for d in range(nesting)]
        inner = f"call Main::m{i + 1}();" if i + 1 < methods else "y = 1;"
        lines.append("    " + "  " * nesting + inner)
        lines += ["    " + "  " * d + "}" for d in reversed(range(nesting))]
        lines.append("  }")
    return "\n".join(lines + ["}"]) + "\n"


# Six methods, 1 201 paths and 1 214 visits at the default budget: its path
# tree nests 1 200 blocks deep, past Python's recursion limit.
NESTED_CALLS = _nested_calls()
