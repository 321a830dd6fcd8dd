from __future__ import annotations

import json

import pytest

from oadetect.cha import CallGraph, _add_targets, _sorted_sites
from oadetect.engine import AnalysisBudget, Mode, Verdict
from oadetect.harness import load_bundled, scenario_units
from oadetect.pointsto import _Solver


def budget(**overrides) -> AnalysisBudget:
    """Deterministic default budget for tests: wall clock off."""
    kwargs = {"wall_clock": None}
    kwargs.update(overrides)
    return AnalysisBudget(**kwargs)


def parse_records(text: str) -> list[dict]:
    """The objects of a `records.jsonl` text, one per non-blank line."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def call_graph_from_edges(roots, nodes, edges) -> CallGraph:
    """The call graph of `CallEdge`s, kept per site as the builders keep it;
    a site with two callers raises MirError."""
    by_site: dict = {}
    for e in edges:
        _add_targets(by_site, e.site, e.caller, (e.target,))
    return CallGraph(frozenset(roots), frozenset(nodes), _sorted_sites(by_site))


def is_closed(p, r) -> bool:
    """Whether one more application of every points-to constraint adds
    nothing to the solve result `r`.

    A solver is seeded with the result's sets, call sites and reachable
    methods, and the constraints of every reachable method are added once;
    the result is closed when no set, call target or reachable method grows.
    """
    solver = _Solver(p, [])
    for var, sids in r.pts.items():
        solver.pts[var] = set(sids)
    solver.by_site = {pos: (caller, set(ids)) for pos, (caller, ids) in r.callgraph.sites.items()}
    solver.reachable = set(r.callgraph.nodes)
    for mid in r.callgraph.nodes:
        solver.process_method(mid)
    return (not solver.var_queue and not solver.method_queue
            and _sorted_sites(solver.by_site) == r.callgraph.sites)


def annotate_missref_paths(run) -> list[dict]:
    """For each unit of corpus run `run` that `pa` cleared but `nopa`
    flagged: its `pa` miss-references, and those that sit on a position of
    a `nopa` conflict flow (a write or a call on its call path).

    Each unit gives {"unit", "missrefs" (the count), "on_path" (the misses
    on a flow, in `pa`'s order), "on_conflict_path" (whether there are any)}.
    """
    enriched = []
    for unit, per_mode in run.by_unit().items():
        if Mode.NOPA not in per_mode or Mode.PA not in per_mode:
            continue
        a, b = per_mode[Mode.NOPA], per_mode[Mode.PA]
        if a.verdict is not Verdict.TRUE or b.verdict is not Verdict.FALSE:
            continue
        trace_positions = set()
        for c in a.outcome.conflicts:
            for ev in (c.overridden, c.overriding):
                trace_positions.update(h.pos for h in ev.call_path)
                trace_positions.add(ev.pos)
        on_path = [m for m in b.outcome.missrefs if m.pos in trace_positions]
        enriched.append({
            "unit": unit,
            "missrefs": len(b.outcome.missrefs),
            "on_path": on_path,
            "on_conflict_path": bool(on_path),
        })
    return enriched


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


# `return` inside nested blocks of callees, which neither `randprog` (it
# emits `return` only as a method's last statement) nor the bundled corpus
# has: the constructor returns from inside an `if` (line 11), the virtual
# `area` from an `if` inside a `while` (line 20), and `Main.main` calls
# `area` inside an `if` and writes after both calls. Under `nopa`, `t.area()`
# also reaches `Circle.area`; points-to narrows it to `Sq.area`.
RETURN_IN_BLOCKS = (
    "interface Shape {\n"
    "  method area();\n"
    "}\n"
    "class Sq implements Shape {\n"
    "  field side: int;\n"
    "  field static log: int;\n"
    "  ctor(v) {\n"
    "    this.side = v;\n"
    "    if v {\n"
    "      Sq::log = 1;\n"
    "      return;\n"
    "    }\n"
    "    this.side = 2;\n"
    "  }\n"
    "  method area() {\n"
    "    n = this.side;\n"
    "    while n {\n"
    "      if n {\n"
    "        Sq::log = 3;\n"
    "        return n;\n"
    "      }\n"
    "      n = op(n);\n"
    "    }\n"
    "    Sq::log = 4;\n"
    "    return n;\n"
    "  }\n"
    "}\n"
    "class Circle implements Shape {\n"
    "  method area() {\n"
    "    Sq::log = 5;\n"
    "  }\n"
    "}\n"
    "class Main {\n"
    "  field shape: Shape;\n"
    "  public static method main() {\n"
    "    s = new Sq(1) @L;\n"
    "    m = new Main();\n"
    "    m.shape = s;\n"
    "    t = m.shape;\n"
    "    if t {\n"
    "      a = t.area() @R;\n"
    "      b = a;\n"
    "    }\n"
    "    Sq::log = 6 @L;\n"
    "    s.side = 7 @R;\n"
    "  }\n"
    "}\n"
)
