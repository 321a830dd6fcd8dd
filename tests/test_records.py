"""Record classes: the semantics their callers rely on, and start-up cost.

A record is a `NamedTuple` unless code reassigns or builds up one of its
fields, validates in its constructor, or caches a derived field; such a
record is a `mir.Record` class with a written-out `__init__`, so importing
the package compiles no record method but a `NamedTuple`'s `__new__`.
These tests pin what the records promise: which classes stay `Record`s,
equality per class and by fields, mutable records unhashable,
`NamedTuple`s refusing assignment and hashing by value where their fields
do, the call graph refusing assignment, keyword-only statements with fresh
default lists, the `Name(field=value, ...)` repr, the sidecar's
both-sides check, and the write events the walk builds from tuples.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oadetect import engine, interp
from oadetect.cha import CallGraph
from oadetect.engine import (
    AR,
    IFR,
    LV,
    SFR,
    AnalysisBudget,
    AnalysisOutcome,
    Conflict,
    Hop,
    Mode,
    OutcomeStats,
    Verdict,
    WriteEvent,
)
from oadetect.frontend import ProvenanceMap, SidecarError, SourceUnit, parse_source
from oadetect.harness import (
    ConfusionMatrix,
    CorpusRun,
    MetricsSummary,
    Scenario,
    TimingRow,
    TransitionTable,
    UnitResult,
)
from oadetect.mir import (
    ClassDef,
    Const,
    Diagnostic,
    FieldDef,
    FieldLoad,
    FieldStore,
    If,
    InterfaceDef,
    MethodDef,
    MethodSig,
    Position,
    Program,
    Provenance,
    Record,
    Return,
    Stmt,
    find_method,
)
from oadetect.pointsto import AllocSite, PointsToResult, solve
from oadetect.randprog import GeneratedProgram
from oadetect.reporting import ConflictReport

SRC = Path(__file__).resolve().parent.parent / "src"
P = Position("a.mir", 3)


def _event(**overrides) -> WriteEvent:
    kw = dict(kind=LV, pos=P, provenance=Provenance.LEFT, method_id="A.m/0",
              method_display="A.m()", enclosing_kind="method", local="x")
    kw.update(overrides)
    return WriteEvent(**kw)


def test_equality_is_per_class_and_by_fields():
    # Both statements hold the same values in the same order; only the
    # class tells them apart.
    store = FieldStore(pos=P, base="a", field="a", source="a")
    load = FieldLoad(pos=P, target="a", base="a", field="a")
    assert store != load and load != store
    assert store == FieldStore(pos=P, base="a", field="a", source="a")
    assert store != FieldStore(pos=P, base="a", field="a", source="b")
    assert store != FieldStore(pos=P, base="a", field="a", source="a", provenance=Provenance.LEFT)
    m = MethodDef("m", (), [Return(pos=P)], "A")
    assert m == MethodDef("m", (), [Return(pos=P)], "A")
    assert m != MethodDef("m", (), [Return(pos=P)], "B")
    assert _event() == _event() and _event() != _event(local="y")


def test_mutable_records_are_unhashable():
    for record in (FieldStore(pos=P, base="a", field="f", source="x"),
                   MethodDef("m", (), [], "A"), Program()):
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("make,attr", [
    (lambda: Const(1), "value"),
    (lambda: Diagnostic(P, "bad"), "message"),
    (lambda: AllocSite(0, P, "A", "object"), "cls"),
    (_event, "local"),
])
def test_frozen_records_refuse_assignment_and_hash_by_value(make, attr):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, attr, "other")
    assert record == make() and hash(record) == hash(make())


def _stats() -> OutcomeStats:
    return OutcomeStats(visited=3, paths=1, elapsed_ms=0.0, stop_reason=None)


def _outcome() -> AnalysisOutcome:
    return AnalysisOutcome(Verdict.FALSE, conflicts=[], missrefs=[], stats=_stats())


# The records no code changes after construction: those whose fields are
# all hashable, then those holding a list, a dict or a `Record`.
HASHABLE = [
    pytest.param(lambda: AnalysisBudget(fuel=20_000), "fuel", id="AnalysisBudget"),
    pytest.param(lambda: Conflict("x in A.m()", _event(), _event(provenance=Provenance.RIGHT)), "element",
                 id="Conflict"),
    pytest.param(_stats, "paths", id="OutcomeStats"),
    pytest.param(lambda: MetricsSummary(1.0, 0.5, None, None), "recall", id="MetricsSummary"),
    pytest.param(lambda: TimingRow("u", Mode.PA, 2.0, 0.1, False), "mean_ms", id="TimingRow"),
    pytest.param(lambda: SourceUnit("a.mir", "class A {\n}\n"), "text", id="SourceUnit"),
    pytest.param(lambda: FieldDef("f", "int", pos=P), "type", id="FieldDef"),
    pytest.param(lambda: MethodSig("m", ("a",), P), "params", id="MethodSig"),
    pytest.param(lambda: ConflictReport("A", "m", "x in A.m()", _event(), _event()), "entry_method",
                 id="ConflictReport"),
]
UNHASHABLE = [
    pytest.param(_outcome, "verdict", id="AnalysisOutcome"),
    pytest.param(lambda: Scenario("s", "p", [SourceUnit("a.mir", "")]), "project", id="Scenario"),
    pytest.param(lambda: UnitResult("s", "p", Mode.NOPA, Verdict.FALSE, _outcome(), [1.0], None,
                                    MethodDef("m", (), [], "A")), "timings_ms", id="UnitResult"),
    pytest.param(lambda: PointsToResult({}, (), CallGraph(frozenset(), frozenset(), {}), (), {}), "pts",
                 id="PointsToResult"),
    pytest.param(lambda: GeneratedProgram(Program(), MethodDef("main", (), [], "M")), "main",
                 id="GeneratedProgram"),
]


@pytest.mark.parametrize("make,attr", HASHABLE + UNHASHABLE)
def test_unchanged_records_refuse_assignment(make, attr):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, attr, None)
    assert record == make() and record._replace(**{attr: None}) != record


@pytest.mark.parametrize("make,attr", HASHABLE)
def test_unchanged_records_hash_by_value(make, attr):
    assert hash(make()) == hash(make())
    assert len({make(), make(), make()._replace(**{attr: None})}) == 2


def test_records_that_code_changes_are_the_record_classes():
    # Reassigned or built-up fields, a validating constructor or a cached
    # derived field keep these off `NamedTuple`; statements share `Stmt`.
    assert set(Record.__subclasses__()) == {
        Stmt, MethodDef, ClassDef, InterfaceDef, Program, CallGraph, ProvenanceMap,
        CorpusRun, ConfusionMatrix, TransitionTable, interp.Obj, interp.Arr, interp.Trace,
    }


def test_call_graph_refuses_assignment():
    graph = CallGraph(frozenset({"A.m/0"}), frozenset({"A.m/0"}), {})
    with pytest.raises(AttributeError):
        graph.roots = frozenset()
    with pytest.raises(AttributeError):
        del graph.sites
    assert graph == CallGraph(frozenset({"A.m/0"}), frozenset({"A.m/0"}), {})
    assert graph.edges == frozenset() and "edges" in vars(graph)  # cached on first read
    with pytest.raises(TypeError):
        hash(graph)


def test_statements_are_keyword_only_with_fresh_defaults():
    with pytest.raises(TypeError):
        FieldStore(P, Provenance.BASE, "a", "f", "x")
    assert Return(pos=P).provenance is Provenance.BASE
    a, b = If(pos=P, cond="c"), If(pos=P, cond="c")
    a.then_body.append(Return(pos=P))
    assert (a.then_body is not b.then_body, b.then_body, b.else_body) == (True, [], [])


def test_repr_names_the_class_and_each_field():
    assert repr(Const(1)) == "Const(value=1)"
    assert repr(Return(pos=P)) == (
        "Return(pos=Position(file='a.mir', line=3), provenance=<Provenance.BASE: 'base'>, value=None)"
    )


def test_provenance_map_rejects_a_line_on_both_sides():
    with pytest.raises(SidecarError, match="a.mir:3"):
        ProvenanceMap(left={P}, right={P, Position("a.mir", 4)})
    assert ProvenanceMap().left == set() and ProvenanceMap().left is not ProvenanceMap().left


EVENTS_SRC = (
    "class C {\n"
    "  field f: int;\n"
    "  field static g: int;\n"
    "  static method s() {\n"
    "    C::g = 1;\n"
    "  }\n"
    "}\n"
    "class M {\n"
    "  public static method main() {\n"
    "    a = 1 @L;\n"
    "    o = new C() @R;\n"
    "    r = C::s() @L;\n"
    "    o.f = a @R;\n"
    "    x = op(a);\n"
    "    x.h = 2 @L;\n"
    "    arr = newarr int 2;\n"
    "    arr[0] = r @R;\n"
    "  }\n"
    "}\n"
)


def test_each_write_kind_streams_the_event_its_keywords_build():
    # The walk builds events by concatenating tuples around the fields a
    # path decides; a field in the wrong slot makes one of these differ.
    p = parse_source(EVENTS_SRC)
    pts = solve(p)
    (path,) = engine.enumerate_write_paths(p, find_method(p, "M.main"), engine.AnalysisBudget(wall_clock=None),
                                           engine.Mode.PA, pts=pts)
    L, R, B = Provenance.LEFT, Provenance.RIGHT, Provenance.BASE
    main = dict(method_id="M.main/0", method_display="M.main()", enclosing_kind="method")

    def at(line):
        return Position("input.mir", line)

    o_pts, arr_pts = pts.pts[("l", "M.main/0", "o")], pts.pts[("l", "M.main/0", "arr")]
    assert o_pts and arr_pts
    assert path == [
        WriteEvent(kind=LV, pos=at(10), provenance=L, local="a", **main),  # a copy
        WriteEvent(kind=LV, pos=at(11), provenance=R, local="o", **main),  # an allocation's local
        WriteEvent(kind=SFR, pos=at(5), provenance=L, method_id="C.s/0", method_display="C.s()",
                   enclosing_kind="method", call_path=(Hop("M.main/0", "M.main()", at(12), L),),
                   static_cls="C", field_name="g", static_type="int"),  # a static store
        WriteEvent(kind=LV, pos=at(12), provenance=L, local="r", **main),  # a call's result
        WriteEvent(kind=IFR, pos=at(13), provenance=R, base="o", base_type="C", base_pts=o_pts,
                   field=("C", "f", "int"), field_name="f", **main),  # a resolved field
        WriteEvent(kind=LV, pos=at(14), provenance=B, local="x", **main),
        WriteEvent(kind=IFR, pos=at(15), provenance=L, base="x", base_type="int",
                   field_name="h", **main),  # no class declares `h`, and no points-to set
        WriteEvent(kind=LV, pos=at(16), provenance=B, local="arr", **main),
        WriteEvent(kind=AR, pos=at(17), provenance=R, base="arr", base_type="int[]", base_pts=arr_pts,
                   index=0, **main),
    ]


# ---------------------------------------------------------------------------
# Start-up


def test_no_module_imports_dataclasses():
    offenders = []
    for path in sorted((SRC / "oadetect").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "dataclasses"]
    assert offenders == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Nor what only `corpus` uses: the means and CSV tables, the Wilcoxon
    # test, and the pickles its helper processes send back.
    probe = (
        "import sys\n"
        "names = ('dataclasses', 'inspect', 'statistics', 'csv', 'oadetect.stats', 'pickle')\n"
        "before = [n for n in names if n in sys.modules]\n"
        "import oadetect.cli\n"
        "print(before, [n for n in names if n in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[] []\n")
