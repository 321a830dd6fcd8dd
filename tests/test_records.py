"""Record classes: the semantics their callers rely on, and start-up cost.

Values are `NamedTuple`s; every other record is a plain class with a
written-out `__init__`, so importing the package generates no code. These
tests pin what the records promise: equality per class and by fields,
mutable records unhashable, frozen records refusing assignment and hashing
by value, keyword-only statements with fresh default lists, the
`Name(field=value, ...)` repr, and the sidecar's both-sides check.
"""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oadetect import engine
from oadetect.cha import CallGraph
from oadetect.engine import LV, WriteEvent
from oadetect.frontend import ProvenanceMap, SidecarError
from oadetect.mir import (
    Const,
    Diagnostic,
    FieldLoad,
    FieldStore,
    If,
    MethodDef,
    Position,
    Program,
    Provenance,
    Return,
)
from oadetect.pointsto import AllocSite

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


def test_call_graph_refuses_assignment():
    graph = CallGraph(frozenset({"A.m/0"}), frozenset({"A.m/0"}), {})
    with pytest.raises(AttributeError):
        graph.roots = frozenset()
    assert graph == CallGraph(frozenset({"A.m/0"}), frozenset({"A.m/0"}), {})


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


def test_event_templates_name_every_write_event_field():
    params = list(inspect.signature(WriteEvent).parameters)
    assert list(engine._EVENT_FIELDS) == params


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
    probe = (
        "import sys\n"
        "names = ('dataclasses', 'inspect')\n"
        "before = [n for n in names if n in sys.modules]\n"
        "import oadetect.cli\n"
        "print(before, [n for n in names if n in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[] []\n")
