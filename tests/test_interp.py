from __future__ import annotations

import pytest

from conftest import budget
from oadetect.engine import Mode, Verdict, detect
from oadetect.frontend import parse_source
from oadetect.interp import OracleError, interpret
from oadetect.mir import Provenance, find_method


def test_binding_through_copy():
    src = "class A {\n}\nclass Main {\n  public static method main() {\n    x = new A();\n    y = x;\n  }\n}\n"
    p = parse_source(src)
    trace = interpret(p, find_method(p, "Main.main"))
    assert ("Main.main/0", "y", 0) in trace.bindings


def test_fig1_write_order(fig1_simple):
    p, _ = fig1_simple
    trace = interpret(p, find_method(p, "Main.main"))
    fixes_lines = [w.pos.line for w in trace.writes if w.kind == "IFR" and w.key[1] == "fixes"]
    assert fixes_lines == [4, 9]
    provs = [w.provenance for w in trace.writes if w.kind == "IFR" and w.key[1] == "fixes"]
    assert provs == [Provenance.LEFT, Provenance.RIGHT]


def test_while_false_condition_skips_body():
    src = (
        "class A {\n}\nclass Main {\n  public static method main() {\n"
        "    c = 0;\n    while c {\n      x = 1;\n    }\n  }\n}\n"
    )
    p = parse_source(src)
    trace = interpret(p, find_method(p, "Main.main"))
    assert all(w.key != ("Main.main/0", "x") for w in trace.writes)


def test_mkref_rejected(mkref_scenario):
    p, _ = mkref_scenario
    with pytest.raises(OracleError, match="reflective"):
        interpret(p, find_method(p, "Main.main"))


def test_step_limit_halts_with_partial_trace():
    src = (
        "class Main {\n  public static method main() {\n"
        "    c = 1;\n    while c {\n      c = op(c);\n    }\n  }\n}\n"
    )
    p = parse_source(src)
    trace = interpret(p, find_method(p, "Main.main"), step_limit=50)
    assert trace.halted and trace.halt_reason == "step limit"
    assert trace.steps > 0


def test_virtual_dispatch_and_return_value():
    src = """
class A {
  method pick() {
    v = op();
    return v;
  }
}
class B extends A {
  method pick() {
    w = op(w);
    return w;
  }
}
class Main {
  public static method main() {
    b = new B();
    r = b.pick();
  }
}
"""
    p = parse_source(src)
    trace = interpret(p, find_method(p, "Main.main"))
    assert any(target == "B.pick/0" for _, target in trace.dispatches)
    assert all(target != "A.pick/0" for _, target in trace.dispatches)


STATIC_CALL = """
class A {
  field static g: int;
  static method make(v) {
    A::g = v;
    o = new A();
    return o;
  }
}
class Main {
  public static method main() {
    a = A::make(3);
    call A::make(4) @R;
  }
}
"""


def test_static_call_runs_the_callee_and_binds_its_result():
    p = parse_source(STATIC_CALL)
    trace = interpret(p, find_method(p, "Main.main"))
    assert not trace.halted and trace.dispatches == []
    # Each call binds the callee's allocation; only the first has a result.
    assert trace.bindings == [("A.make/1", "o", 0), ("Main.main/0", "a", 0), ("A.make/1", "o", 0)]
    statics = [(w.key, w.pos.line, w.provenance) for w in trace.writes if w.kind == "SFR"]
    # The callee's write inherits the provenance of the changed call.
    assert statics == [(("A", "g"), 5, Provenance.BASE), (("A", "g"), 5, Provenance.RIGHT)]


def _oracle_conflict(trace) -> bool:
    """Concrete mirror of the override rule over the recorded write trace."""
    for i, w in enumerate(trace.writes):
        if w.provenance is Provenance.BASE:
            continue
        for prior in reversed(trace.writes[:i]):
            if prior.kind != w.kind or prior.key != w.key:
                continue
            if prior.provenance is Provenance.BASE:
                break
            if prior.provenance is not w.provenance:
                return True
            break
    return False


def test_detector_matches_concrete_oracle_on_generated_straightline():
    # Single object, one method, straight-line writes: the name/type rule is
    # exact here, so the analysis must agree with the concrete trace oracle.
    import random

    from oadetect.mir import (
        AllocAssign,
        ClassDef,
        Const,
        CopyAssign,
        FieldDef,
        FieldStore,
        MethodDef,
        Position,
        Program,
        StaticStore,
        VirtualCall,
        validate_program,
    )

    rng = random.Random(4242)
    provs = [Provenance.BASE, Provenance.LEFT, Provenance.RIGHT]
    for trial in range(120):
        line = iter(range(1, 100))

        def pos():
            return Position(f"t{trial}.mir", next(line))

        writes = []
        for _ in range(rng.randint(2, 8)):
            prov = rng.choice(provs)
            kind = rng.randrange(4)
            if kind == 0:
                writes.append(FieldStore(pos=pos(), base="this", field="f", source=Const(1), provenance=prov))
            elif kind == 1:
                writes.append(FieldStore(pos=pos(), base="this", field="g", source=Const(1), provenance=prov))
            elif kind == 2:
                writes.append(StaticStore(pos=pos(), cls="C", field="s", source=Const(1), provenance=prov))
            else:
                writes.append(CopyAssign(pos=pos(), target="x", source=Const(1), provenance=prov))
        m = MethodDef(name="m", params=(), body=writes, declaring_class="C", pos=pos())
        cls = ClassDef(
            name="C",
            fields=[FieldDef("f", "int"), FieldDef("g", "int"), FieldDef("s", "int", static=True)],
            methods=[m],
        )
        main = MethodDef(
            name="main",
            params=(),
            body=[
                AllocAssign(pos=pos(), target="c", cls="C"),
                VirtualCall(pos=pos(), receiver="c", method="m"),
            ],
            declaring_class="Main",
            static=True,
        )
        p = Program(classes=[cls, ClassDef(name="Main", methods=[main])])
        assert validate_program(p) == []

        expected = _oracle_conflict(interpret(p, main))
        for mode in (Mode.NOPA, Mode.PA):
            got = detect(p, m, mode, budget=budget()).verdict
            assert (got is Verdict.TRUE) is expected, (trial, mode)


STRAIGHTLINE_CASES = [
    # (body of C.m, expected conflict)
    ("    this.f = 1 @L;\n    this.f = 2 @R;\n", True),
    ("    this.f = 1 @L;\n    this.f = 0;\n    this.f = 2 @R;\n", False),
    ("    C::s = 1 @L;\n    C::s = 2 @R;\n", True),
    ("    x = 1 @L;\n    x = 2 @R;\n", True),
    ("    x = 1 @L;\n    y = 2 @R;\n", False),
]


@pytest.mark.parametrize("body,expected", STRAIGHTLINE_CASES)
def test_interpreter_agrees_with_analysis_on_single_object_straightline(body, expected):
    src = (
        "class C {\n  field f: int;\n  field static s: int;\n  method m() {\n"
        + body
        + "  }\n}\nclass Main {\n  public static method main() {\n"
        "    c = new C();\n    call c.m();\n  }\n}\n"
    )
    p = parse_source(src)
    trace = interpret(p, find_method(p, "Main.main"))
    assert _oracle_conflict(trace) is expected
    out = detect(p, find_method(p, "C.m"), Mode.NOPA, budget=budget())
    assert (out.verdict is Verdict.TRUE) is expected
