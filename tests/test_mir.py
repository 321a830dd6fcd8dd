from __future__ import annotations

import pytest

from oadetect.frontend import MAX_NESTING, parse_source
from oadetect.mir import (
    MirError,
    find_method,
    implementers_of,
    subtype_of,
    validate_program,
)


TWO_CLASSES = """
class A {
  field x: int;
  method m() {
    y = op();
  }
}
class B extends A {
  method m() {
    z = op();
  }
}
"""


def test_validate_well_formed_program():
    p = parse_source(TWO_CLASSES)
    assert validate_program(p) == []


def test_validate_names_each_static_call_that_names_no_method():
    # The unknown class, the unknown name, the wrong arity, and an instance
    # method called as a static one; a resolvable call passes.
    p = parse_source(
        "class A {\n  method i() {\n  }\n  static method s(x) {\n  }\n"
        "  method m() {\n    call Nope::s(1);\n    call A::t(1);\n    if c {\n      call A::s();\n    }\n"
        "    call A::i();\n    call A::s(1);\n  }\n}\n",
        validate=False,
    )
    assert [str(d) for d in validate_program(p)] == [
        "input.mir:7: static call 'Nope::s/1' names no method",
        "input.mir:8: static call 'A::t/1' names no method",
        "input.mir:10: static call 'A::s/0' names no method",
        "input.mir:12: static call 'A::i/0' names no method",
    ]


def test_validate_unknown_supertype():
    p = parse_source("class A extends Nope {\n}\n", validate=False)
    diags = validate_program(p)
    assert len(diags) == 1
    assert "unknown supertype" in diags[0].message


def test_validate_inheritance_cycle():
    p = parse_source("class A extends B {\n}\nclass B extends A {\n}\n", validate=False)
    messages = [d.message for d in validate_program(p)]
    assert any("inheritance cycle" in m for m in messages)


def test_validate_names_each_cycle_once_in_declaration_order():
    # The search from C runs into the A-B cycle and marks its whole path
    # done, so A and B are not named again; E reaches no cycle.
    src = (
        "class C extends A {\n}\nclass A extends B {\n}\nclass B extends A {\n}\n"
        "class D extends D {\n}\nclass E {\n}\n"
        "interface I extends J {\n}\ninterface J extends I {\n}\n"
    )
    p = parse_source(src, validate=False)
    assert [(d.pos.line, d.message) for d in validate_program(p)] == [
        (1, "inheritance cycle involving 'C'"),
        (7, "inheritance cycle involving 'D'"),
        (11, "inheritance cycle involving 'I'"),
    ]


def test_validate_a_cycle_skips_the_static_call_check():
    # Method lookup on a cyclic chain would never end, so a static call that
    # names no method inside a cycle leaves only the cycle diagnostics.
    src = (
        "class A extends B {\n  static method m() {\n    call A::gone();\n  }\n}\nclass B extends A {\n}\n"
        "class D extends D {\n  static method m() {\n    call D::x();\n  }\n}\n"
    )
    p = parse_source(src, validate=False)
    assert [(d.pos.line, d.message) for d in validate_program(p)] == [
        (1, "inheritance cycle involving 'A'"),
        (8, "inheritance cycle involving 'D'"),
    ]


def test_method_id_and_display_are_formatted_once():
    m = find_method(parse_source(TWO_CLASSES), "B.m")
    assert m.id == "B.m/0" and m.display == "B.m()"
    assert m.id is m.id
    assert m.display is m.display


def test_validate_duplicate_field_and_method():
    p = parse_source(
        "class A {\n  field x: int;\n  field x: int;\n  method m() {\n  }\n  method m() {\n  }\n}\n",
        validate=False,
    )
    messages = [d.message for d in validate_program(p)]
    assert any("duplicate field" in m for m in messages)
    assert any("duplicate method" in m for m in messages)


def test_validate_duplicate_statement_position():
    p = parse_source("class A {\n  method m() {\n    x = 1; y = 2;\n  }\n}\n", validate=False)
    messages = [d.message for d in validate_program(p)]
    assert any("share position" in m for m in messages)


def test_validate_duplicate_params():
    p = parse_source("class A {\n  method m(a, a) {\n  }\n}\n", validate=False)
    messages = [d.message for d in validate_program(p)]
    assert any("duplicate parameter" in m for m in messages)


def test_validate_constructor_link():
    from oadetect.mir import ClassDef, CTOR_NAME, MethodDef, Program

    ctor = MethodDef(
        name=CTOR_NAME, params=(), body=[], declaring_class="B", kind="constructor"
    )
    p = Program(classes=[ClassDef(name="A", constructors=[ctor])])
    messages = [d.message for d in validate_program(p)]
    assert any("linked to 'B'" in m for m in messages)


def test_subtype_reflexive_and_interface(fig1_advanced):
    p, _ = fig1_advanced
    assert subtype_of("ReportSimple", "Report", p)
    assert subtype_of("Report", "Report", p)
    assert not subtype_of("ReportSimple", "ReportAdvanced", p)


def test_subtype_unknown_name_errors(fig1_advanced):
    p, _ = fig1_advanced
    with pytest.raises(MirError, match="Nope"):
        subtype_of("Nope", "Report", p)


def test_implementers(fig1_advanced):
    p, _ = fig1_advanced
    assert implementers_of("Report", p) == {"ReportSimple", "ReportAdvanced"}
    assert implementers_of("Main", p) == {"Main"}


def test_implementers_empty_interface():
    p = parse_source("interface I {\n  method m();\n}\nclass A {\n}\n")
    assert implementers_of("I", p) == set()


def test_implementers_matches_bruteforce(fig1_advanced):
    p, _ = fig1_advanced
    names = [c.name for c in p.classes] + [i.name for i in p.interfaces]
    for t in names:
        expected = {c.name for c in p.classes if subtype_of(c.name, t, p)}
        assert implementers_of(t, p) == expected


def test_subtype_transitive():
    p = parse_source(
        "interface I {\n  method m();\n}\n"
        "class A implements I {\n  method m() {\n  }\n}\n"
        "class B extends A {\n}\n"
    )
    assert subtype_of("B", "A", p)
    assert subtype_of("B", "I", p)
    assert not subtype_of("I", "B", p)


def _nested_to_the_limit(innermost: str) -> str:
    opens = ["    if c {"] * MAX_NESTING
    closes = ["    }"] * MAX_NESTING
    return "\n".join(["class A {", "  method m(c) {", *opens, f"    {innermost}", *closes, "  }", "}"]) + "\n"


def test_programs_nested_to_the_limit_compare_without_overflow():
    # `==` used to recurse a few frames per block and overflowed from about
    # 250 blocks deep, short of what the frontend accepts.
    p, q = (parse_source(_nested_to_the_limit("x = 2 @R;")) for _ in range(2))
    assert p == q and not p != q
    other = parse_source(_nested_to_the_limit("x = 3 @R;"))
    assert p != other and other != p
    with pytest.raises(TypeError, match="unhashable"):
        hash(p)


def test_repr_of_a_program_nested_to_the_limit_names_the_innermost_statement():
    text = repr(parse_source(_nested_to_the_limit("x = 2 @R;")))
    assert text.startswith("Program(classes=[ClassDef(name='A'")
    assert text.count("If(") == MAX_NESTING
    innermost = (
        "CopyAssign(pos=Position(file='input.mir', line=303), provenance=<Provenance.RIGHT: 'right'>, "
        "target='x', source=Const(value=2))], else_body=[])"
    )
    assert innermost in text
