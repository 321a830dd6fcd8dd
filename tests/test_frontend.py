from __future__ import annotations

import re

import pytest

from oadetect.cli import main
from oadetect.frontend import (
    MAX_NESTING,
    ParseError,
    ProvenanceMap,
    SidecarError,
    SourceUnit,
    _Parser,
    _read_lines,
    apply_sidecar,
    entry_candidates,
    parse_program,
    parse_source,
    pretty_print,
)
from oadetect.harness import bundled_corpus_dir, load_bundled
from oadetect.mir import (
    Const,
    Position,
    Provenance,
    StaticCall,
    ValidationError,
    VirtualCall,
    all_methods,
    find_method,
    iter_stmts,
)
from test_byte_identity import WORKLOAD_DIGESTS, WORKLOAD_SEED, _bench_workloads
from test_differential import seed_range
from test_fuzz_frontend import lexed, reference_lexed


def _fig1_units():
    root = bundled_corpus_dir() / "fig1_simple"
    return [
        SourceUnit(name, (root / name).read_text())
        for name in ("Report.mir", "ReportSimple.mir", "Text.mir", "Main.mir")
    ]


def test_parse_fig1_markers_attach_provenance():
    p = parse_program(_fig1_units())
    body = find_method(p, "Text.generateReport").body
    calls = [st for st in body if isinstance(st, VirtualCall)]
    assert [c.provenance for c in calls] == [Provenance.LEFT, Provenance.RIGHT]
    assert calls[0].pos == Position("Text.mir", 8)
    assert calls[1].pos == Position("Text.mir", 10)


def test_parse_empty_file():
    p = parse_source("")
    assert p.classes == [] and p.interfaces == []


def test_parse_missing_semicolon():
    with pytest.raises(ParseError) as err:
        parse_source("class A {\n  field x: int\n}\n", path="A.mir")
    assert err.value.file == "A.mir"
    assert "';'" in err.value.message


def test_parse_compound_assignment_rejected():
    with pytest.raises(ParseError, match="split compound"):
        parse_source("class A {\n  method m() {\n    a.f = b.g;\n  }\n}\n")


def test_parse_validation_failures_propagate():
    with pytest.raises(ValidationError):
        parse_source("class A extends Missing {\n}\n")


def test_parse_statement_shapes():
    src = """
class A {
  field f: int;
  field static g: int;
  method m(p) {
    x = new A();
    h = mkref A;
    arr = newarr int 3;
    arr[0] = 1;
    v = arr[0];
    x.f = 2;
    w = x.f;
    A::g = 3;
    u = A::g;
    y = op(x, 1, "s");
    z = p;
    if z {
      r = x.m2(z);
    } else {
      call A::s();
    }
    while z {
      z = 0;
    }
    return z;
  }
  method m2(q) {
    return q;
  }
  static method s() {
  }
}
"""
    p = parse_source(src)
    body = find_method(p, "A.m").body
    kinds = [type(st).__name__ for st in body]
    assert kinds == [
        "AllocAssign", "ReflectiveAssign", "ArrayAlloc", "ArrayStore", "ArrayLoad",
        "FieldStore", "FieldLoad", "StaticStore", "StaticLoad", "OpaqueOp",
        "CopyAssign", "If", "While", "Return",
    ]
    nested = list(iter_stmts(body))
    assert any(isinstance(st, StaticCall) for st in nested)


def test_string_literals_spelled_like_keywords_or_punctuation_stay_literals():
    src = 'class A {\n  method m() {\n    x = op(")", ",", "class");\n    y = "}";\n  }\n}\n'
    body = find_method(parse_source(src), "A.m").body
    assert body[0].operands == (Const(")"), Const(","), Const("class"))
    assert body[1].source == Const("}")


def test_negative_literals_are_ints():
    src = "class A {\n  method m(a) {\n    x = -5;\n    y = op(-1, x);\n    a[-2] = -3;\n  }\n}\n"
    body = find_method(parse_source(src), "A.m").body
    assert body[0].source == Const(-5)
    assert body[1].operands == (Const(-1), "x")
    assert (body[2].index, body[2].source) == (-2, Const(-3))


@pytest.mark.parametrize(
    "text, line, message",
    [
        # A string literal where a name belongs is named by its text.
        ('class "A" {\n}\n', 1, "expected class name, found 'A'"),
        ("class A {\n  method m() {\n    x = 1\n", 4, "expected ';', found 'end of file'"),
        ("class A {\n  field f: int;\n  f\n}\n", 3, "expected 'method', found 'f'"),
    ],
)
def test_parse_error_names_the_token_found(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_source(text, path="A.mir")
    assert (err.value.line, err.value.message) == (line, message)


@pytest.mark.parametrize(
    "text, want",
    [
        ("", ("tokens", [("", 1)])),
        # Trailing blanks without a newline: the end of text is one token.
        ("x \t", ("tokens", [("x", 1), ("", 1)])),
        ("x\n// end", ("tokens", [("x", 1), ("", 2)])),
        ("x;\r\ny;\r\n", ("tokens", [("x", 1), (";", 1), ("y", 2), (";", 2), ("", 3)])),
        ('x = "a // b";', ("tokens", [("x", 1), ("=", 1), ('"a // b"', 1), (";", 1), ("", 1)])),
        ('"@L" @R', ("tokens", [('"@L"', 1), ("@R", 1), ("", 1)])),
        ('x "class"', ("tokens", [("x", 1), ('"class"', 1), ("", 1)])),
        ("-", ("error", 1, "unexpected character '-'")),
        ("x\n@", ("error", 2, "unexpected character '@'")),
        ("x / y", ("error", 1, "unexpected character '/'")),
        ('x\ny = "ab', ("error", 2, "unterminated string literal")),
        ('x = "a\nb";', ("error", 1, "unterminated string literal")),
        ("x-5", ("tokens", [("x", 1), ("-5", 1), ("", 1)])),
    ],
)
def test_lexer_edge_cases_agree_with_reference(text, want):
    assert lexed(text) == reference_lexed(text) == want


def _unmarked_fig1_units():
    units = _fig1_units()
    return [SourceUnit(u.path, u.text.replace(" @L", "").replace(" @R", "")) for u in units]


def test_sidecar_matches_inline_markers():
    inline = parse_program(_fig1_units())
    sidecar = parse_program(_unmarked_fig1_units())
    heat = ProvenanceMap(
        left={Position("Text.mir", 8)}, right={Position("Text.mir", 10)}
    )
    apply_sidecar(sidecar, heat)
    assert pretty_print(sidecar) == pretty_print(inline)


def test_sidecar_empty_map_leaves_base():
    p = parse_program(_unmarked_fig1_units())
    apply_sidecar(p, ProvenanceMap())
    for m in (find_method(p, "Text.generateReport"),):
        assert all(st.provenance is Provenance.BASE for st in iter_stmts(m.body))


def test_sidecar_unknown_line_errors():
    p = parse_program(_unmarked_fig1_units())
    with pytest.raises(SidecarError, match="no statement at line"):
        apply_sidecar(p, ProvenanceMap(left={Position("Text.mir", 999)}))


def test_sidecar_conflicting_map_rejected():
    with pytest.raises(SidecarError, match="both left and right"):
        ProvenanceMap(left={Position("T.mir", 8)}, right={Position("T.mir", 8)})


def test_sidecar_disagreement_with_inline_markers():
    p = parse_program(_fig1_units())
    with pytest.raises(SidecarError, match="disagreement"):
        apply_sidecar(
            p,
            ProvenanceMap(left={Position("Text.mir", 10)}, right={Position("Text.mir", 8)}),
        )


def test_sidecar_idempotent():
    heat = ProvenanceMap(left={Position("Text.mir", 8)}, right={Position("Text.mir", 10)})
    p = parse_program(_unmarked_fig1_units())
    apply_sidecar(p, heat)
    once = pretty_print(p)
    apply_sidecar(p, heat)
    assert pretty_print(p) == once


def test_sidecar_json_round_trip():
    heat = ProvenanceMap(left={Position("Text.mir", 8)}, right={Position("Text.mir", 10)})
    again = ProvenanceMap.from_json(heat.to_json())
    assert again.left == heat.left and again.right == heat.right


def test_entry_candidates_fig1():
    p = parse_program(_fig1_units())
    assert [m.id for m in entry_candidates(p)] == ["Text.generateReport/0"]


def test_entry_candidates_left_only():
    p = parse_source("class A {\n  method m() {\n    x = 1 @L;\n  }\n}\n")
    assert entry_candidates(p) == []


def test_entry_candidates_two_methods_in_order():
    src = (
        "class A {\n"
        "  method m1() {\n    x = 1 @L;\n    y = 2 @R;\n  }\n"
        "  method m2() {\n    u = 1 @L;\n    v = 2 @R;\n  }\n"
        "}\n"
    )
    p = parse_source(src)
    assert [m.id for m in entry_candidates(p)] == ["A.m1/0", "A.m2/0"]


def test_parser_rejects_mutations_without_crashing():
    # Byte-level mutations must either still parse or fail with a frontend
    # error; anything else would leak through the CLI's exit-code contract.
    import random

    from oadetect.mir import MirError

    base = (bundled_corpus_dir() / "fig1_simple" / "Text.mir").read_text()
    rng = random.Random(7)
    alphabet = "abcxyz{}();=.:@L R\n\"0123"
    for _ in range(60):
        text = list(base)
        for _ in range(rng.randint(1, 4)):
            op = rng.randrange(3)
            pos = rng.randrange(len(text))
            if op == 0:
                text[pos] = rng.choice(alphabet)
            elif op == 1:
                text.insert(pos, rng.choice(alphabet))
            else:
                del text[pos]
        try:
            parse_source("".join(text), path="mut.mir")
        except MirError:
            pass


@pytest.mark.parametrize(
    "scenario", ["fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy"]
)
def test_pretty_print_round_trip_is_fixpoint(scenario):
    s = load_bundled(scenario)
    p1 = parse_program(s.sources)
    text1 = pretty_print(p1)
    p2 = parse_source(text1, path="canon.mir")
    text2 = pretty_print(p2)
    assert text1 == text2


EXTENDS_AND_STATIC_CALLS = """interface I {
  method m();
}
interface J extends I {
  method n(a);
}
class C implements J {
  field items: C[];
  field static all: C[];
  method m() {
    x = C::mk(1);
    call C::mk(2) @L;
  }
  method n(a) {
  }
  static method mk(v) {
    return v;
  }
}
"""


def test_array_typed_fields_interface_extends_and_static_calls_round_trip():
    p = parse_source(EXTENDS_AND_STATIC_CALLS)
    h = p.hierarchy()
    assert h.field_of("C", "items") == ("C", "C[]")
    assert h.static_field_of("C", "all") == ("C", "C[]")
    assert h.supertypes("J") == {"I", "J"}
    assert pretty_print(p) == EXTENDS_AND_STATIC_CALLS
    assert pretty_print(parse_source(pretty_print(p))) == EXTENDS_AND_STATIC_CALLS


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{", "sidecar is not valid JSON"),
        ("[]", "sidecar must be a JSON object"),
        ('{"left": 5}', "sidecar 'left' must be a list, got 5"),
        ('{"right": null}', "sidecar 'right' must be a list, got null"),
        ('{"left": [3]}', "entries must look like"),
        ('{"left": [{"file": "a.mir"}]}', "entries must look like"),
        ('{"left": [{"file": 1, "line": 3}]}', "entries must look like"),
        ('{"left": [{"file": "a.mir", "line": "x"}]}', "entries must look like"),
        ('{"left": [{"file": "a.mir", "line": 1e999}]}', "entries must look like"),
        ('{"left": [{"file": "a.mir", "line": 3.9}]}', "entries must look like"),
        ('{"left": [{"file": "a.mir", "line": true}]}', "entries must look like"),
        ('{"left": [{"file": "a.mir", "line": "3"}]}', "entries must look like"),
    ],
)
def test_sidecar_of_wrong_shape_is_a_sidecar_error(text, fragment):
    with pytest.raises(SidecarError, match=re.escape(fragment)):
        ProvenanceMap.from_json(text)


def _nested_blocks(depth: int, head: str = "if") -> str:
    opens = [f"    {head} c {{"] * depth
    closes = ["    }"] * depth
    lines = ["class A {", "  method m(c) {", "    x = 1 @L;", *opens, "    x = 2 @R;", *closes, "  }", "}"]
    return "\n".join(lines) + "\n"


def test_deepest_accepted_nesting_analyzes_and_round_trips(tmp_path, capsys):
    assert MAX_NESTING >= 300  # programs this deep parsed before the limit existed
    text = _nested_blocks(MAX_NESTING)
    canon = pretty_print(parse_source(text))
    assert pretty_print(parse_source(canon)) == canon
    src = tmp_path / "deep.mir"
    src.write_text(text)
    code = main(["analyze", "--deterministic", "--mode", "nopa", "--mode", "pa", "--mode", "hybrid", str(src)])
    assert code == 1
    assert capsys.readouterr().out.count("verdict: true") == 3


@pytest.mark.parametrize("depth, head", [(MAX_NESTING + 1, "if"), (MAX_NESTING + 1, "while"), (500, "if")])
def test_nesting_beyond_the_limit_exits_3(depth, head, tmp_path, capsys):
    # 500 nested ifs used to end in RecursionError, a traceback with exit 1.
    src = tmp_path / "deep.mir"
    src.write_text(_nested_blocks(depth, head))
    code = main(["analyze", "--deterministic", "--mode", "nopa", str(src)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    line = 3 + MAX_NESTING + 1  # the opening brace of the first block too deep
    assert captured.err == f"error: deep.mir:{line}: if/while blocks nested deeper than {MAX_NESTING}\n"


# ---------------------------------------------------------------------------
# The line reader's reach. A source it cannot read still parses, through the
# token parser, so a printer or generator change that moved sources off the
# line layout would show only as a lost speed-up; these tests pin the reach.


def _unread(named_texts) -> list[str]:
    """The names of the sources the line reader hands to the token parser,
    or reads to a program other than the token parser's."""
    unread = []
    for name, text in named_texts:
        unit = SourceUnit(name, text)
        got = _read_lines(unit)
        if got is None or got != _Parser(unit).parse_unit():
            unread.append(name)
    return unread


def test_line_reader_reads_the_bundled_corpus():
    sources = sorted(bundled_corpus_dir().glob("*/*.mir"))
    assert _unread((f"{p.parent.name}/{p.name}", p.read_text()) for p in sources) == []


def _seed_range_prints():
    """Each seed-range program printed with its markers and without them."""
    for offset, mkref, program, _ in seed_range():
        marked = pretty_print(program)
        stripped = parse_source(marked, validate=False)
        for m in all_methods(stripped):
            for st in iter_stmts(m.body):
                st.provenance = Provenance.BASE
        yield f"{offset}/{mkref}/marked", marked
        yield f"{offset}/{mkref}/stripped", pretty_print(stripped)


def test_line_reader_reads_the_seed_range_prints():
    assert _unread(_seed_range_prints()) == []


@pytest.mark.parametrize("workload", sorted(WORKLOAD_DIGESTS))
def test_line_reader_reads_the_bench_workloads(workload, tmp_path, monkeypatch):
    monkeypatch.delenv("OA_SEED", raising=False)  # as the byte-identity gate builds them
    wl = _bench_workloads().build_workload(workload, tmp_path / "in", WORKLOAD_SEED)
    sources = sorted(wl.root.rglob("*.mir"))
    assert sources
    assert _unread((str(p.relative_to(wl.root)), p.read_text()) for p in sources) == []
