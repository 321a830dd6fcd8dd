"""Fuzzing the frontend and the exit-code contract behind it.

The one-pass lexer is checked against a character loop kept here as the
reference. `parse_program`, which reads a source line by line and hands a
source outside the line layout to the token parser, must build the token
parser's program or raise its error, on fuzzed text, on mutated bundled
sources and on bundled sources with blanks, comments and line breaks moved
about. Mutated sources must fail, if at all, with a `MirError`, and
`analyze` over them must exit with a contract code.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oadetect.cli import main
from oadetect.frontend import (
    MAX_NESTING,
    ParseError,
    SourceUnit,
    _lex,
    _Parser,
    _read_lines,
    parse_program,
    parse_source,
    pretty_print,
)
from oadetect.harness import bundled_corpus_dir
from oadetect.mir import MirError, Program, all_methods, iter_stmts

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=400)

# ---------------------------------------------------------------------------
# Reference lexer: a character loop.

_PUNCT = ("::", "{", "}", "(", ")", "[", "]", ",", ";", ":", "=", ".")


class Token(NamedTuple):
    kind: str  # MARKER STRING INT ID PUNCT EOF
    value: str  # the spelling; a string literal's text without its quotes
    line: int


def _reference_tokenize(text: str, path: str) -> list[Token]:
    toks: list[Token] = []
    i = 0
    line = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("@L", i) or text.startswith("@R", i):
            toks.append(Token("MARKER", text[i : i + 2], line))
            i += 2
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0 or "\n" in text[i + 1 : j]:
                raise ParseError(path, line, "unterminated string literal")
            toks.append(Token("STRING", text[i + 1 : j], line))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("INT", text[i:j], line))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ID", text[i:j], line))
            i = j
            continue
        matched = False
        for punct in _PUNCT:
            if text.startswith(punct, i):
                toks.append(Token("PUNCT", punct, line))
                i += len(punct)
                matched = True
                break
        if not matched:
            raise ParseError(path, line, f"unexpected character {ch!r}")
    toks.append(Token("EOF", "", line))
    return toks


# ---------------------------------------------------------------------------
# Inputs

_PIECES = st.sampled_from(
    [
        "class", "interface", "method", "field", "ctor", "static", "call", "new", "op",
        "mkref", "newarr", "if", "else", "while", "return", "x", "A", "_f1", "0", "42",
        "-7", "-", '"s"', '"', "@L", "@R", "@", "//", "/", "::", ":", "{", "}", "(", ")",
        "[", "]", ",", ";", "=", ".", " ", "\t", "\r", "\n", "\f", "#",
        # Unicode digits and letters, where the ASCII token classes differ
        "²", "٣", "é", "ǅ",
    ]
)
_TEXT = st.one_of(
    st.lists(_PIECES, max_size=40).map("".join),
    st.text(st.characters(max_codepoint=127), max_size=60),
    st.text(max_size=60),
)
_CORPUS_DIRS = sorted(p.parent for p in bundled_corpus_dir().glob("*/scenario.json"))


@st.composite
def _mutants(draw):
    """A bundled scenario directory, one of its sources and that source with
    one to four pieces spliced in (each may cut a few characters), often at a
    word boundary."""
    scenario = draw(st.sampled_from(_CORPUS_DIRS))
    source = draw(st.sampled_from(sorted(scenario.glob("*.mir"))))
    text = source.read_text()
    for _ in range(draw(st.integers(1, 4))):
        bounds = [m.start() for m in re.finditer(r"\b", text)]
        at = draw(st.one_of(st.integers(0, len(text)), st.sampled_from(bounds)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(_PIECES) + text[at + cut :]
    return scenario, source.name, text


_FORMS = [
    "x = 1", 'x = "s"', "x = y", "x = new A(1, y)", "x = mkref A", "x = newarr int 3",
    "x = op(y, -2)", "x.f = 1", "x[0] = y", 'A::g = "s"', "x = y.f", "x = y[i]", "x = A::g",
    "x = y.m(1)", 'x = A::s("s")', "call y.m()", "call A::s(x, 2)", "return x", "return",
    "if x { x = 1; }", "if x { } else { x = 2; }", "while x { call y.m(1); }",
]
# Words the lexer must reject; a Unicode digit once reached int() this way.
_ODD_WORDS = st.sampled_from(["²", "1²", "-²", "٣", "é", "xé", "#"])


@st.composite
def _programs(draw):
    """A class whose one method holds statement forms, each with at most one
    space-separated word replaced by a piece or an odd word, between a left
    and a right write so that the method is an analysis entry."""
    lines = ["    x = 0 @L;"]
    for form in draw(st.lists(st.sampled_from(_FORMS), max_size=6)):
        words = form.split(" ")
        if draw(st.booleans()):
            words[draw(st.integers(0, len(words) - 1))] = draw(st.one_of(_PIECES, _ODD_WORDS))
        tail = "" if form.endswith("}") else draw(st.sampled_from(["", " @L", " @R"])) + ";"
        lines.append("    " + " ".join(words) + tail)
    body = "\n".join(lines + ["    x = 9 @R;"])
    return f"class A {{\n  field f: int;\n  method m(y, i) {{\n{body}\n  }}\n}}\n"


def lexed(text: str):
    """The lexer's (spelling, line) pairs for `text`, or its error line and message."""
    try:
        vals, lines = _lex(text, "fuzz.mir")
    except ParseError as e:
        return "error", e.line, e.message
    return "tokens", list(zip(vals, lines))


def reference_lexed(text: str):
    """`lexed` by the reference lexer, string literals spelled with their quotes."""
    try:
        toks = _reference_tokenize(text, "fuzz.mir")
    except ParseError as e:
        return "error", e.line, e.message
    return "tokens", [(f'"{t.value}"' if t.kind == "STRING" else t.value, t.line) for t in toks]


_SOURCES = sorted(bundled_corpus_dir().glob("*/*.mir"))
# Pieces a line edit inserts: blanks, comments and line breaks.
_LAYOUT = st.sampled_from(["\n", " ", "\t", "\r", "\r\n", "\n\n", "// c", " // x;", "\n// }\n"])


@st.composite
def _line_edits(draw):
    """A bundled source with one to three layout edits. Most insert a piece
    of `_LAYOUT` at a line's start or end; the others insert one inside a
    line (a line break there splits a statement over two lines) or join a
    line to the next."""
    text = draw(st.sampled_from(_SOURCES)).read_text()
    for _ in range(draw(st.integers(1, 3))):
        breaks = [i for i, ch in enumerate(text) if ch == "\n"]
        edit = draw(st.sampled_from(["start", "end", "end", "inside", "join"]))
        if edit == "join":
            at = draw(st.sampled_from(breaks))
            text = text[:at] + draw(st.sampled_from(["", " ", "\t"])) + text[at + 1 :]
            continue
        if edit == "inside":
            at = draw(st.integers(0, len(text)))
        else:
            at = draw(st.sampled_from(breaks)) + (edit == "start")
        text = text[:at] + draw(_LAYOUT) + text[at:]
    return text


def parsed(text: str):
    """`parse_program`'s unvalidated program for `text`, or its error."""
    try:
        return parse_program([SourceUnit("fuzz.mir", text)], validate=False)
    except MirError as e:
        return type(e).__name__, str(e)


def token_parsed(text: str):
    """`parsed` by the token parser alone."""
    try:
        return Program(*_Parser(SourceUnit("fuzz.mir", text)).parse_unit())
    except MirError as e:
        return type(e).__name__, str(e)


def _analyze(path: Path):
    out, err = io.StringIO(), io.StringIO()
    argv = [
        "analyze", str(path), "--deterministic", "--mode", "nopa", "--mode", "pa", "--mode", "hybrid",
        "--depth", "3", "--fuel", "2000", "--path-cap", "32",
    ]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Properties


@FUZZ
@given(_TEXT)
def test_regex_lexer_agrees_with_reference_on_ascii(text):
    got, want = lexed(text), reference_lexed(text)
    if got != want:
        # Intended difference: outside strings and comments the token
        # classes are ASCII, so a non-ASCII letter or digit (also after '-')
        # is an unexpected character where the loop took it into a token.
        assert not text.isascii()
        assert got[0] == "error" and got[2].startswith("unexpected character")


@FUZZ
@given(st.one_of(_TEXT, _programs(), _mutants().map(lambda m: m[2])))
def test_parse_source_raises_only_mir_errors(text):
    try:
        parse_source(text, path="fuzz.mir")
    except MirError:
        pass


@FUZZ
@given(st.one_of(_TEXT, _programs(), _mutants().map(lambda m: m[2]), _line_edits()))
def test_parse_program_agrees_with_the_token_parser(text):
    assert parsed(text) == token_parsed(text)


def _method(*lines: str) -> str:
    return "class A {\n  method m(c) {\n" + "".join(f"    {line}\n" for line in lines) + "  }\n}\n"


# Sources the line reader reads itself: comments, carriage returns, tabs,
# strings that hold `//`, `;` or `@L`, an empty file and a file without a
# trailing newline.
_READ_BY_LINES = {
    "empty": "",
    "no-final-newline": "class A {\n}",
    "crlf-tabs-comments": "// head\r\nclass A { // c\r\n\tfield f: int;\t\r\n}\r\n",
    "strings": _method('x = "a // b;" @L; // c', 'y = "@L";', "call c.m(\"//\", 1) @R;", "// x = 1;", "\t"),
    "blocks": _method("if c {", "  x = 1;", "} else {", '  y = "}";', "}", "while c {", "}"),
    "modifiers": "class A {\n  private\tstatic\tmethod m() {\n  }\n  public static method n(a,b) {\n  }\n"
                 "  static method o() {\n  }\n  field\tstatic g: A [ ];\n  ctor ( ) {\n  }\n}\n",
}


@pytest.mark.parametrize("text", _READ_BY_LINES.values(), ids=_READ_BY_LINES.keys())
def test_line_reader_reads_comments_blanks_and_strings(text):
    assert _read_lines(SourceUnit("fuzz.mir", text)) is not None
    assert parsed(text) == token_parsed(text)


def _nested_ifs(depth: int) -> str:
    return _method(*["if c {"] * depth, *["}"] * depth)


# Sources the token parser reads or rejects: non-ASCII letters and digits,
# keywords spelled as names, an integer past the digit limit, blocks nested
# past MAX_NESTING and an `else` off its closing brace's line.
_TRAPS = {
    "superscript-digit": _method("x = 1²;"),
    "latin-letter": _method("xé = 1;"),
    "arabic-digit": _method("x = ٣;"),
    "digit-index": _method("x[٣] = 1;"),
    "digit-load-index": _method("x = c[²];"),
    "digit-size": _method("x = newarr int ٣;"),
    "letter-class": "class Aé {\n}\n",
    "keyword-target": _method("new = 1;"),
    "keyword-field": _method("x = y.new;"),
    "keyword-receiver": _method("call op.m();"),
    "keyword-return": _method("return while;"),
    "keyword-source": _method("x = op;"),
    "keyword-argument": _method("call c.m(1, new);"),
    "keyword-method": "class A {\n  method if() {\n  }\n}\n",
    "keyword-field-name": "class A {\n  field static: int;\n}\n",
    "keyword-superclass": "class A extends class {\n}\n",
    "keyword-param": "class A {\n  method m(x, new) {\n  }\n}\n",
    "long-literal": _method(f"x = {'9' * 5000};"),
    "long-index": _method(f"x[{'9' * 5000}] = 1;"),
    "too-deep": _nested_ifs(MAX_NESTING + 1),
    "else-own-line": _method("if c {", "}", "else {", "}"),
    "else-twice": _method("if c {", "} else {", "} else {", "}"),
    "while-else": _method("while c {", "} else {", "}"),
    "else-after-close": _method("if c {", "}", "} else {", "}"),
    "two-statements": _method("x = 1; y = 2;"),
    "split-statement": _method("x =", "1;"),
    "one-line-class": "class A { }\n",
}


@pytest.mark.parametrize("text", _TRAPS.values(), ids=_TRAPS.keys())
def test_line_reader_hands_traps_to_the_token_parser(text):
    assert _read_lines(SourceUnit("fuzz.mir", text)) is None
    assert parsed(text) == token_parsed(text)


def test_deepest_nesting_is_read_by_lines():
    text = _nested_ifs(MAX_NESTING)
    assert _read_lines(SourceUnit("fuzz.mir", text)) is not None
    got, want = parsed(text), token_parsed(text)
    assert got == want
    assert pretty_print(got) == pretty_print(want)
    assert _positions(got) == _positions(want)


def _positions(p: Program) -> list:
    return [(m.pos, [st.pos for st in iter_stmts(m.body)]) for m in all_methods(p)]


@settings(FUZZ, max_examples=100)
@given(st.one_of(_mutants(), _programs().map(lambda text: (None, "a.mir", text))))
def test_analyze_exit_code_contract(source):
    scenario, name, text = source
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "scenario"
        if scenario is None:
            d.mkdir()
        else:
            shutil.copytree(scenario, d)
        (d / name).write_text(text)
        code, out, err = _analyze(d)
    assert code in (0, 1, 2, 3)
    # A report is printed exactly when a mode finds a conflict.
    assert ("Interference in class" in out) == (code == 1)
    if code == 1:
        assert "verdict: true" in out
    if code == 3:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_unicode_digit_literal_exits_3(tmp_path):
    # `str.isdigit()` took '²' for a digit and int() raised ValueError: a
    # traceback with exit 1, the code that means "conflict found".
    src = tmp_path / "a.mir"
    src.write_text("class A {\n  method m() {\n    x = ²;\n  }\n}\n")
    code, out, err = _analyze(src)
    assert (code, out) == (3, "")
    assert err == "error: a.mir:3: unexpected character '²'\n"
