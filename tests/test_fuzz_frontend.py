"""Fuzzing the frontend and the exit-code contract behind it.

The one-pass lexer is checked against a character loop kept here as the
reference. Mutated bundled sources must fail, if at all, with a
`MirError`, and `analyze` over them must exit with a contract code.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from oadetect.cli import main
from oadetect.frontend import ParseError, _lex, parse_source
from oadetect.harness import bundled_corpus_dir
from oadetect.mir import MirError

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
