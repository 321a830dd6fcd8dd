"""Fuzzing the scenario manifest and the sidecar line map.

`scenario.json` reaches the CLI through `analyze <dir>` and `corpus --root`,
and a sidecar through `--sidecar`. Whatever their bytes (arbitrary text,
mutations of a valid document, bytes that are not UTF-8) the exit code must
stay within the contract: an exit 3 is one `error:` (under `corpus`,
`scenario error:`) line and no traceback, and `analyze` prints a report
exactly when it exits 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oadetect.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# Field `f` written on line 4 and again on line 6: with the sidecar below
# marking them left and right, `A.m` is the entry and every mode conflicts.
SOURCE = "class A {\n  field f: int;\n  method m() {\n    this.f = 1;\n    x = op();\n    this.f = 2;\n  }\n}\n"
SIDECAR = {"left": [{"file": "a.mir", "line": 4}], "right": [{"file": "a.mir", "line": 6}]}
MANIFEST = {"id": "s", "project": "p", "sources": ["a.mir"], "sidecar": "map.json", "entry": None,
            "ground_truth": "true"}

# Names and values near the valid ones, with a path, a line break and a NUL.
_WORDS = st.sampled_from([
    "a.mir", "b.mir", "map.json", ".", "", "a\nb", "a\x00", "A.m", "A.m/0", "A.m/x", "B.m", "true", "false",
    "s", "left", "right", "file", "line",
])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | _WORDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6) | _WORDS, inner, max_size=3),
    max_leaves=8,
)


def _near(draw, value):
    """A value near `value`: mostly one of its own shape with a part dropped,
    replaced or added, and now and then any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    if isinstance(value, dict):
        keys = st.sampled_from(sorted(value)) | _WORDS if value else _WORDS
        value = dict(value)
        for key in draw(st.lists(keys, min_size=1, max_size=2)):
            if key in value and draw(st.booleans()):
                del value[key]
            else:
                value[key] = _near(draw, value.get(key))
        return value
    if isinstance(value, list):
        value = list(value)
        if value and draw(st.booleans()):
            i = draw(st.integers(0, len(value) - 1))
            value[i] = _near(draw, value[i])
        else:
            value.append(_near(draw, draw(st.sampled_from(value)) if value else None))
        return value
    if isinstance(value, str):
        return draw(_WORDS | st.text(max_size=6))
    if isinstance(value, int) and not isinstance(value, bool):
        return draw(st.integers(-2, 10) | _JSON)
    return draw(_JSON)


@st.composite
def _not_utf8(draw, text: str) -> bytes:
    """`text` with one byte above 0x7f inserted; `text` is ASCII, so the
    byte cannot complete a UTF-8 sequence."""
    raw = text.encode()
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + raw[at:]


def _document_bytes(doc: dict):
    mutants = st.composite(lambda draw: json.dumps(_near(draw, doc)))()
    # Mostly near-valid documents: arbitrary text and bytes rarely get past
    # the JSON decoder.
    return st.one_of(
        mutants.map(str.encode),
        mutants.map(str.encode),
        mutants.map(str.encode),
        mutants.flatmap(_not_utf8),
        st.text(max_size=80).map(str.encode),
        st.binary(max_size=40),
    )


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _scenario(root: Path, manifest: bytes, sidecar: bytes) -> Path:
    d = root / "scn"
    d.mkdir()
    (d / "a.mir").write_text(SOURCE)
    (d / "scenario.json").write_bytes(manifest)
    (d / "map.json").write_bytes(sidecar)
    return d


_BUDGET = ["--deterministic", "--depth", "3", "--fuel", "2000", "--path-cap", "32"]


def _check_analyze(code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2, 3)
    # A report is printed exactly when a mode finds a conflict.
    assert ("Interference in class" in out) == (code == 1)
    if code == 3:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def _analyze(d: Path, *extra: str):
    modes = ["--mode", "nopa", "--mode", "pa", "--mode", "hybrid"]
    return _cli(["analyze", str(d), *modes, *_BUDGET, *extra])


# ---------------------------------------------------------------------------
# Properties


@FUZZ
@given(_document_bytes(MANIFEST))
def test_analyze_manifest_exit_code_contract(manifest):
    with tempfile.TemporaryDirectory() as tmp:
        d = _scenario(Path(tmp), manifest, json.dumps(SIDECAR).encode())
        _check_analyze(*_analyze(d))


@FUZZ
@given(_document_bytes(SIDECAR))
def test_analyze_sidecar_exit_code_contract(sidecar):
    with tempfile.TemporaryDirectory() as tmp:
        d = _scenario(Path(tmp), json.dumps({"id": "s", "sources": ["a.mir"]}).encode(), sidecar)
        _check_analyze(*_analyze(d, "--sidecar", str(d / "map.json")))


@settings(FUZZ, max_examples=100)
@given(st.one_of(
    _document_bytes(MANIFEST).map(lambda m: (m, json.dumps(SIDECAR).encode())),
    _document_bytes(SIDECAR).map(lambda s: (json.dumps(MANIFEST).encode(), s)),
))
def test_corpus_manifest_and_sidecar_exit_code_contract(files):
    with tempfile.TemporaryDirectory() as tmp:
        d = _scenario(Path(tmp), *files)
        code, _, err = _cli(["corpus", "--root", str(d), "--out", str(Path(tmp) / "out"), "--reps", "1",
                             "--modes", "nopa,pa,hybrid", *_BUDGET])
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert err.startswith(("error: ", "scenario error: ")) and err.count("\n") == 1
    else:
        assert err == ""


# ---------------------------------------------------------------------------
# What the properties found: each of these ended in a traceback with exit 1,
# the code that means "conflict found", or in an error of two lines.


def _one_error_line(result, fragment: str) -> str:
    code, _, err = result
    assert code == 3
    assert err.startswith(("error: ", "scenario error: ")) and err.count("\n") == 1
    assert fragment in err
    return err


def test_a_file_name_with_a_nul_byte_exits_3(tmp_path):
    manifest = dict(MANIFEST, sidecar="a\x00")
    d = _scenario(tmp_path, json.dumps(manifest).encode(), b"{}")
    _one_error_line(_analyze(d), "/scn/a\\x00': embedded null byte")


def test_json_nested_too_deep_exits_3(tmp_path):
    deep = b"[" * 100_000 + b"]" * 100_000
    d = _scenario(tmp_path, deep, deep)
    _one_error_line(_analyze(d), "scenario.json is not valid JSON: maximum recursion depth exceeded")
    (d / "scenario.json").write_text(json.dumps({"id": "s", "sources": ["a.mir"]}))
    _one_error_line(_analyze(d, "--sidecar", str(d / "map.json")), "sidecar is not valid JSON")


def test_a_line_break_in_a_name_stays_within_one_error_line(tmp_path):
    manifest = {"id": "a\nb", "sources": ["a.mir"]}
    d = _scenario(tmp_path, json.dumps(manifest).encode(), json.dumps(SIDECAR).encode())
    # The id names the unit on the `unit<TAB>mode<TAB>verdict` lines `corpus`
    # prints, so the manifest is refused.
    refused = "scenario.json: 'id' must hold no line break, tab or other control character, got \"a\\nb\""
    _one_error_line(_analyze(d), refused)
    corpus = ["corpus", "--root", str(d), "--out", str(tmp_path / "out"), "--reps", "1"]
    result = _cli(corpus)
    _one_error_line(result, "scenario error: scn: ")
    _one_error_line(result, refused)
    (d / "scenario.json").write_text(json.dumps({"id": "s", "sources": ["a.mir"]}))
    (d / "map.json").write_text(json.dumps({"left": [{"file": "a\nb", "line": 4}]}))
    _one_error_line(_analyze(d, "--sidecar", str(d / "map.json")), "no statement at line a\\nb:4")


# Past the interpreter's limit on the digits `int()` converts (4 300 by
# default since Python 3.11 and 3.10.7), a number in a source, a sidecar or
# a manifest raised a bare ValueError.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_HUGE = "1" * (_DIGIT_LIMIT + 1)
needs_digit_limit = pytest.mark.skipif(_DIGIT_LIMIT == 0, reason="the interpreter converts any integer")


@needs_digit_limit
@pytest.mark.parametrize("stmt", [f"x = {_HUGE} @L;", f"a[{_HUGE}] = 1 @L;", f"x = newarr int {_HUGE};"],
                         ids=["literal", "index", "array-size"])
def test_a_huge_integer_in_a_source_exits_3(stmt, tmp_path):
    d = _scenario(tmp_path, json.dumps({"id": "s", "sources": ["a.mir"]}).encode(), b"{}")
    (d / "a.mir").write_text(f"class A {{\n  method m() {{\n    a = newarr int 2;\n    {stmt}\n  }}\n}}\n")
    _one_error_line(_analyze(d), f"a.mir:4: integer literal too long ({len(_HUGE)} digits)")


@needs_digit_limit
def test_a_huge_integer_in_a_sidecar_or_a_manifest_exits_3(tmp_path):
    sidecar = '{"left": [{"file": "a.mir", "line": %s}], "right": []}' % _HUGE
    d = _scenario(tmp_path, json.dumps({"id": "s", "sources": ["a.mir"]}).encode(), sidecar.encode())
    # The limit is named in the message; CPython's hint to raise it is not.
    too_long = f"integer too long (over {_DIGIT_LIMIT} digits)"
    errors = [_one_error_line(_analyze(d, "--sidecar", str(d / "map.json")), f"sidecar: {too_long}")]
    (d / "scenario.json").write_text('{"id": "s", "sources": ["a.mir"], "project": %s}' % _HUGE)
    errors.append(_one_error_line(_analyze(d), f"scenario.json: {too_long}"))
    result = _cli(["corpus", "--root", str(d), "--out", str(tmp_path / "out"), "--reps", "1", *_BUDGET])
    _one_error_line(result, "scenario error: scn: ")
    errors.append(_one_error_line(result, f"scenario.json: {too_long}"))
    assert not any("set_int_max_str_digits" in err or "JSON" in err for err in errors)
