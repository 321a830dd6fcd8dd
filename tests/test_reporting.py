from __future__ import annotations

from conftest import budget, parse_records
from oadetect.engine import Mode, Verdict, detect
from oadetect.frontend import parse_source
from oadetect.mir import find_method
from oadetect.reporting import (
    build_reports,
    emit_records,
    outcome_record,
    render_text,
)


def test_render_fig1_report_shape(fig1_simple):
    p, entry = fig1_simple
    out = detect(p, entry, Mode.NOPA, budget=budget())
    (report,) = build_reports(out, entry)
    text = render_text(report)
    assert "execution of line 8 overrides 10" in text
    assert "Interference in class Text, method generateReport()" in text
    assert "assigning to variable this.<ReportSimple: int fixes>" in text
    assert "Caused by line 8 flow:" in text
    assert "  at Text.generateReport():8" in text
    assert "  at ReportSimple.countDupWords():4" in text
    assert "And line 10 flow:" in text
    assert "  at Text.generateReport():10" in text
    assert "  at ReportSimple.countDupWhiteSpace():9" in text


def test_render_depth_zero_flows_have_single_frames():
    src = (
        "class A {\n  field f: int;\n  method m() {\n"
        "    this.f = 1 @L;\n    this.f = 2 @R;\n  }\n}\n"
    )
    p = parse_source(src)
    entry = find_method(p, "A.m")
    out = detect(p, entry, Mode.NOPA, budget=budget())
    (report,) = build_reports(out, entry)
    assert report.overridden_flow == ["A.m():4"]
    assert report.overriding_flow == ["A.m():5"]


def test_reports_sorted_by_line_pairs():
    src = (
        "class A {\n  field static g: int;\n  method m() {\n"
        "    c = 1;\n"
        "    if c {\n"
        "      A::g = 1 @L;\n"
        "      A::g = 2 @R;\n"
        "    } else {\n"
        "      A::g = 3 @L;\n"
        "      A::g = 4 @R;\n"
        "    }\n"
        "  }\n}\n"
    )
    p = parse_source(src)
    entry = find_method(p, "A.m")
    out = detect(p, entry, Mode.NOPA, budget=budget())
    reports = build_reports(out, entry)
    pairs = [(r.overridden.pos.line, r.overriding.pos.line) for r in reports]
    assert pairs == [(6, 7), (9, 10)]


def test_render_local_and_array_elements():
    src = (
        "class A {\n  method m() {\n    x = 1 @L;\n    x = 2 @R;\n  }\n"
        "  method n() {\n    arr = newarr int 3;\n    arr[0] = 1 @L;\n    arr[0] = 2 @R;\n  }\n}\n"
    )
    p = parse_source(src)
    m_out = detect(p, find_method(p, "A.m"), Mode.NOPA, budget=budget())
    (m_report,) = build_reports(m_out, find_method(p, "A.m"))
    assert "assigning to variable x in A.m()" in render_text(m_report)

    n_out = detect(p, find_method(p, "A.n"), Mode.NOPA, budget=budget())
    (n_report,) = build_reports(n_out, find_method(p, "A.n"))
    assert "assigning to variable arr[0]" in render_text(n_report)


def test_distinct_conflicts_render_distinct_texts():
    src = (
        "class A {\n  field static g: int;\n  method m() {\n"
        "    c = 1;\n"
        "    if c {\n"
        "      A::g = 1 @L;\n"
        "      A::g = 2 @R;\n"
        "    } else {\n"
        "      A::g = 3 @L;\n"
        "      A::g = 4 @R;\n"
        "    }\n"
        "  }\n}\n"
    )
    p = parse_source(src)
    entry = find_method(p, "A.m")
    reports = build_reports(detect(p, entry, Mode.NOPA, budget=budget()), entry)
    texts = [render_text(r) for r in reports]
    assert len(texts) == len(set(texts)) == 2


def test_emit_records_empty():
    assert emit_records([]) == ""


def test_emit_records_false_and_timeout_cases(fig1_advanced, deep_hierarchy):
    p, entry = fig1_advanced
    false_out = detect(p, entry, Mode.PA, budget=budget())
    dp, dentry = deep_hierarchy
    timeout_out = detect(dp, dentry, Mode.NOPA, budget=budget(fuel=10_000))
    text = emit_records(
        [("adv", Mode.PA, false_out), ("deep", Mode.NOPA, timeout_out)]
    )
    records = parse_records(text)
    assert records[0]["verdict"] == "false" and records[0]["conflicts"] == []
    assert records[1]["verdict"] == "timeout"
    assert records[1]["visited"] > 0
    # The outcome names the budget that ran out; records leave it out.
    assert timeout_out.stats.stop_reason == "path_cap" and "stop_reason" not in records[1]


def test_records_round_trip(fig1_simple):
    p, entry = fig1_simple
    out = detect(p, entry, Mode.PA, budget=budget())
    items = [("fig1_simple", Mode.PA, out)]
    text = emit_records(items)
    assert parse_records(text) == [outcome_record("fig1_simple", Mode.PA, out)]
    assert parse_records(text)[0]["conflicts"] == [
        {"element": "this.<ReportSimple: int fixes>", "over_line": 10, "under_line": 8}
    ]


def test_records_byte_stable(fig1_simple):
    p, entry = fig1_simple
    a = emit_records([("u", Mode.NOPA, detect(p, entry, Mode.NOPA, budget=budget()))])
    b = emit_records([("u", Mode.NOPA, detect(p, entry, Mode.NOPA, budget=budget()))])
    assert a == b


def test_missref_records(mkref_scenario):
    p, entry = mkref_scenario
    out = detect(p, entry, Mode.PA, budget=budget())
    assert out.verdict is Verdict.FALSE
    (record,) = parse_records(emit_records([("mkref", Mode.PA, out)]))
    assert record["missrefs"] == [
        {"file": "TextR.mir", "line": 9, "reason": "unresolved-call"},
        {"file": "TextR.mir", "line": 11, "reason": "unresolved-call"},
    ]
