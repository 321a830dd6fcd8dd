from __future__ import annotations

import tracemalloc

import pytest

from conftest import ALL_MODES, CONFLICT_THEN_FORKS, NESTED_CALLS, RETURN_IN_BLOCKS, _nested_calls, budget
from oadetect.cha import build_cha_graph, resolve_static
from oadetect.engine import (
    _BRANCH,
    _CALL,
    AnalysisBudget,
    DetectionContext,
    Mode,
    Verdict,
    WriteEvent,
    compare_heap,
    count_tree,
    detect,
    empty_pts_miss,
    enumerate_write_paths,
    resolve_call,
)
from oadetect.frontend import parse_source
from oadetect.mir import (
    MirError,
    Position,
    Provenance,
    StaticCall,
    VirtualCall,
    find_method,
    iter_stmts,
)
from oadetect.pointsto import pa_entry_points, pts_of, solve
from oadetect.randprog import DEFAULT_SEED, generate_program
from oadetect.reporting import outcome_record

HIERARCHY = """
interface Top {
  method m();
}
class D implements Top {
  method m() {
  }
}
class A extends D {
}
class B extends D {
}
class U {
}
"""


def _ev(kind, line=1, prov=Provenance.BASE, method="C.m/0", enclosing="method", **kw):
    cls, rest = method.split(".", 1)
    return WriteEvent(
        kind=kind,
        pos=Position("t.mir", line),
        provenance=prov,
        method_id=method,
        method_display=f"{cls}.{rest.split('/')[0]}()",
        enclosing_kind=enclosing,
        **kw,
    )


@pytest.fixture(scope="module")
def ctx():
    p = parse_source(HIERARCHY)
    return DetectionContext(p, Mode.NOPA, AnalysisBudget(wall_clock=None))


# ---------------------------------------------------------------------------
# Aliasing rules: element keys for LV/SFR, `compare_heap` for IFR/AR


def test_compare_local_same_method_same_name():
    a = _ev("LV", local="x")
    b = _ev("LV", line=2, local="x")
    assert a.element_key() == b.element_key()


def test_compare_local_different_method():
    a = _ev("LV", local="x", method="C.m/0")
    b = _ev("LV", local="x", method="C.n/0")
    assert a.element_key() != b.element_key()


def test_compare_local_different_name():
    a, b = _ev("LV", local="x"), _ev("LV", line=2, local="y")
    assert a.element_key() != b.element_key()


def _ifr(line, base, base_type, field=("D", "f", "int"), pts=None, prov=Provenance.BASE,
         method="C.m/0", enclosing="method"):
    return _ev(
        "IFR",
        line=line,
        prov=prov,
        method=method,
        enclosing=enclosing,
        base=base,
        base_type=base_type,
        base_pts=pts,
        field=field,
        field_name=field[1],
    )


def test_ifr_pa_overlapping_points_to(ctx):
    a = _ifr(1, "this", "D", pts=frozenset({0}))
    b = _ifr(2, "this", "D", pts=frozenset({0, 1}))
    match, _, empty = compare_heap(a, b, Mode.PA, ctx.hierarchy)
    assert match and not empty


def test_ifr_nopa_same_class_different_constructors(ctx):
    # Two constructors of one class: the same-constructor exclusion is off.
    a = _ifr(1, "a", "D", method="D.<init>/1", enclosing="constructor")
    b = _ifr(2, "b", "D", method="D.<init>/2", enclosing="constructor")
    assert compare_heap(a, b, Mode.NOPA, ctx.hierarchy)[0]


def test_ifr_nopa_subtype_bases_are_related(ctx):
    a = _ifr(1, "a", "A")
    b = _ifr(2, "b", "D")
    assert compare_heap(a, b, Mode.NOPA, ctx.hierarchy)[0]


def test_ifr_same_constructor_excluded(ctx):
    a = _ifr(1, "this", "D", method="D.<init>/1", enclosing="constructor")
    b = _ifr(2, "this", "D", method="D.<init>/1", enclosing="constructor")
    assert not compare_heap(a, b, Mode.NOPA, ctx.hierarchy)[0]
    assert not compare_heap(
        _ifr(1, "this", "D", pts=frozenset({0}), method="D.<init>/1", enclosing="constructor"),
        _ifr(2, "this", "D", pts=frozenset({0}), method="D.<init>/1", enclosing="constructor"),
        Mode.PA,
        ctx.hierarchy,
    )[0]


def test_ifr_pa_disjoint_points_to(ctx):
    a = _ifr(1, "a", "D", pts=frozenset({0}))
    b = _ifr(2, "b", "D", pts=frozenset({1}))
    assert not compare_heap(a, b, Mode.PA, ctx.hierarchy)[0]


def test_hybrid_compares_heap_writes_by_points_to(ctx):
    # Related base types, disjoint sets: only the points-to rule refuses.
    for make in (lambda line, pts: _ifr(line, "a", "D", pts=pts),
                 lambda line, pts: _ar(line, "arr", "D[]", 0, pts=pts)):
        a, b = make(1, frozenset({0})), make(2, frozenset({1}))
        assert compare_heap(a, b, Mode.NOPA, ctx.hierarchy)[0]
        for mode in (Mode.PA, Mode.HYBRID):
            assert compare_heap(a, b, mode, ctx.hierarchy) == (False, None, ())
            # An empty set logs its write and falls back to the base types.
            match, _, empty = compare_heap(a, make(2, None), mode, ctx.hierarchy)
            assert match and [empty_pts_miss(ev).pos.line for ev in empty] == [2]


def test_compare_heap_gives_nopas_answer_from_the_same_test(ctx):
    # Overlapping sets on unrelated base types: `pa` matches and `nopa` does
    # not; disjoint sets on related ones: the other way round.
    h = ctx.hierarchy
    a = _ifr(1, "a", "U", field=("U", "f", "int"), pts=frozenset({0}))
    b = _ifr(2, "b", "D", field=("U", "f", "int"), pts=frozenset({0, 1}))
    assert compare_heap(a, b, Mode.PA, h, nopa=True) == (True, False, ())
    assert compare_heap(a, b, Mode.PA, h) == (True, None, ())
    c, d = _ifr(1, "c", "A", pts=frozenset({0})), _ifr(2, "d", "D", pts=frozenset({1}))
    assert compare_heap(c, d, Mode.HYBRID, h, nopa=True) == (False, True, ())
    assert compare_heap(c, d, Mode.NOPA, h, nopa=True) == (True, True, ())
    # With a set empty, the mode answers as `nopa` does.
    e = _ifr(2, "d", "D")
    assert compare_heap(c, e, Mode.PA, h, nopa=True) == (True, True, (e,))
    assert compare_heap(e, e, Mode.PA, h) == (True, None, (e, e))


def test_ifr_pa_miss_falls_back_to_name_rule(ctx):
    # Unrelated base types: the fallback refuses the match but logs the miss.
    a = _ifr(1, "a", "U", field=("U", "f", "int"))
    b = _ifr(2, "b", "D", field=("U", "f", "int"))
    match, _, empty = compare_heap(a, b, Mode.PA, ctx.hierarchy)
    assert empty and not match
    assert len(empty) == 2
    assert all(empty_pts_miss(ev).reason == "empty-pts" for ev in empty)
    assert [empty_pts_miss(ev)[:2] for ev in empty] == [(a.pos, "a.f"), (b.pos, "b.f")]
    # Related base types: the fallback accepts.
    c = _ifr(1, "a", "A")
    d = _ifr(2, "b", "D")
    match2, _, empty2 = compare_heap(c, d, Mode.PA, ctx.hierarchy)
    assert empty2 and match2


def test_ifr_nopa_unrelated_bases(ctx):
    a = _ifr(1, "a", "U", field=("U", "f", "int"))
    b = _ifr(2, "b", "D", field=("U", "f", "int"))
    assert not compare_heap(a, b, Mode.NOPA, ctx.hierarchy)[0]


def test_ifr_different_fields_never_match(ctx):
    a = _ifr(1, "this", "D", field=("D", "f", "int"), pts=frozenset({0}))
    b = _ifr(2, "this", "D", field=("D", "g", "int"), pts=frozenset({0}))
    assert not compare_heap(a, b, Mode.PA, ctx.hierarchy)[0]


def _ar(line, base, base_type, index, pts=None, method="C.m/0", enclosing="method"):
    return _ev(
        "AR",
        line=line,
        method=method,
        enclosing=enclosing,
        base=base,
        base_type=base_type,
        base_pts=pts,
        index=index,
    )


def test_ar_nopa_same_class_same_index_local(ctx):
    a = _ar(1, "arr1", "D[]", "i")
    b = _ar(2, "arr2", "D[]", "i")
    assert compare_heap(a, b, Mode.NOPA, ctx.hierarchy)[0]


def test_ar_distinct_constant_indexes(ctx):
    assert not compare_heap(_ar(1, "arr", "D[]", 0), _ar(2, "arr", "D[]", 1), Mode.NOPA, ctx.hierarchy)[0]


def test_ar_pa_disjoint_sites(ctx):
    a = _ar(1, "arr1", "D[]", "i", pts=frozenset({0}))
    b = _ar(2, "arr2", "D[]", "i", pts=frozenset({1}))
    assert not compare_heap(a, b, Mode.PA, ctx.hierarchy)[0]


def test_nopa_bases_of_array_or_undeclared_types(ctx):
    # A base of type `T[][]` holds arrays, which no class type relates to;
    # an undeclared type relates only to itself.
    h = ctx.hierarchy
    assert compare_heap(_ar(1, "a", "D[]", 0), _ar(2, "b", "A[]", 0), Mode.NOPA, h)[0]
    assert not compare_heap(_ar(1, "a", "D[][]", 0), _ar(2, "b", "D[]", 0), Mode.NOPA, h)[0]
    assert not compare_heap(_ar(1, "a", "D[]", 0), _ar(2, "b", "D[][]", 0), Mode.NOPA, h)[0]
    assert compare_heap(_ar(1, "a", "D[][]", 0), _ar(2, "b", "D[][]", 0), Mode.NOPA, h)[0]
    assert not compare_heap(_ifr(1, "a", "Nope"), _ifr(2, "b", "D"), Mode.NOPA, h)[0]
    assert not compare_heap(_ifr(1, "a", "D"), _ifr(2, "b", "Nope"), Mode.NOPA, h)[0]
    assert compare_heap(_ifr(1, "a", "Nope"), _ifr(2, "b", "Nope"), Mode.NOPA, h)[0]


def test_ar_constant_vs_local_index_is_eligible(ctx):
    a = _ar(1, "arr1", "D[]", 0)
    b = _ar(2, "arr2", "D[]", "i")
    assert compare_heap(a, b, Mode.NOPA, ctx.hierarchy)[0]


def test_sfr_matches_on_class_name_type():
    a = _ev("SFR", static_cls="C", field_name="g", static_type="int")
    b = _ev("SFR", line=2, static_cls="C", field_name="g", static_type="int")
    assert a.element_key() == b.element_key()
    c = _ev("SFR", line=3, static_cls="D", field_name="g", static_type="int")
    d = _ev("SFR", line=4, static_cls="C", field_name="g", static_type="Report")
    e = _ev("SFR", line=5, static_cls="C", field_name="h", static_type="int")
    for other in (c, d, e):
        assert a.element_key() != other.element_key()


# ---------------------------------------------------------------------------
# Call resolution


def test_resolve_call_pa_narrows_to_wiring(fig1_simple):
    p, entry = fig1_simple
    ctx = DetectionContext(p, Mode.PA, AnalysisBudget(wall_clock=None), pts=solve(p))
    site = next(
        st
        for st in iter_stmts(entry.body)
        if isinstance(st, VirtualCall) and st.pos.line == 8
    )
    targets, miss = resolve_call(site, ctx)
    assert [t.id for t in targets] == ["ReportSimple.countDupWords/0"]
    assert miss is None


MKREF_TWO_IMPLS = """
interface Report {
  method countDupWords();
}
class ReportSimple implements Report {
  field fixes: int;
  method countDupWords() {
    this.fixes = 1;
  }
}
class ReportAdvanced implements Report {
  field dupWords: int;
  method countDupWords() {
    this.dupWords = 1;
  }
}
class TextR {
  field r: Report;
  method setup() {
    h = mkref Report;
    this.r = h;
  }
  method generateReport() {
    r = this.r;
    call r.countDupWords();
  }
}
class Main {
  public static method main() {
    t = new TextR();
    call t.setup();
    call t.generateReport();
  }
}
"""


def test_resolve_call_miss_reference_widens_only_in_hybrid():
    p = parse_source(MKREF_TWO_IMPLS)
    entry = find_method(p, "TextR.generateReport")
    site = next(st for st in iter_stmts(entry.body) if isinstance(st, VirtualCall))
    pts = solve(p)

    pa_ctx = DetectionContext(p, Mode.PA, AnalysisBudget(wall_clock=None), pts=pts)
    targets, miss = resolve_call(site, pa_ctx)
    assert targets == [] and miss is not None and miss.reason == "unresolved-call"

    hybrid_ctx = DetectionContext(
        p, Mode.HYBRID, AnalysisBudget(wall_clock=None),
        cha=build_cha_graph(p, entry), pts=pts,
    )
    targets, miss = resolve_call(site, hybrid_ctx)
    assert {t.id for t in targets} == {
        "ReportSimple.countDupWords/0",
        "ReportAdvanced.countDupWords/0",
    }
    assert miss is not None


def test_static_calls_resolve_to_single_target():
    src = (
        "class U {\n  static method s() {\n  }\n}\n"
        "class A extends U {\n  method m() {\n    call A::s();\n  }\n}\n"
    )
    p = parse_source(src)
    site = next(st for st in iter_stmts(find_method(p, "A.m").body) if isinstance(st, StaticCall))
    assert resolve_static(p.hierarchy(), site).id == "U.s/0"


# ---------------------------------------------------------------------------
# Path enumeration


def test_enumerate_straight_line():
    p = parse_source("class A {\n  method m() {\n    x = 1;\n    y = 2;\n    z = 3;\n  }\n}\n")
    entry = find_method(p, "A.m")
    paths = list(enumerate_write_paths(p, entry, budget(), Mode.NOPA))
    assert len(paths) == 1
    assert [ev.local for ev in paths[0]] == ["x", "y", "z"]


def test_enumerate_if_forks():
    src = "class A {\n  method m() {\n    c = 1;\n    if c {\n      x = 1;\n    } else {\n      y = 2;\n    }\n  }\n}\n"
    p = parse_source(src)
    paths = list(enumerate_write_paths(p, find_method(p, "A.m"), budget(), Mode.NOPA))
    assert len(paths) == 2
    assert {tuple(ev.local for ev in path) for path in paths} == {("c", "x"), ("c", "y")}


def test_enumerate_while_skip_and_once():
    src = "class A {\n  method m() {\n    c = 1;\n    while c {\n      x = 1;\n    }\n  }\n}\n"
    p = parse_source(src)
    paths = list(enumerate_write_paths(p, find_method(p, "A.m"), budget(), Mode.NOPA))
    assert {tuple(ev.local for ev in path) for path in paths} == {("c",), ("c", "x")}


def test_enumerate_fig1_advanced_covers_target_product(fig1_advanced):
    p, entry = fig1_advanced
    paths = list(enumerate_write_paths(p, entry, budget(), Mode.NOPA))
    assert len(paths) == 4
    covered = {
        tuple(ev.method_id for ev in path if ev.kind == "IFR") for path in paths
    }
    simple, advanced = "ReportSimple.countDupWords/0", "ReportAdvanced.countDupWords/0"
    simple_ws, advanced_ws = "ReportSimple.countDupWhiteSpace/0", "ReportAdvanced.countDupWhiteSpace/0"
    assert covered == {
        (simple, simple_ws),
        (simple, advanced_ws),
        (advanced, simple_ws),
        (advanced, advanced_ws),
    }


def test_enumerate_collapses_consecutive_same_side_local_writes():
    src = "class A {\n  method m() {\n    count = op();\n    count = op(count);\n    x = 1;\n  }\n}\n"
    p = parse_source(src)
    (path,) = enumerate_write_paths(p, find_method(p, "A.m"), budget(), Mode.NOPA)
    assert [(ev.local, ev.pos.line) for ev in path] == [("count", 4), ("x", 5)]


def test_enumerate_return_cuts_rest_of_method():
    src = (
        "class A {\n  method m() {\n    c = 1;\n    if c {\n      return;\n    }\n    x = 1;\n  }\n}\n"
    )
    p = parse_source(src)
    paths = list(enumerate_write_paths(p, find_method(p, "A.m"), budget(), Mode.NOPA))
    assert {tuple(ev.local for ev in path) for path in paths} == {("c",), ("c", "x")}


# ---------------------------------------------------------------------------
# Detection


def test_detect_fig1_simple_all_modes(fig1_simple):
    p, entry = fig1_simple
    for mode in (Mode.NOPA, Mode.PA, Mode.HYBRID):
        out = detect(p, entry, mode, budget=budget())
        assert out.verdict is Verdict.TRUE
        (c,) = out.conflicts
        assert c.overridden.root_pos.line == 8
        assert c.overriding.root_pos.line == 10
        assert c.overridden.pos == Position("ReportSimple.mir", 4)
        assert c.overriding.pos == Position("ReportSimple.mir", 9)


def test_detect_fig1_advanced_false_positive_only_without_points_to(fig1_advanced):
    p, entry = fig1_advanced
    assert detect(p, entry, Mode.NOPA, budget=budget()).verdict is Verdict.TRUE
    assert detect(p, entry, Mode.PA, budget=budget()).verdict is Verdict.FALSE


def test_detect_mkref_tri_mode(mkref_scenario):
    p, entry = mkref_scenario
    nopa = detect(p, entry, Mode.NOPA, budget=budget())
    pa = detect(p, entry, Mode.PA, budget=budget())
    hybrid = detect(p, entry, Mode.HYBRID, budget=budget())
    assert nopa.verdict is Verdict.TRUE
    assert pa.verdict is Verdict.FALSE and len(pa.missrefs) >= 1
    assert hybrid.verdict is Verdict.TRUE


def test_detect_intervening_base_write_blocks():
    src = (
        "class A {\n"
        "  field static g: int;\n"
        "  method m() {\n"
        "    A::g = 1 @L;\n"
        "    A::g = 2;\n"
        "    A::g = 3 @R;\n"
        "  }\n"
        "}\n"
    )
    p = parse_source(src)
    entry = find_method(p, "A.m")
    for mode in (Mode.NOPA, Mode.PA, Mode.HYBRID):
        assert detect(p, entry, mode, budget=budget()).verdict is Verdict.FALSE


def test_detect_opposite_sides_conflict_without_base():
    src = (
        "class A {\n"
        "  field static g: int;\n"
        "  method m() {\n"
        "    A::g = 1 @L;\n"
        "    A::g = 3 @R;\n"
        "  }\n"
        "}\n"
    )
    p = parse_source(src)
    out = detect(p, find_method(p, "A.m"), Mode.NOPA, budget=budget())
    assert out.verdict is Verdict.TRUE
    (c,) = out.conflicts
    assert (c.overridden.pos.line, c.overriding.pos.line) == (4, 5)


# Known misses, pinned on the verdict their fix must give: each marker is
# strict, so the change that fixes a miss must drop its marker.

TWO_INTERFACES = (
    "interface I1 {\n}\n"
    "interface I2 {\n}\n"
    "class C implements I1, I2 {\n  field f: int;\n}\n"
    "class D {\n"
    "  field a: I1;\n"
    "  field b: I2;\n"
    "  ctor(a, b) {\n    this.a = a;\n    this.b = b;\n  }\n"
    "  method m() {\n"
    "    x = this.a;\n"
    "    y = this.b;\n"
    "    x.f = 1 @L;\n"
    "    y.f = 2 @R;\n"
    "  }\n"
    "}\n"
    "class Main {\n"
    "  public static method main() {\n"
    "    c = new C();\n"
    "    d = new D(c, c);\n"
    "    call d.m();\n"
    "  }\n"
    "}\n"
)
TWO_INDEX_LOCALS = (
    "class A {\n"
    "  field a: int[];\n"
    "  method m(i) {\n"
    "    arr = this.a;\n"
    "    j = i;\n"
    "    arr[i] = 1 @L;\n"
    "    arr[j] = 2 @R;\n"
    "  }\n"
    "}\n"
)
OVERRIDE_ACROSS_ITERATIONS = (
    "class A {\n"
    "  field f: int;\n"
    "  method m(c) {\n"
    "    while c {\n"
    "      if c {\n        this.f = 1 @L;\n      } else {\n        this.f = 2 @R;\n      }\n"
    "    }\n"
    "  }\n"
    "}\n"
)


def _verdict(src: str, entry: str, mode: Mode) -> Verdict:
    p = parse_source(src)
    return detect(p, find_method(p, entry), mode, budget=budget()).verdict


@pytest.mark.parametrize("mode", [Mode.PA, Mode.HYBRID])
def test_points_to_sees_one_object_through_two_interfaces(mode):
    assert _verdict(TWO_INTERFACES, "D.m", mode) is Verdict.TRUE


@pytest.mark.parametrize("mode", [Mode.PA, Mode.HYBRID])
def test_a_heap_comparison_unlike_nopas_clears_nopa_choices(mode):
    p = parse_source(TWO_INTERFACES)
    entry = find_method(p, "D.m")
    cha = build_cha_graph(p, entry)
    assert not detect(p, entry, mode, budget=budget(), cha=cha).stats.nopa_choices
    assert detect(p, entry, Mode.NOPA, budget=budget(), cha=cha).stats.nopa_choices


def test_nopa_choices_needs_the_cha_graph_under_pa(fig1_simple):
    p, entry = fig1_simple
    cha = build_cha_graph(p, entry)
    assert detect(p, entry, Mode.PA, budget=budget(), cha=cha).stats.nopa_choices
    assert not detect(p, entry, Mode.PA, budget=budget()).stats.nopa_choices  # cannot tell
    assert detect(p, entry, Mode.HYBRID, budget=budget()).stats.nopa_choices


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: nopa relates two declared types only by subtyping")
def test_nopa_relates_two_interfaces_a_class_implements():
    assert _verdict(TWO_INTERFACES, "D.m", Mode.NOPA) is Verdict.TRUE


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: two index locals count as two slots")
@pytest.mark.parametrize("mode", ALL_MODES)
def test_two_index_locals_may_hold_one_value(mode):
    assert _verdict(TWO_INDEX_LOCALS, "A.m", mode) is Verdict.TRUE


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the path model runs a loop body at most once")
@pytest.mark.parametrize("mode", ALL_MODES)
def test_a_write_overrides_one_from_an_earlier_loop_iteration(mode):
    assert _verdict(OVERRIDE_ACROSS_ITERATIONS, "A.m", mode) is Verdict.TRUE


def _chain_source(depth: int) -> str:
    # Entry calls a static chain m1 -> ... -> m{depth}; the deepest writes g.
    parts = ["class A {", "  field static g: int;", "  method entry() {",
             "    call A::m1() @L;", "    A::g = 9 @R;", "  }"]
    for i in range(1, depth):
        parts += [f"  static method m{i}() {{", f"    call A::m{i + 1}();", "  }"]
    parts += [f"  static method m{depth}() {{", "    A::g = 1;", "  }", "}"]
    return "\n".join(parts) + "\n"


def test_depth_limit_hides_writes_beyond_five_calls():
    reachable = parse_source(_chain_source(5))
    out = detect(reachable, find_method(reachable, "A.entry"), Mode.NOPA, budget=budget())
    assert out.verdict is Verdict.TRUE
    assert all(len(ev.call_path) <= 5 for c in out.conflicts for ev in (c.overridden, c.overriding))

    hidden = parse_source(_chain_source(6))
    out = detect(hidden, find_method(hidden, "A.entry"), Mode.NOPA, budget=budget())
    assert out.verdict is Verdict.FALSE


def test_timeout_retains_partial_conflicts():
    p = parse_source(CONFLICT_THEN_FORKS)
    entry = find_method(p, "A.m")
    out = detect(p, entry, Mode.NOPA, budget=budget(fuel=300, path_cap=100000))
    assert out.verdict is Verdict.TIMEOUT
    assert out.conflicts  # partial results retained


def test_library_entry_parameters_fall_back_with_missrefs():
    # No main anywhere: the precise mode has nothing to bind the receiver to,
    # so the comparison falls back to the name/type rule and logs the misses.
    src = (
        "class Lib {\n  field f: int;\n  method m() {\n"
        "    this.f = 1 @L;\n    this.f = 2 @R;\n  }\n}\n"
    )
    p = parse_source(src)
    entry = find_method(p, "Lib.m")
    out = detect(p, entry, Mode.PA, budget=budget())
    assert out.verdict is Verdict.TRUE
    assert any(m.reason == "empty-pts" for m in out.missrefs)


def test_wall_clock_budget_times_out(deep_hierarchy):
    p, entry = deep_hierarchy
    out = detect(p, entry, Mode.NOPA, budget=AnalysisBudget(wall_clock=0.0))
    assert out.verdict is Verdict.TIMEOUT


def test_count_stops_on_the_wall_clock():
    # 1 201 paths and 1 214 visits in all; the count checks the clock every
    # 512 steps, and a clock of 0 s has run out by the first check. The
    # counts are then those of the part it was in, lower bounds.
    p = parse_source(NESTED_CALLS)
    entry = find_method(p, "Main.m0")
    count = count_tree(p, entry, AnalysisBudget(wall_clock=0.0))
    assert count.exceeds == "wall_clock"
    assert count.paths <= 1201 and count.visits <= 1214
    assert count_tree(p, entry, budget()) == (1201, 1214, None)
    out = detect(p, entry, Mode.NOPA, budget=AnalysisBudget(wall_clock=0.0), verdict_only=True)
    assert out.verdict is Verdict.TIMEOUT
    assert (out.stats.paths, out.stats.visited, out.conflicts) == (0, 0, [])


def _drained(p, entry, bud: AnalysisBudget) -> DetectionContext:
    ctx = DetectionContext(p, Mode.NOPA, bud, cha=build_cha_graph(p, entry))
    for _ in enumerate_write_paths(p, entry, ctx=ctx):
        pass
    return ctx


@pytest.mark.parametrize("bud, reason", [
    (budget(fuel=100), "fuel"),
    (budget(), "path_cap"),
    (AnalysisBudget(wall_clock=0.0), "wall_clock"),
])
def test_stop_reason_names_the_budget_that_ran_out(deep_hierarchy, bud, reason):
    p, entry = deep_hierarchy
    ctx = _drained(p, entry, bud)
    assert (ctx.stop_reason, ctx.timed_out) == (reason, True)
    # `detect` returns it. deep_hierarchy's sides cannot meet, so under nopa
    # it skips the subtrees that fit; the skip checks the clock, whose own
    # checks fall on visits it jumps past.
    out = detect(p, entry, Mode.NOPA, budget=bud)
    assert (out.verdict, out.stats.stop_reason) == (Verdict.TIMEOUT, reason)


def test_stop_reason_is_none_when_every_path_completes(fig1_advanced):
    p, entry = fig1_advanced
    ctx = _drained(p, entry, budget())
    assert (ctx.stop_reason, ctx.timed_out, ctx.paths) == (None, False, 4)
    with pytest.raises(AttributeError):
        ctx.timed_out = True
    for mode in ALL_MODES:
        for verdict_only in (False, True):
            out = detect(p, entry, mode, budget=budget(), verdict_only=verdict_only)
            assert out.verdict is not Verdict.TIMEOUT and out.stats.stop_reason is None


# The seed-range units, at fuel 20 000 and path cap 512, whose count runs
# out of fuel first where the walk reaches the path cap first: (offset from
# `randprog.DEFAULT_SEED`, mkref) and the modes where the two differ. ROADMAP
# item 6 decides which stop reason such a timeout carries.
STOP_REASON_SPLIT = {
    (3019, False): {Mode.NOPA, Mode.HYBRID},
    (3030, False): set(ALL_MODES),
    (3049, False): {Mode.NOPA},
    (3065, False): {Mode.NOPA},
    (3068, True): {Mode.HYBRID},
    (3073, True): {Mode.NOPA},
    (3074, False): set(ALL_MODES),
    (3085, True): {Mode.NOPA, Mode.HYBRID},
}


def test_count_and_walk_name_different_budgets_on_fourteen_timeouts():
    bud = budget(fuel=20_000, path_cap=512)
    split = {}
    for (offset, mkref), modes in STOP_REASON_SPLIT.items():
        gen = generate_program(DEFAULT_SEED + offset, mkref=mkref, mark_changes=True)
        for mode in ALL_MODES:
            count = detect(gen.program, gen.entry, mode, budget=bud, verdict_only=True)
            walk = detect(gen.program, gen.entry, mode, budget=bud)
            if count.stats.stop_reason != walk.stats.stop_reason:
                assert count.verdict is walk.verdict is Verdict.TIMEOUT
                split[(offset, mkref, mode)] = (count.stats.stop_reason, walk.stats.stop_reason)
    assert split == {(offset, mkref, mode): ("fuel", "path_cap")
                     for (offset, mkref), modes in STOP_REASON_SPLIT.items() for mode in modes}
    assert len(split) == 14


def test_detect_deterministic_outcomes(fig1_advanced):
    p, entry = fig1_advanced
    a = detect(p, entry, Mode.NOPA, budget=budget())
    b = detect(p, entry, Mode.NOPA, budget=budget())
    assert outcome_record("u", Mode.NOPA, a) == outcome_record("u", Mode.NOPA, b)


def test_detect_unknown_entry_errors(fig1_simple):
    # Every entry point that makes its own context checks the entry first.
    p, _ = fig1_simple
    other_entry = find_method(parse_source("class Z {\n  method zz() {\n  }\n}\n"), "Z.zz")
    for mode in ALL_MODES:
        with pytest.raises(MirError, match="entry 'Z.zz/0' not found in program"):
            detect(p, other_entry, mode, budget=budget())
        with pytest.raises(MirError, match="entry 'Z.zz/0' not found in program"):
            detect(p, other_entry, mode, budget=budget(), verdict_only=True)
        with pytest.raises(MirError, match="entry 'Z.zz/0' not found in program"):
            count_tree(p, other_entry, budget(), mode)
        with pytest.raises(MirError, match="entry 'Z.zz/0' not found in program"):
            list(enumerate_write_paths(p, other_entry, budget(), mode))


# ---------------------------------------------------------------------------
# Scan-order pins: which writes a path's scan sees, and when findings count


def test_collapsed_local_write_neither_conflicts_nor_hides_its_writer():
    # Line 4 is collapsed into line 5, so only line 5 overrides line 3.
    src = (
        "class A {\n  method m() {\n"
        "    x = 1 @R;\n    x = op() @L;\n    x = op(x) @L;\n    y = 2;\n"
        "  }\n}\n"
    )
    p = parse_source(src)
    for mode in (Mode.NOPA, Mode.PA, Mode.HYBRID):
        out = detect(p, find_method(p, "A.m"), mode, budget=budget())
        assert out.verdict is Verdict.TRUE
        assert [(c.overridden.pos.line, c.overriding.pos.line) for c in out.conflicts] == [(3, 5)]


def test_local_write_collapsed_on_one_path_still_counts_on_the_next():
    # Line 5 is collapsed into line 7 on the then-path but survives on the
    # else-path, where it overrides line 4 itself.
    src = (
        "class A {\n  method m() {\n"
        "    c = 1;\n    x = 1 @R;\n    x = op() @L;\n"
        "    if c {\n      x = op(x) @L;\n    } else {\n      y = 2;\n    }\n"
        "  }\n}\n"
    )
    p = parse_source(src)
    out = detect(p, find_method(p, "A.m"), Mode.NOPA, budget=budget())
    assert [(c.overridden.pos.line, c.overriding.pos.line) for c in out.conflicts] == [(4, 5), (4, 7)]


QUIET_BETWEEN_COLLAPSING_WRITES = """class H {
  method q(c) {
    if c {
      z = 1;
    }
  }
}
class Main {
  method m(h, c) {
    x = 0 @R;
    x = 1 @L;
    call h.q(c);
    x = 2 @L;
  }
}
"""


@pytest.mark.hashseed
@pytest.mark.parametrize("verdict_only", (False, True))
def test_a_quiet_body_that_writes_nothing_lets_the_writes_around_it_collapse(verdict_only):
    # `q` writes no element both sides write, but on the path where it
    # writes nothing, line 11 collapses into line 13, which then overrides
    # line 10 itself. So the walk may not skip that way through `q`.
    p = parse_source(QUIET_BETWEEN_COLLAPSING_WRITES)
    out = detect(p, find_method(p, "Main.m"), Mode.NOPA, budget=budget(), verdict_only=verdict_only)
    assert out.verdict is Verdict.TRUE
    assert [(c.overridden.pos.line, c.overriding.pos.line) for c in out.conflicts] == [(10, 11), (10, 13)]


@pytest.mark.hashseed
@pytest.mark.parametrize("verdict_only", (False, True))
def test_a_base_write_in_a_callee_blocks_on_the_paths_that_run_it(verdict_only):
    # `q` holds no changed write, but its base write to `f` blocks the
    # conflict on the path that runs it; the other path keeps it.
    src = (
        "class H {\n  field f: int;\n  method q(c) {\n    if c {\n      this.f = 1;\n    }\n  }\n}\n"
        "class Main {\n  method m(h, c) {\n    h.f = 0 @R;\n    call h.q(c);\n    h.f = 2 @L;\n  }\n}\n"
    )
    p = parse_source(src)
    out = detect(p, find_method(p, "Main.m"), Mode.NOPA, budget=budget(), verdict_only=verdict_only)
    assert out.verdict is Verdict.TRUE
    assert [(c.overridden.pos.line, c.overriding.pos.line) for c in out.conflicts] == [(11, 13)]
    assert (out.stats.paths, out.stats.visited) == (2, 6)


BUDGET_CUT = (
    "class A {\n  method m() {\n"
    "    c = 1;\n    x = 1 @R;\n"
    "    if c {\n      y = 2;\n    } else {\n      x = op() @L;\n    }\n"
    "    z = 3;\n"
    "  }\n}\n"
)


def test_path_cut_by_cap_contributes_no_conflicts():
    # The else path, which holds the conflict, is the one the cap cuts.
    p = parse_source(BUDGET_CUT)
    entry = find_method(p, "A.m")
    cut = detect(p, entry, Mode.NOPA, budget=budget(path_cap=1))
    assert cut.verdict is Verdict.TIMEOUT
    assert cut.conflicts == []
    full = detect(p, entry, Mode.NOPA, budget=budget(path_cap=2))
    assert full.verdict is Verdict.TRUE
    assert [(c.overridden.pos.line, c.overriding.pos.line) for c in full.conflicts] == [(4, 8)]


def _missrefs(outcome):
    return [(m.pos.line, m.expression, m.reason) for m in outcome.missrefs]


def test_pa_logs_misses_for_instance_fields_with_different_names():
    # No main: `this` has an empty points-to set, so comparing the two field
    # writes logs both as misses even though the names alone rule out a match.
    src = (
        "class Lib {\n  field f: int;\n  field g: int;\n  public method m() {\n"
        "    this.f = 1;\n    this.g = 2 @R;\n  }\n}\n"
    )
    p = parse_source(src)
    out = detect(p, find_method(p, "Lib.m"), Mode.PA, budget=budget())
    assert out.verdict is Verdict.FALSE
    assert _missrefs(out) == [(5, "this.f", "empty-pts"), (6, "this.g", "empty-pts")]


def test_pa_logs_misses_for_array_writes_at_different_indexes():
    src = (
        "class Lib {\n  public method m(arr) {\n"
        "    arr[0] = 1;\n    arr[1] = 2 @R;\n  }\n}\n"
    )
    p = parse_source(src)
    out = detect(p, find_method(p, "Lib.m"), Mode.PA, budget=budget())
    assert out.verdict is Verdict.FALSE
    assert _missrefs(out) == [(3, "arr[0]", "empty-pts"), (4, "arr[1]", "empty-pts")]


# ---------------------------------------------------------------------------
# Event fields of the lowered form. The differential oracle reads the same
# events, so these pins check field values against the source by hand.


def _events(src: str, entry: str, mode: Mode = Mode.NOPA) -> list:
    p = parse_source(src)
    (path,) = enumerate_write_paths(p, find_method(p, entry), budget(), mode)
    return path


def test_provenance_inherited_through_a_base_inner_hop():
    src = (
        "class A {\n  field static g: int;\n"
        "  method entry() {\n    call A::m1() @L;\n    A::g = 2 @R;\n  }\n"
        "  static method m1() {\n    call A::m2();\n  }\n"
        "  static method m2() {\n    A::g = 1;\n    A::g = 3 @R;\n  }\n}\n"
    )
    inner, own, outer = _events(src, "A.entry")
    assert [hop.provenance for hop in inner.call_path] == [Provenance.LEFT, Provenance.BASE]
    assert [hop.method_id for hop in inner.call_path] == ["A.entry/0", "A.m1/0"]
    assert [hop.pos.line for hop in inner.call_path] == [4, 8]
    assert (inner.pos.line, inner.provenance, inner.method_id) == (11, Provenance.LEFT, "A.m2/0")
    # A changed statement keeps its own side whatever its call path says.
    assert (own.pos.line, own.provenance, len(own.call_path)) == (12, Provenance.RIGHT, 2)
    assert (outer.pos.line, outer.provenance, outer.call_path) == (5, Provenance.RIGHT, ())


def test_static_store_fields_fall_back_to_the_site_class():
    src = (
        "class A {\n  field static g: int;\n}\n"
        "class B extends A {\n  method m() {\n    B::g = 1;\n    B::h = 2;\n  }\n}\n"
    )
    inherited, undeclared = _events(src, "B.m")
    assert (inherited.kind, inherited.static_cls, inherited.field_name, inherited.static_type) == (
        "SFR", "A", "g", "int")
    assert (undeclared.static_cls, undeclared.field_name, undeclared.static_type) == ("B", "h", None)
    assert inherited.element_key() == ("SFR", "A", "g", "int")


def test_untyped_base_resolves_its_field_by_the_only_declaring_class():
    src = (
        "class X {\n  field f: int;\n}\n"
        "class Y {\n  field g: int;\n  public method m(p) {\n    p.f = 1;\n    p.k = 2;\n  }\n}\n"
    )
    only, unknown = _events(src, "Y.m")
    assert (only.kind, only.base, only.base_type, only.field, only.field_name) == (
        "IFR", "p", None, ("X", "f", "int"), "f")
    assert only.element_text() == "p.<X: int f>"
    assert (unknown.field, unknown.field_name) == (None, "k")


def test_heap_write_carries_the_copied_base_type_and_its_points_to_set():
    src = (
        "class C {\n  field f: int;\n}\n"
        "class M {\n  public static method main() {\n    a = new C();\n    b = a;\n    b.f = 1;\n  }\n}\n"
    )
    p = parse_source(src)
    entry = find_method(p, "M.main")
    pts = solve(p, pa_entry_points(p))
    for mode in ALL_MODES:
        (path,) = enumerate_write_paths(p, entry, budget(), mode, pts=pts)
        store = path[-1]
        assert (store.kind, store.base, store.base_type, store.field) == ("IFR", "b", "C", ("C", "f", "int"))
        expected = pts_of(pts, ("M.main/0", "b")) if mode.uses_pts else None
        assert store.base_pts == expected and (expected is None or len(expected) == 1)


def test_call_result_is_a_local_write_of_the_caller_after_the_callee():
    src = (
        "class A {\n  field static g: int;\n"
        "  method m() {\n    r = A::s() @L;\n  }\n"
        "  static method s() {\n    A::g = 1;\n  }\n}\n"
    )
    callee, result = _events(src, "A.m")
    assert (callee.method_id, callee.provenance, callee.pos.line) == ("A.s/0", Provenance.LEFT, 7)
    assert (result.kind, result.local, result.pos.line) == ("LV", "r", 4)
    assert (result.method_id, result.method_display, result.enclosing_kind) == ("A.m/0", "A.m()", "method")
    assert (result.provenance, result.call_path) == (Provenance.LEFT, ())


def test_constructor_is_inlined_after_its_allocation():
    src = (
        "class C {\n  field f: int;\n  ctor(v) {\n    this.f = v;\n  }\n}\n"
        "class M {\n  method m() {\n    o = new C(1) @R;\n    o.f = 2;\n  }\n}\n"
    )
    alloc, init, store = _events(src, "M.m")
    assert (alloc.kind, alloc.local, alloc.pos.line, alloc.provenance) == ("LV", "o", 9, Provenance.RIGHT)
    assert (init.kind, init.method_id, init.enclosing_kind) == ("IFR", "C.<init>/1", "constructor")
    assert (init.base, init.base_type, init.field, init.provenance) == ("this", "C", ("C", "f", "int"), Provenance.RIGHT)
    assert [(hop.method_id, hop.pos.line) for hop in init.call_path] == [("M.m/0", 9)]
    # The allocation typed `o` for the write after it.
    assert (store.base_type, store.field, store.enclosing_kind) == ("C", ("C", "f", "int"), "method")


def test_each_method_is_lowered_once_per_detect_call(monkeypatch):
    from oadetect import engine

    src = (
        "class A {\n  field static g: int;\n"
        "  method m() {\n    c = 1;\n"
        "    if c {\n      call A::s() @L;\n    } else {\n      call A::s() @R;\n    }\n"
        "    while c {\n      call A::s();\n    }\n  }\n"
        "  static method s() {\n    A::g = 1;\n  }\n}\n"
    )
    p = parse_source(src)
    lowered: list[str] = []
    real = engine.DetectionContext.block

    def counting(ctx, stmts, m):
        if stmts is m.body:
            lowered.append(m.id)
        return real(ctx, stmts, m)

    monkeypatch.setattr(engine.DetectionContext, "block", counting)
    out = detect(p, find_method(p, "A.m"), Mode.NOPA, budget=budget())
    # Four paths enter `s` six times between them.
    assert out.stats.paths == 4
    assert sorted(lowered) == ["A.m/0", "A.s/0"]
    detect(p, find_method(p, "A.m"), Mode.NOPA, budget=budget())
    assert sorted(lowered) == ["A.m/0", "A.m/0", "A.s/0", "A.s/0"]


# ---------------------------------------------------------------------------
# Calls cut by recursion or depth. A cut call contributes nothing but its
# result write; when a call is cut for some of its targets only, the path
# that completes the call comes first, then one path per inlined target.


def _stream(path) -> list:
    return [(ev.kind, ev.local or ev.field_name, ev.pos.line, ev.method_id, ev.provenance.name,
             len(ev.call_path)) for ev in path]


RECURSIVE_SITE = (
    "interface I {\n  method run();\n}\n"
    "class P implements I {\n  field next: I;\n  field static g: int;\n"
    "  method run() {\n    n = this.next;\n    r = n.run() @L;\n    P::g = 1 @R;\n  }\n}\n"
    "class Q implements I {\n  method run() {\n    P::g = 2;\n  }\n}\n"
)


@pytest.mark.parametrize("mode", [Mode.NOPA, Mode.HYBRID])
def test_call_cut_by_recursion_completes_first_then_inlines_the_rest(mode):
    # `n.run()` resolves to P.run, which is on the stack, and to Q.run.
    p = parse_source(RECURSIVE_SITE)
    entry = find_method(p, "P.run")
    ctx = DetectionContext(p, mode, budget(), cha=build_cha_graph(p, entry),
                           pts=solve(p, pa_entry_points(p)))
    paths = [_stream(path) for path in enumerate_write_paths(p, entry, ctx=ctx)]
    assert paths == [
        [("LV", "n", 8, "P.run/0", "BASE", 0), ("LV", "r", 9, "P.run/0", "LEFT", 0),
         ("SFR", "g", 10, "P.run/0", "RIGHT", 0)],
        [("LV", "n", 8, "P.run/0", "BASE", 0), ("SFR", "g", 15, "Q.run/0", "LEFT", 1),
         ("LV", "r", 9, "P.run/0", "LEFT", 0), ("SFR", "g", 10, "P.run/0", "RIGHT", 0)],
    ]
    assert (ctx.visited, ctx.paths, ctx.timed_out) == (5, 2, False)
    out = detect(p, entry, mode, budget=budget())
    assert out.verdict is Verdict.TRUE
    assert [(c.overridden.pos.line, c.overriding.pos.line) for c in out.conflicts] == [(15, 10)]
    assert (out.stats.visited, out.stats.paths) == (5, 2)


DEPTH_SITE = (
    "interface I {\n  method run();\n}\n"
    "class P implements I {\n  field static g: int;\n  method run() {\n    P::g = 1;\n  }\n}\n"
    "class Q implements I {\n  method run() {\n    P::g = 2;\n  }\n}\n"
    "class M {\n  field h: I;\n  method entry() {\n    call this.hop() @L;\n    P::g = 3 @R;\n  }\n"
    "  method hop() {\n    h = this.h;\n    r = h.run();\n  }\n}\n"
)


def test_multi_target_call_at_the_depth_limit_contributes_nothing():
    # `h.run()` sits one call deep; at depth limit 1 both its targets are cut.
    p = parse_source(DEPTH_SITE)
    entry = find_method(p, "M.entry")
    cut = budget(depth_limit=1)
    ctx = DetectionContext(p, Mode.NOPA, cut, cha=build_cha_graph(p, entry))
    paths = [_stream(path) for path in enumerate_write_paths(p, entry, ctx=ctx)]
    assert paths == [
        [("LV", "h", 22, "M.hop/0", "LEFT", 1), ("LV", "r", 23, "M.hop/0", "LEFT", 1),
         ("SFR", "g", 19, "M.entry/0", "RIGHT", 0)],
    ]
    assert (ctx.visited, ctx.paths, ctx.timed_out) == (4, 1, False)
    out = detect(p, entry, Mode.NOPA, budget=cut)
    assert out.verdict is Verdict.FALSE
    assert (out.stats.visited, out.stats.paths) == (4, 1)
    # One level deeper, each target is a path of its own and overrides line 19.
    out = detect(p, entry, Mode.NOPA, budget=budget(depth_limit=2))
    assert out.verdict is Verdict.TRUE
    assert [(c.overridden.pos.line, c.overriding.pos.line) for c in out.conflicts] == [(7, 19), (12, 19)]
    assert (out.stats.visited, out.stats.paths) == (7, 2)


def test_deep_hierarchy_nopa_reaches_the_path_cap(deep_hierarchy):
    p, entry = deep_hierarchy
    out = detect(p, entry, Mode.NOPA, budget=budget())
    assert out.verdict is Verdict.TIMEOUT
    assert (out.stats.visited, out.stats.paths) == (8200, 4097)


def test_call_ops_share_one_target_list_and_id_set_per_tuple(deep_hierarchy):
    # The walk resolves 35 virtual call ops to one of two 32-way target id
    # tuples. Each tuple has one target list and one id frozenset, which
    # every op with those targets holds.
    p, entry = deep_hierarchy
    ctx = DetectionContext(p, Mode.NOPA, budget(), cha=build_cha_graph(p, entry))
    for _ in enumerate_write_paths(p, entry, ctx=ctx):
        pass
    todo = [op for ops in ctx.lowered.values() for op in ops]
    calls = []
    while todo:
        op = todo.pop()
        if op.code == _BRANCH:
            todo += [o for arm in op.alts if arm for o in arm]
        elif op.code == _CALL and isinstance(op.st, VirtualCall) and op.targets is not None:
            calls.append(op)
    assert len(calls) == 35
    assert len({tuple(t.id for t in op.targets) for op in calls}) == 2
    assert len({id(op.targets) for op in calls}) == len({id(op.target_ids) for op in calls}) == 2
    assert all(op.target_ids == {t.id for t in op.targets} for op in calls)


# ---------------------------------------------------------------------------
# The machine's state: a frame, the index of its next op, and the env


def test_return_from_nested_blocks_resumes_each_caller():
    p = parse_source(RETURN_IN_BLOCKS)
    entry = find_method(p, "Main.main")
    # Each event as (line, side, call depth); a line names one statement.
    ctor = [
        [(8, "L", 1), (10, "L", 1)],  # returns from inside the `if`
        [(8, "L", 1), (13, "L", 1)],
    ]
    area = {
        "Circle": [(30, "R", 1)],
        "skip": [(16, "R", 1), (24, "R", 1)],  # the loop runs zero times
        "return": [(16, "R", 1), (19, "R", 1)],  # returns from the `if` in the loop
        "once": [(22, "R", 1), (24, "R", 1)],  # `n = op(n)` replaces line 16's write
    }
    for mode in ALL_MODES:
        arms = (["Circle"] if mode is Mode.NOPA else []) + ["skip", "return", "once"]
        # After the callee, the call's result and the rest of the caller's
        # `if`; last, the path that skips that `if`.
        calls = [area[arm] + [(41, "R", 0), (42, "B", 0)] for arm in arms] + [[]]
        expected = [
            [(36, "L", 0)] + c + [(37, "B", 0), (38, "B", 0), (39, "B", 0)] + call
            + [(44, "L", 0), (45, "R", 0)]
            for c in ctor
            for call in calls
        ]
        paths = [
            [(ev.pos.line, ev.provenance.name[0], len(ev.call_path)) for ev in path]
            for path in enumerate_write_paths(p, entry, budget(), mode)
        ]
        assert paths == expected


ENV_RULES = (
    "class A {\n  field f: int;\n}\n"
    "class B extends A {\n}\n"
    "class M {\n"
    "  public static method main() {\n"
    "    c = 1;\n"
    "    x = new A();\n"
    "    if c {\n"
    "      x = new B();\n"
    "      x.f = 1;\n"
    "    } else {\n"
    "      x.f = 2;\n"
    "    }\n"
    "    x.f = 3;\n"
    "    y = new A();\n"
    "    call M::s();\n"
    "    y.f = 4;\n"
    "    z = new A();\n"
    "    while c {\n"
    "      z = new B();\n"
    "    }\n"
    "    z.f = 5;\n"
    "  }\n"
    "  static method s() {\n"
    "    y = new B();\n"
    "    y.f = 6;\n"
    "  }\n"
    "}\n"
)


def test_env_flows_on_each_path_and_is_restored_on_backtrack():
    p = parse_source(ENV_RULES)
    paths = [
        [(ev.pos.line, ev.base_type) for ev in path if ev.kind == "IFR"]
        for path in enumerate_write_paths(p, find_method(p, "M.main"), budget(), Mode.NOPA)
    ]
    then_arm = [(12, "B"), (16, "B")]  # the arm's binding flows past the `if`
    else_arm = [(14, "A"), (16, "A")]  # the second arm starts from the saved env
    call = [(28, "B"), (19, "A")]  # the callee's `y` leaves the caller's alone
    assert paths == [
        then_arm + call + [(24, "A")],  # the loop runs zero times
        then_arm + call + [(24, "B")],  # the loop body's binding reaches past it
        else_arm + call + [(24, "A")],
        else_arm + call + [(24, "B")],
    ]


def test_choice_points_hold_a_fixed_number_of_values():
    # Blocks nest 100 and then 200 deep on every path. A choice point that
    # copied the frames would hold state quadratic in the nesting.
    peaks = []
    for nesting in (100, 200):
        p = parse_source(_nested_calls(6, nesting))
        entry = find_method(p, "Main.m0")
        tracemalloc.start()
        try:
            detect(p, entry, Mode.NOPA, budget=budget())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3 * peaks[0]


# ---------------------------------------------------------------------------
# Verdict-only detection decides false without the walk where no left write
# can meet a right write.


def _walked_entries(monkeypatch) -> list:
    """The entry of each `_Scanner` walk from now on."""
    from oadetect import engine

    walked: list = []
    real = engine._Scanner.paths

    def spy(scanner):
        walked.append(scanner.entry.id)
        return real(scanner)

    monkeypatch.setattr(engine._Scanner, "paths", spy)
    return walked


_MAIN = "  static method main() {\n    a = new A();\n    call a.m();\n  }\n"


@pytest.mark.hashseed
@pytest.mark.parametrize("mode", ALL_MODES)
def test_a_side_inherited_through_a_call_meets_the_other_sides_field(mode, monkeypatch):
    # `h` is base code: its write counts for R, whose call runs it. `main`
    # gives `this` a points-to set, so `pa` resolves the call too.
    src = (
        "class A {\n  field f: int;\n" + _MAIN +
        "  method m() {\n    this.f = 1 @L;\n    call this.h() @R;\n  }\n"
        "  method h() {\n    this.f = 2;\n  }\n}\n"
    )
    p = parse_source(src)
    entry = find_method(p, "A.m")
    walked = _walked_entries(monkeypatch)
    out = detect(p, entry, mode, budget=budget(), verdict_only=True)
    assert out.verdict is Verdict.TRUE
    assert [(c.overridden.pos.line, c.overriding.pos.line) for c in out.conflicts] == [(8, 12)]
    assert walked == ["A.m/0"]


@pytest.mark.parametrize("mode", ALL_MODES)
def test_array_writes_at_different_indexes_meet(mode, monkeypatch):
    # The scan tells the indexes apart; the pass takes any two array writes
    # as one element, so the walk decides.
    src = "class Lib {\n  public method m(arr) {\n    arr[0] = 1 @L;\n    arr[1] = 2 @R;\n  }\n}\n"
    p = parse_source(src)
    entry = find_method(p, "Lib.m")
    walked = _walked_entries(monkeypatch)
    out = detect(p, entry, mode, budget=budget(), verdict_only=True)
    assert out.verdict is Verdict.FALSE
    assert walked == ["Lib.m/1"]


@pytest.mark.parametrize("mode", ALL_MODES)
def test_writes_to_different_fields_are_decided_without_the_walk(mode, monkeypatch):
    src = (
        "class A {\n  field f: int;\n  field g: int;\n" + _MAIN +
        "  method m() {\n    c = 1;\n    if c {\n      this.f = 1 @L;\n    }\n"
        "    call this.h() @R;\n  }\n"
        "  method h() {\n    this.g = 2;\n  }\n}\n"
    )
    p = parse_source(src)
    entry = find_method(p, "A.m")
    full = detect(p, entry, mode, budget=budget())
    walked = _walked_entries(monkeypatch)
    out = detect(p, entry, mode, budget=budget(), verdict_only=True)
    assert walked == []
    assert (out.verdict, out.conflicts) == (full.verdict, []) == (Verdict.FALSE, [])
    # The count's paths and visits are the walk's.
    assert (out.stats.paths, out.stats.visited) == (full.stats.paths, full.stats.visited) == (2, 7)
