from __future__ import annotations

import pytest

from conftest import call_graph_from_edges, is_closed
from oadetect.frontend import parse_source
from oadetect.mir import MirError, find_method
from oadetect.pointsto import (
    MISS,
    PointsToResult,
    dump_pts,
    pa_entry_points,
    pts_of,
    solve,
)


def test_entry_points_prefer_mains(fig1_simple):
    p, _ = fig1_simple
    assert [m.id for m in pa_entry_points(p)] == ["Main.main/0"]


def test_entry_points_two_mains():
    src = (
        "class A {\n  public static method main() {\n  }\n}\n"
        "class B {\n  public static method main() {\n  }\n}\n"
    )
    p = parse_source(src)
    assert {m.id for m in pa_entry_points(p)} == {"A.main/0", "B.main/0"}


def test_entry_points_library_uses_publics_and_ctors():
    src = """
class Lib {
  ctor() {
    x = op();
  }
  method p1() {
  }
  method p2() {
  }
  public method p3() {
  }
  private method q1() {
  }
  private method q2() {
  }
}
"""
    p = parse_source(src)
    ids = {m.id for m in pa_entry_points(p)}
    assert ids == {"Lib.<init>/0", "Lib.p1/0", "Lib.p2/0", "Lib.p3/0"}


def test_entry_points_empty_when_none():
    # No main, public method or constructor: no root, so the solve is empty.
    p = parse_source("class A {\n  field x: int;\n  private method m() {\n    y = new A();\n  }\n}\n")
    assert pa_entry_points(p) == []
    r = solve(p)
    assert (r.pts, r.callgraph.roots, r.callgraph.nodes, r.unresolved) == ({}, frozenset(), frozenset(), ())


def test_alloc_and_copy():
    src = "class A {\n}\nclass Main {\n  public static method main() {\n    x = new A();\n    y = x;\n  }\n}\n"
    p = parse_source(src)
    r = solve(p)
    assert pts_of(r, ("Main.main/0", "y")) == pts_of(r, ("Main.main/0", "x")) == frozenset({0})


def test_store_load_chain():
    src = (
        "class A {\n}\nclass B {\n}\n"
        "class Main {\n  public static method main() {\n"
        "    x = new A();\n    y = new B();\n    x.f = y;\n    z = x.f;\n  }\n}\n"
    )
    p = parse_source(src)
    r = solve(p)
    site_b = next(s.id for s in r.sites if s.cls == "B")
    assert pts_of(r, ("Main.main/0", "z")) == frozenset({site_b})


def test_fig1_wiring_narrows_receiver(fig1_simple):
    p, _ = fig1_simple
    r = solve(p)
    (simple_site,) = [s.id for s in r.sites if s.cls == "ReportSimple"]
    assert pts_of(r, ("Text.generateReport/0", "r")) == frozenset({simple_site})
    assert "ReportSimple.countDupWords/0" in r.callgraph.nodes


def test_fig1_advanced_graph_excludes_unwired_implementer(fig1_advanced):
    p, _ = fig1_advanced
    g = solve(p).callgraph
    assert "ReportAdvanced.countDupWords/0" in g.nodes
    assert "ReportSimple.countDupWords/0" not in g.nodes


def test_mkref_yields_miss(mkref_scenario):
    p, _ = mkref_scenario
    r = solve(p)
    assert pts_of(r, ("TextR.setup/0", "h")) is MISS
    assert pts_of(r, ("TextR.generateReport/0", "r")) is MISS


def test_pts_of_unknown_expression_errors(fig1_simple):
    p, _ = fig1_simple
    r = solve(p)
    with pytest.raises(MirError, match="no local"):
        pts_of(r, ("Main.main/0", "nope"))
    with pytest.raises(MirError, match="unknown method"):
        pts_of(r, ("Nope.m/0", "x"))


def test_mkref_receiver_unresolved_site(mkref_scenario):
    p, _ = mkref_scenario
    r = solve(p)
    g = r.callgraph
    call_lines = {pos.line for pos, reason in r.unresolved}
    assert call_lines == {9, 11}
    assert all(reason == "unresolved-call" for _, reason in r.unresolved)
    virtual_edges = [e for e in g.edges if e.site.file == "TextR.mir" and e.site.line in (9, 11)]
    assert virtual_edges == []


def test_static_call_single_edge_regardless_of_pts():
    src = (
        "class U {\n  static method s() {\n    x = op();\n  }\n}\n"
        "class Main {\n  public static method main() {\n    call U::s();\n  }\n}\n"
    )
    p = parse_source(src)
    r = solve(p)
    assert len(r.callgraph.edges) == 1
    assert next(iter(r.callgraph.edges)).target == "U.s/0"


def test_entry_parameters_stay_empty():
    src = "class Lib {\n  method m(p) {\n    call p.m2();\n  }\n  method m2() {\n  }\n}\n"
    p = parse_source(src)
    r = solve(p)
    assert pts_of(r, ("Lib.m/1", "p")) is MISS


def test_solver_reaches_fixpoint(fig1_simple, mkref_scenario):
    for p, _ in (fig1_simple, mkref_scenario):
        assert is_closed(p, solve(p))


COPY_CHAIN = (
    "class A {\n}\nclass Main {\n  public static method main() {\n"
    "    x = new A();\n    y = x;\n    z = new A();\n  }\n}\n"
)


def test_is_closed_sees_a_set_missing_what_a_constraint_feeds():
    p = parse_source(COPY_CHAIN)
    r = solve(p)
    y = ("l", "Main.main/0", "y")
    assert r.pts[y] == {0}
    pts = {var: sids for var, sids in r.pts.items() if var != y}
    assert not is_closed(p, PointsToResult(pts, r.sites, r.callgraph, r.unresolved, r.methods))


def test_is_closed_sees_a_missing_call_edge_or_method(fig1_simple):
    p, _ = fig1_simple
    r = solve(p)
    edge = next(e for e in sorted(r.callgraph.edges) if e.target == "ReportSimple.countDupWords/0")
    g = r.callgraph
    fewer_edges = call_graph_from_edges(g.roots, g.nodes, g.edges - {edge})
    assert not is_closed(p, PointsToResult(r.pts, r.sites, fewer_edges, r.unresolved, r.methods))
    fewer_nodes = call_graph_from_edges(g.roots, g.nodes - {edge.target}, g.edges)
    assert not is_closed(p, PointsToResult(r.pts, r.sites, fewer_nodes, r.unresolved, r.methods))


def test_is_closed_accepts_a_larger_set_that_feeds_nothing():
    # Closure, not equality with a fresh solve: an extra site in `y`, which
    # no constraint reads, leaves every constraint satisfied.
    p = parse_source(COPY_CHAIN)
    r = solve(p)
    y = ("l", "Main.main/0", "y")
    wider = {**r.pts, y: frozenset({0, 1})}
    assert is_closed(p, PointsToResult(wider, r.sites, r.callgraph, r.unresolved, r.methods))


def test_solver_deterministic(fig1_advanced):
    p, _ = fig1_advanced
    a, b = solve(p), solve(p)
    assert a.pts == b.pts
    assert a.callgraph.edges == b.callgraph.edges


def test_dump_lists_miss_section(mkref_scenario):
    p, _ = mkref_scenario
    text = dump_pts(solve(p))
    assert "#MISS" in text
    assert "TextR.mir:9\tunresolved-call" in text


def test_dump_renders_every_kind_of_variable():
    src = (
        "class A {\n  field f: A;\n  field static s: A;\n"
        "  method get() {\n    r = new A();\n    return r;\n  }\n}\n"
        "class Main {\n  public static method main() {\n"
        "    a = new A();\n    a.f = a;\n    arr = newarr A 1;\n    arr[0] = a;\n"
        "    A::s = a;\n    x = a.get();\n  }\n}\n"
    )
    # Sites: 0 `new A()` in A.get, 1 `new A()` and 2 `newarr` in Main.main.
    assert dump_pts(solve(parse_source(src))) == (
        "A.get/0::r\t{0}\n"
        "A.get/0::this\t{1}\n"
        "A::s\t{1}\n"
        "Main.main/0::a\t{1}\n"
        "Main.main/0::arr\t{2}\n"
        "Main.main/0::x\t{0}\n"
        "return:A.get/0\t{0}\n"
        "site1.f\t{1}\n"
        "site2[*]\t{1}\n"
    )


def test_array_slots_are_smashed():
    src = (
        "class A {\n}\nclass B {\n}\n"
        "class Main {\n  public static method main() {\n"
        "    arr = newarr A 2;\n    a = new A();\n    b = new B();\n"
        "    arr[0] = a;\n    arr[1] = b;\n    u = arr[0];\n  }\n}\n"
    )
    p = parse_source(src)
    r = solve(p)
    # One slot per array site: both stored objects flow to any load.
    got = pts_of(r, ("Main.main/0", "u"))
    classes = {r.sites[s].cls for s in got}
    assert classes == {"A", "B"}


def test_one_base_feeds_fields_on_object_sites_and_the_slot_on_array_sites():
    src = (
        "class A {\n}\nclass B {\n}\n"
        "class Main {\n  public static method main() {\n"
        "    x = new A();\n    x = newarr B 2;\n    b = new B();\n"
        "    x.f = b;\n    y = x.f;\n    x[0] = b;\n    z = x[0];\n  }\n}\n"
    )
    p = parse_source(src)
    r = solve(p)
    obj, arr, b = (next(s.id for s in r.sites if (s.kind, s.cls) == key)
                   for key in (("object", "A"), ("array", "B"), ("object", "B")))
    assert pts_of(r, ("Main.main/0", "x")) == frozenset({obj, arr})
    # A field lives only on the object site, the slot only on the array site.
    heap = {var for var in r.pts if var[0] in ("f", "a")}
    assert heap == {("f", obj, "f"), ("a", arr)}
    assert r.pts[("f", obj, "f")] == r.pts[("a", arr)] == frozenset({b})
    assert pts_of(r, ("Main.main/0", "y")) == pts_of(r, ("Main.main/0", "z")) == frozenset({b})
