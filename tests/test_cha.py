from __future__ import annotations

from collections import deque

import pytest

from oadetect import cha
from oadetect.cha import ResolutionError, build_cha_graph, cha_resolve, initial_env, transfer_type, type_rule
from oadetect.frontend import parse_source
from oadetect.mir import VirtualCall, all_methods, find_method, iter_stmts
from oadetect.pointsto import pa_entry_points, solve


def _site(p, method_ref, line=None) -> VirtualCall:
    body = find_method(p, method_ref).body
    sites = [st for st in iter_stmts(body) if isinstance(st, VirtualCall)]
    if line is not None:
        sites = [s for s in sites if s.pos.line == line]
    assert sites, f"no virtual call in {method_ref}"
    return sites[0]


def test_resolve_interface_receiver_covers_all_implementers(fig1_advanced):
    p, entry = fig1_advanced
    site = _site(p, "Text.generateReport", line=8)
    targets = cha_resolve(site, p, receiver_type="Report")
    assert targets == {
        "ReportSimple.countDupWords/0",
        "ReportAdvanced.countDupWords/0",
    }


def test_resolve_leaf_class_receiver(fig1_advanced):
    p, _ = fig1_advanced
    site = _site(p, "Text.generateReport", line=8)
    assert cha_resolve(site, p, receiver_type="ReportSimple") == {
        "ReportSimple.countDupWords/0"
    }


THREE_LEVEL = """
class C {
  method m() {
    x = op();
  }
}
class B extends C {
}
class A extends B {
  method m() {
    y = op();
  }
}
class Use {
  method u(r) {
    call r.m();
  }
}
"""


def test_resolve_three_level_hierarchy_with_inherited_definitions():
    p = parse_source(THREE_LEVEL)
    site = _site(p, "Use.u")
    # B inherits C.m, so receiver type C yields the two definitions only.
    assert cha_resolve(site, p, receiver_type="C") == {"A.m/0", "C.m/0"}


def test_resolve_unknown_method_has_no_targets():
    # A virtual call no class provides used to raise, which made nopa and
    # hybrid exit 3 on programs the parser accepts; a static one still does,
    # in a program that skipped validation (which reports it).
    p = parse_source(
        "interface I {\n  method m();\n}\n"
        "class A {\n  method u(r) {\n    call r.nosuch();\n    s = mkref I;\n    call s.m();\n  }\n"
        "  method v() {\n    call A::nosuch();\n  }\n}\n",
        validate=False,
    )
    assert cha_resolve(_site(p, "A.u", line=6), p) == set()
    assert cha_resolve(_site(p, "A.u", line=8), p, receiver_type="I") == set()
    assert build_cha_graph(p, find_method(p, "A.u")).edges == set()
    with pytest.raises(ResolutionError, match="nosuch"):
        build_cha_graph(p, find_method(p, "A.v"))


def test_graph_fig1_advanced_has_five_nodes(fig1_advanced):
    p, entry = fig1_advanced
    g = build_cha_graph(p, entry)
    assert g.roots == {"Text.generateReport/0"}
    assert g.nodes == {
        "Text.generateReport/0",
        "ReportSimple.countDupWords/0",
        "ReportSimple.countDupWhiteSpace/0",
        "ReportAdvanced.countDupWords/0",
        "ReportAdvanced.countDupWhiteSpace/0",
    }


def test_graph_empty_root():
    p = parse_source("class A {\n  method m() {\n  }\n}\n")
    g = build_cha_graph(p, find_method(p, "A.m"))
    assert g.nodes == {"A.m/0"}
    assert g.edges == set()


def _k_implementer_source(k: int) -> str:
    # Root first so call-site positions stay fixed as implementers are added.
    parts = [
        "interface I {",
        "  method m();",
        "}",
        "class Root {",
        "  field f: I;",
        "  method r() {",
        "    v = this.f;",
        "    call v.m();",
        "  }",
        "}",
    ]
    for i in range(k):
        parts += [f"class C{i} implements I {{", "  method m() {", "    x = op();", "  }", "}"]
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("k", [1, 3, 5])
def test_graph_k_implementers_yield_k_edges(k):
    p = parse_source(_k_implementer_source(k))
    g = build_cha_graph(p, find_method(p, "Root.r"))
    assert len(g.edges) == k


def test_graph_monotone_in_implementers():
    p3 = parse_source(_k_implementer_source(3))
    p4 = parse_source(_k_implementer_source(4))
    g3 = build_cha_graph(p3, find_method(p3, "Root.r"))
    g4 = build_cha_graph(p4, find_method(p4, "Root.r"))
    assert {(e.site, e.target) for e in g3.edges} <= {(e.site, e.target) for e in g4.edges}


def test_graph_deterministic_dump(fig1_advanced):
    p, entry = fig1_advanced
    assert build_cha_graph(p, entry).dump() == build_cha_graph(p, entry).dump()


def test_graph_dump_golden(fig1_advanced):
    p, entry = fig1_advanced
    assert build_cha_graph(p, entry).dump() == (
        "Text.generateReport/0\tText.mir:8\tReportAdvanced.countDupWords/0\n"
        "Text.generateReport/0\tText.mir:8\tReportSimple.countDupWords/0\n"
        "Text.generateReport/0\tText.mir:10\tReportAdvanced.countDupWhiteSpace/0\n"
        "Text.generateReport/0\tText.mir:10\tReportSimple.countDupWhiteSpace/0\n"
    )


def test_graph_edges_keyed_by_site_and_target(fig1_advanced):
    p, entry = fig1_advanced
    g = build_cha_graph(p, entry)
    assert sorted(g.targets_at(_site(p, "Text.generateReport", 8).pos)) == [
        "ReportAdvanced.countDupWords/0",
        "ReportSimple.countDupWords/0",
    ]


def test_reflective_value_feeds_receiver_typing():
    src = """
interface I {
  method m();
}
class C implements I {
  method m() {
    x = op();
  }
}
class Use {
  method u() {
    h = mkref I;
    call h.m();
  }
}
"""
    p = parse_source(src)
    g = build_cha_graph(p, find_method(p, "Use.u"))
    # No allocation anywhere, but the declared type still resolves the call.
    assert g.targets_at(_site(p, "Use.u").pos) == ["C.m/0"]


def test_param_types_join_across_call_sites():
    src = """
class A {
  method m() {
    x = op();
  }
}
class B {
  method m() {
    y = op();
  }
}
class H {
  method h(p) {
    call p.m();
  }
}
class Root {
  method r() {
    a = new A();
    b = new B();
    h = new H();
    call h.h(a);
    call h.h(b);
  }
}
"""
    p = parse_source(src)
    g = build_cha_graph(p, find_method(p, "Root.r"))
    inner = _site(p, "H.h")
    # Two incompatible argument types widen the parameter, so both targets stay.
    assert set(g.targets_at(inner.pos)) == {"A.m/0", "B.m/0"}


def test_transfer_rule_per_statement_kind():
    src = (
        "class D {\n}\n"
        "class C {\n  field f: D;\n  field static s: C;\n  method m(p) {\n"
        "    a = new C();\n    b = a;\n    n = 5;\n    t = \"x\";\n    d = b.f;\n"
        "    e = C::s;\n    arr = newarr D 3;\n    el = arr[0];\n    r = mkref D;\n"
        "    o = op(n);\n    q = b.m(n);\n    b.f = d;\n  }\n}\n"
    )
    p = parse_source(src)
    m = find_method(p, "C.m")
    env = initial_env(m)
    h = p.hierarchy()
    for st in m.body:
        after = transfer_type(st, env, h)
        if type_rule(st, h) is None:
            assert after is env  # a store binds nothing and shares the env
        env = after
    assert env == {
        "p": None, "this": "C", "a": "C", "b": "C", "n": "int", "t": "String", "d": "D",
        "e": "C", "arr": "D[]", "el": "D", "r": "D", "o": "int", "q": None,
    }


LOOP_JOIN = """
class Root {
  method m() {
    x = op();
  }
}
class Mid extends Root {
  method m() {
    x = op();
  }
}
class A extends Mid {
  method m() {
    x = op();
  }
}
class B extends Mid {
  method m() {
    x = op();
  }
}
class C extends Root {
  method m() {
    x = op();
  }
}
class Use {
  method u(c) {
    x = new A();
    while c {
      call x.m();
      x = new B();
    }
  }
}
"""


def test_loop_call_resolves_on_the_joined_receiver_type():
    p = parse_source(LOOP_JOIN)
    g = build_cha_graph(p, find_method(p, "Use.u"))
    # The second iteration sees x as B, so the receiver joins A and B to Mid:
    # neither A alone nor the unknown type's five targets.
    assert g.targets_at(_site(p, "Use.u").pos) == ["A.m/0", "B.m/0", "Mid.m/0"]


REQUEUE = """
class A {
  method m() {
    x = op();
  }
}
class B {
  method m() {
    y = op();
  }
}
class H {
  method h(p) {
    call p.m();
  }
}
class K {
  method k(h) {
    b = new B();
    call h.h(b);
  }
}
class Root {
  method r(c) {
    a = new A();
    h = new H();
    k = new K();
    call h.h(a);
    while c {
      call k.k(h);
    }
  }
}
"""


def test_each_dequeued_method_body_is_scanned_once(monkeypatch):
    p = parse_source(REQUEUE)
    bodies = {id(m.body): m.id for m in all_methods(p)}
    scans: list[str] = []
    dequeued: list[str] = []
    scan = cha._scan_sites

    def counting_scan(body, env, sites, p):
        if id(body) in bodies:  # a method's body, not a nested block
            scans.append(bodies[id(body)])
        return scan(body, env, sites, p)

    class CountingDeque(deque):
        def popleft(self):
            dequeued.append(super().popleft())
            return dequeued[-1]

    monkeypatch.setattr(cha, "_scan_sites", counting_scan)
    monkeypatch.setattr(cha, "deque", CountingDeque)
    g = build_cha_graph(p, find_method(p, "Root.r"))
    # K.k widens H.h's parameter from A to unknown after H.h's first visit,
    # so H.h is visited twice; each visit walks its body once.
    assert dequeued.count("H.h/1") == 2
    assert scans == dequeued
    assert set(g.targets_at(_site(p, "H.h").pos)) == {"A.m/0", "B.m/0"}


SHADOWED_FIELD_IN_LOOP = """
class T1 {
  method m() {
    x = op();
  }
}
class T2 {
  method m() {
    x = op();
  }
}
class Mid {
  field f: T2;
}
class A extends Mid {
  field f: T1;
}
class B extends Mid {
}
class H {
  static method take(q) {
    call q.m();
  }
}
class Use {
  method u(c) {
    x = new A();
    while c {
      y = x.f;
      call y.m();
      call H::take(y);
      x = new B();
    }
  }
}
"""


def test_site_types_join_over_loop_iterations():
    p = parse_source(SHADOWED_FIELD_IN_LOOP)
    g = build_cha_graph(p, find_method(p, "Use.u"))
    # y is T1 (A's f) on the first iteration and T2 (Mid's f) on the next:
    # the site keeps both, where the last iteration's env alone has only T2.
    assert g.targets_at(_site(p, "Use.u").pos) == ["T1.m/0", "T2.m/0"]
    assert g.targets_at(_site(p, "H.take").pos) == ["T1.m/0", "T2.m/0"]


LONG_LOOP_CHAIN = """
class A {
  method m() {
    x = op();
  }
}
class B {
  method m() {
    y = op();
  }
}
class Use {
  method u(c) {
    a = new A();
    b = new A();
    d = new A();
    e = new A();
    f = new A();
    while c {
      a = b;
      b = d;
      d = e;
      e = f;
      f = new B();
    }
    call a.m();
  }
}
"""


def test_loop_join_runs_to_its_fixpoint():
    # The B allocated into f reaches a on the fifth walk of the body; a walk
    # cut after four rounds left a typed A and the call resolved to A.m only.
    p = parse_source(LONG_LOOP_CHAIN)
    entry = find_method(p, "Use.u")
    pos = _site(p, "Use.u").pos
    pts_targets = solve(p, pa_entry_points(p)).callgraph.targets_at(pos)
    assert pts_targets == ["A.m/0", "B.m/0"]
    assert set(pts_targets) <= set(build_cha_graph(p, entry).targets_at(pos))
