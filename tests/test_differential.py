"""Differential tests: `detect` against the per-path scan it replaced, and
`build_cha_graph` against the per-edge builder it replaced.

`engine.detect` scans each write once, as the enumerator appends it, and
undoes the scan on backtrack. The reference below is the original design:
it drains `enumerate_write_paths` and, for every completed path, walks back
from each changed write over all earlier events of the path. It is
quadratic per path and lives only here, as the oracle.

`build_cha_graph` resolves each virtual dispatch once per receiver type and
keeps targets per site. `reference_cha_graph` is the original builder: it
resolves every call anew on every method visit and adds one `CallEdge` per
target, binding argument types into each.
"""

from __future__ import annotations

from collections import deque

import pytest

from conftest import ALL_MODES, NESTED_CALLS, RETURN_IN_BLOCKS, budget, load_scenario_program
from oadetect import engine
from oadetect.cha import CallEdge, build_cha_graph, initial_env, resolve_static
from oadetect.cha import _scan_sites as scan_sites
from oadetect.engine import (
    IFR,
    LV,
    SFR,
    AnalysisBudget,
    Conflict,
    DetectionContext,
    Mode,
    Verdict,
    WriteEvent,
    compare_heap,
    count_tree,
    detect,
    enumerate_write_paths,
)
from oadetect.frontend import parse_source
from oadetect.harness import load_bundled, scenario_units
from oadetect.mir import (
    MirError,
    Position,
    Provenance,
    StaticCall,
    VirtualCall,
    all_methods,
    find_method,
    iter_stmts,
)
from oadetect.pointsto import pa_entry_points, solve
from oadetect.randprog import default_seed, generate_program

PROP_BUDGET = dict(fuel=20_000, path_cap=512)
BUNDLED = ("fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy")


def same_element(a: WriteEvent, b: WriteEvent, mode: Mode, ctx: DetectionContext) -> bool:
    """Whether two writes touch the same element; records miss-references into ctx.

    LV and SFR writes do exactly when their `element_key()`s are equal; IFR
    and AR writes are compared by `compare_heap`.
    """
    if a.kind != b.kind:
        return False
    if a.kind == LV or a.kind == SFR:
        return a.element_key() == b.element_key()
    res = compare_heap(a, b, mode, ctx.hierarchy)
    ctx.missrefs.update(res.missrefs)
    return res.match


def reference_scan(events, ctx: DetectionContext, conflicts: dict) -> None:
    """The most recent earlier write to the same element decides each changed
    write: an opposite-side write is overridden, a base write blocks, and a
    same-side write is benign."""
    for i, w in enumerate(events):
        if w.provenance is Provenance.BASE:
            continue
        for j in range(i - 1, -1, -1):
            prior = events[j]
            if not same_element(prior, w, ctx.mode, ctx):
                continue
            if prior.provenance is Provenance.BASE:
                break
            if prior.provenance is not w.provenance:
                c = Conflict(w.element_text(), overridden=prior, overriding=w)
                conflicts.setdefault(c.key, c)
            break


def reference_detect(p, entry, mode: Mode, bud):
    """Verdict, conflicts, miss-references and counters of the reference."""
    cha = build_cha_graph(p, entry) if mode.uses_cha else None
    pts = solve(p, pa_entry_points(p)) if mode.uses_pts else None
    ctx = DetectionContext(p, mode, bud, cha=cha, pts=pts)
    conflicts: dict = {}
    for path in enumerate_write_paths(p, entry, bud, mode, ctx=ctx):
        reference_scan(path, ctx, conflicts)
    if ctx.timed_out:
        verdict = Verdict.TIMEOUT
    elif conflicts:
        verdict = Verdict.TRUE
    else:
        verdict = Verdict.FALSE
    ordered = sorted(
        conflicts.values(),
        key=lambda c: (c.overridden.root_pos, c.overriding.root_pos, c.overridden.pos, c.overriding.pos),
    )
    return (
        verdict,
        [_conflict_fields(c) for c in ordered],
        sorted(ctx.missrefs),
        ctx.visited,
        ctx.paths,
    )


def _conflict_fields(c: Conflict) -> tuple:
    # The full events, call paths included, so first-found order is checked too.
    return (c.key, c.element, c.overridden, c.overriding)


def outcome_fields(outcome):
    return (
        outcome.verdict,
        [_conflict_fields(c) for c in outcome.conflicts],
        [(m.pos, m.expression, m.reason) for m in outcome.missrefs],
        outcome.stats.visited,
        outcome.stats.paths,
    )


def assert_matches_reference(p, entry, mode: Mode, bud) -> None:
    got = outcome_fields(detect(p, entry, mode, budget=bud))
    assert got == reference_detect(p, entry, mode, bud)


def seed_cases(offset: int, count: int):
    """Marked random programs of the property suite from OA_SEED+offset."""
    base = default_seed() + offset
    for i in range(count):
        gen = generate_program(base + i, mkref=(i % 2 == 0), mark_changes=True)
        if gen.entry is not None:
            yield base + i, gen.program, gen.entry


def test_reference_scan_is_not_in_the_engine():
    assert not hasattr(engine, "_scan_path")
    assert not hasattr(engine, "same_element")


def _ev(kind, line, **kw):
    return WriteEvent(kind=kind, pos=Position("t.mir", line), provenance=Provenance.BASE,
                      method_id="C.m/0", method_display="C.m()", enclosing_kind="method", **kw)


def test_same_element_kind_mismatch():
    ctx = DetectionContext(parse_source("class D {\n}\n"), Mode.NOPA, AnalysisBudget(wall_clock=None))
    a = _ev(LV, 1, local="x")
    b = _ev(IFR, 2, base="this", base_type="D", field=("D", "f", "int"), field_name="f")
    assert not same_element(a, b, Mode.NOPA, ctx)


def test_same_element_records_missref(fig1_simple):
    p, _ = fig1_simple
    ctx = DetectionContext(p, Mode.PA, AnalysisBudget(wall_clock=None))
    # Unresolved fields compare by name; distinct names refuse the match, but
    # the empty points-to sets still leave a miss-reference trail.
    a = _ev(IFR, 1, base="a", base_type=None, field=None, field_name="f1")
    b = _ev(IFR, 2, base="b", base_type=None, field=None, field_name="f2")
    assert not same_element(a, b, Mode.PA, ctx)
    assert len(ctx.missrefs) == 2


@pytest.mark.parametrize("cut", [False, True])
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_match_reference(name, cut):
    program, units = scenario_units(load_bundled(name))
    for _, entry in units:
        for mode in ALL_MODES:
            bud = budget()
            if cut:
                # Half the fuel and paths the full run used: every unit stops part-way.
                full = detect(program, entry, mode, budget=bud).stats
                bud = budget(fuel=max(1, full.visited // 2), path_cap=max(1, full.paths // 2))
            assert_matches_reference(program, entry, mode, bud)


def test_random_programs_match_reference():
    checked = 0
    for _, p, entry in seed_cases(3000, 24):
        for mode in ALL_MODES:
            assert_matches_reference(p, entry, mode, budget(**PROP_BUDGET))
        # Small budgets cut paths mid-way and at the cap.
        assert_matches_reference(p, entry, Mode.PA, budget(fuel=400, path_cap=3))
        checked += 1
    assert checked >= 10


def test_every_suite_program_runs_in_every_mode():
    # The sample above takes one mkref setting per seed; OA_SEED+3023 and
    # +3083 with mkref call a method no class provides, which made the CHA
    # graph raise and nopa and hybrid exit 3.
    base = default_seed()
    ran, failed = 0, []
    for seed in range(base + 3000, base + 3101):
        for mkref in (False, True):
            gen = generate_program(seed, mkref=mkref, mark_changes=True)
            if gen.entry is None:
                continue
            try:
                solve(gen.program, pa_entry_points(gen.program))
                build_cha_graph(gen.program, gen.entry)
                for mode in ALL_MODES:
                    detect(gen.program, gen.entry, mode, budget=budget(fuel=500, path_cap=8))
            except MirError as e:
                failed.append(f"OA_SEED+{seed - base} mkref={mkref}: {e}")
            ran += 1
    assert failed == []
    assert ran >= 150


# ---------------------------------------------------------------------------
# The tree count against the enumeration it stands in for


def assert_count_matches(p, entry, mode: Mode, bud, cha=None, pts=None) -> Verdict:
    """The count exceeds the budget exactly when `detect` times out, and
    otherwise gives its paths and visits."""
    outcome = detect(p, entry, mode, budget=bud, cha=cha, pts=pts)
    count = count_tree(p, entry, bud, mode, cha=cha, pts=pts)
    assert (count.exceeds is not None) == (outcome.verdict is Verdict.TIMEOUT)
    if count.exceeds is None:
        assert (count.paths, count.visits) == (outcome.stats.paths, outcome.stats.visited)
    return outcome.verdict


def test_count_matches_enumeration_on_the_seed_range():
    base = default_seed()
    ran, verdicts = 0, set()
    for seed in range(base + 3000, base + 3101):
        for mkref in (False, True):
            gen = generate_program(seed, mkref=mkref, mark_changes=True)
            if gen.entry is None:
                continue
            p, entry = gen.program, gen.entry
            cha = build_cha_graph(p, entry)
            pts = solve(p, pa_entry_points(p))
            for mode in ALL_MODES:
                for bud in (budget(**PROP_BUDGET), budget(fuel=400, path_cap=16)):
                    verdicts.add(assert_count_matches(p, entry, mode, bud, cha, pts))
            ran += 1
    assert ran >= 150
    assert verdicts == set(Verdict)  # the range both finishes and times out


@pytest.mark.parametrize("name", BUNDLED)
def test_count_matches_enumeration_on_the_bundled_scenarios(name):
    program, units = scenario_units(load_bundled(name))
    for _, entry in units:
        for mode in ALL_MODES:
            assert_count_matches(program, entry, mode, budget())


def test_count_pins_the_budget_boundaries():
    p, entry = load_scenario_program("fig1_advanced")
    full = count_tree(p, entry, budget())
    assert full == (4, 16, None)
    for bud in (budget(path_cap=full.paths), budget(fuel=full.visits)):
        assert count_tree(p, entry, bud).exceeds is None
        assert detect(p, entry, Mode.NOPA, budget=bud).verdict is Verdict.TRUE
        assert detect(p, entry, Mode.NOPA, budget=bud, verdict_only=True).verdict is Verdict.TRUE
    for bud, reason in ((budget(path_cap=full.paths - 1), "path_cap"), (budget(fuel=full.visits - 1), "fuel")):
        assert count_tree(p, entry, bud).exceeds == reason
        assert detect(p, entry, Mode.NOPA, budget=bud).verdict is Verdict.TIMEOUT
        assert detect(p, entry, Mode.NOPA, budget=bud, verdict_only=True).verdict is Verdict.TIMEOUT


def test_count_walks_a_tree_nested_past_the_recursion_limit():
    # Static calls resolve alike in every mode, so one mode stands for all.
    p = parse_source(NESTED_CALLS)
    entry = find_method(p, "Main.m0")
    assert assert_count_matches(p, entry, Mode.NOPA, budget()) is Verdict.TRUE
    assert count_tree(p, entry, budget()) == (1201, 1214, None)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_return_from_nested_blocks_in_callees_matches_reference(mode):
    p = parse_source(RETURN_IN_BLOCKS)
    entry = find_method(p, "Main.main")
    assert assert_count_matches(p, entry, mode, budget()) is Verdict.TRUE
    assert count_tree(p, entry, budget(), mode)[:2] == ((10, 66) if mode is Mode.NOPA else (8, 58))
    # A fuel and path cap that cut the walk inside the callees too.
    for bud in (budget(), budget(fuel=40, path_cap=5)):
        assert_matches_reference(p, entry, mode, bud)


def test_verdict_only_times_out_on_the_count_alone():
    # deep_hierarchy under nopa enumerates 4 097 paths to pass the 4 096
    # cap; the count passes it inside the first call's bodies.
    p, entry = load_scenario_program("deep_hierarchy")
    count = count_tree(p, entry, budget())
    assert count.exceeds == "path_cap" and count.paths > 4096
    outcome = detect(p, entry, Mode.NOPA, budget=budget(), verdict_only=True)
    assert outcome.verdict is Verdict.TIMEOUT
    assert (outcome.conflicts, outcome.stats.paths, outcome.stats.visited) == ([], 0, 0)


# ---------------------------------------------------------------------------
# The per-site CHA graph against the per-edge builder it replaced


def reference_resolve_virtual(h, receiver_type, name: str, arity: int) -> list:
    """The definitions the implementers of a declared receiver type reach,
    else those of every class, sorted by id."""
    if receiver_type is not None and h.declares(receiver_type):
        defs = {}
        for cls in h.implementers(receiver_type):
            m = h.resolve_method(cls, name, arity, static=False)
            if m is not None:
                defs[m.id] = m
        if defs:
            return [defs[k] for k in sorted(defs)]
    defs = {}
    for c in h.class_list:
        m = h.resolve_method(c.name, name, arity, static=False)
        if m is not None:
            defs[m.id] = m
    return [defs[k] for k in sorted(defs)]


def reference_cha_graph(p, root) -> tuple[set, set, set]:
    """(roots, nodes, edges) of the original worklist builder."""
    h = p.hierarchy()
    nodes, edges = {root.id}, set()
    param_types = {root.id: [None] * len(root.params)}
    by_id = h.methods_by_id()
    queue, queued = deque([root.id]), {root.id}

    def bind(target, arg_types) -> bool:
        known = param_types.get(target.id)
        incoming = list(arg_types) if arg_types else [None] * len(target.params)
        if known is None:
            param_types[target.id] = incoming
            return True
        widened = [h.lca(a, b) for a, b in zip(known, incoming)]
        if widened != known:
            param_types[target.id] = widened
            return True
        return False

    while queue:
        mid = queue.popleft()
        queued.discard(mid)
        method = by_id[mid]
        sites: dict = {}
        scan_sites(method.body, initial_env(method, param_types.get(mid)), sites, h)
        for pos in sorted(sites):
            st, recv_type, arg_types = sites[pos]
            if isinstance(st, VirtualCall):
                targets = reference_resolve_virtual(h, recv_type, st.method, len(st.args))
            elif isinstance(st, StaticCall):
                targets = [resolve_static(h, st)]
            else:
                ctor = h.constructor_of(st.cls, len(st.args))
                targets = [ctor] if ctor is not None else []
            for tgt in targets:
                edges.add(CallEdge(st.pos, mid, tgt.id))
                fresh = tgt.id not in nodes
                nodes.add(tgt.id)
                if (bind(tgt, arg_types) or fresh) and tgt.id not in queued:
                    queue.append(tgt.id)
                    queued.add(tgt.id)
    return {root.id}, nodes, edges


def assert_graph_matches_reference(p, root) -> None:
    """Equal roots, nodes, edges and dump, and equal targets at every
    statement of the program and every site of the reference."""
    g = build_cha_graph(p, root)
    roots, nodes, edges = reference_cha_graph(p, root)
    assert (g.roots, g.nodes, g.edges) == (roots, nodes, edges)
    assert g.dump() == "".join(f"{e.caller}\t{e.site.file}:{e.site.line}\t{e.target}\n" for e in sorted(edges))
    by_site: dict = {}
    for e in edges:
        by_site.setdefault(e.site, []).append(e.target)
    positions = {st.pos for m in all_methods(p) for st in iter_stmts(m.body)}
    for pos in positions | set(by_site):
        assert g.has_site(pos) == (pos in by_site)
        assert g.targets_at(pos) == sorted(by_site.get(pos, ()))


def test_cha_graph_matches_reference_on_the_seed_range():
    base = default_seed()
    ran = 0
    for seed in range(base + 3000, base + 3101):
        for mkref in (False, True):
            gen = generate_program(seed, mkref=mkref, mark_changes=True)
            if gen.entry is None:
                continue
            assert_graph_matches_reference(gen.program, gen.entry)
            assert_graph_matches_reference(gen.program, gen.main)
            ran += 1
    assert ran == 195


@pytest.mark.parametrize("name", BUNDLED)
def test_cha_graph_matches_reference_on_the_bundled_scenarios(name):
    # Every method as a root, the scenario's entries among them.
    program, units = scenario_units(load_bundled(name))
    roots = list(all_methods(program))
    assert {entry.id for _, entry in units} <= {m.id for m in roots}
    for root in roots:
        assert_graph_matches_reference(program, root)


def wide_fan_out(k: int) -> str:
    """`k` implementers of `Node` that call each other through `Node`
    receivers, as in `deep_hierarchy`, and hand themselves on as arguments,
    so parameter types widen as more callers reach a method."""
    lines = ["interface Node {", "  method step();", "  method take(v);", "}"]
    for i in range(k):
        lines += [
            f"class Impl{i} implements Node {{",
            "  field next: Node;",
            "  method step() {",
            "    n = this.next;",
            "    call n.step();",
            "    call n.take(this);",
            "  }",
            "  method take(v) {",
            "    call v.step();",
            f"    w = new Impl{(i + 1) % k}();",
            "    call w.take(v);",
            "  }",
            "}",
        ]
    lines += ["class Main {", "  public static method main() {", "    a = new Impl0();", "    call a.take(a);", "  }", "}"]
    return "\n".join(lines) + "\n"


def _site_of(p, method_ref: str, receiver: str) -> VirtualCall:
    return next(st for st in iter_stmts(find_method(p, method_ref).body)
                if isinstance(st, VirtualCall) and st.receiver == receiver)


@pytest.mark.parametrize("k", [1, 4, 32])
def test_cha_graph_matches_reference_on_a_wide_fan_out(k):
    p = parse_source(wide_fan_out(k))
    main = find_method(p, "Main.main")
    assert_graph_matches_reference(p, main)
    g = build_cha_graph(p, main)
    # Every step and take is reached, and `v` in each take widens to Node.
    assert len(g.nodes) == 1 + 2 * k
    assert g.targets_at(_site_of(p, f"Impl{k - 1}.take", "v").pos) == sorted(f"Impl{i}.step/0" for i in range(k))


# `H.h` is first visited with `p` typed X, whose implementers provide no `m`,
# so `p.m()` falls back to every class providing it. `Main.later` then widens
# `p` to I, and the second visit resolves only A.m: the site keeps the union.
NARROWING = (
    "interface I {\n  method m();\n}\n"
    "class A implements I {\n  method m() {\n  }\n}\n"
    "class X implements I {\n}\n"
    "class C {\n  method m() {\n  }\n}\n"
    "class H {\n  method h(p) {\n    call p.m();\n  }\n}\n"
    "class Main {\n"
    "  public static method main() {\n    x = new X();\n    h = new H();\n    call h.h(x);\n"
    "    call Main::later();\n  }\n"
    "  static method later() {\n    a = new A();\n    h = new H();\n    call h.h(a);\n  }\n"
    "}\n"
)


def test_cha_graph_keeps_targets_of_a_site_that_narrows_on_a_later_visit():
    p = parse_source(NARROWING)
    main = find_method(p, "Main.main")
    assert_graph_matches_reference(p, main)
    assert build_cha_graph(p, main).targets_at(_site_of(p, "H.h", "p").pos) == ["A.m/0", "C.m/0"]


# Allocations, each a call of its class's constructor: `Node`'s constructor
# allocates a `Node` (recursion cuts the inner one), `K0` starts a chain of
# seven constructors that the depth limit of 5 cuts after `K4` (so `K6`'s
# write is never reached), `Plain` has no constructor, and `Guard`'s
# constructor returns from inside an `if`.
CONSTRUCTORS = (
    "class Node {\n  field next: Node;\n  field v: int;\n"
    "  ctor() {\n    this.v = 1 @L;\n    n = new Node() @R;\n    this.next = n;\n  }\n}\n"
    "class K0 {\n  field static g: int;\n  ctor() {\n    K0::g = 0 @L;\n    k = new K1();\n  }\n}\n"
    + "".join(f"class K{i} {{\n  ctor() {{\n    k = new K{i + 1}();\n  }}\n}}\n" for i in range(1, 6))
    + "class K6 {\n  ctor() {\n    K0::g = 6 @R;\n  }\n}\n"
    "class Plain {\n  field f: int;\n}\n"
    "class Guard {\n  field w: int;\n"
    "  ctor(c) {\n    this.w = 1 @R;\n    if c {\n      K0::g = 2 @R;\n      return;\n    }\n"
    "    this.w = 3;\n  }\n}\n"
    "class Main {\n"
    "  public static method main() {\n    c = 1;\n    x = new Node();\n"
    "    if c {\n      k = new K0() @L;\n    } else {\n      p = new Plain() @R;\n      p.f = 4 @L;\n    }\n"
    "    g = new Guard(c) @L;\n    K0::g = 5 @R;\n    x.v = 6 @R;\n  }\n}\n"
)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_constructor_cuts_match_reference(mode):
    p = parse_source(CONSTRUCTORS)
    entry = find_method(p, "Main.main")
    assert assert_count_matches(p, entry, mode, budget()) is Verdict.TRUE
    # Two paths through each `if`: 6 visits before the first, 7 in its then
    # arm (K0 to K4) and 2 in its else arm, and 10 in the tree after it.
    assert count_tree(p, entry, budget(), mode)[:2] == (4, 35)
    for bud in (budget(), budget(fuel=20, path_cap=2)):
        assert_matches_reference(p, entry, mode, bud)
