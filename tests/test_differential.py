"""Differential tests: `detect` against the per-path scan it replaced,
`enumerate_write_paths` against a recursive enumerator, and
`build_cha_graph` against the per-edge builder it replaced.

`engine.detect` scans each write once, as the enumerator appends it, and
undoes the scan on backtrack. The reference below is the original design:
it drains `enumerate_write_paths` and, for every completed path, walks back
from each changed write over all earlier events of the path. It is
quadratic per path and lives only here, as the oracle.

`reference_detect` drains `enumerate_write_paths`, so it shares the
enumerator's frames and choice points. `reference_paths` shares neither: it
follows the rules of the engine's module docstring by plain recursion over
the statements, and gives every path's write events in the walk's order.

`build_cha_graph` resolves each virtual dispatch once per receiver type and
keeps targets per site. `reference_cha_graph` is the original builder: it
resolves every call anew on every method visit and adds one `CallEdge` per
target, binding argument types into each.

`detect(verdict_only=True)` decides false, unenumerated, a unit whose left
and right writes cannot meet (`engine._sides_meet`). The full `detect` is
its reference: no unit it decides true may be decided so. Under `nopa` the
full `detect` runs the pass over every method a call reaches, and when the
sides cannot meet it counts the unit or skips, by their counts, the
subtrees of its walk that fit the budget left. A walk that skips nothing
is its reference: no such unit commits a conflict there, and the skipping
`detect` stops where that walk stops.

Where the sides meet, a `nopa` walk counts instead of walking the other
ways through a quiet call subtree once it has walked one. A plain
`_Scanner` walk, which skips nothing, is its reference: `detect` gives its
outcome in full, conflicts and stop reason included.

The sides pass and the quiet pass read the effects table the lowering
fills, one entry per method. `reference_sides_meet` and `reference_quiet`
in conftest are the passes it replaced, which walk the lowered ops, nested
blocks included: both must give the same sets on every unit.

`harness.run_scenario` gives `hybrid` the outcome of `pa` on a unit where
`pa` logs no unresolved-call miss-reference. A `hybrid` run of its own is
the reference there: verdict, conflicts, miss-references, counters and
stop reason must all be equal. It gives `nopa` the outcome of a `pa` or
`hybrid` run whose `stats.nopa_choices` holds, less points-to sets and
miss-references (`engine.as_nopa`); a `nopa` run of its own is the
reference there, its whole `AnalysisOutcome`.
"""

from __future__ import annotations

import functools
import time
import types
from collections import deque

import pytest

from conftest import (
    ALL_MODES,
    NESTED_CALLS,
    RETURN_IN_BLOCKS,
    _nested_calls,
    budget,
    load_scenario_program,
    reference_quiet,
    reference_sides_meet,
    reference_solve,
    reference_write_slices,
)
from oadetect import engine
from oadetect.cha import CallEdge, apply_rule, build_cha_graph, initial_env, operand_type, resolve_static, type_rule
from oadetect.cha import _scan_sites as scan_sites
from oadetect.engine import (
    AR,
    IFR,
    LV,
    SFR,
    AnalysisBudget,
    AnalysisOutcome,
    Conflict,
    DetectionContext,
    Mode,
    Verdict,
    WriteEvent,
    as_nopa,
    compare_heap,
    count_tree,
    empty_pts_miss,
    detect,
    enumerate_write_paths,
    resolve_call,
)
from oadetect.frontend import parse_source
from oadetect.harness import load_bundled, load_scenario, scenario_program, scenario_units
from oadetect.mir import (
    AllocAssign,
    ArrayStore,
    FieldStore,
    If,
    MirError,
    Position,
    Provenance,
    Return,
    StaticCall,
    StaticStore,
    VirtualCall,
    While,
    all_methods,
    find_method,
    iter_stmts,
)
from oadetect.pointsto import dump_pts, pa_entry_points, solve
from oadetect.randprog import default_seed, generate_program
from test_byte_identity import WORKLOAD_DIGESTS, WORKLOAD_SEED, _bench_workloads

PROP_BUDGET = dict(fuel=20_000, path_cap=512)
BUNDLED = ("fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy")


def same_element(a: WriteEvent, b: WriteEvent, mode: Mode, ctx: DetectionContext) -> bool:
    """Whether two writes touch the same element; records miss-references into ctx.

    LV and SFR writes do exactly when their `element_key()`s are equal; IFR
    and AR writes are compared by `compare_heap`, which names the writes
    whose miss-references the comparison logs.
    """
    if a.kind != b.kind:
        return False
    if a.kind == LV or a.kind == SFR:
        return a.element_key() == b.element_key()
    match, _, empty = compare_heap(a, b, mode, ctx.hierarchy)
    ctx.missrefs.update(empty_pts_miss(ev) for ev in empty)
    return match


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


def assert_matches_reference(p, entry, mode: Mode, bud) -> AnalysisOutcome:
    outcome = detect(p, entry, mode, budget=bud)
    assert outcome_fields(outcome) == reference_detect(p, entry, mode, bud)
    return outcome


@functools.cache
def _seed_range(base: int) -> tuple:
    return tuple(
        (seed - base, mkref, gen.program, gen.entry)
        for seed in range(base + 3000, base + 3101)
        for mkref in (False, True)
        for gen in (generate_program(seed, mkref=mkref, mark_changes=True),)
    )


def seed_range() -> tuple:
    """The seed range: (offset from OA_SEED, mkref, program, entry) of the
    marked program of each seed from OA_SEED+3000 to +3100, `mkref` off then
    on; `entry` is None where no method was marked. Generated once per
    OA_SEED and shared, as no analysis changes a program."""
    return _seed_range(default_seed())


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


def scan_random_units(tmp_path):
    """(unit id, program, entry) of every unit of scan-random at its seed."""
    wl = _bench_workloads().build_workload("scan-random", tmp_path / "in", WORKLOAD_SEED)
    assert wl.budget == PROP_BUDGET
    for spec in wl.scenarios:
        program, units = scenario_units(load_scenario(spec.directory))
        for _, entry in units:
            yield spec.unit_id, program, entry


def test_scan_random_units_match_reference(tmp_path, monkeypatch):
    # Its 513-path timeouts and its many empty-pts miss-references run the
    # scan's commit and undo longest. The cut is half the fuel and paths the
    # full run used, so every unit stops part-way.
    monkeypatch.delenv("OA_SEED", raising=False)  # as the benchmark builds its workloads
    runs = cut_short = 0
    for _, program, entry in scan_random_units(tmp_path):
        for mode in ALL_MODES:
            full = assert_matches_reference(program, entry, mode, budget(**PROP_BUDGET)).stats
            bud = budget(fuel=max(1, full.visited // 2), path_cap=max(1, full.paths // 2))
            cut_short += assert_matches_reference(program, entry, mode, bud).verdict is Verdict.TIMEOUT
            runs += 1
    assert (runs, cut_short) == (99, 99)


@pytest.mark.hashseed
def test_scan_compares_each_pair_once_and_builds_each_miss_once(tmp_path, monkeypatch):
    # scan-random's 07_p4784: a full `hybrid` walk of 36 paths compares 577
    # pairs of heap writes, 555 of them with a points-to set empty and 22
    # with both sets non-empty while `nopa_choices` holds, which need
    # `nopa`'s answer too. Each pair is compared once, for both answers, and
    # each empty-pts miss-reference is built once, however many comparisons
    # log it.
    monkeypatch.delenv("OA_SEED", raising=False)
    program, entry = next((p, e) for unit, p, e in scan_random_units(tmp_path) if unit == "07_p4784")
    pairs, built = [], []
    compare, miss = engine.compare_heap, engine.MissRef

    def counted_compare(a, b, mode, h, nopa=False):
        pairs.append((a, b, nopa))  # holds the events, so their ids stay unique
        return compare(a, b, mode, h, nopa)

    def counted_miss(*fields):
        built.append(fields)
        return miss(*fields)

    monkeypatch.setattr(engine, "compare_heap", counted_compare)
    monkeypatch.setattr(engine, "MissRef", counted_miss)
    out = detect(program, entry, Mode.HYBRID, budget=budget(**PROP_BUDGET))
    assert (out.verdict, out.stats.paths, out.stats.nopa_choices) == (Verdict.FALSE, 36, True)
    assert len({(id(a), id(b)) for a, b, _ in pairs}) == len(pairs) == 577
    assert sum(1 for a, b, _ in pairs if not (a.base_pts and b.base_pts)) == 555
    assert sum(1 for a, b, nopa in pairs if nopa and a.base_pts and b.base_pts) == 22
    reported = [m for m in out.missrefs if m.reason == "empty-pts"]
    assert len([f for f in built if f[2] == "empty-pts"]) == len(reported) == 5


def test_scan_builds_each_conflict_once(tmp_path, monkeypatch):
    # scan-random's 13_p4769 keeps 24 conflicts under `nopa` and `hybrid`.
    # Each path that appends an overriding write anew finds its override
    # again (464 times in all under each mode), and a commit builds the
    # `Conflict` only for a key not found yet.
    monkeypatch.delenv("OA_SEED", raising=False)
    program, entry = next((p, e) for unit, p, e in scan_random_units(tmp_path) if unit == "13_p4769")
    built = []
    conflict = engine.Conflict

    def counted_conflict(*fields, **named):
        built.append(fields)
        return conflict(*fields, **named)

    monkeypatch.setattr(engine, "Conflict", counted_conflict)
    for mode in (Mode.NOPA, Mode.HYBRID):
        built.clear()
        out = detect(program, entry, mode, budget=budget(**PROP_BUDGET))
        assert (out.verdict, len(out.conflicts), len(built)) == (Verdict.TRUE, 24, 24)


def test_every_suite_program_runs_in_every_mode():
    # The sample above takes one mkref setting per seed; OA_SEED+3023 and
    # +3083 with mkref call a method no class provides, which made the CHA
    # graph raise and nopa and hybrid exit 3.
    ran, failed = 0, []
    for offset, mkref, p, entry in seed_range():
        if entry is None:
            continue
        try:
            solve(p, pa_entry_points(p))
            build_cha_graph(p, entry)
            for mode in ALL_MODES:
                detect(p, entry, mode, budget=budget(fuel=500, path_cap=8))
        except MirError as e:
            failed.append(f"OA_SEED+{offset} mkref={mkref}: {e}")
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
    ran, verdicts = 0, set()
    for _, _, p, entry in seed_range():
        if entry is None:
            continue
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
    assert_walk_matches_recursion(p, entry, mode, budget())
    # A fuel and path cap that cut the walk inside the callees too.
    for bud in (budget(), budget(fuel=40, path_cap=5)):
        assert_matches_reference(p, entry, mode, bud)


# Two changed heap writes on one line, each through a base whose points-to
# set is empty: a statement's position is only its file and line, and an
# unvalidated program may hold several statements on one line. Each write
# logs its own `empty-pts` miss-reference.
SHARED_LINE_MISSES = (
    "class D {\n"
    "  field f: int;\n"
    "  field g: int;\n"
    "  field d: D;\n"
    "}\n"
    "class Main {\n"
    "  public static method main() {\n"
    "    m = new D();\n"
    "    a = m.d; b = m.d;\n"
    "    a.f = 1 @L; b.g = 2 @R; a.f = 3 @R;\n"
    "  }\n"
    "}\n"
)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_empty_pts_writes_on_one_line_each_log_a_miss(mode):
    p = parse_source(SHARED_LINE_MISSES, validate=False)
    entry = find_method(p, "Main.main")
    out = assert_matches_reference(p, entry, mode, budget())
    assert out.verdict is Verdict.TRUE
    want = [] if mode is Mode.NOPA else ["a.f", "b.g"]
    assert [m.expression for m in out.missrefs] == want
    assert {m.pos.line for m in out.missrefs} <= {10}


# `deep_hierarchy` under `nopa` exceeds every budget but the shallowest
# depth limit. The count stops at the first part past the budget, so each
# budget pins how far it got and which budget it names.
DEEP_HIERARCHY_COUNTS = (
    ({}, (4211, 8422, "path_cap")),
    ({"depth_limit": 4}, (4506, 9012, "path_cap")),
    ({"depth_limit": 3}, (4810, 9622, "path_cap")),
    ({"depth_limit": 2}, (32768, 69634, "path_cap")),
    ({"depth_limit": 1}, (1024, 2178, None)),
    ({"path_cap": 100}, (117, 234, "path_cap")),
    ({"fuel": 3000}, (1685, 3370, "fuel")),
    ({"depth_limit": 2, "path_cap": 10**6}, (262144, 528386, "fuel")),
)


def test_count_pins_exceeded_values_on_deep_hierarchy():
    p, entry = load_scenario_program("deep_hierarchy")
    for overrides, expected in DEEP_HIERARCHY_COUNTS:
        assert count_tree(p, entry, budget(**overrides)) == expected, overrides


def frontier_calls(k: int) -> str:
    """`k` implementers of `Node`, each of whose `step` writes under a branch
    and calls `step` through a `Node` field, as in `deep_hierarchy`."""
    lines = ["interface Node {", "  method step();", "}"]
    for i in range(k):
        lines += [
            f"class Impl{i} implements Node {{",
            "  field next: Node;",
            "  field v: int;",
            "  method step() {",
            "    n = this.next;",
            "    if n {",
            f"      this.v = {i} {'@L' if i % 2 else '@R'};",
            "    }",
            "    call n.step();",
            "  }",
            "}",
        ]
    return "\n".join(lines) + "\n"


def test_count_sums_a_frontier_whose_target_is_never_counted():
    # The entry, `Impl0.step`, is on every call stack, so recursion always
    # cuts it where a call enters bodies at the depth limit: the count of its
    # body there is never made. Below a depth limit of 5, the other targets
    # are counted on their first uncut visit.
    p = parse_source(frontier_calls(5))
    entry = find_method(p, "Impl0.step")
    pins = (
        ({}, (1266, 3165, None)),
        ({"depth_limit": 3}, (498, 1245, None)),
        ({"depth_limit": 2}, (114, 285, None)),
        ({"depth_limit": 4, "path_cap": 100}, (106, 265, "path_cap")),
        ({"depth_limit": 4, "fuel": 500}, (318, 795, "fuel")),
    )
    for overrides, expected in pins:
        assert count_tree(p, entry, budget(**overrides)) == expected, overrides
        for mode in ALL_MODES:
            assert_count_matches(p, entry, mode, budget(**overrides))


def test_verdict_only_times_out_on_the_count_alone():
    # deep_hierarchy under nopa enumerates 4 097 paths to pass the 4 096
    # cap; the count passes it inside the first call's bodies.
    p, entry = load_scenario_program("deep_hierarchy")
    count = count_tree(p, entry, budget())
    assert count.exceeds == "path_cap" and count.paths > 4096
    outcome = detect(p, entry, Mode.NOPA, budget=budget(), verdict_only=True)
    assert (outcome.verdict, outcome.stats.stop_reason) == (Verdict.TIMEOUT, "path_cap")
    assert (outcome.conflicts, outcome.stats.paths, outcome.stats.visited) == ([], 0, 0)


def assert_sides_pass_is_sound(p, entry, mode: Mode, bud, cha, pts) -> Verdict | None:
    """The sides pass holds on every unit the full run decides true,
    verdict-only detection gives the full run's verdict, and a unit the pass
    decides has the full run's paths and visits. Returns the full run's
    verdict when the pass decides the unit, else None."""
    full = detect(p, entry, mode, budget=bud, cha=cha, pts=pts)
    ctx = DetectionContext(p, mode, bud, cha=cha, pts=pts)
    decided = engine._count_tree(ctx, entry).exceeds is None and not engine._sides_meet(ctx, entry)
    assert not (decided and full.verdict is Verdict.TRUE)
    quick = detect(p, entry, mode, budget=bud, cha=cha, pts=pts, verdict_only=True)
    assert quick.verdict is full.verdict
    if not decided:
        return None
    assert (quick.conflicts, quick.stats.paths, quick.stats.visited) == ([], full.stats.paths, full.stats.visited)
    return full.verdict


def _walk_commits_no_conflict(p, entry, bud, cha) -> bool:
    """A `nopa` walk that skips nothing, as `detect` ran it before the skip,
    commits no conflict."""
    scanner = engine._Scanner(DetectionContext(p, Mode.NOPA, bud, cha=cha), entry)
    for _ in scanner.paths():
        pass
    return not scanner.conflicts


@pytest.mark.hashseed
def test_sides_pass_is_sound_on_the_seed_range_and_the_bundled_scenarios():
    cases = [(p, entry, budget(**PROP_BUDGET)) for _, _, p, entry in seed_range() if entry is not None]
    for name in BUNDLED:
        program, units = scenario_units(load_bundled(name))
        cases.extend((program, entry, budget()) for _, entry in units)
    decided = []
    apart = []  # the full run's verdict on each nopa unit the full-reach pass says cannot meet
    for p, entry, bud in cases:
        cha = build_cha_graph(p, entry)
        pts = solve(p, pa_entry_points(p))
        for mode in ALL_MODES:
            decided.append(assert_sides_pass_is_sound(p, entry, mode, bud, cha, pts))
        # The full-reach pass holds on timed-out units too.
        if not engine._sides_meet(DetectionContext(p, Mode.NOPA, bud, cha=cha), entry, reach_all=True):
            assert _walk_commits_no_conflict(p, entry, bud, cha)
            apart.append(detect(p, entry, Mode.NOPA, budget=bud, cha=cha).verdict)
    assert len(cases) >= 150
    # Most false units are decided by the pass alone.
    assert decided.count(Verdict.FALSE) >= 400
    assert set(decided) == {Verdict.FALSE, None}
    # On the seed range: 141 of 173 nopa units within budget and 13 of 22
    # timeouts; deep_hierarchy is one more timeout.
    assert (apart.count(Verdict.FALSE), apart.count(Verdict.TIMEOUT), len(apart)) == (141, 14, 155)


def table_units(tmp_path):
    """Every unit of the seed range (`mkref` off and on), the bundled corpus
    and the bench workloads at their seed, each with its budget."""
    for _, _, p, entry in seed_range():
        if entry is not None:
            yield p, entry, budget(**PROP_BUDGET)
    scenarios = [(load_bundled(name), budget()) for name in BUNDLED]
    for workload in sorted(WORKLOAD_DIGESTS):
        wl = _bench_workloads().build_workload(workload, tmp_path / workload, WORKLOAD_SEED)
        scenarios.extend((load_scenario(spec.directory), budget(**wl.budget)) for spec in wl.scenarios)
    for scenario, bud in scenarios:
        program, units = scenario_units(scenario)
        for _, entry in units:
            yield program, entry, bud


@pytest.mark.hashseed
def test_effects_table_answers_as_the_op_walking_passes(tmp_path, monkeypatch):
    # The lowered-only pass runs after a count within budget, as
    # verdict-only detection runs it, in every mode; the full-reach pass
    # runs under `nopa`, as a full detection runs it. Each pass gets a
    # fresh context, so each lowers and resolves for itself.
    monkeypatch.delenv("OA_SEED", raising=False)  # as the benchmark builds its workloads
    runs = met = quiet = 0
    for p, entry, bud in table_units(tmp_path):
        cha = build_cha_graph(p, entry)
        pts = solve(p)
        for mode in ALL_MODES:
            for reach_all in (False, True) if mode is Mode.NOPA else (False,):
                table, walker = (DetectionContext(p, mode, bud, cha=cha, pts=pts) for _ in range(2))
                if not reach_all:
                    if engine._count_tree(table, entry).exceeds is not None:
                        continue
                    engine._count_tree(walker, entry)
                meets = engine._sides_meet(table, entry, reach_all)
                assert meets == reference_sides_meet(walker, entry, reach_all), (entry.id, mode, reach_all)
                runs += 1
                if meets:
                    quiet_ids = engine._quiet(table, meets)
                    assert quiet_ids == reference_quiet(walker, meets), (entry.id, mode, reach_all)
                    met += 1
                    quiet += bool(quiet_ids)
    assert (runs, met, quiet) == (1146, 426, 280)


# ---------------------------------------------------------------------------
# `hybrid` against `pa` where `pa` resolves every call it reaches

# The seed range's budgets here: the property suite's, less fuel, and a
# smaller path cap, so that count and walk stop at other places too.
HYBRID_BUDGETS = (PROP_BUDGET, dict(fuel=3_000, path_cap=512), dict(fuel=20_000, path_cap=40))


def hybrid_groups(tmp_path):
    """(group, [(program, entry, budgets)]): the seed range at each of
    `HYBRID_BUDGETS`, the bundled corpus, and each bench workload at its
    seed."""
    budgets = [budget(**b) for b in HYBRID_BUDGETS]
    yield "seed range", [(p, entry, budgets) for _, _, p, entry in seed_range() if entry is not None]
    groups = {"bundled": [(load_bundled(name), budget()) for name in BUNDLED]}
    for workload in sorted(WORKLOAD_DIGESTS):
        wl = _bench_workloads().build_workload(workload, tmp_path / workload, WORKLOAD_SEED)
        groups[workload] = [(load_scenario(spec.directory), budget(**wl.budget)) for spec in wl.scenarios]
    for group, scenarios in groups.items():
        units = []
        for scenario, bud in scenarios:
            program, entries = scenario_units(scenario)
            units.extend((program, entry, [bud]) for _, entry in entries)
        yield group, units


def test_hybrid_equals_pa_where_pa_resolves_every_call(tmp_path, monkeypatch):
    # `harness.run_scenario` gives `hybrid` the outcome of `pa` on such a
    # unit without running it; here both run, verdict-only and full.
    monkeypatch.delenv("OA_SEED", raising=False)  # as the benchmark builds its workloads
    shares = {}
    for group, units in hybrid_groups(tmp_path):
        qualifying = runs = 0
        for p, entry, budgets in units:
            cha, pts = build_cha_graph(p, entry), solve(p)
            for bud in budgets:
                for verdict_only in (True, False):
                    pa = detect(p, entry, Mode.PA, budget=bud, cha=cha, pts=pts, verdict_only=verdict_only)
                    runs += 1
                    if any(m.reason == "unresolved-call" for m in pa.missrefs):
                        continue
                    qualifying += 1
                    hybrid = detect(p, entry, Mode.HYBRID, budget=bud, cha=cha, pts=pts, verdict_only=verdict_only)
                    assert (outcome_fields(hybrid), hybrid.stats.stop_reason) == (
                        outcome_fields(pa), pa.stats.stop_reason), (group, entry.id, bud, verdict_only)
        shares[group] = (qualifying, runs)
    assert all(q > 0 for q, _ in shares.values())
    # (qualifying runs, runs), two runs per unit and budget: the bundled
    # corpus and gate-bundled lose mkref, and every wide-hierarchy unit
    # qualifies.
    assert shares == {
        "seed range": (762, 1170), "bundled": (6, 8),
        "gate-bundled": (6, 8), "scan-random": (36, 66), "wide-hierarchy": (130, 130),
    }


# ---------------------------------------------------------------------------
# `nopa` against a points-to run that made every choice `nopa` makes


@pytest.mark.hashseed
def test_nopa_equals_a_points_to_run_that_made_nopas_choices(tmp_path, monkeypatch):
    # `harness.run_scenario` gives `nopa` the outcome of such a `pa` or
    # `hybrid` run, less points-to sets and miss-references, without running
    # it; here all three run, verdict-only and full, over one CHA graph.
    monkeypatch.delenv("OA_SEED", raising=False)  # as the benchmark builds its workloads
    shares = {}
    for group, units in hybrid_groups(tmp_path):
        qualifying = runs = 0
        for p, entry, budgets in units:
            cha, pts = build_cha_graph(p, entry), solve(p)
            for bud in budgets:
                for verdict_only in (True, False):
                    runs += 1
                    nopa = None
                    for mode in (Mode.PA, Mode.HYBRID):
                        got = detect(p, entry, mode, budget=bud, cha=cha, pts=pts, verdict_only=verdict_only)
                        if got.stats.nopa_choices:
                            nopa = nopa or detect(p, entry, Mode.NOPA, budget=bud, cha=cha, pts=pts,
                                                  verdict_only=verdict_only)
                            assert as_nopa(got) == nopa, (group, entry.id, mode, bud, verdict_only)
                    qualifying += nopa is not None
        shares[group] = (qualifying, runs)
    # (qualifying runs, runs), two runs per unit and budget: the bundled
    # corpus and gate-bundled lose fig1_advanced and deep_hierarchy, and in
    # every wide-hierarchy unit `pa` resolves a call to fewer targets than CHA.
    assert shares == {
        "seed range": (972, 1170), "bundled": (4, 8),
        "gate-bundled": (4, 8), "scan-random": (60, 66), "wide-hierarchy": (0, 130),
    }


# ---------------------------------------------------------------------------
# The skipping walk against a walk that skips nothing


def apart_nopa_units():
    """deep_hierarchy and every `nopa` unit of the seed range whose sides
    cannot meet, each with its budget and CHA graph."""
    p, entry = load_scenario_program("deep_hierarchy")
    units = [(p, entry, budget())]
    units += [(p, entry, budget(**PROP_BUDGET)) for _, _, p, entry in seed_range() if entry is not None]
    for p, entry, bud in units:
        cha = build_cha_graph(p, entry)
        if not engine._sides_meet(DetectionContext(p, Mode.NOPA, bud, cha=cha), entry, reach_all=True):
            yield p, entry, bud, cha


def assert_skip_matches_walk(p, entry, bud, cha, reference: bool = True) -> AnalysisOutcome:
    """`detect` under `nopa` gives the verdict, conflicts, miss-references,
    `visited`, `paths` and stop reason of a plain walk, read from its
    context, and with `reference` those of `reference_detect` too."""
    got = detect(p, entry, Mode.NOPA, budget=bud, cha=cha)
    fields = outcome_fields(got)
    ctx = DetectionContext(p, Mode.NOPA, bud, cha=cha)
    for _ in enumerate_write_paths(p, entry, ctx=ctx):
        pass
    walk = (Verdict.TIMEOUT if ctx.timed_out else Verdict.FALSE, [], sorted(ctx.missrefs), ctx.visited, ctx.paths)
    assert (fields, got.stats.stop_reason) == (walk, ctx.stop_reason), bud
    if reference:
        assert fields == reference_detect(p, entry, Mode.NOPA, bud), bud
    return got


def test_skipping_detect_matches_the_walk_at_every_cut():
    # `reference_detect` scans every path anew, so it runs at each unit's
    # own budget and at the cuts of deep_hierarchy. A cut walk completes a
    # prefix of the paths the walk at the unit's budget completes, so the
    # reference's scan finds no conflict at a cut either. A path cap past
    # the paths of a unit within budget runs as that many does.
    units = timeouts = 0
    for p, entry, bud, cha in apart_nopa_units():
        full = assert_skip_matches_walk(p, entry, bud, cha)
        deep = units == 0
        v = full.stats.visited
        for path_cap in range(1, min(64, full.stats.paths) + 1):
            assert_skip_matches_walk(p, entry, budget(fuel=bud.fuel, path_cap=path_cap), cha, deep)
        for fuel in sorted({1, 2, 3, v // 3, v // 2, v - 1, v, v + 1} - {0}):
            assert_skip_matches_walk(p, entry, budget(fuel=fuel, path_cap=bud.path_cap), cha, deep)
        units += 1
        timeouts += full.verdict is Verdict.TIMEOUT
    assert (units, timeouts) == (155, 14)


@pytest.mark.hashseed
def test_skipping_detect_pins_deep_hierarchy():
    p, entry = load_scenario_program("deep_hierarchy")
    cha = build_cha_graph(p, entry)
    for bud, stats in (
        (budget(), (8200, 4097, "path_cap")),
        (budget(fuel=100_000, path_cap=10**9), (100_001, 49_997, "fuel")),
    ):
        got = assert_skip_matches_walk(p, entry, bud, cha)
        assert got.verdict is Verdict.TIMEOUT
        assert (got.stats.visited, got.stats.paths, got.stats.stop_reason) == stats


# An apart unit whose call `p` -> `q` ends `p`'s body. The inner `if`'s arm
# returns from `q`, whose frame has no op left after the outer `if`, nor has
# `p`'s, so neither frame has a part in the skip's count and the outer arm's
# part must count the return as a fall into `main`.
RETURN_IN_A_LAST_CALLEE = (
    "class Main {\n"
    "  static method main() {\n"
    "    x = 1 @L;\n"
    "    c = 1;\n"
    "    call Main::p();\n"
    "    y = 2 @R;\n"
    "    z = 3;\n"
    "  }\n"
    "  static method p() {\n"
    "    c = 1;\n"
    "    call Main::q();\n"
    "  }\n"
    "  static method q() {\n"
    "    c = 1;\n"
    "    if c {\n"
    "      if c {\n"
    "        return;\n"
    "      }\n"
    "      w = 1;\n"
    "    }\n"
    "  }\n"
    "}\n"
)


@pytest.mark.hashseed
def test_skipping_detect_counts_a_return_out_of_a_last_callee():
    p = parse_source(RETURN_IN_A_LAST_CALLEE)
    entry = find_method(p, "Main.main")
    cha = build_cha_graph(p, entry)
    full = assert_skip_matches_walk(p, entry, budget(), cha)
    assert (full.verdict, full.stats.paths, full.stats.visited) == (Verdict.FALSE, 3, 16)
    for path_cap in range(1, 4):
        assert_skip_matches_walk(p, entry, budget(path_cap=path_cap), cha)
    for fuel in range(1, 18):
        assert_skip_matches_walk(p, entry, budget(fuel=fuel), cha)


@pytest.mark.hashseed
def test_skipping_detect_commits_almost_no_path(monkeypatch):
    # The walk that skips nothing commits 4 097 paths of deep_hierarchy.
    committed = []
    real = engine._Scanner._finish_path

    def spy(scanner):
        committed.append(scanner.entry.id)
        return real(scanner)

    monkeypatch.setattr(engine._Scanner, "_finish_path", spy)
    p, entry = load_scenario_program("deep_hierarchy")
    outcome = detect(p, entry, Mode.NOPA, budget=budget())
    assert (outcome.verdict, outcome.stats.paths) == (Verdict.TIMEOUT, 4097)
    assert len(committed) < 10


@pytest.mark.hashseed
def test_skipping_detect_counts_no_body_twice_past_the_budget(monkeypatch):
    # No whole-tree count runs: the skip starts at the root. Each count
    # stacks one part per frame on the chain of continuations (`_chain`),
    # and the memo and bounds let it make each body's part at most once.
    parts, callers = [], ["tree"]

    class CountedPart(engine._Part):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            parts.append((callers[-1], self.key))

    def counted(owner, name):
        real = getattr(owner, name)

        def method(*args):
            callers.append(name)
            try:
                return real(*args)
            finally:
                callers.pop()
        monkeypatch.setattr(owner, name, method)

    monkeypatch.setattr(engine, "_Part", CountedPart)
    counted(engine._Enumerator, "_skip")
    counted(engine, "_chain")
    p, entry = load_scenario_program("deep_hierarchy")
    cha = build_cha_graph(p, entry)
    for bud, bodies, frames in ((budget(), 182, 41), (budget(fuel=100_000, path_cap=10**9), 1805, 77)):
        parts.clear()
        assert detect(p, entry, Mode.NOPA, budget=bud, cha=cha).verdict is Verdict.TIMEOUT
        keys = [key for _, key in parts if key is not None]
        assert (sum(caller == "tree" for caller, _ in parts), len(keys), len(set(keys))) == (0, bodies, bodies)
        assert sum(caller == "_chain" for caller, _ in parts) == frames


@pytest.mark.hashseed
def test_nested_calls_skip_parts_are_pinned(monkeypatch):
    # Each skip rebuilds (`_chain`) and refolds (`_count`) a part for every
    # frame with ops left on the chain of continuations, so its cost grows
    # with the nesting: this full `nopa` detect made 28 300 parts at nesting
    # 40 and 175 750 at 100, and at 200 it takes over a second. The counts
    # are pinned so that the cost cannot grow unseen; a mend lowers them.
    made = {"_chain": 0, "_count": 0}
    callers = ["detect"]

    class CountedPart(engine._Part):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made[callers[-1]] += 1

    def counted(name):
        real = getattr(engine, name)

        def function(*args):
            callers.append(name)
            try:
                return real(*args)
            finally:
                callers.pop()
        monkeypatch.setattr(engine, name, function)

    lines = []
    for line in _nested_calls(6, 60).splitlines():
        lines.append(line)
        if line.strip() == "}" and line.startswith("    "):  # an `if` closes: write after it
            lines.append(line.replace("}", "w = 1;"))
    p = parse_source("\n".join(lines) + "\n")
    entry = find_method(p, "Main.m0")
    cha = build_cha_graph(p, entry)
    monkeypatch.setattr(engine, "_Part", CountedPart)
    counted("_chain")
    counted("_count")
    outcome = detect(p, entry, Mode.NOPA, budget=budget(), cha=cha)
    assert (outcome.verdict, outcome.stats.visited, outcome.stats.paths) == (Verdict.TRUE, 65_714, 361)
    assert made == {"_chain": 63_150, "_count": 300}


# ---------------------------------------------------------------------------
# Neutral choice points against a walk that skips nothing


def plain_walk(p, entry, bud, cha) -> tuple:
    """The outcome fields and stop reason of a `nopa` `_Scanner` walk that
    skips nothing, drained."""
    ctx = DetectionContext(p, Mode.NOPA, bud, cha=cha)
    scanner = engine._Scanner(ctx, entry)
    for _ in scanner.paths():
        pass
    verdict = Verdict.TIMEOUT if ctx.timed_out else Verdict.TRUE if scanner.conflicts else Verdict.FALSE
    ordered = sorted(
        scanner.conflicts.values(),
        key=lambda c: (c.overridden.root_pos, c.overriding.root_pos, c.overridden.pos, c.overriding.pos),
    )
    fields = (verdict, [_conflict_fields(c) for c in ordered], sorted(ctx.missrefs), ctx.visited, ctx.paths)
    return fields, ctx.stop_reason


def assert_neutral_skip_matches_walk(p, entry, bud, cha) -> AnalysisOutcome:
    """`detect` under `nopa`, full and verdict-only, gives the verdict,
    conflicts, miss-references, `visited`, `paths` and stop reason of a
    plain walk. A verdict-only run times out unwalked where the walk runs
    out of budget."""
    walk = plain_walk(p, entry, bud, cha)
    full = detect(p, entry, Mode.NOPA, budget=bud, cha=cha)
    assert (outcome_fields(full), full.stats.stop_reason) == walk, bud
    quick = detect(p, entry, Mode.NOPA, budget=bud, cha=cha, verdict_only=True)
    if walk[1] is None:
        assert (outcome_fields(quick), quick.stats.stop_reason) == walk, bud
    else:
        assert quick.verdict is Verdict.TIMEOUT
    return full


def meeting_nopa_units(source: str, tmp_path):
    """The `nopa` units of `source` whose sides meet, each with its budget,
    CHA graph and whether a method is quiet: the seed range, or a bench
    workload at its seed (gate-bundled is the bundled corpus as it ships)."""
    if source == "seed range":
        units = [(p, entry, budget(**PROP_BUDGET)) for _, _, p, entry in seed_range() if entry is not None]
    else:
        wl = _bench_workloads().build_workload(source, tmp_path / "in", WORKLOAD_SEED)
        units = []
        for spec in wl.scenarios:
            program, entries = scenario_units(load_scenario(spec.directory))
            units.extend((program, entry, budget(**wl.budget)) for _, entry in entries)
    for p, entry, bud in units:
        cha = build_cha_graph(p, entry)
        ctx = DetectionContext(p, Mode.NOPA, bud, cha=cha)
        meets = engine._sides_meet(ctx, entry, reach_all=True)
        if meets:
            yield p, entry, bud, cha, bool(engine._quiet(ctx, meets))


@pytest.mark.hashseed
@pytest.mark.parametrize(("source", "counts"), [
    ("seed range", (41, 3)),
    ("gate-bundled", (3, 1)),
    ("scan-random", (7, 2)),
    ("wide-hierarchy", (65, 65)),
])
def test_neutral_skip_matches_the_walk_at_every_cut(source, counts, tmp_path, monkeypatch):
    # Every unit runs at its own budget, against the reference too when it
    # has a quiet method or up to 150 paths (the reference scans each path
    # anew). A unit with a quiet method runs at path caps and fuels that cut
    # its walk anywhere, inside the neutral regions it skips among them.
    monkeypatch.delenv("OA_SEED", raising=False)  # as the benchmark builds its workloads
    units = with_quiet = 0
    for p, entry, bud, cha, quiet in meeting_nopa_units(source, tmp_path):
        full = assert_neutral_skip_matches_walk(p, entry, bud, cha)
        if quiet or full.stats.paths <= 150:
            assert outcome_fields(full) == reference_detect(p, entry, Mode.NOPA, bud)
        units += 1
        if not quiet:
            continue
        with_quiet += 1
        v = full.stats.visited
        for path_cap in range(1, min(20, full.stats.paths) + 1):
            assert_neutral_skip_matches_walk(p, entry, budget(fuel=bud.fuel, path_cap=path_cap), cha)
        for fuel in sorted({1, v // 5, v // 4, v // 3, v // 2, 2 * v // 3, 3 * v // 4, v - 1, v, v + 1} - {0}):
            assert_neutral_skip_matches_walk(p, entry, budget(fuel=fuel, path_cap=bud.path_cap), cha)
    assert (units, with_quiet) == counts


def _commits(monkeypatch) -> list:
    """The entry of each path the `_Scanner` commits from now on."""
    committed: list = []
    real = engine._Scanner._finish_path

    def spy(scanner):
        committed.append(scanner.entry.id)
        return real(scanner)

    monkeypatch.setattr(engine._Scanner, "_finish_path", spy)
    return committed


@pytest.mark.hashseed
@pytest.mark.parametrize(("offset", "stats", "commits"), [
    # `f0` is the one key both sides write, and every body holding a choice
    # point reaches a base write of it, which blocks: none is quiet.
    (3013, (Verdict.TIMEOUT, 513, 8806, 0, "path_cap"), (512, 512)),
    # Every method holding a choice point writes a local that both sides
    # write, such as `t13` in `C2.<init>`, which conflicts.
    (3003, (Verdict.TRUE, 128, 2464, 24, None), (128, 128)),
    # A quiet body whose choice points are neutral sits on every path.
    (3021, (Verdict.FALSE, 16, 86, 0, None), (16, 8)),
])
def test_neutral_skip_pins_the_paths_it_commits(offset, stats, commits, monkeypatch):
    # Each unit without reflective allocation, at the property-suite budget.
    gen = generate_program(default_seed() + offset, mkref=False, mark_changes=True)
    p, entry = gen.program, gen.entry
    bud = budget(**PROP_BUDGET)
    cha = build_cha_graph(p, entry)
    committed = _commits(monkeypatch)
    plain_walk(p, entry, bud, cha)
    walked = len(committed)
    for verdict_only in (False, True):
        committed.clear()
        out = detect(p, entry, Mode.NOPA, budget=bud, cha=cha, verdict_only=verdict_only)
        if verdict_only and out.stats.stop_reason is not None:
            continue  # the count times it out unwalked
        got = (out.verdict, out.stats.paths, out.stats.visited, len(out.conflicts), out.stats.stop_reason)
        assert (got, (walked, len(committed))) == (stats, commits)


@pytest.mark.hashseed
def test_neutral_skip_commits_one_path_per_wide_hierarchy_unit(tmp_path, monkeypatch):
    # Each unit's entry calls through an interface whose 32 implementers
    # write no key both sides write; the walk commits its first path and
    # counts the other 15.
    monkeypatch.delenv("OA_SEED", raising=False)
    committed = _commits(monkeypatch)
    verdicts = []
    for p, entry, bud, cha, _ in meeting_nopa_units("wide-hierarchy", tmp_path):
        for verdict_only in (False, True):
            committed.clear()
            out = detect(p, entry, Mode.NOPA, budget=bud, cha=cha, verdict_only=verdict_only)
            assert (out.stats.paths, len(committed)) == (16, 1)
        verdicts.append(out.verdict)
    assert (verdicts.count(Verdict.TRUE), verdicts.count(Verdict.FALSE)) == (39, 26)


@pytest.mark.hashseed
@pytest.mark.parametrize(("source", "counts"), [
    ("seed range", (32, 2)),
    ("gate-bundled", (3, 0)),
    ("scan-random", (5, 1)),
    ("wide-hierarchy", (65, 65)),
])
def test_verdict_only_walk_drops_neutral_choice_points_uncounted(source, counts, tmp_path, monkeypatch):
    # Where the count finds the tree within budget and the sides meet, the
    # walk drops each neutral choice point without counting its subtrees
    # again (`_skip`) and takes `paths` and `visited` from the count; the
    # full detect counts them as it goes. `counts` are the units walked and
    # those among them that commit fewer paths than they count.
    monkeypatch.delenv("OA_SEED", raising=False)
    skips = []
    real = engine._Enumerator._skip

    def spy(scanner, *args):
        skips.append(args)
        return real(scanner, *args)

    monkeypatch.setattr(engine._Enumerator, "_skip", spy)
    committed = _commits(monkeypatch)
    walked = dropped = 0
    for p, entry, bud, cha, _ in meeting_nopa_units(source, tmp_path):
        full = detect(p, entry, Mode.NOPA, budget=bud, cha=cha)
        skips.clear()
        committed.clear()
        quick = detect(p, entry, Mode.NOPA, budget=bud, cha=cha, verdict_only=True)
        if quick.stats.stop_reason is not None or not committed:
            continue  # timed out or decided false on the count alone, unwalked
        assert (skips, outcome_fields(quick), quick.stats.stop_reason) == ([], outcome_fields(full), None)
        walked += 1
        dropped += len(committed) < quick.stats.paths
    assert (walked, dropped) == counts


@pytest.mark.hashseed
def test_verdict_only_walk_out_of_time_counts_what_it_dropped(tmp_path, monkeypatch):
    # A wall clock that runs out once a path is committed stops each walk
    # at its next neutral choice point, at a time the count and the
    # sides pass took none of. The outcome keeps the counters of a walk
    # that counts each neutral choice point as it drops it.
    monkeypatch.delenv("OA_SEED", raising=False)
    committed = _commits(monkeypatch)
    monkeypatch.setattr(engine, "time", types.SimpleNamespace(
        perf_counter=time.perf_counter, monotonic=lambda: 1e9 if committed else 0.0))
    units = [(p, entry, cha) for p, entry, _, cha, _ in meeting_nopa_units("wide-hierarchy", tmp_path)]

    def run() -> list:
        got = []
        for p, entry, cha in units:
            committed.clear()
            out = detect(p, entry, Mode.NOPA, budget=budget(wall_clock=60.0), cha=cha, verdict_only=True)
            got.append((out.verdict, out.stats.visited, out.stats.paths, out.stats.stop_reason, len(committed)))
        return got

    dropping = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Enumerator, "fits", property(lambda scanner: False, lambda scanner, value: None),
                   raising=False)
        assert dropping == run()
    assert {(verdict, stop, walked) for verdict, _, _, stop, walked in dropping} == {
        (Verdict.TIMEOUT, "wall_clock", 1)}
    assert min(paths for _, _, paths, _, _ in dropping) > 1


@pytest.mark.parametrize("mode", ALL_MODES)
def test_lowered_writes_hold_the_slices_of_a_keyword_built_event(mode):
    programs = [(p, entry) for _, _, p, entry in seed_range() if entry is not None]
    programs += [load_scenario_program(name) for name in BUNDLED]
    writes = 0
    for p, entry in programs:
        ctx = engine._make_context(p, entry, mode, budget(**PROP_BUDGET), None, None)
        blocks = [(ctx.ops(m), m) for m in p.hierarchy().methods_by_id().values()]
        while blocks:
            ops, m = blocks.pop()
            for op in ops:
                if op.code == engine._BRANCH:
                    blocks.extend((block, m) for block in op.alts if block is not None)
                elif op.code != engine._RETURN:
                    # A call carries an allocation's local write, or its
                    # result local's write op.
                    for w in (op, op.result) if op.code == engine._CALL else (op,):
                        if w is not None and w.head is not None:
                            assert (w.head, w.tail, w.key) == reference_write_slices(ctx, op.st, m), op.st
                            writes += 1
    assert writes == 7540


# ---------------------------------------------------------------------------
# The walk against a recursive enumerator


def reference_paths(p, entry, mode: Mode, bud) -> list[list[tuple]]:
    """Every path's write events, in the walk's order, by plain recursion
    over the statements; budgets other than the depth limit are ignored.

    An event is (kind, position, provenance, call path, method id, local,
    base, base type, field). A way through a block is (events, env,
    returned): branches fork, a loop runs zero times or once, a `return`
    skips the rest of its method (or ends the path in the entry), and a
    call inlines each target at a depth below the limit, after completing
    without a body when recursion cuts one. An allocation writes its local
    first; a call's result local is written when it completes.
    """
    cha = build_cha_graph(p, entry) if mode.uses_cha else None
    pts = solve(p, pa_entry_points(p)) if mode.uses_pts else None
    ctx = DetectionContext(p, mode, bud, cha=cha, pts=pts)
    h = ctx.hierarchy

    def event(st, m, call_path, prov, kind, local=None, base=None, base_type=None, field=None):
        own = st.provenance if st.provenance is not Provenance.BASE else prov
        return (kind, st.pos, own, call_path, m.id, local, base, base_type, field)

    def assign(st, m, call_path, prov, env, local):
        """The local write `st` makes and the env after it."""
        rule = type_rule(st, h)
        return event(st, m, call_path, prov, LV, local=local), (env if rule is None else apply_rule(rule, env, h))

    def targets(st) -> list:
        if isinstance(st, VirtualCall):
            return resolve_call(st, ctx)[0]
        if isinstance(st, AllocAssign):
            ctor = h.constructor_of(st.cls, len(st.args))
            return [] if ctor is None else [ctor]
        return [resolve_static(h, st)]

    def block(stmts, m, call_path, prov, stack, env) -> list:
        ways = [((), env, False)]
        for st in stmts:
            ways = [
                (evs + more, env2, returned2)
                for evs, env1, returned in ways
                for more, env2, returned2 in ([((), env1, True)] if returned else
                                              statement(st, m, call_path, prov, stack, env1))
            ]
        return ways

    def statement(st, m, call_path, prov, stack, env) -> list:
        if isinstance(st, If):
            return (block(st.then_body, m, call_path, prov, stack, env)
                    + block(st.else_body, m, call_path, prov, stack, env))
        if isinstance(st, While):
            return [((), env, False)] + block(st.body, m, call_path, prov, stack, env)
        if isinstance(st, Return):
            return [((), env, True)]
        if isinstance(st, FieldStore):
            base_type = env.get(st.base)
            hit = h.field_of(base_type, st.field)
            field = (hit[0], st.field, hit[1]) if hit is not None else None
            return [((event(st, m, call_path, prov, IFR, base=st.base, base_type=base_type, field=field),),
                     env, False)]
        if isinstance(st, ArrayStore):
            return [((event(st, m, call_path, prov, AR, base=st.base, base_type=env.get(st.base)),), env, False)]
        if isinstance(st, StaticStore):
            return [((event(st, m, call_path, prov, SFR, local=st.field),), env, False)]
        if not isinstance(st, (VirtualCall, StaticCall, AllocAssign)):
            ev, env = assign(st, m, call_path, prov, env, st.target)
            return [((ev,), env, False)]
        before: tuple = ()
        if isinstance(st, AllocAssign):
            ev, env = assign(st, m, call_path, prov, env, st.target)
            before = (ev,)
        after, env_after = (), env
        if getattr(st, "result", None) is not None:
            ev, env_after = assign(st, m, call_path, prov, env, st.result)
            after = (ev,)
        alts = targets(st)
        if len(call_path) >= bud.depth_limit:
            alts = []
        entered = [t for t in alts if t.id not in stack]
        ways = [(before + after, env_after, False)] if len(entered) < len(alts) or not alts else []
        hop = (m.id, m.display, st.pos, st.provenance)
        own = st.provenance if st.provenance is not Provenance.BASE else prov
        for t in entered:
            body_env = initial_env(t, [operand_type(a, env) for a in st.args])
            for evs, _, _ in block(t.body, t, call_path + (hop,), own, stack | {t.id}, body_env):
                ways.append((before + evs + after, env_after, False))
        return ways

    paths = block(entry.body, entry, (), Provenance.BASE, frozenset({entry.id}), initial_env(entry))
    return [_collapsed(evs) for evs, _, _ in paths]


def _collapsed(events) -> list:
    """Back-to-back same-side writes to one local keep only the last."""
    out: list = []
    for ev in events:
        if out and ev[0] == LV and out[-1][0] == LV and ev[2] is out[-1][2] and ev[4:6] == out[-1][4:6]:
            out[-1] = ev
        else:
            out.append(ev)
    return out


def walked_paths(p, entry, mode: Mode, bud) -> list[list[tuple]]:
    """`enumerate_write_paths`'s paths as `reference_paths` spells them."""
    return [
        [(ev.kind, ev.pos, ev.provenance, ev.call_path, ev.method_id,
          ev.local if ev.kind != SFR else ev.field_name, ev.base, ev.base_type, ev.field) for ev in path]
        for path in enumerate_write_paths(p, entry, bud, mode)
    ]


def assert_walk_matches_recursion(p, entry, mode: Mode, bud) -> int:
    """The walk's paths equal the recursive enumerator's; returns their number."""
    walked = walked_paths(p, entry, mode, bud)
    assert walked == reference_paths(p, entry, mode, bud)
    return len(walked)


# Calls and an allocation that are the last op of their block, as the walk
# sees them: the last op of a method (`Fast.go` and `Slow.go`, which call
# each other through a field until recursion cuts them), of an `if` arm
# (`Box.put`), of a `while` body (`Box.spin`) and of the entry (`Main.main`);
# an allocation as the last op (`Box.fresh`, and `put`'s else arm), whose
# constructor returns from inside an `if`; a last call with a result local
# (`Box.res`), whose callee returns from inside an `if`; a last call in a
# method called with a result local (`Box.relay`); and a chain of last calls
# (`Chain.c0` to `Chain.c6`) that the depth limit cuts. `Box.fresh` binds
# `s`, which `Main.main` types otherwise and writes through after the call.
LAST_CALLS = (
    "interface Step {\n  method go(v);\n}\n"
    "class Fast implements Step {\n  field n: Step;\n"
    "  method go(v) {\n    Chain::g = 8 @L;\n    s = this.n;\n    call s.go(v);\n  }\n}\n"
    "class Slow implements Step {\n  field n: Step;\n"
    "  method go(v) {\n    Chain::g = 9 @R;\n    s = this.n;\n    call s.go(v);\n  }\n}\n"
    "class Chain {\n  field static g: int;\n"
    + "".join(f"  static method c{i}() {{\n    Chain::g = {i};\n    call Chain::c{i + 1}();\n  }}\n" for i in range(6))
    + "  static method c6() {\n    Chain::g = 6 @R;\n  }\n}\n"
    "class Box {\n  field v: int;\n"
    "  ctor(x) {\n    this.v = x;\n    if x {\n      return;\n    }\n    this.v = 2 @R;\n  }\n"
    "  method put(x) {\n    this.v = x @L;\n    if x {\n      call Chain::c3();\n    } else {\n"
    "      b = new Box(x);\n    }\n  }\n"
    "  method spin(x) {\n    while x {\n      call this.put(x);\n    }\n  }\n"
    "  method get(x) {\n    if x {\n      this.v = 3 @L;\n      return x;\n    }\n    this.v = 4 @R;\n  }\n"
    "  method res(x) {\n    this.v = 5;\n    r = this.get(x);\n  }\n"
    "  method relay(x) {\n    this.v = 6;\n    call this.spin(x);\n  }\n"
    "  method fresh(x) {\n    Chain::g = 7 @L;\n    s = new Box(x);\n  }\n}\n"
    "class Main {\n  field step: Step;\n"
    "  public static method main() {\n    c = 1;\n    s = new Fast();\n    b = new Box(c) @R;\n"
    "    call b.spin(c);\n    call b.res(c) @L;\n    q = b.relay(c) @R;\n    call b.fresh(c) @R;\n"
    "    s.n = s @L;\n    m = new Main();\n    f = new Fast();\n"
    "    m.step = f;\n    t = m.step;\n    call t.go(c) @L;\n    call Chain::c0() @R;\n  }\n}\n"
)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_last_calls_match_the_recursive_enumerator(mode):
    p = parse_source(LAST_CALLS)
    for ref in ("Main.main", "Box.spin", "Box.put", "Box.res", "Box.relay", "Box.fresh", "Fast.go", "Chain.c0"):
        entry = find_method(p, ref)
        for bud in (budget(), budget(depth_limit=3), budget(depth_limit=1)):
            assert count_tree(p, entry, bud, mode).exceeds is None
            assert assert_walk_matches_recursion(p, entry, mode, bud) >= 1


def test_walk_matches_the_recursive_enumerator_on_the_seed_range():
    bud = budget(**PROP_BUDGET)
    ran = 0
    for _, _, p, entry in seed_range():
        if entry is None:
            continue
        for mode in ALL_MODES:
            if count_tree(p, entry, bud, mode).exceeds is None:
                assert_walk_matches_recursion(p, entry, mode, bud)
                ran += 1
    assert ran >= 400


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
    ran = 0
    for _, _, p, entry in seed_range():
        if entry is None:
            continue
        assert_graph_matches_reference(p, entry)
        assert_graph_matches_reference(p, find_method(p, "Main.main"))
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
    assert_walk_matches_recursion(p, entry, mode, budget())
    for bud in (budget(), budget(fuel=20, path_cap=2)):
        assert_matches_reference(p, entry, mode, bud)


# ---------------------------------------------------------------------------
# The points-to solve against the solver it replaced


def assert_solve_matches_reference(p) -> None:
    got, ref = solve(p), reference_solve(p)
    assert got.pts == ref.pts
    g, r = got.callgraph, ref.callgraph
    assert (g.roots, g.nodes, g.sites) == (r.roots, r.nodes, r.sites)
    assert (got.unresolved, got.sites) == (ref.unresolved, ref.sites)
    assert dump_pts(got) == dump_pts(ref)


def test_solve_matches_reference_on_the_bundled_corpus_and_the_seed_range():
    # The marks set only provenance, which the solve does not read.
    programs = [scenario_units(load_bundled(name))[0] for name in BUNDLED]
    programs += [p for _, _, p, _ in seed_range()]
    for p in programs:
        assert_solve_matches_reference(p)
    assert len(programs) == 206


@pytest.mark.parametrize("workload", sorted(WORKLOAD_DIGESTS))
def test_solve_matches_reference_on_the_bench_workloads(workload, tmp_path, monkeypatch):
    monkeypatch.delenv("OA_SEED", raising=False)  # as the benchmark builds them
    wl = _bench_workloads().build_workload(workload, tmp_path / "in", WORKLOAD_SEED)
    for spec in wl.scenarios:
        assert_solve_matches_reference(scenario_program(load_scenario(spec.directory)))
    assert wl.scenarios


# 100 allocations, each stored through field `f` of the next, walked by a
# loop whose local grows one site per round: difference propagation sends
# each site once down each edge, and `m` loads into its own base and passes
# its receiver, so a base's set grows while its uses are applied.
LINKED_LIST = (
    "class A {\n  field f: A;\n  field g: A;\n"
    "  method m(o) {\n    this.g = o;\n    x = o.f;\n    x = x.f;\n    call x.m(x);\n  }\n}\n"
    "class Main {\n  public static method main() {\n    n0 = new A();\n"
    + "".join(f"    n{i} = new A();\n    n{i}.f = n{i - 1};\n" for i in range(1, 100))
    + "    p = n99;\n    c = 1;\n    while c {\n      p = p.f;\n      p.g = p;\n      t = p.g;\n"
    "      call p.m(t);\n    }\n  }\n}\n"
)


def test_solve_matches_reference_on_large_sets():
    p = parse_source(LINKED_LIST)
    assert_solve_matches_reference(p)
    r = solve(p)
    assert len(r.pts[("l", "Main.main/0", "p")]) == 100
    assert len(r.pts[("l", "A.m/1", "x")]) == 99  # every node but n99, which no `f` holds
