"""Differential test: `detect` against the per-path scan it replaced.

`engine.detect` scans each write once, as the enumerator appends it, and
undoes the scan on backtrack. The reference below is the original design:
it drains `enumerate_write_paths` and, for every completed path, walks back
from each changed write over all earlier events of the path. It is
quadratic per path and lives only here, as the oracle.
"""

from __future__ import annotations

import pytest

from conftest import ALL_MODES, NESTED_CALLS, RETURN_IN_BLOCKS, budget, load_scenario_program
from oadetect import engine
from oadetect.cha import build_cha_graph
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
from oadetect.mir import MirError, Position, Provenance, find_method
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
    for miss in res.missrefs:
        ctx.record_missref(miss)
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
