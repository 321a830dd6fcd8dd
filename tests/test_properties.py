from __future__ import annotations

import pytest

from conftest import budget, is_closed
from oadetect.cha import build_cha_graph
from oadetect.engine import Mode, Verdict, detect
from oadetect.frontend import parse_source, pretty_print
from oadetect.harness import load_bundled, scenario_units
from oadetect.interp import interpret
from oadetect.mir import (
    Provenance,
    all_methods,
    implementers_of,
    iter_stmts,
    subtype_of,
)
from oadetect.pointsto import MISS, pts_of, solve
from oadetect.randprog import default_seed, generate_program
from oadetect.reporting import outcome_record

N_PROGRAMS = 100
PROP_BUDGET = dict(fuel=20_000, path_cap=512)


def _seeds(offset: int, count: int = N_PROGRAMS):
    base = default_seed() + offset
    return [base + i for i in range(count)]


# ---------------------------------------------------------------------------
# Static-analysis soundness against the concrete oracle


def test_points_to_and_hierarchy_graph_soundness():
    binding_violations = []
    dispatch_violations = []
    precision_violations = []
    for seed in _seeds(0):
        gen = generate_program(seed, mkref=False)
        p, main = gen.program, gen.main
        result = solve(p)
        cha = build_cha_graph(p, main)
        trace = interpret(p, main, step_limit=3000)

        for mid, local, site in trace.bindings:
            got = pts_of(result, (mid, local))
            if got is MISS or site not in got:
                binding_violations.append((seed, mid, local, site))

        cha_edges = {(e.site, e.target) for e in cha.edges}
        for pos, target in trace.dispatches:
            if (pos, target) not in cha_edges:
                dispatch_violations.append((seed, pos, target))

        pa_sites = {e.site for e in result.callgraph.edges}
        for pos in pa_sites:
            pa_targets = set(result.callgraph.targets_at(pos))
            cha_targets = set(cha.targets_at(pos))
            if cha.has_site(pos) and not pa_targets <= cha_targets:
                precision_violations.append((seed, pos, pa_targets - cha_targets))

    assert binding_violations == []
    assert dispatch_violations == []
    assert precision_violations == []


def test_solver_fixpoint_and_determinism_on_random_programs():
    for seed in _seeds(1000, 20):
        p = generate_program(seed, mkref=False).program
        a = solve(p)
        b = solve(p)
        assert a.pts == b.pts
        assert a.callgraph.edges == b.callgraph.edges
        assert is_closed(p, a)


def test_subtype_laws_on_random_programs():
    for seed in _seeds(2000, 20):
        p = generate_program(seed, mkref=False).program
        names = [c.name for c in p.classes] + [i.name for i in p.interfaces]
        for a in names:
            assert subtype_of(a, a, p)
            for b in names:
                for c in names:
                    if subtype_of(a, b, p) and subtype_of(b, c, p):
                        assert subtype_of(a, c, p)
                if subtype_of(a, b, p) and subtype_of(b, a, p):
                    assert a == b
        for t in names:
            assert implementers_of(t, p) == {
                c.name for c in p.classes if subtype_of(c.name, t, p)
            }


# ---------------------------------------------------------------------------
# Mode inclusion


def _conflict_keys(outcome):
    return {c.key for c in outcome.conflicts}


def _detect_pair(p, entry, modes):
    return {mode: detect(p, entry, mode, budget=budget(**PROP_BUDGET)) for mode in modes}


def test_precise_conflicts_within_hybrid_on_corpus():
    for name in ("fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy"):
        program, units = scenario_units(load_bundled(name))
        for _, entry in units:
            outs = _detect_pair(program, entry, (Mode.PA, Mode.HYBRID))
            if Verdict.TIMEOUT in {o.verdict for o in outs.values()}:
                continue
            assert _conflict_keys(outs[Mode.PA]) <= _conflict_keys(outs[Mode.HYBRID])


def test_precise_conflicts_within_hybrid_on_random_programs():
    checked = 0
    violations = []
    for i, seed in enumerate(_seeds(3000)):
        gen = generate_program(seed, mkref=(i % 2 == 0), mark_changes=True)
        if gen.entry is None:
            continue
        outs = _detect_pair(gen.program, gen.entry, (Mode.PA, Mode.HYBRID))
        if Verdict.TIMEOUT in {o.verdict for o in outs.values()}:
            continue
        checked += 1
        extra = _conflict_keys(outs[Mode.PA]) - _conflict_keys(outs[Mode.HYBRID])
        if extra:
            violations.append((seed, extra))
    assert violations == []
    assert checked >= 50  # the generator must leave enough analyzable programs


# ---------------------------------------------------------------------------
# Metamorphic transforms


ALL_MODES = (Mode.NOPA, Mode.PA, Mode.HYBRID)


def _swap_sides(program):
    for m in all_methods(program):
        for st in iter_stmts(m.body):
            if st.provenance is Provenance.LEFT:
                st.provenance = Provenance.RIGHT
            elif st.provenance is Provenance.RIGHT:
                st.provenance = Provenance.LEFT
    return program


def _erase_right(program):
    for m in all_methods(program):
        for st in iter_stmts(m.body):
            if st.provenance is Provenance.RIGHT:
                st.provenance = Provenance.BASE
    return program


CORPUS = ("fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy")


@pytest.mark.parametrize("name", CORPUS)
def test_side_swap_preserves_verdicts_and_mirrors_conflicts(name):
    for mode in ALL_MODES:
        program, units = scenario_units(load_bundled(name))
        _, entry = units[0]
        before = detect(program, entry, mode, budget=budget(**PROP_BUDGET))
        swapped_program, swapped_units = scenario_units(load_bundled(name))
        _swap_sides(swapped_program)
        after = detect(swapped_program, swapped_units[0][1], mode, budget=budget(**PROP_BUDGET))
        assert after.verdict is before.verdict
        assert _conflict_keys(after) == _conflict_keys(before)


@pytest.mark.parametrize("name", CORPUS)
def test_erasing_one_side_forces_false(name):
    for mode in ALL_MODES:
        program, units = scenario_units(load_bundled(name))
        entry = units[0][1]
        _erase_right(program)
        out = detect(program, entry, mode, budget=budget(**PROP_BUDGET))
        if out.verdict is Verdict.TIMEOUT:
            continue  # budget exhaustion says nothing about conflicts
        assert out.verdict is Verdict.FALSE


BLOCKABLE = {
    "fig1_simple": "Text.mir",
    "fig1_advanced": "Text.mir",
    "mkref": "TextR.mir",
}


@pytest.mark.parametrize("name", sorted(BLOCKABLE))
def test_intervening_base_write_removes_conflicts(name):
    s = load_bundled(name)
    for i, unit in enumerate(s.sources):
        if unit.path == BLOCKABLE[name]:
            assert "x = op();" in unit.text
            s.sources[i] = unit._replace(text=unit.text.replace("x = op();", "r.fixes = 0;"))
    program, units = scenario_units(s)
    entry = units[0][1]
    for mode in ALL_MODES:
        out = detect(program, entry, mode, budget=budget(**PROP_BUDGET))
        assert out.verdict is Verdict.FALSE, f"{name} under {mode.value}"


def test_side_swap_on_random_programs():
    for seed in _seeds(4000, 30):
        gen = generate_program(seed, mark_changes=True)
        if gen.entry is None:
            continue
        before = detect(gen.program, gen.entry, Mode.NOPA, budget=budget(**PROP_BUDGET))
        _swap_sides(gen.program)
        after = detect(gen.program, gen.entry, Mode.NOPA, budget=budget(**PROP_BUDGET))
        assert after.verdict is before.verdict
        assert _conflict_keys(after) == _conflict_keys(before)


def test_erasure_on_random_programs():
    for seed in _seeds(5000, 30):
        gen = generate_program(seed, mark_changes=True)
        if gen.entry is None:
            continue
        _erase_right(gen.program)
        out = detect(gen.program, gen.entry, Mode.NOPA, budget=budget(**PROP_BUDGET))
        if out.verdict is not Verdict.TIMEOUT:
            assert out.verdict is Verdict.FALSE


# ---------------------------------------------------------------------------
# Round trips and determinism


def test_pretty_print_round_trip_on_random_programs():
    for seed in _seeds(6000, 30):
        p = generate_program(seed, mkref=True).program
        text1 = pretty_print(p)
        text2 = pretty_print(parse_source(text1, path="gen.mir"))
        assert text1 == text2


def test_detect_deterministic_on_random_programs():
    quick = dict(fuel=4_000, path_cap=128)
    for seed in _seeds(7000, 15):
        gen = generate_program(seed, mark_changes=True)
        if gen.entry is None:
            continue
        for mode in ALL_MODES:
            a = detect(gen.program, gen.entry, mode, budget=budget(**quick))
            b = detect(gen.program, gen.entry, mode, budget=budget(**quick))
            assert outcome_record("u", mode, a) == outcome_record("u", mode, b)
