"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import annotate_missref_paths, budget, load_scenario_program
from oadetect.cha import build_cha_graph
from oadetect.cli import main
from oadetect.engine import Mode, Verdict, detect
from oadetect.harness import (
    ConfusionMatrix,
    bundled_corpus_dir,
    divergence_histogram,
    load_bundled,
    metrics,
    run_corpus,
    scenario_units,
    transitions,
)
from oadetect.interp import interpret
from oadetect.pointsto import MISS, pts_of, solve
from oadetect.randprog import default_seed, generate_program
from oadetect.reporting import build_reports, render_text
from oadetect.stats import wilcoxon_signed_rank
from test_harness import TRANSITION_CELLS, _transition_vectors
from test_properties import (
    PROP_BUDGET,
    _conflict_keys,
    _erase_right,
    _swap_sides,
)

T, F, TO = Verdict.TRUE, Verdict.FALSE, Verdict.TIMEOUT
ALL_MODES = (Mode.NOPA, Mode.PA, Mode.HYBRID)


@contextmanager
def criterion(number: int, name: str, limit_s: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f}s, limit {limit_s}s"
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_motivating_example_fidelity():
    with criterion(1, "motivating-example fidelity", limit_s=1.0):
        program, entry = load_scenario_program("fig1_simple")
        for mode in ALL_MODES:
            out = detect(program, entry, mode, budget=budget())
            assert out.verdict is T, mode
            (report,) = build_reports(out, entry)
            text = render_text(report)
            assert "execution of line 8 overrides 10" in text
            assert "  at Text.generateReport():8" in text
            assert "  at ReportSimple.countDupWords():4" in text
            assert "  at Text.generateReport():10" in text
            assert "  at ReportSimple.countDupWhiteSpace():9" in text

        program, entry = load_scenario_program("fig1_advanced")
        assert detect(program, entry, Mode.NOPA, budget=budget()).verdict is T
        assert detect(program, entry, Mode.PA, budget=budget()).verdict is F


def test_criterion_2_reflection_unsoundness():
    with criterion(2, "reflection miss-reference reproduction", limit_s=1.0):
        program, entry = load_scenario_program("mkref")
        assert detect(program, entry, Mode.NOPA, budget=budget()).verdict is T
        pa = detect(program, entry, Mode.PA, budget=budget())
        assert pa.verdict is F
        assert len(pa.missrefs) >= 1
        assert detect(program, entry, Mode.HYBRID, budget=budget()).verdict is T

        run = run_corpus([load_bundled("mkref")], [Mode.NOPA, Mode.PA], budget=budget())
        (enriched,) = annotate_missref_paths(run)
        assert enriched["on_conflict_path"] is True


def test_criterion_3_timeout_direction():
    with criterion(3, "timeout direction on deep hierarchies", limit_s=5.0):
        program, entry = load_scenario_program("deep_hierarchy")
        # Path cap lifted once so the statement fuel is the binding budget.
        unbounded = detect(program, entry, Mode.NOPA, budget=budget(fuel=100_000, path_cap=10**9))
        assert unbounded.verdict is TO
        assert unbounded.stats.visited > 100_000
        # Determinism at the bundled budget: identical reruns, byte for byte.
        first = detect(program, entry, Mode.NOPA, budget=budget(fuel=100_000))
        again = detect(program, entry, Mode.NOPA, budget=budget(fuel=100_000))
        assert first.verdict is TO and again.verdict is TO
        assert first.stats.visited == again.stats.visited
        pa = detect(program, entry, Mode.PA, budget=budget(fuel=100_000))
        assert pa.verdict is F
        assert pa.stats.visited < 100


def test_criterion_4_metrics_reproduction():
    with criterion(4, "accuracy metrics from confusion counts"):
        conservative = metrics(ConfusionMatrix(8, 9, 55, 21))
        for got, want in zip(
            (conservative.precision, conservative.recall, conservative.accuracy, conservative.f1),
            (0.47, 0.28, 0.68, 0.35),
        ):
            assert got == pytest.approx(want, abs=0.005)
        precise = metrics(ConfusionMatrix(2, 5, 59, 27))
        for got, want in zip(
            (precise.precision, precise.recall, precise.accuracy, precise.f1),
            (0.29, 0.07, 0.66, 0.11),
        ):
            assert got == pytest.approx(want, abs=0.005)


def test_criterion_5_transitions_and_histogram():
    with criterion(5, "verdict transitions and divergence histogram"):
        a, b = _transition_vectors(TRANSITION_CELLS)
        table = transitions(a, b)
        assert table.cell(T, T) == 234
        assert table.cell(T, F) == 39
        assert table.cell(TO, T) == 9
        assert table.cell(TO, F) == 24
        assert table.cell(TO, TO) == 2
        assert table.cell(F, F) == 612
        assert table.cell(F, T) == 63

        units = []
        for i, divergences in enumerate([1] * 20 + [2] * 5 + [4] + [5] * 2 + [6] * 2 + [9]):
            units.extend((f"p{i}", T, F) for _ in range(divergences))
            units.append((f"p{i}", F, F))
        assert divergence_histogram(units) == {1: 20, 2: 5, 4: 1, 5: 2, 6: 2, 9: 1}


def test_criterion_6_points_to_soundness():
    with criterion(6, "points-to and hierarchy-graph soundness", limit_s=60.0):
        base = default_seed()
        violations = 0
        for seed in range(base, base + 100):
            gen = generate_program(seed, mkref=False)
            p, main_method = gen.program, gen.main
            result = solve(p)
            cha = build_cha_graph(p, main_method)
            trace = interpret(p, main_method, step_limit=3000)

            for mid, local, site in trace.bindings:
                got = pts_of(result, (mid, local))
                if got is MISS or site not in got:
                    violations += 1
            cha_edges = {(e.site, e.target) for e in cha.edges}
            for pos, target in trace.dispatches:
                if (pos, target) not in cha_edges:
                    violations += 1
            for pos in {e.site for e in result.callgraph.edges}:
                if cha.has_site(pos):
                    if not set(result.callgraph.targets_at(pos)) <= set(cha.targets_at(pos)):
                        violations += 1
        assert violations == 0


def test_criterion_7_mode_inclusion():
    with criterion(7, "precise conflicts within hybrid"):
        base = default_seed()
        violations = 0
        checked = 0

        def check(program, entry):
            nonlocal violations, checked
            pa = detect(program, entry, Mode.PA, budget=budget(**PROP_BUDGET))
            hybrid = detect(program, entry, Mode.HYBRID, budget=budget(**PROP_BUDGET))
            if TO in (pa.verdict, hybrid.verdict):
                return
            checked += 1
            if not _conflict_keys(pa) <= _conflict_keys(hybrid):
                violations += 1

        for name in ("fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy"):
            program, units = scenario_units(load_bundled(name))
            for _, entry in units:
                check(program, entry)
        for i, seed in enumerate(range(base + 3000, base + 3100)):
            gen = generate_program(seed, mkref=(i % 2 == 0), mark_changes=True)
            if gen.entry is not None:
                check(gen.program, gen.entry)
        assert violations == 0
        assert checked >= 50


def test_criterion_8_metamorphic_suite():
    with criterion(8, "metamorphic transforms over the corpus"):
        corpus = ("fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy")
        # Intervening base write removes every conflict.
        for name, path in (
            ("fig1_simple", "Text.mir"),
            ("fig1_advanced", "Text.mir"),
            ("mkref", "TextR.mir"),
        ):
            s = load_bundled(name)
            for i, unit in enumerate(s.sources):
                if unit.path == path:
                    s.sources[i] = unit._replace(text=unit.text.replace("x = op();", "r.fixes = 0;"))
            program, units = scenario_units(s)
            for mode in ALL_MODES:
                assert detect(program, units[0][1], mode, budget=budget(**PROP_BUDGET)).verdict is F

        # Swapping the sides preserves verdicts and mirrors conflicts.
        for name in corpus:
            for mode in ALL_MODES:
                program, units = scenario_units(load_bundled(name))
                before = detect(program, units[0][1], mode, budget=budget(**PROP_BUDGET))
                swapped, sunits = scenario_units(load_bundled(name))
                _swap_sides(swapped)
                after = detect(swapped, sunits[0][1], mode, budget=budget(**PROP_BUDGET))
                assert after.verdict is before.verdict
                assert _conflict_keys(after) == _conflict_keys(before)

        # Erasing one side's changes leaves nothing to conflict with.
        for name in corpus:
            program, units = scenario_units(load_bundled(name))
            _erase_right(program)
            for mode in ALL_MODES:
                out = detect(program, units[0][1], mode, budget=budget(**PROP_BUDGET))
                if out.verdict is not TO:
                    assert out.verdict is F


def test_criterion_9_deterministic_corpus_runs(tmp_path, capsys):
    with criterion(9, "byte-identical corpus reruns"):
        outputs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            code = main(
                [
                    "corpus",
                    "--root", str(bundled_corpus_dir()),
                    "--modes", "nopa,pa,hybrid",
                    "--reps", "3",
                    "--fuel", "10000",
                    "--deterministic",
                    "--out", str(out_dir),
                ]
            )
            capsys.readouterr()
            assert code == 1
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}
            )
        assert set(outputs[0]) == {
            "records.jsonl", "confusion.csv", "metrics.csv",
            "transitions.csv", "histogram.csv", "timing.csv",
        }
        assert outputs[0] == outputs[1]


def test_criterion_10_signed_rank_exactness():
    with criterion(10, "signed-rank exact p-values"):
        res = wilcoxon_signed_rank([(d, 0.0) for d in (+1, -2, +3, -4, +5)])
        assert res.w == 6

        rng = random.Random(default_seed())
        for _ in range(30):
            n = rng.randint(5, 10)
            diffs = [rng.choice([-1, 1]) * rng.randint(1, 8) for _ in range(n)]
            got = wilcoxon_signed_rank([(d, 0.0) for d in diffs])
            # Independent oracle: literal enumeration of every sign assignment.
            from oadetect.stats import _ranks

            ranks = _ranks([abs(d) for d in diffs])
            total = sum(ranks)
            w = min(
                sum(r for r, d in zip(ranks, diffs) if d > 0),
                sum(r for r, d in zip(ranks, diffs) if d < 0),
            )
            hits = sum(
                1
                for signs in itertools.product((0, 1), repeat=n)
                if min(
                    (wp := sum(r for r, s in zip(ranks, signs) if s)),
                    total - wp,
                )
                <= w + 1e-9
            )
            assert got.w == pytest.approx(w)
            assert got.p_value == pytest.approx(min(1.0, hits / 2**n))
