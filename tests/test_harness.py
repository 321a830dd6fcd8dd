from __future__ import annotations

import json
from statistics import mean

import pytest

from conftest import ALL_MODES, annotate_missref_paths, budget
from test_engine import TWO_INTERFACES
from oadetect import harness
from oadetect.engine import AnalysisBudget, Mode, Verdict, as_nopa
from oadetect.frontend import SourceUnit
from oadetect.harness import (
    ConfusionMatrix,
    Scenario,
    TimingRow,
    confusion,
    divergence_histogram,
    load_bundled,
    metrics,
    run_corpus,
    run_scenario,
    timing_summary,
    transitions,
)
from oadetect.mir import MirError

T, F, TO = Verdict.TRUE, Verdict.FALSE, Verdict.TIMEOUT


def _vector(layout):
    """Expand [(verdict, truth, count), ...] into outcome/truth dicts."""
    outcomes, truths = {}, {}
    i = 0
    for verdict, truth, count in layout:
        for _ in range(count):
            outcomes[f"u{i}"] = verdict
            truths[f"u{i}"] = truth
            i += 1
    return outcomes, truths


CONSERVATIVE_COUNTS = [(T, True, 8), (T, False, 9), (F, False, 55), (F, True, 21), (TO, False, 6)]
PRECISE_COUNTS = [(T, True, 2), (T, False, 5), (F, False, 59), (F, True, 27)]


def test_confusion_conservative_vector():
    cm = confusion(*_vector(CONSERVATIVE_COUNTS))
    assert (cm.tp, cm.fp, cm.tn, cm.fn, cm.excluded) == (8, 9, 55, 21, 6)
    assert cm.total == 93


def test_confusion_precise_vector():
    cm = confusion(*_vector(PRECISE_COUNTS))
    assert (cm.tp, cm.fp, cm.tn, cm.fn, cm.excluded) == (2, 5, 59, 27, 0)


def test_confusion_all_correct_toy():
    cm = confusion(*_vector([(T, True, 2), (F, False, 2)]))
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 0, 2, 0)


def test_confusion_unlabeled_unit_errors():
    with pytest.raises(MirError, match="ground-truth"):
        confusion({"u": T}, {"u": None})


def test_metrics_conservative():
    ms = metrics(ConfusionMatrix(8, 9, 55, 21))
    assert ms.precision == pytest.approx(0.47, abs=0.005)
    assert ms.recall == pytest.approx(0.28, abs=0.005)
    assert ms.accuracy == pytest.approx(0.68, abs=0.005)
    assert ms.f1 == pytest.approx(0.35, abs=0.005)
    rounded = {k: round(getattr(ms, k), 2) for k in ("precision", "recall", "accuracy", "f1")}
    assert rounded == {"precision": 0.47, "recall": 0.28, "accuracy": 0.68, "f1": 0.35}


def test_metrics_precise():
    ms = metrics(ConfusionMatrix(2, 5, 59, 27))
    assert ms.precision == pytest.approx(0.29, abs=0.005)
    assert ms.recall == pytest.approx(0.07, abs=0.005)
    assert ms.accuracy == pytest.approx(0.66, abs=0.005)
    assert ms.f1 == pytest.approx(0.11, abs=0.005)


def test_metrics_undefined_flags():
    ms = metrics(ConfusionMatrix(0, 0, 10, 0))
    assert ms.precision is None and ms.recall is None
    assert ms.accuracy == 1.0


TRANSITION_CELLS = {
    (T, T): 234,
    (T, F): 39,
    (TO, T): 9,
    (TO, F): 24,
    (TO, TO): 2,
    (F, F): 612,
    (F, T): 63,
}


def _transition_vectors(cells):
    a, b = {}, {}
    i = 0
    for (va, vb), count in cells.items():
        for _ in range(count):
            a[f"u{i}"] = va
            b[f"u{i}"] = vb
            i += 1
    return a, b


def test_transitions_reference_cells():
    a, b = _transition_vectors(TRANSITION_CELLS)
    table = transitions(a, b)
    for cell, count in TRANSITION_CELLS.items():
        assert table.cell(*cell) == count
    assert table.cell(T, TO) == 0
    assert table.cell(F, TO) == 0


def test_transitions_marginals_match_vector_totals():
    a, b = _transition_vectors(TRANSITION_CELLS)
    table = transitions(a, b)
    for v in (T, F, TO):
        assert sum(table.cell(v, w) for w in (T, F, TO)) == sum(1 for x in a.values() if x is v)
        assert sum(table.cell(w, v) for w in (T, F, TO)) == sum(1 for x in b.values() if x is v)


def test_transitions_identical_vectors_diagonal():
    a = {"u1": T, "u2": F, "u3": TO}
    table = transitions(a, dict(a))
    assert table.cell(T, T) == 1 and table.cell(F, F) == 1 and table.cell(TO, TO) == 1
    assert sum(table.counts.values()) == 3


def test_transitions_single_unit():
    table = transitions({"u": T}, {"u": F})
    assert table.counts == {(T, F): 1}


def test_transitions_unit_set_mismatch():
    with pytest.raises(MirError, match="same unit set"):
        transitions({"a": T}, {"b": T})


def test_histogram_reference_distribution():
    units = []
    per_project = [1] * 20 + [2] * 5 + [4] + [5] * 2 + [6] * 2 + [9]
    for i, divergences in enumerate(per_project):
        for k in range(divergences):
            units.append((f"p{i}", T, F))
        units.append((f"p{i}", F, F))  # an agreeing unit per project
    assert divergence_histogram(units) == {1: 20, 2: 5, 4: 1, 5: 2, 6: 2, 9: 1}


def test_histogram_all_agreeing_empty():
    assert divergence_histogram([("p", T, T), ("p", TO, TO)]) == {}


def test_histogram_timeout_counts_as_divergence():
    assert divergence_histogram([("p", TO, F), ("p", TO, T), ("p", T, F)]) == {3: 1}


def _winner_counts(rows) -> dict:
    """Units per mode with the lowest mean, a tie going to the first mode by name."""
    by_unit: dict = {}
    for r in rows:
        by_unit.setdefault(r.unit, {})[r.mode] = r.mean_ms
    counts: dict = {}
    for means in by_unit.values():
        if len(means) > 1:
            winner = min(sorted(means, key=lambda mo: mo.value), key=lambda mo: means[mo])
            counts[winner] = counts.get(winner, 0) + 1
    return counts


def test_timing_winner_and_grand_means():
    samples = {
        "u1": {Mode.NOPA: [2.0, 2.0, 2.0], Mode.PA: [3.0, 3.0, 3.0]},
    }
    assert _winner_counts(timing_summary(samples)) == {Mode.NOPA: 1}

    asymmetric = {
        "u1": {Mode.NOPA: [1.0], Mode.PA: [100.0]},
        "u2": {Mode.NOPA: [2.0], Mode.PA: [1.0]},
    }
    rows = timing_summary(asymmetric)
    assert _winner_counts(rows) == {Mode.NOPA: 1, Mode.PA: 1}
    assert mean(r.mean_ms for r in rows if r.mode is Mode.NOPA) == pytest.approx(1.5)
    assert mean(r.mean_ms for r in rows if r.mode is Mode.PA) == pytest.approx(50.5)


def test_timing_stddev_flag():
    (row,) = timing_summary({"u": {Mode.NOPA: [10.0, 10.0, 14.0]}})
    assert row.flagged
    steady = timing_summary({"u": {Mode.NOPA: [10.0, 10.0, 10.0]}})
    assert not steady[0].flagged


def test_timing_rows_of_untimed_samples_are_zeros_and_timed_rows_keep_their_statistics(monkeypatch):
    import statistics

    samples = {
        "u1": {Mode.NOPA: [0.0, 0.0, 0.0], Mode.PA: [1.25, 1.5, 4.0]},
        "u2": {Mode.NOPA: [2.0, 2.0, 2.125], Mode.PA: [0.0, 0.0, 0.0]},
    }
    want = []
    for unit, per_mode in samples.items():
        for mode, values in per_mode.items():
            m, sd = statistics.mean(values), statistics.stdev(values)
            want.append(TimingRow(unit, mode, m, sd, m > 0 and sd / m > 0.10))
    asked = []

    def spy(real):
        def function(values):
            asked.append(list(values))
            return real(values)
        return function

    monkeypatch.setattr(statistics, "mean", spy(statistics.mean))
    monkeypatch.setattr(statistics, "stdev", spy(statistics.stdev))
    rows = timing_summary(samples)
    assert rows == want and [type(x) for r in rows for x in (r.mean_ms, r.stddev_ms)] == [float] * 8
    assert asked == [[1.25, 1.5, 4.0]] * 2 + [[2.0, 2.0, 2.125]] * 2  # no statistics for the zeros


def test_timing_unequal_reps_rejected():
    with pytest.raises(MirError, match="repetition"):
        timing_summary({"u": {Mode.NOPA: [1.0], Mode.PA: [1.0, 2.0]}})


# ---------------------------------------------------------------------------
# Corpus runs


def verdicts(run, mode: Mode) -> dict:
    return {u: per_mode[mode].verdict for u, per_mode in run.by_unit().items() if mode in per_mode}


def test_run_corpus_counts():
    corpus = [load_bundled("fig1_simple"), load_bundled("fig1_advanced")]
    run = run_corpus(corpus, [Mode.NOPA, Mode.PA], budget=budget(), reps=3)
    assert run.errors == []
    assert len(run.results) == 4  # 2 scenarios x 2 modes, one unit each
    assert sum(len(r.timings_ms) for r in run.results) == 12


def test_by_unit_maps_each_unit_to_its_result_per_mode_in_run_order():
    corpus = [load_bundled("fig1_simple"), load_bundled("fig1_advanced")]
    run = run_corpus(corpus, [Mode.PA, Mode.NOPA], budget=budget())
    table = run.by_unit()
    assert list(table) == ["fig1_simple", "fig1_advanced"]
    for unit, per_mode in table.items():
        assert list(per_mode) == [Mode.PA, Mode.NOPA]
        assert all(r.unit == unit and r.mode is mode for mode, r in per_mode.items())
    assert [r for per_mode in table.values() for r in per_mode.values()] == run.results


def test_run_corpus_rejects_a_repeated_unit_id():
    twin = load_bundled("fig1_advanced")._replace(id="fig1_simple")
    run = run_corpus([load_bundled("fig1_simple"), twin], [Mode.NOPA], budget=budget())
    assert run.errors == [("fig1_simple", "unit id 'fig1_simple' is already taken by an earlier scenario")]
    (result,) = run.results
    assert result.verdict is T and result.ground_truth is True


def test_run_scenario_timings_are_detects_elapsed_times():
    timed = run_scenario(load_bundled("fig1_simple"), [Mode.PA], budget=AnalysisBudget(wall_clock=30.0), reps=3)
    (result,) = timed
    assert len(result.timings_ms) == 3 and result.timings_ms[-1] == result.outcome.stats.elapsed_ms
    (untimed,) = run_scenario(load_bundled("fig1_simple"), [Mode.PA], budget=budget(), reps=2)
    assert untimed.timings_ms == [0.0, 0.0]


# `hybrid` differs from `pa` only at a virtual site with no points-to
# targets, where both log an unresolved-call miss; a unit whose `pa` outcome
# holds none gives `hybrid` that outcome without a second `detect`.


@pytest.fixture
def detect_calls(monkeypatch):
    """The mode of each `detect` call `run_scenario` makes, in call order."""
    calls = []
    real = harness.detect

    def counted(program, entry, mode, **kwargs):
        calls.append(mode)
        return real(program, entry, mode, **kwargs)

    monkeypatch.setattr(harness, "detect", counted)
    return calls


def test_hybrid_takes_pas_outcome_where_pa_resolves_every_call(detect_calls):
    nopa, pa, hybrid = run_scenario(load_bundled("fig1_simple"), list(ALL_MODES), budget=budget())
    assert detect_calls == [Mode.PA]  # pa runs first; hybrid and nopa take its outcome
    assert (nopa.mode, pa.mode, hybrid.mode) == ALL_MODES
    assert hybrid.outcome is pa.outcome and hybrid.verdict is pa.verdict is T


def test_hybrid_runs_its_own_detect_where_pa_leaves_a_call_unresolved(detect_calls):
    nopa, pa, hybrid = run_scenario(load_bundled("mkref"), list(ALL_MODES), budget=budget())
    assert detect_calls == [Mode.PA, Mode.HYBRID]
    assert "unresolved-call" in {m.reason for m in pa.outcome.missrefs}
    assert (pa.verdict, hybrid.verdict) == (F, T)


# A points-to run whose every call target list and heap comparison is the
# one `nopa` makes gives `nopa` its outcome, less points-to sets and
# miss-references.


def test_nopa_takes_pas_outcome_where_pa_makes_nopas_choices(detect_calls):
    nopa, pa = run_scenario(load_bundled("fig1_simple"), [Mode.NOPA, Mode.PA], budget=budget())
    assert detect_calls == [Mode.PA] and (nopa.mode, pa.mode) == (Mode.NOPA, Mode.PA)
    assert pa.outcome.stats.nopa_choices and nopa.outcome == as_nopa(pa.outcome)
    assert nopa.timings_ms is pa.timings_ms and nopa.verdict is pa.verdict is T


def test_nopa_takes_hybrids_outcome_where_only_hybrid_makes_nopas_choices(detect_calls):
    nopa, pa, hybrid = run_scenario(load_bundled("mkref"), list(ALL_MODES), budget=budget())
    assert detect_calls == [Mode.PA, Mode.HYBRID]
    assert not pa.outcome.stats.nopa_choices and hybrid.outcome.stats.nopa_choices
    assert nopa.outcome == as_nopa(hybrid.outcome) and nopa.verdict is T
    assert hybrid.outcome.missrefs and nopa.outcome.missrefs == []
    assert all(c.overriding.base_pts is None is c.overridden.base_pts for c in nopa.outcome.conflicts)


def test_nopa_runs_its_own_detect_where_a_call_resolves_otherwise(detect_calls):
    # `pa` resolves each of fig1_advanced's two calls to one of CHA's two targets.
    nopa, pa, hybrid = run_scenario(load_bundled("fig1_advanced"), list(ALL_MODES), budget=budget())
    assert detect_calls == [Mode.PA, Mode.NOPA]
    assert not pa.outcome.stats.nopa_choices and hybrid.outcome is pa.outcome
    assert (nopa.verdict, pa.verdict) == (T, F) and nopa.outcome.stats.nopa_choices


def test_nopa_runs_its_own_detect_where_a_heap_comparison_differs(detect_calls):
    # One object through two unrelated interfaces: the points-to sets
    # overlap where the base types are unrelated, and no call is virtual.
    s = Scenario("two", "two", [SourceUnit("t.mir", TWO_INTERFACES)], entry="D.m")
    nopa, pa, hybrid = run_scenario(s, list(ALL_MODES), budget=budget())
    assert detect_calls == [Mode.PA, Mode.NOPA]
    assert not pa.outcome.stats.nopa_choices and pa.outcome.missrefs == []
    assert (nopa.verdict, pa.verdict, hybrid.verdict) == (F, T, T)


def test_a_timed_nopa_runs_its_own_detect(detect_calls):
    timed = AnalysisBudget(wall_clock=30.0)
    nopa, pa = run_scenario(load_bundled("fig1_simple"), [Mode.NOPA, Mode.PA], budget=timed)
    assert detect_calls == [Mode.NOPA, Mode.PA]  # in the requested order
    assert nopa.outcome.stats.elapsed_ms == nopa.timings_ms[-1] > 0.0
    assert nopa.timings_ms is not pa.timings_ms and nopa.verdict is pa.verdict is T


def test_a_shared_outcome_keeps_the_requested_mode_order(detect_calls):
    hybrid, pa = run_scenario(load_bundled("fig1_simple"), [Mode.HYBRID, Mode.PA], budget=budget())
    assert (hybrid.mode, pa.mode) == (Mode.HYBRID, Mode.PA)
    assert detect_calls == [Mode.PA] and hybrid.outcome is pa.outcome


def test_a_shared_outcome_carries_pas_timings(detect_calls):
    pa, hybrid = run_scenario(load_bundled("fig1_simple"), [Mode.PA, Mode.HYBRID], budget=budget(), reps=3)
    assert detect_calls == [Mode.PA] * 3
    assert hybrid.timings_ms is pa.timings_ms == [0.0, 0.0, 0.0]


def test_a_timed_hybrid_runs_its_own_detect(detect_calls):
    # Under a wall clock `hybrid`'s timings and clock timeout are its own.
    timed = AnalysisBudget(wall_clock=30.0)
    pa, hybrid = run_scenario(load_bundled("fig1_simple"), [Mode.PA, Mode.HYBRID], budget=timed, reps=3)
    assert detect_calls == [Mode.PA] * 3 + [Mode.HYBRID] * 3
    assert hybrid.outcome is not pa.outcome and hybrid.timings_ms is not pa.timings_ms
    assert hybrid.outcome.stats.elapsed_ms == hybrid.timings_ms[-1] > 0.0
    assert hybrid.verdict is pa.verdict is T


def test_a_shared_outcome_builds_no_cha_graph(monkeypatch):
    built = []
    real = harness.build_cha_graph
    monkeypatch.setattr(harness, "build_cha_graph", lambda p, entry: built.append(entry.id) or real(p, entry))
    run_scenario(load_bundled("fig1_simple"), [Mode.PA, Mode.HYBRID], budget=budget())
    assert built == []
    run_scenario(load_bundled("mkref"), [Mode.PA, Mode.HYBRID], budget=budget())
    run_scenario(load_bundled("fig1_simple"), list(ALL_MODES), budget=budget())
    assert len(built) == 2  # one per entry whose runs read it


def test_run_corpus_report_advanced_verdicts():
    run = run_corpus([load_bundled("fig1_advanced")], [Mode.NOPA, Mode.PA], budget=budget())
    assert verdicts(run, Mode.NOPA) == {"fig1_advanced": T}
    assert verdicts(run, Mode.PA) == {"fig1_advanced": F}


def test_run_corpus_deep_hierarchy_timeout_direction():
    run = run_corpus(
        [load_bundled("deep_hierarchy")], [Mode.NOPA, Mode.PA], budget=budget(fuel=10_000)
    )
    assert verdicts(run, Mode.NOPA) == {"deep-hierarchy": TO}
    assert verdicts(run, Mode.PA) == {"deep-hierarchy": F}
    nopa_result = next(r for r in run.results if r.mode is Mode.NOPA)
    pa_result = next(r for r in run.results if r.mode is Mode.PA)
    assert nopa_result.outcome.stats.visited >= pa_result.outcome.stats.visited


def test_run_corpus_results_carry_no_entry():
    # No `corpus` output reads it, and a forked helper would pickle its body.
    run = run_corpus([load_bundled("fig1_simple")], [Mode.NOPA, Mode.PA], budget=budget())
    assert [r.entry for r in run.results] == [None, None]
    (result,) = run_scenario(load_bundled("fig1_simple"), [Mode.NOPA], budget=budget())
    assert result.entry.id == "Text.generateReport/0"  # `analyze` prints it


def test_run_corpus_records_parse_errors():
    broken = Scenario(
        id="broken",
        project="broken",
        sources=[SourceUnit("b.mir", "class A {\n  field x: int\n}\n")],
    )
    run = run_corpus([broken, load_bundled("fig1_simple")], [Mode.NOPA], budget=budget())
    assert [sid for sid, _ in run.errors] == ["broken"]
    assert {r.unit for r in run.results} == {"fig1_simple"}


def test_run_scenario_multiple_entries_expand_to_units():
    src = (
        "class A {\n"
        "  method m1() {\n    x = 1 @L;\n    y = 2 @R;\n  }\n"
        "  method m2() {\n    u = 1 @L;\n    v = 2 @R;\n  }\n"
        "}\n"
        "class Main {\n  public static method main() {\n    a = new A();\n  }\n}\n"
    )
    s = Scenario(id="multi", project="multi", sources=[SourceUnit("m.mir", src)])
    results = run_scenario(s, [Mode.NOPA], budget=budget())
    assert [r.unit for r in results] == ["multi#A.m1/0", "multi#A.m2/0"]


def test_annotate_missref_paths_flags_reflective_loss():
    run = run_corpus([load_bundled("mkref")], [Mode.NOPA, Mode.PA], budget=budget())
    (enriched,) = annotate_missref_paths(run)
    assert enriched["unit"] == "mkref"
    assert enriched["missrefs"] == 2
    assert enriched["on_conflict_path"] is True
    pa_result = next(r for r in run.results if r.mode is Mode.PA)
    assert enriched["on_path"] and all(m in pa_result.outcome.missrefs for m in enriched["on_path"])


UNRELATED_MISS = """
interface Report {
  method countDupWords();
  method countDupWhiteSpace();
}
class ReportSimple implements Report {
  field fixes: int;
  method countDupWords() {
    this.fixes = 1;
  }
  method countDupWhiteSpace() {
    this.fixes = 2;
  }
}
class ReportAdvanced implements Report {
  field a: int;
  field b: int;
  method countDupWords() {
    this.a = 1;
  }
  method countDupWhiteSpace() {
    this.b = 1;
  }
}
class Text2 {
  field r: Report;
  field q: Report;
  method setup() {
    h = mkref Report;
    this.q = h;
  }
  method generateReport() {
    u = this.q;
    call u.countDupWords();
    r = this.r;
    call r.countDupWords() @L;
    x = op();
    call r.countDupWhiteSpace() @R;
  }
}
class Main {
  public static method main() {
    rep = new ReportAdvanced();
    t = new Text2();
    t.r = rep;
    call t.setup();
    call t.generateReport();
  }
}
"""


def test_annotate_missref_paths_off_path_miss():
    s = Scenario(
        id="offpath", project="offpath", sources=[SourceUnit("t.mir", UNRELATED_MISS)]
    )
    run = run_corpus([s], [Mode.NOPA, Mode.PA], budget=budget())
    assert verdicts(run, Mode.NOPA) == {"offpath": T}
    assert verdicts(run, Mode.PA) == {"offpath": F}
    (enriched,) = annotate_missref_paths(run)
    assert enriched["missrefs"] >= 1
    assert enriched["on_conflict_path"] is False


def test_annotate_missref_paths_no_missrefs():
    run = run_corpus([load_bundled("fig1_advanced")], [Mode.NOPA, Mode.PA], budget=budget())
    (enriched,) = annotate_missref_paths(run)
    assert enriched["missrefs"] == 0
    assert enriched["on_conflict_path"] is False


def test_scenario_manifest_with_sidecar(tmp_path):
    src = "class A {\n  method m() {\n    x = 1;\n    x = 2;\n  }\n}\n"
    d = tmp_path / "scn"
    d.mkdir()
    (d / "a.mir").write_text(src)
    (d / "map.json").write_text(
        json.dumps(
            {
                "left": [{"file": "a.mir", "line": 3}],
                "right": [{"file": "a.mir", "line": 4}],
            }
        )
    )
    (d / "scenario.json").write_text(
        json.dumps(
            {
                "id": "sidecar-scn",
                "project": "p",
                "sources": ["a.mir"],
                "sidecar": "map.json",
                "ground_truth": "true",
            }
        )
    )
    from oadetect.harness import load_scenario

    results = run_scenario(load_scenario(d), [Mode.NOPA], budget=budget())
    assert results[0].unit == "sidecar-scn"
    assert results[0].verdict is T


def test_generator_seed_env_override(monkeypatch):
    from oadetect.randprog import default_seed

    monkeypatch.delenv("OA_SEED", raising=False)
    base = default_seed()
    monkeypatch.setenv("OA_SEED", str(base + 17))
    assert default_seed() == base + 17


def test_scenario_manifest_round_trip(tmp_path):
    src = "class A {\n  method m() {\n    x = 1 @L;\n    x = 2 @R;\n  }\n}\n"
    d = tmp_path / "scn"
    d.mkdir()
    (d / "a.mir").write_text(src)
    (d / "scenario.json").write_text(
        json.dumps(
            {
                "id": "scn",
                "project": "proj",
                "sources": ["a.mir"],
                "entry": "A.m",
                "ground_truth": "true",
            }
        )
    )
    from oadetect.harness import load_scenario

    s = load_scenario(d)
    assert s.id == "scn" and s.ground_truth is True and s.entry == "A.m"
    results = run_scenario(s, [Mode.NOPA], budget=budget())
    assert results[0].verdict is T


@pytest.mark.parametrize("project", ["absent", None])
def test_scenario_without_a_project_is_its_own_project(project, tmp_path):
    # A null project used to load as None, so every such scenario fell into
    # one project and two copies of mkref read `2,1` in histogram.csv.
    import shutil

    from oadetect.harness import bundled_corpus_dir, load_scenario, write_tables

    scenarios = []
    for sid in ("mkref-a", "mkref-b"):
        d = tmp_path / sid
        shutil.copytree(bundled_corpus_dir() / "mkref", d)
        manifest = json.loads((d / "scenario.json").read_text())
        manifest["id"] = sid
        if project == "absent":
            del manifest["project"]
        else:
            manifest["project"] = project
        (d / "scenario.json").write_text(json.dumps(manifest))
        scenarios.append(load_scenario(d))
    assert [s.project for s in scenarios] == ["mkref-a", "mkref-b"]

    modes = [Mode.NOPA, Mode.PA]
    run = run_corpus(scenarios, modes, budget=budget())
    out = tmp_path / "out"
    write_tables(run, modes, out)
    assert (out / "histogram.csv").read_text().splitlines() == ["divergences,projects", "1,2"]


@pytest.mark.parametrize("name", ["fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy"])
def test_run_scenario_verdict_only_keeps_every_verdict(name):
    modes = [Mode.NOPA, Mode.PA, Mode.HYBRID]
    full = run_scenario(load_bundled(name), modes, budget=budget())
    counted = run_scenario(load_bundled(name), modes, budget=budget(), verdict_only=True)
    assert [(r.unit, r.mode, r.verdict) for r in counted] == [(r.unit, r.mode, r.verdict) for r in full]
