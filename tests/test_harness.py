from __future__ import annotations

import json

import pytest

from conftest import budget
from oadetect.engine import AnalysisBudget, Mode, Verdict
from oadetect.frontend import SourceUnit
from oadetect.harness import (
    ConfusionMatrix,
    Scenario,
    annotate_missref_paths,
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
    assert ms.rounded() == {"precision": 0.47, "recall": 0.28, "accuracy": 0.68, "f1": 0.35}


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
        assert table.row_marginal(v) == sum(1 for x in a.values() if x is v)
        assert table.col_marginal(v) == sum(1 for x in b.values() if x is v)


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


def test_timing_winner_and_grand_means():
    samples = {
        "u1": {Mode.NOPA: [2.0, 2.0, 2.0], Mode.PA: [3.0, 3.0, 3.0]},
    }
    summary = timing_summary(samples)
    assert summary.winner_counts == {Mode.NOPA: 1}

    asymmetric = {
        "u1": {Mode.NOPA: [1.0], Mode.PA: [100.0]},
        "u2": {Mode.NOPA: [2.0], Mode.PA: [1.0]},
    }
    summary = timing_summary(asymmetric)
    assert summary.winner_counts == {Mode.NOPA: 1, Mode.PA: 1}
    assert summary.grand_mean_ms[Mode.NOPA] == pytest.approx(1.5)
    assert summary.grand_mean_ms[Mode.PA] == pytest.approx(50.5)


def test_timing_stddev_flag():
    summary = timing_summary({"u": {Mode.NOPA: [10.0, 10.0, 14.0]}})
    (row,) = summary.rows
    assert row.flagged
    steady = timing_summary({"u": {Mode.NOPA: [10.0, 10.0, 10.0]}})
    assert not steady.rows[0].flagged


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
    twin = load_bundled("fig1_advanced")
    twin.id = "fig1_simple"
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
    assert any(m.on_conflict_path for m in pa_result.outcome.missrefs)


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
