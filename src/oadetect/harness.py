"""Corpus runner and evaluation tables.

Scenarios are directories with a `scenario.json` manifest naming the source
files, an optional sidecar line map, an optional entry override, and an
optional ground-truth label. Each dually modified declaration of a scenario
becomes one experimental unit; every unit runs once per mode, repeated for
timing, with the verdict required to agree across repetitions. A repetition's
timing is the `elapsed_ms` that `detect` measures itself. Unit ids are unique
across a corpus run: a scenario repeating one is a scenario error.

`CorpusRun.by_unit` is the one per-unit table every output reads: each unit
id maps to its result under each mode, units in run order. The table
builders mirror the usual comparison methodology: a confusion matrix against
labels (a unit that times out under any evaluated mode is excluded from
every mode's scores), derived accuracy metrics, a verdict-transition
cross-tab between two modes, a per-project divergence histogram, and paired
timing summaries.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, stdev
from typing import Optional, Union

from .cha import build_cha_graph
from .engine import AnalysisBudget, AnalysisOutcome, Mode, Verdict, detect
from .frontend import ProvenanceMap, SourceUnit, apply_sidecar, entry_candidates, parse_program, read_text
from .mir import MethodDef, MirError, Program, find_method
from .pointsto import pa_entry_points, solve
from .reporting import emit_records


@dataclass
class Scenario:
    id: str
    project: str
    sources: list[SourceUnit]
    sidecar: Optional[ProvenanceMap] = None
    entry: Optional[str] = None
    ground_truth: Optional[bool] = None


# Line breaks, tabs and other control characters. A unit name holding one
# would split the `unit<TAB>mode<TAB>verdict` lines `corpus` prints.
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029]")


def _read_manifest(path: Path) -> dict:
    """A `scenario.json` checked field by field; bad input raises MirError."""
    try:
        manifest = json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as e:  # too deep a nesting recurses
        raise MirError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise MirError(f"{path}: manifest must be a JSON object")
    for key in ("id", "sources"):
        if key not in manifest:
            raise MirError(f"{path}: missing '{key}'")
    if not isinstance(manifest["id"], str):
        raise MirError(f"{path}: 'id' must be a string")
    sources = manifest["sources"]
    if not isinstance(sources, list) or not all(isinstance(n, str) for n in sources):
        raise MirError(f"{path}: 'sources' must be a list of file names")
    for key in ("project", "sidecar", "entry"):
        if not isinstance(manifest.get(key), (str, type(None))):
            raise MirError(f"{path}: '{key}' must be a string or null")
    if manifest.get("ground_truth") not in ("true", "false", None):
        raise MirError(f"{path}: 'ground_truth' must be \"true\", \"false\" or null")
    for key in ("id", "project"):
        if _CONTROL.search(manifest.get(key) or ""):
            raise MirError(
                f"{path}: '{key}' must hold no line break, tab or other control character, "
                f"got {json.dumps(manifest[key])}"
            )
    return manifest


def load_scenario(directory: Path) -> Scenario:
    directory = Path(directory)
    manifest = _read_manifest(directory / "scenario.json")
    sources = [
        SourceUnit(name, read_text(directory / name))
        for name in manifest["sources"]
    ]
    sidecar = None
    if manifest.get("sidecar"):
        sidecar = ProvenanceMap.from_json(read_text(directory / manifest["sidecar"]))
    truth = manifest.get("ground_truth")
    project = manifest.get("project")  # absent or null: the scenario is its own project
    return Scenario(
        id=manifest["id"],
        project=manifest["id"] if project is None else project,
        sources=sources,
        sidecar=sidecar,
        entry=manifest.get("entry"),
        ground_truth=None if truth is None else truth == "true",
    )


def bundled_corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


def load_bundled(name: str) -> Scenario:
    return load_scenario(bundled_corpus_dir() / name)


def scenario_dirs(root: Path) -> list[Path]:
    """The scenario directories of a corpus root, in name order."""
    return sorted(d for d in Path(root).iterdir() if (d / "scenario.json").exists())


# ---------------------------------------------------------------------------
# Running


@dataclass
class UnitResult:
    unit: str
    project: str
    mode: Mode
    verdict: Verdict
    outcome: AnalysisOutcome
    timings_ms: list[float]
    ground_truth: Optional[bool]
    entry: MethodDef


@dataclass
class CorpusRun:
    results: list[UnitResult] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)

    def by_unit(self) -> dict[str, dict[Mode, UnitResult]]:
        """Each unit's result under each mode, units in run order."""
        table: dict[str, dict[Mode, UnitResult]] = {}
        for r in self.results:
            table.setdefault(r.unit, {})[r.mode] = r
        return table


def scenario_program(s: Scenario) -> Program:
    """A scenario's sources parsed, with its sidecar's provenance applied."""
    program = parse_program(s.sources)
    if s.sidecar is not None:
        apply_sidecar(program, s.sidecar)
    return program


def scenario_entries(s: Scenario, program: Program) -> list[MethodDef]:
    """The scenario's entry override, else its dually modified declarations."""
    return [find_method(program, s.entry)] if s.entry else entry_candidates(program)


def scenario_units(s: Scenario) -> tuple[Program, list[tuple[str, MethodDef]]]:
    """Parse a scenario and expand it to (unit id, entry) pairs."""
    program = scenario_program(s)
    entries = scenario_entries(s, program)
    if not entries:
        raise MirError(f"scenario '{s.id}' has no dually modified declaration")
    if len(entries) == 1:
        return program, [(s.id, entries[0])]
    return program, [(f"{s.id}#{m.id}", m) for m in entries]


def run_scenario(
    s: Scenario,
    modes: list[Mode],
    budget: Optional[AnalysisBudget] = None,
    reps: int = 1,
    verdict_only: bool = False,
) -> list[UnitResult]:
    """Detect every unit of a scenario under every mode.

    The one pipeline behind `analyze` and `corpus`: parse and expand the
    scenario, solve points-to once per program if a mode uses it, build
    the CHA graph once per entry if a mode uses it, and run `detect` per
    unit and mode over those shared graphs. A repetition's timing is the
    `elapsed_ms` that `detect` measures, 0 without a wall-clock budget.
    `verdict_only` goes to `detect`: a unit whose path tree exceeds the
    budget then times out without being enumerated.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    budget = budget or AnalysisBudget()
    program, units = scenario_units(s)

    needs_pts = any(m.uses_pts for m in modes)
    needs_cha = any(m.uses_cha for m in modes)
    pts = solve(program, pa_entry_points(program)) if needs_pts else None

    out: list[UnitResult] = []
    for unit_id, entry in units:
        cha = build_cha_graph(program, entry) if needs_cha else None
        for mode in modes:
            verdict = None
            outcome = None
            timings: list[float] = []
            for _ in range(reps):
                outcome = detect(program, entry, mode, budget=budget, cha=cha, pts=pts,
                                 verdict_only=verdict_only)
                timings.append(outcome.stats.elapsed_ms)
                if verdict is None:
                    verdict = outcome.verdict
                elif verdict is not outcome.verdict:
                    raise MirError(
                        f"nondeterministic verdict for {unit_id} under {mode.value}"
                    )
            out.append(
                UnitResult(
                    unit=unit_id,
                    project=s.project,
                    mode=mode,
                    verdict=verdict,
                    outcome=outcome,
                    timings_ms=timings,
                    ground_truth=s.ground_truth,
                    entry=entry,
                )
            )
    return out


def run_corpus(
    corpus: list[Union[Scenario, Path]],
    modes: list[Mode],
    budget: Optional[AnalysisBudget] = None,
    reps: int = 1,
) -> CorpusRun:
    """Run each scenario, or each scenario directory loaded in its turn.

    A scenario that fails to load or run lands in `run.errors`, under its
    id (its directory's name if the manifest cannot give one), and costs
    only its own units. So does one with a unit id an earlier scenario
    already gave: the tables hold one row per unit.
    """
    run = CorpusRun()
    seen: set[str] = set()
    for item in corpus:
        sid = item.id if isinstance(item, Scenario) else Path(item).name
        try:
            s = item if isinstance(item, Scenario) else load_scenario(item)
            sid = s.id
            results = run_scenario(s, modes, budget, reps)
            units = {r.unit for r in results}
            if units & seen:
                where = "" if isinstance(item, Scenario) else f"{item}: "
                raise MirError(f"{where}unit id '{min(units & seen)}' is already taken by an earlier scenario")
            seen |= units
            run.results.extend(results)
        except (MirError, OSError) as e:
            run.errors.append((sid, str(e)))
    return run


# ---------------------------------------------------------------------------
# Tables


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    excluded: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class MetricsSummary:
    precision: Optional[float]
    recall: Optional[float]
    accuracy: Optional[float]
    f1: Optional[float]

    def rounded(self) -> dict:
        return {
            k: (None if v is None else round(v, 2))
            for k, v in (
                ("precision", self.precision),
                ("recall", self.recall),
                ("accuracy", self.accuracy),
                ("f1", self.f1),
            )
        }


def confusion(outcomes: dict[str, Verdict], truths: dict[str, bool]) -> ConfusionMatrix:
    """Score verdicts against labels; timeouts are excluded, not guessed."""
    cm = ConfusionMatrix()
    for unit, verdict in outcomes.items():
        if unit not in truths or truths[unit] is None:
            raise MirError(f"unit '{unit}' has no ground-truth label")
        if verdict is Verdict.TIMEOUT:
            cm.excluded += 1
            continue
        positive = verdict is Verdict.TRUE
        if positive and truths[unit]:
            cm.tp += 1
        elif positive:
            cm.fp += 1
        elif truths[unit]:
            cm.fn += 1
        else:
            cm.tn += 1
    return cm


def metrics(cm: ConfusionMatrix) -> MetricsSummary:
    if cm.total <= 0:
        raise MirError("empty confusion matrix")

    def ratio(num: int, den: int) -> Optional[float]:
        return num / den if den > 0 else None

    return MetricsSummary(
        precision=ratio(cm.tp, cm.tp + cm.fp),
        recall=ratio(cm.tp, cm.tp + cm.fn),
        accuracy=ratio(cm.tp + cm.tn, cm.total),
        f1=ratio(2 * cm.tp, 2 * cm.tp + cm.fp + cm.fn),
    )


VERDICTS = (Verdict.TRUE, Verdict.FALSE, Verdict.TIMEOUT)


@dataclass
class TransitionTable:
    counts: dict = field(default_factory=dict)

    def cell(self, a: Verdict, b: Verdict) -> int:
        return self.counts.get((a, b), 0)

    def row_marginal(self, a: Verdict) -> int:
        return sum(self.cell(a, b) for b in VERDICTS)

    def col_marginal(self, b: Verdict) -> int:
        return sum(self.cell(a, b) for a in VERDICTS)


def transitions(a: dict[str, Verdict], b: dict[str, Verdict]) -> TransitionTable:
    if set(a) != set(b):
        raise MirError("transition tables need the same unit set under both modes")
    table = TransitionTable()
    for unit, va in a.items():
        key = (va, b[unit])
        table.counts[key] = table.counts.get(key, 0) + 1
    return table


def divergence_histogram(units: list[tuple[str, Verdict, Verdict]]) -> dict[int, int]:
    """Per-project count of units where two modes disagree, as a histogram.

    Projects with no divergence are omitted; a timeout disagrees with
    anything but another timeout.
    """
    per_project: dict[str, int] = {}
    for project, va, vb in units:
        per_project.setdefault(project, 0)
        if va is not vb:
            per_project[project] += 1
    hist: dict[int, int] = {}
    for n in per_project.values():
        if n > 0:
            hist[n] = hist.get(n, 0) + 1
    return dict(sorted(hist.items()))


@dataclass
class TimingRow:
    unit: str
    mode: Mode
    mean_ms: float
    stddev_ms: float
    flagged: bool  # standard deviation above 10% of the mean


@dataclass
class TimingSummary:
    rows: list[TimingRow]
    grand_mean_ms: dict[Mode, float]
    winner_counts: dict[Mode, int]


def timing_summary(samples: dict[str, dict[Mode, list[float]]]) -> TimingSummary:
    """Per-unit means/deviations, per-mode grand means, and per-unit winners."""
    reps = {len(s) for per_mode in samples.values() for s in per_mode.values()}
    if len(reps) > 1:
        raise MirError(f"unequal repetition counts across units: {sorted(reps)}")
    rows: list[TimingRow] = []
    per_mode_means: dict[Mode, list[float]] = {}
    winner_counts: dict[Mode, int] = {}
    for unit in samples:
        unit_means: dict[Mode, float] = {}
        for mode, values in samples[unit].items():
            m = mean(values)
            sd = stdev(values) if len(values) > 1 else 0.0
            flagged = m > 0 and sd / m > 0.10
            rows.append(TimingRow(unit, mode, m, sd, flagged))
            unit_means[mode] = m
            per_mode_means.setdefault(mode, []).append(m)
        if len(unit_means) > 1:
            winner = min(sorted(unit_means, key=lambda mo: mo.value), key=lambda mo: unit_means[mo])
            winner_counts[winner] = winner_counts.get(winner, 0) + 1
    grand = {mode: mean(values) for mode, values in per_mode_means.items()}
    return TimingSummary(rows, grand, winner_counts)


def annotate_missref_paths(run: CorpusRun) -> list[dict]:
    """For units `pa` cleared but `nopa` flagged, mark whether any
    miss-reference sits on a reported conflict flow."""
    enriched = []
    for unit, per_mode in run.by_unit().items():
        if Mode.NOPA not in per_mode or Mode.PA not in per_mode:
            continue
        a, b = per_mode[Mode.NOPA], per_mode[Mode.PA]
        if a.verdict is not Verdict.TRUE or b.verdict is not Verdict.FALSE:
            continue
        trace_positions = set()
        for c in a.outcome.conflicts:
            for ev in (c.overridden, c.overriding):
                trace_positions.update(h.pos for h in ev.call_path)
                trace_positions.add(ev.pos)
        on_path = False
        for miss in b.outcome.missrefs:
            miss.on_conflict_path = miss.pos in trace_positions
            on_path = on_path or miss.on_conflict_path
        enriched.append(
            {
                "unit": unit,
                "missrefs": len(b.outcome.missrefs),
                "on_conflict_path": on_path,
            }
        )
    return enriched


# ---------------------------------------------------------------------------
# Output files


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.2f}"


def write_tables(run: CorpusRun, modes: list[Mode], outdir: Path) -> None:
    """The record stream plus confusion/metrics/transitions/histogram/timing CSVs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    records = emit_records([(r.unit, r.mode, r.outcome) for r in run.results])
    (outdir / "records.jsonl").write_text(records)

    per_unit = run.by_unit()
    verdicts = {
        mode: {u: per_mode[mode].verdict for u, per_mode in per_unit.items() if mode in per_mode}
        for mode in modes
    }
    # A labelled unit that times out under any evaluated mode goes to
    # `confusion` as a timeout under every mode, which excludes it from
    # each mode's scores, so the totals stay comparable.
    timed_out = {u for v in verdicts.values() for u, verdict in v.items() if verdict is Verdict.TIMEOUT}
    truths = {u: next(iter(per_mode.values())).ground_truth for u, per_mode in per_unit.items()}
    matrices: dict[Mode, ConfusionMatrix] = {}
    for mode in modes:
        scored = {
            u: Verdict.TIMEOUT if u in timed_out else verdict
            for u, verdict in verdicts[mode].items()
            if truths[u] is not None
        }
        matrices[mode] = confusion(scored, truths)

    with (outdir / "confusion.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mode", "tp", "fp", "tn", "fn", "excluded"])
        for mode in modes:
            cm = matrices[mode]
            w.writerow([mode.value, cm.tp, cm.fp, cm.tn, cm.fn, cm.excluded])

    with (outdir / "metrics.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mode", "precision", "recall", "accuracy", "f1"])
        for mode in modes:
            if not matrices[mode].total:
                w.writerow([mode.value, "", "", "", ""])
                continue
            ms = metrics(matrices[mode])
            w.writerow([mode.value, _fmt(ms.precision), _fmt(ms.recall), _fmt(ms.accuracy), _fmt(ms.f1)])

    with (outdir / "transitions.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mode_a", "mode_b", "a_verdict", "b_verdict", "count"])
        for i, ma in enumerate(modes):
            for mb in modes[i + 1 :]:
                table = transitions(verdicts[ma], verdicts[mb])
                for va in VERDICTS:
                    for vb in VERDICTS:
                        w.writerow([ma.value, mb.value, va.value, vb.value, table.cell(va, vb)])

    with (outdir / "histogram.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["divergences", "projects"])
        if len(modes) >= 2:
            a, b = modes[:2]
            rows = [
                (per_mode[a].project, per_mode[a].verdict, per_mode[b].verdict)
                for per_mode in per_unit.values()
                if a in per_mode and b in per_mode
            ]
            for n, count in divergence_histogram(rows).items():
                w.writerow([n, count])

    with (outdir / "timing.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["unit", "mode", "mean_ms", "stddev_ms", "flagged"])
        samples = {u: {m: r.timings_ms for m, r in per_mode.items()} for u, per_mode in per_unit.items()}
        for row in timing_summary(samples).rows:
            w.writerow(
                [row.unit, row.mode.value, f"{row.mean_ms:.3f}", f"{row.stddev_ms:.3f}", str(row.flagged).lower()]
            )
