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
cross-tab between two modes, a per-project divergence histogram, and
per-unit timing means.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .cha import build_cha_graph
from .engine import AnalysisBudget, AnalysisOutcome, Mode, Verdict, as_nopa, detect
from .frontend import ProvenanceMap, SourceUnit, apply_sidecar, entry_candidates, parse_json, parse_program
from .frontend import read_text
from .mir import MethodDef, MirError, Program, Record, find_method
from .pointsto import solve
from .reporting import emit_records


class Scenario(NamedTuple):
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
    manifest = parse_json(read_text(path), str(path))
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
    if not sources:
        raise MirError(f"{path}: 'sources' must name at least one file")
    for key in ("project", "sidecar", "entry"):
        if not isinstance(manifest.get(key), (str, type(None))):
            raise MirError(f"{path}: '{key}' must be a string or null")
    for key in ("id", "project", "sidecar", "entry"):
        if manifest.get(key) == "":
            raise MirError(f"{path}: '{key}' must not be empty")
    if manifest["id"].isspace():
        raise MirError(f"{path}: 'id' must not be only whitespace")
    if manifest.get("ground_truth") not in ("true", "false", None):
        raise MirError(f"{path}: 'ground_truth' must be \"true\", \"false\" or null")
    for key in ("id", "project"):
        if _CONTROL.search(manifest.get(key) or ""):
            raise MirError(
                f"{path}: '{key}' must hold no line break, tab or other control character, "
                f"got {json.dumps(manifest[key])}"
            )
    return manifest


def _inside(directory: Path, key: str, name: str) -> Path:
    """`directory / name`, the file a manifest's `key` entry names, which
    must lie inside the scenario directory: an absolute path, a `..` escape
    or a symlink that resolves outside it is a manifest error."""
    path = directory / name
    # A bare file name that is no symlink stays inside; only another name
    # pays for resolving, tens of microseconds a file.
    if os.path.basename(name) == name and name != ".." and not os.path.islink(path):
        return path
    try:
        # Not strict, and not `Path.resolve`, which raises RuntimeError on a
        # symlink loop: a loop resolves to a name here, and reading it then
        # raises the OSError that a loop raises anywhere.
        real = os.path.realpath(path)
    except ValueError:  # a NUL byte: no file has that name, and `read_text` says so
        return path
    if not Path(real).is_relative_to(os.path.realpath(directory)):
        raise MirError(
            f"{directory / 'scenario.json'}: '{key}' entry {json.dumps(name)} is outside the scenario directory"
        )
    return path


def load_scenario(directory: Path) -> Scenario:
    directory = Path(directory)
    manifest = _read_manifest(directory / "scenario.json")
    # Every name is checked before any file is read.
    names = manifest["sources"]
    paths = [_inside(directory, "sources", name) for name in names]
    sidecar_name = manifest.get("sidecar")
    sidecar_path = None if sidecar_name is None else _inside(directory, "sidecar", sidecar_name)
    sources = [SourceUnit(name, read_text(path)) for name, path in zip(names, paths)]
    sidecar = None if sidecar_path is None else ProvenanceMap.from_json(read_text(sidecar_path))
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


class UnitResult(NamedTuple):
    unit: str
    project: str
    mode: Mode
    verdict: Verdict
    outcome: AnalysisOutcome
    timings_ms: list[float]
    ground_truth: Optional[bool]
    entry: Optional[MethodDef]  # None in `run_corpus` results


class CorpusRun(Record):
    __slots__ = _fields = ("results", "errors")

    def __init__(self, results: Optional[list[UnitResult]] = None,
                 errors: Optional[list[tuple[str, str]]] = None):
        self.results = [] if results is None else results
        self.errors = [] if errors is None else errors

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
    return [find_method(program, s.entry)] if s.entry is not None else entry_candidates(program)


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
    the CHA graph once per entry if a run reads it, and run `detect` per
    unit and mode over those shared graphs. A repetition's timing is the
    `elapsed_ms` that `detect` measures, 0 without a wall-clock budget.
    `verdict_only` goes to `detect`: a unit whose path tree exceeds the
    budget then times out, and one within budget where no left write can
    meet a right write is false, both without being enumerated. Under a
    wall clock, a unit decided false could have timed out in the walk.
    Without it, each outcome is the full walk's, though under `nopa` a unit
    whose sides cannot meet is walked only down to where a budget runs
    out, and any other unit skips, by their counts, the call subtrees that
    cannot change a finding.

    Without a wall clock, where nothing is timed, a mode may take the
    outcome of another instead of a `detect` of its own; the points-to
    modes then run first, `pa` before `hybrid`, and results keep the order
    of `modes`. A unit whose `pa` outcome holds no `unresolved-call`
    miss-reference gives `hybrid` that outcome and timing list: the two
    modes differ only at a virtual site with no points-to targets, which
    `hybrid` widens to its CHA targets and where both log that miss on
    first resolving it, so where `pa` reached none, `hybrid` makes the same
    choice at every step. And with `nopa` asked for too, each points-to
    mode is handed the unit's CHA graph, and `nopa` takes the outcome of
    `pa`, else of `hybrid`, whose `stats.nopa_choices` holds, without its
    points-to sets and miss-references (`engine.as_nopa`): that run
    resolved every call as `nopa` does and answered every heap comparison
    as `nopa`'s base types do. At seed 101, 30 of 33 scan-random units
    qualify, and 160 of the 195 marked programs of the seed range. Under a
    wall clock every mode runs its own `detect`, so its timings and any
    clock timeout are its own.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    budget = budget or AnalysisBudget()
    program, units = scenario_units(s)

    needs_pts = any(m.uses_pts for m in modes)
    pts = solve(program) if needs_pts else None
    # Untimed only: a timed mode keeps its own clock and timings.
    share = budget.wall_clock is None
    order = sorted(modes, key=_RUN_ORDER.index) if share else modes
    # A points-to run reads the CHA graph only to tell whether `nopa` may take its outcome.
    checks_nopa = share and Mode.NOPA in modes

    out: list[UnitResult] = []
    for unit_id, entry in units:
        cha = None  # built when a run first reads it; a shared run does not

        def run(mode: Mode) -> tuple[AnalysisOutcome, list[float]]:
            nonlocal cha
            if (mode.uses_cha or checks_nopa) and cha is None:
                cha = build_cha_graph(program, entry)
            verdict = outcome = None
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
            return outcome, timings

        done: dict[Mode, tuple[AnalysisOutcome, list[float]]] = {}
        for mode in order:
            done[mode] = (_shared(mode, done) if share else None) or run(mode)
        for mode in modes:
            outcome, timings = done[mode]
            out.append(
                UnitResult(
                    unit=unit_id,
                    project=s.project,
                    mode=mode,
                    verdict=outcome.verdict,
                    outcome=outcome,
                    timings_ms=timings,
                    ground_truth=s.ground_truth,
                    entry=entry,
                )
            )
    return out


# The order an untimed `run_scenario` runs modes in, so that one may take the
# outcome of a mode run before it (`_shared`).
_RUN_ORDER = [Mode.PA, Mode.HYBRID, Mode.NOPA]


def _shared(mode: Mode, done: dict) -> Optional[tuple[AnalysisOutcome, list[float]]]:
    """The (outcome, timings) that untimed `mode` takes from a mode in
    `done`, or None when it runs its own `detect` (see `run_scenario`)."""
    if mode is Mode.HYBRID and Mode.PA in done:
        if not any(m.reason == "unresolved-call" for m in done[Mode.PA][0].missrefs):
            return done[Mode.PA]
    elif mode is Mode.NOPA:
        for source in (Mode.PA, Mode.HYBRID):
            if source in done and done[source][0].stats.nopa_choices:
                outcome, timings = done[source]
                return as_nopa(outcome), timings
    return None


# A forked helper costs more than a small corpus gains: a fork, exit and wait
# took 1.4 ms, and the parent's own work ran 46% slower while a child was
# alive (copy-on-write faults; deep_hierarchy's `run_scenario` 6.5 -> 9.5 ms),
# so forking for the four bundled scenarios cut their units/s by 42-54%. A
# run takes one process per this many scenarios, up to one per CPU.
SCENARIOS_PER_PROCESS = 4


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return 1


def _processes(n: int, budget: Optional[AnalysisBudget]) -> int:
    """How many processes, the caller's included, run `n` scenarios: one
    unless the run is untimed, the process can fork and has one thread, and
    it may use more than one CPU."""
    if (budget or AnalysisBudget()).wall_clock is not None or not hasattr(os, "fork"):
        return 1
    import threading  # a fork copies one thread; another's locks stay held

    if threading.active_count() > 1:
        return 1
    return max(1, min(_available_cpus(), n // SCENARIOS_PER_PROCESS))


def _attempt(item: Union[Scenario, Path], modes, budget, reps) -> tuple[str, Union[list[UnitResult], str]]:
    """A scenario's id and its results, each with `entry` None, or the
    message of the `MirError` or `OSError` it raised; the id is the
    directory's name if the manifest cannot give one. No `corpus` output
    reads an entry, and a forked helper would pickle its whole body."""
    sid = item.id if isinstance(item, Scenario) else Path(item).name
    try:
        s = item if isinstance(item, Scenario) else load_scenario(item)
        sid = s.id
        return sid, [r._replace(entry=None) for r in run_scenario(s, modes, budget, reps)]
    except (MirError, OSError) as e:
        return sid, str(e)


# The work queue holds 4-byte records, each the index of the first of a run of
# `step` scenarios, with `step` chosen so that at most `_QUEUED` records are
# queued. A Linux pipe always holds at least one 4 096-byte page, so the whole
# queue fits in one write, which never waits for a reader and, being no larger
# than PIPE_BUF, lands whole; its write end is closed before the first fork,
# and a read of 4 bytes takes one record. A corpus of up to 1 024 scenarios
# gets `step` 1, a record a scenario.
_RECORD = 4
_QUEUED = 4096 // _RECORD


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _drain(queue: int, step: int, corpus, modes, budget, reps) -> list[tuple]:
    """Attempt each run of `step` scenarios whose first index this process
    takes from the queue, until the queue is empty; returns the (index, id,
    results or error) of each attempt. A scenario that raises anything else
    is left out, so the merge runs it again and the error surfaces there, in
    corpus order."""
    done = []
    while record := os.read(queue, _RECORD):
        first = int.from_bytes(record, "little")
        for i in range(first, min(first + step, len(corpus))):
            try:
                done.append((i, *_attempt(corpus[i], modes, budget, reps)))
            except Exception:
                continue
    return done


def _helper(corpus, modes, budget, reps, step: int, queue: int, out: int, inherited: list[int]):
    """A forked helper's whole life: close the parent's descriptors it
    inherited, drain the queue, then pickle what it attempted to `out`.
    Leaves only through `os._exit`, so that nothing of the parent's
    (buffers, `atexit`, a test runner) runs twice."""
    code = 1
    try:
        import pickle

        for fd in inherited:
            os.close(fd)
        data = memoryview(pickle.dumps(_drain(queue, step, corpus, modes, budget, reps), pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(out, data):]
        code = 0
    finally:
        os._exit(code)


def _attempt_in_processes(corpus, modes, budget, reps, processes: int) -> dict[int, tuple]:
    """Attempt the scenarios in this process and `processes - 1` forked
    helpers, all draining one queue, which is written whole, and its write
    end closed, before the first fork. A corpus of more than `_QUEUED`
    scenarios queues runs of `ceil(len(corpus) / _QUEUED)` scenarios, one
    record a run. Returns the (id, results or error) of every scenario whose
    attempt came back; one that raised, or whose helper died, is missing.
    Every helper is reaped before this returns or raises."""
    import pickle

    cpus = sorted(os.sched_getaffinity(0))
    step = -(-len(corpus) // _QUEUED)
    queue, feed = os.pipe()
    helpers: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        with open(feed, "wb", buffering=0) as f:  # one write, closed before the first fork
            f.write(b"".join(i.to_bytes(_RECORD, "little") for i in range(0, len(corpus), step)))
        # Each process runs on a CPU of its own. A forked child starts on its
        # parent's CPU, and on a 2-CPU Linux host the scheduler left both
        # there for most of a corpus run: unpinned, or with only the helper
        # pinned, a helper made scan-random and wide-hierarchy 5-13% slower;
        # with both pinned, 40-70% faster. The parent pins each helper as
        # soon as it is forked: a helper that pinned itself first waited
        # 1.1-4.4 ms for the parent's CPU to run at all.
        os.sched_setaffinity(0, {cpus[0]})
        for k in range(1, processes):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: run with those there are
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _helper(corpus, modes, budget, reps, step, queue, w, [r, *(fd for _, fd in helpers)])
            os.close(w)
            helpers.append((pid, r))
            os.sched_setaffinity(pid, {cpus[k % len(cpus)]})  # more processes than CPUs only where a test asks
        done = {i: (sid, got) for i, sid, got in _drain(queue, step, corpus, modes, budget, reps)}
        for _, r in helpers:
            try:
                for i, sid, got in pickle.loads(_read_all(r)):
                    done[i] = sid, got
            except (EOFError, pickle.UnpicklingError):  # it died before its pickle was whole
                pass
    finally:
        os.sched_setaffinity(0, cpus)
        while os.read(queue, 1 << 16):  # what is left, so that a helper takes nothing more
            pass
        os.close(queue)
        for pid, r in helpers:
            os.close(r)  # a helper still writing gets EPIPE and leaves
            os.waitpid(pid, 0)
    return done


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

    An untimed run (a budget without a wall clock) in a single-threaded
    process that can fork runs in `min(CPUs it may use, len(corpus) //
    SCENARIOS_PER_PROCESS)` processes, each on a CPU of its own: this one
    and forked helpers, each taking the next scenario from one queue
    (`taskset` limits the CPUs). The queue is written whole before the first
    fork; past 1 024 scenarios, each entry is a run of scenarios (see
    `_QUEUED`). Nothing an untimed scenario gives depends on where it ran,
    and the results are merged in corpus order before the rules above
    apply, so the run equals the one-process run; a scenario
    whose result did not come back runs here again, so an unexpected
    exception propagates as it would. A timed run (`budget` None is the
    default, timed budget) stays in this process, so that its timings, and
    the paired comparison of them, do not measure contention for the CPUs.
    """
    processes = _processes(len(corpus), budget)
    done = _attempt_in_processes(corpus, modes, budget, reps, processes) if processes > 1 else {}
    run = CorpusRun()
    seen: set[str] = set()
    for i, item in enumerate(corpus):
        sid, got = done[i] if i in done else _attempt(item, modes, budget, reps)
        if isinstance(got, str):
            run.errors.append((sid, got))
            continue
        units = {r.unit for r in got}
        if units & seen:
            where = "" if isinstance(item, Scenario) else f"{item}: "
            run.errors.append((sid, f"{where}unit id '{min(units & seen)}' is already taken by an earlier scenario"))
            continue
        seen |= units
        run.results.extend(got)
    return run


# ---------------------------------------------------------------------------
# Tables


class ConfusionMatrix(Record):
    __slots__ = _fields = ("tp", "fp", "tn", "fn", "excluded")

    def __init__(self, tp: int = 0, fp: int = 0, tn: int = 0, fn: int = 0, excluded: int = 0):
        self.tp = tp
        self.fp = fp
        self.tn = tn
        self.fn = fn
        self.excluded = excluded

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


class MetricsSummary(NamedTuple):
    precision: Optional[float]
    recall: Optional[float]
    accuracy: Optional[float]
    f1: Optional[float]


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


class TransitionTable(Record):
    __slots__ = _fields = ("counts",)

    def __init__(self, counts: Optional[dict] = None):
        self.counts = {} if counts is None else counts

    def cell(self, a: Verdict, b: Verdict) -> int:
        return self.counts.get((a, b), 0)


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


class TimingRow(NamedTuple):
    unit: str
    mode: Mode
    mean_ms: float
    stddev_ms: float
    flagged: bool  # standard deviation above 10% of the mean


def timing_summary(samples: dict[str, dict[Mode, list[float]]]) -> list[TimingRow]:
    """Per-unit, per-mode means and standard deviations, units in order.
    Samples that are all 0.0, those of an untimed run, give a row of zeros
    without the exact arithmetic of `statistics`, which costs about 1.3 ms
    over a wide-hierarchy `corpus` call."""
    from statistics import mean, stdev  # only `corpus` needs it; `analyze` skips the import

    reps = {len(s) for per_mode in samples.values() for s in per_mode.values()}
    if len(reps) > 1:
        raise MirError(f"unequal repetition counts across units: {sorted(reps)}")
    rows: list[TimingRow] = []
    for unit in samples:
        for mode, values in samples[unit].items():
            if values and not any(values):
                rows.append(TimingRow(unit, mode, 0.0, 0.0, False))
                continue
            m = mean(values)
            sd = stdev(values) if len(values) > 1 else 0.0
            flagged = m > 0 and sd / m > 0.10
            rows.append(TimingRow(unit, mode, m, sd, flagged))
    return rows


# ---------------------------------------------------------------------------
# Output files


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.2f}"


def write_tables(run: CorpusRun, modes: list[Mode], outdir: Path) -> None:
    """The record stream plus confusion/metrics/transitions/histogram/timing CSVs."""
    import csv  # only `corpus` needs it; `analyze` skips the import

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
        for row in timing_summary(samples):
            w.writerow(
                [row.unit, row.mode.value, f"{row.mean_ms:.3f}", f"{row.stddev_ms:.3f}", str(row.flagged).lower()]
            )
