"""Merge-gate benchmark for oadetect.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the analyzer is imported from its `src/`.
Each run is one process and one thread with deterministic budgets (wall
clock off). The timed run (`--trace 0`) drives `oadetect.cli.main` in
process, as a CI job would: one `analyze` call per scenario, closed loop
with one client, then one `corpus` call per pass, repeating passes for
`--seconds` and until the 90th percentile has ten samples beyond it. The
traced run (`--trace 1`) calls each layer's public function itself, with a
span around each call, and reports per-layer self times and counts.
Correctness checks run outside the timed region; the last line of standard
output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MODES = ("nopa", "pa", "hybrid")
WORKLOADS = ("gate-bundled", "scan-random", "wide-hierarchy")
SETUP_REPS = 7
MIN_SAMPLES = 100  # so that the 90th percentile has ten samples beyond it
TIME_LIMIT_S = 120  # no pass starts after this, even short of MIN_SAMPLES

# Spans whose self times add up to what one `analyze` call does.
ANALYZE_SPANS = {
    "harness.load_scenario", "frontend.parse_program", "frontend.apply_sidecar",
    "frontend.entry_candidates", "mir.find_method", "pointsto.pa_entry_points",
    "pointsto.solve", "cha.build_cha_graph", "engine.detect",
    "reporting.build_reports", "reporting.render_text",
}


class _Node:
    __slots__ = ("key", "prev", "weight")

    def __init__(self, key, prev, weight):
        self.key = key
        self.prev = prev
        self.weight = weight


def _calibration_work(rounds: int = 9000) -> int:
    """Fixed pure-Python work with the analyzer's mix of operations:
    tuple-keyed dicts, small objects, attribute reads, isinstance and calls."""
    table: dict = {}
    nodes: list = []
    prev = None
    acc = 0
    for i in range(rounds):
        key = ("l", f"m{i % 31}", i % 17)
        table[key] = table.get(key, 0) + 1
        prev = _Node(key, prev, i & 7)
        nodes.append(prev)
        if isinstance(prev.prev, _Node) and prev.prev.weight == prev.weight:
            acc += 1
    for node in nodes[::3]:
        acc += table[node.key] + len(node.key[1])
    return acc


class Speed:
    """How fast the machine runs Python while an operation is timed.

    On a shared host the same work can take from 1 to 3 times as long from
    one second to the next. A fixed calibration loop is timed before every
    measured operation and once after the last. An operation timed right
    after calibration i is scaled by REFERENCE_S over the median of the
    calibrations i - 2 to i + 3, i.e. to a machine on which the loop takes
    REFERENCE_S. The report prints raw times beside the scaled ones.
    """

    REFERENCE_S = 0.010
    WINDOW = (2, 3)  # calibrations before and after the operation's own

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the calibration loop; returns the sample's index."""
        t0 = time.perf_counter()
        _calibration_work()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def scaled(self, timings: list[tuple[float, int]]) -> list[float]:
        """(raw time, index of the calibration before it) -> scaled times."""
        before, after = self.WINDOW
        return [t * self.REFERENCE_S / statistics.median(self.samples[max(0, i - before):i + after + 1])
                for t, i in timings]

    def factor(self) -> float:
        """One scale for the whole run, for times not bracketed by calibrations."""
        return self.REFERENCE_S / statistics.median(self.samples)


class Failures:
    """Operations attempted and the problems seen, for `failed_share`."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


# ---------------------------------------------------------------------------
# Set-up


def _purge_modules() -> None:
    for name in list(sys.modules):
        if name == "oadetect" or name.startswith("oadetect.") or name == "workloads":
            del sys.modules[name]


def set_up(workload: str, seed: int, workdir: Path, speed: Speed):
    """Import the package and generate the workload, SETUP_REPS times.

    Returns the last workload and the set-up times in seconds, each with
    the index of the calibration sample before it.
    """
    times: list[tuple[float, int]] = []
    wl = None
    for rep in range(SETUP_REPS):
        if wl is not None:
            shutil.rmtree(wl.root)
        _purge_modules()
        gc.collect()
        cal = speed.sample()
        t0 = time.perf_counter()
        importlib.import_module("oadetect.cli")
        workloads = importlib.import_module("workloads")
        wl = workloads.build_workload(workload, workdir / f"inputs{rep}", seed)
        times.append((time.perf_counter() - t0, cal))
    speed.sample()
    return wl, times


def _check_import() -> None:
    mod = sys.modules["oadetect"]
    if not Path(mod.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"oadetect imported from {mod.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Calls into the command line, and their checks


def analyze_argv(wl, spec) -> list[str]:
    argv = ["analyze", "--deterministic", *wl.budget_flags()]
    for m in MODES:
        argv += ["--mode", m]
    return argv + [str(spec.directory)]


def corpus_argv(wl, outdir: Path) -> list[str]:
    return ["corpus", "--deterministic", "--reps", "1", "--modes", ",".join(MODES),
            *wl.budget_flags(), "--root", str(wl.root), "--out", str(outdir)]


def call_cli(main, argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


def expected_exit(verdicts) -> int:
    verdicts = list(verdicts)
    if "true" in verdicts:
        return 1
    return 2 if "timeout" in verdicts else 0


def printed_verdicts(text: str) -> dict[str, dict[str, str]]:
    """`== Class.method() [mode] verdict: v` lines as {Class.method: {mode: v}}."""
    out: dict[str, dict[str, str]] = {}
    for line in text.splitlines():
        if line.startswith("== "):
            head, _, verdict = line[3:].rpartition(" verdict: ")
            display, _, mode = head.rpartition(" [")
            out.setdefault(display.removesuffix("()"), {})[mode.rstrip("]")] = verdict
    return out


def verdict_problems(spec, got: dict[str, dict[str, str]]) -> list[str]:
    problems = [f"{e}: modes {sorted(v)}" for e, v in got.items() if sorted(v) != sorted(MODES)]
    if not got:
        problems.append("no verdicts")
    if spec.expected is not None:
        want = spec.expected
        if "*" in want:
            want = {e: want["*"] for e in got} if len(got) == 1 else {"*": want["*"]}
        if got != want:
            problems.append(f"verdicts {got} != expected {want}")
    return problems


def check_analyze(spec, rc: int, text: str) -> list[str]:
    got = printed_verdicts(text)
    problems = verdict_problems(spec, got)
    want_rc = expected_exit(v for per in got.values() for v in per.values())
    if rc != want_rc:
        problems.append(f"exit code {rc}, verdicts say {want_rc}")
    return problems


def records_by_scenario(records: list[dict]) -> dict[str, dict[str, dict[str, dict]]]:
    """records -> scenario unit id -> entry ("Class.method" or "*") -> mode -> record."""
    out: dict = {}
    for r in records:
        sid, _, entry = r["unit"].partition("#")
        key = entry.split("/")[0] if entry else "*"
        out.setdefault(sid, {}).setdefault(key, {})[r["mode"]] = r
    return out


def _conflict_keys(rec: dict) -> set:
    return {(c["element"], c["over_line"], c["under_line"]) for c in rec["conflicts"]}


def check_corpus(wl, rc: int, records: list[dict]) -> list[str]:
    problems: list[str] = []
    want_rc = expected_exit(r["verdict"] for r in records)
    if rc != want_rc:
        problems.append(f"exit code {rc}, verdicts say {want_rc}")
    grouped = records_by_scenario(records)
    for spec in wl.scenarios:
        per_entry = grouped.get(spec.unit_id)
        if per_entry is None:
            problems.append(f"{spec.unit_id}: no records")
            continue
        got = {e: {m: r["verdict"] for m, r in per_mode.items()} for e, per_mode in per_entry.items()}
        problems += [f"{spec.unit_id}: {p}" for p in verdict_problems(spec, got)]
        for entry, per_mode in per_entry.items():
            pa, hy = per_mode.get("pa"), per_mode.get("hybrid")
            if pa and hy and "timeout" not in (pa["verdict"], hy["verdict"]):
                if not _conflict_keys(pa) <= _conflict_keys(hy):
                    problems.append(f"{spec.unit_id} {entry}: pa conflicts not within hybrid")
    return problems


def oracle_checks(wl, failures: Failures) -> None:
    """Points-to and CHA soundness against the interpreter, mkref-free programs only."""
    from oadetect.cha import build_cha_graph
    from oadetect.harness import load_scenario, scenario_units
    from oadetect.interp import interpret
    from oadetect.mir import find_method
    from oadetect.pointsto import MISS, pts_of, solve

    for spec in wl.scenarios:
        if spec.program_seed is None or spec.mkref:
            continue
        problems: list[str] = []
        try:
            program, _ = scenario_units(load_scenario(spec.directory))
            main = find_method(program, "Main.main")
            result = solve(program)
            cha = build_cha_graph(program, main)
            trace = interpret(program, main, step_limit=3000)
        except Exception as e:  # a crash is a failed check, reported, not fatal
            failures.record(f"oracle {spec.unit_id}", [repr(e)])
            continue
        for mid, local, site in trace.bindings:
            got = pts_of(result, (mid, local))
            if got is MISS or site not in got:
                problems.append(f"points-to misses site {site} for {mid}:{local}")
        cha_edges = {(e.site, e.target) for e in cha.edges}
        problems += [f"CHA misses {t} at {pos}" for pos, t in trace.dispatches if (pos, t) not in cha_edges]
        for pos in {e.site for e in result.callgraph.edges}:
            if cha.has_site(pos) and not set(result.callgraph.targets_at(pos)) <= set(cha.targets_at(pos)):
                problems.append(f"points-to targets outside CHA at {pos}")
        failures.record(f"oracle {spec.unit_id}", problems)


# ---------------------------------------------------------------------------
# Timed run


def timed_run(wl, workdir: Path, seconds: float, failures: Failures, speed: Speed) -> dict:
    main = sys.modules["oadetect.cli"].main
    outdir = workdir / "tables"
    gate: list[tuple[float, int]] = []
    corpus: list[tuple[float, int]] = []
    corpus_verdicts: list[int] = []
    verdicts_total = decided = 0
    first_text: dict[str, str] = {}
    first_records = None
    passes = 0
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if passes and (elapsed >= TIME_LIMIT_S or (elapsed >= seconds and len(gate) >= MIN_SAMPLES)):
            break
        for spec in wl.scenarios:
            gc.collect()  # each call starts from a clean heap, as a fresh CI process would
            cal = speed.sample()
            try:
                rc, text, dt = call_cli(main, analyze_argv(wl, spec))
            except Exception as e:  # counted as a failed operation
                failures.record(f"analyze {spec.unit_id}", [repr(e)])
                continue
            gate.append((dt, cal))
            problems = check_analyze(spec, rc, text)
            if first_text.setdefault(spec.unit_id, text) != text:
                problems.append("output differs from the first pass")
            failures.record(f"analyze {spec.unit_id}", problems)
        gc.collect()
        cal = speed.sample()
        try:
            rc, _, dt = call_cli(main, corpus_argv(wl, outdir))
            raw = (outdir / "records.jsonl").read_text()
        except Exception as e:  # counted as a failed operation
            failures.record("corpus", [repr(e)])
            passes += 1
            continue
        records = [json.loads(line) for line in raw.splitlines()]
        corpus.append((dt, cal))
        corpus_verdicts.append(len(records))
        verdicts_total += len(records)
        decided += sum(r["verdict"] != "timeout" for r in records)
        problems = check_corpus(wl, rc, records)
        if first_records is None:
            first_records = raw
        elif raw != first_records:
            problems.append("records.jsonl differs from the first pass")
        failures.record("corpus", problems)
        passes += 1
    speed.sample()
    return {
        "passes": passes,
        "gate": gate,
        "corpus": corpus,
        "corpus_verdicts": corpus_verdicts,
        "verdicts": verdicts_total,
        "decided": decided,
        "records": first_records or "",
    }


def report_records(records_text: str) -> None:
    records = [json.loads(line) for line in records_text.splitlines()]
    for mode in MODES:
        counts = {v: 0 for v in ("true", "false", "timeout")}
        for r in records:
            if r["mode"] == mode:
                counts[r["verdict"]] += 1
        print(f"verdicts {mode}: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    digest = hashlib.sha256(records_text.encode()).hexdigest()
    print(f"records.jsonl sha256 {digest} ({len(records)} records)")


# ---------------------------------------------------------------------------
# Traced run


class LayerRun:
    """Verdicts, programs and unit results gathered by one layer pass."""

    def __init__(self) -> None:
        self.verdicts: dict[str, dict[str, dict[str, str]]] = {}
        self.programs: list = []
        self.results: list = []


def layer_scenario(spec, budget, tracer, acc: LayerRun) -> None:
    """The work of one `analyze` call, one public layer call at a time.

    Like `harness.run_scenario`, it shares one points-to solve per scenario
    and one CHA graph per entry. It also drains `enumerate_write_paths` for
    every unit and mode, so that detection splits into enumeration and scan.
    """
    from oadetect import cha, engine, frontend, harness, mir, pointsto, reporting

    sid = spec.unit_id
    with tracer.span("bench.scenario", sid):
        with tracer.span("harness.load_scenario"):
            s = harness.load_scenario(spec.directory)
        with tracer.span("frontend.parse_program") as counts:
            program = frontend.parse_program(s.sources)
            counts["lines"] = sum(u.line_count for u in s.sources)
        if s.sidecar is not None:
            with tracer.span("frontend.apply_sidecar"):
                frontend.apply_sidecar(program, s.sidecar)
        if s.entry:
            with tracer.span("mir.find_method"):
                entries = [mir.find_method(program, s.entry)]
        else:
            with tracer.span("frontend.entry_candidates"):
                entries = frontend.entry_candidates(program)
        with tracer.span("pointsto.pa_entry_points"):
            roots = pointsto.pa_entry_points(program)
        with tracer.span("pointsto.solve") as counts:
            pts = pointsto.solve(program, roots)
            counts.update(vars=len(pts.pts), sites=len(pts.sites),
                          edges=len(pts.callgraph.edges), unresolved=len(pts.unresolved))
        outcomes = []
        for entry in entries:
            with tracer.span("cha.build_cha_graph") as counts:
                graph = cha.build_cha_graph(program, entry)
                counts.update(nodes=len(graph.nodes), edges=len(graph.edges))
            unit = sid if len(entries) == 1 else f"{sid}#{entry.id}"
            for mode in map(engine.Mode, MODES):
                with tracer.span("engine.detect") as counts:
                    outcome = engine.detect(program, entry, mode, budget=budget, cha=graph, pts=pts)
                    counts.update(paths=outcome.stats.paths, visited=outcome.stats.visited,
                                  conflicts=len(outcome.conflicts), missrefs=len(outcome.missrefs),
                                  timeouts=int(outcome.verdict is engine.Verdict.TIMEOUT))
                with tracer.span("engine.enumerate_write_paths") as counts:
                    paths = events = 0
                    for path in engine.enumerate_write_paths(program, entry, budget, mode, cha=graph, pts=pts):
                        paths += 1
                        events += len(path)
                    counts.update(paths=paths, events=events)
                with tracer.span("reporting.build_reports"):
                    reports = reporting.build_reports(outcome, entry)
                for report in reports:
                    with tracer.span("reporting.render_text"):
                        reporting.render_text(report)
                outcomes.append((unit, mode, outcome))
                acc.verdicts.setdefault(sid, {}).setdefault(
                    entry.display.removesuffix("()"), {})[mode.value] = outcome.verdict.value
                acc.results.append(harness.UnitResult(
                    unit=unit, project=s.project, mode=mode, verdict=outcome.verdict,
                    outcome=outcome, timings_ms=[0.0], ground_truth=s.ground_truth, entry=entry))
        with tracer.span("reporting.emit_records"):
            reporting.emit_records(outcomes)
    acc.programs.append((sid, program))


def layer_tables(acc: LayerRun, tracer, outdir: Path) -> None:
    from oadetect import engine, harness

    with tracer.span("harness.write_tables", "corpus"):
        harness.write_tables(harness.CorpusRun(results=acc.results), [engine.Mode(m) for m in MODES], outdir)


def hierarchy_probe(program, tracer, sid: str) -> None:
    """`subtype_of` over all type pairs, then `implementers_of` and
    `supertypes_of` for every type: the queries CHA and the engine make."""
    from oadetect import mir

    types = [c.name for c in program.classes] + [i.name for i in program.interfaces]
    with tracer.span("mir.hierarchy_probe", sid) as counts:
        related = 0
        for a in types:
            for b in types:
                related += mir.subtype_of(a, b, program)
        for t in types:
            mir.implementers_of(t, program)
            mir.supertypes_of(t, program)
        counts.update(pairs=len(types) ** 2, related=related)


def _sum_counts(spans, name: str, key: str) -> int:
    return sum(sp.counts.get(key, 0) for sp in spans if sp.name == name)


def layer_metrics(spans, untraced_ms: dict[str, float]) -> dict[str, float]:
    from tracing import self_ms_by_name, self_ms_by_scenario

    own = self_ms_by_name(spans)

    def ms(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names)

    parse_s = ms("frontend.parse_program") / 1000.0
    lines = _sum_counts(spans, "frontend.parse_program", "lines")
    enum_paths = _sum_counts(spans, "engine.enumerate_write_paths", "paths")
    events = _sum_counts(spans, "engine.enumerate_write_paths", "events")
    attributed = self_ms_by_scenario(spans, ANALYZE_SPANS)
    return {
        "engine.detect_ms": ms("engine.detect"),
        "engine.enumerate_ms": ms("engine.enumerate_write_paths"),
        "engine.scan_ms": ms("engine.detect") - ms("engine.enumerate_write_paths"),
        "engine.paths": _sum_counts(spans, "engine.detect", "paths"),
        "engine.visited": _sum_counts(spans, "engine.detect", "visited"),
        "engine.events": events,
        "engine.conflicts": _sum_counts(spans, "engine.detect", "conflicts"),
        "engine.missrefs": _sum_counts(spans, "engine.detect", "missrefs"),
        "engine.timeouts": _sum_counts(spans, "engine.detect", "timeouts"),
        "engine.events_per_path": events / enum_paths if enum_paths else 0.0,
        "cha.build_ms": ms("cha.build_cha_graph"),
        "cha.nodes": _sum_counts(spans, "cha.build_cha_graph", "nodes"),
        "cha.edges": _sum_counts(spans, "cha.build_cha_graph", "edges"),
        "mir.hierarchy_ms": ms("mir.hierarchy_probe"),
        "pointsto.solve_ms": ms("pointsto.pa_entry_points", "pointsto.solve"),
        "pointsto.vars": _sum_counts(spans, "pointsto.solve", "vars"),
        "pointsto.sites": _sum_counts(spans, "pointsto.solve", "sites"),
        "pointsto.edges": _sum_counts(spans, "pointsto.solve", "edges"),
        "pointsto.unresolved": _sum_counts(spans, "pointsto.solve", "unresolved"),
        "frontend.parse_ms": ms("frontend.parse_program"),
        "frontend.lines_per_s": lines / parse_s if parse_s else 0.0,
        "frontend.sidecar_ms": ms("frontend.apply_sidecar"),
        "frontend.entries_ms": ms("frontend.entry_candidates", "mir.find_method"),
        "reporting.render_ms": ms("reporting.build_reports", "reporting.render_text"),
        "reporting.records_ms": ms("reporting.emit_records"),
        "harness.load_ms": ms("harness.load_scenario"),
        "harness.tables_ms": ms("harness.write_tables"),
        "cli.unattributed_ms": sum(untraced_ms[s] - attributed.get(s, 0.0) for s in untraced_ms),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name == "trace.overhead_pct":
        return "%"
    return "count"


def traced_run(wl, workdir: Path, seconds: float, failures: Failures, spans_path: Path, speed: Speed) -> dict:
    """Per-layer metrics, the median over passes.

    Each pass times one untraced `analyze` call per scenario and runs the
    layer pipeline for the same scenario twice, with and without spans,
    alternating which goes first; the difference is the tracing overhead.
    """
    from tracing import NullTracer, Tracer, write_spans

    main = sys.modules["oadetect.cli"].main
    budget = sys.modules["oadetect.engine"].AnalysisBudget(wall_clock=None, **wl.budget)
    per_pass: list[dict[str, float]] = []
    all_spans = []
    passes = 0
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < seconds:
        gc.collect()
        untraced_ms: dict[str, float] = {}
        printed: dict[str, dict] = {}
        tracer, null = Tracer(), NullTracer()
        runs = {id(tracer): LayerRun(), id(null): LayerRun()}
        elapsed = {id(tracer): 0.0, id(null): 0.0}
        order = (null, tracer) if passes % 2 == 0 else (tracer, null)
        for spec in wl.scenarios:
            speed.sample()
            try:
                rc, text, dt = call_cli(main, analyze_argv(wl, spec))
            except Exception as e:  # counted as a failed operation
                failures.record(f"analyze {spec.unit_id}", [repr(e)])
                continue
            untraced_ms[spec.unit_id] = dt * 1000.0
            printed[spec.unit_id] = printed_verdicts(text)
            failures.record(f"analyze {spec.unit_id}", check_analyze(spec, rc, text))
            for tr in order:
                t0 = time.perf_counter()
                layer_scenario(spec, budget, tr, runs[id(tr)])
                elapsed[id(tr)] += time.perf_counter() - t0
        for tr in order:
            t0 = time.perf_counter()
            layer_tables(runs[id(tr)], tr, workdir / "tables")
            elapsed[id(tr)] += time.perf_counter() - t0
        traced = runs[id(tracer)]
        for sid, program in traced.programs:
            hierarchy_probe(program, tracer, sid)
        problems = [f"{sid}: layer verdicts {traced.verdicts.get(sid)} != analyze {v}"
                    for sid, v in printed.items() if traced.verdicts.get(sid) != v]
        failures.record("layer pipeline", problems)
        metrics = layer_metrics(tracer.spans, untraced_ms)
        metrics["trace.overhead_pct"] = (elapsed[id(tracer)] / elapsed[id(null)] - 1.0) * 100.0
        per_pass.append(metrics)
        all_spans.append(tracer.spans)
        passes += 1
    write_spans(spans_path, all_spans)
    scale = speed.factor()
    metrics = {}
    for k in per_pass[0]:
        value = statistics.median(p[k] for p in per_pass)
        if k.endswith("_ms"):
            value *= scale
        elif k.endswith("_per_s"):
            value /= scale
        metrics[k] = value
    return {"passes": passes, "metrics": metrics}


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def end_to_end_metrics(res: dict, failures: Failures, setup: list, scale) -> dict:
    """The timed run's metrics; `scale` maps (raw s, calibration index)
    pairs to the seconds that are reported."""
    gate_ms = [t * 1000.0 for t in scale(res["gate"])]
    values = {
        "gate_ms_p50": (statistics.median(gate_ms), "ms"),
        "gate_ms_p90": (statistics.quantiles(gate_ms, n=10)[8], "ms"),
        "units_per_s": (statistics.median(n / t for n, t in zip(res["corpus_verdicts"], scale(res["corpus"]))),
                        "1/s"),
        "decided_share": (res["decided"] / res["verdicts"], "share"),
        "ok_share": (1.0 - failures.failed / failures.attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(scale(setup)), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _raw(timings: list[tuple[float, int]]) -> list[float]:
    return [t for t, _ in timings]


def run_benchmark(args, workdir: Path) -> dict:
    speed = Speed()
    wl, setup = set_up(args.workload, args.seed, workdir, speed)
    _check_import()
    failures = Failures()
    oracle_checks(wl, failures)
    print(f"workload {args.workload} seed {args.seed}: {len(wl.scenarios)} scenarios, "
          f"set-up timed {len(setup)} times")
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        res = traced_run(wl, workdir, args.seconds, failures, spans_path, speed)
        print(f"traced passes {res['passes']}; spans written to {spans_path.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["metrics"].items()}
        for k, v in metrics.items():
            print(f"  {k:28s} {v['value']:14.3f} {v['unit']}")
    else:
        res = timed_run(wl, workdir, args.seconds, failures, speed)
        print(f"passes {res['passes']}: {len(res['gate'])} analyze samples, "
              f"{res['verdicts']} corpus verdicts in {sum(_raw(res['corpus'])):.3f} s")
        report_records(res["records"])
        raw = end_to_end_metrics(res, failures, setup, _raw)
        metrics = end_to_end_metrics(res, failures, setup, speed.scaled)
        print(f"speed: calibration median {statistics.median(speed.samples) * 1000:.3f} ms over "
              f"{len(speed.samples)} samples; times scaled to {Speed.REFERENCE_S * 1000:.0f} ms")
        for k, v in metrics.items():
            print(f"  {k:28s} {v['value']:14.4f} {v['unit']:6s} (raw {raw[k]['value']:.4f})")
    print(f"failed_share {failures.failed / failures.attempted:.6f} "
          f"({failures.failed} of {failures.attempted} operations)")
    for p in failures.problems[:20]:
        print(f"  FAILED {p}")
    return {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = run_benchmark(args, workdir)
    except ImportError as e:
        print(f"cannot import the analyzer from {SRC}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
