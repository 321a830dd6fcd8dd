"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _path in (str(BENCH), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
import workloads  # noqa: E402
from oadetect.cli import main as cli_main  # noqa: E402
from tracing import Span, self_ms_by_name, self_times_ns  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generators_are_deterministic_per_seed(tmp_path, name):
    a = workloads.build_workload(name, tmp_path / "a", 7)
    b = workloads.build_workload(name, tmp_path / "b", 7)
    assert _tree(a.root) == _tree(b.root)
    assert [(s.unit_id, s.expected) for s in a.scenarios] == [(s.unit_id, s.expected) for s in b.scenarios]


@pytest.mark.parametrize("name", ["scan-random", "wide-hierarchy"])
def test_seed_changes_inputs(tmp_path, name):
    a = workloads.build_workload(name, tmp_path / "a", 1)
    b = workloads.build_workload(name, tmp_path / "b", 2)
    assert _tree(a.root) != _tree(b.root)


def _corpus_records(root: Path, out: Path) -> str:
    argv = ["corpus", "--deterministic", "--reps", "1", "--modes", ",".join(run.MODES),
            "--fuel", "20000", "--path-cap", "512", "--root", str(root), "--out", str(out)]
    run.call_cli(cli_main, argv)
    return (out / "records.jsonl").read_text()


def test_sidecar_twin_gives_inline_records(tmp_path):
    for ps in workloads.scan_program_seeds(8):
        mkref = workloads.scan_mkref(ps)
        inline = tmp_path / f"inline{ps}" / "s"
        sidecar = tmp_path / f"sidecar{ps}" / "s"
        workloads.write_random_scenario(inline, ps, mkref, sidecar=False)
        workloads.write_random_scenario(sidecar, ps, mkref, sidecar=True)
        text = (sidecar / "gen.mir").read_text()
        assert "@L" not in text and "@R" not in text
        assert json.loads((sidecar / "scenario.json").read_text())["sidecar"] == "changes.json"
        want = _corpus_records(inline, tmp_path / f"out-inline{ps}")
        assert want
        assert _corpus_records(sidecar, tmp_path / f"out-sidecar{ps}") == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wide_hierarchy_verdicts_match_construction(tmp_path, seed):
    text, expected = workloads.wide_hierarchy_source(
        random.Random(seed), workloads.WIDE_CLASSES, workloads.WIDE_IFACES)
    assert sorted(map(tuple, (v.values() for v in expected.values()))) == sorted(workloads.SERVICE_KINDS.values())
    (tmp_path / "wide.mir").write_text(text)
    (tmp_path / "scenario.json").write_text(json.dumps({"id": "w", "sources": ["wide.mir"]}))
    rc, out, _ = run.call_cli(cli_main, ["analyze", "--deterministic", "--mode", "nopa",
                                         "--mode", "pa", "--mode", "hybrid", str(tmp_path)])
    assert run.printed_verdicts(out) == expected
    assert rc == 1


def test_self_times_on_hand_built_tree():
    spans = [
        Span(0, "root", 0, 100, None, "s"),
        Span(1, "a", 10, 40, 0, "s"),
        Span(2, "b", 30, 60, 0, "s"),   # overlaps a: the union 10..60 is covered once
        Span(3, "a", 15, 25, 1, "s"),   # grandchild: only its parent loses the time
        Span(4, "c", 90, 120, 0, "s"),  # runs past its parent: clipped to 90..100
    ]
    assert self_times_ns(spans) == {0: 40, 1: 20, 2: 30, 3: 10, 4: 30}
    assert self_ms_by_name(spans) == pytest.approx({"root": 40e-6, "a": 30e-6, "b": 30e-6, "c": 30e-6})


def test_layer_metrics_arithmetic():
    ms = 1_000_000
    spans = [
        Span(0, "bench.scenario", 0, 100 * ms, None, "s1"),
        Span(1, "frontend.parse_program", 0, 10 * ms, 0, "s1", {"lines": 500}),
        Span(2, "engine.detect", 10 * ms, 70 * ms, 0, "s1", {"paths": 4, "timeouts": 1}),
        Span(3, "engine.enumerate_write_paths", 70 * ms, 85 * ms, 0, "s1", {"paths": 4, "events": 10}),
        Span(4, "mir.hierarchy_probe", 0, 5 * ms, None, "s1"),
    ]
    m = run.layer_metrics(spans, {"s1": 90.0})
    assert m["engine.detect_ms"] == pytest.approx(60.0)
    assert m["engine.scan_ms"] == pytest.approx(45.0)
    assert m["engine.events_per_path"] == pytest.approx(2.5)
    assert m["frontend.lines_per_s"] == pytest.approx(50_000.0)
    # analyze time minus parse and detect; enumeration and the probe are not analyze work
    assert m["cli.unattributed_ms"] == pytest.approx(20.0)
    assert m["mir.hierarchy_ms"] == pytest.approx(5.0)


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace):
    out = _bench(ROOT, "--workload", "gate-bundled", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    # Every metric line of the report names a declared metric.
    names = {m["name"] for m in _declared()["end_to_end"] + _declared()["per_layer"]}
    report = [line.split()[0] for line in out.stdout.splitlines() if line.startswith("  ") and "FAILED" not in line]
    assert set(report) <= names


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench(tmp_path, "--workload", "gate-bundled", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
