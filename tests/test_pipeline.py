"""`analyze` runs the same pipeline as `corpus`: one points-to solve per
program and one CHA graph per entry, shared by every mode.

The reference below is the per-unit loop `analyze` used to run, where
`detect` built its own graphs for every entry and mode. Output must not
change: same standard output, exit code and records, byte for byte.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import budget
from oadetect import cha, pointsto
from oadetect.cli import _load_sources, main
from oadetect.engine import Mode, Verdict, detect
from oadetect.frontend import apply_sidecar, entry_candidates, parse_program
from oadetect.harness import bundled_corpus_dir, load_scenario
from oadetect.mir import find_method
from oadetect.reporting import build_reports, emit_records, render_text

MODES = ("nopa", "pa", "hybrid")

# Three dually modified methods; `main` reaches the other two through an
# interface, so both call-graph builders have work to do.
MULTI_ENTRY = """\
interface Sink {
  method put(v);
}
class Box implements Sink {
  field val: int;
  method put(v) {
    this.val = v @L;
    this.val = 0 @R;
  }
}
class Main {
  field static total: int;
  public static method main() {
    b = new Box();
    x = 1 @L;
    call b.put(x) @R;
    Main::total = x @L;
  }
  method tally() {
    Main::total = 1 @L;
    y = op();
    Main::total = 2 @R;
  }
}
"""


@pytest.fixture
def multi_entry(tmp_path) -> Path:
    src = tmp_path / "multi.mir"
    src.write_text(MULTI_ENTRY)
    return src


def reference_analyze(sources: list[Path], modes: list[str]) -> tuple[int, str, str]:
    """Exit code, standard output and records of the old per-unit loop."""
    if len(sources) == 1 and (sources[0] / "scenario.json").exists():
        s = load_scenario(sources[0])
        units, sidecar, entry_ref = s.sources, s.sidecar, s.entry
    else:
        units, sidecar, entry_ref = _load_sources([str(p) for p in sources]), None, None
    program = parse_program(units)
    if sidecar is not None:
        apply_sidecar(program, sidecar)
    entries = [find_method(program, entry_ref)] if entry_ref else entry_candidates(program)
    out = io.StringIO()
    outcomes = []
    verdicts = set()
    for entry in entries:
        for mode in map(Mode, modes):
            outcome = detect(program, entry, mode, budget=budget())
            unit = entry.id if len(entries) > 1 else entry.display
            outcomes.append((f"{unit}:{mode.value}", mode, outcome))
            print(f"== {entry.display} [{mode.value}] verdict: {outcome.verdict.value}", file=out)
            for report in build_reports(outcome, entry):
                print(render_text(report), file=out)
            verdicts.add(outcome.verdict)
    rc = 1 if Verdict.TRUE in verdicts else 2 if Verdict.TIMEOUT in verdicts else 0
    return rc, out.getvalue(), emit_records(outcomes)


@pytest.fixture
def graph_builds(monkeypatch):
    """Counts calls to `pointsto.solve` and `cha.build_cha_graph`, wherever
    a module of the package has imported them."""
    counts = {"solve": 0, "cha": 0}
    originals = {"solve": pointsto.solve, "cha": cha.build_cha_graph}

    def counting(key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return originals[key](*args, **kwargs)

        return wrapper

    wrappers = {key: counting(key) for key in originals}
    for name, module in list(sys.modules.items()):
        if name == "oadetect" or name.startswith("oadetect."):
            for attr, value in list(vars(module).items()):
                for key, original in originals.items():
                    if value is original:
                        monkeypatch.setattr(module, attr, wrappers[key])
    return counts


def run_analyze(sources: list[Path], modes, out_dir: Path) -> tuple[int, str, str]:
    argv = ["analyze", "--deterministic", "--out", str(out_dir)]
    for m in modes:
        argv += ["--mode", m]
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv + [str(p) for p in sources])
    return rc, buf.getvalue(), (out_dir / "records.jsonl").read_text()


def test_one_solve_and_one_cha_graph_per_entry(multi_entry, tmp_path, graph_builds):
    _, out, _ = run_analyze([multi_entry], MODES, tmp_path / "out")
    assert out.count("== ") == 3 * len(MODES)
    assert graph_builds == {"solve": 1, "cha": 3}

    graph_builds.update(solve=0, cha=0)
    reference_analyze([multi_entry], list(MODES))
    assert graph_builds == {"solve": 2 * 3, "cha": 2 * 3}


def test_modes_that_need_no_graph_build_none(multi_entry, tmp_path, graph_builds):
    run_analyze([multi_entry], ["pa"], tmp_path / "pa")
    assert graph_builds == {"solve": 1, "cha": 0}
    graph_builds.update(solve=0, cha=0)
    run_analyze([multi_entry], ["nopa"], tmp_path / "nopa")
    assert graph_builds == {"solve": 0, "cha": 3}


@pytest.mark.parametrize("modes", [MODES, ("pa", "nopa"), ("hybrid",)])
def test_multi_entry_output_matches_reference(multi_entry, tmp_path, modes):
    got = run_analyze([multi_entry], modes, tmp_path / "out")
    assert got == reference_analyze([multi_entry], list(modes))
    assert got[0] == 1


@pytest.mark.parametrize("name", ["fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy"])
def test_bundled_output_matches_reference(name, tmp_path):
    scenario = bundled_corpus_dir() / name
    got = run_analyze([scenario], MODES, tmp_path / "out")
    assert got == reference_analyze([scenario], list(MODES))


def test_flags_take_precedence_over_the_manifest(tmp_path, capsys):
    d = tmp_path / "scn"
    d.mkdir()
    (d / "a.mir").write_text(
        "class A {\n  method m() {\n    x = 1;\n    x = 2;\n  }\n"
        "  method n() {\n    y = 1;\n    y = 2;\n  }\n}\n"
    )
    for name, (left, right) in (("m.json", (3, 4)), ("n.json", (7, 8))):
        sides = {"left": [{"file": "a.mir", "line": left}], "right": [{"file": "a.mir", "line": right}]}
        (d / name).write_text(json.dumps(sides))
    (d / "scenario.json").write_text(
        json.dumps({"id": "s", "sources": ["a.mir"], "sidecar": "m.json", "entry": "A.m"})
    )
    assert main(["analyze", str(d)]) == 1
    assert capsys.readouterr().out.startswith("== A.m() [nopa] verdict: true")
    code = main(["analyze", "--sidecar", str(d / "n.json"), "--entry", "A.n", str(d)])
    assert code == 1
    assert capsys.readouterr().out.startswith("== A.n() [nopa] verdict: true")
