from __future__ import annotations

from pathlib import Path

import pytest

from conftest import CONFLICT_THEN_FORKS, NESTED_CALLS
from oadetect import cli
from oadetect.cli import main
from oadetect.frontend import pretty_print
from oadetect.harness import bundled_corpus_dir
from oadetect.randprog import DEFAULT_SEED, generate_program
from oadetect.reporting import parse_records


def corpus_path(name: str) -> str:
    return str(bundled_corpus_dir() / name)


def test_analyze_conflict_exit_code_and_report(capsys):
    code = main(["analyze", "--mode", "nopa", corpus_path("fig1_simple")])
    out = capsys.readouterr().out
    assert code == 1
    assert "overrides" in out
    assert "verdict: true" in out


def test_analyze_precise_mode_clears_false_positive(capsys):
    code = main(["analyze", "--mode", "pa", corpus_path("fig1_advanced")])
    assert code == 0
    assert "verdict: false" in capsys.readouterr().out


def test_analyze_fuel_starved_times_out(capsys):
    code = main(["analyze", "--mode", "nopa", "--fuel", "100", corpus_path("deep_hierarchy")])
    assert code == 2
    assert "verdict: timeout" in capsys.readouterr().out


def test_analyze_timeout_prints_no_report_but_records_the_conflict(tmp_path, capsys):
    # A budget-cut run keeps the conflicts of its completed paths in the
    # records, but only a true verdict may print a report.
    src = tmp_path / "a.mir"
    src.write_text(CONFLICT_THEN_FORKS)
    out_dir = tmp_path / "rec"
    code = main([
        "analyze", "--deterministic", "--mode", "nopa", "--fuel", "300",
        "--out", str(out_dir), str(src),
    ])
    out = capsys.readouterr().out
    assert code == 2
    assert "verdict: timeout" in out
    assert "Interference" not in out
    (record,) = parse_records((out_dir / "records.jsonl").read_text())
    assert record["verdict"] == "timeout"
    assert record["conflicts"] == [{"element": "<A: int g>", "over_line": 5, "under_line": 4}]


def test_analyze_multiple_modes_conflict_wins(capsys):
    code = main(
        ["analyze", "--mode", "nopa", "--mode", "pa", corpus_path("fig1_advanced")]
    )
    assert code == 1  # the conservative mode still reports a conflict
    out = capsys.readouterr().out
    assert "[nopa] verdict: true" in out
    assert "[pa] verdict: false" in out


def test_analyze_writes_records(tmp_path, capsys):
    out_dir = tmp_path / "rec"
    code = main(
        ["analyze", "--mode", "pa", "--out", str(out_dir), corpus_path("fig1_simple")]
    )
    capsys.readouterr()
    assert code == 1
    assert (out_dir / "records.jsonl").read_text().count("\n") == 1


def test_analyze_scenario_dir_uses_manifest_sidecar(tmp_path, capsys):
    import json

    d = tmp_path / "scn"
    d.mkdir()
    (d / "a.mir").write_text("class A {\n  method m() {\n    x = 1;\n    x = 2;\n  }\n}\n")
    (d / "map.json").write_text(
        json.dumps({"left": [{"file": "a.mir", "line": 3}], "right": [{"file": "a.mir", "line": 4}]})
    )
    (d / "scenario.json").write_text(
        json.dumps({"id": "s", "project": "p", "sources": ["a.mir"], "sidecar": "map.json"})
    )
    code = main(["analyze", "--mode", "nopa", str(d)])
    assert code == 1
    assert "assigning to variable x in A.m()" in capsys.readouterr().out


def test_usage_error_exit_code(capsys):
    # argparse used to print its usage block before the `error:` line.
    cases = [
        (["analyze"], "the following arguments are required: sources"),
        (["no-such-command"], "invalid choice: 'no-such-command'"),
        (["analyze", "--mode", "zz", corpus_path("fig1_simple")], "--mode: 'zz' is not a valid mode"),
        (["analyze", "--fuel", "x", corpus_path("fig1_simple")], "argument --fuel: invalid int value: 'x'"),
        (["corpus", "--modes", "nopa"], "the following arguments are required: --root"),
    ]
    for argv, fragment in cases:
        _assert_one_line_usage_error(main(argv), capsys.readouterr(), fragment)


def test_help_exits_0(capsys):
    assert main(["corpus", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: oadetect corpus")


def test_top_level_help_is_a_short_description(capsys):
    # It used to print the whole module docstring, internal names included.
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: oadetect")
    assert "Exit codes: 0 no conflict, 1 a conflict, 2 a timeout" in out
    assert "harness.run_scenario" not in out
    assert "builds only the parser" not in out


# `main` builds the parser of the subcommand its first word names; on each
# of these it must act as the parser of all four subcommands does.
FULL_PARSER_PROBES = [
    [],
    ["-h"],
    *([name, "-h"] for name in cli.COMMANDS),
    ["no-such-command"],
    ["-x", "analyze", "a.mir"],
    *([name] for name in cli.COMMANDS),
    ["analyze", "--fuel", "x", "a.mir"],
    ["corpus", "--root", "a", "--modes", "nopa,zz"],
    ["dump-graph", "--mode", "hybrid", "a.mir"],
]


@pytest.mark.parametrize("argv", FULL_PARSER_PROBES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_acts_as_the_full_parser(argv, capsys, monkeypatch):
    got = main(argv), capsys.readouterr()
    build_all = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda names: build_all())
    assert (main(argv), capsys.readouterr()) == got


def test_analyze_builds_no_other_subcommand(monkeypatch, capsys):
    def refuse(sub):
        raise AssertionError("built the parser of a subcommand main does not run")

    for name, command in list(cli.COMMANDS.items()):
        if name != "analyze":
            monkeypatch.setitem(cli.COMMANDS, name, command._replace(add_arguments=refuse))
    assert main(["analyze", "--mode", "nopa", corpus_path("fig1_simple")]) == 1
    assert "verdict: true" in capsys.readouterr().out


# A virtual call whose method no class provides used to make the CHA graph
# raise, so nopa and hybrid exited 3 on programs the parser accepts.

@pytest.mark.parametrize("offset", [3023, 3083])
def test_analyze_decides_suite_programs_calling_a_method_no_class_provides(offset, tmp_path, capsys):
    # Pinned to the default OA_SEED, which generated the two programs.
    gen = generate_program(DEFAULT_SEED + offset, mkref=True, mark_changes=True)
    src = tmp_path / "gen.mir"
    src.write_text(pretty_print(gen.program))
    entry = f"{gen.entry.declaring_class}.{gen.entry.name}"
    for mode in ("nopa", "pa", "hybrid"):
        code = main(["analyze", "--deterministic", "--mode", mode, "--entry", entry, str(src)])
        assert code in (0, 1, 2), capsys.readouterr().err
    assert capsys.readouterr().err == ""


NO_PROVIDER = (
    "interface I {\n  method m();\n}\n"
    "class A {\n  method run() {\n    x = 1 @L;\n    r = mkref I;\n    call r.m();\n    x = 2 @R;\n  }\n}\n"
)


def test_call_no_class_provides_has_no_targets_and_completes(tmp_path, capsys):
    src = tmp_path / "a.mir"
    src.write_text(NO_PROVIDER)
    for mode in ("nopa", "hybrid"):
        # The call completes, so the writes on either side of it conflict.
        assert main(["analyze", "--deterministic", "--mode", mode, str(src)]) == 1
        assert f"[{mode}] verdict: true" in capsys.readouterr().out
    assert main(["dump-graph", "--mode", "nopa", "--entry", "A.run", str(src)]) == 0
    assert capsys.readouterr() == ("", "")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mir"
    bad.write_text("class A {\n  field x: int\n}\n")
    assert main(["analyze", "--mode", "nopa", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


def test_dump_graph_edge_format(capsys):
    code = main(
        ["dump-graph", "--mode", "nopa", "--entry", "Text.generateReport", corpus_path("fig1_simple")]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "Text.generateReport/0\tText.mir:8\tReportSimple.countDupWords/0" in lines
    for line in lines:
        caller, site, target = line.split("\t")
        assert ":" in site


def test_dump_pts_sections(capsys):
    code = main(["dump-pts", corpus_path("mkref")])
    assert code == 0
    out = capsys.readouterr().out
    assert "#MISS" in out
    assert "Main.main/0::t\t{0}" in out


def test_corpus_runs_and_writes_tables(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    code = main(
        [
            "corpus",
            "--root", str(bundled_corpus_dir()),
            "--modes", "nopa,pa",
            "--reps", "2",
            "--fuel", "10000",
            "--deterministic",
            "--out", str(out_dir),
        ]
    )
    assert code == 1  # conflicts reported somewhere in the corpus
    out = capsys.readouterr().out
    assert "deep-hierarchy\tnopa\ttimeout" in out
    assert "fig1_simple\tnopa\ttrue" in out
    for name in ("records.jsonl", "confusion.csv", "metrics.csv", "transitions.csv", "histogram.csv", "timing.csv"):
        assert (out_dir / name).exists()
    confusion = (out_dir / "confusion.csv").read_text().splitlines()
    assert confusion[0] == "mode,tp,fp,tn,fn,excluded"
    # fig1_simple true/true, fig1_advanced true/false, mkref true/false,
    # deep-hierarchy excluded by its timeout under the conservative mode.
    assert confusion[1] == "nopa,2,1,0,0,1"
    assert confusion[2] == "pa,1,0,1,1,1"


def test_corpus_accepts_single_scenario_root(tmp_path, capsys):
    out_dir = tmp_path / "one"
    code = main(
        [
            "corpus",
            "--root", corpus_path("fig1_advanced"),
            "--modes", "nopa,pa",
            "--reps", "1",
            "--deterministic",
            "--out", str(out_dir),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "fig1_advanced\tnopa\ttrue" in out
    assert "fig1_advanced\tpa\tfalse" in out


def _refuse_analysis(*args, **kwargs):
    raise AssertionError("analysis ran before --out was checked")


def test_analyze_bad_out_exits_3_before_any_report(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr("oadetect.cli.run_scenario", _refuse_analysis)
    code = main(["analyze", "--mode", "nopa", "--out", str(taken), corpus_path("fig1_simple")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and "File exists" in line


def test_corpus_bad_out_exits_3_before_the_run(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr("oadetect.cli.run_corpus", _refuse_analysis)
    code = main(["corpus", "--root", str(bundled_corpus_dir()), "--reps", "1", "--deterministic",
                 "--out", str(taken)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and "File exists" in line


def test_dump_graph_points_to_mode(capsys):
    code = main(["dump-graph", "--mode", "pa", corpus_path("fig1_advanced")])
    assert code == 0
    out = capsys.readouterr().out
    assert "ReportAdvanced.countDupWords/0" in out
    assert "ReportSimple.countDupWords/0" not in out


def test_missing_file_exit_code(capsys):
    assert main(["analyze", "--mode", "nopa", "/nonexistent/x.mir"]) == 3
    assert "error:" in capsys.readouterr().err


def test_corpus_deterministic_reruns_identical(tmp_path, capsys):
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        main(
            [
                "corpus",
                "--root", str(bundled_corpus_dir()),
                "--modes", "nopa,pa,hybrid",
                "--reps", "2",
                "--fuel", "10000",
                "--deterministic",
                "--out", str(out_dir),
            ]
        )
        capsys.readouterr()
        outputs.append(
            {
                f.name: f.read_bytes()
                for f in sorted(Path(out_dir).iterdir())
            }
        )
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        # Before validation, a negative depth gave verdict false and exit 0.
        ("--depth", "-3", "--depth must be at least 0, got -3"),
        ("--fuel", "0", "--fuel must be at least 1, got 0"),
        ("--path-cap", "0", "--path-cap must be at least 1, got 0"),
        ("--timeout", "0", "--timeout must be positive, got 0.0"),
        ("--timeout", "-1", "--timeout must be positive, got -1.0"),
    ],
)
def test_analyze_rejects_out_of_range_budget(flag, value, message, capsys):
    code = main(["analyze", "--deterministic", "--mode", "nopa", flag, value, corpus_path("fig1_simple")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("flag, value", [("--reps", "0"), ("--path-cap", "0")])
def test_corpus_rejects_out_of_range_budget(flag, value, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["corpus", "--deterministic", "--root", corpus_path("fig1_simple"), "--out", str(out), flag, value])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: {flag} must be ") and err.count("\n") == 1
    assert not out.exists()


def test_corpus_rejects_unknown_mode(tmp_path, capsys):
    # `Mode("zz")` used to raise ValueError after parsing: a traceback, exit 1.
    out = tmp_path / "out"
    code = main(["corpus", "--deterministic", "--root", corpus_path("fig1_simple"), "--out", str(out),
                 "--modes", "nopa,zz"])
    fragment = "--modes: 'zz' is not a valid mode; choose from nopa, pa, hybrid"
    _assert_one_line_usage_error(code, capsys.readouterr(), fragment)
    assert not out.exists()


def test_corpus_without_scenarios_exits_3(tmp_path, capsys):
    code = main(["corpus", "--root", str(tmp_path), "--out", str(tmp_path / "out")])
    _assert_one_line_usage_error(code, capsys.readouterr(), f"no scenarios under {tmp_path}")


def test_dump_graph_without_an_entry_exits_3(tmp_path, capsys):
    src = tmp_path / "a.mir"
    src.write_text("class A {\n  method m() {\n  }\n}\n")
    code = main(["dump-graph", "--mode", "nopa", str(src)])
    _assert_one_line_usage_error(code, capsys.readouterr(), "an entry is required for the hierarchy-based graph")


def test_corpus_rejects_a_repeated_mode(tmp_path, capsys):
    # A repeated mode used to run every unit once per repeat and write a
    # `nopa,nopa` transitions table.
    out = tmp_path / "out"
    code = main(["corpus", "--deterministic", "--root", corpus_path("fig1_simple"), "--out", str(out),
                 "--modes", "nopa,pa,nopa"])
    _assert_one_line_usage_error(code, capsys.readouterr(), "--modes: mode 'nopa' is given twice")
    assert not out.exists()


def test_analyze_rejects_a_repeated_mode(capsys):
    # A repeated mode used to print each verdict twice.
    code = main(["analyze", "--deterministic", "--mode", "pa", "--mode", "nopa", "--mode", "pa",
                 corpus_path("fig1_simple")])
    _assert_one_line_usage_error(code, capsys.readouterr(), "--mode: mode 'pa' is given twice")


def test_analyze_accepts_zero_depth(capsys):
    # Depth 0 inlines no call, which hides fig1_simple's conflict in a callee.
    code = main(["analyze", "--deterministic", "--mode", "nopa", "--depth", "0", corpus_path("fig1_simple")])
    assert code == 0
    assert "verdict: false" in capsys.readouterr().out


def _scenario_dir(root: Path, manifest_text: str) -> Path:
    d = root / "scn"
    d.mkdir()
    (d / "a.mir").write_text("class A {\n  method m() {\n    x = 1 @L;\n    x = 2 @R;\n  }\n}\n")
    (d / "scenario.json").write_text(manifest_text)
    return d


def _assert_one_line_usage_error(code, captured, fragment: str) -> None:
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert fragment in captured.err


# Before the manifest and sidecar were checked, each of these ended in a
# traceback and exit 1, the code that means "conflict found".


def test_analyze_manifest_without_sources_exits_3(tmp_path, capsys):
    d = _scenario_dir(tmp_path, '{"id": "s"}')
    code = main(["analyze", "--mode", "nopa", str(d)])
    _assert_one_line_usage_error(code, capsys.readouterr(), "missing 'sources'")


def test_analyze_manifest_not_json_exits_3(tmp_path, capsys):
    d = _scenario_dir(tmp_path, '{"id": "s", "sources": ["a.mir"]')
    code = main(["analyze", "--mode", "nopa", str(d)])
    _assert_one_line_usage_error(code, capsys.readouterr(), "invalid JSON")


def test_analyze_sidecar_of_wrong_shape_exits_3(tmp_path, capsys):
    src = tmp_path / "a.mir"
    src.write_text("class A {\n  method m() {\n    x = 1;\n    x = 2;\n  }\n}\n")
    sidecar = tmp_path / "map.json"
    sidecar.write_text('{"left": 5}')
    code = main(["analyze", "--mode", "nopa", "--sidecar", str(sidecar), str(src)])
    _assert_one_line_usage_error(code, capsys.readouterr(), "sidecar 'left' must be a list")


def _corpus_with_bad_scenario(root: Path, manifest_text: str) -> Path:
    """fig1_simple beside a scenario directory `scn` holding `manifest_text`."""
    import shutil

    root.mkdir()
    shutil.copytree(bundled_corpus_dir() / "fig1_simple", root / "fig1_simple")
    return _scenario_dir(root, manifest_text)


def _assert_scenario_error_beside_fig1_simple(code, captured, out: Path, fragment: str) -> None:
    """The bad scenario costs only its own units: fig1_simple still runs."""
    assert code == 3
    (line,) = captured.err.splitlines()
    assert line.startswith("scenario error: scn: ") and fragment in line
    assert "fig1_simple\tnopa\ttrue" in captured.out
    assert (out / "records.jsonl").read_text().count("\n") == 2
    assert (out / "confusion.csv").exists()


def test_corpus_with_a_bad_manifest_exits_3(tmp_path, capsys):
    root = tmp_path / "corpus"
    _corpus_with_bad_scenario(root, '{"id": "s"}')
    out = tmp_path / "out"
    code = main(["corpus", "--deterministic", "--reps", "1", "--root", str(root), "--out", str(out)])
    _assert_scenario_error_beside_fig1_simple(code, capsys.readouterr(), out, "missing 'sources'")


def test_corpus_with_a_line_break_in_an_id_exits_3(tmp_path, capsys):
    # The id is the unit name of the `unit<TAB>mode<TAB>verdict` lines on
    # stdout; "a\nb" used to split one of them in two.
    root = tmp_path / "corpus"
    _corpus_with_bad_scenario(root, '{"id": "a\\nb", "sources": ["a.mir"]}')
    out = tmp_path / "out"
    code = main(["corpus", "--deterministic", "--reps", "1", "--root", str(root), "--out", str(out)])
    captured = capsys.readouterr()
    _assert_scenario_error_beside_fig1_simple(code, captured, out, "'id' must hold no line break")
    assert captured.out.count("\tnopa\t") == 1


@pytest.mark.parametrize(
    "manifest, fragment",
    [
        ('["a.mir"]', "manifest must be a JSON object"),
        ('{"sources": ["a.mir"]}', "missing 'id'"),
        ('{"id": "s", "sources": "a.mir"}', "'sources' must be a list of file names"),
        ('{"id": "s", "sources": [1]}', "'sources' must be a list of file names"),
        ('{"id": "s", "sources": ["a.mir"], "entry": 5}', "'entry' must be a string or null"),
        ('{"id": "s", "sources": ["a.mir"], "sidecar": {}}', "'sidecar' must be a string or null"),
        ('{"id": "s", "sources": ["a.mir"], "ground_truth": true}', "'ground_truth' must be"),
        ('{"id": "a\\nb", "sources": ["a.mir"]}', "'id' must hold no line break, tab or other control"),
        ('{"id": "s", "project": "p\\tq", "sources": ["a.mir"]}', "'project' must hold no line break"),
        ('{"id": "s\\u0000", "sources": ["a.mir"]}', 'got "s\\u0000"'),
    ],
)
def test_analyze_rejects_malformed_manifest(manifest, fragment, tmp_path, capsys):
    d = _scenario_dir(tmp_path, manifest)
    code = main(["analyze", "--mode", "nopa", str(d)])
    _assert_one_line_usage_error(code, capsys.readouterr(), fragment)


# A non-numeric arity used to raise ValueError from int() in find_method,
# a traceback with exit 1.


def test_analyze_entry_with_bad_arity_exits_3(capsys):
    code = main(["analyze", "--deterministic", "--entry", "Text.m/x", corpus_path("fig1_simple")])
    _assert_one_line_usage_error(code, capsys.readouterr(), "bad arity in method reference 'Text.m/x'")


def test_analyze_manifest_entry_with_bad_arity_exits_3(tmp_path, capsys):
    d = _scenario_dir(tmp_path, '{"id": "s", "sources": ["a.mir"], "entry": "A.m/one"}')
    code = main(["analyze", "--deterministic", "--mode", "nopa", str(d)])
    _assert_one_line_usage_error(code, capsys.readouterr(), "bad arity in method reference 'A.m/one'")


def test_corpus_with_a_failing_scenario_exits_3_and_writes_tables(tmp_path, capsys):
    # A scenario that fails to parse used to leave the corpus exit code at 0.
    import shutil

    root = tmp_path / "corpus"
    root.mkdir()
    shutil.copytree(bundled_corpus_dir() / "fig1_advanced", root / "fig1_advanced")
    bad = _scenario_dir(root, '{"id": "bad", "sources": ["a.mir"]}')
    (bad / "a.mir").write_text("class A {\n  field x: int\n}\n")
    out = tmp_path / "out"
    code = main(["corpus", "--deterministic", "--reps", "1", "--modes", "pa", "--root", str(root), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "scenario error: bad: a.mir:3: expected ';', found '}'" in captured.err
    assert "fig1_advanced\tpa\tfalse" in captured.out
    assert (out / "records.jsonl").read_text().count("\n") == 1
    assert (out / "confusion.csv").exists()


def test_corpus_with_a_repeated_unit_id_exits_3(tmp_path, capsys):
    # A second scenario under an id that already ran used to overwrite the
    # first one's unit in every table while both stayed in the records.
    import json
    import shutil

    root = tmp_path / "corpus"
    root.mkdir()
    shutil.copytree(bundled_corpus_dir() / "fig1_simple", root / "fig1_simple")
    twin = root / "twin"
    shutil.copytree(bundled_corpus_dir() / "fig1_advanced", twin)
    manifest = json.loads((twin / "scenario.json").read_text())
    (twin / "scenario.json").write_text(json.dumps({**manifest, "id": "fig1_simple"}))
    out = tmp_path / "out"
    code = main(["corpus", "--deterministic", "--reps", "1", "--modes", "nopa,pa", "--root", str(root), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    (line,) = captured.err.splitlines()
    assert line.startswith("scenario error: fig1_simple: ") and str(twin) in line
    assert captured.out.splitlines()[:2] == ["fig1_simple\tnopa\ttrue", "fig1_simple\tpa\ttrue"]
    assert captured.out.count("\t") == 4
    assert (out / "records.jsonl").read_text().count("\n") == 2
    confusion = (out / "confusion.csv").read_text().splitlines()
    assert confusion[1:] == ["nopa,1,0,0,0,0", "pa,1,0,0,0,0"]


def test_corpus_deterministic_skips_wilcoxon(tmp_path, capsys):
    code = main(["corpus", "--deterministic", "--reps", "2", "--fuel", "10000",
                 "--root", str(bundled_corpus_dir()), "--out", str(tmp_path / "out")])
    assert code == 1
    out = capsys.readouterr().out
    assert "wilcoxon skipped: insufficient pairs: 0 non-zero differences, need 5\n" in out


def test_corpus_wilcoxon_pairs_are_unit_mean_timings_of_the_first_two_modes(tmp_path, capsys, monkeypatch):
    from oadetect.engine import Mode

    runs, pairs = [], []
    run_corpus, wilcoxon = cli.run_corpus, cli.wilcoxon_signed_rank

    def spy_run(*args, **kwargs):
        runs.append(run_corpus(*args, **kwargs))
        return runs[-1]

    def spy_wilcoxon(given):
        pairs.append(list(given))
        return wilcoxon(given)

    monkeypatch.setattr(cli, "run_corpus", spy_run)
    monkeypatch.setattr(cli, "wilcoxon_signed_rank", spy_wilcoxon)
    main(["corpus", "--reps", "2", "--fuel", "10000", "--modes", "pa,hybrid,nopa",
          "--root", str(bundled_corpus_dir()), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    (run,) = runs

    def mean_timing(unit, mode):
        (r,) = [r for r in run.results if r.unit == unit and r.mode is mode]
        assert len(r.timings_ms) == 2
        return sum(r.timings_ms) / len(r.timings_ms)

    units = list(dict.fromkeys(r.unit for r in run.results))
    assert units == ["deep-hierarchy", "fig1_advanced", "fig1_simple", "mkref"]
    assert pairs == [[(mean_timing(u, Mode.PA), mean_timing(u, Mode.HYBRID)) for u in units]]


# Bytes that are not UTF-8 used to end in a UnicodeDecodeError traceback
# and exit 1, the code that means "conflict found".

NOT_UTF8 = b"class A {\n  method m() {\n    x = 1 @L; // \xff\n  }\n}\n"


def test_analyze_source_not_utf8_exits_3(tmp_path, capsys):
    (tmp_path / "a.mir").write_bytes(NOT_UTF8)
    code = main(["analyze", "--mode", "nopa", str(tmp_path)])
    _assert_one_line_usage_error(code, capsys.readouterr(), "a.mir: not UTF-8 text: byte 42")


def test_analyze_manifest_not_utf8_exits_3(tmp_path, capsys):
    d = _scenario_dir(tmp_path, "")
    (d / "scenario.json").write_bytes(b'{"id": "s\xff", "sources": ["a.mir"]}')
    code = main(["analyze", "--mode", "nopa", str(d)])
    _assert_one_line_usage_error(code, capsys.readouterr(), "scenario.json: not UTF-8 text")


def test_analyze_sidecar_not_utf8_exits_3(tmp_path, capsys):
    sidecar = tmp_path / "map.json"
    sidecar.write_bytes(b'{"left": [\xff]}')
    code = main(["analyze", "--mode", "nopa", "--sidecar", str(sidecar), corpus_path("fig1_simple")])
    _assert_one_line_usage_error(code, capsys.readouterr(), "map.json: not UTF-8 text")


def test_dump_graph_source_not_utf8_exits_3(tmp_path, capsys):
    (tmp_path / "a.mir").write_bytes(NOT_UTF8)
    code = main(["dump-graph", "--entry", "A.m", str(tmp_path / "a.mir")])
    _assert_one_line_usage_error(code, capsys.readouterr(), "a.mir: not UTF-8 text")


def test_corpus_with_a_source_not_utf8_exits_3_and_writes_tables(tmp_path, capsys):
    root = tmp_path / "corpus"
    bad = _corpus_with_bad_scenario(root, '{"id": "s", "sources": ["a.mir"]}')
    (bad / "a.mir").write_bytes(NOT_UTF8)
    out = tmp_path / "out"
    code = main(["corpus", "--deterministic", "--reps", "1", "--root", str(root), "--out", str(out)])
    _assert_scenario_error_beside_fig1_simple(code, capsys.readouterr(), out, "a.mir: not UTF-8 text")


def test_analyze_decides_a_deep_chain_declared_subclass_first(tmp_path, capsys):
    # The validator's cycle check recursed once per link, so a chain this
    # deep ended in a RecursionError traceback and exit 1, the conflict code.
    n = 3000
    chain = "".join(f"class C{i} extends C{i - 1} {{\n}}\n" for i in range(n - 1, 0, -1))
    src = tmp_path / "deep.mir"
    src.write_text(chain + "class C0 {\n}\nclass M {\n  method m() {\n    x = 1 @L;\n    y = 2 @R;\n  }\n}\n")
    for mode in ("nopa", "pa", "hybrid"):
        assert main(["analyze", "--deterministic", "--mode", mode, str(src)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (f"== M.m() [{mode}] verdict: false\n", "")


def test_dump_commands_read_a_scenario_through_its_manifest(tmp_path, capsys):
    # They used to parse every *.mir in the directory, so the unlisted
    # notes.mir, which `analyze` never reads, made them exit 3. The nopa
    # graph needs the sidecar too: without it A.m is no entry.
    import json

    scn = tmp_path / "scn"
    scn.mkdir()
    (scn / "a.mir").write_text(
        "class B {\n  method n() {\n  }\n}\n"
        "class A {\n  method m() {\n    x = 1;\n    x = 2;\n    b = new B();\n    call b.n();\n  }\n}\n"
    )
    (scn / "notes.mir").write_text("not a source file\n")
    (scn / "map.json").write_text(
        json.dumps({"left": [{"file": "a.mir", "line": 7}], "right": [{"file": "a.mir", "line": 8}]})
    )
    (scn / "scenario.json").write_text(
        json.dumps({"id": "s", "project": "p", "sources": ["a.mir"], "sidecar": "map.json"})
    )
    d = str(scn)
    assert main(["analyze", "--mode", "nopa", d]) == 1
    capsys.readouterr()
    edge = "A.m/0\ta.mir:10\tB.n/0\n"
    for mode in ("nopa", "pa"):
        assert main(["dump-graph", "--mode", mode, d]) == 0
        assert capsys.readouterr() == (edge, "")
    assert main(["dump-pts", d]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "A.m/0::b\t{0}" in captured.out


# Without `--out`, `analyze` counts a unit's path tree before enumerating it
# and times the unit out once the count passes the budget.

@pytest.mark.parametrize("name", ["fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy"])
def test_analyze_prints_the_same_with_and_without_out(name, tmp_path, capsys):
    argv = ["analyze", "--deterministic", "--mode", "nopa", "--mode", "pa", "--mode", "hybrid", corpus_path(name)]
    code = main(argv)
    printed = capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "rec")]) == code
    assert capsys.readouterr() == printed
    assert printed.err == ""


def test_analyze_out_still_enumerates_to_the_path_cap(tmp_path, capsys):
    out_dir = tmp_path / "rec"
    assert main(["analyze", "--deterministic", "--mode", "nopa", "--out", str(out_dir), corpus_path("deep_hierarchy")]) == 2
    assert capsys.readouterr().out == "== Driver.run() [nopa] verdict: timeout\n"
    (record,) = parse_records((out_dir / "records.jsonl").read_text())
    assert (record["verdict"], record["visited"], record["paths"]) == ("timeout", 8200, 4097)


def test_analyze_decides_calls_nested_past_the_recursion_limit(tmp_path, capsys):
    # A count that recursed once per nested block would die here with RecursionError.
    src = tmp_path / "nested.mir"
    src.write_text(NESTED_CALLS)
    argv = ["analyze", "--deterministic", "--mode", "nopa", str(src)]
    assert main(argv) == 1
    printed = capsys.readouterr()
    assert printed.out.startswith("== Main.m0() [nopa] verdict: true\n") and printed.err == ""
    assert main(argv + ["--out", str(tmp_path / "rec")]) == 1
    assert capsys.readouterr() == printed


UNRESOLVED_STATIC = (
    "class Main {\n  method main() {\n    x = 1 @L;\n    x = 2 @R;\n  }\n"
    "  method unused() {\n    call Nope::gone();\n  }\n}\n"
)


def test_analyze_rejects_a_static_call_that_names_no_method(tmp_path, capsys):
    # Only CHA or the enumerator found one, so an unreached call left the
    # conflict's exit 1, and one reached after the budget ran out exit 2.
    src = tmp_path / "a.mir"
    src.write_text(UNRESOLVED_STATIC)
    for mode in ("nopa", "pa", "hybrid"):
        assert main(["analyze", "--deterministic", "--mode", mode, str(src)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid program: a.mir:7: static call 'Nope::gone/0' names no method\n"


def test_analyze_reports_the_cycle_of_a_cyclic_class_with_an_unresolved_static_call(tmp_path, capsys):
    # The static-call check looks methods up along the superclass chain; on a
    # cycle it is skipped, so the cycle is reported instead of a hang.
    src = tmp_path / "a.mir"
    src.write_text("class A extends B {\n  static method m() {\n    call A::gone();\n  }\n}\nclass B extends A {\n}\n")
    assert main(["analyze", "--deterministic", str(src)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid program: a.mir:1: inheritance cycle involving 'A'\n"


def test_corpus_reports_a_static_call_that_names_no_method(tmp_path, capsys):
    root = tmp_path / "corpus"
    root.mkdir()
    bad = _scenario_dir(root, '{"id": "bad", "sources": ["a.mir"]}')
    (bad / "a.mir").write_text(UNRESOLVED_STATIC)
    code = main(["corpus", "--deterministic", "--reps", "1", "--modes", "nopa", "--root", str(root), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "scenario error: bad: invalid program: a.mir:7: static call 'Nope::gone/0' names no method\n"
