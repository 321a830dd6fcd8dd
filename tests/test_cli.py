from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFLICT_THEN_FORKS, NESTED_CALLS, copy_chain, extends_chain, parse_records
from oadetect import cli, harness
from oadetect.cli import main
from oadetect.frontend import pretty_print
from oadetect.harness import bundled_corpus_dir
from oadetect.mir import MirError
from oadetect.randprog import DEFAULT_SEED, generate_program


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


def _full_parser_main(argv) -> int:
    """What `main` did with `argv` when it parsed every call with the
    parser of all four subcommands, built with argparse's own help
    formatter: the reference that `main` must act as."""
    parser = cli._Parser(prog="oadetect", description=cli.DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in cli.COMMANDS.items():
        cli._add_arguments(sub.add_parser(name, help=command.help), command.options)
    try:
        args = parser.parse_args(argv)
        return cli.COMMANDS[args.command].run(args)
    except SystemExit:
        return cli.EXIT_FALSE
    except (MirError, OSError) as e:
        print(cli._one_line(f"error: {e}"), file=sys.stderr)
        return cli.EXIT_ERROR


FIG1_SIMPLE = corpus_path("fig1_simple")

# Argv that `_read_args` reads without a parser: the bench's and CI's shapes
# and more. `main` must act on them as the parser of all four does.
READ_PROBES = [
    ["analyze", "--deterministic", "--mode", "nopa", "--mode", "pa", "--mode", "hybrid", FIG1_SIMPLE],
    ["analyze", FIG1_SIMPLE, "--mode", "pa", "--deterministic", "--mode", "pa"],  # options after the sources
    ["analyze", "--depth", "0", "--fuel", "20000", "--timeout", "2.5", "--path-cap", "512", "--deterministic",
     "--entry", "Text.generateReport", FIG1_SIMPLE],
    ["analyze", "--fuel", "5", "--fuel", "200", "--mode", "pa", FIG1_SIMPLE],  # the last value wins
    ["corpus", "--deterministic", "--reps", "1", "--modes", "nopa,pa,hybrid", "--fuel", "20000", "--path-cap",
     "512", "--depth", "3", "--timeout", "9", "--root", "no-such-dir", "--out", "no-such-out"],
    ["dump-graph", "--mode", "pa", "--entry", "Text.generateReport", FIG1_SIMPLE],
    ["dump-graph", "--mode", "nopa", FIG1_SIMPLE],
    ["dump-pts", FIG1_SIMPLE],
]

# Argv on which `_read_args` defers to argparse.
DEFERRED_PROBES = [
    [],
    ["-h"],
    *([name, "-h"] for name in cli.COMMANDS),
    ["no-such-command"],
    ["-x", "analyze", "a.mir"],
    *([name] for name in cli.COMMANDS),
    ["analyze", "--fuel", "x", "a.mir"],
    ["corpus", "--root", "a", "--modes", "nopa,zz"],
    ["dump-graph", "--mode", "hybrid", "a.mir"],
    ["analyze", "--det", FIG1_SIMPLE],  # an abbreviation
    ["analyze", "--mode=pa", FIG1_SIMPLE],
    ["analyze", FIG1_SIMPLE, "--fuel"],  # a missing value
    ["--", "analyze", "--deterministic", FIG1_SIMPLE],
    ["analyze", "--fuel", "-5", FIG1_SIMPLE],  # a negative value argparse reads
    ["analyze", FIG1_SIMPLE, "--deterministic", FIG1_SIMPLE],  # a second run of sources
    ["analyze", "-"],
    ["analyze", "--entry", "--deterministic", FIG1_SIMPLE],
    ["analyze", "--deterministic", "--", FIG1_SIMPLE],
]

FULL_PARSER_PROBES = READ_PROBES + DEFERRED_PROBES


def _probe_id(argv) -> str:
    return " ".join(argv).replace(FIG1_SIMPLE, "fig1_simple") or "no-arguments"


@pytest.mark.parametrize("argv", FULL_PARSER_PROBES, ids=_probe_id)
def test_main_acts_as_the_full_parser(argv, capsys):
    got = main(argv), capsys.readouterr()
    assert (_full_parser_main(argv), capsys.readouterr()) == got


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", [["-h"], ["analyze", "-h"]], ids=" ".join)
def test_help_is_the_full_parsers_at_any_width(argv, columns, capsys, monkeypatch):
    # Every parser reads the width once; argparse's formatter reads it per use.
    monkeypatch.setenv("COLUMNS", columns)
    got = main(argv), capsys.readouterr()
    assert (_full_parser_main(argv), capsys.readouterr()) == got
    assert got[0] == 0 and got[1].out.startswith("usage: oadetect")


def _count_parsers_and_terminal_reads(monkeypatch, run=lambda args: 0):
    """Counts of `ArgumentParser`s made and terminal-size reads, which go up
    as `main` runs, every subcommand's handler replaced by `run`."""
    counts = {"parsers": 0, "sizes": 0}
    make_parser, terminal_size = argparse.ArgumentParser.__init__, shutil.get_terminal_size

    def counted_parser(self, *args, **kwargs):
        counts["parsers"] += 1
        make_parser(self, *args, **kwargs)

    def counted_size(*args, **kwargs):
        counts["sizes"] += 1
        return terminal_size(*args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_parser)
    monkeypatch.setattr(shutil, "get_terminal_size", counted_size)
    for name, command in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, name, command._replace(run=run))
    return counts


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_a_read_subcommand_builds_no_parser_and_reads_no_terminal(name, monkeypatch):
    counts = _count_parsers_and_terminal_reads(monkeypatch)
    argv = {"corpus": ["--root", "a"]}.get(name, ["a.mir"])
    assert main([name, *argv]) == 0
    assert counts == {"parsers": 0, "sizes": 0}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_a_subcommand_builds_one_parser_and_reads_the_terminal_once(name, monkeypatch):
    counts = _count_parsers_and_terminal_reads(monkeypatch)
    argv = {"corpus": ["--root=a"]}.get(name, ["--", "a.mir"])
    assert main([name, *argv]) == 0
    assert counts["parsers"] == 1
    assert counts["sizes"] <= 1


def test_analyze_builds_no_other_subcommand(monkeypatch, capsys):
    add_arguments = cli._add_arguments

    def only_analyze(parser, options):
        if options is not cli.COMMANDS["analyze"].options:
            raise AssertionError("built the parser of a subcommand main does not run")
        add_arguments(parser, options)

    monkeypatch.setattr(cli, "_add_arguments", only_analyze)
    for mode in (["--mode", "nopa"], ["--mode=nopa"]):  # read, and parsed by argparse
        assert main(["analyze", *mode, corpus_path("fig1_simple")]) == 1
        assert "verdict: true" in capsys.readouterr().out


# The reader is held to argparse on argv drawn from every subcommand's
# flags, valid, invalid and negative values, values starting with `-`,
# empty strings, the forms only argparse reads, and one or two runs of
# positionals.
_FLAGS = sorted({flag for command in cli.COMMANDS.values() for flag, _ in command.options if flag.startswith("-")})
_VALUES = ["nopa", "pa", "hybrid", "nopa,pa", "0", "5", "20000", " 7", "1_000", "2.5", "1e3", "nan", "x", "",
           "-5", "-2.5", "-x", "A.m", "a.mir"]
_ODD = ["-h", "--help", "--det", "--mo", "--mode=pa", "--fuel=3", "--root=a", "--", "-", "-5", ""]
_SOURCES = ["a.mir", "b.mir", "dir", ""]
_PIECES = st.one_of(
    st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES)).map(list),
    st.sampled_from(_FLAGS + _ODD).map(lambda token: [token]),
    st.lists(st.sampled_from(_SOURCES), min_size=1, max_size=3),
)
_READER_FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=400)


def _fields(namespace):
    """A Namespace's attributes with their values' reprs, in which `nan`
    equals itself and 5 differs from 5.0."""
    return {name: repr(value) for name, value in vars(namespace).items()}


@_READER_FUZZ
@given(st.sampled_from(list(cli.COMMANDS)), st.lists(_PIECES, max_size=7))
def test_the_reader_reads_argv_as_argparse_does(name, pieces):
    argv = [token for piece in pieces for token in piece]
    read = cli._read_args(name, argv)
    if read is not None:
        assert _fields(read) == _fields(cli._command_parser(name).parse_args(argv))


def _flag_and_value(flag, keywords):
    """A declared flag, with a value its type and choices take unless it is
    a switch."""
    if keywords.get("action") == "store_true":
        return st.just([flag])
    if "choices" in keywords:
        values = st.sampled_from(keywords["choices"])
    elif keywords.get("type") is int:
        values = st.integers(0, 10**6).map(str)
    elif keywords.get("type") is float:
        values = st.floats(0.001, 1e6).map(repr)
    else:
        values = st.sampled_from(_SOURCES)
    return values.map(lambda value: [flag, value])


def _well_formed(name):
    """Argv made of subcommand `name`'s declared flags and values around one
    run of positionals, its required options first."""
    options = cli.COMMANDS[name].options
    flags = [_flag_and_value(flag, keywords) for flag, keywords in options if flag.startswith("-")]
    some_flags = st.lists(st.one_of(flags), max_size=5).map(lambda pieces: [t for p in pieces for t in p])
    if not flags:
        some_flags = st.just([])
    required = [token for flag, keywords in options if keywords.get("required") for token in (flag, "a")]
    run = st.just([])
    if any(not flag.startswith("-") for flag, _ in options):
        run = st.lists(st.sampled_from(_SOURCES), min_size=1, max_size=3)
    return st.tuples(some_flags, run, some_flags).map(lambda parts: required + parts[0] + parts[1] + parts[2])


@settings(_READER_FUZZ, max_examples=150)
@given(st.sampled_from(list(cli.COMMANDS)).flatmap(lambda name: st.tuples(st.just(name), _well_formed(name))))
def test_the_reader_takes_every_well_formed_argv(case):
    name, argv = case
    read = cli._read_args(name, argv)
    assert read is not None
    assert _fields(read) == _fields(cli._command_parser(name).parse_args(argv))


def _ci_command_lines(corpus):
    """The analyses and dumps that `.github/workflows/tests.yml` runs, in
    the shapes `main` must read without a parser and those it must leave
    to argparse."""
    read = [
        *(["analyze", "--deterministic", "--mode", "nopa", "--mode", "pa", "--mode", "hybrid", f"{corpus}/{name}"]
          for name in ("fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy")),
        *(["analyze", "--deterministic", "--mode", "nopa", f"{corpus}/{name}"]
          for name in ("fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy")),
        ["dump-pts", f"{corpus}/mkref"],
        ["dump-graph", "--mode", "nopa", f"{corpus}/fig1_simple"],
        ["dump-graph", "--mode", "pa", f"{corpus}/fig1_simple"],
        ["analyze", "--deterministic", "empty"],
        ["analyze", "--deterministic", "--mode", "pa", "copies.mir"],
        ["analyze", "--deterministic", "--path-cap", "8192", "chain.mir"],
        ["corpus", "--deterministic", "--reps", "1", "--modes", "nopa,pa,hybrid", "--fuel", "20000",
         "--path-cap", "512", "--root", "in", "--out", "one"],
    ]
    deferred = [
        ["-h"],
        ["analyze", "-h"],
        ["analyze", "--fuel", "x", f"{corpus}/fig1_simple"],
        *(["analyze", "--deterministic", "--mode=nopa", "--mode=pa", "--mode=hybrid", f"{corpus}/{name}"]
          for name in ("fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy")),
    ]
    return read, deferred


def test_the_gate_command_lines_are_read_without_a_parser(tmp_path, monkeypatch, capsys):
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        import run as bench_run
        import workloads
    finally:
        sys.path.remove(str(bench))
    read, deferred = _ci_command_lines("src/oadetect/corpus")
    for name in bench_run.WORKLOADS:
        wl = workloads.build_workload(name, tmp_path / name, 101)
        read += [bench_run.analyze_argv(wl, spec) for spec in wl.scenarios]
        read.append(bench_run.corpus_argv(wl, tmp_path / "out"))
    expected = [_fields(cli._command_parser(argv[0]).parse_args(argv[1:])) for argv in read]
    got = []
    counts = _count_parsers_and_terminal_reads(monkeypatch, run=lambda args: got.append(_fields(args)) or 0)
    for argv in read:
        assert main(argv) == 0, argv
    assert counts == {"parsers": 0, "sizes": 0}
    assert got == expected
    for argv in deferred:
        counts["parsers"] = 0
        main(argv)
        assert counts["parsers"] >= 1, argv
    capsys.readouterr()


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


# No static main, public method or constructor: a valid program that gives
# the points-to solve no root.
NO_ROOT = "class A {\n  field f: int;\n  private method m() {\n    this.f = 1 @L;\n    this.f = 2 @R;\n  }\n}\n"


def test_a_program_with_no_points_to_root_is_analysed_in_every_mode(tmp_path, capsys):
    src = tmp_path / "a.mir"
    src.write_text(NO_ROOT)
    for mode in ("nopa", "pa", "hybrid"):
        out_dir = tmp_path / mode
        assert main(["analyze", "--deterministic", "--mode", mode, "--out", str(out_dir), str(src)]) == 1
        printed = capsys.readouterr()
        assert printed.out.startswith(f"== A.m() [{mode}] verdict: true\n") and printed.err == ""
        (record,) = parse_records((out_dir / "records.jsonl").read_text())
        # The empty solve leaves both bases without points-to facts.
        expected = [] if mode == "nopa" else [{"file": "a.mir", "line": line, "reason": "empty-pts"} for line in (4, 5)]
        assert record["missrefs"] == expected
    assert main(["dump-pts", str(src)]) == 0
    assert capsys.readouterr() == ("", "")
    assert main(["dump-graph", "--mode", "pa", str(src)]) == 0
    assert capsys.readouterr() == ("", "")


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
    _assert_one_line_usage_error(code, capsys.readouterr(), "scenario.json is not valid JSON")


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


# A manifest used to read any file it named: `"sources": ["/etc/hostname"]`
# printed that file's first word in a parse error.


@pytest.mark.parametrize("key", ["sources", "sidecar"])
@pytest.mark.parametrize("how", ["absolute", "dotdot", "symlink"])
def test_analyze_rejects_a_manifest_path_outside_the_scenario(key, how, tmp_path, capsys, monkeypatch):
    outside = tmp_path / "outside.txt"
    outside.write_text("{}")
    d = _scenario_dir(tmp_path, "{}")
    name = {"absolute": str(outside), "dotdot": "../outside.txt", "symlink": "link.txt"}[how]
    if how == "symlink":
        (d / name).symlink_to(outside)
    manifest = {"id": "s", "sources": ["a.mir"]}
    manifest[key] = [name] if key == "sources" else name
    (d / "scenario.json").write_text(json.dumps(manifest))
    read = []
    monkeypatch.setattr(harness, "read_text", lambda path: read.append(path) or Path(path).read_text())
    code = main(["analyze", "--mode", "nopa", str(d)])
    message = f"{d / 'scenario.json'}: '{key}' entry {json.dumps(name)} is outside the scenario directory"
    _assert_one_line_usage_error(code, capsys.readouterr(), message)
    assert read == [d / "scenario.json"]  # no file the manifest names is read


@pytest.mark.parametrize("name", ["link.mir", "sub/../sub/link.mir"])
def test_analyze_accepts_a_manifest_path_that_stays_inside(name, tmp_path, capsys):
    d = _scenario_dir(tmp_path, "{}")
    (d / "sub").mkdir()
    for link in ("link.mir", "sub/link.mir"):
        (d / link).symlink_to(d / "a.mir")
    (d / "scenario.json").write_text(json.dumps({"id": "s", "sources": [name]}))
    assert main(["analyze", "--deterministic", "--mode", "nopa", str(d)]) == 1
    assert "verdict: true" in capsys.readouterr().out


# Checking a name that is not bare used to resolve it with `Path.resolve`,
# which raised RuntimeError on a symlink loop and ValueError on a NUL byte
# past the first component: a traceback and exit 1.


@pytest.mark.parametrize("key", ["sources", "sidecar"])
@pytest.mark.parametrize("name", ["loop.mir", "sub/loop.mir", "sub/a\x00", "/a\x00"])
def test_analyze_rejects_a_manifest_path_that_cannot_be_read(key, name, tmp_path, capsys):
    d = _scenario_dir(tmp_path, "{}")
    (d / "sub").mkdir()
    for loop in ("loop.mir", "sub/loop.mir"):
        (d / loop).symlink_to(d / loop)
    manifest = {"id": "s", "sources": ["a.mir"]}
    manifest[key] = [name] if key == "sources" else name
    (d / "scenario.json").write_text(json.dumps(manifest))
    code = main(["analyze", "--mode", "nopa", str(d)])
    fragment = "Too many levels of symbolic links" if "loop" in name else "embedded null byte"
    _assert_one_line_usage_error(code, capsys.readouterr(), fragment)


@pytest.mark.parametrize("name", ["sub/loop.mir", "sub/a\x00"])
def test_corpus_with_a_manifest_path_that_cannot_be_read_exits_3(name, tmp_path, capsys):
    root = tmp_path / "corpus"
    d = _corpus_with_bad_scenario(root, json.dumps({"id": "s", "sources": [name]}))
    (d / "sub").mkdir()
    (d / "sub/loop.mir").symlink_to(d / "sub/loop.mir")
    out = tmp_path / "out"
    code = main(["corpus", "--deterministic", "--reps", "1", "--root", str(root), "--out", str(out)])
    fragment = "Too many levels of symbolic links" if "loop" in name else "embedded null byte"
    _assert_scenario_error_beside_fig1_simple(code, capsys.readouterr(), out, fragment)


# A directory with no source and no manifest used to reach each command as
# an empty program: `analyze` found no dually modified declaration,
# `dump-graph` asked for an entry and `dump-pts` printed nothing, exit 0.


@pytest.mark.parametrize("command", ["analyze", "dump-graph", "dump-pts"])
def test_a_directory_with_no_sources_exits_3(command, tmp_path, capsys):
    code = main([command, str(tmp_path)])
    _assert_one_line_usage_error(code, capsys.readouterr(), f"error: no .mir sources in {tmp_path}\n")


# A manifest with an empty `sources` list used to be read as an empty
# program, with the same three misreports.


@pytest.mark.parametrize("command", ["analyze", "dump-graph", "dump-pts"])
def test_a_manifest_with_no_sources_exits_3(command, tmp_path, capsys):
    d = _scenario_dir(tmp_path, '{"id": "t", "sources": []}')
    code = main([command, str(d)])
    message = f"error: {d / 'scenario.json'}: 'sources' must name at least one file\n"
    _assert_one_line_usage_error(code, capsys.readouterr(), message)


def test_corpus_with_a_manifest_with_no_sources_exits_3(tmp_path, capsys):
    root = tmp_path / "corpus"
    _corpus_with_bad_scenario(root, '{"id": "t", "sources": []}')
    out = tmp_path / "out"
    code = main(["corpus", "--deterministic", "--reps", "1", "--root", str(root), "--out", str(out)])
    _assert_scenario_error_beside_fig1_simple(code, capsys.readouterr(), out, "'sources' must name at least one file")


# An empty id used to name a unit "", whose `corpus` lines began with a tab.


@pytest.mark.parametrize("command", ["dump-graph", "dump-pts"])
def test_a_manifest_with_an_empty_id_exits_3(command, tmp_path, capsys):
    d = _scenario_dir(tmp_path, '{"id": "", "sources": ["a.mir"]}')
    code = main([command, str(d)])
    message = f"error: {d / 'scenario.json'}: 'id' must not be empty\n"
    _assert_one_line_usage_error(code, capsys.readouterr(), message)


def test_corpus_with_a_manifest_with_an_empty_id_exits_3(tmp_path, capsys):
    root = tmp_path / "corpus"
    _corpus_with_bad_scenario(root, '{"id": "", "sources": ["a.mir"]}')
    out = tmp_path / "out"
    code = main(["corpus", "--deterministic", "--reps", "1", "--root", str(root), "--out", str(out)])
    captured = capsys.readouterr()
    _assert_scenario_error_beside_fig1_simple(code, captured, out, "'id' must not be empty")
    assert not any(line.startswith("\t") for line in captured.out.splitlines())


# An id of only whitespace used to give `corpus` lines that began with it,
# and an empty project put every scenario with one in a single project "",
# where an absent or null project makes the scenario its own.
BLANK_ID_OR_PROJECT = pytest.mark.parametrize("manifest, message", [
    ('{"id": " ", "sources": ["a.mir"]}', "'id' must not be only whitespace"),
    ('{"id": "s", "project": "", "sources": ["a.mir"]}', "'project' must not be empty"),
], ids=["blank-id", "empty-project"])


@pytest.mark.parametrize("command", ["dump-graph", "dump-pts"])
@BLANK_ID_OR_PROJECT
def test_a_manifest_with_a_blank_id_or_an_empty_project_exits_3(command, manifest, message, tmp_path, capsys):
    d = _scenario_dir(tmp_path, manifest)
    code = main([command, str(d)])
    _assert_one_line_usage_error(code, capsys.readouterr(), f"error: {d / 'scenario.json'}: {message}\n")


@BLANK_ID_OR_PROJECT
def test_corpus_with_a_manifest_with_a_blank_id_or_an_empty_project_exits_3(manifest, message, tmp_path, capsys):
    root = tmp_path / "corpus"
    _corpus_with_bad_scenario(root, manifest)
    out = tmp_path / "out"
    code = main(["corpus", "--deterministic", "--reps", "1", "--root", str(root), "--out", str(out)])
    captured = capsys.readouterr()
    _assert_scenario_error_beside_fig1_simple(code, captured, out, message)
    assert not any(line.startswith(" ") for line in captured.out.splitlines())


# A scenario directory given beside other sources used to be read as loose
# sources, its manifest (source list, sidecar, entry) ignored without a word.


@pytest.mark.parametrize("command", ["analyze", "dump-graph", "dump-pts"])
@pytest.mark.parametrize("first", [True, False])
def test_a_scenario_directory_beside_other_sources_exits_3(command, first, capsys):
    scenario, loose = corpus_path("deep_hierarchy"), str(Path(corpus_path("fig1_simple")) / "Text.mir")
    sources = [scenario, loose] if first else [loose, scenario]
    code = main([command, *sources])
    message = f"error: {scenario} is a scenario directory: give it alone, without other sources\n"
    _assert_one_line_usage_error(code, capsys.readouterr(), message)


def test_a_plain_directory_beside_a_file_is_still_read(tmp_path, capsys):
    d = tmp_path / "plain"
    d.mkdir()
    (d / "a.mir").write_text("class A {\n  method m() {\n    x = 1 @L;\n    x = 2 @R;\n  }\n}\n")
    (tmp_path / "b.mir").write_text("class B {\n}\n")
    assert main(["analyze", "--deterministic", "--mode", "nopa", str(d), str(tmp_path / "b.mir")]) == 1
    assert "verdict: true" in capsys.readouterr().out


# A non-numeric arity used to raise ValueError from int() in find_method,
# a traceback with exit 1.


def test_analyze_entry_with_bad_arity_exits_3(capsys):
    code = main(["analyze", "--deterministic", "--entry", "Text.m/x", corpus_path("fig1_simple")])
    _assert_one_line_usage_error(code, capsys.readouterr(), "bad arity in method reference 'Text.m/x'")


@pytest.mark.parametrize("entry, message", [
    ("Nope.m", "unknown class 'Nope'"),
    ("A.nope", "no method 'nope' in class 'A'"),
    ("A.m/3", "no method 'm' in class 'A'"),
    ("A.m", "ambiguous method 'A.m', give an arity as 'A.m/N'"),
])
def test_analyze_entry_that_names_no_single_method_exits_3(entry, message, tmp_path, capsys):
    src = tmp_path / "a.mir"
    src.write_text("class A {\n  method m() {\n    x = 1 @L;\n  }\n  method m(a) {\n    x = a @R;\n  }\n}\n")
    code = main(["analyze", "--deterministic", "--entry", entry, str(src)])
    _assert_one_line_usage_error(code, capsys.readouterr(), f"error: {message}\n")


# An entry without a class or a method name used to be looked up with an
# empty name: "no method '' in class 'A'" or "unknown class ''".


@pytest.mark.parametrize("entry", ["A", "A.", ".m", ".m/1", "A./0"])
def test_analyze_entry_without_class_and_method_exits_3(entry, tmp_path, capsys):
    src = tmp_path / "a.mir"
    src.write_text("class A {\n  method m() {\n    x = 1 @L;\n    x = 2 @R;\n  }\n}\n")
    code = main(["analyze", "--deterministic", "--entry", entry, str(src)])
    message = f"error: bad method reference '{entry}', expected Class.method or Class.method/N\n"
    _assert_one_line_usage_error(code, capsys.readouterr(), message)


def test_analyze_manifest_entry_without_a_method_exits_3(tmp_path, capsys):
    d = _scenario_dir(tmp_path, '{"id": "s", "sources": ["a.mir"], "entry": "A"}')
    code = main(["analyze", "--deterministic", "--mode", "nopa", str(d)])
    _assert_one_line_usage_error(code, capsys.readouterr(), "bad method reference 'A', expected Class.method")


# Two sources with one file name used to share positions: statements on one
# line were "2 statements share position a.mir:4", and otherwise a report or
# a sidecar line named either file.

_TWO_SOURCES = (
    "class A {\n  method m() {\n    x = 1 @L;\n    x = 2 @R;\n  }\n}\n",
    "class B {\n  field f: int;\n}\n",
)
_SAME_NAME = "error: two sources named 'a.mir': give each source file a distinct name\n"


@pytest.mark.parametrize("as_dirs", [False, True], ids=["files", "directories"])
def test_analyze_two_sources_with_one_name_exit_3(as_dirs, tmp_path, capsys):
    paths = []
    for sub, text in zip("xy", _TWO_SOURCES):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "a.mir").write_text(text)
        paths.append(str(tmp_path / sub if as_dirs else tmp_path / sub / "a.mir"))
    code = main(["analyze", "--deterministic", *paths])
    _assert_one_line_usage_error(code, capsys.readouterr(), _SAME_NAME)


def test_analyze_manifest_listing_a_source_twice_exits_3(tmp_path, capsys):
    d = _scenario_dir(tmp_path, '{"id": "s", "sources": ["a.mir", "a.mir"]}')
    code = main(["analyze", "--deterministic", str(d)])
    _assert_one_line_usage_error(code, capsys.readouterr(), _SAME_NAME)


def test_analyze_manifest_entry_with_bad_arity_exits_3(tmp_path, capsys):
    d = _scenario_dir(tmp_path, '{"id": "s", "sources": ["a.mir"], "entry": "A.m/one"}')
    code = main(["analyze", "--deterministic", "--mode", "nopa", str(d)])
    _assert_one_line_usage_error(code, capsys.readouterr(), "bad arity in method reference 'A.m/one'")


# An empty path or entry used to be taken as the option left out: `--entry
# ""` analysed every candidate, `--sidecar ""` and a manifest's empty
# `sidecar` or `entry` were ignored, `analyze --out ""` wrote no records and
# `corpus --out ""` wrote its tables into the working directory.


@pytest.mark.parametrize("flags, manifest, message", [
    (["--entry", ""], None, '--entry must be non-empty, got ""'),
    (["--sidecar", ""], None, '--sidecar must be non-empty, got ""'),
    (["--out", ""], None, '--out must be non-empty, got ""'),
    ([], '{"id": "s", "sources": ["a.mir"], "entry": ""}', "'entry' must not be empty"),
    ([], '{"id": "s", "sources": ["a.mir"], "sidecar": ""}', "'sidecar' must not be empty"),
    ([], '{"id": "", "sources": ["a.mir"]}', "'id' must not be empty"),
    ([], '{"id": " \\t", "sources": ["a.mir"]}', "'id' must not be only whitespace"),
    ([], '{"id": "s", "project": "", "sources": ["a.mir"]}', "'project' must not be empty"),
], ids=["entry", "sidecar", "out", "manifest-entry", "manifest-sidecar", "manifest-id", "manifest-blank-id",
        "manifest-project"])
def test_analyze_empty_path_or_entry_exits_3_before_any_analysis(flags, manifest, message, tmp_path, capsys,
                                                                 monkeypatch):
    d = _scenario_dir(tmp_path, manifest or '{"id": "s", "sources": ["a.mir"]}')
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setattr("oadetect.cli.run_scenario", _refuse_analysis)
    code = main(["analyze", "--deterministic", *flags, str(d)])
    _assert_one_line_usage_error(code, capsys.readouterr(), message)
    assert list(work.iterdir()) == []


def test_corpus_empty_out_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("oadetect.cli.run_corpus", _refuse_analysis)
    code = main(["corpus", "--root", str(bundled_corpus_dir()), "--reps", "1", "--deterministic", "--out", ""])
    _assert_one_line_usage_error(code, capsys.readouterr(), '--out must be non-empty, got ""')
    assert list(tmp_path.iterdir()) == []


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
    from oadetect import stats
    from oadetect.engine import Mode

    runs, pairs = [], []
    run_corpus, wilcoxon = cli.run_corpus, stats.wilcoxon_signed_rank

    def spy_run(*args, **kwargs):
        runs.append(run_corpus(*args, **kwargs))
        return runs[-1]

    def spy_wilcoxon(given):
        pairs.append(list(given))
        return wilcoxon(given)

    monkeypatch.setattr(cli, "run_corpus", spy_run)
    monkeypatch.setattr(stats, "wilcoxon_signed_rank", spy_wilcoxon)
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


def test_corpus_prints_the_wilcoxon_result_line(tmp_path, capsys, monkeypatch):
    # Six one-unit scenarios; their timings are set after the run, so the
    # test pair (unit mean under nopa, under pa) is known.
    from oadetect.stats import wilcoxon_signed_rank

    root = tmp_path / "root"
    for i in range(6):
        d = root / f"s{i}"
        d.mkdir(parents=True)
        (d / "a.mir").write_text("class A {\n  method m() {\n    x = 1 @L;\n    x = 2 @R;\n  }\n}\n")
        (d / "scenario.json").write_text(f'{{"id": "s{i}", "sources": ["a.mir"]}}')
    timings = {"nopa": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "pa": [2.5, 2.0, 1.0, 7.0, 9.5, 12.0]}
    run_corpus = cli.run_corpus

    def timed_run(*args, **kwargs):
        run = run_corpus(*args, **kwargs)
        run.results[:] = [r._replace(timings_ms=[timings[r.mode.value][int(r.unit[1:])]] * 2)
                          for r in run.results]
        return run

    monkeypatch.setattr(cli, "run_corpus", timed_run)
    code = main(["corpus", "--reps", "2", "--root", str(root), "--out", str(tmp_path / "out")])
    assert code == 1
    res = wilcoxon_signed_rank(list(zip(timings["nopa"], timings["pa"])))
    assert res.n == 5
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == f"wilcoxon W={res.w} p={res.p_value:.4f} n=5"
    assert lines[-1] == f"tables written to {tmp_path / 'out'}"


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


# ---------------------------------------------------------------------------
# A run that stops without a verdict never exits 1, the code of a conflict.
# A layer that runs out of memory or stack exits 2, as a timeout does; any
# other unexpected exception is a bug and exits 4 with its traceback.


def _raising(error):
    def layer(*args, **kwargs):
        raise error

    return layer


def _run_fig1_simple(command: str, tmp_path) -> int:
    if command == "analyze":
        return main(["analyze", "--deterministic", "--mode", "nopa", corpus_path("fig1_simple")])
    return main(["corpus", "--deterministic", "--reps", "1", "--modes", "nopa",
                 "--root", corpus_path("fig1_simple"), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", ["analyze", "corpus"])
@pytest.mark.parametrize("error, resource", [(MemoryError, "memory"), (RecursionError, "stack depth")])
def test_running_out_of_a_resource_exits_2_with_one_line(command, error, resource, tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(harness, "build_cha_graph", _raising(error))
    assert _run_fig1_simple(command, tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out of {resource}: no verdict\n"


@pytest.mark.parametrize("command", ["analyze", "corpus"])
def test_an_internal_error_exits_4_with_one_line_and_the_traceback(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "build_cha_graph", _raising(ZeroDivisionError("a bug\nin a layer")))
    assert _run_fig1_simple(command, tmp_path) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0] == "error: internal error: ZeroDivisionError: a bug\\nin a layer"
    assert lines[1] == "Traceback (most recent call last):"
    assert lines[-2:] == ["ZeroDivisionError: a bug", "in a layer"]


@pytest.mark.parametrize("command", ["analyze", "corpus"])
def test_an_interrupt_propagates(command, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "build_cha_graph", _raising(KeyboardInterrupt))
    with pytest.raises(KeyboardInterrupt):
        _run_fig1_simple(command, tmp_path)


def _analyze_in_160_mb(tmp_path, source: str, *flags: str) -> subprocess.CompletedProcess:
    """`analyze --deterministic` of `source` in a child process that may map
    160 MB, a limit set on it alone before it runs."""
    resource = pytest.importorskip("resource")
    src = tmp_path / "input.mir"
    src.write_text(source)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (160 << 20, 160 << 20))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "oadetect.cli", "analyze", "--deterministic", *flags, str(src)],
                          env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit)


def test_analyze_out_of_memory_in_a_child_process_exits_2(tmp_path):
    # The points-to solve of a 2 000-long copy chain holds 4 million sites,
    # about 270 MB; no budget bounds the solve.
    done = _analyze_in_160_mb(tmp_path, copy_chain(2000), "--mode", "pa")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: out of memory: no verdict\n"


def test_analyze_of_a_5000_class_chain_fits_in_160_mb(tmp_path):
    # The hierarchy's bitmask closures take n^2/8 bytes, and the run peaks
    # at about 45 MB. Its 5 000 paths need a path cap above the default 4 096.
    done = _analyze_in_160_mb(tmp_path, extends_chain(5000), "--path-cap", "8192")
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.startswith("== T.run() [nopa] verdict: true\n")
    assert done.stdout.count("Interference in class T, method run()") == 5000
