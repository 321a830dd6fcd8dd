"""Command-line interface.

    oadetect analyze [--mode MODE]... [--entry Class.method] SOURCES...
    oadetect corpus --root DIR [--modes nopa,pa] [--reps N] [--out DIR]
    oadetect dump-graph --mode nopa|pa --entry Class.method SOURCES...
    oadetect dump-pts SOURCES...

`analyze` prints one human-readable report per conflict of each mode whose
verdict is true (a timeout's partial conflicts go to the `--out` records
only). It exits 0 when every requested mode is conflict-free, 1 when any
mode reports a conflict, 2 when any mode times out (and none conflicts), 3
on usage, input or parse errors. `corpus` evaluates scenario directories and writes the records
stream plus the confusion/metrics/transitions/histogram/timing tables. Both
run `harness.run_scenario` per scenario. Asked for both `pa` and `hybrid`,
it runs `pa` first and, without a wall clock, gives `hybrid` that outcome
on a unit where `pa` logs no `unresolved-call` miss-reference: the two
modes differ only at a call `pa` cannot resolve. Without `--out`, `analyze` prints
only verdicts and reports, so it asks for verdicts only: a unit whose path
tree has more paths or visits than the budget allows times out as soon as
`engine.count_tree` counts past it, and one within budget where no left
write can meet a right write is false, both without being enumerated. Its
output and exit code are the same as with `--out`, which, like `corpus`,
records each unit's full enumeration; with a wall clock, a unit decided
false may time out there. Under `nopa` those runs walk a unit whose
sides cannot meet only down to where a budget runs out, and any other
unit past the call subtrees that cannot change a finding, counting what
they skip, with the full enumeration's records. The dump commands read their
sources as `analyze` does: a scenario directory through its manifest's
sources, sidecar and entry.

When the first word names a subcommand, that subcommand's parser alone
parses the rest, built as a top-level parser with the prog, usage, help and
messages the four-command parser gives it; the four-command parser handles
any other arguments. Every parser reads the terminal width once, where
argparse's own help formatter reads it once per option added. Two parsers
and 13 terminal-size reads per call were about a third of an in-process
`analyze` of a small scenario.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .cha import build_cha_graph
from .engine import AnalysisBudget, Mode, Verdict
from .frontend import ProvenanceMap, SourceUnit, read_text
from .harness import Scenario, load_scenario, run_corpus, run_scenario, scenario_dirs, write_tables
from .harness import scenario_entries, scenario_program
from .mir import MirError
from .pointsto import dump_pts, solve
from .reporting import build_reports, emit_records, render_text

EXIT_FALSE = 0
EXIT_TRUE = 1
EXIT_TIMEOUT = 2
EXIT_ERROR = 3

DESCRIPTION = (
    "Detect override-assignment conflicts in merged programs, with and without "
    "pointer analysis. Exit codes: 0 no conflict, 1 a conflict, 2 a timeout, "
    "3 a usage, input or parse error."
)


def _require(ok: bool, flag: str, rule: str, value) -> None:
    if not ok:
        raise MirError(f"{flag} must be {rule}, got {value}")


def _budget(args) -> AnalysisBudget:
    """The budget the flags ask for; out-of-range values are usage errors."""
    _require(args.depth >= 0, "--depth", "at least 0", args.depth)
    _require(args.fuel >= 1, "--fuel", "at least 1", args.fuel)
    _require(args.path_cap >= 1, "--path-cap", "at least 1", args.path_cap)
    _require(args.timeout > 0, "--timeout", "positive", args.timeout)
    return AnalysisBudget(
        depth_limit=args.depth,
        fuel=args.fuel,
        wall_clock=None if getattr(args, "deterministic", False) else args.timeout,
        path_cap=args.path_cap,
    )


def _add_budget_flags(sub) -> None:
    default = AnalysisBudget()
    sub.add_argument("--depth", type=int, default=default.depth_limit, help="call inlining depth limit")
    sub.add_argument("--fuel", type=int, default=default.fuel, help="statement-visit budget")
    sub.add_argument("--timeout", type=float, default=default.wall_clock, help="wall-clock limit in seconds")
    sub.add_argument("--path-cap", type=int, default=default.path_cap, help="maximum enumerated paths")
    sub.add_argument(
        "--deterministic",
        action="store_true",
        help="disable the wall clock and zero elapsed times for byte-stable output",
    )


def _load_sources(paths: list[str]) -> list[SourceUnit]:
    """Loose source files, and the `.mir` files of directories without a
    manifest; a directory with none is an input error."""
    units: list[SourceUnit] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files = sorted(path.glob("*.mir"))
            if not files:
                raise MirError(f"no .mir sources in {path}")
            for f in files:
                units.append(SourceUnit(f.name, read_text(f)))
        else:
            units.append(SourceUnit(path.name, read_text(path)))
    return units


def _modes(flag: str, names: list[str]) -> list[Mode]:
    """The modes `flag` names, in order; an unknown or repeated name is a
    usage error."""
    modes: list[Mode] = []
    for name in names:
        try:
            mode = Mode(name)
        except ValueError:
            choices = ", ".join(m.value for m in Mode)
            raise MirError(f"{flag}: '{name}' is not a valid mode; choose from {choices}") from None
        if mode in modes:
            raise MirError(f"{flag}: mode '{name}' is given twice")
        modes.append(mode)
    return modes


def _analyze_scenario(sources: list[str], sidecar=None, entry=None) -> Scenario:
    """The scenario a command's `sources` name: one scenario directory or
    loose sources. A `sidecar` file and an `entry` given on the command line
    take precedence over its manifest. A scenario directory given beside
    other sources is an input error: its manifest would go unread."""
    # An empty value is an error, not the option left out.
    _require(entry != "", "--entry", "non-empty", '""')
    _require(sidecar != "", "--sidecar", "non-empty", '""')
    provenance = ProvenanceMap.from_json(read_text(sidecar)) if sidecar is not None else None
    scenarios = [Path(s) for s in sources if (Path(s) / "scenario.json").exists()]
    if scenarios and len(sources) > 1:
        raise MirError(f"{scenarios[0]} is a scenario directory: give it alone, without other sources")
    if scenarios:
        scenario = load_scenario(scenarios[0])
    else:
        label = " ".join(sources)
        scenario = Scenario(id=label, project=label, sources=_load_sources(sources))
    if provenance is not None:
        scenario = scenario._replace(sidecar=provenance)
    if entry is not None:
        scenario = scenario._replace(entry=entry)
    return scenario


def _one_line(message: str) -> str:
    """An error line: names from the input may hold line breaks, which are
    shown as `\\n` so that each error stays one line."""
    return "\\n".join(message.splitlines())


def _out_dir(raw: str) -> Path:
    """The `--out` directory, made before any analysis runs: a bad one then
    costs no run and prints no report."""
    _require(raw != "", "--out", "non-empty", '""')
    outdir = Path(raw)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _exit_code(verdicts) -> int:
    verdicts = set(verdicts)
    if Verdict.TRUE in verdicts:
        return EXIT_TRUE
    if Verdict.TIMEOUT in verdicts:
        return EXIT_TIMEOUT
    return EXIT_FALSE


def cmd_analyze(args) -> int:
    modes = _modes("--mode", args.mode or [Mode.NOPA.value])
    budget = _budget(args)
    scenario = _analyze_scenario(args.sources, args.sidecar, args.entry)
    outdir = _out_dir(args.out) if args.out is not None else None
    # Without records to write, only the verdicts are printed: a unit whose
    # path tree exceeds the budget times out as soon as it is counted, and
    # one whose sides cannot meet is false unenumerated. With them, such a
    # unit is walked under `nopa` only down to where a budget runs out,
    # counting the rest, so its records keep the full walk's counters.
    results = run_scenario(scenario, modes, budget=budget, verdict_only=outdir is None)
    several_entries = len(results) > len(modes)
    outcomes = []
    for r in results:
        unit = r.entry.id if several_entries else r.entry.display
        outcomes.append((f"{unit}:{r.mode.value}", r.mode, r.outcome))
        print(f"== {r.entry.display} [{r.mode.value}] verdict: {r.verdict.value}")
        if r.verdict is Verdict.TRUE:
            # A timeout keeps the conflicts of its completed paths in the
            # records, but only a true verdict reports them.
            for report in build_reports(r.outcome, r.entry):
                print(render_text(report))
    if outdir is not None:
        (outdir / "records.jsonl").write_text(emit_records(outcomes))
    return _exit_code(r.verdict for r in results)


def cmd_corpus(args) -> int:
    """Run every scenario under `--root`, write the tables and print one
    line per unit and mode. With `--deterministic`, where nothing is timed,
    `run_corpus` spreads the scenarios over one process per CPU the process
    may use (`taskset` limits them) and at most one per
    `SCENARIOS_PER_PROCESS` scenarios, with output identical to one
    process's. A timed run stays in one process, so that its timings and
    the Wilcoxon comparison of them do not measure contention for the CPUs.
    """
    from .stats import InsufficientPairsError, wilcoxon_signed_rank  # kept off `analyze`'s imports

    modes = _modes("--modes", args.modes.split(","))
    budget = _budget(args)
    _require(args.reps >= 1, "--reps", "at least 1", args.reps)
    root = Path(args.root)
    corpus = [root] if (root / "scenario.json").exists() else scenario_dirs(root)
    if not corpus:
        raise MirError(f"no scenarios under {root}")
    outdir = _out_dir(args.out)
    run = run_corpus(corpus, modes, budget=budget, reps=args.reps)
    write_tables(run, modes, outdir)
    for sid, message in run.errors:
        print(_one_line(f"scenario error: {sid}: {message}"), file=sys.stderr)
    for r in run.results:
        print(f"{r.unit}\t{r.mode.value}\t{r.verdict.value}")
    if len(modes) >= 2:
        a, b = modes[:2]
        pairs = [
            (sum(per_mode[a].timings_ms) / len(per_mode[a].timings_ms),
             sum(per_mode[b].timings_ms) / len(per_mode[b].timings_ms))
            for per_mode in run.by_unit().values()
            if a in per_mode and b in per_mode
        ]
        try:
            res = wilcoxon_signed_rank(pairs)
            print(f"wilcoxon W={res.w} p={res.p_value:.4f} n={res.n}")
        except InsufficientPairsError as e:
            print(f"wilcoxon skipped: {e}")
    print(f"tables written to {outdir}")
    if run.errors:
        return EXIT_ERROR
    return _exit_code(r.verdict for r in run.results)


def cmd_dump_graph(args) -> int:
    scenario = _analyze_scenario(args.sources, args.sidecar, args.entry)
    program = scenario_program(scenario)
    if Mode(args.mode) is Mode.NOPA:
        entries = scenario_entries(scenario, program)
        if not entries:
            raise MirError("an entry is required for the hierarchy-based graph")
        print(build_cha_graph(program, entries[0]).dump(), end="")
    else:
        print(solve(program).callgraph.dump(), end="")
    return EXIT_FALSE


def cmd_dump_pts(args) -> int:
    program = scenario_program(_analyze_scenario(args.sources))
    print(dump_pts(solve(program)), end="")
    return EXIT_FALSE


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a `MirError`, which `main` prints as one
    line, in place of a usage block."""

    def error(self, message):
        raise MirError(message)


def _formatter_class():
    """argparse's help formatter at the terminal's width, read now: left to
    itself it reads the width each time it is made, once per option added.
    Given a width, it subtracts nothing, hence the 2 taken off here."""
    return partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def _analyze_args(sub) -> None:
    sub.add_argument("sources", nargs="+", help="source files or scenario directories")
    sub.add_argument(
        "--mode", action="append", default=[], help="nopa, pa or hybrid (default nopa); repeatable"
    )
    sub.add_argument("--entry", help="entry as Class.method (default: dually modified methods)")
    sub.add_argument("--sidecar", help="provenance line-map JSON file")
    sub.add_argument("--out", help="directory for machine records")
    _add_budget_flags(sub)


def _corpus_args(sub) -> None:
    sub.add_argument("--root", required=True, help="directory of scenario directories")
    sub.add_argument("--modes", default="nopa,pa", help="comma-separated mode list")
    sub.add_argument("--reps", type=int, default=10, help="timing repetitions per unit")
    sub.add_argument("--out", default="oa-results", help="output directory for tables")
    _add_budget_flags(sub)


def _dump_graph_args(sub) -> None:
    sub.add_argument("sources", nargs="+")
    sub.add_argument("--mode", choices=["nopa", "pa"], default="nopa")
    sub.add_argument("--entry")
    sub.add_argument("--sidecar")


def _dump_pts_args(sub) -> None:
    sub.add_argument("sources", nargs="+")


class Command(NamedTuple):
    """One subcommand: its help line, its argument builder and its handler."""

    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


COMMANDS = {
    "analyze": Command("analyze sources for override-assignment conflicts", _analyze_args, cmd_analyze),
    "corpus": Command("evaluate a corpus of scenario directories", _corpus_args, cmd_corpus),
    "dump-graph": Command("print the call graph, one edge per line", _dump_graph_args, cmd_dump_graph),
    "dump-pts": Command("print points-to sets and miss sites", _dump_pts_args, cmd_dump_pts),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of all four subcommands."""
    formatter_class = _formatter_class()
    parser = _Parser(prog="oadetect", description=DESCRIPTION, formatter_class=formatter_class)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        command.add_arguments(sub.add_parser(name, help=command.help, formatter_class=formatter_class))
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand `name` alone: the one `build_parser` adds
    for it, made a top-level parser."""
    parser = _Parser(prog=f"oadetect {name}", formatter_class=_formatter_class())
    COMMANDS[name].add_arguments(parser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # The top level takes no option but -h and no positional but the
        # subcommand, so a first word that names one is the subcommand and
        # its parser alone parses the rest.
        if argv and argv[0] in COMMANDS:
            name, args = argv[0], _command_parser(argv[0]).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
            name = args.command
        return COMMANDS[name].run(args)
    except SystemExit:  # only -h/--help exits; `_Parser` raises on errors
        return EXIT_FALSE
    except (MirError, OSError) as e:
        print(_one_line(f"error: {e}"), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
