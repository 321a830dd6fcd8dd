"""Command-line interface.

    oadetect analyze [--mode MODE]... [--entry Class.method] SOURCES...
    oadetect corpus --root DIR [--modes nopa,pa] [--reps N] [--out DIR]
    oadetect dump-graph --mode nopa|pa --entry Class.method SOURCES...
    oadetect dump-pts SOURCES...

`analyze` prints one human-readable report per conflict of each mode whose
verdict is true (a timeout's partial conflicts go to the `--out` records
only). It exits 0 when every requested mode is conflict-free, 1 when any
mode reports a conflict, 2 when any mode times out (and none conflicts), 3
on usage, input or parse errors. A run that runs out of memory or stack
depth exits 2 too, with one `error:` line naming the resource and no
verdict; any other unexpected exception exits 4 with one `error: internal
error:` line and its traceback, never 1. `corpus` evaluates scenario
directories and writes the records stream plus the
confusion/metrics/transitions/histogram/timing tables. Both
run `harness.run_scenario` per scenario. Without a wall clock it runs the
points-to modes first, `pa` before `hybrid`: `hybrid` takes `pa`'s outcome
on a unit where `pa` logs no `unresolved-call` miss-reference, since the
two modes differ only at a call `pa` cannot resolve, and `nopa` takes the
outcome of a points-to run that made only `nopa`'s choices, less its
points-to sets and miss-references. Without `--out`, `analyze` prints
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

Each subcommand declares its options once, and its parser is built from
that declaration. When the first word names a subcommand, `_read_args`
reads the rest off the declaration without building any parser: exact long
options, each with a value its type and choices take unless it is a switch,
around one run of positionals, giving argparse's Namespace. It defers on
anything else, which that subcommand's parser alone then parses, built as a
top-level parser with the prog, usage, help and messages the four-command
parser gives it: help, every usage error, and each token argparse could
read another way (`-h`, an abbreviation, `--opt=value`, `--`, `-`, a value
that starts with `-`). The four-command parser handles any other
arguments. Every parser reads the terminal width once, where argparse's own
help formatter reads it once per option added. Building and running a
parser cost about 0.25 ms of a 1 ms in-process `analyze` of a small
scenario; reading the gate's command line costs about 0.01 ms.
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
EXIT_INTERNAL = 4

DESCRIPTION = (
    "Detect override-assignment conflicts in merged programs, with and without "
    "pointer analysis. Exit codes: 0 no conflict, 1 a conflict, 2 a timeout or "
    "out of memory or stack, 3 a usage, input or parse error, 4 an internal error."
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
    `SCENARIOS_PER_PROCESS` scenarios, all taking scenarios from one queue
    written whole before the first fork (runs of scenarios past 1 024), with
    output identical to one process's. A timed run stays in one process, so
    that its timings and the Wilcoxon comparison of them do not measure
    contention for the CPUs.
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


# Each subcommand's arguments, declared once: a long option's flag, or the
# positional's name, and the keywords `add_argument` takes for it. Its
# parser is built from this and `_read_args` reads argv against it.
_DEFAULT_BUDGET = AnalysisBudget()
_BUDGET_OPTIONS = (
    ("--depth", dict(type=int, default=_DEFAULT_BUDGET.depth_limit, help="call inlining depth limit")),
    ("--fuel", dict(type=int, default=_DEFAULT_BUDGET.fuel, help="statement-visit budget")),
    ("--timeout", dict(type=float, default=_DEFAULT_BUDGET.wall_clock, help="wall-clock limit in seconds")),
    ("--path-cap", dict(type=int, default=_DEFAULT_BUDGET.path_cap, help="maximum enumerated paths")),
    ("--deterministic", dict(
        action="store_true",
        default=False,
        help="disable the wall clock and zero elapsed times for byte-stable output",
    )),
)
_ANALYZE_OPTIONS = (
    ("sources", dict(nargs="+", help="source files or scenario directories")),
    ("--mode", dict(action="append", default=[], help="nopa, pa or hybrid (default nopa); repeatable")),
    ("--entry", dict(help="entry as Class.method (default: dually modified methods)")),
    ("--sidecar", dict(help="provenance line-map JSON file")),
    ("--out", dict(help="directory for machine records")),
    *_BUDGET_OPTIONS,
)
_CORPUS_OPTIONS = (
    ("--root", dict(required=True, help="directory of scenario directories")),
    ("--modes", dict(default="nopa,pa", help="comma-separated mode list")),
    ("--reps", dict(type=int, default=10, help="timing repetitions per unit")),
    ("--out", dict(default="oa-results", help="output directory for tables")),
    *_BUDGET_OPTIONS,
)
_DUMP_GRAPH_OPTIONS = (
    ("sources", dict(nargs="+")),
    ("--mode", dict(choices=["nopa", "pa"], default="nopa")),
    ("--entry", dict()),
    ("--sidecar", dict()),
)
_DUMP_PTS_OPTIONS = (("sources", dict(nargs="+")),)

Options = tuple[tuple[str, dict], ...]


class Command(NamedTuple):
    """One subcommand: its help line, its arguments and its handler."""

    help: str
    options: Options
    run: Callable[[argparse.Namespace], int]


COMMANDS = {
    "analyze": Command("analyze sources for override-assignment conflicts", _ANALYZE_OPTIONS, cmd_analyze),
    "corpus": Command("evaluate a corpus of scenario directories", _CORPUS_OPTIONS, cmd_corpus),
    "dump-graph": Command("print the call graph, one edge per line", _DUMP_GRAPH_OPTIONS, cmd_dump_graph),
    "dump-pts": Command("print points-to sets and miss sites", _DUMP_PTS_OPTIONS, cmd_dump_pts),
}


def _add_arguments(parser: argparse.ArgumentParser, options: Options) -> None:
    for flag, keywords in options:
        parser.add_argument(flag, **keywords)


def build_parser() -> argparse.ArgumentParser:
    """The parser of all four subcommands."""
    formatter_class = _formatter_class()
    parser = _Parser(prog="oadetect", description=DESCRIPTION, formatter_class=formatter_class)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=command.help, formatter_class=formatter_class), command.options)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand `name` alone: the one `build_parser` adds
    for it, made a top-level parser."""
    parser = _Parser(prog=f"oadetect {name}", formatter_class=_formatter_class())
    _add_arguments(parser, COMMANDS[name].options)
    return parser


def _read_args(name: str, argv: list[str]) -> argparse.Namespace | None:
    """What `_command_parser(name)` makes of `argv`, read off the
    subcommand's declaration without building a parser: exact long options,
    each with its value unless it is a switch, around one run of
    positionals. None, for that parser to parse `argv`, wherever argparse
    would print help or a usage error or could read a token another way: a
    token that starts with `-` and is not a declared flag (`-h`, an
    abbreviation, `--opt=value`, `--`, `-`, a negative number), an option
    with no value after it or a value starting with `-`, a value its type or
    choices reject, a second run of positionals, or a missing positional or
    required option."""
    declared = {flag: (flag.lstrip("-").replace("-", "_"), keywords) for flag, keywords in COMMANDS[name].options}
    values = {dest: keywords.get("default") for dest, keywords in declared.values()}
    positional = next((dest for flag, (dest, _) in declared.items() if not flag.startswith("-")), None)
    tokens, given, sources, run_ended = iter(argv), set(), [], False
    for token in tokens:
        if not token.startswith("-"):
            if positional is None or run_ended:
                return None
            sources.append(token)
            continue
        if token not in declared:
            return None
        run_ended = bool(sources)
        given.add(token)
        dest, keywords = declared[token]
        action = keywords.get("action")
        if action == "store_true":
            values[dest] = True
            continue
        raw = next(tokens, None)
        if raw is None or raw.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(raw)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = [*values[dest], value] if action == "append" else value
    if positional is not None:
        if not sources:
            return None
        values[positional] = sources
    if any(keywords.get("required") and flag not in given for flag, (_, keywords) in declared.items()):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # The top level takes no option but -h and no positional but the
        # subcommand, so a first word that names one is the subcommand, and
        # the rest is read off its declaration or, failing that, parsed by
        # its parser alone.
        if argv and argv[0] in COMMANDS:
            name, args = argv[0], _read_args(argv[0], argv[1:])
            if args is None:
                args = _command_parser(name).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
            name = args.command
        return COMMANDS[name].run(args)
    except SystemExit:  # only -h/--help exits; `_Parser` raises on errors
        return EXIT_FALSE
    except (MirError, OSError) as e:
        print(_one_line(f"error: {e}"), file=sys.stderr)
        return EXIT_ERROR
    except (MemoryError, RecursionError) as e:
        # Like a timeout, no verdict. Drop the unwound frames, and with them
        # what used the resource up, before the message allocates.
        resource = "memory" if isinstance(e, MemoryError) else "stack depth"
        e.__traceback__ = None
        print(f"error: out of {resource}: no verdict", file=sys.stderr)
        return EXIT_TIMEOUT
    except Exception as e:  # a bug: never exit 1, which tells CI "conflict"
        import traceback

        print(_one_line(f"error: internal error: {type(e).__name__}: {e}"), file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
