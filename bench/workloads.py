"""Seeded workload generators for the benchmark.

Every workload is written as scenario directories (`scenario.json` plus
`.mir` sources, and a sidecar line map where asked for), which is the only
form in which inputs reach the analyzer. Each generator returns, per
scenario, the verdicts the benchmark expects, keyed by the entry's
"Class.method" and then by mode, or None where only invariants can be
checked.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from oadetect.frontend import ProvenanceMap, parse_source, pretty_print
from oadetect.harness import bundled_corpus_dir
from oadetect.mir import Provenance, all_methods, iter_stmts
from oadetect.randprog import default_seed, generate_program

MODES = ("nopa", "pa", "hybrid")

# The property-suite budgets; the other workloads run at the CLI defaults.
SCAN_BUDGET = {"fuel": 20_000, "path_cap": 512}


@dataclass
class ScenarioSpec:
    unit_id: str  # the manifest id, which `corpus` uses as the unit name
    directory: Path
    # "Class.method" of each entry -> mode -> verdict, "*" standing for the
    # only entry; None where the answer is not known by hand
    expected: Optional[dict[str, dict[str, str]]] = None
    # seed of the random program, for the interpreter-oracle check
    program_seed: Optional[int] = None
    mkref: bool = False


@dataclass
class Workload:
    name: str
    root: Path
    budget: dict  # AnalysisBudget fields that differ from the defaults
    scenarios: list[ScenarioSpec] = field(default_factory=list)

    def budget_flags(self) -> list[str]:
        return [f for k, v in self.budget.items() for f in (f"--{k.replace('_', '-')}", str(v))]


def _write_manifest(directory: Path, manifest: dict) -> None:
    (directory / "scenario.json").write_text(json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# gate-bundled: the paper's four cases

BUNDLED_EXPECTED = {
    "fig1_simple": ("true", "true", "true"),
    "fig1_advanced": ("true", "false", "false"),
    "mkref": ("true", "false", "true"),
    "deep_hierarchy": ("timeout", "false", "false"),
}


def gate_bundled(root: Path, seed: int) -> Workload:
    """The four bundled scenarios, copied as they ship; the seed only orders them."""
    wl = Workload("gate-bundled", root, {})
    names = sorted(BUNDLED_EXPECTED)
    random.Random(seed).shuffle(names)
    for i, name in enumerate(names):
        dest = root / f"{i:02d}_{name}"
        shutil.copytree(bundled_corpus_dir() / name, dest)
        verdicts = dict(zip(MODES, BUNDLED_EXPECTED[name]))
        # Each bundled scenario has exactly one dually modified method.
        unit_id = json.loads((dest / "scenario.json").read_text())["id"]
        wl.scenarios.append(ScenarioSpec(unit_id, dest, expected={"*": verdicts}))
    return wl


# ---------------------------------------------------------------------------
# scan-random: the property-suite random programs

SCAN_PROGRAMS = 33


def scan_program_seeds(count: int = SCAN_PROGRAMS) -> list[int]:
    """The first `count` property-suite seeds (from OA_SEED+3000) that mark an entry."""
    base = default_seed() + 3000
    seeds: list[int] = []
    i = 0
    while len(seeds) < count:
        if generate_program(base + i, mkref=scan_mkref(base + i), mark_changes=True).entry is not None:
            seeds.append(base + i)
        i += 1
    return seeds


def scan_mkref(program_seed: int) -> bool:
    """Whether the property suite generates this seed with reflective allocation."""
    return (program_seed - default_seed() - 3000) % 2 == 0


def _sidecar_of(program) -> ProvenanceMap:
    left, right = set(), set()
    for m in all_methods(program):
        for st in iter_stmts(m.body):
            if st.provenance is Provenance.LEFT:
                left.add(st.pos)
            elif st.provenance is Provenance.RIGHT:
                right.add(st.pos)
    return ProvenanceMap(left=left, right=right)


def _strip_markers(program) -> None:
    for m in all_methods(program):
        for st in iter_stmts(m.body):
            st.provenance = Provenance.BASE


def write_random_scenario(directory: Path, program_seed: int, mkref: bool, sidecar: bool) -> None:
    """Write one marked random program, naming its entry in the manifest.

    The program is pretty-printed and parsed back by the analyzer, so the
    sidecar's line numbers are taken from a reparse of the printed text.
    """
    gen = generate_program(program_seed, mkref=mkref, mark_changes=True)
    entry = gen.entry
    text = pretty_print(gen.program)
    ref = f"{entry.declaring_class}.{entry.name}/{len(entry.params)}"
    directory.mkdir(parents=True)
    manifest = {"id": directory.name, "sources": ["gen.mir"], "entry": ref}
    if sidecar:
        printed = parse_source(text, "gen.mir", validate=False)
        (directory / "changes.json").write_text(_sidecar_of(printed).to_json() + "\n")
        _strip_markers(printed)
        text = pretty_print(printed)
        manifest["sidecar"] = "changes.json"
    (directory / "gen.mir").write_text(text)
    _write_manifest(directory, manifest)


def scan_random(root: Path, seed: int) -> Workload:
    """The property-suite programs; the seed orders them and picks the sidecar half."""
    wl = Workload("scan-random", root, SCAN_BUDGET)
    rng = random.Random(seed)
    seeds = scan_program_seeds()
    sidecar_of = set(rng.sample(seeds, len(seeds) // 2))
    rng.shuffle(seeds)
    for i, ps in enumerate(seeds):
        mkref = scan_mkref(ps)
        dest = root / f"{i:02d}_p{ps}"
        write_random_scenario(dest, ps, mkref, ps in sidecar_of)
        wl.scenarios.append(
            ScenarioSpec(dest.name, dest, program_seed=ps, mkref=mkref)
        )
    return wl


# ---------------------------------------------------------------------------
# wide-hierarchy: generated class hierarchies with verdicts known by construction

# Service-method shapes. Each body first loads `this.next` (an interface-typed
# field) and calls `ping` on it, which the hierarchy resolves to every
# implementer and points-to resolves to the one wired object; then:
#   pair        @L/@R writes to one inherited field           true  true  true
#   base-pair   the same with a base write between            false false false
#   via-call    @L write, then an @R call to an inherited     true  true  true
#               method that writes the same field
#   base-call   via-call with a base write between            false false false
#   two-boxes   @L/@R writes to one field of two objects      true  false false
#               that hierarchy aliases and points-to separates
SERVICE_KINDS = {
    "pair": ("true", "true", "true"),
    "base-pair": ("false", "false", "false"),
    "via-call": ("true", "true", "true"),
    "base-call": ("false", "false", "false"),
    "two-boxes": ("true", "false", "false"),
}


def _service_body(kind: str) -> list[str]:
    head = ["h = this.next;", "call h.ping(1);"]
    if kind == "pair":
        return head + ["this.val = 1 @L;", "this.val = 2 @R;"]
    if kind == "base-pair":
        return head + ["this.val = 1 @L;", "this.val = 0;", "this.val = 2 @R;"]
    if kind == "via-call":
        return head + ["this.val = 1 @L;", "call this.bump() @R;"]
    if kind == "base-call":
        return head + ["this.val = 1 @L;", "this.val = 0;", "call this.bump() @R;"]
    if kind == "two-boxes":
        return head + ["a = this.pa;", "b = this.pb;", "a.w = 1 @L;", "b.w = 2 @R;"]
    raise ValueError(f"unknown service kind '{kind}'")


def wide_hierarchy_source(rng: random.Random, n_classes: int, n_ifaces: int) -> tuple[str, dict]:
    """MIR text of one hierarchy program plus its expected verdicts per service entry."""
    out: list[str] = []
    for k in range(n_ifaces):
        out += [f"interface I{k} {{", "  method ping(x);", "  method run();", "}"]
    out += ["class Box {", "  field w: int;", "}"]

    # Fixed shape, so that every program costs about the same: chains of
    # CHAIN_LENGTH classes, each interface implemented by as many chains.
    chains = [[f"K{c}x{j}" for j in range(CHAIN_LENGTH)] for c in range(n_classes // CHAIN_LENGTH)]
    iface_of = [c % n_ifaces for c in range(len(chains))]
    rng.shuffle(iface_of)

    for c, chain in enumerate(chains):
        for j, name in enumerate(chain):
            if j == 0:
                out += [f"class {name} implements I{iface_of[c]} {{",
                        "  field val: int;", f"  field next: I{iface_of[c]};"]
            else:
                out += [f"class {name} extends {chain[j - 1]} {{"]
            out += [f"  field v{name}: int;",
                    "  method ping(x) {", f"    this.v{name} = x;", "  }",
                    "  method run() {", "    n = this.next;", "    call n.ping(2);",
                    f"    this.v{name} = 3;", "  }"]
            if j == 0:
                out += ["  method bump() {", "    this.val = 5;", "  }"]
            out += ["}"]

    kinds = list(SERVICE_KINDS)
    rng.shuffle(kinds)
    expected: dict[str, dict[str, str]] = {}
    services: list[tuple[str, str, int]] = []
    for s, kind in enumerate(kinds):
        c = rng.randrange(len(chains))
        name = f"Svc{s}"
        services.append((name, kind, c))
        out += [f"class {name} extends {chains[c][-1]} {{"]
        if kind == "two-boxes":
            out += ["  field pa: Box;", "  field pb: Box;"]
        out += [f"  method op{s}() {{"] + [f"    {line}" for line in _service_body(kind)]
        out += ["  }", "}"]
        expected[f"{name}.op{s}"] = dict(zip(MODES, SERVICE_KINDS[kind]))

    main = ["class Main {", "  public static method main() {"]
    objs: list[list[str]] = []
    for c, chain in enumerate(chains):
        names = []
        for j, cls in enumerate(chain):
            o = f"o{c}x{j}"
            main.append(f"    {o} = new {cls}();")
            names.append(o)
        objs.append(names)
    # Wire each object to one of the same interface, then run it.
    by_iface: dict[int, list[str]] = {}
    for c, names in enumerate(objs):
        by_iface.setdefault(iface_of[c], []).extend(names)
    for c, names in enumerate(objs):
        pool = by_iface[iface_of[c]]
        for o in names:
            main.append(f"    {o}.next = {rng.choice(pool)};")
            main.append(f"    call {o}.run();")
    for s, (name, kind, c) in enumerate(services):
        sv = f"sv{s}"
        main.append(f"    {sv} = new {name}();")
        main.append(f"    {sv}.next = {rng.choice(by_iface[iface_of[c]])};")
        if kind == "two-boxes":
            main += [f"    bx{s} = new Box();", f"    by{s} = new Box();",
                     f"    {sv}.pa = bx{s};", f"    {sv}.pb = by{s};"]
        main.append(f"    call {sv}.op{s}();")
    out += main + ["  }", "}"]
    return "\n".join(out) + "\n", expected


WIDE_SCENARIOS = 13
WIDE_CLASSES = 64
WIDE_IFACES = 4
CHAIN_LENGTH = 8


def wide_hierarchy(root: Path, seed: int) -> Workload:
    """Hierarchy-heavy programs of one fixed shape; the seed draws which
    chains share an interface, the wiring, and where each service sits."""
    wl = Workload("wide-hierarchy", root, {})
    rng = random.Random(seed)
    for i in range(WIDE_SCENARIOS):
        dest = root / f"{i:02d}_wide"
        dest.mkdir(parents=True)
        text, expected = wide_hierarchy_source(rng, WIDE_CLASSES, WIDE_IFACES)
        (dest / "wide.mir").write_text(text)
        _write_manifest(dest, {"id": dest.name, "sources": ["wide.mir"]})
        wl.scenarios.append(ScenarioSpec(dest.name, dest, expected=expected))
    return wl


GENERATORS = {
    "gate-bundled": gate_bundled,
    "scan-random": scan_random,
    "wide-hierarchy": wide_hierarchy,
}


def build_workload(name: str, root: Path, seed: int) -> Workload:
    """Generate workload `name` from `seed` into the empty directory `root`."""
    root.mkdir(parents=True)
    return GENERATORS[name](root, seed)
