"""The package surface that `bench/run.py` and `bench/workloads.py` use.

The benchmark calls into the analyzer's layers itself. A name it imports or
reads that the package no longer has fails there only as a fall in the
share of operations that pass, so this test resolves each one: the names
the bench sources import or read off an `oadetect` module (found by parsing
them), and the attributes they read off the objects those calls return.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from conftest import budget
from oadetect import cha, engine, frontend, harness, interp, mir, pointsto, randprog
from oadetect.harness import bundled_corpus_dir

BENCH = Path(__file__).resolve().parent.parent / "bench"
SOURCES = ("run.py", "workloads.py")


def _module_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for each `from oadetect.M import name`, each
    `M.name` where `M` was bound by `from oadetect import M` in the same
    function (or at the top level), and each `sys.modules["oadetect.M"].name`."""
    reads: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("oadetect."):
            reads.update((node.module, a.name) for a in node.names)
    scopes = [(tree, tree.body)] + [
        (f, list(ast.walk(f))) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
    ]
    for scope, stmts in scopes:
        aliases = {
            a.asname or a.name: f"oadetect.{a.name}"
            for st in stmts
            if isinstance(st, ast.ImportFrom) and st.module == "oadetect"
            for a in st.names
        }
        for node in ast.walk(scope):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if isinstance(value, ast.Name) and value.id in aliases:
                reads.add((aliases[value.id], node.attr))
            elif (isinstance(value, ast.Subscript) and isinstance(value.slice, ast.Constant)
                  and str(value.slice.value).startswith("oadetect")):
                reads.add((value.slice.value, node.attr))
    return reads


def _bench_reads() -> set[tuple[str, str]]:
    reads: set[tuple[str, str]] = set()
    for name in SOURCES:
        reads |= _module_reads(ast.parse((BENCH / name).read_text()))
    return reads


def test_the_parse_finds_the_layer_calls():
    # Guards the parse itself: these reads are known to be in the bench.
    reads = _bench_reads()
    for expected in [
        ("oadetect.mir", "subtype_of"), ("oadetect.mir", "implementers_of"),
        ("oadetect.mir", "supertypes_of"), ("oadetect.pointsto", "MISS"),
        ("oadetect.pointsto", "pts_of"), ("oadetect.engine", "enumerate_write_paths"),
        ("oadetect.harness", "UnitResult"), ("oadetect.engine", "AnalysisBudget"),
        ("oadetect.cli", "main"), ("oadetect.frontend", "ProvenanceMap"),
    ]:
        assert expected in reads


@pytest.mark.parametrize("module,name", sorted(_bench_reads()))
def test_each_bench_read_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def _unit_result_keywords() -> set[str]:
    tree = ast.parse((BENCH / "run.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "UnitResult"
    ]
    assert calls, "layer_scenario builds no harness.UnitResult"
    return {kw.arg for call in calls for kw in call.keywords}


def test_unit_result_takes_the_keywords_layer_scenario_passes():
    keywords = _unit_result_keywords()
    assert {"unit", "outcome", "timings_ms", "entry"} <= keywords
    inspect.signature(harness.UnitResult).bind(**dict.fromkeys(keywords))


def test_attributes_read_off_layer_results():
    """Run each layer once on a bundled scenario and read what the bench reads."""
    s = harness.load_scenario(bundled_corpus_dir() / "fig1_simple")
    assert s.project and all(hasattr(s, name) for name in ("entry", "ground_truth", "sidecar"))
    program = frontend.parse_program(s.sources)
    assert all(u.line_count > 0 for u in s.sources)
    assert program.classes and hasattr(program, "interfaces")
    (entry,) = frontend.entry_candidates(program)
    assert entry.id and entry.display.endswith("()")
    assert entry.declaring_class and entry.name and entry.params == ()

    pts = pointsto.solve(program, pointsto.pa_entry_points(program))
    assert pts.pts and pts.sites and pts.unresolved == ()
    graph = cha.build_cha_graph(program, entry)
    for g in (graph, pts.callgraph):
        edge = min(g.edges)
        assert edge.site and edge.target and g.nodes
        assert g.has_site(edge.site) and edge.target in g.targets_at(edge.site)

    outcome = engine.detect(program, entry, engine.Mode.PA, budget=budget(), cha=graph, pts=pts)
    assert outcome.verdict is engine.Verdict.TRUE
    assert outcome.stats.paths and outcome.stats.visited
    assert outcome.conflicts and outcome.missrefs == []
    paths = list(engine.enumerate_write_paths(program, entry, budget(), engine.Mode.PA, cha=graph, pts=pts))
    assert len(paths) == outcome.stats.paths

    main = mir.find_method(program, "Main.main")
    trace = interp.interpret(program, main, step_limit=3000)
    assert trace.bindings and trace.dispatches
    assert pointsto.pts_of(pts, trace.bindings[0][:2]) is not pointsto.MISS

    sidecar = frontend.ProvenanceMap(left={mir.Position("a.mir", 1)}, right=set())
    assert frontend.ProvenanceMap.from_json(sidecar.to_json()) == sidecar
    gen = randprog.generate_program(randprog.default_seed(), mark_changes=True)
    assert gen.program and gen.entry is not None
    st = next(mir.iter_stmts(next(mir.all_methods(gen.program)).body))
    assert st.pos and st.provenance in set(mir.Provenance)
