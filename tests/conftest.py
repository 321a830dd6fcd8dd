from __future__ import annotations

import json
from collections import defaultdict, deque
from typing import Optional

import pytest

from oadetect.cha import CallGraph, _add_targets, _sorted_sites
from oadetect.engine import _BRANCH, _CALL, _HEAP, _RETURN, AR, IFR, LV, SFR, AnalysisBudget, Mode, Verdict, WriteEvent
from oadetect.harness import load_bundled, scenario_units
from oadetect.mir import (
    AllocAssign,
    ArrayAlloc,
    ArrayLoad,
    ArrayStore,
    Const,
    CopyAssign,
    FieldLoad,
    FieldStore,
    MethodDef,
    MirError,
    Position,
    Program,
    Return,
    StaticCall,
    StaticLoad,
    StaticStore,
    Provenance,
    VirtualCall,
    iter_stmts,
)
from oadetect.pointsto import PointsToResult, Var, alloc_sites, pa_entry_points


def budget(**overrides) -> AnalysisBudget:
    """Deterministic default budget for tests: wall clock off."""
    kwargs = {"wall_clock": None}
    kwargs.update(overrides)
    return AnalysisBudget(**kwargs)


def parse_records(text: str) -> list[dict]:
    """The objects of a `records.jsonl` text, one per non-blank line."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def call_graph_from_edges(roots, nodes, edges) -> CallGraph:
    """The call graph of `CallEdge`s, kept per site as the builders keep it;
    a site with two callers raises MirError."""
    by_site: dict = {}
    for e in edges:
        _add_targets(by_site, e.site, e.caller, (e.target,))
    return CallGraph(frozenset(roots), frozenset(nodes), _sorted_sites(by_site))


def reference_supertypes(name: str, p: Program) -> frozenset[str]:
    """The per-type search `Hierarchy.supertypes` replaced: every declared
    type reachable from `name` over declared supertypes, searched afresh for
    each type, with each type's supertypes read from a scan of `p`'s
    declarations (a class before an interface, the first declaration of a
    name winning), not from the index; an unknown `name` raises MirError."""
    declared: dict[str, list[str]] = {}
    for i in reversed(p.interfaces):
        declared[i.name] = [i.extends] if i.extends else []
    for c in reversed(p.classes):
        declared[c.name] = ([c.superclass] if c.superclass else []) + list(c.interfaces)
    if name not in declared:
        raise MirError(f"unknown type '{name}'")
    seen: set[str] = set()
    work = [name]
    while work:
        t = work.pop()
        if t in seen:
            continue
        seen.add(t)
        work.extend(s for s in declared[t] if s in declared)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# The reference points-to solver


class ReferenceSolver:
    """The worklist solver `pointsto.solve` replaced: a dequeued variable
    sends its whole set down every copy edge and re-applies all its loads,
    stores and virtual calls."""

    def __init__(self, p: Program, entries: list[MethodDef]):
        self.h = p.hierarchy()
        self.entries = entries
        self.by_id = self.h.methods_by_id()
        self.sites_by_pos = alloc_sites(p)
        self.sites = sorted(self.sites_by_pos.values(), key=lambda s: s.id)
        self.pts: dict[Var, set[int]] = defaultdict(set)
        self.succ: dict[Var, set[Var]] = defaultdict(set)
        # base -> {(field name, or None for an array slot; loaded/stored var)}
        self.loads: dict[Var, set[tuple[Optional[str], Var]]] = defaultdict(set)
        self.stores: dict[Var, set[tuple[Optional[str], Var]]] = defaultdict(set)
        self.vcalls: dict[Var, list[tuple[str, VirtualCall]]] = defaultdict(list)
        self.dispatched: set[tuple[Position, int]] = set()
        # call site -> (caller id, target ids), as `cha.build_cha_graph` keeps it
        self.by_site: dict[Position, tuple[str, set[str]]] = {}
        self.reachable: set[str] = set()
        self.method_queue: deque[str] = deque()
        self.var_queue: deque[Var] = deque()
        self.var_queued: set[Var] = set()

    # -- constraint plumbing

    def local(self, mid: str, name: str) -> Var:
        return ("l", mid, name)

    def add_pts(self, var: Var, sids: set[int]) -> None:
        new = sids - self.pts[var]
        if new:
            self.pts[var] |= new
            if var not in self.var_queued:
                self.var_queue.append(var)
                self.var_queued.add(var)

    def add_copy(self, src: Var, dst: Var) -> None:
        if dst not in self.succ[src]:
            self.succ[src].add(dst)
            if self.pts[src]:
                self.add_pts(dst, self.pts[src])

    def operand_var(self, mid: str, o) -> Optional[Var]:
        if isinstance(o, Const):
            return None
        return self.local(mid, o)

    # -- method discovery

    def make_reachable(self, mid: str) -> None:
        if mid in self.reachable:
            return
        self.reachable.add(mid)
        self.method_queue.append(mid)

    def process_method(self, mid: str) -> None:
        method = self.by_id[mid]
        for st in iter_stmts(method.body):
            self.add_constraints(mid, st)

    def add_constraints(self, mid: str, st) -> None:
        if isinstance(st, AllocAssign):
            site = self.sites_by_pos[st.pos]
            self.add_pts(self.local(mid, st.target), {site.id})
            ctor = self.h.constructor_of(st.cls, len(st.args))
            if ctor is not None:
                self._bind_call(st.pos, mid, ctor, this_sites={site.id}, args=st.args, result=None)
        elif isinstance(st, ArrayAlloc):
            site = self.sites_by_pos[st.pos]
            self.add_pts(self.local(mid, st.target), {site.id})
        elif isinstance(st, CopyAssign):
            src = self.operand_var(mid, st.source)
            if src is not None:
                self.add_copy(src, self.local(mid, st.target))
        elif isinstance(st, (FieldStore, ArrayStore)):
            src = self.operand_var(mid, st.source)
            if src is not None:
                base = self.local(mid, st.base)
                self.stores[base].add((getattr(st, "field", None), src))
                self._apply_heap(base)
        elif isinstance(st, (FieldLoad, ArrayLoad)):
            base = self.local(mid, st.base)
            self.loads[base].add((getattr(st, "field", None), self.local(mid, st.target)))
            self._apply_heap(base)
        elif isinstance(st, StaticStore):
            src = self.operand_var(mid, st.source)
            if src is not None:
                self.add_copy(src, self._static_var(st.cls, st.field))
        elif isinstance(st, StaticLoad):
            self.add_copy(self._static_var(st.cls, st.field), self.local(mid, st.target))
        elif isinstance(st, VirtualCall):
            recv = self.local(mid, st.receiver)
            self.vcalls[recv].append((mid, st))
            self._apply_calls(recv)
        elif isinstance(st, StaticCall):
            target = self.h.resolve_method(st.cls, st.method, len(st.args), static=True)
            if target is not None:
                self._bind_call(st.pos, mid, target, this_sites=None, args=st.args, result=st.result)
        elif isinstance(st, Return):
            if st.value is not None:
                self.add_copy(self.local(mid, st.value), ("r", mid))

    def _static_var(self, cls: str, fname: str) -> Var:
        return ("s", self.h.static_field_of(cls, fname)[0], fname)

    def _bind_call(self, pos, caller_mid, target: MethodDef, this_sites, args, result) -> None:
        _add_targets(self.by_site, pos, caller_mid, (target.id,))
        self.make_reachable(target.id)
        if this_sites is not None and not target.static:
            self.add_pts(self.local(target.id, "this"), set(this_sites))
        for pname, a in zip(target.params, args):
            src = self.operand_var(caller_mid, a)
            if src is not None:
                self.add_copy(src, self.local(target.id, pname))
        if result is not None:
            self.add_copy(("r", target.id), self.local(caller_mid, result))

    # -- complex-constraint application

    def _object_sites(self, var: Var):
        return [s for s in self.pts[var] if self.sites[s].kind == "object"]

    def _cells(self, base: Var, fname: Optional[str]) -> list[Var]:
        """The heap cells an access of `fname` through `base` reaches: field
        `fname` of each object site, or, for None, the slot of each array site."""
        if fname is None:
            return [("a", s) for s in self.pts[base] if self.sites[s].kind == "array"]
        return [("f", s, fname) for s in self.pts[base] if self.sites[s].kind == "object"]

    def _apply_heap(self, base: Var) -> None:
        for fname, dst in self.loads[base]:
            for cell in self._cells(base, fname):
                self.add_copy(cell, dst)
        for fname, src in self.stores[base]:
            for cell in self._cells(base, fname):
                self.add_copy(src, cell)

    def _apply_calls(self, recv: Var) -> None:
        for caller_mid, st in self.vcalls[recv]:
            for sid in self._object_sites(recv):
                if (st.pos, sid) in self.dispatched:
                    continue
                self.dispatched.add((st.pos, sid))
                cls = self.sites[sid].cls
                target = self.h.resolve_method(cls, st.method, len(st.args), static=False)
                if target is None:
                    continue
                self._bind_call(st.pos, caller_mid, target, this_sites={sid}, args=st.args, result=st.result)

    # -- main loop

    def run(self) -> None:
        for m in self.entries:
            self.make_reachable(m.id)
        while self.method_queue or self.var_queue:
            while self.method_queue:
                self.process_method(self.method_queue.popleft())
            while self.var_queue:
                var = self.var_queue.popleft()
                self.var_queued.discard(var)
                for dst in list(self.succ[var]):
                    self.add_pts(dst, self.pts[var])
                self._apply_heap(var)
                self._apply_calls(var)


def reference_solve(p, entries=None) -> PointsToResult:
    """`pointsto.solve` by `ReferenceSolver`."""
    if entries is None:
        entries = pa_entry_points(p)
    solver = ReferenceSolver(p, entries)
    solver.run()

    entry_ids = tuple(m.id for m in entries)
    graph = CallGraph(frozenset(entry_ids), frozenset(solver.reachable | set(entry_ids)),
                      _sorted_sites(solver.by_site))

    # Every virtual call of a reachable method is in `vcalls`; those that
    # never dispatched have no edge.
    unresolved = sorted(
        (st.pos, "unresolved-call")
        for calls in solver.vcalls.values()
        for _, st in calls
        if not graph.has_site(st.pos)
    )

    pts = {var: frozenset(sids) for var, sids in solver.pts.items() if sids}
    return PointsToResult(
        pts=pts,
        sites=tuple(solver.sites),
        callgraph=graph,
        unresolved=tuple(unresolved),
        methods=solver.by_id,
    )


def is_closed(p, r) -> bool:
    """Whether one more application of every points-to constraint adds
    nothing to the solve result `r`.

    A solver is seeded with the result's sets, call sites and reachable
    methods, and the constraints of every reachable method are added once;
    the result is closed when no set, call target or reachable method grows.
    """
    solver = ReferenceSolver(p, [])
    for var, sids in r.pts.items():
        solver.pts[var] = set(sids)
    solver.by_site = {pos: (caller, set(ids)) for pos, (caller, ids) in r.callgraph.sites.items()}
    solver.reachable = set(r.callgraph.nodes)
    for mid in r.callgraph.nodes:
        solver.process_method(mid)
    return (not solver.var_queue and not solver.method_queue
            and _sorted_sites(solver.by_site) == r.callgraph.sites)


def annotate_missref_paths(run) -> list[dict]:
    """For each unit of corpus run `run` that `pa` cleared but `nopa`
    flagged: its `pa` miss-references, and those that sit on a position of
    a `nopa` conflict flow (a write or a call on its call path).

    Each unit gives {"unit", "missrefs" (the count), "on_path" (the misses
    on a flow, in `pa`'s order), "on_conflict_path" (whether there are any)}.
    """
    enriched = []
    for unit, per_mode in run.by_unit().items():
        if Mode.NOPA not in per_mode or Mode.PA not in per_mode:
            continue
        a, b = per_mode[Mode.NOPA], per_mode[Mode.PA]
        if a.verdict is not Verdict.TRUE or b.verdict is not Verdict.FALSE:
            continue
        trace_positions = set()
        for c in a.outcome.conflicts:
            for ev in (c.overridden, c.overriding):
                trace_positions.update(h.pos for h in ev.call_path)
                trace_positions.add(ev.pos)
        on_path = [m for m in b.outcome.missrefs if m.pos in trace_positions]
        enriched.append({
            "unit": unit,
            "missrefs": len(b.outcome.missrefs),
            "on_path": on_path,
            "on_conflict_path": bool(on_path),
        })
    return enriched


def load_scenario_program(name: str):
    """Parsed program and single (unit, entry) pair of a bundled scenario."""
    s = load_bundled(name)
    program, units = scenario_units(s)
    assert len(units) == 1
    return program, units[0][1]


@pytest.fixture(scope="session")
def fig1_simple():
    return load_scenario_program("fig1_simple")


@pytest.fixture(scope="session")
def fig1_advanced():
    return load_scenario_program("fig1_advanced")


@pytest.fixture(scope="session")
def mkref_scenario():
    return load_scenario_program("mkref")


@pytest.fixture(scope="session")
def deep_hierarchy():
    return load_scenario_program("deep_hierarchy")


ALL_MODES = (Mode.NOPA, Mode.PA, Mode.HYBRID)

# A conflict on the first path, then twelve forks that exhaust a fuel of 300:
# a timeout that holds the conflict of its completed paths.
CONFLICT_THEN_FORKS = (
    "class A {\n  field static g: int;\n  method m() {\n"
    "    A::g = 1 @L;\n    A::g = 2 @R;\n    c = 1;\n"
    + "".join(f"    if c {{\n      w{i} = 1;\n    }}\n" for i in range(12))
    + "  }\n}\n"
)


def _nested_calls(methods: int = 6, nesting: int = 200) -> str:
    """Static methods chained by calls, each call under `nesting` nested
    `if`s; the first method is the entry, with a conflict on every path."""
    lines = ["class Main {"]
    for i in range(methods):
        lines.append(f"  static method m{i}() {{")
        if i == 0:
            lines += ["    x = 1 @L;", "    x = 2 @R;"]
        lines.append("    c = 1;")
        lines += ["    " + "  " * d + "if c {" for d in range(nesting)]
        inner = f"call Main::m{i + 1}();" if i + 1 < methods else "y = 1;"
        lines.append("    " + "  " * nesting + inner)
        lines += ["    " + "  " * d + "}" for d in reversed(range(nesting))]
        lines.append("  }")
    return "\n".join(lines + ["}"]) + "\n"


# Six methods, 1 201 paths and 1 214 visits at the default budget: its path
# tree nests 1 200 blocks deep, past Python's recursion limit.
NESTED_CALLS = _nested_calls()


def extends_chain(classes: int) -> str:
    """`C0` with a field `f` and a method `m` writing it, and `C1`..`C(n-1)`
    each extending the one before and overriding `m`; `T.run` calls `m` on
    a `C0` field (left) and then writes its `f` (right), a conflict through
    every override. `Main.main` hands `T` a `C(n-1)`. The hierarchy's
    bitmask closures take n^2/8 bytes, so 5 000 classes analyse in about
    45 MB."""
    lines = ["class C0 {", "  field f: int;", "  method m() {", "    this.f = 0;", "  }", "}"]
    for i in range(1, classes):
        lines += [f"class C{i} extends C{i - 1} {{", "  method m() {", f"    this.f = {i};", "  }", "}"]
    lines += [
        "class T {", "  field r: C0;", "  ctor(r) {", "    this.r = r;", "  }",
        "  method run() {", "    r = this.r;", "    call r.m() @L;", "    r.f = 7 @R;", "  }", "}",
        "class Main {", "  public static method main() {", f"    c = new C{classes - 1}();",
        "    t = new T(c);", "    call t.run();", "  }", "}",
    ]
    return "\n".join(lines) + "\n"


def copy_chain(n: int) -> str:
    """`Main.main` allocates `n` objects into `x` and copies `x` along a
    chain of `n` locals, so a points-to solve holds n^2 sites in all (2 000
    need about 270 MB); `C.m` is the one unit, with a conflict of its own."""
    lines = ["class C {", "  field f: int;", "  method m() {", "    this.f = 1 @L;", "    this.f = 2 @R;", "  }", "}",
             "class Main {", "  public static method main() {"]
    lines += ["    x = new C();"] * n
    lines += [f"    y{i} = {f'y{i - 1}' if i else 'x'};" for i in range(n)]
    lines += ["    call x.m();", "  }", "}"]
    return "\n".join(lines) + "\n"


# `return` inside nested blocks of callees, which neither `randprog` (it
# emits `return` only as a method's last statement) nor the bundled corpus
# has: the constructor returns from inside an `if` (line 11), the virtual
# `area` from an `if` inside a `while` (line 20), and `Main.main` calls
# `area` inside an `if` and writes after both calls. Under `nopa`, `t.area()`
# also reaches `Circle.area`; points-to narrows it to `Sq.area`.
RETURN_IN_BLOCKS = (
    "interface Shape {\n"
    "  method area();\n"
    "}\n"
    "class Sq implements Shape {\n"
    "  field side: int;\n"
    "  field static log: int;\n"
    "  ctor(v) {\n"
    "    this.side = v;\n"
    "    if v {\n"
    "      Sq::log = 1;\n"
    "      return;\n"
    "    }\n"
    "    this.side = 2;\n"
    "  }\n"
    "  method area() {\n"
    "    n = this.side;\n"
    "    while n {\n"
    "      if n {\n"
    "        Sq::log = 3;\n"
    "        return n;\n"
    "      }\n"
    "      n = op(n);\n"
    "    }\n"
    "    Sq::log = 4;\n"
    "    return n;\n"
    "  }\n"
    "}\n"
    "class Circle implements Shape {\n"
    "  method area() {\n"
    "    Sq::log = 5;\n"
    "  }\n"
    "}\n"
    "class Main {\n"
    "  field shape: Shape;\n"
    "  public static method main() {\n"
    "    s = new Sq(1) @L;\n"
    "    m = new Main();\n"
    "    m.shape = s;\n"
    "    t = m.shape;\n"
    "    if t {\n"
    "      a = t.area() @R;\n"
    "      b = a;\n"
    "    }\n"
    "    Sq::log = 6 @L;\n"
    "    s.side = 7 @R;\n"
    "  }\n"
    "}\n"
)


# ---------------------------------------------------------------------------
# Lowered writes


def reference_write_slices(ctx, st, m: MethodDef) -> tuple:
    """The `head`, `tail` and `key` of the write op that `ctx` lowers from
    statement `st` in method `m` (the result local's, for a call), as slices
    of a keyword-built `WriteEvent`, as lowering once took them: the fields
    before `provenance`, those from `base_type` on, and `element_key()`; for
    a heap write, the fields from `local` on and a key of None."""
    def event(kind, **payload) -> WriteEvent:
        return WriteEvent(kind, st.pos, m.id, m.display, m.kind, Provenance.BASE, **payload)

    if isinstance(st, (FieldStore, ArrayStore)):
        pts = ctx.pts.pts.get(("l", m.id, st.base)) if ctx.mode.uses_pts and ctx.pts is not None else None
        if isinstance(st, FieldStore):
            ev = event(IFR, base=st.base, base_pts=pts or None, field_name=st.field)
        else:
            ev = event(AR, base=st.base, base_pts=pts or None, index=st.index)
        return ev[:5], ev[9:], None
    if isinstance(st, StaticStore):
        decl, ftype = ctx.hierarchy.static_field_of(st.cls, st.field)
        ev = event(SFR, static_cls=decl, field_name=st.field, static_type=ftype)
    else:
        ev = event(LV, local=st.result if isinstance(st, (VirtualCall, StaticCall)) else st.target)
    return ev[:5], ev[7:], ev.element_key()


# ---------------------------------------------------------------------------
# The op-walking sides and quiet passes


def _op_key(op) -> tuple:
    """The key `engine._sides_meet` gives a write op: (IFR, field name) or
    (AR,) for a heap write, else its `element_key()`."""
    if op.code == _HEAP:
        return (IFR, op.field) if op.field is not None else (AR,)
    return op.key


def reference_sides_meet(ctx, entry, reach_all: bool = False) -> set:
    """`engine._sides_meet` as one pass over the lowered ops per (method,
    inherited side) state, nested blocks included, before the lowering kept
    each method's effects."""
    keys = {Provenance.LEFT: set(), Provenance.RIGHT: set()}
    entered = {None: {entry.id}, Provenance.LEFT: set(), Provenance.RIGHT: set()}
    work = [(ctx.ops(entry), None)]
    while work:
        ops, inherited = work.pop()
        if type(ops) is not list:  # a method `reach_all` lowers when it gets to it
            ops = ctx.ops(ops)
        for op in ops:
            code = op.code
            if code == _BRANCH:
                work.extend((block, inherited) for block in op.alts if block is not None)
                continue
            if code == _RETURN:
                continue
            prov = op.prov or inherited
            if code == _CALL:
                if op.targets is None and reach_all:
                    ctx.resolve_targets(op)
                done = entered[prov]
                if op.targets and not op.target_ids <= done:
                    for t in op.targets:
                        body = t if reach_all else ctx.lowered.get(t.id)
                        if body is not None and t.id not in done:
                            done.add(t.id)
                            work.append((body, prov))
                write = op if op.head is not None else op.result  # an allocation's local, a result
                if write is None:
                    continue
                key = write.key
            else:
                key = _op_key(op)
            if prov is not None:
                keys[prov].add(key)
    return keys[Provenance.LEFT] & keys[Provenance.RIGHT]


def reference_quiet(ctx, keys: set) -> frozenset:
    """`engine._quiet` by walking each lowered method's ops for a write
    keyed in `keys`, then marking the callers of every such method."""
    callers: dict[str, list[str]] = {}
    loud = []
    for mid, ops in ctx.lowered.items():
        blocks, writes = [ops], False
        while blocks and not writes:
            for op in blocks.pop():
                code = op.code
                if code == _BRANCH:
                    blocks.extend(block for block in op.alts if block is not None)
                elif code == _CALL:  # the write of an allocation's local or a call's result
                    writes = op.key in keys or (op.result is not None and op.result.key in keys)
                    if op.targets:
                        for tid in op.target_ids:
                            callers.setdefault(tid, []).append(mid)
                elif code != _RETURN:
                    writes = _op_key(op) in keys
                if writes:
                    loud.append(mid)
                    break
    heard = set(loud)
    while loud:
        for mid in callers.get(loud.pop(), ()):
            if mid not in heard:
                heard.add(mid)
                loud.append(mid)
    return frozenset(ctx.lowered.keys() - heard)
