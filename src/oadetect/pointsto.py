"""Inclusion-based points-to analysis with an on-the-fly call graph.

Flow- and context-insensitive, field-sensitive, one smashed slot per array
allocation. Every `new`/`newarr` statement is an allocation site; reflective
instantiation (`mkref`) deliberately creates none, so anything it feeds keeps
an empty points-to set and shows up downstream as a miss-reference.

Constraint variables:
    ("l", method_id, local)   method-qualified local
    ("f", site_id, field)     instance field of an abstract object
    ("a", site_id)            the smashed slot of an abstract array
    ("s", cls, field)         static field (declaring class resolved)
    ("r", method_id)          return value

The solver starts from the program's entry points (all static `main`
methods, else every public method and constructor, else none, which gives
the empty result), discovers call edges as receiver sets grow, and links
parameters and returns along each edge.
Parameters of methods nobody calls stay empty: external callers are unknown.
A method's constraints come from one pass over its statements when it
becomes reachable.

Heap accesses share one rule: a load or store through a base names a field,
or no field for an array slot, and reaches that cell on each site the base
points to of the matching kind: a field on object sites, the slot on array
sites. A virtual call that never dispatched is reported as unresolved.

The worklist propagates differences (Pearce, Kelly and Hankin, SCAM 2003):
a queued variable carries the sites added since it was last processed, and
only those flow along its copy edges and into its loads, stores and calls.
A copy edge or use added later takes the rest of its source's set at once.
A variable with neither is not queued, as nothing would take its sites.
The least fixpoint is unique, so the order of work changes no result.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, NamedTuple, Optional

from .cha import CallGraph, _add_targets, _sorted_sites
from .mir import (
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
    VirtualCall,
    all_methods,
    iter_stmts,
)


class _Miss:
    def __repr__(self) -> str:
        return "MISS"

    def __bool__(self) -> bool:
        return False


MISS = _Miss()

Var = tuple


class AllocSite(NamedTuple):
    id: int
    pos: Position
    cls: str
    kind: str  # "object" | "array"


class PointsToResult(NamedTuple):
    pts: dict
    sites: tuple
    callgraph: CallGraph
    unresolved: tuple  # (Position, reason) pairs
    methods: Mapping[str, MethodDef]  # the program's methods by id


def pa_entry_points(p: Program) -> list[MethodDef]:
    """All static `main` methods; else every public method and constructor,
    which may be none."""
    mains = [m for m in all_methods(p) if m.static and m.name == "main"]
    return mains or [m for m in all_methods(p) if m.public or m.is_constructor]


def alloc_sites(p: Program) -> dict[Position, AllocSite]:
    """Allocation sites by position, numbered densely in declaration order."""
    sites: dict[Position, AllocSite] = {}
    for m in all_methods(p):
        for st in iter_stmts(m.body):
            if isinstance(st, AllocAssign):
                sites[st.pos] = AllocSite(len(sites), st.pos, st.cls, "object")
            elif isinstance(st, ArrayAlloc):
                sites[st.pos] = AllocSite(len(sites), st.pos, st.elem_type, "array")
    return sites


def _locals_of(m: MethodDef) -> set[str]:
    names = set(m.params)
    if not m.static:
        names.add("this")
    for st in iter_stmts(m.body):
        for attr in ("target", "source", "base", "receiver", "cond", "value", "result"):
            v = getattr(st, attr, None)
            if isinstance(v, str):
                names.add(v)
        for group in (getattr(st, "args", ()), getattr(st, "operands", ())):
            for a in group:
                if isinstance(a, str):
                    names.add(a)
        idx = getattr(st, "index", None)
        if isinstance(idx, str):
            names.add(idx)
    return names


class _Solver:
    def __init__(self, p: Program, entries: list[MethodDef]):
        self.h = p.hierarchy()
        self.entries = entries
        self.by_id = self.h.methods_by_id()
        self.sites_by_pos = alloc_sites(p)
        self.sites = sorted(self.sites_by_pos.values(), key=lambda s: s.id)
        self.arrays = {s.id for s in self.sites if s.kind == "array"}
        # A variable has an entry in these once it has sites, successors or uses.
        self.pts: dict[Var, set[int]] = {}
        # The worklist: var -> the sites added since its constraints last took them.
        self.delta: dict[Var, set[int]] = {}
        self.succ: dict[Var, set[Var]] = {}
        # base -> [("load", field name or None for an array slot, loaded var),
        #          ("store", field name or None, stored var), ("call", caller id, VirtualCall)]
        self.uses: dict[Var, list[tuple]] = {}
        self.vcalls: list[VirtualCall] = []
        # call site -> (caller id, target ids), as `cha.build_cha_graph` keeps it
        self.by_site: dict[Position, tuple[str, set[str]]] = {}
        self.reachable: set[str] = set()
        self.method_queue: deque[str] = deque()

    # -- constraint plumbing

    def add_pts(self, var: Var, sids) -> None:
        cur = self.pts.get(var)
        if cur is None:
            if not sids:
                return
            new = set(sids)
            self.pts[var] = set(sids)
        else:
            new = sids - cur
            if not new:
                return
            cur |= new
        queued = self.delta.get(var)
        if queued is not None:
            queued |= new
        elif var in self.succ or var in self.uses:
            self.delta[var] = new

    def add_copy(self, src: Var, dst: Var) -> None:
        out = self.succ.get(src)
        if out is None:
            self.succ[src] = {dst}
        elif dst in out:
            return
        else:
            out.add(dst)
        sids = self.pts.get(src)
        if sids:
            queued = self.delta.get(src)
            self.add_pts(dst, sids - queued if queued else sids)

    def add_use(self, base: Var, use: tuple) -> None:
        """Adds a load, store or virtual call through `base`, and applies
        it to the sites `base` has so far."""
        self.uses.setdefault(base, []).append(use)
        sids = self.pts.get(base)
        if sids:
            queued = self.delta.get(base)
            self._apply(sids - queued if queued else tuple(sids), (use,))

    # -- method discovery

    def make_reachable(self, mid: str) -> None:
        if mid in self.reachable:
            return
        self.reachable.add(mid)
        self.method_queue.append(mid)

    def process_method(self, mid: str) -> None:
        """Adds the constraints of each statement of method `mid`."""
        h, site_of = self.h, self.sites_by_pos
        add_pts, add_copy, add_use = self.add_pts, self.add_copy, self.add_use
        for st in iter_stmts(self.by_id[mid].body):
            t = type(st)
            if t is CopyAssign:
                if type(st.source) is not Const:
                    add_copy(("l", mid, st.source), ("l", mid, st.target))
            elif t is FieldLoad or t is ArrayLoad:
                add_use(("l", mid, st.base), ("load", st.field if t is FieldLoad else None, ("l", mid, st.target)))
            elif t is FieldStore or t is ArrayStore:
                if type(st.source) is not Const:
                    field = st.field if t is FieldStore else None
                    add_use(("l", mid, st.base), ("store", field, ("l", mid, st.source)))
            elif t is VirtualCall:
                self.vcalls.append(st)
                add_use(("l", mid, st.receiver), ("call", mid, st))
            elif t is AllocAssign:
                sid = site_of[st.pos].id
                add_pts(("l", mid, st.target), {sid})
                ctor = h.constructor_of(st.cls, len(st.args))
                if ctor is not None:
                    self._bind_call(st.pos, mid, ctor, sid, st.args, None)
            elif t is StaticCall:
                target = h.resolve_method(st.cls, st.method, len(st.args), static=True)
                if target is not None:
                    self._bind_call(st.pos, mid, target, None, st.args, st.result)
            elif t is Return:
                if st.value is not None:
                    add_copy(("l", mid, st.value), ("r", mid))
            elif t is ArrayAlloc:
                add_pts(("l", mid, st.target), {site_of[st.pos].id})
            elif t is StaticStore:
                if type(st.source) is not Const:
                    add_copy(("l", mid, st.source), ("s", h.static_field_of(st.cls, st.field)[0], st.field))
            elif t is StaticLoad:
                add_copy(("s", h.static_field_of(st.cls, st.field)[0], st.field), ("l", mid, st.target))

    def _bind_call(self, pos, caller_mid, target: MethodDef, this_site, args, result) -> None:
        tid = target.id
        _add_targets(self.by_site, pos, caller_mid, (tid,))
        self.make_reachable(tid)
        if this_site is not None and not target.static:
            self.add_pts(("l", tid, "this"), {this_site})
        for pname, a in zip(target.params, args):
            if type(a) is not Const:
                self.add_copy(("l", caller_mid, a), ("l", tid, pname))
        if result is not None:
            self.add_copy(("r", tid), ("l", caller_mid, result))

    # -- complex-constraint application

    def _apply(self, sids, uses) -> None:
        """Applies loads, stores and virtual calls through a base to sites
        `sids` of it: a load or store of a field reaches that field of each
        object site, one of an array slot the slot of each array site."""
        arrays, add_copy = self.arrays, self.add_copy
        for sid in sids:
            array = sid in arrays
            for kind, a, b in uses:
                if kind == "call":
                    if not array:
                        target = self.h.resolve_method(self.sites[sid].cls, b.method, len(b.args), static=False)
                        if target is not None:
                            self._bind_call(b.pos, a, target, sid, b.args, b.result)
                elif (a is None) == array:
                    cell = ("a", sid) if array else ("f", sid, a)
                    if kind == "load":
                        add_copy(cell, b)
                    else:
                        add_copy(b, cell)

    # -- main loop

    def run(self) -> None:
        for m in self.entries:
            self.make_reachable(m.id)
        method_queue, delta = self.method_queue, self.delta
        uses, succ, add_pts = self.uses, self.succ, self.add_pts
        while method_queue or delta:
            while method_queue:
                self.process_method(method_queue.popleft())
            while delta:
                var, new = delta.popitem()
                got = uses.get(var)
                if got:
                    self._apply(new, got)
                for dst in succ.get(var, ()):
                    add_pts(dst, new)


def solve(p: Program, entries: Optional[list[MethodDef]] = None) -> PointsToResult:
    """Least fixpoint of the inclusion constraints from the given entries."""
    if entries is None:
        entries = pa_entry_points(p)
    solver = _Solver(p, entries)
    solver.run()

    entry_ids = tuple(m.id for m in entries)
    graph = CallGraph(frozenset(entry_ids), frozenset(solver.reachable | set(entry_ids)),
                      _sorted_sites(solver.by_site))

    # Every virtual call of a reachable method is in `vcalls`; those that
    # never dispatched have no edge.
    unresolved = sorted((st.pos, "unresolved-call") for st in solver.vcalls if not graph.has_site(st.pos))

    return PointsToResult(
        pts={var: frozenset(sids) for var, sids in solver.pts.items()},
        sites=tuple(solver.sites),
        callgraph=graph,
        unresolved=tuple(unresolved),
        methods=solver.by_id,
    )


def pts_of(r: PointsToResult, local: tuple[str, str]) -> "frozenset[int] | _Miss":
    """Points-to set of a (method_id, local) pair; MISS when empty or never
    constrained. An empty pair is checked against the method's statements,
    so a method or local the program does not have raises MirError.
    """
    mid, name = local
    got = r.pts.get(("l", mid, name))
    if got:
        return got
    method = r.methods.get(mid)
    if method is None:
        raise MirError(f"unknown method '{mid}'")
    if name not in _locals_of(method):
        raise MirError(f"no local '{name}' in '{mid}'")
    return MISS


def dump_pts(r: PointsToResult) -> str:
    """Debug dump: one `variable<TAB>{site ids}` line per non-empty set."""

    def render(var: Var) -> str:
        kind = var[0]
        if kind == "l":
            return f"{var[1]}::{var[2]}"
        if kind == "f":
            return f"site{var[1]}.{var[2]}"
        if kind == "a":
            return f"site{var[1]}[*]"
        if kind == "s":
            return f"{var[1]}::{var[2]}"
        return f"return:{var[1]}"

    lines = []
    for var in sorted(r.pts, key=render):
        sids = ", ".join(str(s) for s in sorted(r.pts[var]))
        lines.append(f"{render(var)}\t{{{sids}}}")
    if r.unresolved:
        lines.append("#MISS")
        for pos, reason in r.unresolved:
            lines.append(f"{pos.file}:{pos.line}\t{reason}")
    return "\n".join(lines) + ("\n" if lines else "")
