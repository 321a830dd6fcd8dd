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

Heap accesses share one rule: a load or store through a base names a field,
or no field for an array slot, and reaches that cell on each site the base
points to of the matching kind: a field on object sites, the slot on array
sites. A virtual call that never dispatched is reported as unresolved.
"""

from __future__ import annotations

from collections import defaultdict, deque
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
    Record,
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


class PointsToResult(Record):
    __slots__ = _fields = ("pts", "sites", "callgraph", "unresolved", "methods")

    def __init__(self, pts: dict, sites: tuple, callgraph: CallGraph, unresolved: tuple,
                 methods: Mapping[str, MethodDef]):
        self.pts = pts
        self.sites = sites
        self.callgraph = callgraph
        self.unresolved = unresolved  # (Position, reason) pairs
        self.methods = methods  # the program's methods by id


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
