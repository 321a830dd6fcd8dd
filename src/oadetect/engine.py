"""Override-assignment conflict detection.

The detector enumerates execution paths from an entry method and reports a
changed write that overrides the other side's most recent write to the same
state element with no base write in between.

State elements follow the assignment left-hand-side taxonomy: LV (local
variable), IFR (instance field reference), AR (array reference) and SFR
(static field reference). Whether two writes of one kind touch the same
element is decided by one rule per kind:

    LV, SFR   equal `WriteEvent.element_key()`s: method and local name for a
              local; declaring class, name and declared type for a static
    IFR, AR   `compare_heap`: the same slot (field, or index), not both in
              one constructor, and bases that may alias: related base
              types under `nopa`, overlapping points-to sets under `pa` and
              `hybrid`, which log an `empty-pts` miss-reference and fall
              back to the base types when a set is empty

Three modes share the traversal. `nopa` resolves calls by class hierarchy.
`pa` resolves them through the points-to call graph, logging a
miss-reference when a target cannot be resolved. `hybrid` is `pa` that
additionally widens unresolvable calls to the hierarchy-based targets
instead of dropping them. `Mode.uses_cha` and `Mode.uses_pts` say which
graphs a mode reads.

The enumerator steps over a lowered form, not over statements. Each
`MethodDef` it enters is lowered once per `detect` or `enumerate_write_paths`
call, on first entry, into a list of ops kept by its id (nested `if`/`while`
blocks with it); its frame's env is `cha.initial_env` of the argument types.
An op holds an opcode and what every visit shares: the method's id, display
and kind, the call hop and the resolved target or constructor `MethodDef`s, the
static field's declaring class and type, the written base's points-to set,
the type rule (`cha.type_rule`, the one transfer rule that
`cha.transfer_type` applies too) and a template of the write event. A visit
adds only what depends on the path: the call path, the provenance inherited
from it (kept on the frame), and for heap writes the base type and the
field triple on it. Every field, method, constructor and subtype answer
comes from the program's `Hierarchy`, which the detection context takes
once, as CHA and the points-to solver do.

Branches, loops and calls with several targets are choice points. A call is
cut for all its targets at the depth limit, which a visit checks once, and
then completes without a choice point. Below the limit, one `isdisjoint`
test of the call's target ids (a frozenset its op holds) against the ids on
the call stack tells whether recursion cuts a target; only then are the
targets filtered, and completing the call without a body becomes the first
alternative. A choice point keeps its alternatives and a cursor into them.
So, unless recursion cuts a target, a call visit costs the same however
many targets the call has, and taking the next alternative on backtrack
copies nothing.

The scan runs as the enumerator appends each write event, so every write is
scanned once however many paths share it. The LV/SFR rule is an equality,
so a last-writer dict keyed by `element_key()` gives a write's most recent
earlier writer. The IFR/AR rule is pairwise and not transitive, so those
writes walk back over the earlier writes of their own kind only, comparing
each pair and logging its miss-references. Every event leaves a record on
a trail beside the event list; backtracking to a choice point replays the
trail backwards (undoing dict entries and kind-list appends), as a Prolog
machine's trail does.

Findings, both conflicts and comparison miss-references, stay on the trail
until the path completes, so a path cut by fuel or the path cap contributes
none. Back-to-back same-side writes to one local collapse into the last
(`_collapse_redundant_locals`): a collapsed write is skipped when its path
commits, and the write that replaces it inherits the overridden writer it
looked up, which is the writer before the collapsed one. Because a write's
successor changes on backtrack, the write just before the cut is committed
again on the next path.

Writes reached through a changed call site inherit that side's provenance,
so a base-code write counts for the developer whose added call executes it.
Budgets make runs reproducible: a statement-visit fuel and a path cap bound
the enumeration deterministically, with an optional wall-clock limit on top;
exhausting any of them yields a TIMEOUT verdict, and the context's
`stop_reason` names the budget that ran out.

`count_tree` counts the enumeration tree without walking it: its leaves
(paths) and op visits, by dynamic programming over the lowered ops (Ball and
Larus's path counting). It follows the enumerator's rules: call targets, the
depth cut, the recursion cut with completing the call first, constructor
inlining, `return` ending the method or the root path, and a loop run zero
times or once. Targets and constructors are resolved per op, not per env,
so a body's subtree depends only on its method id, call depth and the ids on
its call stack, and one count per such key serves every visit; at the depth
limit the stack ids drop out of the key. The count walks with an explicit
stack and shares the enumerator's `_Lowering`. Every way out of a counted
part leads to at least one leaf, so the first part with more paths than the
path cap or more visits than the fuel proves that the enumerator runs out
of that budget, and the count stops there (it saturates). Otherwise its
counts equal the enumerator's `paths` and `visited`. `detect(...,
verdict_only=True)` counts first and returns TIMEOUT on an excess without
enumerating; a validated program has no unresolvable static call, the one
error the enumerator could otherwise raise mid-walk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from enum import Enum
from typing import Iterator, NamedTuple, Optional

from .cha import (
    CallGraph,
    apply_rule,
    build_cha_graph,
    cha_resolve,
    initial_env,
    operand_type,
    resolve_static,
    type_rule,
)
from .mir import (
    AllocAssign,
    ArrayStore,
    FieldStore,
    Hierarchy,
    If,
    MethodDef,
    MirError,
    Position,
    Program,
    Provenance,
    Return,
    StaticCall,
    StaticStore,
    VirtualCall,
    While,
)
from .pointsto import PointsToResult, pa_entry_points, solve


class Mode(Enum):
    NOPA = "nopa"
    PA = "pa"
    HYBRID = "hybrid"

    @property
    def uses_cha(self) -> bool:
        """Whether the mode reads the CHA call graph (nopa, and hybrid's widening)."""
        return self is not Mode.PA

    @property
    def uses_pts(self) -> bool:
        """Whether the mode reads points-to sets and their call graph."""
        return self is not Mode.NOPA


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"
    TIMEOUT = "timeout"


LV, IFR, AR, SFR = "LV", "IFR", "AR", "SFR"


@dataclass
class AnalysisBudget:
    depth_limit: int = 5
    fuel: int = 500_000
    wall_clock: Optional[float] = 300.0
    path_cap: int = 4096


class Hop(NamedTuple):
    method_id: str
    method_display: str
    pos: Position
    provenance: Provenance


@dataclass(frozen=True)
class WriteEvent:
    kind: str
    pos: Position
    provenance: Provenance
    method_id: str
    method_display: str
    enclosing_kind: str  # "method" | "constructor"
    call_path: tuple[Hop, ...] = ()
    local: Optional[str] = None
    base: Optional[str] = None
    base_type: Optional[str] = None
    base_pts: Optional[frozenset] = None
    field: Optional[tuple] = None  # (declaring class, name, type) when resolved
    field_name: Optional[str] = None
    index: Optional[object] = None
    static_cls: Optional[str] = None
    static_type: Optional[str] = None

    @property
    def root_pos(self) -> Position:
        return self.call_path[0].pos if self.call_path else self.pos

    def element_text(self) -> str:
        if self.kind == LV:
            return f"{self.local} in {self.method_display}"
        if self.kind == IFR:
            if self.field is not None:
                decl, name, ftype = self.field
                return f"{self.base}.<{decl}: {ftype} {name}>"
            return f"{self.base}.{self.field_name}"
        if self.kind == AR:
            return f"{self.base}[{self.index}]"
        return f"<{self.static_cls}: {self.static_type} {self.field_name}>"

    def element_key(self) -> tuple:
        if self.kind == LV:
            return (LV, self.method_id, self.local)
        if self.kind == IFR:
            return (IFR, self.field or self.field_name)
        if self.kind == AR:
            return (AR, self.base_type, str(self.index))
        return (SFR, self.static_cls, self.field_name, self.static_type)


@dataclass
class MissRef:
    pos: Position
    expression: str
    reason: str  # "empty-pts" | "unresolved-call"
    on_conflict_path: bool = False


@dataclass
class Conflict:
    element: str
    overridden: WriteEvent
    overriding: WriteEvent

    @property
    def key(self) -> tuple:
        return (
            self.overriding.element_key(),
            self.overridden.root_pos,
            self.overriding.root_pos,
            self.overridden.pos,
            self.overriding.pos,
        )


@dataclass
class OutcomeStats:
    visited: int = 0
    paths: int = 0
    elapsed_ms: float = 0.0  # the path search's wall time; 0 without a wall clock


@dataclass
class AnalysisOutcome:
    verdict: Verdict
    conflicts: list[Conflict] = dc_field(default_factory=list)
    missrefs: list[MissRef] = dc_field(default_factory=list)
    stats: OutcomeStats = dc_field(default_factory=OutcomeStats)


class ComparisonResult(NamedTuple):
    match: bool
    missrefs: tuple


_NO_MISS: tuple = ()


def _same_constructor(a: WriteEvent, b: WriteEvent) -> bool:
    return (
        a.enclosing_kind == "constructor"
        and b.enclosing_kind == "constructor"
        and a.method_id == b.method_id
    )


def _types_related(a: Optional[str], b: Optional[str], h: Hierarchy) -> bool:
    # Unknown types stay match-eligible: the name/type rule is conservative.
    if a is None or b is None:
        return True
    if a == b:
        return True
    if a.endswith("[]") or b.endswith("[]"):
        return False
    if not h.declares(a) or not h.declares(b):
        return False
    return b in h.supertypes(a) or a in h.supertypes(b)


def _base_types_related(a: WriteEvent, b: WriteEvent, h: Hierarchy) -> bool:
    ea = a.base_type[:-2] if a.base_type and a.base_type.endswith("[]") else a.base_type
    eb = b.base_type[:-2] if b.base_type and b.base_type.endswith("[]") else b.base_type
    return _types_related(ea, eb, h)


def _same_slot(a: WriteEvent, b: WriteEvent) -> bool:
    """The field of two IFR writes, or the index of two AR writes, may be one."""
    if a.kind == IFR:
        if a.field is not None and b.field is not None:
            return a.field == b.field
        return a.field_name == b.field_name
    ia, ib = a.index, b.index
    if isinstance(ia, int) and isinstance(ib, int):
        return ia == ib
    if isinstance(ia, str) and isinstance(ib, str):
        return ia == ib and a.method_id == b.method_id
    return True  # constant vs local: unknown, stays match-eligible


def compare_heap(a: WriteEvent, b: WriteEvent, mode: Mode, h: Hierarchy) -> ComparisonResult:
    """Whether two IFR writes, or two AR writes, may write one heap element.

    Their slots must match and they must not sit in one constructor. `nopa`
    then asks the hierarchy `h` for related base types. `pa` and `hybrid`
    ask for overlapping points-to sets; when either set is empty they log an
    `empty-pts` miss-reference for each such write, whatever the slots, and
    fall back to the base-type rule.
    """
    eligible = _same_slot(a, b) and not _same_constructor(a, b)
    misses = _NO_MISS
    if mode.uses_pts:
        empty = [ev for ev in (a, b) if not ev.base_pts]
        if not empty:
            return ComparisonResult(eligible and bool(a.base_pts & b.base_pts), _NO_MISS)
        misses = tuple(MissRef(ev.pos, _written(ev), "empty-pts") for ev in empty)
    return ComparisonResult(eligible and _base_types_related(a, b, h), misses)


def _written(ev: WriteEvent) -> str:
    """A heap write's target as the source spells it: `base.field` or `base[index]`."""
    return f"{ev.base}.{ev.field_name}" if ev.kind == IFR else f"{ev.base}[{ev.index}]"


# ---------------------------------------------------------------------------
# Detection context and call resolution


class _BudgetStop(Exception):
    pass


class DetectionContext:
    def __init__(
        self,
        program: Program,
        mode: Mode,
        budget: AnalysisBudget,
        cha: Optional[CallGraph] = None,
        pts: Optional[PointsToResult] = None,
    ):
        self.program = program
        self.hierarchy = program.hierarchy()
        self.mode = mode
        self.budget = budget
        self.cha = cha
        self.pts = pts
        self.by_id = self.hierarchy.methods_by_id()
        self.visited = 0
        self.paths = 0
        # The budget that ran out: "fuel", "path_cap" or "wall_clock".
        self.stop_reason: Optional[str] = None
        self.missrefs: dict[tuple, MissRef] = {}
        self.deadline = (
            time.monotonic() + budget.wall_clock if budget.wall_clock is not None else None
        )

    @property
    def timed_out(self) -> bool:
        return self.stop_reason is not None

    def stop(self, reason: str) -> None:
        self.stop_reason = reason
        raise _BudgetStop()

    def record_missref(self, miss: MissRef) -> None:
        self.missrefs.setdefault((miss.pos, miss.expression, miss.reason), miss)

    def base_pts(self, mid: str, local: str) -> Optional[frozenset]:
        if not self.mode.uses_pts or self.pts is None:
            return None
        got = self.pts.pts.get(("l", mid, local), frozenset())
        return got if got else None


def resolve_call(st: VirtualCall, ctx: DetectionContext):
    """Targets of a virtual site under the context's mode.

    Returns (methods, missref-or-None). In pa mode an unresolvable site
    contributes no targets; hybrid widens it to the hierarchy-based targets.
    """

    def cha_targets() -> list[MethodDef]:
        ids = ctx.cha.targets_at(st.pos) if ctx.cha is not None else []
        if not ids and (ctx.cha is None or not ctx.cha.has_site(st.pos)):
            ids = sorted(cha_resolve(st, ctx.program))
        return [ctx.by_id[i] for i in ids]

    if not ctx.mode.uses_pts:
        return cha_targets(), None

    pa_ids = ctx.pts.callgraph.targets_at(st.pos) if ctx.pts is not None else []
    if pa_ids:
        return [ctx.by_id[i] for i in pa_ids], None
    miss = MissRef(st.pos, f"{st.receiver}.{st.method}()", "unresolved-call")
    if not ctx.mode.uses_cha:
        return [], miss
    return cha_targets(), miss


# ---------------------------------------------------------------------------
# Lowered form (see the module docstring)
#
# Event templates are complete `WriteEvent` field dicts. An event is a
# template copied into a fresh instance's `__dict__` plus its dynamic
# fields, which skips the frozen dataclass's per-field `__init__`; equality
# and hash read the same fields either way.

_WRITE, _HEAP, _ALLOC, _CALL, _IF, _WHILE, _RETURN = range(7)

_EVENT_FIELDS = tuple(f.name for f in dc_fields(WriteEvent))


class _Op:
    """One lowered statement: an opcode and its static payload.

    _WRITE   an LV or SFR write: `template`, its element `key`, and the
             type `rule` (None for a static store)
    _HEAP    an IFR or AR write: `template`, `base` and, for IFR, `field`
    _ALLOC   the LV write of an allocation, as _WRITE, then `hop` and `ctor`
    _CALL    `hop`, and `targets` with the frozenset of their ids,
             `target_ids` (both resolved on first visit); `result` is the
             _WRITE op of the result local, or None
    _IF, _WHILE  `alts`, the blocks the choice point tries in order: the
             then and else blocks, or None (skip the loop) and the body
    _RETURN  nothing
    """

    __slots__ = ("code", "st", "prov", "template", "key", "rule", "base", "field",
                 "ctor", "hop", "targets", "target_ids", "result", "alts")

    def __init__(self, code: int, st):
        self.code = code
        self.st = st
        # The statement's own side, None for BASE: a BASE write, and a body a
        # BASE call enters, take the provenance their path inherits.
        self.prov = st.provenance if st.provenance is not Provenance.BASE else None
        self.template = self.key = self.rule = self.base = self.field = None
        self.ctor = self.hop = self.targets = self.target_ids = self.result = self.alts = None


def _instantiate(template: dict, call_path: tuple, provenance: Provenance) -> WriteEvent:
    ev = object.__new__(WriteEvent)
    d = ev.__dict__
    d.update(template)
    d["call_path"] = call_path
    d["provenance"] = provenance
    return ev


class _Lowering:
    """The ops of the methods entered under one context, each lowered on first entry."""

    def __init__(self, ctx: DetectionContext):
        self.ctx = ctx
        self.lowered: dict[str, list[_Op]] = {}

    def ops(self, m: MethodDef) -> list[_Op]:
        ops = self.lowered.get(m.id)
        if ops is None:
            ops = self.lowered[m.id] = self.block(m.body, m)
        return ops

    def targets(self, op: _Op) -> list[MethodDef]:
        """A call op's targets, resolved on its first visit.

        Its miss-reference is recorded then; recorded misses are never
        undone, so once is as good as once per visit.
        """
        if op.targets is None:
            st, ctx = op.st, self.ctx
            if isinstance(st, VirtualCall):
                defs, miss = resolve_call(st, ctx)
                if miss is not None:
                    ctx.record_missref(miss)
            else:
                defs = [resolve_static(ctx.hierarchy, st)]
            op.targets = defs
            op.target_ids = frozenset(t.id for t in op.targets)
        return op.targets

    def call_alts(self, op: _Op, depth: int, on_stack: frozenset) -> Optional[list]:
        """The alternatives of a call op visited at call depth `depth` with
        the ids `on_stack` on the call stack: None when it has no targets or
        the depth limit cuts them all, so that it completes without a body;
        else its targets, after None (complete without a body) when
        recursion cuts one of them."""
        targets = self.targets(op)
        if not targets or depth >= self.ctx.budget.depth_limit:
            return None
        if op.target_ids.isdisjoint(on_stack):
            return targets
        alts = [None]
        alts.extend(t for t in targets if t.id not in on_stack)
        return alts

    def inlined_ctor(self, op: _Op, depth: int, on_stack: frozenset) -> Optional[MethodDef]:
        """The constructor an allocation op visited there runs, if neither
        the depth limit nor recursion cuts it."""
        ctor = op.ctor
        if ctor is None or depth >= self.ctx.budget.depth_limit or ctor.id in on_stack:
            return None
        return ctor

    def block(self, stmts, m: MethodDef) -> list[_Op]:
        return [self.stmt(st, m) for st in stmts]

    def stmt(self, st, m: MethodDef) -> _Op:
        h = self.ctx.hierarchy
        if isinstance(st, If):
            op = _Op(_IF, st)
            op.alts = [self.block(st.then_body, m), self.block(st.else_body, m)]
        elif isinstance(st, While):
            op = _Op(_WHILE, st)
            op.alts = [None, self.block(st.body, m)]
        elif isinstance(st, Return):
            op = _Op(_RETURN, st)
        elif isinstance(st, (VirtualCall, StaticCall)):
            op = _Op(_CALL, st)
            op.hop = Hop(m.id, m.display, st.pos, st.provenance)
            if st.result is not None:
                op.result = self._write(_Op(_WRITE, st), m, LV, local=st.result)
        elif isinstance(st, AllocAssign):
            op = self._write(_Op(_ALLOC, st), m, LV, local=st.target)
            op.hop = Hop(m.id, m.display, st.pos, st.provenance)
            op.ctor = h.constructor_of(st.cls, len(st.args))
        elif isinstance(st, FieldStore):
            op = self._heap(st, m, IFR, field_name=st.field)
            op.field = st.field
        elif isinstance(st, ArrayStore):
            op = self._heap(st, m, AR, index=st.index)
        elif isinstance(st, StaticStore):
            decl, ftype = h.static_field_of(st.cls, st.field)
            op = self._write(_Op(_WRITE, st), m, SFR, static_cls=decl, field_name=st.field, static_type=ftype)
        else:  # a copy, mkref, op, newarr or load: a local write
            op = self._write(_Op(_WRITE, st), m, LV, local=st.target)
        return op

    def _template(self, st, m: MethodDef, kind: str, **payload) -> dict:
        template = dict.fromkeys(_EVENT_FIELDS)
        template.update(kind=kind, pos=st.pos, method_id=m.id, method_display=m.display,
                        enclosing_kind=m.kind, call_path=(), **payload)
        return template

    def _write(self, op: _Op, m: MethodDef, kind: str, **payload) -> _Op:
        op.template = self._template(op.st, m, kind, **payload)
        op.key = _instantiate(op.template, (), Provenance.BASE).element_key()
        op.rule = type_rule(op.st, self.ctx.hierarchy)
        return op

    def _heap(self, st, m: MethodDef, kind: str, **payload) -> _Op:
        op = _Op(_HEAP, st)
        op.base = st.base
        op.template = self._template(st, m, kind, base=st.base,
                                     base_pts=self.ctx.base_pts(m.id, st.base), **payload)
        return op


# ---------------------------------------------------------------------------
# Path enumeration
#
# The enumerator is an explicit-stack machine rather than recursion: a single
# path may inline thousands of statements, well past Python's stack. Frames
# hold a block of ops in progress. `paths()` steps the top frame: it counts
# fuel, runs writes and heap writes and ends frames inline, and hands calls,
# allocations, returns and branches to their helpers.
#
# A choice point snapshots the frame cursors and the event count, and keeps
# the op, its alternatives and a cursor into them. Backtracking restores the
# snapshot and applies the alternative under the cursor; taking the last one
# drops the choice point. Envs are copy-on-write, so snapshots can share
# references. A branch's alternatives are its lowered blocks, None skipping
# a loop. A call's are its targets, each inlined in a body frame: the op's
# own target list when nothing is cut, else None (complete the call without
# a body) followed by the targets that recursion leaves. The depth cut is
# decided once per visit, before any choice point (see the module docstring).


class _Frame:
    __slots__ = ("ops", "i", "env", "call_path", "prov", "on_stack", "kind", "site")

    def __init__(self, ops, env, call_path, prov, on_stack, kind, site=None):
        self.ops = ops
        self.i = 0
        self.env = env
        self.call_path = call_path
        self.prov = prov  # the provenance of the nearest changed call on the call path
        self.on_stack = on_stack
        self.kind = kind  # "root" | "body" | "block"
        self.site = site  # call op for body frames


class _Enumerator:
    def __init__(self, ctx: DetectionContext, entry: MethodDef):
        self.ctx = ctx
        self.lowering = _Lowering(ctx)
        self.entry = entry
        self.events: list[WriteEvent] = []
        self.frames: list[_Frame] = []
        # Choice points: [frames, per-frame (i, env), events length, op,
        # alternatives, cursor of the next alternative].
        self.choices: list[list] = []

    # -- per-path event log; `_Scanner` extends these three

    def _append(self, ev: WriteEvent, key: Optional[tuple]) -> None:
        self.events.append(ev)

    def _truncate(self, n: int) -> None:
        del self.events[n:]

    def _finish_path(self):
        return _collapse_redundant_locals(self.events)

    # -- machine

    def paths(self) -> Iterator:
        """Yields `_finish_path()` once per completed path."""
        ctx, entry = self.ctx, self.entry
        h, budget, deadline = ctx.hierarchy, ctx.budget, ctx.deadline
        fuel, path_cap = budget.fuel, budget.path_cap
        append = self._append
        frames = self.frames
        frames.append(_Frame(self.lowering.ops(entry), initial_env(entry), (), Provenance.BASE,
                             frozenset({entry.id}), "root"))
        visited = ctx.visited
        try:
            while True:
                if not frames:
                    ctx.paths += 1
                    if ctx.paths > path_cap:
                        ctx.stop("path_cap")
                    ctx.visited = visited
                    yield self._finish_path()
                    if not self._backtrack():
                        return
                    continue
                frame = frames[-1]
                ops, i = frame.ops, frame.i
                if i == len(ops):
                    frames.pop()
                    if frame.kind == "block":
                        frames[-1].env = frame.env  # branch bindings flow onward
                    elif frame.kind == "body" and frame.site.result is not None:
                        self._write(frames[-1], frame.site.result)  # the call completes
                    continue
                visited += 1
                if visited > fuel:
                    ctx.stop("fuel")
                if deadline is not None and visited % 512 == 0 and time.monotonic() > deadline:
                    ctx.stop("wall_clock")
                op = ops[i]
                frame.i = i + 1
                code = op.code
                if code == _WRITE:
                    append(_instantiate(op.template, frame.call_path, op.prov or frame.prov), op.key)
                    if op.rule is not None:
                        frame.env = apply_rule(op.rule, frame.env, h)
                elif code == _HEAP:
                    base_type = frame.env.get(op.base)
                    ev = _instantiate(op.template, frame.call_path, op.prov or frame.prov)
                    ev.__dict__["base_type"] = base_type
                    if op.field is not None:
                        hit = h.field_of(base_type, op.field)
                        ev.__dict__["field"] = (hit[0], op.field, hit[1]) if hit is not None else None
                    append(ev, None)
                elif code == _CALL:
                    self._branch_call(frame, op)
                elif code == _ALLOC:
                    self._alloc(frame, op)
                elif code == _RETURN:
                    self._return()
                else:  # _IF, _WHILE
                    self._choose(op, op.alts)
        finally:
            ctx.visited = visited

    def _write(self, frame: _Frame, op: _Op) -> None:
        self._append(_instantiate(op.template, frame.call_path, op.prov or frame.prov), op.key)
        if op.rule is not None:
            frame.env = apply_rule(op.rule, frame.env, self.ctx.hierarchy)

    def _complete_call(self, site: _Op) -> None:
        if site.result is not None:
            self._write(self.frames[-1], site.result)

    def _alloc(self, frame: _Frame, op: _Op) -> None:
        self._write(frame, op)
        ctor = self.lowering.inlined_ctor(op, len(frame.call_path), frame.on_stack)
        if ctor is not None:
            self._push_body(frame, op, ctor)

    def _return(self) -> None:
        frames = self.frames
        while frames:
            done = frames.pop()
            if done.kind == "body":
                self._complete_call(done.site)
                return
            if done.kind == "root":
                return  # path ends at the loop head

    def _branch_call(self, frame: _Frame, op: _Op) -> None:
        alts = self.lowering.call_alts(op, len(frame.call_path), frame.on_stack)
        if alts is None:
            self._complete_call(op)  # the call contributes nothing
        elif len(alts) == 1:
            self._apply(op, alts[0])
        else:
            self._choose(op, alts)

    def _push_body(self, caller: _Frame, op: _Op, target: MethodDef) -> None:
        env = initial_env(target, [operand_type(a, caller.env) for a in op.st.args])
        self.frames.append(
            _Frame(self.lowering.ops(target), env, caller.call_path + (op.hop,), op.prov or caller.prov,
                   caller.on_stack | {target.id}, "body", site=op)
        )

    def _apply(self, op: _Op, alt) -> None:
        """Takes alternative `alt` of the choice at `op`: a call target or a
        block, or None, which completes a call and skips a loop."""
        if alt is None:
            if op.code == _CALL:
                self._complete_call(op)
            return
        parent = self.frames[-1]
        if op.code == _CALL:
            self._push_body(parent, op, alt)
        else:
            self.frames.append(
                _Frame(alt, parent.env, parent.call_path, parent.prov, parent.on_stack, "block")
            )

    def _choose(self, op: _Op, alts: list) -> None:
        frames = self.frames
        self.choices.append([tuple(frames), [(f.i, f.env) for f in frames], len(self.events), op, alts, 1])
        self._apply(op, alts[0])

    def _backtrack(self) -> bool:
        if not self.choices:
            return False
        choice = self.choices[-1]
        saved, cursors, events_len, op, alts, k = choice
        if k + 1 == len(alts):
            self.choices.pop()
        else:
            choice[5] = k + 1
        self._truncate(events_len)
        frames = self.frames
        frames[:] = saved
        for f, (i, env) in zip(frames, cursors):
            f.i = i
            f.env = env
        self._apply(op, alts[k])
        return True


# ---------------------------------------------------------------------------
# Counting the enumeration tree (see the module docstring)
#
# A block folds its ops left to right into (visits, falls, returns): the
# visits of its subtree, and how many of its ways through fall off its end
# or reach a `return`. An op (v, f, r) after a prefix (V, F, R) gives
# (V + F*v, F*f, R + F*r). An op with alternatives sums them, plus 1 for its
# own visit: a branch arm gives its block's triple, a body its (visits,
# falls + returns, 0), and None, which skips a loop or completes a call
# without a body, gives (0, 1, 0). A write gives (1, 1, 0), a `return`
# (1, 0, 1). A prefix with no falls ends its block: the rest is unreached.


class TreeCount(NamedTuple):
    """The leaves (paths) and op visits of the enumeration tree.

    Exact while `exceeds` is None. Otherwise it names the first budget that
    a reached part of the tree exceeds ("fuel", "path_cap" or "wall_clock"),
    and the counts are that part's, lower bounds of the tree's.
    """

    paths: int
    visits: int
    exceeds: Optional[str] = None


class _Part:
    """A block being counted, with the alternatives of its op in progress:
    `alts`, the cursor `k` into them, and their sums so far."""

    __slots__ = ("ops", "i", "visits", "falls", "returns", "depth", "on_stack", "key",
                 "alts", "k", "alt_visits", "alt_falls", "alt_returns")

    def __init__(self, ops, depth, on_stack, key):
        self.ops = ops
        self.i = 0
        self.visits = self.returns = 0
        self.falls = 1
        self.depth = depth
        self.on_stack = on_stack
        self.key = key  # the memo key of a callee or constructor body; None for the root and arms
        self.alts = None


def _count_tree(lowering: _Lowering, entry: MethodDef) -> TreeCount:
    """Counts the tree `_Enumerator(lowering.ctx, entry)` walks, one count
    per (method id, call depth, ids on the call stack) shared by every visit.

    The walk keeps an explicit stack of parts, as the enumerator keeps
    frames: block nesting times call depth can exceed Python's stack.
    """
    ctx = lowering.ctx
    budget, deadline = ctx.budget, ctx.deadline
    fuel, path_cap, limit = budget.fuel, budget.path_cap, budget.depth_limit
    memo: dict[tuple, tuple[int, int]] = {}
    stack = [_Part(lowering.ops(entry), 0, frozenset({entry.id}), None)]
    steps = 0
    while True:
        part = stack[-1]
        steps += 1
        if deadline is not None and steps % 512 == 0 and time.monotonic() > deadline:
            return TreeCount(part.falls + part.returns, part.visits, "wall_clock")
        alts = part.alts
        if alts is not None:
            # Sum the op's alternatives; descend into the first one not counted.
            k, child = part.k, None
            while k < len(alts) and child is None:
                alt = alts[k]
                if alt is None:
                    part.alt_falls += 1
                elif type(alt) is list:  # a branch arm
                    child = _Part(alt, part.depth, part.on_stack, None)
                else:  # a call target or constructor: its body one level down
                    depth = part.depth + 1
                    key = (alt.id, depth, part.on_stack if depth < limit else None)
                    hit = memo.get(key)
                    if hit is None:
                        child = _Part(lowering.ops(alt), depth, part.on_stack | {alt.id}, key)
                    else:
                        part.alt_visits += hit[0]
                        part.alt_falls += hit[1]
                if child is None:
                    k += 1
            part.k = k
            falls = part.falls
            if child is None:
                part.alts = None
                part.visits += falls * (1 + part.alt_visits)
                part.returns += falls * part.alt_returns
                part.falls = falls * part.alt_falls
                visits, outs = part.visits, part.falls + part.returns
            else:
                # What the op folds in so far already bounds the part's counts.
                visits = part.visits + falls * (1 + part.alt_visits)
                outs = part.returns + falls * (part.alt_falls + part.alt_returns)
                stack.append(child)
        else:
            # Fold ops without alternatives up to the next op with some.
            ops, i, n = part.ops, part.i, len(part.ops)
            visits, falls, returns = part.visits, part.falls, part.returns
            while i < n and falls:
                op = ops[i]
                i += 1
                code = op.code
                if code == _IF or code == _WHILE:
                    alts = op.alts
                    break
                if code == _CALL:
                    alts = lowering.call_alts(op, part.depth, part.on_stack)
                    if alts is not None:
                        break
                elif code == _ALLOC:
                    ctor = lowering.inlined_ctor(op, part.depth, part.on_stack)
                    if ctor is not None:
                        alts = (ctor,)
                        break
                visits += falls
                if code == _RETURN:
                    returns += falls
                    falls = 0
            part.i, part.visits, part.falls, part.returns = i, visits, falls, returns
            outs = falls + returns
            if alts is not None:
                part.alts, part.k = alts, 0
                part.alt_visits = part.alt_falls = part.alt_returns = 0
        if visits > fuel:
            return TreeCount(outs, visits, "fuel")
        if outs > path_cap:
            return TreeCount(outs, visits, "path_cap")
        if part.alts is None and (part.i == len(part.ops) or not part.falls):
            # The block is done: every way through it fell off or returned.
            stack.pop()
            if not stack:
                return TreeCount(outs, visits)
            parent = stack[-1]
            parent.alt_visits += visits
            if part.key is None:
                parent.alt_falls += part.falls
                parent.alt_returns += part.returns
            else:  # every way out of a body completes the call
                memo[part.key] = (visits, outs)
                parent.alt_falls += outs
            parent.k += 1


def count_tree(
    p: Program,
    entry: MethodDef,
    budget: Optional[AnalysisBudget] = None,
    mode: Mode = Mode.NOPA,
    cha: Optional[CallGraph] = None,
    pts: Optional[PointsToResult] = None,
) -> TreeCount:
    """The leaves and op visits of the tree `enumerate_write_paths` walks.

    The enumerator runs out of budget exactly when `exceeds` is set (a wall
    clock aside); otherwise the counts are the `paths` and `visited` it
    reports.
    """
    ctx = _make_context(p, entry, mode, budget, cha, pts)
    return _count_tree(_Lowering(ctx), entry)


def _collapses(prev: WriteEvent, ev: WriteEvent) -> bool:
    """Whether `ev` replaces `prev`: back-to-back same-side writes to one local."""
    return (
        ev.kind == LV
        and prev.kind == LV
        and prev.method_id == ev.method_id
        and prev.local == ev.local
        and prev.provenance is ev.provenance
    )


def _collapse_redundant_locals(events: list[WriteEvent]) -> list[WriteEvent]:
    """Consecutive same-side writes to one local keep only the last."""
    out: list[WriteEvent] = []
    for ev in events:
        if out and _collapses(out[-1], ev):
            out[-1] = ev
        else:
            out.append(ev)
    return out


def enumerate_write_paths(
    p: Program,
    entry: MethodDef,
    budget: Optional[AnalysisBudget] = None,
    mode: Mode = Mode.NOPA,
    cha: Optional[CallGraph] = None,
    pts: Optional[PointsToResult] = None,
    ctx: Optional[DetectionContext] = None,
) -> Iterator[list[WriteEvent]]:
    """Depth-first stream of per-path write-event sequences.

    Branches fork, loops run zero or one iteration, and calls inline their
    resolved targets up to the depth limit with recursion cut on the call
    stack. The stream simply ends when a budget runs out; callers that need
    to distinguish that pass their own context and check its `stop_reason`.
    """
    if ctx is None:
        ctx = _make_context(p, entry, mode, budget, cha, pts)
    gen = _Enumerator(ctx, entry).paths()
    try:
        yield from gen
    except _BudgetStop:
        return


def _make_context(p, entry, mode, budget, cha, pts) -> DetectionContext:
    budget = budget or AnalysisBudget()
    if mode.uses_cha and cha is None:
        cha = build_cha_graph(p, entry)
    if mode.uses_pts and pts is None:
        pts = solve(p, pa_entry_points(p))
    return DetectionContext(p, mode, budget, cha=cha, pts=pts)


class _Scanner(_Enumerator):
    """The enumerator with the conflict scan run as each write is appended.

    See the module docstring for the last-writer dict, the same-kind
    walk-back, the trail, and commit on path completion.
    """

    def __init__(self, ctx: DetectionContext, entry: MethodDef):
        super().__init__(ctx, entry)
        self.conflicts: dict = {}
        self.last_writer: dict[tuple, Optional[WriteEvent]] = {}
        self.same_kind: dict[str, list[WriteEvent]] = {IFR: [], AR: []}
        # Per event: (key or None, writer the key held before, overridden
        # write or None, miss-references).
        self.trail: list[tuple] = []
        self.committed = 0  # events before this index are settled on the current path

    def _append(self, ev: WriteEvent, key: Optional[tuple]) -> None:
        events = self.events
        if key is None:
            same = self.same_kind[ev.kind]
            overridden, misses = self._walk_back(same, ev)
            same.append(ev)
            self.trail.append((None, None, overridden, misses))
        else:
            held = self.last_writer.get(key)
            if events and _collapses(events[-1], ev):
                overridden = self.trail[-1][2]
            else:
                overridden = _overridden(held, ev)
            self.last_writer[key] = ev
            self.trail.append((key, held, overridden, _NO_MISS))
        events.append(ev)

    def _walk_back(self, same: list[WriteEvent], w: WriteEvent):
        if w.provenance is Provenance.BASE:
            return None, _NO_MISS
        mode, h = self.ctx.mode, self.ctx.hierarchy
        misses: list[MissRef] = []
        for prior in reversed(same):
            res = compare_heap(prior, w, mode, h)
            misses.extend(res.missrefs)
            if res.match:
                return _overridden(prior, w), misses
        return None, misses

    def _truncate(self, n: int) -> None:
        events, trail = self.events, self.trail
        for i in range(len(events) - 1, n - 1, -1):
            key, held = trail[i][0], trail[i][1]
            if key is None:
                self.same_kind[events[i].kind].pop()
            else:
                self.last_writer[key] = held
        del events[n:]
        del trail[n:]
        # The event before the cut gets a new successor, which may change
        # whether it is collapsed, so it is settled again.
        self.committed = min(self.committed, max(n - 1, 0))

    def _finish_path(self) -> None:
        events, trail, ctx = self.events, self.trail, self.ctx
        last = len(events) - 1
        for i in range(self.committed, last + 1):
            w = events[i]
            if i < last and _collapses(w, events[i + 1]):
                continue
            _, _, overridden, misses = trail[i]
            for miss in misses:
                ctx.record_missref(miss)
            if overridden is not None:
                c = Conflict(w.element_text(), overridden=overridden, overriding=w)
                self.conflicts.setdefault(c.key, c)
        self.committed = len(events)


def _overridden(prior: Optional[WriteEvent], w: WriteEvent) -> Optional[WriteEvent]:
    """`prior` when it is the other side's write that changed write `w` overrides.

    A base write between two changed writes blocks, and a same-side write
    is benign.
    """
    if (
        prior is None
        or w.provenance is Provenance.BASE
        or prior.provenance is Provenance.BASE
        or prior.provenance is w.provenance
    ):
        return None
    return prior


def detect(
    p: Program,
    entry: MethodDef,
    mode: Mode,
    budget: Optional[AnalysisBudget] = None,
    cha: Optional[CallGraph] = None,
    pts: Optional[PointsToResult] = None,
    verdict_only: bool = False,
) -> AnalysisOutcome:
    """Run override-assignment detection from `entry` under `mode`.

    With `verdict_only`, the enumeration tree is counted first. A tree that
    exceeds the budget then times out unenumerated: no conflicts, counters
    of 0, and only the miss-references of the calls the count resolved.
    Any other outcome is the one a full run gives.
    """
    if entry.id not in p.hierarchy().methods_by_id():
        raise MirError(f"entry '{entry.id}' not found in program")
    budget = budget or AnalysisBudget()
    ctx = _make_context(p, entry, mode, budget, cha, pts)
    scanner = _Scanner(ctx, entry)
    conflicts = scanner.conflicts
    started = time.perf_counter()
    if verdict_only:
        ctx.stop_reason = _count_tree(scanner.lowering, entry).exceeds
    if not ctx.timed_out:
        try:
            for _ in scanner.paths():
                pass
        except _BudgetStop:
            pass

    if ctx.timed_out:
        verdict = Verdict.TIMEOUT
    elif conflicts:
        verdict = Verdict.TRUE
    else:
        verdict = Verdict.FALSE

    ordered = sorted(
        conflicts.values(),
        key=lambda c: (
            c.overridden.root_pos,
            c.overriding.root_pos,
            c.overridden.pos,
            c.overriding.pos,
        ),
    )
    missrefs = [ctx.missrefs[k] for k in sorted(ctx.missrefs)]
    elapsed = (time.perf_counter() - started) * 1000.0 if budget.wall_clock is not None else 0.0
    stats = OutcomeStats(visited=ctx.visited, paths=ctx.paths, elapsed_ms=elapsed)
    return AnalysisOutcome(verdict=verdict, conflicts=ordered, missrefs=missrefs, stats=stats)
