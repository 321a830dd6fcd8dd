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
call, on first entry, into a list of ops that the call's `DetectionContext`
keeps by its id (nested `if`/`while` blocks with it), beside the method's
effects (below); its frame's env is
`cha.initial_env` of the argument types. There are five ops: a local or
static write, a heap write, a call, a branch (`if` or `while`) and a return.
An allocation `x = new C(args)` is a call whose one target is `C`'s
constructor, as CHA, the points-to solver and the interpreter take it; its
op also writes `x` first. An op holds an opcode and what every visit shares:
the method's id, display and kind, the call hop and the resolved target
`MethodDef`s, the static field's declaring class and type, the written
base's points-to set, the type rule (`cha.type_rule`, the one transfer rule,
which CHA's typing applies too) and the write event's other fields, as two
tuples. A visit concatenates them around what depends on the path: the
provenance inherited from it (kept on the frame), the call path, and for
heap writes the base type and the field triple on it. Every field, method,
constructor and subtype answer comes from the program's `Hierarchy`, which
the detection context takes once, as CHA and the points-to solver do. A
virtual call's targets arrive as the id tuple a CHA or points-to graph
site holds, and the context maps each distinct tuple to one target list
and one id frozenset (`DetectionContext.shared_targets`): every call op
with those targets holds them, the `nopa_choices` check compares them by
identity, the tree count keys its frontier sums by the frozenset, and the
sides pass reads both.

The machine's state is three values: a frame, the index of its next op, and
the env. Frames are immutable, each linked to the continuation it resumes
(a caller frame and an op index in it), and envs are copy-on-write, so
branches, loops and calls with several targets are choice points that save
those three references, the event count, the op, its alternatives and a
cursor into them: a fixed number of values however deep the path nests,
restored on backtrack as a Prolog machine restores its continuation and
environment pointers (Warren's abstract machine). A call
is cut for all its targets at the depth limit, which a visit checks once,
and then completes without a choice point. Below the limit, one
`isdisjoint` test of the call's target ids (a frozenset its op holds)
against the ids on the call stack tells whether recursion cuts a target;
only then are the targets filtered, and completing the call without a body
becomes the first alternative. So, unless recursion cuts a target, a call
visit costs the same however many targets the call has, and neither a
choice point nor a backtrack copies anything.

The scan runs as the enumerator appends each write event, so every write is
scanned once however many paths share it. The LV/SFR rule is an equality,
so a last-writer dict keyed by `element_key()` gives a write's most recent
earlier writer, which alone tells whether the write overrides it and
whether it collapses the write before it (back-to-back same-side writes to
one local keep only the last, `_collapse_redundant_locals`). The IFR/AR
rule is pairwise and not transitive, so a changed heap write walks back
over the earlier writes of its own kind, latest first, to the first that
may write its element: one `compare_heap` per pair, which also gives
`nopa`'s answer while a points-to run checks `nopa_choices` and names the
writes with an empty set, which log a miss-reference. Every event leaves a
record on a trail beside the event list, what undoes it and whether it
collapses its predecessor; backtracking to a choice point replays the
trail backwards, as a Prolog machine's trail does.

An event that overrides the other side's write, or that compared
empty-set writes not logged yet, is a finding, listed by index beside the
trail and cut back with it. A completed path commits only the findings
listed since the last commit, in index order, so each conflict is the
first found for its key and a path cut by fuel or the path cap
contributes none. A finding whose event its successor collapses is
skipped, the successor having taken its overridden writer; when a
backtrack removes that successor, the finding is committed on the next
path. A commit builds each `empty-pts` miss-reference once per `detect`,
on its write's first commit; logged misses are never undone, so later
walk-backs leave that write out. It builds a `Conflict` only for a key
not found yet, so an override that each path appends anew is built
once.

Writes reached through a changed call site inherit that side's provenance,
so a base-code write counts for the developer whose added call executes it.
Budgets make runs reproducible: a statement-visit fuel and a path cap bound
the enumeration deterministically, with an optional wall-clock limit on top;
exhausting any of them yields a TIMEOUT verdict. A budget stop is a value,
not an exception: the walk sets the context's `stop_reason` to the budget
that ran out and returns, as the count returns it in `TreeCount.exceeds`,
and `detect` returns it in `OutcomeStats.stop_reason`, which records leave
out. They leave out `OutcomeStats.nopa_choices` too: whether a points-to
run resolved every call, and answered every heap comparison of two
non-empty points-to sets, as `nopa` does, so that its outcome is `nopa`'s
(see `detect`).

Outcomes are values too. A miss-reference is an immutable (position,
expression, reason) tuple; the context collects them in a set, and
`detect` returns them sorted. Nothing changes an outcome after `detect`.

`count_tree` counts the enumeration tree without walking it: its leaves
(paths) and op visits, by dynamic programming over the lowered ops (Ball and
Larus's path counting). It follows the enumerator's rules: call targets
(an allocation's constructor among them), the depth cut, the recursion cut
with completing the call first, `return` ending the method or the root
path, and a loop run zero times or once. Targets are resolved per op, not
per env, so a body's subtree depends only on its method id, call depth and
the ids on its call stack, and one count per such key serves every visit;
at the depth limit the stack ids drop out of the key. So a call one level
above the limit, which enters bodies only at the limit, is counted from one
sum of its targets' counts there, kept per set of target ids, less those of
the targets that recursion cuts on the visit (its frontier sum). The sum
serves a visit when every target not counted yet is cut there; otherwise
the targets are counted one by one, which counts the missing ones. The
count still stops at the call, so it checks its budgets where it did
before. The count walks with an explicit stack over the ops the detection
context lowers for the walk too, so the walk and the count share one call
rule, `DetectionContext.call_alts`. Every way out of a
counted part leads to at least one leaf, so the first part with more paths
than the path cap or more visits than the fuel proves that the enumerator
runs out of that budget, and the count stops there (it saturates).
Otherwise its counts equal the enumerator's `paths` and `visited`.
`detect(..., verdict_only=True)` counts first and returns TIMEOUT on an
excess without enumerating; a validated program has no unresolvable static
call, the one error the enumerator could otherwise raise mid-walk.

A conflict needs a left write and a right write that may touch one element,
and whether any such pair exists is a flow-insensitive question (Weiser's
slicing argument, applied to the two sides): it needs no path order, call
depth or call stack, so one summary per method answers it, as a path
expression answers many analyses (Tarjan). Lowering a method records that
summary, its effects: the keys of its writes, grouped by each write's own
side (base code as a side of its own), and its call ops, nested blocks'
included. A key is one that every match of the scan implies: an LV or SFR
write's `element_key()`, (IFR, field name), or (AR,), since any two array
writes may meet. Within budget, `detect(..., verdict_only=True)` then asks
`_sides_meet`, a worklist over (method, inherited side) that reads the
effects of the methods the count lowered and collects each side's keys.
When no key is on both sides the verdict is FALSE without enumerating, with
the count's paths and visits. Most false units are decided so; every true
one is walked, as are the false units whose sets meet. The count is keyed
by call depth and call stack and stops at the budget, so it keeps its own
fold over the ops.

A full `detect` under `nopa`, whose call resolution logs no miss-reference,
runs the pass too, over every method a call reaches: it resolves those
calls and lowers their targets itself, recording their effects, past the
depth limit and the recursion cut, which over-approximates what the walk
reaches. When the sides cannot meet, no path holds a finding, and the walk
skips from the root (`_Enumerator._skip`): at a choice point it asks,
alternative by alternative, whether the subtree of the alternative followed
by the rest of the path to the root's end fits the fuel and path cap left.
One that fits adds its counted leaves and visits and is not entered; the
first that does not is entered without a choice point, since the budget
runs out inside it. So the walk stops exactly where the full walk stops,
with its `paths`, `visited` and `stop_reason`, as Ball and Larus's
numbering reaches the k-th path of a counted DAG without the paths before
it; within budget the first choice point adds up the whole tree. One fold
counts both: `_count` takes a stack of parts, and the skip stacks one per
frame with ops left on the chain of continuations, the one nearest the root
at the bottom (`_chain`). Each starts at its frame's op index, whose op the
walk has visited, with the part above as that op's one alternative in
progress, and the alternative asked about on the top part. A part's falls
go on to the part below, and so do its returns, except that a body's part
counts its returns as falls, which complete its call. The count's memo,
bounds and frontier sums live on the context, so every count of the walk
shares them. Before a choice point's first call target, the rest alone is
counted once: every way out of a body goes on into it, so where it does not
fit, no body does.

Where the sides meet, a `nopa` walk skips the call subtrees that cannot
change the scan: a form of relevance pruning that keeps every count. The
pass returns the keys both sides write, and `_quiet` finds the lowered
methods whose bodies, with their resolved targets' transitively, write
none of them, on either side or in base code, by a reverse reachability
over the effects from the methods that write one. A quiet body writes no
element the scan can report on or that blocks a finding, and every way out
of it restores its caller's env, so each leaves the scan in one state and
the rest of the path repeats the findings of the first. A choice point is
neutral in a quiet body, or at a call whose alternatives are all quiet
targets or None, provided the body was entered from a quiet frame or from
a call whose path's last event is not an LV write with a meeting key
(`_Enumerator._calm`). That condition keeps the collapse rule exact: a way
out without writes makes the writes before and after the call adjacent,
and one with writes does not. Backtracking to a neutral choice point
skips its remaining alternatives as above; when one does not fit, the walk
enters it and skips from there on. Under `verdict_only` the count has
already found the whole tree within budget, so every alternative fits:
backtracking drops a neutral choice point without counting its subtrees
again, and `detect` takes `paths` and `visited` from the count. A wall
clock that runs out mid-walk has the dropped choice points counted then,
so the counters are those of a walk that counts each one as it drops it.
`pa` and `hybrid` walk in full, because a count resolves calls, and there
resolving a call logs `unresolved-call` miss-references that the walk
might never reach.
"""

from __future__ import annotations

import time
from enum import Enum
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .cha import (
    CallGraph,
    apply_rule,
    build_cha_graph,
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
from .pointsto import PointsToResult, solve


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


class AnalysisBudget(NamedTuple):
    depth_limit: int = 5
    fuel: int = 500_000
    wall_clock: Optional[float] = 300.0
    path_cap: int = 4096


class Hop(NamedTuple):
    method_id: str
    method_display: str
    pos: Position
    provenance: Provenance


class WriteEvent(NamedTuple):
    """One write on a path. A visit builds it from its op's static fields
    and those the path decides, by concatenation (see `_Op`)."""

    kind: str
    pos: Position
    method_id: str
    method_display: str
    enclosing_kind: str  # "method" | "constructor"
    provenance: Provenance
    call_path: tuple[Hop, ...] = ()
    base_type: Optional[str] = None
    field: Optional[tuple] = None  # (declaring class, name, type) when resolved
    local: Optional[str] = None
    base: Optional[str] = None
    base_pts: Optional[frozenset] = None
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


class MissRef(NamedTuple):
    pos: Position
    expression: str
    reason: str  # "empty-pts" | "unresolved-call"


class Conflict(NamedTuple):
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


class OutcomeStats(NamedTuple):
    visited: int
    paths: int
    elapsed_ms: float  # the path search's wall time; 0 without a wall clock
    stop_reason: Optional[str]  # the budget that ran out: "fuel", "path_cap" or "wall_clock"
    # Whether the run made only the choices `nopa` makes (see `detect`).
    nopa_choices: bool = True


class AnalysisOutcome(NamedTuple):
    verdict: Verdict
    conflicts: list[Conflict]
    missrefs: list[MissRef]
    stats: OutcomeStats


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
    return h.related(a, b)


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


def compare_heap(a: WriteEvent, b: WriteEvent, mode: Mode, h: Hierarchy, nopa: bool = False) -> tuple:
    """Whether two IFR writes, or two AR writes, may write one heap element:
    `(match, nopa_match, empty)`.

    Their slots must match and they must not sit in one constructor. `nopa`
    then asks the hierarchy `h` for related base types. `pa` and `hybrid`
    ask for overlapping points-to sets; when either set is empty they fall
    back to the base-type rule, and `empty` holds the writes of the two
    (in order) whose set is empty, each of which logs its `empty-pts`
    miss-reference (`empty_pts_miss`), whatever the slots. `match` is the
    answer under `mode`. With `nopa` set, `nopa_match` is the answer under
    `nopa`, which costs a base-type test of its own only where both sets
    are non-empty; else it is None.
    """
    eligible = _same_slot(a, b) and not _same_constructor(a, b)
    if mode.uses_pts:
        pa, pb = a.base_pts, b.base_pts
        if pa and pb:
            base = (eligible and _base_types_related(a, b, h)) if nopa else None
            return eligible and not pa.isdisjoint(pb), base, _NO_MISS
        empty = (b,) if pa else (a,) if pb else (a, b)
    else:
        empty = _NO_MISS
    match = eligible and _base_types_related(a, b, h)
    return match, match if nopa else None, empty


def empty_pts_miss(ev: WriteEvent) -> MissRef:
    """The `empty-pts` miss-reference of heap write `ev`, its target spelled
    as the source spells it: `base.field` or `base[index]`."""
    written = f"{ev.base}.{ev.field_name}" if ev.kind == IFR else f"{ev.base}[{ev.index}]"
    return MissRef(ev.pos, written, "empty-pts")


# ---------------------------------------------------------------------------
# Detection context and call resolution


class DetectionContext:
    """One detection's inputs, its counters and findings, and the ops and
    effects of the methods it enters, each lowered on first entry."""

    def __init__(
        self,
        program: Program,
        mode: Mode,
        budget: AnalysisBudget,
        cha: Optional[CallGraph] = None,
        pts: Optional[PointsToResult] = None,
    ):
        self.hierarchy = program.hierarchy()
        self.mode = mode
        self.budget = budget
        self.cha = cha
        self.pts = pts
        self.by_id = self.hierarchy.methods_by_id()
        self.visited = 0
        self.paths = 0
        # Whether every call target list and heap comparison so far is the
        # one `nopa` gets (see `detect`). Under `pa` it can only tell when
        # given the CHA graph `nopa` resolves calls by; under `nopa` it
        # stays true, unchecked.
        self.nopa_choices = cha is not None
        # The budget that ran out: "fuel", "path_cap" or "wall_clock".
        self.stop_reason: Optional[str] = None
        self.missrefs: set[MissRef] = set()
        self.deadline = (
            time.monotonic() + budget.wall_clock if budget.wall_clock is not None else None
        )
        self.lowered: dict[str, list[_Op]] = {}
        # Per distinct target id tuple of a virtual call, its one target list
        # and id frozenset, which every call op with those targets shares.
        self.target_sets: dict[tuple[str, ...], tuple[list[MethodDef], frozenset]] = {}
        # Per lowered method id, its effects: the keys it writes, by the
        # writes' own side, and its call ops with their own sides (`_SIDE`).
        self.effects: dict[str, tuple[list[set], list[tuple[int, _Op]]]] = {}
        # The tree count's memo, lower bounds and frontier sums (see
        # `_count`), which every count of this detection shares.
        self.memo: dict[tuple, tuple[int, int]] = {}
        self.bounds: dict[tuple, tuple[int, int]] = {}
        self.frontier: dict[frozenset, tuple[int, int, frozenset]] = {}

    @property
    def timed_out(self) -> bool:
        return self.stop_reason is not None

    def ops(self, m: MethodDef) -> list[_Op]:
        ops = self.lowered.get(m.id)
        if ops is None:
            self.effects[m.id] = ([set(), set(), set()], [])
            ops = self.lowered[m.id] = self.block(m.body, m)
        return ops

    def resolve_targets(self, op: _Op) -> list[MethodDef]:
        """Resolves a call op's targets, on its first visit: an allocation's
        are its class's constructor of that arity, if it has one.

        A miss-reference is recorded then; recorded misses are never undone,
        so once is as good as once per visit.
        """
        st = op.st
        if isinstance(st, VirtualCall):
            resolved, miss = _resolve_call(st, self)
            if miss is not None:
                self.missrefs.add(miss)
            if self.nopa_choices and self.mode.uses_pts:
                self.nopa_choices = resolved is _cha_targets(st, self)
            op.targets, op.target_ids = resolved
            return op.targets
        if isinstance(st, AllocAssign):
            ctor = self.hierarchy.constructor_of(st.cls, len(st.args))
            defs = [] if ctor is None else [ctor]
        else:
            defs = [resolve_static(self.hierarchy, st)]
        op.targets = defs
        op.target_ids = frozenset(t.id for t in defs)
        return defs

    def shared_targets(self, ids: tuple[str, ...]) -> tuple[list[MethodDef], frozenset]:
        """The one target list and id frozenset of the virtual calls whose
        targets are `ids`, as a CHA or points-to graph site holds them."""
        got = self.target_sets.get(ids)
        if got is None:
            by_id = self.by_id
            got = self.target_sets[ids] = ([by_id[i] for i in ids], frozenset(ids))
        return got

    def call_alts(self, op: _Op, depth: int, on_stack: frozenset) -> Optional[list]:
        """The alternatives of a call op visited at call depth `depth` with
        the ids `on_stack` on the call stack: None when it has no targets or
        the depth limit cuts them all, so that it completes without a body;
        else its targets, after None (complete without a body) when
        recursion cuts one of them."""
        targets = op.targets
        if targets is None:
            targets = self.resolve_targets(op)
        if not targets or depth >= self.budget.depth_limit:
            return None
        if op.target_ids.isdisjoint(on_stack):
            return targets
        alts = [None]
        alts.extend(t for t in targets if t.id not in on_stack)
        return alts

    def block(self, stmts, m: MethodDef) -> list[_Op]:
        return [self.stmt(st, m) for st in stmts]

    def stmt(self, st, m: MethodDef) -> _Op:
        """Lowers `st`, adding its write's key and its call op to `m`'s effects."""
        if isinstance(st, If):
            op = _Op(_BRANCH, st)
            op.alts = [self.block(st.then_body, m), self.block(st.else_body, m)]
        elif isinstance(st, While):
            op = _Op(_BRANCH, st)
            op.alts = [None, self.block(st.body, m)]
        elif isinstance(st, Return):
            op = _Op(_RETURN, st)
        elif isinstance(st, (VirtualCall, StaticCall, AllocAssign)):
            op = _Op(_CALL, st)
            op.hop = Hop(m.id, m.display, st.pos, st.provenance)
            self.effects[m.id][1].append((_SIDE[op.prov], op))
            if isinstance(st, AllocAssign):
                self._local(op, m, st.target)
            elif st.result is not None:
                op.result = self._local(_Op(_WRITE, st), m, st.result)
        elif isinstance(st, FieldStore):
            op = self._heap(st, m, (IFR, st.field), _IFR_TAIL, st.field)
            op.field = st.field
        elif isinstance(st, ArrayStore):
            op = self._heap(st, m, (AR,), _AR_TAIL, st.index)  # any two array writes may meet
        elif isinstance(st, StaticStore):
            decl, ftype = self.hierarchy.static_field_of(st.cls, st.field)
            op = self._write(_Op(_WRITE, st), m, SFR, _SFR_TAIL((decl, st.field, ftype, None)),
                             (SFR, decl, st.field, ftype))
        else:  # a copy, mkref, op, newarr or load: a local write
            op = self._local(_Op(_WRITE, st), m, st.target)
        return op

    def _local(self, op: _Op, m: MethodDef, local: str) -> _Op:
        return self._write(op, m, LV, _LV_TAIL((local, None)), (LV, m.id, local))

    def _write(self, op: _Op, m: MethodDef, kind: str, tail: tuple, key: tuple) -> _Op:
        """Makes `op` an LV or SFR write, whose event's fields from
        `base_type` on are `tail` and whose `element_key()` is `key`."""
        op.head, op.tail, op.key = (kind, op.st.pos, m.id, m.display, m.kind), tail, key
        op.rule = type_rule(op.st, self.hierarchy)
        self.effects[m.id][0][_SIDE[op.prov]].add(key)
        return op

    def _heap(self, st, m: MethodDef, key: tuple, tail, slot) -> _Op:
        """An IFR or AR write op, `tail` laying out its base, points-to set
        and `slot` (field name or index) as its event's fields from `local`
        on; `key` is what the effects keep of it."""
        op = _Op(_HEAP, st)
        op.base = st.base
        pts = self.pts.pts.get(("l", m.id, st.base)) if self.mode.uses_pts and self.pts is not None else None
        op.head, op.tail = (key[0], st.pos, m.id, m.display, m.kind), tail((st.base, pts or None, slot, None))
        self.effects[m.id][0][_SIDE[op.prov]].add(key)
        return op


def resolve_call(st: VirtualCall, ctx: DetectionContext):
    """Targets of a virtual site under the context's mode.

    Returns (methods, missref-or-None). In pa mode an unresolvable site
    contributes no targets; hybrid widens it to the hierarchy-based targets.
    The method list is shared with every site of those targets: never
    change it.
    """
    (defs, _), miss = _resolve_call(st, ctx)
    return defs, miss


def _resolve_call(st: VirtualCall, ctx: DetectionContext):
    """`resolve_call` with the targets' shared (list, id frozenset) pair."""
    if not ctx.mode.uses_pts:
        return _cha_targets(st, ctx), None

    hit = ctx.pts.callgraph.sites.get(st.pos) if ctx.pts is not None else None
    if hit is not None:
        return ctx.shared_targets(hit[1]), None
    miss = MissRef(st.pos, f"{st.receiver}.{st.method}()", "unresolved-call")
    if not ctx.mode.uses_cha:
        return ctx.shared_targets(()), miss
    return _cha_targets(st, ctx), miss


def _cha_targets(st: VirtualCall, ctx: DetectionContext) -> tuple[list[MethodDef], frozenset]:
    """The targets `nopa` resolves a virtual site to, as their shared (list,
    id frozenset) pair: the context's CHA graph's, or the hierarchy's for
    every receiver type at a site the graph does not hold."""
    hit = ctx.cha.sites.get(st.pos) if ctx.cha is not None else None
    if hit is not None:
        return ctx.shared_targets(hit[1])
    return ctx.shared_targets(tuple(t.id for t in ctx.hierarchy.dispatch_targets(None, st.method, len(st.args))))


# ---------------------------------------------------------------------------
# Lowered form (see the module docstring)

_WRITE, _HEAP, _CALL, _BRANCH, _RETURN = range(5)

# An op's own side as the effects table indexes it, base code 0: a list
# index, which costs no call where an enum's hash does.
_SIDE = {None: 0, Provenance.LEFT: 1, Provenance.RIGHT: 2}


def _fields_of(first: str, *names: str) -> itemgetter:
    """A function that lays out the values of `names`, in a tuple followed
    by None, as the fields of a `WriteEvent` from `first` on: each value in
    its field and None in the others. So a lowered write's `tail` follows
    `WriteEvent._fields` at the cost of one C call."""
    fields = WriteEvent._fields[WriteEvent._fields.index(first):]
    return itemgetter(*(names.index(f) if f in names else len(names) for f in fields))


# The `tail` of each kind of lowered write (see `_Op`).
_LV_TAIL = _fields_of("base_type", "local")
_SFR_TAIL = _fields_of("base_type", "static_cls", "field_name", "static_type")
_IFR_TAIL = _fields_of("local", "base", "base_pts", "field_name")
_AR_TAIL = _fields_of("local", "base", "base_pts", "index")


class _Op:
    """One lowered statement: an opcode and its static payload.

    _WRITE   an LV or SFR write: `head` and `tail`, its element `key`, and
             the type `rule` (None for a static store)
    _HEAP    an IFR or AR write: `head` and `tail`, `base`, and for IFR
             `field`
    _CALL    a call or an allocation: `hop`, and `targets` with the
             frozenset of their ids, `target_ids` (both resolved on first
             visit; an allocation's one target is its class's constructor);
             `result` is the _WRITE op of a call's result local, or None; an
             allocation carries its LV write as _WRITE does, made before
             the call
    _BRANCH  an `if` or `while`: `alts`, the blocks the choice point tries
             in order: the then and else blocks, or None (skip the loop)
             and the body
    _RETURN  nothing

    A write's `head` and `tail` are its event's fields before and after
    those a visit adds: the provenance and the call path, and for _HEAP the
    base type and the field after them (a _WRITE's `tail` holds None for
    those two).
    """

    __slots__ = ("code", "st", "prov", "head", "tail", "key", "rule", "base", "field",
                 "hop", "targets", "target_ids", "result", "alts")

    def __init__(self, code: int, st):
        self.code = code
        self.st = st
        # The statement's own side, None for BASE: a BASE write, and a body a
        # BASE call enters, take the provenance their path inherits.
        self.prov = st.provenance if st.provenance is not Provenance.BASE else None
        self.head = self.tail = self.key = self.rule = self.base = self.field = None
        self.hop = self.targets = self.target_ids = self.result = self.alts = None


# ---------------------------------------------------------------------------
# Path enumeration
#
# The enumerator is an explicit-stack machine rather than recursion: a single
# path may inline thousands of statements, well past Python's stack. Its
# state is three locals of `paths()`: the frame, the index `i` of its next
# op, and the env. A frame never changes. It holds a block of ops, what they
# run under (call path, provenance, ids on the call stack) and how it ends:
# the continuation it resumes, op `resume` of frame `caller`. A block frame
# (a branch arm or loop body) ends with its env, so its bindings flow
# onward, and `method` links it to the method frame that a `return` in it
# ends. A method frame (a callee body, or the root, which has no caller)
# ends with `caller_env`, the env at its call, and its `site` call writes
# its result local; the root's end is the path's. Frame ends are not visits.
#
# A choice point keeps the state, the event count, the op, its alternatives
# and a cursor into them. Backtracking restores the three values and
# applies the alternative under the cursor; taking the last one drops the
# choice point. Frames are immutable and envs copy-on-write, so the state
# is three shared references, however deep the frames nest. A branch's
# alternatives are its lowered blocks, None skipping a loop. A call's are
# its targets, each inlined in a body frame: the op's own target list when
# nothing is cut, else None (complete the call without a body) followed by
# the targets that recursion leaves. The depth cut is decided once per
# visit, before any choice point (see the module docstring). An allocation
# writes its local on the visit, before its constructor is chosen. Branches
# and calls then share one arm of the walk: take the first alternative, and
# keep a choice point when there are more. The machine's transitions (a
# frame's end, taking an alternative, backtracking) run inline in the loop.

# A call's alternatives when it has no targets or the depth limit cuts them.
_NO_BODY = (None,)


class _Frame:
    __slots__ = ("ops", "call_path", "prov", "on_stack", "quiet", "caller", "resume", "caller_env",
                 "site", "method")

    def __init__(self, ops, call_path, prov, on_stack, quiet, caller=None, resume=0, caller_env=None,
                 site=None, method=None):
        self.ops = ops
        self.call_path = call_path
        self.prov = prov  # the provenance of the nearest changed call on the call path
        self.on_stack = on_stack
        self.quiet = quiet  # in a quiet body whose choice points are neutral (see `paths`)
        self.caller = caller  # the continuation: op `resume` of frame `caller`
        self.resume = resume
        self.caller_env = caller_env  # a body's
        self.site = site  # a body's call op
        # A block's; None in a method frame, which a link to itself would
        # keep alive until the cyclic garbage collector runs.
        self.method = method


class _Enumerator:
    def __init__(self, ctx: DetectionContext, entry: MethodDef):
        self.ctx = ctx
        self.entry = entry
        self.events: list[WriteEvent] = []
        # Choice points: [frame, i, env, events length, op, alternatives,
        # cursor of the next alternative].
        self.choices: list[list] = []
        self.skip = False  # see `paths`
        # The tree is counted and fits the budget: neutral choice points are
        # dropped uncounted, each kept in `dropped` (see `paths`).
        self.fits = False
        self.dropped: list[tuple] = []
        # The keys both sides write (`_sides_meet`) and the ids of the
        # methods that write none of them (`_quiet`); see `paths`.
        self.meets: set = set()
        self.quiet: frozenset = frozenset()

    # -- per-path event log; `_Scanner` extends these three

    def _append(self, ev: WriteEvent, key: Optional[tuple]) -> None:
        self.events.append(ev)

    def _truncate(self, n: int) -> None:
        del self.events[n:]

    def _finish_path(self):
        return _collapse_redundant_locals(self.events)

    # -- machine

    def paths(self) -> Iterator:
        """Yields `_finish_path()` once per completed path; when a budget
        runs out, sets `ctx.stop_reason` and returns.

        With `skip` set, for a walk whose paths can hold no finding, a choice
        point adds up the alternatives whose subtrees fit the budget left
        and takes the first that does not (`_skip`), keeping no choice
        point: the budget runs out in that subtree, so the walk never comes
        back. So it stops where the full walk stops, with its `paths`,
        `visited` and `stop_reason`.

        With `quiet` and `meets` set, a choice point is neutral when its
        frame is quiet, or when it is a call whose targets are all `quiet`
        and the condition on the path's last event holds (`_calm`); a body
        of a quiet target is a quiet frame under the same condition.
        Backtracking to a neutral choice point skips its remaining
        alternatives, and when one does not fit, the walk takes it with
        `skip` set from there on (see the module docstring).

        With `fits` set as well, for a tree counted within budget, every
        such subtree fits: backtracking drops a neutral choice point
        uncounted, kept in `dropped` as (frame, i, alternatives, cursor),
        and `ctx.paths` and `ctx.visited` count only what the walk entered.
        """
        ctx, entry = self.ctx, self.entry
        h, budget, deadline = ctx.hierarchy, ctx.budget, ctx.deadline
        fuel, path_cap, skip, quiet, fits = budget.fuel, budget.path_cap, self.skip, self.quiet, self.fits
        append, write, truncate, calm = self._append, self._write, self._truncate, self._calm
        choices, events = self.choices, self.events
        new, event = tuple.__new__, WriteEvent  # events are built from tuples (see `_Op`)
        frame = _Frame(ctx.ops(entry), (), Provenance.BASE, frozenset({entry.id}), entry.id in quiet)
        i, env = 0, initial_env(entry)
        visited = ctx.visited
        try:
            while True:
                ops = frame.ops
                if i < len(ops):
                    visited += 1
                    if visited > fuel:
                        ctx.stop_reason = "fuel"
                        return
                    if deadline is not None and visited % 512 == 0 and time.monotonic() > deadline:
                        ctx.stop_reason = "wall_clock"
                        return
                    op = ops[i]
                    i += 1
                    code = op.code
                    if code == _WRITE:
                        append(new(event, op.head + (op.prov or frame.prov, frame.call_path) + op.tail),
                               op.key)
                        if op.rule is not None:
                            env = apply_rule(op.rule, env, h)
                        continue
                    if code == _HEAP:
                        base_type = env.get(op.base)
                        hit = h.field_of(base_type, op.field) if op.field is not None else None
                        field = (hit[0], op.field, hit[1]) if hit is not None else None
                        append(new(event, op.head + (op.prov or frame.prov, frame.call_path, base_type, field)
                                   + op.tail), None)
                        continue
                    if code == _RETURN:  # on to the end of its method's frame
                        frame = frame.method or frame
                        i = len(frame.ops)
                        continue
                    # _CALL or _BRANCH: take the first alternative, keep the rest
                    if code == _BRANCH:
                        alts = op.alts
                    else:
                        if op.head is not None:  # an allocation writes its local first
                            env = write(frame, op, env)
                        alts = ctx.call_alts(op, len(frame.call_path), frame.on_stack) or _NO_BODY
                    k = 0
                    if len(alts) > 1:
                        if skip:
                            k, visited = self._skip(frame, i, alts, visited)
                            if k == len(alts) or ctx.timed_out:  # every subtree fit, or the clock ran out
                                return
                        else:
                            neutral = frame.quiet or (code == _CALL and op.target_ids <= quiet and calm())
                            choices.append([frame, i, env, len(events), op, alts, 1, neutral])
                    alt = alts[k]
                elif frame.method is not None:  # a block ends: its bindings flow onward
                    frame, i = frame.caller, frame.resume
                    continue
                elif frame.caller is not None:  # a body ends: its call completes
                    result = frame.site.result
                    frame, i, env = frame.caller, frame.resume, frame.caller_env
                    if result is not None:
                        env = write(frame, result, env)
                    continue
                else:  # the root ends, and the path with it
                    ctx.paths += 1
                    if ctx.paths > path_cap:
                        ctx.stop_reason = "path_cap"
                        return
                    ctx.visited = visited
                    yield self._finish_path()
                    # Backtrack to the next alternative of the latest choice
                    # point, or skip the rest of a neutral one's.
                    while True:
                        if not choices:
                            return
                        choice = choices[-1]
                        frame, i, env, n, op, alts, k, neutral = choice
                        truncate(n)
                        if neutral:
                            choices.pop()
                            if fits:
                                self.dropped.append((frame, i, alts, k))
                                if deadline is not None and time.monotonic() > deadline:
                                    ctx.stop_reason = "wall_clock"
                                    return
                                continue
                            k, visited = self._skip(frame, i, alts, visited, k)
                            if ctx.timed_out:
                                return
                            if k == len(alts):  # every subtree fit
                                continue
                            # The budget runs out in this subtree: skip from here on.
                            skip = True
                            choices.clear()
                        elif k + 1 == len(alts):
                            choices.pop()
                        else:
                            choice[6] = k + 1
                        break
                    alt = alts[k]
                # Take alternative `alt` of `op` in state (frame, i, env).
                if alt is None:  # skip a loop, or complete a call without a body
                    if op.result is not None:
                        env = write(frame, op.result, env)
                elif type(alt) is list:  # enter a branch arm or a loop body
                    frame = _Frame(alt, frame.call_path, frame.prov, frame.on_stack, frame.quiet, frame, i,
                                   method=frame.method or frame)
                    i = 0
                else:  # enter a call target's body
                    frame = _Frame(ctx.ops(alt), frame.call_path + (op.hop,), op.prov or frame.prov,
                                   frame.on_stack | {alt.id}, alt.id in quiet and (frame.quiet or calm()),
                                   frame, i, env, op)
                    i, env = 0, initial_env(alt, [operand_type(a, env) for a in op.st.args])
        finally:
            ctx.visited = visited

    def _write(self, frame: _Frame, op: _Op, env: dict) -> dict:
        """Appends `op`'s write event in `frame`; returns the env after it."""
        self._append(tuple.__new__(WriteEvent, op.head + (op.prov or frame.prov, frame.call_path) + op.tail),
                     op.key)
        return env if op.rule is None else apply_rule(op.rule, env, self.ctx.hierarchy)

    def _calm(self) -> bool:
        """Whether the path's last event is not an LV write to a key in
        `meets`: no write after a call can then collapse into a write that
        the scan may report on, past a way through the call's body that
        writes nothing."""
        events = self.events
        return not events or events[-1].kind != LV or events[-1].element_key() not in self.meets

    # -- skipping subtrees that fit the budget left, by their counts

    def _skip(self, frame: _Frame, i: int, alts: list, visited: int, k: int = 0) -> tuple[int, int]:
        """At a choice point before op `i` of `frame`, adds the visits and
        leaves of each alternative's subtree (the alternative, then the rest
        of the walk to the root's end) that fits the fuel and path cap left,
        in order from `alts[k]`, `ctx.paths` taking the leaves. Returns the
        index of the first that does not fit, or `len(alts)`, and `visited`
        after those added. Sets the stop reason when the wall clock has run
        out.
        """
        ctx = self.ctx
        budget = ctx.budget
        rest_fits = False
        while k < len(alts):
            fuel, cap = budget.fuel - visited, budget.path_cap - ctx.paths
            alt = alts[k]
            if not (rest_fits or alt is None or type(alt) is list):
                # Every way out of a body completes its call, so a body and
                # the rest fit only where the rest alone does: count it once.
                if _count(ctx, _chain(frame, i, None), fuel, cap).exceeds is not None:
                    break
                rest_fits = True
            count = _count(ctx, _chain(frame, i, alt), fuel, cap)
            if count.exceeds is not None:
                break
            visited += count.visits
            ctx.paths += count.paths
            rest_fits = rest_fits or alt is None
            k += 1
        # The walk's own clock checks fall on every 512th visit, which a skip jumps past.
        if ctx.deadline is not None and time.monotonic() > ctx.deadline:
            ctx.stop_reason = "wall_clock"
        return k, visited


def _chain(frame: _Frame, i: int, alt) -> list:
    """The count's stack for taking alternative `alt` before op `i` of
    `frame` and walking on to the root's end: one part per frame on the
    chain of continuations, the root's at the bottom. Each starts at its
    op index, the op before it already visited, with one alternative in
    progress: `alt` on the top part, the part above on the others. A frame
    with no op left would pass the ways out of the part above straight on,
    so it gets no part; if it is a body, that part counts its returns as
    falls instead."""
    stack = []
    alts = (alt,)
    while frame is not None:
        if i < len(frame.ops) or not stack:
            part = _Part(frame.ops, len(frame.call_path), frame.on_stack, body=frame.method is None)
            part.i, part.visits = i, -1
            part.alts, part.k = alts, 0
            part.alt_visits = part.alt_falls = part.alt_returns = 0
            stack.append(part)
        elif frame.method is None:
            stack[-1].body = True
        frame, i, alts = frame.caller, frame.resume, _NO_BODY
    stack.reverse()
    return stack


# ---------------------------------------------------------------------------
# Counting the enumeration tree (see the module docstring)
#
# A block folds its ops left to right into (visits, falls, returns): the
# visits of its subtree, and how many of its ways through fall off its end
# or reach a `return`. An op (v, f, r) after a prefix (V, F, R) gives
# (V + F*v, F*f, R + F*r). A branch, and a call with a target left to enter,
# sums its alternatives, plus 1 for its own visit: a branch arm gives its
# block's triple, a body its (visits, falls + returns, 0), and None, which
# skips a loop or completes a call without a body, gives (0, 1, 0). A call
# whose bodies sit at the depth limit sums them by its frontier sum. A
# write, a heap write and a call with no body to enter give (1, 1, 0), a
# `return` (1, 0, 1). A prefix with no falls ends its block: the rest is
# unreached.


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
    """A block being counted from op `i`, with the alternatives of its op in
    progress: `alts`, the cursor `k` into them, and their sums so far. A
    call whose bodies sit at the depth limit holds itself in `alts` until
    its frontier sum is tried. A method body's part (`body`) counts its
    returns as falls, since each completes the body's call; a body counted
    whole has its memo `key`, which other parts lack."""

    __slots__ = ("ops", "i", "visits", "falls", "returns", "depth", "on_stack", "key", "body",
                 "alts", "k", "alt_visits", "alt_falls", "alt_returns")

    def __init__(self, ops, depth, on_stack, key=None, body=False):
        self.ops = ops
        self.i = 0
        self.visits = self.returns = 0
        self.falls = 1
        self.depth = depth
        self.on_stack = on_stack
        self.key = key
        self.body = body
        self.alts = None


def _count_tree(ctx: DetectionContext, entry: MethodDef) -> TreeCount:
    """Counts the tree `_Enumerator(ctx, entry)` walks, within the budget."""
    budget = ctx.budget
    root = _Part(ctx.ops(entry), 0, frozenset({entry.id}), body=True)
    return _count(ctx, [root], budget.fuel, budget.path_cap)


def _count(ctx: DetectionContext, stack: list, fuel: int, path_cap: int) -> TreeCount:
    """The `TreeCount` of the walk the `_Part`s on `stack` hold,
    the top's first: each part counts its block from its op `i`, each way
    out of it continues the op in progress of the part below, and the
    bottom part's ways out are the leaves. A body is counted once per
    (method id, call depth, ids on the call stack), in `ctx.memo`, and
    every visit shares the count.

    With more than `fuel` visits or `path_cap` ways out in a counted part,
    `exceeds` names that budget and the counts are that part's. They bound
    the counts of each part below it, so each body there keeps them in
    `ctx.bounds`: a later count that reaches such a body under a budget
    they exceed stops before counting it. The stack is explicit, as the
    enumerator links its frames: block nesting times call depth can exceed
    Python's stack.
    """
    deadline, limit = ctx.deadline, ctx.budget.depth_limit
    # Per target ids of a call at depth `limit - 1` (calls with equal ones
    # share it): the visits and outs summed over the memo entries those
    # targets had at the limit, and the ids that had none.
    memo, bounds, frontier = ctx.memo, ctx.bounds, ctx.frontier
    steps = 0
    while True:
        part, child = stack[-1], None
        steps += 1
        if deadline is not None and steps % 512 == 0 and time.monotonic() > deadline:
            return TreeCount(part.falls + part.returns, part.visits, "wall_clock")
        alts = part.alts
        if type(alts) is _Op:
            # A call entering bodies at the depth limit: sum its targets'
            # entries, less those recursion cuts, when every target without
            # an entry is cut; else count its alternatives one by one.
            op = alts
            cut = op.target_ids & part.on_stack
            sums = frontier.get(op.target_ids)
            if sums is None or not sums[2] <= cut:
                sum_visits = sum_outs = 0
                missing = []
                for t in op.targets:
                    hit = memo.get((t.id, limit, None))
                    if hit is None:
                        missing.append(t.id)
                    else:
                        sum_visits += hit[0]
                        sum_outs += hit[1]
                sums = frontier[op.target_ids] = (sum_visits, sum_outs, frozenset(missing))
            sum_visits, sum_outs, missing = sums
            if missing <= cut:
                for tid in cut - missing:
                    hit = memo[(tid, limit, None)]
                    sum_visits -= hit[0]
                    sum_outs -= hit[1]
                part.alt_visits += sum_visits
                part.alt_falls += sum_outs + (1 if cut else 0)  # None: complete without a body
                alts = part.alts = ()
            else:
                alts = part.alts = ctx.call_alts(op, part.depth, part.on_stack)
        if alts is not None:
            # Sum the op's alternatives; descend into the first one not
            # counted: a branch arm, or a call target not in the memo.
            k = part.k
            while k < len(alts) and child is None:
                alt = alts[k]
                if alt is None:
                    part.alt_falls += 1
                elif type(alt) is list:
                    child = alt
                else:  # a call target: its body one level down
                    depth = part.depth + 1
                    key = (alt.id, depth, part.on_stack if depth < limit else None)
                    hit = memo.get(key)
                    if hit is None:
                        child = alt
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
                # What the op folds in so far already bounds the part's
                # counts, and so do a body's bounds from an earlier count.
                visits = part.visits + falls * (1 + part.alt_visits)
                outs = part.returns + falls * (part.alt_falls + part.alt_returns)
                if type(child) is not list and key in bounds:
                    low = bounds[key]
                    visits, outs = max(visits, low[0]), max(outs, low[1])
        else:
            # Fold ops without alternatives up to the next op with some.
            ops, i, n = part.ops, part.i, len(part.ops)
            visits, falls, returns = part.visits, part.falls, part.returns
            at_frontier = part.depth == limit - 1
            while i < n and falls:
                op = ops[i]
                i += 1
                code = op.code
                if code == _BRANCH:
                    alts = op.alts
                    break
                if code == _CALL:
                    if at_frontier and op.targets:  # resolved, with bodies at the limit
                        alts = op
                        break
                    alts = ctx.call_alts(op, part.depth, part.on_stack)
                    if alts is not None:
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
        if visits > fuel or outs > path_cap:
            # A part exceeds every smaller budget too. Its counts never fall
            # as it folds on, and each part below it on the stack has at
            # least them, so each body there keeps them as its bounds.
            for below in stack:
                if below.key is not None:
                    low = bounds.get(below.key, (0, 0))
                    bounds[below.key] = (max(low[0], visits), max(low[1], outs))
            return TreeCount(outs, visits, "fuel" if visits > fuel else "path_cap")
        if type(child) is list:
            stack.append(_Part(child, part.depth, part.on_stack))
        elif child is not None:  # a body, under the `key` the loop above made
            stack.append(_Part(ctx.ops(child), part.depth + 1, part.on_stack | {child.id}, key, True))
        elif part.alts is None and (part.i == len(part.ops) or not part.falls):
            # The block is done: every way through it fell off or returned.
            stack.pop()
            if part.key is not None:
                memo[part.key] = (visits, outs)
            if not stack:
                return TreeCount(outs, visits)
            parent = stack[-1]
            parent.alt_visits += visits
            if part.body:  # every way out of a body completes the call
                parent.alt_falls += outs
            else:
                parent.alt_falls += part.falls
                parent.alt_returns += part.returns
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
    return _count_tree(_make_context(p, entry, mode, budget, cha, pts), entry)


def _sides_meet(ctx: DetectionContext, entry: MethodDef, reach_all: bool = False) -> set:
    """The keys of the elements that both a left write and a right write
    may touch, read from the effects of the methods `_count_tree(ctx,
    entry)` lowered, or with `reach_all` of every method a call reaches.
    An empty set means no left write can meet a right write.

    A worklist of (method, inherited side) states starts at the entry. A
    method's base writes take the side it inherits and its changed writes
    their own, as the walk's do, and each call passes the side it runs
    under to its targets: those the count resolved, into the bodies the
    count lowered, or with `reach_all` every target, resolved and lowered
    here whatever the depth limit and the call stack, which
    over-approximates what the walk reaches. Every match of the scan
    implies a shared key (see the module docstring).
    """
    # By side, as `_SIDE` numbers them: each side's keys, and the ids of the
    # methods entered under each inherited side.
    keys = [None, set(), set()]
    entered = [{entry.id}, set(), set()]
    work = [(entry, 0)]
    while work:
        m, inherited = work.pop()
        ctx.ops(m)  # without `reach_all`, every method here is lowered already
        writes, calls = ctx.effects[m.id]
        keys[1] |= writes[1]
        keys[2] |= writes[2]
        if inherited:
            keys[inherited] |= writes[0]
        for side, op in calls:
            if op.targets is None and reach_all:
                ctx.resolve_targets(op)
            side = side or inherited
            done = entered[side]
            if op.targets and not op.target_ids <= done:
                for t in op.targets:
                    if t.id not in done and (reach_all or t.id in ctx.effects):
                        done.add(t.id)
                        work.append((t, side))
    return keys[1] & keys[2]


def _quiet(ctx: DetectionContext, keys: set) -> frozenset:
    """The ids of the lowered methods that write no element keyed in `keys`,
    on either side or in base code, nor do their resolved call targets,
    transitively. A method whose effects write a keyed element is loud, and
    so is each caller of a loud method, back along the calls of the effects;
    the rest are quiet."""
    callers: dict[str, list[str]] = {}
    loud = []
    for mid, (writes, calls) in ctx.effects.items():
        if not all(map(keys.isdisjoint, writes)):
            loud.append(mid)
        for _, op in calls:
            if op.targets:
                for tid in op.target_ids:
                    callers.setdefault(tid, []).append(mid)
    heard = set(loud)
    while loud:
        for mid in callers.get(loud.pop(), ()):
            if mid not in heard:
                heard.add(mid)
                loud.append(mid)
    return frozenset(ctx.effects.keys() - heard)


def _collapse_redundant_locals(events: list[WriteEvent]) -> list[WriteEvent]:
    """Consecutive same-side writes to one local keep only the last."""
    out: list[WriteEvent] = []
    for ev in events:
        if (out and ev.kind == LV and out[-1].element_key() == ev.element_key()
                and out[-1].provenance is ev.provenance):
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
    yield from _Enumerator(ctx, entry).paths()


def _make_context(p, entry, mode, budget, cha, pts) -> DetectionContext:
    if entry.id not in p.hierarchy().methods_by_id():
        raise MirError(f"entry '{entry.id}' not found in program")
    budget = budget or AnalysisBudget()
    if mode.uses_cha and cha is None:
        cha = build_cha_graph(p, entry)
    if mode.uses_pts and pts is None:
        pts = solve(p)
    return DetectionContext(p, mode, budget, cha=cha, pts=pts)


class _Scanner(_Enumerator):
    """The enumerator with the conflict scan run as each write is appended.

    See the module docstring for the last-writer dict, the same-kind
    walk-back, the trail, the findings and their commit on path completion.
    """

    def __init__(self, ctx: DetectionContext, entry: MethodDef):
        super().__init__(ctx, entry)
        self.conflicts: dict = {}
        self.last_writer: dict[tuple, Optional[WriteEvent]] = {}
        self.same_kind: dict[str, list[WriteEvent]] = {IFR: [], AR: []}
        # Per event, what undoes it and whether it collapses the event before
        # it: (key, the writer the key held before, collapses) for an LV or
        # SFR write, (None, its kind's list, False) for a heap write.
        self.trail: list[tuple] = []
        # Per event with a finding, in index order: (event index, the write
        # it overrides or None, (miss key, write) for each heap write with an
        # empty points-to set that it compared and whose miss-reference is
        # not logged yet). A miss key is what names the miss-reference:
        # (pos, kind, base, field_name, index).
        self.findings: list[tuple] = []
        self.committed = 0  # findings before this index are settled on the current path
        self.logged: set[tuple] = set()  # the miss keys whose empty-pts miss-reference is logged

    def _append(self, ev: WriteEvent, key: Optional[tuple]) -> None:
        events = self.events
        if key is None:
            same = self.same_kind[ev.kind]
            if same and ev.provenance is not Provenance.BASE:
                self._walk_back(same, ev)
            same.append(ev)
            self.trail.append((None, same, False))
        else:
            held = self.last_writer.get(key)
            self.last_writer[key] = ev
            collapses = False
            if held is not None:
                prov, held_prov = ev.provenance, held.provenance
                if held_prov is prov and key[0] == LV and held is events[-1]:
                    # Back-to-back same-side writes to one local: `ev` replaces
                    # the write before it, and takes its finding.
                    collapses = True
                    findings = self.findings
                    if findings and findings[-1][0] == len(events) - 1:
                        findings.append((len(events), findings[-1][1], _NO_MISS))
                elif prov is not Provenance.BASE and held_prov is not Provenance.BASE and held_prov is not prov:
                    # The other side's write is overridden; a base write
                    # blocks, and a same-side write is benign.
                    self.findings.append((len(events), held, _NO_MISS))
            self.trail.append((key, held, collapses))
        events.append(ev)

    def _walk_back(self, same: list[WriteEvent], w: WriteEvent) -> None:
        """Compares changed heap write `w` with the earlier writes of its kind,
        latest first, up to the first that may write its element, and lists
        its finding: that write if the other side's, and the writes with an
        empty points-to set compared whose miss-reference is not logged."""
        ctx, logged = self.ctx, self.logged
        mode, h = ctx.mode, ctx.hierarchy
        check = ctx.nopa_choices and mode.uses_pts
        overridden, misses = None, {}
        for prior in reversed(same):
            match, nopa_match, empty = compare_heap(prior, w, mode, h, check)
            if check and nopa_match != match:
                check = ctx.nopa_choices = False
            for ev in empty:
                k = ev.pos, ev.kind, ev.base, ev.field_name, ev.index
                if k not in logged and k not in misses:
                    misses[k] = ev
            if match:
                if prior.provenance is not Provenance.BASE and prior.provenance is not w.provenance:
                    overridden = prior
                break
        if overridden is not None or misses:
            self.findings.append((len(self.events), overridden, tuple(misses.items())))

    def _truncate(self, n: int) -> None:
        events, trail, findings = self.events, self.trail, self.findings
        last_writer = self.last_writer
        # The event before the cut loses its successor. If that one collapsed
        # it, its finding is settled again on the next path.
        settled = n < len(trail) and trail[n][2]
        for key, held, _ in reversed(trail[n:]):
            if key is None:
                held.pop()
            else:
                last_writer[key] = held
        del events[n:]
        del trail[n:]
        while findings and findings[-1][0] >= n:
            findings.pop()
        k = len(findings)
        if settled and k and findings[-1][0] == n - 1:
            k -= 1
        self.committed = min(self.committed, k)

    def _finish_path(self) -> None:
        trail, ctx, logged, conflicts = self.trail, self.ctx, self.logged, self.conflicts
        n = len(trail)
        for i, overridden, misses in self.findings[self.committed:]:
            if i + 1 < n and trail[i + 1][2]:  # collapsed: the next event took its finding
                continue
            for k, ev in misses:
                if k not in logged:
                    logged.add(k)
                    ctx.missrefs.add(empty_pts_miss(ev))
            if overridden is not None:
                w = self.events[i]
                key = (w.element_key(), overridden.root_pos, w.root_pos, overridden.pos, w.pos)  # `Conflict.key`
                if key not in conflicts:
                    conflicts[key] = Conflict(w.element_text(), overridden=overridden, overriding=w)
        self.committed = len(self.findings)


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
    of 0, and only the miss-references of the calls the count resolved. A
    tree within budget where no left write can meet a right write
    (`_sides_meet`) is false unenumerated: no conflicts, the count's paths
    and visits, which are the walk's, and again only the miss-references of
    the calls the count resolved. So with a wall clock, a unit whose walk
    would run out of time is false when decided so. Any other outcome is
    the one a full run gives.

    A full run under `nopa` whose sides cannot meet, by the pass over every
    method a call reaches, is walked with the skip of the module docstring
    from the root. Any other `nopa` walk skips the neutral choice points of
    its quiet call subtrees: a full run counts each one's subtrees as it
    skips it, and a verdict-only run, whose tree the count found within
    budget, drops it uncounted and takes `paths` and `visited` from the
    count. Either way the outcome is the full walk's, conflicts, counters
    and stop reason included. `stats.stop_reason` names the budget that ran
    out, the count's under `verdict_only` unless the wall clock runs out
    mid-walk.

    `stats.nopa_choices`, which records leave out too, says whether a `pa`
    or `hybrid` run made only the choices a `nopa` run makes: every call it
    resolved got the target list `nopa` gets from the CHA graph `cha` (an
    unresolved `pa` call with CHA targets differs), and every heap
    comparison of two non-empty points-to sets gave `nopa`'s base-type
    answer. Once one differs, neither check runs again. Where it holds,
    the `nopa` run's outcome is this one with its conflicts' points-to sets
    and its miss-references dropped (`as_nopa`). It is false for a `pa`
    run given no `cha`, which cannot tell, and true for every `nopa` run.
    """
    ctx = _make_context(p, entry, mode, budget, cha, pts)
    scanner = _Scanner(ctx, entry)
    conflicts = scanner.conflicts
    started = time.perf_counter()
    meets = None
    if verdict_only:
        count = _count_tree(ctx, entry)
        ctx.stop_reason = count.exceeds
        meets = set() if ctx.timed_out else _sides_meet(ctx, entry)
        if not (meets or ctx.timed_out):
            ctx.paths, ctx.visited = count.paths, count.visits
    elif mode is Mode.NOPA:
        # `nopa` resolution records no miss-reference, so the pass may
        # resolve every call; when the sides cannot meet, no path holds a
        # finding, and the walk skips from the root.
        meets = _sides_meet(ctx, entry, reach_all=True)
        scanner.skip = not meets
    if meets or not verdict_only:
        if meets and mode is Mode.NOPA:
            scanner.meets, scanner.quiet = meets, _quiet(ctx, meets)
            scanner.fits = verdict_only  # the count found the tree within budget
        for _ in scanner.paths():
            pass
        if scanner.fits:
            if not ctx.timed_out:
                ctx.paths, ctx.visited = count.paths, count.visits
            else:  # the wall clock ran out mid-walk: count what was dropped, to the end
                ctx.deadline = None
                for frame, i, alts, k in scanner.dropped:
                    _, ctx.visited = scanner._skip(frame, i, alts, ctx.visited, k)

    if ctx.timed_out:
        verdict = Verdict.TIMEOUT
    elif conflicts:
        verdict = Verdict.TRUE
    else:
        verdict = Verdict.FALSE

    ordered = sorted(conflicts.values(), key=lambda c: c.key[1:])
    missrefs = sorted(ctx.missrefs)
    elapsed = (time.perf_counter() - started) * 1000.0 if ctx.budget.wall_clock is not None else 0.0
    stats = OutcomeStats(visited=ctx.visited, paths=ctx.paths, elapsed_ms=elapsed, stop_reason=ctx.stop_reason,
                         nopa_choices=ctx.nopa_choices)
    return AnalysisOutcome(verdict=verdict, conflicts=ordered, missrefs=missrefs, stats=stats)


def as_nopa(outcome: AnalysisOutcome) -> AnalysisOutcome:
    """The outcome `nopa` gives where a points-to run's `stats.nopa_choices`
    holds: its conflicts, their events without points-to sets, no
    miss-reference, and its stats."""
    conflicts = [
        c._replace(overridden=c.overridden._replace(base_pts=None), overriding=c.overriding._replace(base_pts=None))
        for c in outcome.conflicts
    ]
    return outcome._replace(conflicts=conflicts, missrefs=[])
