"""Concrete interpreter used as an oracle for the static analyses.

Runs a program from a `main` method with a real heap of objects tagged by
their allocation sites, recording three things the analyses make claims
about: which locals held which allocation sites, which targets virtual
calls actually dispatched to, and the ordered write events with concrete
element identities and merge provenance. Opaque operations compute a
deterministic hash so runs are reproducible; execution halts cleanly at a
step limit, leaving a partial trace. Reflective instantiation has no
concrete semantics here and is rejected.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .mir import (
    AllocAssign,
    ArrayAlloc,
    ArrayLoad,
    ArrayStore,
    Const,
    CopyAssign,
    FieldLoad,
    FieldStore,
    If,
    MethodDef,
    MirError,
    OpaqueOp,
    Position,
    Program,
    Provenance,
    Record,
    ReflectiveAssign,
    Return,
    StaticCall,
    StaticLoad,
    StaticStore,
    VirtualCall,
    While,
    all_methods,
    iter_stmts,
)
from .pointsto import alloc_sites

_MAX_CALL_DEPTH = 64


class OracleError(MirError):
    pass


class _Halt(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class Obj(Record):
    __slots__ = _fields = ("oid", "site_id", "cls", "fields")

    def __init__(self, oid: int, site_id: int, cls: str, fields: Optional[dict] = None):
        self.oid = oid
        self.site_id = site_id
        self.cls = cls
        self.fields = {} if fields is None else fields


class Arr(Record):
    __slots__ = _fields = ("oid", "site_id", "slots")

    def __init__(self, oid: int, site_id: int, slots: Optional[dict] = None):
        self.oid = oid
        self.site_id = site_id
        self.slots = {} if slots is None else slots


class TraceWrite(NamedTuple):
    kind: str  # LV | IFR | AR | SFR
    key: tuple
    pos: Position
    provenance: Provenance


class Trace(Record):
    __slots__ = _fields = ("bindings", "dispatches", "writes", "steps", "halted", "halt_reason")

    def __init__(
        self,
        bindings: Optional[list] = None,
        dispatches: Optional[list] = None,
        writes: Optional[list] = None,
        steps: int = 0,
        halted: bool = False,
        halt_reason: str = "",
    ):
        self.bindings = [] if bindings is None else bindings  # (method_id, local, site_id)
        self.dispatches = [] if dispatches is None else dispatches  # (Position, target method_id)
        self.writes = [] if writes is None else writes  # TraceWrite
        self.steps = steps
        self.halted = halted
        self.halt_reason = halt_reason


class _Interp:
    def __init__(self, p: Program, step_limit: int):
        self.p = p
        self.h = p.hierarchy()
        self.step_limit = step_limit
        self.trace = Trace()
        self.statics: dict = {}
        self.next_oid = 0
        # Matches the solver's numbering.
        self.site_ids: dict[Position, int] = {pos: site.id for pos, site in alloc_sites(p).items()}

    def run(self, main: MethodDef) -> Trace:
        for m in all_methods(self.p):
            if any(isinstance(st, ReflectiveAssign) for st in iter_stmts(m.body)):
                raise OracleError("oracle cannot execute reflective instantiation")
        try:
            self._invoke(main, [], None, Provenance.BASE, depth=0)
        except _Halt as h:
            self.trace.halted = True
            self.trace.halt_reason = h.reason
        return self.trace

    # -- frames and values

    def _invoke(self, method: MethodDef, args, this, prov: Provenance, depth: int):
        if depth > _MAX_CALL_DEPTH:
            raise _Halt("call depth limit")
        frame: dict = {}
        mid = method.id
        for name, value in zip(method.params, args):
            frame[name] = value
            self._note_binding(mid, name, value)
        if not method.static and this is not None:
            frame["this"] = this
            self._note_binding(mid, "this", this)
        try:
            self._exec_block(method.body, frame, method, prov, depth)
        except _ReturnSignal as r:
            return r.value
        return None

    def _note_binding(self, mid: str, local: str, value) -> None:
        if isinstance(value, (Obj, Arr)):
            self.trace.bindings.append((mid, local, value.site_id))

    def _tick(self) -> None:
        self.trace.steps += 1
        if self.trace.steps > self.step_limit:
            raise _Halt("step limit")

    def _operand(self, o, frame):
        if isinstance(o, Const):
            return o.value
        return frame.get(o)

    def _truthy(self, v) -> bool:
        if isinstance(v, int):
            return v != 0
        if isinstance(v, str):
            return bool(v)
        return v is not None

    def _hash(self, values) -> int:
        acc = 17
        for v in values:
            if isinstance(v, int):
                x = v
            elif isinstance(v, str):
                x = len(v)
            elif isinstance(v, (Obj, Arr)):
                x = v.site_id + 1
            else:
                x = 0
            acc = (acc * 31 + x + 7) % 1021
        return acc

    def _assign(self, frame, mid, st, name, value, prov) -> None:
        frame[name] = value
        self._note_binding(mid, name, value)
        self.trace.writes.append(TraceWrite("LV", (mid, name), st.pos, prov))

    def _prov(self, st, inherited: Provenance) -> Provenance:
        return st.provenance if st.provenance is not Provenance.BASE else inherited

    # -- execution

    def _exec_block(self, body, frame, method, inherited, depth):
        for st in body:
            self._tick()
            prov = self._prov(st, inherited)
            self._exec_stmt(st, frame, method, inherited, prov, depth)

    def _exec_stmt(self, st, frame, method, inherited, prov, depth):
        mid = method.id
        if isinstance(st, If):
            branch = st.then_body if self._truthy(frame.get(st.cond)) else st.else_body
            self._exec_block(branch, frame, method, inherited, depth)
            return None
        if isinstance(st, While):
            while self._truthy(frame.get(st.cond)):
                self._tick()
                self._exec_block(st.body, frame, method, inherited, depth)
            return None
        if isinstance(st, Return):
            raise _ReturnSignal(frame.get(st.value) if st.value else None)
        if isinstance(st, AllocAssign):
            obj = Obj(self.next_oid, self.site_ids[st.pos], st.cls)
            self.next_oid += 1
            self._assign(frame, mid, st, st.target, obj, prov)
            ctor = self.h.constructor_of(st.cls, len(st.args))
            if ctor is not None:
                args = [self._operand(a, frame) for a in st.args]
                self._invoke(ctor, args, obj, prov, depth + 1)
            return None
        if isinstance(st, ArrayAlloc):
            arr = Arr(self.next_oid, self.site_ids[st.pos])
            self.next_oid += 1
            self._assign(frame, mid, st, st.target, arr, prov)
            return None
        if isinstance(st, CopyAssign):
            self._assign(frame, mid, st, st.target, self._operand(st.source, frame), prov)
            return None
        if isinstance(st, OpaqueOp):
            value = self._hash(self._operand(o, frame) for o in st.operands)
            self._assign(frame, mid, st, st.target, value, prov)
            return None
        if isinstance(st, FieldStore):
            obj = frame.get(st.base)
            if not isinstance(obj, Obj):
                raise _Halt(f"field store on non-object at {st.pos}")
            obj.fields[st.field] = self._operand(st.source, frame)
            self.trace.writes.append(TraceWrite("IFR", (obj.oid, st.field), st.pos, prov))
            return None
        if isinstance(st, FieldLoad):
            obj = frame.get(st.base)
            if not isinstance(obj, Obj):
                raise _Halt(f"field load on non-object at {st.pos}")
            self._assign(frame, mid, st, st.target, obj.fields.get(st.field, 0), prov)
            return None
        if isinstance(st, StaticStore):
            decl = self.h.static_field_of(st.cls, st.field)[0]
            self.statics[(decl, st.field)] = self._operand(st.source, frame)
            self.trace.writes.append(TraceWrite("SFR", (decl, st.field), st.pos, prov))
            return None
        if isinstance(st, StaticLoad):
            decl = self.h.static_field_of(st.cls, st.field)[0]
            self._assign(frame, mid, st, st.target, self.statics.get((decl, st.field), 0), prov)
            return None
        if isinstance(st, ArrayStore):
            arr = frame.get(st.base)
            if not isinstance(arr, Arr):
                raise _Halt(f"array store on non-array at {st.pos}")
            idx = st.index if isinstance(st.index, int) else frame.get(st.index)
            if not isinstance(idx, int):
                raise _Halt(f"non-integer array index at {st.pos}")
            arr.slots[idx] = self._operand(st.source, frame)
            self.trace.writes.append(TraceWrite("AR", (arr.oid, idx), st.pos, prov))
            return None
        if isinstance(st, ArrayLoad):
            arr = frame.get(st.base)
            if not isinstance(arr, Arr):
                raise _Halt(f"array load on non-array at {st.pos}")
            idx = st.index if isinstance(st.index, int) else frame.get(st.index)
            self._assign(frame, mid, st, st.target, arr.slots.get(idx, 0), prov)
            return None
        if isinstance(st, VirtualCall):
            recv = frame.get(st.receiver)
            if not isinstance(recv, Obj):
                raise _Halt(f"virtual call on non-object at {st.pos}")
            target = self.h.resolve_method(recv.cls, st.method, len(st.args), static=False)
            if target is None:
                raise _Halt(f"no method '{st.method}/{len(st.args)}' on {recv.cls} at {st.pos}")
            self.trace.dispatches.append((st.pos, target.id))
            args = [self._operand(a, frame) for a in st.args]
            ret = self._invoke(target, args, recv, prov, depth + 1)
            if st.result is not None:
                self._assign(frame, mid, st, st.result, ret, prov)
            return None
        if isinstance(st, StaticCall):
            target = self.h.resolve_method(st.cls, st.method, len(st.args), static=True)
            if target is None:
                raise _Halt(f"no static method '{st.cls}::{st.method}' at {st.pos}")
            args = [self._operand(a, frame) for a in st.args]
            ret = self._invoke(target, args, None, prov, depth + 1)
            if st.result is not None:
                self._assign(frame, mid, st, st.result, ret, prov)
            return None
        raise OracleError(f"cannot execute {st!r}")


def interpret(p: Program, main: MethodDef, step_limit: int = 10_000) -> Trace:
    """Execute `main` concretely; raises OracleError on reflective code."""
    return _Interp(p, step_limit).run(main)
