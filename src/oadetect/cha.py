"""Class-hierarchy call graphs and static receiver typing.

Locals carry no declared types, so receiver types are inferred from the
statements that feed them: allocations, reflective instantiation, field and
array loads (via declared field types), copies, and parameter bindings seen
at call sites. Branches join with the least common supertype and unknown
types widen to "any class providing the method", which keeps resolution
conservative: everything a run can dispatch to is in the graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .mir import (
    AllocAssign,
    ArrayAlloc,
    ArrayLoad,
    CopyAssign,
    Const,
    FieldLoad,
    If,
    MethodDef,
    MirError,
    OpaqueOp,
    Position,
    Program,
    ReflectiveAssign,
    StaticCall,
    StaticLoad,
    Stmt,
    VirtualCall,
    While,
    constructor_of,
    field_of,
    implementers_of,
    lca_type,
    methods_by_id,
    resolve_method,
    resolve_static_method,
    static_field_of,
)


class ResolutionError(MirError):
    pass


class CallEdge(NamedTuple):
    site: Position
    caller: str
    target: str


@dataclass
class CallGraph:
    nodes: set[str] = field(default_factory=set)
    edges: set[CallEdge] = field(default_factory=set)
    roots: set[str] = field(default_factory=set)
    tag: str = "cha"  # "cha" | "pts" | "hybrid"

    def _by_site(self) -> dict:
        # Built on first query; graphs are immutable once constructed.
        cached = self.__dict__.get("_site_index")
        if cached is None:
            cached = {}
            for e in self.edges:
                cached.setdefault(e.site, []).append(e.target)
            for targets in cached.values():
                targets.sort()
            self.__dict__["_site_index"] = cached
        return cached

    def targets_at(self, pos: Position) -> list[str]:
        return list(self._by_site().get(pos, ()))

    def has_site(self, pos: Position) -> bool:
        return pos in self._by_site()

    def dump(self) -> str:
        lines = [
            f"{e.caller}\t{e.site.file}:{e.site.line}\t{e.target}"
            for e in sorted(self.edges)
        ]
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Static type environments

# A type env maps local name -> type name, "int", "String", "T[]", or None
# for unknown. Missing keys mean unknown too.

TypeEnv = dict


def _join_type(a: Optional[str], b: Optional[str], p: Program) -> Optional[str]:
    if a == b:
        return a
    if a is None or b is None:
        return None
    if p.declares_type(a) and p.declares_type(b):
        return lca_type(a, b, p)
    return None


def join_envs(a: TypeEnv, b: TypeEnv, p: Program) -> TypeEnv:
    out: TypeEnv = {}
    for key in set(a) | set(b):
        out[key] = _join_type(a.get(key), b.get(key), p)
    return out


def _operand_type(o, env: TypeEnv, p: Program) -> Optional[str]:
    if isinstance(o, Const):
        return "int" if isinstance(o.value, int) else "String"
    return env.get(o)


def transfer_type(st: Stmt, env: TypeEnv, p: Program) -> TypeEnv:
    """Env after one simple statement (blocks are not entered).

    Returns the input env unchanged when the statement binds no local; the
    result must be treated as shared and never mutated in place.
    """
    if isinstance(st, AllocAssign):
        binding = (st.target, st.cls)
    elif isinstance(st, ReflectiveAssign):
        binding = (st.target, st.type)
    elif isinstance(st, ArrayAlloc):
        binding = (st.target, st.elem_type + "[]")
    elif isinstance(st, CopyAssign):
        binding = (st.target, _operand_type(st.source, env, p))
    elif isinstance(st, FieldLoad):
        hit = field_of(p, env.get(st.base), st.field)
        binding = (st.target, hit[1] if hit is not None else None)
    elif isinstance(st, StaticLoad):
        binding = (st.target, static_field_of(p, st.cls, st.field)[1])
    elif isinstance(st, ArrayLoad):
        base = env.get(st.base)
        binding = (st.target, base[:-2] if base and base.endswith("[]") else None)
    elif isinstance(st, (VirtualCall, StaticCall)):
        if st.result is None:
            return env
        binding = (st.result, None)  # no declared return types
    elif isinstance(st, OpaqueOp):
        binding = (st.target, "int")
    else:
        return env
    name, value = binding
    if env.get(name, "\0absent") == value:
        return env
    out = dict(env)
    out[name] = value
    return out


def initial_env(method: MethodDef, param_types=None) -> TypeEnv:
    env: TypeEnv = {}
    for i, name in enumerate(method.params):
        env[name] = param_types[i] if param_types else None
    if not method.static:
        env["this"] = method.declaring_class
    return env


# ---------------------------------------------------------------------------
# Resolution


def _resolve_virtual(
    p: Program, receiver_type: Optional[str], name: str, arity: int, pos: Position
) -> list[MethodDef]:
    if receiver_type is not None and p.declares_type(receiver_type):
        defs = {}
        for cls in implementers_of(receiver_type, p):
            m = resolve_method(p, cls, name, arity)
            if m is not None:
                defs[m.id] = m
        if defs:
            return [defs[k] for k in sorted(defs)]
    # Unknown or unhelpful receiver type: any class providing the method.
    defs = {}
    for c in p.classes:
        m = resolve_method(p, c.name, name, arity)
        if m is not None:
            defs[m.id] = m
    if not defs:
        raise ResolutionError(f"cannot resolve call to '{name}/{arity}' at {pos}")
    return [defs[k] for k in sorted(defs)]


def cha_resolve(site: VirtualCall, p: Program, receiver_type: Optional[str] = None) -> set[str]:
    """Possible targets of a virtual call under class-hierarchy resolution."""
    defs = _resolve_virtual(p, receiver_type, site.method, len(site.args), site.pos)
    return {m.id for m in defs}


def resolve_static(p: Program, st: StaticCall) -> MethodDef:
    m = resolve_static_method(p, st.cls, st.method, len(st.args))
    if m is None:
        raise ResolutionError(
            f"cannot resolve static call '{st.cls}::{st.method}/{len(st.args)}' at {st.pos}"
        )
    return m


# ---------------------------------------------------------------------------
# Graph construction


class _SiteInfo:
    __slots__ = ("stmt", "recv_type", "arg_types")

    def __init__(self, stmt):
        self.stmt = stmt
        self.recv_type: Optional[str] = "\0unset"
        self.arg_types: Optional[list] = None


def _scan_sites(body, env: TypeEnv, sites: dict, p: Program) -> TypeEnv:
    for st in body:
        if isinstance(st, If):
            e1 = _scan_sites(st.then_body, dict(env), sites, p)
            e2 = _scan_sites(st.else_body, dict(env), sites, p)
            env = join_envs(e1, e2, p)
            continue
        if isinstance(st, While):
            e = dict(env)
            for _ in range(4):
                after = _scan_sites(st.body, dict(e), sites, p)
                joined = join_envs(e, after, p)
                if joined == e:
                    break
                e = joined
            env = e
            continue
        if isinstance(st, (VirtualCall, StaticCall, AllocAssign)):
            info = sites.get(st.pos)
            if info is None:
                info = _SiteInfo(st)
                sites[st.pos] = info
            recv = env.get(st.receiver) if isinstance(st, VirtualCall) else None
            if info.recv_type == "\0unset":
                info.recv_type = recv
            else:
                info.recv_type = _join_type(info.recv_type, recv, p)
            arg_types = [_operand_type(a, env, p) for a in st.args]
            if info.arg_types is None:
                info.arg_types = arg_types
            else:
                info.arg_types = [
                    _join_type(x, y, p) for x, y in zip(info.arg_types, arg_types)
                ]
        env = transfer_type(st, env, p)
    return env


def method_call_sites(method: MethodDef, p: Program, param_types=None) -> list[_SiteInfo]:
    """Call and allocation sites with joined receiver/argument types."""
    sites: dict = {}
    prev = None
    for _ in range(8):
        env = initial_env(method, param_types)
        _scan_sites(method.body, env, sites, p)
        snapshot = {pos: (s.recv_type, tuple(s.arg_types or ())) for pos, s in sites.items()}
        if snapshot == prev:
            break
        prev = snapshot
    return [sites[pos] for pos in sorted(sites)]


def build_cha_graph(p: Program, root: MethodDef) -> CallGraph:
    """Closure of class-hierarchy resolution over calls reachable from root."""
    graph = CallGraph(tag="cha", roots={root.id})
    graph.nodes.add(root.id)
    param_types: dict[str, list] = {root.id: [None] * len(root.params)}
    by_id = methods_by_id(p)
    queue = deque([root.id])
    queued = {root.id}

    def bind(target: MethodDef, arg_types) -> bool:
        """Join argument types into the target's params; True if widened."""
        known = param_types.get(target.id)
        incoming = list(arg_types) if arg_types else [None] * len(target.params)
        if known is None:
            param_types[target.id] = incoming
            return True
        widened = [_join_type(a, b, p) for a, b in zip(known, incoming)]
        if widened != known:
            param_types[target.id] = widened
            return True
        return False

    while queue:
        mid = queue.popleft()
        queued.discard(mid)
        method = by_id[mid]
        for info in method_call_sites(method, p, param_types.get(mid)):
            st = info.stmt
            if isinstance(st, VirtualCall):
                targets = _resolve_virtual(p, info.recv_type, st.method, len(st.args), st.pos)
            elif isinstance(st, StaticCall):
                targets = [resolve_static(p, st)]
            else:
                ctor = constructor_of(p, st.cls, len(st.args))
                targets = [ctor] if ctor is not None else []
            for tgt in targets:
                graph.edges.add(CallEdge(st.pos, mid, tgt.id))
                fresh = tgt.id not in graph.nodes
                graph.nodes.add(tgt.id)
                if bind(tgt, info.arg_types) or fresh:
                    if tgt.id not in queued:
                        queue.append(tgt.id)
                        queued.add(tgt.id)
    return graph
