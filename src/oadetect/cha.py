"""Class-hierarchy call graphs and static receiver typing.

Locals carry no declared types, so receiver types are inferred from the
statements that feed them: allocations, reflective instantiation, field and
array loads (via declared field types), copies, and parameter bindings seen
at call sites. Branches join with the least common supertype and unknown
types widen to "any class providing the method", which keeps resolution
conservative: everything a run can dispatch to is in the graph. A virtual
call whose method no class provides (say, on an interface no class
implements) has no hierarchy targets and adds no edge; a static call that
names no method is a `ResolutionError`, which only a program that skipped
`validate_program` (it reports each such call) can reach.

`build_cha_graph` is a worklist over methods. Each visit types the method's
body in a single walk from its parameter types (a `while` body is walked to
its fixpoint), and a method is queued again only when the argument types
reaching it widen.
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
    Hierarchy,
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
# for unknown. Missing keys mean unknown too. Two types join to their least
# common supertype, `Hierarchy.lca`: equal types stay, anything else with
# no unique declared common supertype becomes unknown.

TypeEnv = dict


def join_envs(a: TypeEnv, b: TypeEnv, h: Hierarchy) -> TypeEnv:
    out: TypeEnv = {}
    for key in set(a) | set(b):
        out[key] = h.lca(a.get(key), b.get(key))
    return out


def operand_type(o, env: TypeEnv) -> Optional[str]:
    """The static type of an operand: a literal's, or a local's in `env`."""
    if isinstance(o, Const):
        return "int" if isinstance(o.value, int) else "String"
    return env.get(o)


# How a type rule finds the type it binds.
CONST = "const"  # `arg` is the type
OPERAND = "operand"  # the type of operand `arg`, a literal or a local
FIELD = "field"  # the declared type of field `arg[1]` through local `arg[0]`
ELEM = "elem"  # the element type of array local `arg`


def type_rule(st: Stmt, h: Hierarchy) -> Optional[tuple]:
    """The binding one simple statement makes, as a `(target, how, arg)`
    rule: local `target` gets the type `how` finds from `arg`. None when the
    statement binds no local.

    Blocks are not entered. This is the one transfer rule: `transfer_type`
    applies it here and the engine applies it to its lowered statements.
    (Rules are plain tuples because CHA builds one per statement visit.)
    """
    if isinstance(st, AllocAssign):
        return (st.target, CONST, st.cls)
    if isinstance(st, ReflectiveAssign):
        return (st.target, CONST, st.type)
    if isinstance(st, ArrayAlloc):
        return (st.target, CONST, st.elem_type + "[]")
    if isinstance(st, CopyAssign):
        return (st.target, OPERAND, st.source)
    if isinstance(st, FieldLoad):
        return (st.target, FIELD, (st.base, st.field))
    if isinstance(st, StaticLoad):
        return (st.target, CONST, h.static_field_of(st.cls, st.field)[1])
    if isinstance(st, ArrayLoad):
        return (st.target, ELEM, st.base)
    if isinstance(st, (VirtualCall, StaticCall)):
        # No declared return types.
        return (st.result, CONST, None) if st.result is not None else None
    if isinstance(st, OpaqueOp):
        return (st.target, CONST, "int")
    return None


def apply_rule(rule: tuple, env: TypeEnv, h: Hierarchy) -> TypeEnv:
    """Env after `rule`'s binding.

    Returns the input env unchanged when the binding changes nothing; the
    result must be treated as shared and never mutated in place.
    """
    target, how, arg = rule
    if how == CONST:
        value = arg
    elif how == OPERAND:
        value = operand_type(arg, env)
    elif how == FIELD:
        hit = h.field_of(env.get(arg[0]), arg[1])
        value = hit[1] if hit is not None else None
    else:
        base = env.get(arg)
        value = base[:-2] if base and base.endswith("[]") else None
    if env.get(target, "\0absent") == value:
        return env
    out = dict(env)
    out[target] = value
    return out


def transfer_type(st: Stmt, env: TypeEnv, h: Hierarchy) -> TypeEnv:
    """Env after one simple statement (blocks are not entered); see `apply_rule`."""
    rule = type_rule(st, h)
    return env if rule is None else apply_rule(rule, env, h)


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
    h: Hierarchy, receiver_type: Optional[str], name: str, arity: int
) -> list[MethodDef]:
    if receiver_type is not None and h.declares(receiver_type):
        defs = {}
        for cls in h.implementers(receiver_type):
            m = h.resolve_method(cls, name, arity, static=False)
            if m is not None:
                defs[m.id] = m
        if defs:
            return [defs[k] for k in sorted(defs)]
    # Unknown or unhelpful receiver type: any class providing the method.
    defs = {}
    for c in h.class_list:
        m = h.resolve_method(c.name, name, arity, static=False)
        if m is not None:
            defs[m.id] = m
    return [defs[k] for k in sorted(defs)]


def cha_resolve(site: VirtualCall, p: Program, receiver_type: Optional[str] = None) -> set[str]:
    """Possible targets of a virtual call under class-hierarchy resolution;
    none when no class provides the method."""
    defs = _resolve_virtual(p.hierarchy(), receiver_type, site.method, len(site.args))
    return {m.id for m in defs}


def resolve_static(h: Hierarchy, st: StaticCall) -> MethodDef:
    m = h.resolve_method(st.cls, st.method, len(st.args), static=True)
    if m is None:
        raise ResolutionError(
            f"cannot resolve static call '{st.cls}::{st.method}/{len(st.args)}' at {st.pos}"
        )
    return m


# ---------------------------------------------------------------------------
# Graph construction


def _scan_sites(body, env: TypeEnv, sites: dict, h: Hierarchy) -> TypeEnv:
    """Walk `body` from `env`, joining the receiver and argument types of each
    call or allocation site into `sites[pos] = [stmt, receiver type, arg
    types]`; returns the env after the body.

    One walk per method visit suffices: envs never read `sites`, and joining
    a type a site already holds changes nothing.
    """
    for st in body:
        if isinstance(st, If):
            e1 = _scan_sites(st.then_body, dict(env), sites, h)
            e2 = _scan_sites(st.else_body, dict(env), sites, h)
            env = join_envs(e1, e2, h)
            continue
        if isinstance(st, While):
            # Iterate to the fixpoint. This ends: a join only widens each
            # local, through `Hierarchy.lca`, to a supertype or to None.
            e = dict(env)
            while True:
                after = _scan_sites(st.body, dict(e), sites, h)
                joined = join_envs(e, after, h)
                if joined == e:
                    break
                e = joined
            env = e
            continue
        if isinstance(st, (VirtualCall, StaticCall, AllocAssign)):
            recv = env.get(st.receiver) if isinstance(st, VirtualCall) else None
            arg_types = [operand_type(a, env) for a in st.args]
            seen = sites.get(st.pos)
            if seen is None:
                sites[st.pos] = [st, recv, arg_types]
            else:
                seen[1] = h.lca(seen[1], recv)
                seen[2] = [h.lca(x, y) for x, y in zip(seen[2], arg_types)]
        env = transfer_type(st, env, h)
    return env


def build_cha_graph(p: Program, root: MethodDef) -> CallGraph:
    """Closure of class-hierarchy resolution over calls reachable from root."""
    h = p.hierarchy()
    graph = CallGraph(roots={root.id})
    graph.nodes.add(root.id)
    param_types: dict[str, list] = {root.id: [None] * len(root.params)}
    by_id = h.methods_by_id()
    queue = deque([root.id])
    queued = {root.id}

    def bind(target: MethodDef, arg_types) -> bool:
        """Join argument types into the params of `target`; True if widened."""
        known = param_types.get(target.id)
        incoming = list(arg_types) if arg_types else [None] * len(target.params)
        if known is None:
            param_types[target.id] = incoming
            return True
        widened = [h.lca(a, b) for a, b in zip(known, incoming)]
        if widened != known:
            param_types[target.id] = widened
            return True
        return False

    while queue:
        mid = queue.popleft()
        queued.discard(mid)
        method = by_id[mid]
        sites: dict = {}
        _scan_sites(method.body, initial_env(method, param_types.get(mid)), sites, h)
        for pos in sorted(sites):
            st, recv_type, arg_types = sites[pos]
            if isinstance(st, VirtualCall):
                targets = _resolve_virtual(h, recv_type, st.method, len(st.args))
            elif isinstance(st, StaticCall):
                targets = [resolve_static(h, st)]
            else:
                ctor = h.constructor_of(st.cls, len(st.args))
                targets = [ctor] if ctor is not None else []
            for tgt in targets:
                graph.edges.add(CallEdge(st.pos, mid, tgt.id))
                fresh = tgt.id not in graph.nodes
                graph.nodes.add(tgt.id)
                if bind(tgt, arg_types) or fresh:
                    if tgt.id not in queued:
                        queue.append(tgt.id)
                        queued.add(tgt.id)
    return graph
