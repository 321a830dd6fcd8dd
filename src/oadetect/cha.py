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
reaching it widen. A virtual call's targets come from
`Hierarchy.dispatch_targets`, which resolves each (receiver type, name,
arity) once per program into one memoised tuple. A site keeps that tuple
whole, and becomes a union of ids only when a revisit brings another
answer. A visit joins argument types only into targets that take
parameters, and skips whole a tuple whose targets are all nodes without
parameters, since it has nothing left to add.

`CallGraph` is kept per site: each call site's caller and sorted target ids,
which `targets_at` and `has_site` read. Equal target id tuples are one
object, so every site with one dispatch answer shares it, and the engine
resolves each distinct tuple once. Its `edges`, one `CallEdge` per site and
target, are derived on first read; the analyses never read them.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Mapping, NamedTuple, Optional

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
    Record,
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


class CallGraph(Record):
    """A call graph kept per call site.

    `sites` maps each call or allocation site that reaches a method to its
    caller and its target ids, sorted; a site without targets is absent.
    `build_cha_graph` makes equal id tuples one object.
    `targets_at` and `has_site` read it directly. A site has one caller,
    since `validate_program` rejects statements that share a position.
    `edges`, one `CallEdge` per site and target, is derived on first read.
    The fields are set once: assigning or deleting one raises AttributeError.
    """

    # No __slots__: `cached_property` keeps `edges` in the instance dict.
    _fields = ("roots", "nodes", "sites")

    def __init__(self, roots: frozenset[str], nodes: frozenset[str],
                 sites: Mapping[Position, tuple[str, tuple[str, ...]]]):
        self.__dict__.update(roots=roots, nodes=nodes, sites=sites)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}' of CallGraph")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}' of CallGraph")

    @cached_property
    def edges(self) -> frozenset[CallEdge]:
        return frozenset(
            CallEdge(pos, caller, t) for pos, (caller, targets) in self.sites.items() for t in targets
        )

    def targets_at(self, pos: Position) -> list[str]:
        hit = self.sites.get(pos)
        return list(hit[1]) if hit is not None else []

    def has_site(self, pos: Position) -> bool:
        return pos in self.sites

    def dump(self) -> str:
        lines = [
            f"{caller}\t{pos.file}:{pos.line}\t{t}"
            for pos, (caller, targets) in sorted(self.sites.items())
            for t in targets
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _add_targets(by_site: dict, pos: Position, caller: str, ids) -> None:
    """Union target ids into `by_site[pos] = (caller, ids)`."""
    hit = by_site.get(pos)
    if hit is None:
        by_site[pos] = (caller, set(ids))
    elif hit[0] != caller:
        raise MirError(f"statements share position {pos}")
    else:
        hit[1].update(ids)


def _sorted_sites(by_site: dict) -> dict[Position, tuple[str, tuple[str, ...]]]:
    return {pos: (caller, tuple(sorted(ids))) for pos, (caller, ids) in by_site.items()}


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

    Blocks are not entered. This is the one transfer rule: `_scan_sites`
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


def initial_env(method: MethodDef, param_types=None) -> TypeEnv:
    env: TypeEnv = {}
    for i, name in enumerate(method.params):
        env[name] = param_types[i] if param_types else None
    if not method.static:
        env["this"] = method.declaring_class
    return env


# ---------------------------------------------------------------------------
# Resolution


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
        rule = type_rule(st, h)
        if rule is not None:
            env = apply_rule(rule, env, h)
    return env


def _widen(param_types: dict, mid: str, arg_types, h: Hierarchy) -> bool:
    """Join `arg_types` into the parameter types of `mid`; True if they widened."""
    known = param_types[mid]
    widened = [h.lca(a, b) for a, b in zip(known, arg_types)]
    if widened == known:
        return False
    param_types[mid] = widened
    return True


def build_cha_graph(p: Program, root: MethodDef) -> CallGraph:
    """Closure of class-hierarchy resolution over calls reachable from root.

    A site keeps the target tuple it first got, which for a virtual call is
    the hierarchy's memoised `dispatch_targets` answer, and becomes a union
    of ids only when a revisit brings another. A tuple whose targets are
    all nodes without parameters has nothing left to do, so a visit skips
    it whole. Only unioned sites are sorted; the others take their tuple's
    ids, and equal id tuples are one object in `CallGraph.sites`.
    """
    h = p.hierarchy()
    by_id = h.methods_by_id()
    nodes = {root.id}
    # A method without parameters types alike on every visit, so it is
    # queued only when first reached and keeps no entry here.
    param_types: dict[str, list] = {root.id: [None] * len(root.params)}
    # Per site: [caller, its target tuple, or the set of ids once unioned].
    by_site: dict[Position, list] = {}
    # The target tuples skipped whole, by id (holding each keeps its id unique).
    settled: dict[int, tuple] = {}
    queue = deque([root.id])
    queued = {root.id}

    while queue:
        mid = queue.popleft()
        queued.discard(mid)
        method = by_id[mid]
        sites: dict = {}
        _scan_sites(method.body, initial_env(method, param_types.get(mid)), sites, h)
        for pos in sorted(sites):
            st, recv_type, arg_types = sites[pos]
            if isinstance(st, VirtualCall):
                targets = h.dispatch_targets(recv_type, st.method, len(st.args))
            elif isinstance(st, StaticCall):
                targets = (resolve_static(h, st),)
            else:
                ctor = h.constructor_of(st.cls, len(st.args))
                targets = (ctor,) if ctor is not None else ()
            if not targets:
                continue
            hit = by_site.get(pos)
            if hit is None:
                by_site[pos] = [mid, targets]
            elif hit[0] != mid:
                raise MirError(f"statements share position {pos}")
            elif hit[1] is not targets:
                held = hit[1]
                if type(held) is not set:
                    held = hit[1] = {t.id for t in held}
                held.update(t.id for t in targets)
            if id(targets) in settled:
                continue
            takes = False  # whether a target takes parameters
            for tgt in targets:
                tid = tgt.id
                if tgt.params:
                    takes = True
                    if tid not in nodes:
                        nodes.add(tid)
                        param_types[tid] = list(arg_types)
                    elif not _widen(param_types, tid, arg_types, h):
                        continue
                elif tid in nodes:
                    continue
                else:
                    nodes.add(tid)
                if tid not in queued:
                    queue.append(tid)
                    queued.add(tid)
            if not takes:
                settled[id(targets)] = targets
    ids_of: dict[int, tuple[str, ...]] = {}
    shared: dict[tuple[str, ...], tuple[str, ...]] = {}
    out = {}
    for pos, (caller, held) in by_site.items():
        if type(held) is set:
            ids = tuple(sorted(held))
        else:
            ids = ids_of.get(id(held))
            if ids is None:
                ids = ids_of[id(held)] = tuple(t.id for t in held)
        out[pos] = (caller, shared.setdefault(ids, ids))
    return CallGraph(frozenset({root.id}), frozenset(nodes), out)
