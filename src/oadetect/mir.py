"""Core program model: a small class-based IR with merge provenance.

A Program holds classes and interfaces whose method bodies are structured
statement lists. Every statement carries a source position and a provenance
tag saying which side of a merge introduced it (BASE when unchanged). The
frontend builds Programs from source text; tests may build them by hand.
Once validated, a Program is treated as immutable by all analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Union


class MirError(Exception):
    pass


class ValidationError(MirError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"invalid program: {lines}")


class Provenance(Enum):
    BASE = "base"
    LEFT = "left"
    RIGHT = "right"


class Position(NamedTuple):
    file: str
    line: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


UNKNOWN_POS = Position("<builtin>", 0)


@dataclass(frozen=True)
class Const:
    """Literal operand (int or string), distinct from a local name."""

    value: Union[int, str]


# Operands are local names (str) or literals; array indexes are an int
# constant or a local name.
Operand = Union[str, Const]
IndexOperand = Union[int, str]


# ---------------------------------------------------------------------------
# Statements


@dataclass(kw_only=True)
class Stmt:
    pos: Position
    provenance: Provenance = Provenance.BASE


@dataclass(kw_only=True)
class AllocAssign(Stmt):
    """target = new cls(args); runs the matching constructor."""

    target: str
    cls: str
    args: tuple[Operand, ...] = ()


@dataclass(kw_only=True)
class ReflectiveAssign(Stmt):
    """target = mkref type; yields an instance with no allocation site."""

    target: str
    type: str


@dataclass(kw_only=True)
class CopyAssign(Stmt):
    target: str
    source: Operand


@dataclass(kw_only=True)
class FieldStore(Stmt):
    base: str
    field: str
    source: Operand


@dataclass(kw_only=True)
class FieldLoad(Stmt):
    target: str
    base: str
    field: str


@dataclass(kw_only=True)
class StaticStore(Stmt):
    cls: str
    field: str
    source: Operand


@dataclass(kw_only=True)
class StaticLoad(Stmt):
    target: str
    cls: str
    field: str


@dataclass(kw_only=True)
class ArrayAlloc(Stmt):
    target: str
    elem_type: str
    size: int


@dataclass(kw_only=True)
class ArrayStore(Stmt):
    base: str
    index: IndexOperand
    source: Operand


@dataclass(kw_only=True)
class ArrayLoad(Stmt):
    target: str
    base: str
    index: IndexOperand


@dataclass(kw_only=True)
class VirtualCall(Stmt):
    receiver: str
    method: str
    args: tuple[Operand, ...] = ()
    result: Optional[str] = None


@dataclass(kw_only=True)
class StaticCall(Stmt):
    cls: str
    method: str
    args: tuple[Operand, ...] = ()
    result: Optional[str] = None


@dataclass(kw_only=True)
class If(Stmt):
    cond: str
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@dataclass(kw_only=True)
class While(Stmt):
    cond: str
    body: list[Stmt] = field(default_factory=list)


@dataclass(kw_only=True)
class Return(Stmt):
    value: Optional[str] = None


@dataclass(kw_only=True)
class OpaqueOp(Stmt):
    """target = op(operands); stands in for any arithmetic or logic."""

    target: str
    operands: tuple[Operand, ...] = ()


# ---------------------------------------------------------------------------
# Declarations


CTOR_NAME = "<init>"


@dataclass
class FieldDef:
    name: str
    type: str
    static: bool = False
    pos: Position = UNKNOWN_POS


@dataclass
class MethodDef:
    """`id` and `display` are formatted once, on first read: `name`,
    `params` and `declaring_class` must not change after construction."""

    name: str
    params: tuple[str, ...]
    body: list[Stmt]
    declaring_class: str
    kind: str = "method"  # "method" | "constructor"
    static: bool = False
    public: bool = True
    pos: Position = UNKNOWN_POS

    @cached_property
    def id(self) -> str:
        return f"{self.declaring_class}.{self.name}/{len(self.params)}"

    @cached_property
    def display(self) -> str:
        return f"{self.declaring_class}.{self.name}()"

    @property
    def is_constructor(self) -> bool:
        return self.kind == "constructor"


@dataclass
class MethodSig:
    name: str
    params: tuple[str, ...]
    pos: Position = UNKNOWN_POS


@dataclass
class ClassDef:
    name: str
    superclass: Optional[str] = None
    interfaces: tuple[str, ...] = ()
    fields: list[FieldDef] = field(default_factory=list)
    methods: list[MethodDef] = field(default_factory=list)
    constructors: list[MethodDef] = field(default_factory=list)
    pos: Position = UNKNOWN_POS


@dataclass
class InterfaceDef:
    name: str
    extends: Optional[str] = None
    signatures: list[MethodSig] = field(default_factory=list)
    pos: Position = UNKNOWN_POS


@dataclass
class Program:
    classes: list[ClassDef] = field(default_factory=list)
    interfaces: list[InterfaceDef] = field(default_factory=list)
    _hierarchy = None  # not a dataclass field: no annotation

    def hierarchy(self) -> "Hierarchy":
        """The name and hierarchy index, built on first use.

        It is rebuilt when a class or interface has been added (or either
        list replaced) since it was built, so code that builds a Program
        step by step may query it in between.
        """
        h = self._hierarchy
        if (
            h is None
            or h.class_list is not self.classes
            or h.n_classes != len(self.classes)
            or h.iface_list is not self.interfaces
            or h.n_ifaces != len(self.interfaces)
        ):
            h = self._hierarchy = Hierarchy(self)
        return h


@dataclass(frozen=True)
class Diagnostic:
    pos: Position
    message: str

    def __str__(self) -> str:
        return f"{self.pos}: {self.message}"


# ---------------------------------------------------------------------------
# Traversal helpers


def iter_stmts(body: list[Stmt]) -> Iterator[Stmt]:
    """All statements in a body, descending into structured blocks."""
    for st in body:
        yield st
        if isinstance(st, If):
            yield from iter_stmts(st.then_body)
            yield from iter_stmts(st.else_body)
        elif isinstance(st, While):
            yield from iter_stmts(st.body)


def all_methods(p: Program) -> Iterator[MethodDef]:
    """Methods and constructors in declaration order."""
    return _declared_methods(p.classes)


def _declared_methods(classes: list[ClassDef]) -> Iterator[MethodDef]:
    for c in classes:
        yield from sorted(c.constructors + c.methods, key=lambda m: (m.pos.line, m.name))


def find_method(p: Program, ref: str) -> MethodDef:
    """Look up a method by 'Class.name' or 'Class.name/arity'."""
    arity = None
    if "/" in ref:
        ref, _, a = ref.partition("/")
        try:
            arity = int(a)
        except ValueError:
            raise MirError(f"bad arity in method reference '{ref}/{a}', expected Class.method/N") from None
    cls_name, _, name = ref.partition(".")
    cls = p.hierarchy().classes.get(cls_name)
    if cls is None:
        raise MirError(f"unknown class '{cls_name}'")
    matches = [
        m
        for m in cls.methods + cls.constructors
        if m.name == name and (arity is None or len(m.params) == arity)
    ]
    if not matches:
        raise MirError(f"no method '{name}' in class '{cls_name}'")
    if len(matches) > 1:
        raise MirError(f"ambiguous method '{ref}', give an arity as '{ref}/N'")
    return matches[0]


# ---------------------------------------------------------------------------
# Hierarchy queries


class Hierarchy:
    """Name lookups and memoised hierarchy answers for one Program.

    This is the one place that answers which class or interface a name
    declares, which types a type extends, and which field, method or
    constructor a class declares or inherits; every analysis asks it
    directly. `Program.hierarchy()` builds it and keeps it while the class and
    interface lists are unchanged in identity and length. The first
    declaration of a name wins, as a linear scan would find it. Supertype
    closures, implementer sets and least common supertypes are computed
    once per type (or pair) and shared as frozensets; unknown types raise
    `MirError` every time and are never cached. Member lookups (fields,
    inherited methods, `methods_by_id`) are memoised too, so a class's
    members must be complete before its Program is first queried.
    """

    def __init__(self, p: Program):
        # What `Program.hierarchy()` compares to decide whether to rebuild.
        self.class_list = p.classes
        self.iface_list = p.interfaces
        self.n_classes = len(p.classes)
        self.n_ifaces = len(p.interfaces)
        self.classes: dict[str, ClassDef] = {}
        for c in p.classes:
            self.classes.setdefault(c.name, c)
        self.interfaces: dict[str, InterfaceDef] = {}
        for i in p.interfaces:
            self.interfaces.setdefault(i.name, i)
        self._supers: dict[str, frozenset[str]] = {}
        self._implementers: Optional[dict[str, frozenset[str]]] = None
        self._lca: dict[tuple[str, str], Optional[str]] = {}
        self._methods: Optional[Mapping[str, MethodDef]] = None
        self._lookups: dict[tuple, object] = {}
        self._only_fields: Optional[dict[str, tuple[str, FieldDef]]] = None

    def declares(self, name: str) -> bool:
        return name in self.classes or name in self.interfaces

    def declared_supers(self, name: str) -> list[str]:
        c = self.classes.get(name)
        if c is not None:
            supers = []
            if c.superclass:
                supers.append(c.superclass)
            supers.extend(c.interfaces)
            return supers
        i = self.interfaces.get(name)
        if i is not None:
            return [i.extends] if i.extends else []
        raise MirError(f"unknown type '{name}'")

    def supertypes(self, name: str) -> frozenset[str]:
        got = self._supers.get(name)
        if got is None:
            seen: set[str] = set()
            work = [name]
            while work:
                t = work.pop()
                if t in seen:
                    continue
                seen.add(t)
                work.extend(s for s in self.declared_supers(t) if self.declares(s))
            got = self._supers[name] = frozenset(seen)
        return got

    def implementers(self, t: str) -> frozenset[str]:
        if not self.declares(t):
            raise MirError(f"unknown type '{t}'")
        if self._implementers is None:
            found: dict[str, set[str]] = {}
            for c in self.class_list:
                for s in self.supertypes(c.name):
                    found.setdefault(s, set()).add(c.name)
            self._implementers = {s: frozenset(names) for s, names in found.items()}
        return self._implementers.get(t, frozenset())

    def lca(self, a: Optional[str], b: Optional[str]) -> Optional[str]:
        """Most specific common supertype of two types, if unique: the type
        itself for equal names, None when either is None or undeclared."""
        if a is None or b is None:
            return None
        if a == b:
            return a
        key = (a, b)
        if key in self._lca:
            return self._lca[key]
        got = None
        if self.declares(a) and self.declares(b):
            common = self.supertypes(a) & self.supertypes(b)
            minimal = [
                t
                for t in common
                if not any(s != t and t in self.supertypes(s) for s in common)
            ]
            if len(minimal) == 1:
                got = minimal[0]
        self._lca[key] = got
        return got

    def chain(self, cls_name: Optional[str]) -> Iterator[ClassDef]:
        """The declared class `cls_name`, then its superclasses, nearest first."""
        c = self.classes.get(cls_name)
        while c is not None:
            yield c
            c = self.classes.get(c.superclass)

    def resolve_field(self, cls_name: Optional[str], fname: str, static: bool):
        """The first field `fname` of that staticness on the class chain of
        `cls_name`, as (declaring class, def); None when none declares it."""
        key = ("field", cls_name, fname, static)
        if key not in self._lookups:
            self._lookups[key] = next(
                (
                    (c.name, f)
                    for c in self.chain(cls_name)
                    for f in c.fields
                    if f.name == fname and f.static == static
                ),
                None,
            )
        return self._lookups[key]

    def field_of(self, cls_name: Optional[str], fname: str) -> Optional[tuple[str, str]]:
        """(declaring class, type) of instance field `fname` through a base
        of type `cls_name`.

        The class chain of `cls_name` is searched first; failing that (an
        untyped base, or one whose chain lacks the field), the only class
        that declares an instance field `fname` answers. None when neither
        does.
        """
        key = ("field_of", cls_name, fname)
        if key not in self._lookups:
            hit = self.resolve_field(cls_name, fname, static=False) or self._only_field(fname)
            self._lookups[key] = (hit[0], hit[1].type) if hit is not None else None
        return self._lookups[key]

    def static_field_of(self, cls_name: str, fname: str) -> tuple[str, Optional[str]]:
        """(declaring class, type) of `cls_name::fname`; a field no class on
        the chain declares belongs to `cls_name` itself, with an unknown type."""
        hit = self.resolve_field(cls_name, fname, static=True)
        return (hit[0], hit[1].type) if hit is not None else (cls_name, None)

    def _only_field(self, fname: str) -> Optional[tuple[str, FieldDef]]:
        """The instance field `fname`, if exactly one class declares one."""
        if self._only_fields is None:
            found: dict[str, list[tuple[str, FieldDef]]] = {}
            for c in self.class_list:
                for f in c.fields:
                    if not f.static:
                        found.setdefault(f.name, []).append((c.name, f))
            self._only_fields = {n: hits[0] for n, hits in found.items() if len(hits) == 1}
        return self._only_fields.get(fname)

    def resolve_method(self, cls_name: str, mname: str, arity: int, static: bool) -> Optional[MethodDef]:
        """The definition of (mname, arity) that `cls_name` declares or
        inherits: dynamic dispatch for instance methods, and the static
        method a `Class::name` call reaches for static ones."""
        key = ("method", cls_name, mname, arity, static)
        if key not in self._lookups:
            self._lookups[key] = next(
                (
                    m
                    for c in self.chain(cls_name)
                    for m in c.methods
                    if m.name == mname and len(m.params) == arity and m.static == static
                ),
                None,
            )
        return self._lookups[key]

    def constructor_of(self, cls_name: str, arity: int) -> Optional[MethodDef]:
        """The first declared constructor of `cls_name` taking `arity` arguments."""
        c = self.classes.get(cls_name)
        if c is None:
            return None
        for ctor in c.constructors:
            if len(ctor.params) == arity:
                return ctor
        return None

    def methods_by_id(self) -> Mapping[str, MethodDef]:
        """Methods and constructors by `MethodDef.id`, as a read-only view."""
        if self._methods is None:
            self._methods = MappingProxyType({m.id: m for m in _declared_methods(self.class_list)})
        return self._methods


def supertypes_of(name: str, p: Program) -> frozenset[str]:
    """Reflexive transitive supertypes (classes and interfaces)."""
    return p.hierarchy().supertypes(name)


def subtype_of(sub: str, sup: str, p: Program) -> bool:
    """True iff sub == sup or sub transitively extends/implements sup."""
    h = p.hierarchy()
    if not h.declares(sub):
        raise MirError(f"unknown type '{sub}'")
    if not h.declares(sup):
        raise MirError(f"unknown type '{sup}'")
    return sup in h.supertypes(sub)


def implementers_of(t: str, p: Program) -> frozenset[str]:
    """All concrete classes that are subtypes of t (interfaces excluded)."""
    return p.hierarchy().implementers(t)


# ---------------------------------------------------------------------------
# Validation


def _reaches_cycle(h: Hierarchy, start: str, colors: dict[str, int]) -> bool:
    """Whether the colored depth-first search from `start` over declared
    supertypes (1 on the path, 2 done; unknown names skipped) reaches its own
    path. On a cycle it marks the whole path done and stops. It is iterative,
    so a deep chain needs no deep Python stack."""
    colors[start] = 1
    path = [(start, iter(h.declared_supers(start)))]
    while path:
        name, supers = path[-1]
        for s in supers:
            state = colors.get(s, 0) if h.declares(s) else 2
            if state == 1:
                colors.update((n, 2) for n, _ in path)
                return True
            if state == 0:
                colors[s] = 1
                path.append((s, iter(h.declared_supers(s))))
                break
        else:
            colors[name] = 2
            path.pop()
    return False


def validate_program(p: Program) -> list[Diagnostic]:
    """Structural checks; an empty result means the program is well formed."""
    diags: list[Diagnostic] = []
    h = p.hierarchy()

    seen_types: dict[str, Position] = {}
    for decl in list(p.classes) + list(p.interfaces):
        if decl.name in seen_types:
            diags.append(Diagnostic(decl.pos, f"duplicate type name '{decl.name}'"))
        seen_types[decl.name] = decl.pos

    for c in p.classes:
        if c.superclass is not None:
            if not h.declares(c.superclass):
                diags.append(Diagnostic(c.pos, f"unknown supertype '{c.superclass}'"))
            elif c.superclass not in h.classes:
                diags.append(
                    Diagnostic(c.pos, f"class '{c.name}' extends interface '{c.superclass}'")
                )
        for i in c.interfaces:
            if not h.declares(i):
                diags.append(Diagnostic(c.pos, f"unknown supertype '{i}'"))
            elif i not in h.interfaces:
                diags.append(Diagnostic(c.pos, f"class '{c.name}' implements class '{i}'"))
    for i in p.interfaces:
        if i.extends is not None:
            if not h.declares(i.extends):
                diags.append(Diagnostic(i.pos, f"unknown supertype '{i.extends}'"))
            elif i.extends not in h.interfaces:
                diags.append(
                    Diagnostic(i.pos, f"interface '{i.name}' extends class '{i.extends}'")
                )

    colors: dict[str, int] = {}
    acyclic = True
    for decl in list(p.classes) + list(p.interfaces):
        if decl.name not in colors and _reaches_cycle(h, decl.name, colors):
            diags.append(Diagnostic(decl.pos, f"inheritance cycle involving '{decl.name}'"))
            acyclic = False

    for c in p.classes:
        fnames: set[str] = set()
        for f in c.fields:
            if f.name in fnames:
                diags.append(Diagnostic(f.pos, f"duplicate field '{f.name}' in '{c.name}'"))
            fnames.add(f.name)
        sigs: set[tuple[str, int]] = set()
        for m in c.methods + c.constructors:
            key = (m.name, len(m.params))
            if key in sigs:
                diags.append(
                    Diagnostic(m.pos, f"duplicate method '{m.name}/{len(m.params)}' in '{c.name}'")
                )
            sigs.add(key)
            if m.declaring_class != c.name:
                diags.append(
                    Diagnostic(m.pos, f"method '{m.name}' declared in '{c.name}' but linked to '{m.declaring_class}'")
                )
            if len(set(m.params)) != len(m.params):
                diags.append(Diagnostic(m.pos, f"duplicate parameter in '{m.id}'"))

    positions: dict[Position, int] = {}
    for m in all_methods(p):
        for st in iter_stmts(m.body):
            positions[st.pos] = positions.get(st.pos, 0) + 1
            # Method lookup walks the superclass chain, which a cycle never ends.
            if acyclic and isinstance(st, StaticCall) and h.resolve_method(st.cls, st.method, len(st.args), static=True) is None:
                diags.append(Diagnostic(st.pos, f"static call '{st.cls}::{st.method}/{len(st.args)}' names no method"))
    for pos, n in positions.items():
        if n > 1:
            diags.append(Diagnostic(pos, f"{n} statements share position {pos}"))

    return diags
