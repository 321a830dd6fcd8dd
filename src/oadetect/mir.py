"""Core program model: a small class-based IR with merge provenance.

A Program holds classes and interfaces whose method bodies are structured
statement lists. Every statement carries a source position and a provenance
tag saying which side of a merge introduced it (BASE when unchanged). The
frontend builds Programs from source text; tests may build them by hand.
Once validated, a Program is treated as immutable by all analyses.
"""

from __future__ import annotations

from enum import Enum
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


class Const(NamedTuple):
    """Literal operand (int or string), distinct from a local name."""

    value: Union[int, str]


# Operands are local names (str) or literals; array indexes are an int
# constant or a local name.
Operand = Union[str, Const]
IndexOperand = Union[int, str]


# ---------------------------------------------------------------------------
# Records
#
# A record is a NamedTuple (here `Position`, `Const`, `Diagnostic`,
# `FieldDef` and `MethodSig`) unless code reassigns or builds up one of its
# fields, validates in its constructor, or caches a derived field. Such a
# record is a plain `Record` class that writes out its `__init__` and names
# its fields, in order, in `_fields`. Of those, only `cha.CallGraph`
# refuses assignment. At import, a NamedTuple compiles only its one-line
# `__new__`, and a `Record` class nothing.


class Record:
    """Equality and repr over the fields named in `_fields`, for a record
    that cannot be a NamedTuple: code reassigns or builds up a field, the
    constructor validates, or a derived field is cached.

    Records are equal only when they are of one class and their fields are
    equal, so a `FieldStore` never equals a `FieldLoad`. A record is
    unhashable, as it may be mutated.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    # `==` and `repr` walk nested records and lists with a stack of their
    # own: recursing, each nesting level of `if` blocks would take several
    # Python frames, and blocks nest up to the frontend's MAX_NESTING deep.

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if _opens(a) and b.__class__ is a.__class__:
                if a.__class__ is list:
                    if len(a) != len(b):
                        return False
                    pairs.extend(zip(reversed(a), reversed(b)))
                else:
                    pairs.extend(zip(reversed(a._values()), reversed(b._values())))
            elif not a == b:
                return False
        return True

    __hash__ = None

    def __repr__(self) -> str:
        parts: list[str] = []
        todo: list = [self]  # values to show, and text to copy as `_Text`
        while todo:
            item = todo.pop()
            if item.__class__ is _Text:
                parts.append(item)
            elif not _opens(item):
                parts.append(repr(item))
            elif item.__class__ is list:
                todo.append(_Text("]"))
                for i in range(len(item) - 1, -1, -1):
                    todo.append(item[i])
                    if i:
                        todo.append(_Text(", "))
                todo.append(_Text("["))
            else:
                todo.append(_Text(")"))
                for i in range(len(item._fields) - 1, -1, -1):
                    todo.append(getattr(item, item._fields[i]))
                    todo.append(_Text(f"{', ' if i else ''}{item._fields[i]}="))
                todo.append(_Text(f"{type(item).__qualname__}("))
        return "".join(parts)


class _Text(str):
    """Text that `Record.__repr__` copies as it is."""


def _opens(value) -> bool:
    """Whether `Record.__eq__` and `__repr__` walk into `value`."""
    return value.__class__ is list or isinstance(value, Record)


# ---------------------------------------------------------------------------
# Statements
#
# Statements are keyword-only; `provenance` defaults to BASE.


class Stmt(Record):
    __slots__ = ("pos", "provenance")
    _fields = __slots__


class AllocAssign(Stmt):
    """target = new cls(args); runs the matching constructor."""

    __slots__ = ("target", "cls", "args")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 target: str, cls: str, args: tuple[Operand, ...] = ()):
        self.pos = pos
        self.provenance = provenance
        self.target = target
        self.cls = cls
        self.args = args


class ReflectiveAssign(Stmt):
    """target = mkref type; yields an instance with no allocation site."""

    __slots__ = ("target", "type")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 target: str, type: str):
        self.pos = pos
        self.provenance = provenance
        self.target = target
        self.type = type


class CopyAssign(Stmt):
    __slots__ = ("target", "source")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 target: str, source: Operand):
        self.pos = pos
        self.provenance = provenance
        self.target = target
        self.source = source


class FieldStore(Stmt):
    __slots__ = ("base", "field", "source")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 base: str, field: str, source: Operand):
        self.pos = pos
        self.provenance = provenance
        self.base = base
        self.field = field
        self.source = source


class FieldLoad(Stmt):
    __slots__ = ("target", "base", "field")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 target: str, base: str, field: str):
        self.pos = pos
        self.provenance = provenance
        self.target = target
        self.base = base
        self.field = field


class StaticStore(Stmt):
    __slots__ = ("cls", "field", "source")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 cls: str, field: str, source: Operand):
        self.pos = pos
        self.provenance = provenance
        self.cls = cls
        self.field = field
        self.source = source


class StaticLoad(Stmt):
    __slots__ = ("target", "cls", "field")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 target: str, cls: str, field: str):
        self.pos = pos
        self.provenance = provenance
        self.target = target
        self.cls = cls
        self.field = field


class ArrayAlloc(Stmt):
    __slots__ = ("target", "elem_type", "size")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 target: str, elem_type: str, size: int):
        self.pos = pos
        self.provenance = provenance
        self.target = target
        self.elem_type = elem_type
        self.size = size


class ArrayStore(Stmt):
    __slots__ = ("base", "index", "source")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 base: str, index: IndexOperand, source: Operand):
        self.pos = pos
        self.provenance = provenance
        self.base = base
        self.index = index
        self.source = source


class ArrayLoad(Stmt):
    __slots__ = ("target", "base", "index")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 target: str, base: str, index: IndexOperand):
        self.pos = pos
        self.provenance = provenance
        self.target = target
        self.base = base
        self.index = index


class VirtualCall(Stmt):
    __slots__ = ("receiver", "method", "args", "result")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 receiver: str, method: str, args: tuple[Operand, ...] = (),
                 result: Optional[str] = None):
        self.pos = pos
        self.provenance = provenance
        self.receiver = receiver
        self.method = method
        self.args = args
        self.result = result


class StaticCall(Stmt):
    __slots__ = ("cls", "method", "args", "result")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 cls: str, method: str, args: tuple[Operand, ...] = (),
                 result: Optional[str] = None):
        self.pos = pos
        self.provenance = provenance
        self.cls = cls
        self.method = method
        self.args = args
        self.result = result


class If(Stmt):
    __slots__ = ("cond", "then_body", "else_body")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 cond: str, then_body: Optional[list[Stmt]] = None,
                 else_body: Optional[list[Stmt]] = None):
        self.pos = pos
        self.provenance = provenance
        self.cond = cond
        self.then_body = [] if then_body is None else then_body
        self.else_body = [] if else_body is None else else_body


class While(Stmt):
    __slots__ = ("cond", "body")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 cond: str, body: Optional[list[Stmt]] = None):
        self.pos = pos
        self.provenance = provenance
        self.cond = cond
        self.body = [] if body is None else body


class Return(Stmt):
    __slots__ = ("value",)
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 value: Optional[str] = None):
        self.pos = pos
        self.provenance = provenance
        self.value = value


class OpaqueOp(Stmt):
    """target = op(operands); stands in for any arithmetic or logic."""

    __slots__ = ("target", "operands")
    _fields = Stmt._fields + __slots__

    def __init__(self, *, pos: Position, provenance: Provenance = Provenance.BASE,
                 target: str, operands: tuple[Operand, ...] = ()):
        self.pos = pos
        self.provenance = provenance
        self.target = target
        self.operands = operands


# ---------------------------------------------------------------------------
# Declarations


CTOR_NAME = "<init>"


class FieldDef(NamedTuple):
    name: str
    type: str
    static: bool = False
    pos: Position = UNKNOWN_POS


class MethodDef(Record):
    """`id` ('Class.name/arity') and `display` ('Class.name()') are
    formatted in the constructor: `name`, `params` and `declaring_class`
    must not change after construction."""

    _fields = ("name", "params", "body", "declaring_class", "kind", "static", "public", "pos")
    __slots__ = _fields + ("id", "display")

    def __init__(
        self,
        name: str,
        params: tuple[str, ...],
        body: list[Stmt],
        declaring_class: str,
        kind: str = "method",  # "method" | "constructor"
        static: bool = False,
        public: bool = True,
        pos: Position = UNKNOWN_POS,
    ):
        self.name = name
        self.params = params
        self.body = body
        self.declaring_class = declaring_class
        self.kind = kind
        self.static = static
        self.public = public
        self.pos = pos
        self.id = f"{declaring_class}.{name}/{len(params)}"
        self.display = f"{declaring_class}.{name}()"

    @property
    def is_constructor(self) -> bool:
        return self.kind == "constructor"


class MethodSig(NamedTuple):
    name: str
    params: tuple[str, ...]
    pos: Position = UNKNOWN_POS


class ClassDef(Record):
    __slots__ = _fields = ("name", "superclass", "interfaces", "fields", "methods", "constructors", "pos")

    def __init__(
        self,
        name: str,
        superclass: Optional[str] = None,
        interfaces: tuple[str, ...] = (),
        fields: Optional[list[FieldDef]] = None,
        methods: Optional[list[MethodDef]] = None,
        constructors: Optional[list[MethodDef]] = None,
        pos: Position = UNKNOWN_POS,
    ):
        self.name = name
        self.superclass = superclass
        self.interfaces = interfaces
        self.fields = [] if fields is None else fields
        self.methods = [] if methods is None else methods
        self.constructors = [] if constructors is None else constructors
        self.pos = pos


class InterfaceDef(Record):
    __slots__ = _fields = ("name", "extends", "signatures", "pos")

    def __init__(
        self,
        name: str,
        extends: Optional[str] = None,
        signatures: Optional[list[MethodSig]] = None,
        pos: Position = UNKNOWN_POS,
    ):
        self.name = name
        self.extends = extends
        self.signatures = [] if signatures is None else signatures
        self.pos = pos


class Program(Record):
    __slots__ = ("classes", "interfaces", "_hierarchy")
    _fields = ("classes", "interfaces")

    def __init__(self, classes: Optional[list[ClassDef]] = None,
                 interfaces: Optional[list[InterfaceDef]] = None):
        self.classes = [] if classes is None else classes
        self.interfaces = [] if interfaces is None else interfaces
        self._hierarchy: Optional[Hierarchy] = None

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


class Diagnostic(NamedTuple):
    pos: Position
    message: str

    def __str__(self) -> str:
        return f"{self.pos}: {self.message}"


# ---------------------------------------------------------------------------
# Traversal helpers


def iter_stmts(body: list[Stmt]) -> Iterator[Stmt]:
    """All statements in a body in pre-order, descending into structured
    blocks, a then-arm before its else-arm. The body is flattened into one
    list with an explicit stack before the first statement is returned, so
    deep nesting costs no Python frames and a change to the body during
    the walk is not seen."""
    out: list[Stmt] = []
    todo = body[::-1]
    while todo:
        st = todo.pop()
        out.append(st)
        t = type(st)
        if t is If:
            todo += st.else_body[::-1]
            todo += st.then_body[::-1]
        elif t is While:
            todo += st.body[::-1]
    return iter(out)


def all_methods(p: Program) -> Iterator[MethodDef]:
    """Methods and constructors in declaration order: class by class, each
    class's members by line, then name."""
    return iter(p.hierarchy().methods())


def find_method(p: Program, ref: str) -> MethodDef:
    """Look up a method by 'Class.name' or 'Class.name/arity'."""
    arity = None
    given = ref
    if "/" in ref:
        ref, _, a = ref.partition("/")
        try:
            arity = int(a)
        except ValueError:
            raise MirError(f"bad arity in method reference '{ref}/{a}', expected Class.method/N") from None
    cls_name, _, name = ref.partition(".")
    if not (cls_name and name):
        raise MirError(f"bad method reference '{given}', expected Class.method or Class.method/N")
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
    declaration of a name wins, as a linear scan would find it.

    Type questions are answered from a bit-vector encoding of the hierarchy
    (Ait-Kaci, Boyer, Lincoln and Nasr, TOPLAS 1989; Vitek, Horspool and
    Krall, OOPSLA 1997). The first such question numbers the declared types
    once, classes then interfaces, and gives each two Python-int bitmasks:
    its reflexive supertype closure and its reflexive descendants. One
    linear pass builds both. Tarjan's strongly connected components, found
    with an explicit stack so that a deep chain needs no deep Python stack,
    come out supertypes first, so a component's closure is its members'
    bits and the closures of the supertypes they name, exact on cycles
    too; descendants then flow down in the reverse order. The masks take
    n^2/8 bytes at most. A subtype test is one bit test, an implementer set
    one AND of a descendant mask with the class bits, and a least common
    supertype the one minimal type in the AND of two closures; `supertypes`
    and `implementers` decode a mask into a frozenset of names on each
    call. Unknown types raise `MirError` every time and are never cached.

    Least common supertypes, member lookups (fields, inherited methods,
    virtual dispatch targets) and the declaration-ordered method tuple
    behind `all_methods` and `methods_by_id` are memoised. An inherited
    field or method is the superclass's memoised answer, so a chain's
    lookups cost one step per class. A class's members must be complete
    before its Program is first queried.
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
        # The type numbers and masks (see `_index`).
        self._numbers: Optional[dict[str, int]] = None
        self._names: list[str] = []
        self._supers: list[int] = []
        self._descendants: list[int] = []
        self._class_bits = 0
        self._lca: dict[tuple[str, str], Optional[str]] = {}
        self._order: Optional[tuple[MethodDef, ...]] = None
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

    def _index(self) -> dict[str, int]:
        """The number of each declared type, after building the masks on
        first use (see the class docstring)."""
        if self._numbers is not None:
            return self._numbers
        names = list(self.classes) + [n for n in self.interfaces if n not in self.classes]
        index = {name: i for i, name in enumerate(names)}
        # The declared supertypes of each type; undeclared ones are left out.
        edges = [[index[s] for s in self.declared_supers(name) if s in index] for name in names]
        n = len(names)
        supers = [0] * n
        components = _components(edges)  # supertypes first
        for members in components:
            mask = 0
            for w in members:
                mask |= 1 << w
            # Every supertype outside the component is closed already; the
            # members' own entries are still 0.
            for w in members:
                for s in edges[w]:
                    mask |= supers[s]
            for w in members:
                supers[w] = mask
        descendants = [0] * n
        for members in reversed(components):
            mask = 0
            for w in members:
                mask |= descendants[w] | 1 << w
            for w in members:
                descendants[w] = mask
                for s in edges[w]:
                    descendants[s] |= mask
        self._names, self._supers, self._descendants = names, supers, descendants
        self._class_bits = (1 << len(self.classes)) - 1  # classes are numbered first
        self._numbers = index
        return index

    def _number(self, name: str) -> int:
        i = self._index().get(name)
        if i is None:
            raise MirError(f"unknown type '{name}'")
        return i

    def supertypes(self, name: str) -> frozenset[str]:
        """`name` and every declared type it transitively extends or
        implements; supertypes no declaration names are left out."""
        i = self._number(name)
        names = self._names
        return frozenset(names[k] for k in _ones(self._supers[i]))

    def is_subtype(self, sub: str, sup: str) -> bool:
        """Whether `sub` is `sup` or transitively extends or implements it."""
        i, j = self._number(sub), self._number(sup)
        return bool(self._supers[i] >> j & 1)

    def related(self, a: str, b: str) -> bool:
        """Whether one of two types is a subtype of the other; False when
        either is undeclared."""
        index = self._index()
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            return False
        return bool(self._supers[i] >> j & 1 or self._supers[j] >> i & 1)

    def implementers(self, t: str) -> frozenset[str]:
        """The classes (interfaces excluded) that are subtypes of `t`."""
        return frozenset(self._implementers(self._number(t)))

    def _implementers(self, i: int) -> list[str]:
        names = self._names
        return [names[k] for k in _ones(self._descendants[i] & self._class_bits)]

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
        index = self._index()
        i, j = index.get(a), index.get(b)
        if i is not None and j is not None:
            common = self._supers[i] & self._supers[j]
            descendants = self._descendants
            # Minimal: no other common supertype is a descendant.
            minimal = [t for t in _ones(common) if (descendants[t] & common) == 1 << t]
            if len(minimal) == 1:
                got = self._names[minimal[0]]
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
        got = self._lookups.get(key, _UNSET)
        return self._inherited(key) if got is _UNSET else got

    def _inherited(self, key: tuple):
        """The answer to field or method lookup `key` (see `resolve_field`
        and `resolve_method`), memoised: that of the first class on the
        chain of class `key[1]` that declares the member. Each class passed
        keeps the answer under its own key, and a class whose answer is
        memoised answers for the rest of the chain, so a chain costs one
        step per class however many of its classes ask. A superclass cycle
        (only an unvalidated program has one) that declares none answers
        None."""
        lookups = self._lookups
        kind, name, rest = key[0], key[2], key[2:]
        passed: list[tuple] = []
        got = None
        c = self.classes.get(key[1])
        while c is not None and len(passed) <= len(self.classes):
            at = (kind, c.name) + rest
            got = lookups.get(at, _UNSET)
            if got is not _UNSET:
                break
            passed.append(at)
            got = None
            if kind == "field":
                static = key[3]
                for f in c.fields:
                    if f.name == name and f.static == static:
                        got = (c.name, f)
                        break
            else:
                arity, static = key[3], key[4]
                for m in c.methods:
                    if m.name == name and len(m.params) == arity and m.static == static:
                        got = m
                        break
            if got is not None:
                break
            c = self.classes.get(c.superclass)
        for at in passed:
            lookups[at] = got
        lookups[key] = got
        return got

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
        got = self._lookups.get(key, _UNSET)
        return self._inherited(key) if got is _UNSET else got

    def dispatch_targets(self, receiver_type: Optional[str], mname: str, arity: int) -> tuple[MethodDef, ...]:
        """The instance methods a virtual call `mname/arity` on a receiver of
        static type `receiver_type` may reach, sorted by id: each definition
        an implementer of that type declares or inherits (class hierarchy
        analysis). An unknown, undeclared, array or primitive receiver type,
        or one whose implementers provide no such method, falls back to every
        class that provides it; () when no class does. The tuple is memoised,
        and CHA and the engine pass it on whole as a call's targets."""
        key = ("dispatch", receiver_type, mname, arity)
        got = self._lookups.get(key)
        if got is None:
            got = ()
            i = self._index().get(receiver_type) if receiver_type is not None else None
            if i is not None:
                got = self._provided(self._implementers(i), mname, arity)
            if not got:
                got = self._provided((c.name for c in self.class_list), mname, arity)
            self._lookups[key] = got
        return got

    def _provided(self, classes, mname: str, arity: int) -> tuple[MethodDef, ...]:
        """The distinct definitions of instance method `mname/arity` that
        `classes` declare or inherit, sorted by id."""
        defs = {}
        for cls in classes:
            m = self.resolve_method(cls, mname, arity, static=False)
            if m is not None:
                defs[m.id] = m
        return tuple(defs[k] for k in sorted(defs))

    def constructor_of(self, cls_name: str, arity: int) -> Optional[MethodDef]:
        """The first declared constructor of `cls_name` taking `arity` arguments."""
        c = self.classes.get(cls_name)
        if c is None:
            return None
        for ctor in c.constructors:
            if len(ctor.params) == arity:
                return ctor
        return None

    def methods(self) -> tuple[MethodDef, ...]:
        """Methods and constructors in declaration order: class by class,
        each class's members by line, then name."""
        if self._order is None:
            self._order = tuple(
                m
                for c in self.class_list
                for m in sorted(c.constructors + c.methods, key=lambda m: (m.pos.line, m.name))
            )
        return self._order

    def methods_by_id(self) -> Mapping[str, MethodDef]:
        """Methods and constructors by `MethodDef.id`, as a read-only view."""
        if self._methods is None:
            self._methods = MappingProxyType({m.id: m for m in self.methods()})
        return self._methods


def _components(edges: list[list[int]]) -> list[list[int]]:
    """Tarjan's strongly connected components of the graph whose node `v`
    has the successors `edges[v]`, each after every component it reaches.
    The search keeps its path on an explicit stack, so a long chain needs
    no deep Python stack."""
    n = len(edges)
    num = [0] * n  # preorder numbers, from 1; 0 is unvisited
    low = [0] * n
    open_ = [False] * n  # on the component stack
    stack: list[int] = []
    components: list[list[int]] = []
    count = 0
    for root in range(n):
        if num[root]:
            continue
        count += 1
        num[root] = low[root] = count
        stack.append(root)
        open_[root] = True
        path = [(root, iter(edges[root]))]  # the search path, each node with its edges left
        while path:
            v, left = path[-1]
            for w in left:
                if not num[w]:
                    count += 1
                    num[w] = low[w] = count
                    stack.append(w)
                    open_[w] = True
                    path.append((w, iter(edges[w])))
                    break
                if open_[w] and num[w] < low[v]:
                    low[v] = num[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == num[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        open_[w] = False
                        members.append(w)
                        if w == v:
                            break
                    components.append(members)
    return components


_UNSET = object()  # a lookup not memoised yet


def _ones(mask: int) -> list[int]:
    """The numbers of the bits set in `mask`, lowest first."""
    bits = format(mask, "b")[::-1]
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


def supertypes_of(name: str, p: Program) -> frozenset[str]:
    """Reflexive transitive supertypes (classes and interfaces)."""
    return p.hierarchy().supertypes(name)


def subtype_of(sub: str, sup: str, p: Program) -> bool:
    """True iff sub == sup or sub transitively extends/implements sup."""
    return p.hierarchy().is_subtype(sub, sup)


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
            if acyclic and type(st) is StaticCall and h.resolve_method(st.cls, st.method, len(st.args), static=True) is None:
                diags.append(Diagnostic(st.pos, f"static call '{st.cls}::{st.method}/{len(st.args)}' names no method"))
    for pos, n in positions.items():
        if n > 1:
            diags.append(Diagnostic(pos, f"{n} statements share position {pos}"))

    return diags
