"""Source frontend: parsing, provenance attachment, entry discovery.

The surface syntax is line oriented: every simple statement sits on its own
line and ends with ';', while `if`/`while` headers and closing braces take
their own lines, so line numbers identify statements exactly.

    program  := decl*
    decl     := classDecl | ifaceDecl
    classDecl:= "class" ID ["extends" ID] ["implements" ID {"," ID}] "{" member* "}"
    ifaceDecl:= "interface" ID ["extends" ID] "{" sig* "}"
    member   := "field" ["static"] ID ":" TYPE ";"
              | ["public"|"private"] ["static"] "method" ID "(" params ")" "{" stmt* "}"
              | "ctor" "(" params ")" "{" stmt* "}"
    sig      := "method" ID "(" params ")" ";"
    stmt     := simple [marker] ";"
              | "if" ID "{" stmt* "}" ["else" "{" stmt* "}"]
              | "while" ID "{" stmt* "}"
    simple   := ID "=" "new" ID "(" args ")" | ID "=" "mkref" ID
              | ID "=" "newarr" TYPE INT | lhs "=" rhs
              | "call" callexpr | "return" [ID]
    lhs      := ID | ID "." ID | ID "[" idx "]" | ID "::" ID
    rhs      := ID | INT | STRING | ID "." ID | ID "[" idx "]" | ID "::" ID
              | callexpr | "op" "(" args ")"
    callexpr := ID "." ID "(" args ")" | ID "::" ID "(" args ")"
    idx      := ID | INT      marker := "@L" | "@R"

Assignments are three-address: a store to a field/array/static target takes
a local or literal source, and call/new/op results land in a plain local.
Change provenance comes from inline "@L"/"@R" markers or from a sidecar
line map; when both are present they must agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .mir import (
    AllocAssign,
    ArrayAlloc,
    ArrayLoad,
    ArrayStore,
    ClassDef,
    Const,
    CopyAssign,
    CTOR_NAME,
    FieldDef,
    FieldLoad,
    FieldStore,
    If,
    InterfaceDef,
    MethodDef,
    MethodSig,
    MirError,
    OpaqueOp,
    Position,
    Program,
    Provenance,
    ReflectiveAssign,
    Return,
    StaticCall,
    StaticLoad,
    StaticStore,
    Stmt,
    ValidationError,
    VirtualCall,
    While,
    all_methods,
    iter_stmts,
    validate_program,
)


class ParseError(MirError):
    def __init__(self, file: str, line: int, message: str):
        self.file = file
        self.line = line
        self.message = message
        super().__init__(f"{file}:{line}: {message}")


class SidecarError(MirError):
    pass


@dataclass
class SourceUnit:
    path: str
    text: str

    @property
    def line_count(self) -> int:
        return self.text.count("\n") + (0 if self.text.endswith("\n") or not self.text else 1)


@dataclass
class ProvenanceMap:
    """Line-level change map: which (file, line) pairs each side touched."""

    left: set[Position] = field(default_factory=set)
    right: set[Position] = field(default_factory=set)

    def __post_init__(self):
        dup = self.left & self.right
        if dup:
            pos = sorted(dup)[0]
            raise SidecarError(f"line mapped both left and right: {pos}")

    @classmethod
    def from_json(cls, text: str) -> "ProvenanceMap":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise SidecarError(f"sidecar is not valid JSON: {e}") from None
        if not isinstance(raw, dict):
            raise SidecarError("sidecar must be a JSON object with 'left' and 'right' lists")
        return cls(left=_sidecar_lines(raw, "left"), right=_sidecar_lines(raw, "right"))

    def to_json(self) -> str:
        def enc(points):
            return [
                {"file": p.file, "line": p.line}
                for p in sorted(points)
            ]

        return json.dumps({"left": enc(self.left), "right": enc(self.right)}, indent=2)


def _sidecar_lines(raw: dict, side: str) -> set[Position]:
    entries = raw.get(side, [])
    if not isinstance(entries, list):
        raise SidecarError(f"sidecar '{side}' must be a list, got {json.dumps(entries)}")
    return {_sidecar_line(side, e) for e in entries}


def _sidecar_line(side: str, e) -> Position:
    try:
        if isinstance(e["file"], str):
            return Position(e["file"], int(e["line"]))
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    raise SidecarError(
        f"sidecar '{side}' entries must look like {{\"file\": NAME, \"line\": N}}, got {json.dumps(e)}"
    )


# ---------------------------------------------------------------------------
# Lexer

_PUNCT = ("::", "{", "}", "(", ")", "[", "]", ",", ";", ":", "=", ".")
_KEYWORDS = {
    "class", "interface", "extends", "implements", "field", "method", "ctor",
    "static", "public", "private", "if", "else", "while", "return", "call",
    "new", "mkref", "newarr", "op",
}


@dataclass(frozen=True)
class Token:
    kind: str  # ID INT STRING PUNCT MARKER EOF
    value: str
    line: int


def _tokenize(text: str, path: str) -> list[Token]:
    toks: list[Token] = []
    i = 0
    line = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("@L", i) or text.startswith("@R", i):
            toks.append(Token("MARKER", text[i : i + 2], line))
            i += 2
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0 or "\n" in text[i + 1 : j]:
                raise ParseError(path, line, "unterminated string literal")
            toks.append(Token("STRING", text[i + 1 : j], line))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("INT", text[i:j], line))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ID", text[i:j], line))
            i = j
            continue
        matched = False
        for punct in _PUNCT:
            if text.startswith(punct, i):
                toks.append(Token("PUNCT", punct, line))
                i += len(punct)
                matched = True
                break
        if not matched:
            raise ParseError(path, line, f"unexpected character {ch!r}")
    toks.append(Token("EOF", "", line))
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, unit: SourceUnit):
        self.path = unit.path
        self.toks = _tokenize(unit.text, unit.path)
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def fail(self, expected: str) -> ParseError:
        t = self.peek()
        found = t.value if t.kind != "EOF" else "end of file"
        return ParseError(self.path, t.line, f"expected {expected}, found '{found}'")

    def expect_punct(self, value: str) -> Token:
        t = self.peek()
        if t.kind != "PUNCT" or t.value != value:
            raise self.fail(f"'{value}'")
        return self.next()

    def expect_kw(self, word: str) -> Token:
        t = self.peek()
        if t.kind != "ID" or t.value != word:
            raise self.fail(f"'{word}'")
        return self.next()

    def expect_name(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t.kind != "ID" or t.value in _KEYWORDS:
            raise self.fail(what)
        return self.next()

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ID" and t.value == word

    def at_punct(self, value: str) -> bool:
        t = self.peek()
        return t.kind == "PUNCT" and t.value == value

    def pos(self, tok: Token) -> Position:
        return Position(self.path, tok.line)

    # -- declarations

    def parse_unit(self) -> tuple[list[ClassDef], list[InterfaceDef]]:
        classes: list[ClassDef] = []
        interfaces: list[InterfaceDef] = []
        while self.peek().kind != "EOF":
            if self.at_kw("class"):
                classes.append(self.parse_class())
            elif self.at_kw("interface"):
                interfaces.append(self.parse_interface())
            else:
                raise self.fail("'class' or 'interface'")
        return classes, interfaces

    def parse_class(self) -> ClassDef:
        head = self.expect_kw("class")
        name = self.expect_name("class name").value
        superclass = None
        ifaces: list[str] = []
        if self.at_kw("extends"):
            self.next()
            superclass = self.expect_name("superclass name").value
        if self.at_kw("implements"):
            self.next()
            ifaces.append(self.expect_name("interface name").value)
            while self.at_punct(","):
                self.next()
                ifaces.append(self.expect_name("interface name").value)
        self.expect_punct("{")
        cls = ClassDef(name=name, superclass=superclass, interfaces=tuple(ifaces), pos=self.pos(head))
        while not self.at_punct("}"):
            self.parse_member(cls)
        self.expect_punct("}")
        return cls

    def parse_interface(self) -> InterfaceDef:
        head = self.expect_kw("interface")
        name = self.expect_name("interface name").value
        extends = None
        if self.at_kw("extends"):
            self.next()
            extends = self.expect_name("interface name").value
        self.expect_punct("{")
        sigs: list[MethodSig] = []
        while not self.at_punct("}"):
            m = self.expect_kw("method")
            sig_name = self.expect_name("method name").value
            params = self.parse_params()
            self.expect_punct(";")
            sigs.append(MethodSig(sig_name, params, self.pos(m)))
        self.expect_punct("}")
        return InterfaceDef(name=name, extends=extends, signatures=sigs, pos=self.pos(head))

    def parse_member(self, cls: ClassDef) -> None:
        if self.at_kw("field"):
            head = self.next()
            static = False
            if self.at_kw("static"):
                self.next()
                static = True
            fname = self.expect_name("field name").value
            self.expect_punct(":")
            ftype = self.parse_type()
            self.expect_punct(";")
            cls.fields.append(FieldDef(fname, ftype, static=static, pos=self.pos(head)))
            return
        if self.at_kw("ctor"):
            head = self.next()
            params = self.parse_params()
            body = self.parse_block()
            cls.constructors.append(
                MethodDef(
                    name=CTOR_NAME,
                    params=params,
                    body=body,
                    declaring_class=cls.name,
                    kind="constructor",
                    pos=self.pos(head),
                )
            )
            return
        public = True
        static = False
        if self.at_kw("public") or self.at_kw("private"):
            public = self.next().value == "public"
        if self.at_kw("static"):
            self.next()
            static = True
        head = self.expect_kw("method")
        mname = self.expect_name("method name").value
        params = self.parse_params()
        body = self.parse_block()
        cls.methods.append(
            MethodDef(
                name=mname,
                params=params,
                body=body,
                declaring_class=cls.name,
                static=static,
                public=public,
                pos=self.pos(head),
            )
        )

    def parse_type(self) -> str:
        base = self.expect_name("type name").value
        if self.at_punct("["):
            self.next()
            self.expect_punct("]")
            return base + "[]"
        return base

    def parse_params(self) -> tuple[str, ...]:
        self.expect_punct("(")
        params: list[str] = []
        if not self.at_punct(")"):
            params.append(self.expect_name("parameter name").value)
            while self.at_punct(","):
                self.next()
                params.append(self.expect_name("parameter name").value)
        self.expect_punct(")")
        return tuple(params)

    # -- statements

    def parse_block(self) -> list[Stmt]:
        self.expect_punct("{")
        body: list[Stmt] = []
        while not self.at_punct("}"):
            body.append(self.parse_stmt())
        self.expect_punct("}")
        return body

    def parse_stmt(self) -> Stmt:
        if self.at_kw("if"):
            head = self.next()
            cond = self.expect_name("condition local").value
            then_body = self.parse_block()
            else_body: list[Stmt] = []
            if self.at_kw("else"):
                self.next()
                else_body = self.parse_block()
            return If(pos=self.pos(head), cond=cond, then_body=then_body, else_body=else_body)
        if self.at_kw("while"):
            head = self.next()
            cond = self.expect_name("condition local").value
            body = self.parse_block()
            return While(pos=self.pos(head), cond=cond, body=body)
        st = self.parse_simple()
        if self.peek().kind == "MARKER":
            marker = self.next().value
            st.provenance = Provenance.LEFT if marker == "@L" else Provenance.RIGHT
        self.expect_punct(";")
        return st

    def parse_simple(self) -> Stmt:
        head = self.peek()
        pos = self.pos(head)
        if self.at_kw("call"):
            self.next()
            return self.parse_callexpr(pos, result=None)
        if self.at_kw("return"):
            self.next()
            value = None
            if self.peek().kind == "ID" and self.peek().value not in _KEYWORDS:
                value = self.next().value
            return Return(pos=pos, value=value)

        base = self.expect_name("assignment target").value
        # lhs shapes: x | x.f | x[i] | C::f
        if self.at_punct("."):
            self.next()
            fname = self.expect_name("field name").value
            self.expect_punct("=")
            return FieldStore(pos=pos, base=base, field=fname, source=self.parse_simple_source())
        if self.at_punct("["):
            index = self.parse_index()
            self.expect_punct("=")
            return ArrayStore(pos=pos, base=base, index=index, source=self.parse_simple_source())
        if self.at_punct("::"):
            self.next()
            fname = self.expect_name("static field name").value
            self.expect_punct("=")
            return StaticStore(pos=pos, cls=base, field=fname, source=self.parse_simple_source())

        self.expect_punct("=")
        target = base
        if self.at_kw("new"):
            self.next()
            cls = self.expect_name("class name").value
            args = self.parse_args()
            return AllocAssign(pos=pos, target=target, cls=cls, args=args)
        if self.at_kw("mkref"):
            self.next()
            t = self.expect_name("type name").value
            return ReflectiveAssign(pos=pos, target=target, type=t)
        if self.at_kw("newarr"):
            self.next()
            elem = self.parse_type()
            size_tok = self.peek()
            if size_tok.kind != "INT":
                raise self.fail("array size")
            self.next()
            return ArrayAlloc(pos=pos, target=target, elem_type=elem, size=int(size_tok.value))
        if self.at_kw("op"):
            self.next()
            return OpaqueOp(pos=pos, target=target, operands=self.parse_args())

        t = self.peek()
        if t.kind == "INT":
            self.next()
            return CopyAssign(pos=pos, target=target, source=Const(int(t.value)))
        if t.kind == "STRING":
            self.next()
            return CopyAssign(pos=pos, target=target, source=Const(t.value))
        name = self.expect_name("source").value
        if self.at_punct("."):
            self.next()
            member = self.expect_name("member name").value
            if self.at_punct("("):
                return self.parse_call_tail(pos, name, member, virtual=True, result=target)
            return FieldLoad(pos=pos, target=target, base=name, field=member)
        if self.at_punct("["):
            index = self.parse_index()
            return ArrayLoad(pos=pos, target=target, base=name, index=index)
        if self.at_punct("::"):
            self.next()
            member = self.expect_name("member name").value
            if self.at_punct("("):
                return self.parse_call_tail(pos, name, member, virtual=False, result=target)
            return StaticLoad(pos=pos, target=target, cls=name, field=member)
        return CopyAssign(pos=pos, target=target, source=name)

    def parse_simple_source(self) -> "str | Const":
        # Store targets take a local or literal only; keeps stores three-address.
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return Const(int(t.value))
        if t.kind == "STRING":
            self.next()
            return Const(t.value)
        if t.kind == "ID" and t.value not in _KEYWORDS:
            name = self.next().value
            if self.at_punct(".") or self.at_punct("[") or self.at_punct("::") or self.at_punct("("):
                raise ParseError(
                    self.path, t.line, "expected a local or literal source (split compound assignments across lines)"
                )
            return name
        raise self.fail("a local or literal source")

    def parse_callexpr(self, pos: Position, result: Optional[str]) -> Stmt:
        recv = self.expect_name("call receiver").value
        if self.at_punct("."):
            self.next()
            m = self.expect_name("method name").value
            return self.parse_call_tail(pos, recv, m, virtual=True, result=result)
        if self.at_punct("::"):
            self.next()
            m = self.expect_name("method name").value
            return self.parse_call_tail(pos, recv, m, virtual=False, result=result)
        raise self.fail("'.' or '::'")

    def parse_call_tail(self, pos, recv, method, virtual: bool, result) -> Stmt:
        args = self.parse_args()
        if virtual:
            return VirtualCall(pos=pos, receiver=recv, method=method, args=args, result=result)
        return StaticCall(pos=pos, cls=recv, method=method, args=args, result=result)

    def parse_args(self) -> tuple:
        self.expect_punct("(")
        args: list = []
        if not self.at_punct(")"):
            args.append(self.parse_operand())
            while self.at_punct(","):
                self.next()
                args.append(self.parse_operand())
        self.expect_punct(")")
        return tuple(args)

    def parse_operand(self):
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return Const(int(t.value))
        if t.kind == "STRING":
            self.next()
            return Const(t.value)
        return self.expect_name("operand").value

    def parse_index(self):
        self.expect_punct("[")
        t = self.peek()
        if t.kind == "INT":
            self.next()
            index: "int | str" = int(t.value)
        else:
            index = self.expect_name("index").value
        self.expect_punct("]")
        return index


def parse_program(units: list[SourceUnit], validate: bool = True) -> Program:
    """Parse a program from one or more source units; validates by default."""
    program = Program()
    for unit in units:
        classes, interfaces = _Parser(unit).parse_unit()
        program.classes.extend(classes)
        program.interfaces.extend(interfaces)
    if validate:
        diags = validate_program(program)
        if diags:
            raise ValidationError(diags)
    return program


def parse_source(text: str, path: str = "input.mir", validate: bool = True) -> Program:
    return parse_program([SourceUnit(path, text)], validate=validate)


# ---------------------------------------------------------------------------
# Sidecar provenance


def apply_sidecar(p: Program, m: ProvenanceMap) -> Program:
    """Attach LEFT/RIGHT provenance from a line map.

    Every mapped line must hold a statement, and any inline marker already
    present must agree with the map. Statements outside the map end up BASE,
    so applying the same map twice is a no-op.
    """
    mapped: dict[Position, Provenance] = {}
    for pos in m.left:
        mapped[pos] = Provenance.LEFT
    for pos in m.right:
        mapped[pos] = Provenance.RIGHT

    seen: set[Position] = set()
    for method in all_methods(p):
        for st in iter_stmts(method.body):
            seen.add(st.pos)
            want = mapped.get(st.pos, Provenance.BASE)
            if st.provenance is not Provenance.BASE and st.provenance is not want:
                raise SidecarError(
                    f"provenance disagreement at {st.pos}: inline {st.provenance.value}, sidecar {want.value}"
                )
            st.provenance = want
    missing = [pos for pos in mapped if pos not in seen]
    if missing:
        pos = sorted(missing)[0]
        raise SidecarError(f"no statement at line {pos}")
    return p


def entry_candidates(p: Program) -> list[MethodDef]:
    """Declarations whose own bodies carry changes from both sides."""
    out: list[MethodDef] = []
    for m in all_methods(p):
        provs = {st.provenance for st in iter_stmts(m.body)}
        if Provenance.LEFT in provs and Provenance.RIGHT in provs:
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# Canonical printing


_MARKERS = {Provenance.LEFT: " @L", Provenance.RIGHT: " @R", Provenance.BASE: ""}


def _fmt_operand(o) -> str:
    if isinstance(o, Const):
        return f'"{o.value}"' if isinstance(o.value, str) else str(o.value)
    return o


def _fmt_args(args) -> str:
    return ", ".join(_fmt_operand(a) for a in args)


def _fmt_simple(st: Stmt) -> str:
    if isinstance(st, AllocAssign):
        return f"{st.target} = new {st.cls}({_fmt_args(st.args)})"
    if isinstance(st, ReflectiveAssign):
        return f"{st.target} = mkref {st.type}"
    if isinstance(st, ArrayAlloc):
        return f"{st.target} = newarr {st.elem_type} {st.size}"
    if isinstance(st, OpaqueOp):
        return f"{st.target} = op({_fmt_args(st.operands)})"
    if isinstance(st, CopyAssign):
        return f"{st.target} = {_fmt_operand(st.source)}"
    if isinstance(st, FieldStore):
        return f"{st.base}.{st.field} = {_fmt_operand(st.source)}"
    if isinstance(st, FieldLoad):
        return f"{st.target} = {st.base}.{st.field}"
    if isinstance(st, StaticStore):
        return f"{st.cls}::{st.field} = {_fmt_operand(st.source)}"
    if isinstance(st, StaticLoad):
        return f"{st.target} = {st.cls}::{st.field}"
    if isinstance(st, ArrayStore):
        return f"{st.base}[{st.index}] = {_fmt_operand(st.source)}"
    if isinstance(st, ArrayLoad):
        return f"{st.target} = {st.base}[{st.index}]"
    if isinstance(st, VirtualCall):
        call = f"{st.receiver}.{st.method}({_fmt_args(st.args)})"
        return f"{st.result} = {call}" if st.result else f"call {call}"
    if isinstance(st, StaticCall):
        call = f"{st.cls}::{st.method}({_fmt_args(st.args)})"
        return f"{st.result} = {call}" if st.result else f"call {call}"
    if isinstance(st, Return):
        return f"return {st.value}" if st.value else "return"
    raise MirError(f"cannot print statement {st!r}")


def _emit_block(body: list[Stmt], indent: int, out: list[str]) -> None:
    pad = "  " * indent
    for st in body:
        if isinstance(st, If):
            out.append(f"{pad}if {st.cond} {{")
            _emit_block(st.then_body, indent + 1, out)
            if st.else_body:
                out.append(f"{pad}}} else {{")
                _emit_block(st.else_body, indent + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(st, While):
            out.append(f"{pad}while {st.cond} {{")
            _emit_block(st.body, indent + 1, out)
            out.append(f"{pad}}}")
        else:
            out.append(f"{pad}{_fmt_simple(st)}{_MARKERS[st.provenance]};")


def pretty_print(p: Program) -> str:
    """Canonical source form; parsing it back yields an equivalent program."""
    out: list[str] = []
    for i in p.interfaces:
        head = f"interface {i.name}"
        if i.extends:
            head += f" extends {i.extends}"
        out.append(head + " {")
        for sig in i.signatures:
            out.append(f"  method {sig.name}({', '.join(sig.params)});")
        out.append("}")
    for c in p.classes:
        head = f"class {c.name}"
        if c.superclass:
            head += f" extends {c.superclass}"
        if c.interfaces:
            head += " implements " + ", ".join(c.interfaces)
        out.append(head + " {")
        for f in c.fields:
            static = "static " if f.static else ""
            out.append(f"  field {static}{f.name}: {f.type};")
        members = sorted(c.constructors + c.methods, key=lambda m: (m.pos.line, m.name))
        for m in members:
            if m.is_constructor:
                out.append(f"  ctor({', '.join(m.params)}) {{")
            else:
                mods = ("private " if not m.public else "") + ("static " if m.static else "")
                out.append(f"  {mods}method {m.name}({', '.join(m.params)}) {{")
            _emit_block(m.body, 2, out)
            out.append("  }")
        out.append("}")
    return "\n".join(out) + ("\n" if out else "")
