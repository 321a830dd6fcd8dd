"""Source frontend: parsing, provenance attachment, entry discovery.

The surface syntax is line oriented: every simple statement sits on its own
line and ends with ';', while `if`/`while` headers and closing braces take
their own lines, so line numbers identify statements exactly.

    program  := decl*
    decl     := classDecl | ifaceDecl
    classDecl:= "class" ID ["extends" ID] ["implements" ID {"," ID}] "{" member* "}"
    ifaceDecl:= "interface" ID ["extends" ID] "{" sig* "}"
    member   := "field" ["static"] ID ":" TYPE ";"
              | ["public"|"private"] ["static"] "method" ID params block
              | "ctor" params block
    sig      := "method" ID params ";"
    block    := "{" stmt* "}"
    stmt     := simple [marker] ";"
              | "if" ID block ["else" block] | "while" ID block
    simple   := "return" [ID] | "call" ID ("." | "::") ID args
              | ID ("." ID | "[" idx "]" | "::" ID) "=" operand
              | ID "=" rhs
    rhs      := "new" ID args | "mkref" ID | "newarr" TYPE INT | "op" args
              | INT | STRING | ID access
    access   := ("." | "::") ID [args] | "[" idx "]" | (nothing)
    params   := "(" [ID {"," ID}] ")"      args := "(" [operand {"," operand}] ")"
    operand  := ID | INT | STRING          idx  := ID | INT      marker := "@L" | "@R"

Tokens are ASCII: ID `[A-Za-z_][A-Za-z0-9_]*` (keywords are IDs with a
reserved spelling), INT `-?[0-9]+`, STRING a double-quoted run of characters
other than '"' on one line (no escapes), MARKER `@L` or `@R`, and the
punctuation `:: { } ( ) [ ] , ; : = .`. Spaces, tabs, carriage returns,
newlines and `//` comments separate tokens; any other character, a
non-ASCII letter or digit included, is a ParseError. `if`/`while` blocks
nest at most MAX_NESTING (300) deep inside one method body; deeper nesting
is a ParseError too, so the recursive parser and the recursive walkers
downstream stay within Python's stack. So is an INT with more digits than
the interpreter converts (`sys.get_int_max_str_digits`).

A source is read a line at a time: each line must match, whole, one of a
few patterns for a statement, a header or a closing brace (`} else {` on
one line), and builds its part of the program directly, positions
included. A source with a line outside that layout, or with an error, goes
whole to the token parser, so every ParseError carries the token parser's
message and line. Its lexer reads the source in one regular-expression pass
that yields two flat lists, the token spellings and the line of each; a
string literal keeps its quotes, so no literal is spelled like a keyword.
The recursive-descent parser reads those two lists. Both readers build the
same program from any source the line reader reads.

Assignments are three-address: a store to a field/array/static target takes
a local or literal source, and call/new/op results land in a plain local.
Change provenance comes from inline "@L"/"@R" markers or from a sidecar
line map; when both are present they must agree.
"""

from __future__ import annotations

import json
import re
import string
import sys
from functools import lru_cache, partial
from pathlib import Path
from typing import NamedTuple, Optional

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
    Record,
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


def read_text(path: Path) -> str:
    """The text of a source, manifest or sidecar file; bytes that are not
    UTF-8, or a name with a NUL byte, raise MirError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise MirError(f"{path}: not UTF-8 text: byte {e.start}: {e.reason}") from None
    except ValueError as e:  # `open` refuses a name with a NUL byte
        raise MirError(f"{str(path)!r}: {e}") from None


def parse_json(text: str, what: str, error: type[MirError] = MirError):
    """The value of the JSON document `text`, which error messages call
    `what`. Text that is not JSON, or nests past Python's stack, raises
    `error`; so does an integer with more digits than the interpreter
    converts (`sys.get_int_max_str_digits`), whose message names the limit."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise error(f"{what} is not valid JSON: {e}") from None
    except ValueError:  # on a string, `loads` raises no other ValueError
        raise error(f"{what}: integer too long (over {sys.get_int_max_str_digits()} digits)") from None


class SourceUnit(NamedTuple):
    path: str
    text: str

    @property
    def line_count(self) -> int:
        return self.text.count("\n") + (0 if self.text.endswith("\n") or not self.text else 1)


class ProvenanceMap(Record):
    """Line-level change map: which (file, line) pairs each side touched."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Optional[set[Position]] = None, right: Optional[set[Position]] = None):
        self.left = set() if left is None else left
        self.right = set() if right is None else right
        dup = self.left & self.right
        if dup:
            pos = sorted(dup)[0]
            raise SidecarError(f"line mapped both left and right: {pos}")

    @classmethod
    def from_json(cls, text: str) -> "ProvenanceMap":
        raw = parse_json(text, "sidecar", SidecarError)
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
    # `line` must be a JSON integer: a float, string or bool is not coerced.
    try:
        if isinstance(e["file"], str) and type(e["line"]) is int:
            return Position(e["file"], e["line"])
    except (KeyError, TypeError):
        pass
    raise SidecarError(
        f"sidecar '{side}' entries must look like {{\"file\": NAME, \"line\": N}}, got {json.dumps(e)}"
    )


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = {
    "class", "interface", "extends", "implements", "field", "method", "ctor",
    "static", "public", "private", "if", "else", "while", "return", "call",
    "new", "mkref", "newarr", "op",
}

# Each match skips blanks and a `//` comment, then captures one lexeme: a
# token, a line break, any other single character (a lexing error) or the
# empty end of text. The match never fails, so `findall` covers the text.
_LEXEME = re.compile(
    r"""[ \t\r]*(?://[^\n]*)?
    ( @[LR] | "[^"\n]*" | -?[0-9]+ | [A-Za-z_][A-Za-z0-9_]*
    | :: | [{}()\[\],;:=.]
    | \n | . | \Z )""",
    re.VERBOSE,
)
# A token's kind follows from its first character: a letter or '_' starts an
# ID, a digit or '-' an INT, '"' a STRING, '@' a MARKER, the empty spelling is
# the end of file, and any other character starts punctuation.
_ID_START = frozenset(string.ascii_letters + "_")
_INT_START = frozenset(string.digits + "-")
# The one-character lexemes that are tokens; any other one is a lexing error.
_SHORT_TOKENS = _ID_START | frozenset(string.digits + "{}()[],;:=.")


def _lex(text: str, path: str) -> tuple[list[str], list[int]]:
    """The spellings of the tokens of `text` and the line of each, ending in
    the empty spelling at end of file. A string literal keeps its quotes, so
    no literal is spelled like a keyword or punctuation. A character that
    starts no token raises ParseError."""
    raw = _LEXEME.findall(text)
    if len(raw) > 1 and raw[-2] == "":
        raw.pop()  # blanks or a comment before the end of text: the end matched twice
    vals: list[str] = []
    lines: list[int] = []
    line = 1
    for s in raw:
        if s == "\n":
            line += 1
        elif len(s) == 1 and s not in _SHORT_TOKENS:
            message = "unterminated string literal" if s == '"' else f"unexpected character {s!r}"
            raise ParseError(path, line, message)
        else:
            vals.append(s)
            lines.append(line)
    return vals, lines


# ---------------------------------------------------------------------------
# Parser

MAX_NESTING = 300  # if/while blocks inside one method body


class _Parser:
    """Recursive descent over the spellings `vals` and their `lines`; `i`
    indexes the next token. `parse_program` calls it for a source that the
    line reader cannot read: one outside the line layout or one with an
    error, whose ParseError it reports."""

    def __init__(self, unit: SourceUnit):
        self.path = unit.path
        self.vals, self.lines = _lex(unit.text, unit.path)
        self.i = 0

    def next(self) -> str:
        v = self.vals[self.i]
        if v:
            self.i += 1
        return v

    def fail(self, expected: str) -> ParseError:
        v = self.vals[self.i]
        found = "end of file" if not v else v[1:-1] if v[0] == '"' else v
        return ParseError(self.path, self.lines[self.i], f"expected {expected}, found '{found}'")

    def at(self, word: str) -> bool:
        """Whether the next token is the keyword, punctuation or marker `word`."""
        return self.vals[self.i] == word

    def accept(self, word: str) -> bool:
        if self.vals[self.i] == word:
            self.i += 1
            return True
        return False

    def expect(self, word: str) -> int:
        """Consume `word`; returns its line."""
        i = self.i
        if self.vals[i] != word:
            raise self.fail(f"'{word}'")
        self.i = i + 1
        return self.lines[i]

    def at_name(self) -> bool:
        v = self.vals[self.i]
        return v[:1] in _ID_START and v not in _KEYWORDS

    def at_int(self) -> bool:
        return self.vals[self.i][:1] in _INT_START

    def name(self, what: str) -> str:
        if not self.at_name():
            raise self.fail(what)
        return self.next()

    def int_literal(self) -> int:
        """The INT token at hand as an int. One with more digits than the
        interpreter converts (`sys.get_int_max_str_digits`) is a ParseError."""
        line, token = self.lines[self.i], self.next()
        try:
            return int(token)
        except ValueError:
            raise ParseError(self.path, line, f"integer literal too long ({len(token.lstrip('-'))} digits)") from None

    def pos(self, line: int) -> Position:
        return Position(self.path, line)

    # -- declarations

    def parse_unit(self) -> tuple[list[ClassDef], list[InterfaceDef]]:
        classes: list[ClassDef] = []
        interfaces: list[InterfaceDef] = []
        while self.vals[self.i]:
            if self.at("class"):
                classes.append(self.parse_class())
            elif self.at("interface"):
                interfaces.append(self.parse_interface())
            else:
                raise self.fail("'class' or 'interface'")
        return classes, interfaces

    def parse_class(self) -> ClassDef:
        line = self.expect("class")
        name = self.name("class name")
        superclass = self.name("superclass name") if self.accept("extends") else None
        ifaces: list[str] = []
        if self.accept("implements"):
            ifaces.append(self.name("interface name"))
            while self.accept(","):
                ifaces.append(self.name("interface name"))
        self.expect("{")
        cls = ClassDef(name=name, superclass=superclass, interfaces=tuple(ifaces), pos=self.pos(line))
        while not self.at("}"):
            self.parse_member(cls)
        self.expect("}")
        return cls

    def parse_interface(self) -> InterfaceDef:
        line = self.expect("interface")
        name = self.name("interface name")
        extends = self.name("interface name") if self.accept("extends") else None
        self.expect("{")
        sigs: list[MethodSig] = []
        while not self.at("}"):
            sig_line = self.expect("method")
            sig_name = self.name("method name")
            params = self.parse_list(self.name, "parameter name")
            self.expect(";")
            sigs.append(MethodSig(sig_name, params, self.pos(sig_line)))
        self.expect("}")
        return InterfaceDef(name=name, extends=extends, signatures=sigs, pos=self.pos(line))

    def parse_member(self, cls: ClassDef) -> None:
        line = self.lines[self.i]
        if self.accept("field"):
            static = self.accept("static")
            fname = self.name("field name")
            self.expect(":")
            ftype = self.parse_type()
            self.expect(";")
            cls.fields.append(FieldDef(fname, ftype, static=static, pos=self.pos(line)))
            return
        if self.accept("ctor"):
            params = self.parse_list(self.name, "parameter name")
            body = self.parse_block()
            cls.constructors.append(
                MethodDef(
                    name=CTOR_NAME,
                    params=params,
                    body=body,
                    declaring_class=cls.name,
                    kind="constructor",
                    pos=self.pos(line),
                )
            )
            return
        public = not self.accept("private")
        if public:
            self.accept("public")
        static = self.accept("static")
        line = self.expect("method")
        mname = self.name("method name")
        params = self.parse_list(self.name, "parameter name")
        body = self.parse_block()
        cls.methods.append(
            MethodDef(
                name=mname,
                params=params,
                body=body,
                declaring_class=cls.name,
                static=static,
                public=public,
                pos=self.pos(line),
            )
        )

    def parse_type(self) -> str:
        base = self.name("type name")
        if self.accept("["):
            self.expect("]")
            return base + "[]"
        return base

    def parse_list(self, item, what: str) -> tuple:
        """`(` [item {`,` item}] `)`, each item read by `item(what)`."""
        self.expect("(")
        items: list = []
        if not self.at(")"):
            items.append(item(what))
            while self.accept(","):
                items.append(item(what))
        self.expect(")")
        return tuple(items)

    # -- statements

    def parse_block(self, depth: int = 0) -> list[Stmt]:
        """`{` stmt* `}`; `depth` counts the if/while blocks around it."""
        line = self.expect("{")
        if depth > MAX_NESTING:
            raise ParseError(self.path, line, f"if/while blocks nested deeper than {MAX_NESTING}")
        body: list[Stmt] = []
        while not self.at("}"):
            body.append(self.parse_stmt(depth))
        self.expect("}")
        return body

    def parse_stmt(self, depth: int) -> Stmt:
        pos = self.pos(self.lines[self.i])
        if self.accept("if"):
            cond = self.name("condition local")
            then_body = self.parse_block(depth + 1)
            else_body = self.parse_block(depth + 1) if self.accept("else") else []
            return If(pos=pos, cond=cond, then_body=then_body, else_body=else_body)
        if self.accept("while"):
            cond = self.name("condition local")
            return While(pos=pos, cond=cond, body=self.parse_block(depth + 1))
        st = self.parse_simple(pos)
        if self.accept("@L"):
            st.provenance = Provenance.LEFT
        elif self.accept("@R"):
            st.provenance = Provenance.RIGHT
        self.expect(";")
        return st

    def parse_simple(self, pos: Position) -> Stmt:
        if self.accept("return"):
            return Return(pos=pos, value=self.next() if self.at_name() else None)
        if self.accept("call"):
            recv = self.name("call receiver")
            if not (self.at(".") or self.at("::")):
                raise self.fail("'.' or '::'")
            return self.parse_access(pos, recv, None, "method name")

        base = self.name("assignment target")
        # stores: x.f | x[i] | C::f, each from a local or literal
        if self.accept("."):
            fname = self.name("field name")
            self.expect("=")
            return FieldStore(pos=pos, base=base, field=fname, source=self.parse_store_source())
        if self.at("["):
            index = self.parse_index()
            self.expect("=")
            return ArrayStore(pos=pos, base=base, index=index, source=self.parse_store_source())
        if self.accept("::"):
            fname = self.name("static field name")
            self.expect("=")
            return StaticStore(pos=pos, cls=base, field=fname, source=self.parse_store_source())

        self.expect("=")
        if self.accept("new"):
            cls = self.name("class name")
            return AllocAssign(pos=pos, target=base, cls=cls, args=self.parse_list(self.parse_operand, "operand"))
        if self.accept("mkref"):
            return ReflectiveAssign(pos=pos, target=base, type=self.name("type name"))
        if self.accept("newarr"):
            elem = self.parse_type()
            if not self.at_int():
                raise self.fail("array size")
            return ArrayAlloc(pos=pos, target=base, elem_type=elem, size=self.int_literal())
        if self.accept("op"):
            return OpaqueOp(pos=pos, target=base, operands=self.parse_list(self.parse_operand, "operand"))
        source = self.parse_operand("source")
        if isinstance(source, Const):
            return CopyAssign(pos=pos, target=base, source=source)
        return self.parse_access(pos, source, base, "member name")

    def parse_access(self, pos: Position, name: str, target: Optional[str], member_what: str) -> Stmt:
        """What follows `name` on a right-hand side or after `call`: `.m(args)`,
        `::m(args)`, `.f`, `::f`, `[i]` or nothing. Without a target (a `call`
        statement) the access must be a call."""
        if self.at("["):
            return ArrayLoad(pos=pos, target=target, base=name, index=self.parse_index())
        virtual = self.accept(".")
        if not (virtual or self.accept("::")):
            return CopyAssign(pos=pos, target=target, source=name)
        member = self.name(member_what)
        if target is not None and not self.at("("):
            if virtual:
                return FieldLoad(pos=pos, target=target, base=name, field=member)
            return StaticLoad(pos=pos, target=target, cls=name, field=member)
        args = self.parse_list(self.parse_operand, "operand")
        if virtual:
            return VirtualCall(pos=pos, receiver=name, method=member, args=args, result=target)
        return StaticCall(pos=pos, cls=name, method=member, args=args, result=target)

    def parse_operand(self, what: str) -> "str | Const":
        """A literal or a local: call arguments, store sources, literal right-hand sides."""
        if self.at_int():
            return Const(self.int_literal())
        if self.vals[self.i][:1] == '"':
            return Const(self.next()[1:-1])
        return self.name(what)

    def parse_store_source(self) -> "str | Const":
        # Stores take a local or literal only; keeps them three-address.
        line = self.lines[self.i]
        source = self.parse_operand("a local or literal source")
        if isinstance(source, str) and any(self.at(p) for p in (".", "[", "::", "(")):
            raise ParseError(
                self.path, line, "expected a local or literal source (split compound assignments across lines)"
            )
        return source

    def parse_index(self) -> "int | str":
        self.expect("[")
        index = self.int_literal() if self.at_int() else self.name("index")
        self.expect("]")
        return index


# ---------------------------------------------------------------------------
# Line reader
#
# Sources mostly keep the line layout: one statement, header or closing
# brace per line, and `} else {` on one line. `_read_lines` reads such a
# source a line at a time, matching each line whole against the patterns
# below, most common first; a source with any other line, an error included,
# goes whole to `_Parser`. The patterns keep the lexer's token classes: names
# and integers are ASCII, two words stand apart, and a `//` inside a string
# literal starts no comment. A match with a keyword where a name belongs
# sends the source to `_Parser` too.


# Python 3.11 reads `*+` and `++` as possessive; 3.10 rejects them, and its
# plain quantifiers match the same lines (see `_line_pattern`), only slower.
_POSSESSIVE = "+" if sys.version_info >= (3, 11) else ""


def _line_pattern(form: str) -> re.Pattern:
    """A whole-line pattern from `form`, in which a space stands for optional
    blanks, `~` for at least one blank and each `<...>` for a token class.
    Any line may end in a `//` comment.

    Blanks, names and integers are matched possessively where Python can
    (`_POSSESSIVE`): what follows each never starts with a character of its
    class, so giving one back never finds another match, and a line that
    does not match fails without trying every shorter run."""
    for token, regex in (
        ("<args>", r"(\( (?:<opnd>(?: , <opnd>)*)? \))"),
        ("<params>", r"(\( (?:<id>(?: , <id>)*)? \))"),
        ("<opnd>", r'(?:<int>|"[^"]*"|<id>)'),
        ("<index>", r"(<int>|<id>)"),
        ("<mark>", r"(@[LR])?"),
        ("<name>", r"(<id>)"),
        ("<id>", "[A-Za-z_][A-Za-z0-9_]*" + _POSSESSIVE),
        ("<int>", "-?[0-9]+" + _POSSESSIVE),
    ):
        form = form.replace(token, regex)
    blanks, some = r"[\t\r\x20]*" + _POSSESSIVE, r"[\t\r\x20]+" + _POSSESSIVE
    return re.compile((form + " (?://.*)?").replace(" ", blanks).replace("~", some))


_OPERAND = re.compile(r'-?[0-9]+|"[^"]*"|[A-Za-z_][A-Za-z0-9_]*')
# `Position(path, line)` runs the NamedTuple's `__new__` in Python; this
# builds the same tuple in C, once for each line read.
_position = partial(tuple.__new__, Position)
_PROVENANCE = {None: Provenance.BASE, "@L": Provenance.LEFT, "@R": Provenance.RIGHT}


# A literal or an argument list is built once and shared: its parts never
# change.
@lru_cache(maxsize=4096)
def _operand(token: str) -> "str | Const":
    if token[0] == '"':
        return Const(token[1:-1])
    return Const(int(token)) if token[0] in _INT_START else token


@lru_cache(maxsize=4096)
def _operands(group: str) -> tuple:
    """The operands in an `<args>` group."""
    return tuple(map(_operand, _tokens(group)))


def _tokens(group: str) -> tuple[str, ...]:
    """The tokens in an `<args>` or `<params>` group or an `implements`
    list; a keyword among them raises ValueError."""
    tokens = _OPERAND.findall(group)
    if not _KEYWORDS.isdisjoint(tokens):
        raise ValueError("a keyword where a name belongs")
    return tuple(tokens)


def _index(token: str) -> "int | str":
    return int(token) if token[0] in _INT_START else token


def _invoke(pos, mark, name, sep, method, args, result) -> Stmt:
    if sep == ".":
        return VirtualCall(pos=pos, provenance=_PROVENANCE[mark], receiver=name, method=method,
                           args=_operands(args), result=result)
    return StaticCall(pos=pos, provenance=_PROVENANCE[mark], cls=name, method=method,
                      args=_operands(args), result=result)


def _store(pos, base, sep, field, source, mark) -> Stmt:
    if sep == ".":
        return FieldStore(pos=pos, provenance=_PROVENANCE[mark], base=base, field=field, source=_operand(source))
    return StaticStore(pos=pos, provenance=_PROVENANCE[mark], cls=base, field=field, source=_operand(source))


def _access(pos, target, name, sep, member, args, index, mark) -> Stmt:
    if index is not None:
        return ArrayLoad(pos=pos, provenance=_PROVENANCE[mark], target=target, base=name, index=_index(index))
    if sep is None:
        return CopyAssign(pos=pos, provenance=_PROVENANCE[mark], target=target, source=name)
    if args is not None:
        return _invoke(pos, mark, name, sep, member, args, target)
    if sep == ".":
        return FieldLoad(pos=pos, provenance=_PROVENANCE[mark], target=target, base=name, field=member)
    return StaticLoad(pos=pos, provenance=_PROVENANCE[mark], target=target, cls=name, field=member)


def _new_array(pos, target, elem, brackets, size, mark) -> Stmt:
    return ArrayAlloc(pos=pos, provenance=_PROVENANCE[mark], target=target,
                      elem_type=elem + "[]" if brackets else elem, size=int(size))


# Simple statements, most common first: (pattern, builder of its groups).
_STATEMENTS = (
    (_line_pattern(r"<name> (\.|::) <name> = (<opnd>) <mark> ;"), _store),
    (_line_pattern(r"<name> = <name> (?:(\.|::) <name> <args>?|\[ <index> \])? <mark> ;"), _access),
    (_line_pattern(r"call~<name> (\.|::) <name> <args> <mark> ;"),
     lambda pos, name, sep, method, args, mark: _invoke(pos, mark, name, sep, method, args, None)),
    (_line_pattern(r"<name> = new~<name> <args> <mark> ;"),
     lambda pos, target, cls, args, mark: AllocAssign(
         pos=pos, provenance=_PROVENANCE[mark], target=target, cls=cls, args=_operands(args))),
    (_line_pattern(r'<name> = (<int>|"[^"]*") <mark> ;'),
     lambda pos, target, source, mark: CopyAssign(
         pos=pos, provenance=_PROVENANCE[mark], target=target, source=_operand(source))),
    (_line_pattern(r"return(?:~<name>)? <mark> ;"),
     lambda pos, value, mark: Return(pos=pos, provenance=_PROVENANCE[mark], value=value)),
    (_line_pattern(r"<name> = op <args> <mark> ;"),
     lambda pos, target, args, mark: OpaqueOp(
         pos=pos, provenance=_PROVENANCE[mark], target=target, operands=_operands(args))),
    (_line_pattern(r"<name> \[ <index> \] = (<opnd>) <mark> ;"),
     lambda pos, base, index, source, mark: ArrayStore(
         pos=pos, provenance=_PROVENANCE[mark], base=base, index=_index(index), source=_operand(source))),
    (_line_pattern(r"<name> = mkref~<name> <mark> ;"),
     lambda pos, target, type_, mark: ReflectiveAssign(
         pos=pos, provenance=_PROVENANCE[mark], target=target, type=type_)),
    (_line_pattern(r"<name> = newarr~<name>(?: (\[) \] |~)(<int>) <mark> ;"), _new_array),
)
_CONTROL = _line_pattern(r"(?:if~<name> \{|while~<name> \{|\}( else \{)?)")
_CLASS = _line_pattern(r"class~<name>(?:~extends~<name>)?(?:~implements~(<id>(?: , <id>)*))? \{")
_INTERFACE = _line_pattern(r"interface~<name>(?:~extends~<name>)? \{")
_CLOSE = _line_pattern(r"\}")
_SIGNATURE = _line_pattern(r"method~<name> <params> ;")
_FIELD = _line_pattern(r"field~(static~)?<name> : <name>( \[ \])? ;")
_METHOD = _line_pattern(r"((?:public~|private~)?(?:static~)?)method~<name> <params> \{")
_CTOR = _line_pattern(r"ctor <params> \{")


def _groups(pattern: re.Pattern, s: str) -> Optional[tuple]:
    """The groups of `pattern` matched whole on `s`, or None. A keyword in
    a group, where a name belongs, raises ValueError."""
    m = pattern.fullmatch(s)
    if m is None:
        return None
    groups = m.groups()
    if not _KEYWORDS.isdisjoint(groups):
        raise ValueError("a keyword where a name belongs")
    return groups


def _read_lines(unit: SourceUnit) -> Optional[tuple[list[ClassDef], list[InterfaceDef]]]:
    """The declarations of `unit`, read a line at a time; None where a line
    is outside the line layout or the unit does not parse, or where a literal
    is past the digit limit or blocks nest past MAX_NESTING."""
    path = unit.path
    classes: list[ClassDef] = []
    interfaces: list[InterfaceDef] = []
    decl = None  # the class or interface being read
    body: Optional[list[Stmt]] = None  # the statement list being filled
    blocks: list[list[Stmt]] = []  # the statement lists around `body`, innermost last
    try:
        for n, line in enumerate(unit.text.split("\n"), 1):
            s = line.strip(" \t\r")
            if not s or s.startswith("//"):
                continue
            if body is not None:
                if s == "}":
                    body = blocks.pop() if blocks else None
                    continue
                pos = _position((path, n))
                for pattern, build in _STATEMENTS:
                    m = pattern.fullmatch(s)
                    if m:
                        g = m.groups()
                        if not _KEYWORDS.isdisjoint(g):
                            return None
                        body.append(build(pos, *g))
                        break
                else:
                    g = _groups(_CONTROL, s)
                    if g is None:
                        return None
                    if_cond, while_cond, else_ = g
                    if if_cond or while_cond:
                        if len(blocks) >= MAX_NESTING:
                            return None
                        st = If(pos=pos, cond=if_cond) if if_cond else While(pos=pos, cond=while_cond)
                        body.append(st)
                        blocks.append(body)
                        body = st.then_body if if_cond else st.body
                    elif else_:
                        owner = blocks[-1][-1] if blocks else None
                        if not (isinstance(owner, If) and owner.then_body is body):
                            return None
                        body = owner.else_body
                    else:
                        body = blocks.pop() if blocks else None
            elif decl is None:
                if g := _groups(_CLASS, s):
                    name, superclass, ifaces = g
                    decl = ClassDef(name=name, superclass=superclass, interfaces=_tokens(ifaces or ""),
                                    pos=_position((path, n)))
                    classes.append(decl)
                elif g := _groups(_INTERFACE, s):
                    name, extends = g
                    decl = InterfaceDef(name=name, extends=extends, pos=_position((path, n)))
                    interfaces.append(decl)
                else:
                    return None
            elif s[0] == "}":
                if s != "}" and not _CLOSE.fullmatch(s):
                    return None
                decl = None
            elif isinstance(decl, InterfaceDef):
                g = _groups(_SIGNATURE, s)
                if g is None:
                    return None
                name, params = g
                decl.signatures.append(MethodSig(name, _tokens(params), _position((path, n))))
            elif g := _groups(_METHOD, s):
                modifiers, name, params = g
                body = []
                decl.methods.append(MethodDef(
                    name=name, params=_tokens(params), body=body, declaring_class=decl.name,
                    static="static" in modifiers, public=not modifiers.startswith("private"),
                    pos=_position((path, n)),
                ))
            elif g := _groups(_FIELD, s):
                static, name, ftype, brackets = g
                decl.fields.append(FieldDef(name, ftype + "[]" if brackets else ftype, static=static is not None,
                                            pos=_position((path, n))))
            elif g := _groups(_CTOR, s):
                body = []
                decl.constructors.append(MethodDef(
                    name=CTOR_NAME, params=_tokens(g[0]), body=body, declaring_class=decl.name,
                    kind="constructor", pos=_position((path, n)),
                ))
            else:
                return None
    except ValueError:  # a keyword where a name belongs, or an integer past the digit limit
        return None
    return None if decl is not None else (classes, interfaces)


def parse_program(units: list[SourceUnit], validate: bool = True) -> Program:
    """Parse a program from one or more source units; validates by default.
    Two units with one name raise MirError, as positions could not tell
    their statements apart."""
    program = Program()
    names: set[str] = set()
    for unit in units:
        if unit.path in names:
            raise MirError(f"two sources named '{unit.path}': give each source file a distinct name")
        names.add(unit.path)
        classes, interfaces = _read_lines(unit) or _Parser(unit).parse_unit()
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
    left, right = Provenance.LEFT, Provenance.RIGHT
    out: list[MethodDef] = []
    for m in all_methods(p):
        seen_left = seen_right = False
        for st in iter_stmts(m.body):
            seen_left = seen_left or st.provenance is left
            seen_right = seen_right or st.provenance is right
            if seen_left and seen_right:
                out.append(m)
                break
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
