"""Seeded random program generator for the property suites.

Produces small, valid programs (a handful of classes and interfaces, short
method bodies) together with a `Main.main` that wires allocations and calls,
so the same program can be run by the concrete interpreter and analyzed by
both call-graph builders. Generation is type-correct where the analyses care:
field and array stores respect declared types, receivers hold known
allocations, so a concrete run stays inside what the static side predicts.
Reflective instantiation is opt-in and only used for detection properties;
the interpreter rejects it by design.
"""

from __future__ import annotations

import os
import random
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
    OpaqueOp,
    Position,
    Program,
    Provenance,
    ReflectiveAssign,
    Return,
    StaticLoad,
    StaticStore,
    Stmt,
    ValidationError,
    VirtualCall,
    While,
    validate_program,
)

DEFAULT_SEED = 1766


def default_seed() -> int:
    """Generator seed, overridable via the OA_SEED environment variable."""
    raw = os.environ.get("OA_SEED")
    return int(raw) if raw else DEFAULT_SEED


class GeneratedProgram(NamedTuple):
    program: Program
    main: MethodDef
    entry: Optional[MethodDef] = None  # dually modified method, when marked


class _Gen:
    METHOD_POOL = ("ma", "mb", "mc")

    def __init__(self, rng: random.Random, mkref: bool):
        self.rng = rng
        self.mkref = mkref
        self.line = 0
        self.file = "gen.mir"
        self.tmp = 0

    def pos(self) -> Position:
        self.line += 1
        return Position(self.file, self.line)

    def fresh(self) -> str:
        self.tmp += 1
        return f"t{self.tmp}"

    # -- shape

    def build(self) -> Program:
        rng = self.rng
        n_ifaces = rng.randint(0, 2)
        n_classes = rng.randint(2, 4)
        p = Program()

        iface_sigs: dict[str, list[MethodSig]] = {}
        for i in range(n_ifaces):
            name = f"I{i}"
            sigs = []
            for m in rng.sample(self.METHOD_POOL, rng.randint(1, 2)):
                arity = rng.randint(0, 1)
                sigs.append(MethodSig(m, tuple(f"p{k}" for k in range(arity)), self.pos()))
            iface_sigs[name] = sigs
            p.interfaces.append(InterfaceDef(name=name, signatures=sigs, pos=self.pos()))

        self.classes: list[ClassDef] = []
        for i in range(n_classes):
            name = f"C{i}"
            superclass = None
            if i > 0 and rng.random() < 0.3:
                superclass = f"C{rng.randrange(i)}"
            ifaces = tuple(n for n in iface_sigs if rng.random() < 0.35)
            cls = ClassDef(name=name, superclass=superclass, interfaces=ifaces, pos=self.pos())
            self.classes.append(cls)
            p.classes.append(cls)

        type_names = [c.name for c in self.classes] + list(iface_sigs)
        for cls in self.classes:
            for k in range(rng.randint(1, 3)):
                ftype = "int" if rng.random() < 0.45 else rng.choice(type_names)
                cls.fields.append(FieldDef(f"f{k}", ftype, pos=self.pos()))
            if rng.random() < 0.3:
                cls.fields.append(FieldDef("g", "int", static=True, pos=self.pos()))

        # Interface signatures must be implemented by every implementer.
        # This index answers supertype queries only: it memoises members
        # (method order included) on first use, and adding `Main` below
        # gives the program a new one that sees the methods added here.
        h = p.hierarchy()
        for cls in self.classes:
            needed: dict[tuple[str, int], tuple] = {}
            for t in h.supertypes(cls.name):
                for sig in iface_sigs.get(t, ()):
                    needed[(sig.name, len(sig.params))] = sig.params
            extra = rng.randint(0, 2)
            for m in rng.sample(self.METHOD_POOL, extra):
                key = (m, rng.randint(0, 1))
                needed.setdefault(key, tuple(f"p{k}" for k in range(key[1])))
            for (mname, arity), params in sorted(needed.items()):
                if self._defines(cls, mname, arity):
                    continue
                cls.methods.append(
                    MethodDef(
                        name=mname,
                        params=tuple(params) if params else tuple(f"p{k}" for k in range(arity)),
                        body=[],
                        declaring_class=cls.name,
                        pos=self.pos(),
                    )
                )
            if rng.random() < 0.5:
                arity = rng.randint(0, 2)
                cls.constructors.append(
                    MethodDef(
                        name=CTOR_NAME,
                        params=tuple(f"p{k}" for k in range(arity)),
                        body=[],
                        declaring_class=cls.name,
                        kind="constructor",
                        pos=self.pos(),
                    )
                )

        main_cls = ClassDef(name="Main", pos=self.pos())
        self.main = MethodDef(
            name="main",
            params=(),
            body=[],
            declaring_class="Main",
            static=True,
            pos=self.pos(),
        )
        main_cls.methods.append(self.main)
        p.classes.append(main_cls)
        self.program = p
        self.hierarchy = p.hierarchy()

        for cls in self.classes:
            for ctor in cls.constructors:
                ctor.body = self.gen_body(cls, ctor, budget=self.rng.randint(1, 3))
            for m in cls.methods:
                m.body = self.gen_body(cls, m, budget=self.rng.randint(2, 8))
        self.main.body = self.gen_body(main_cls, self.main, budget=self.rng.randint(4, 12))
        return p

    def _defines(self, cls: ClassDef, name: str, arity: int) -> bool:
        return any(m.name == name and len(m.params) == arity for m in cls.methods)

    def _callable_methods(self, cls_name: str) -> list[MethodDef]:
        seen: dict[tuple[str, int], MethodDef] = {}
        for cls in self.hierarchy.chain(cls_name):
            for m in cls.methods:
                if not m.static:
                    seen.setdefault((m.name, len(m.params)), m)
        return [seen[k] for k in sorted(seen)]

    def _instance_fields(self, cls_name: str) -> list[tuple[str, FieldDef]]:
        out = []
        for cls in self.hierarchy.chain(cls_name):
            for f in cls.fields:
                if not f.static:
                    out.append((cls.name, f))
        return out

    def _static_fields(self) -> list[tuple[str, FieldDef]]:
        return [
            (c.name, f) for c in self.classes for f in c.fields if f.static
        ]

    # -- bodies

    def gen_body(self, cls: ClassDef, method: MethodDef, budget: int) -> list[Stmt]:
        # env: local -> ("obj", concrete class) | ("ref", declared type) for
        # mkref values | ("arr", elem type) | "int"
        env: dict[str, object] = {p: "int" for p in method.params}
        body: list[Stmt] = []
        body.append(self._alloc(env))
        if method.declaring_class == "Main" and self.rng.random() < 0.8:
            body.append(self._alloc(env))
        for _ in range(budget):
            st = self._stmt(env, depth=0)
            if st is not None:
                body.append(st)
        if self.rng.random() < 0.2:
            ints = self._locals_of(env, "int")
            body.append(Return(pos=self.pos(), value=self.rng.choice(ints) if ints else None))
        return body

    def _locals_of(self, env, kind) -> list[str]:
        return sorted(name for name, k in env.items() if k == kind or (isinstance(k, tuple) and k[0] == kind))

    def _obj_locals(self, env) -> list[tuple[str, str]]:
        return sorted(
            (name, k[1]) for name, k in env.items() if isinstance(k, tuple) and k[0] == "obj"
        )

    def _int_operand(self, env):
        ints = self._locals_of(env, "int")
        if ints and self.rng.random() < 0.6:
            return self.rng.choice(ints)
        return Const(self.rng.randint(0, 9))

    def _alloc(self, env) -> Stmt:
        cls = self.rng.choice(self.classes)
        target = self.fresh()
        ctor = cls.constructors[0] if cls.constructors else None
        args = tuple(self._int_operand(env) for _ in range(len(ctor.params))) if ctor else ()
        env[target] = ("obj", cls.name)
        return AllocAssign(pos=self.pos(), target=target, cls=cls.name, args=args)

    def _stmt(self, env, depth: int) -> Optional[Stmt]:
        rng = self.rng
        roll = rng.random()
        if roll < 0.12:
            return self._alloc(env)
        if roll < 0.24:
            return self._field_store(env)
        if roll < 0.34:
            return self._field_load(env)
        if roll < 0.52:
            return self._vcall(env)
        if roll < 0.62:
            target = self.fresh()
            env[target] = "int"
            ops = tuple(self._int_operand(env) for _ in range(rng.randint(0, 2)))
            return OpaqueOp(pos=self.pos(), target=target, operands=ops)
        if roll < 0.70:
            locs = sorted(env)
            if not locs:
                return None
            src = rng.choice(locs)
            target = self.fresh()
            env[target] = env[src]
            return CopyAssign(pos=self.pos(), target=target, source=src)
        if roll < 0.78:
            return self._array_stmt(env)
        if roll < 0.84:
            return self._static_stmt(env)
        if roll < 0.90 and depth == 0:
            return self._branch(env, depth)
        if roll < 0.94 and depth == 0:
            return self._loop(env, depth)
        if self.mkref and roll < 0.97:
            target = self.fresh()
            tname = rng.choice([c.name for c in self.classes] + [i.name for i in self.program.interfaces])
            env[target] = ("ref", tname)
            return ReflectiveAssign(pos=self.pos(), target=target, type=tname)
        return self._vcall(env)

    def _field_store(self, env) -> Optional[Stmt]:
        candidates = self._obj_locals(env) + [
            (name, k[1]) for name, k in env.items() if isinstance(k, tuple) and k[0] == "ref"
        ]
        if not candidates:
            return None
        base, cls_name = self.rng.choice(sorted(candidates))
        fields = self._fields_for_type(cls_name)
        if not fields:
            return None
        decl, f = self.rng.choice(fields)
        if f.type == "int":
            src = self._int_operand(env)
        else:
            fits = [
                name
                for name, k in self._obj_locals(env)
                if f.type in self.hierarchy.supertypes(k)
            ]
            if not fits:
                return None
            src = self.rng.choice(fits)
        return FieldStore(pos=self.pos(), base=base, field=f.name, source=src)

    def _fields_for_type(self, type_name: str) -> list[tuple[str, FieldDef]]:
        if type_name in self.hierarchy.classes:
            return self._instance_fields(type_name)
        return []  # interface-typed bases have no declared fields

    def _field_load(self, env) -> Optional[Stmt]:
        objs = self._obj_locals(env)
        if not objs:
            return None
        base, cls_name = self.rng.choice(objs)
        fields = self._instance_fields(cls_name)
        if not fields:
            return None
        _, f = self.rng.choice(fields)
        target = self.fresh()
        env[target] = "int"  # loaded refs are never dispatched on
        return FieldLoad(pos=self.pos(), target=target, base=base, field=f.name)

    def _vcall(self, env) -> Optional[Stmt]:
        candidates = self._obj_locals(env) + [
            (name, k[1]) for name, k in env.items() if isinstance(k, tuple) and k[0] == "ref"
        ]
        if not candidates:
            return None
        recv, tname = self.rng.choice(sorted(candidates))
        if tname in self.hierarchy.classes:
            sigs = [(m.name, len(m.params)) for m in self._callable_methods(tname)]
        else:
            sigs = self._iface_methods(tname)
        if not sigs:
            return None
        name, arity = self.rng.choice(sigs)
        args = tuple(self._int_operand(env) for _ in range(arity))
        result = None
        if self.rng.random() < 0.3:
            result = self.fresh()
            env[result] = "int"
        return VirtualCall(pos=self.pos(), receiver=recv, method=name, args=args, result=result)

    def _iface_methods(self, iname: str) -> list[tuple[str, int]]:
        iface = self.hierarchy.interfaces.get(iname)
        if iface is None:
            return []
        return sorted((s.name, len(s.params)) for s in iface.signatures)

    def _array_stmt(self, env) -> Stmt:
        arrays = [
            (name, k[1]) for name, k in env.items() if isinstance(k, tuple) and k[0] == "arr"
        ]
        rng = self.rng
        if not arrays or rng.random() < 0.4:
            target = self.fresh()
            elem = "int" if rng.random() < 0.5 else rng.choice([c.name for c in self.classes])
            env[target] = ("arr", elem)
            return ArrayAlloc(pos=self.pos(), target=target, elem_type=elem, size=rng.randint(1, 4))
        base, elem = rng.choice(sorted(arrays))
        index = rng.randint(0, 3)
        if rng.random() < 0.5:
            if elem == "int":
                src = self._int_operand(env)
            else:
                fits = [n for n, k in self._obj_locals(env) if elem in self.hierarchy.supertypes(k)]
                if not fits:
                    return ArrayAlloc(
                        pos=self.pos(), target=self.fresh(), elem_type="int", size=1
                    )
                src = rng.choice(fits)
            return ArrayStore(pos=self.pos(), base=base, index=index, source=src)
        target = self.fresh()
        env[target] = "int"
        return ArrayLoad(pos=self.pos(), target=target, base=base, index=index)

    def _static_stmt(self, env) -> Optional[Stmt]:
        statics = self._static_fields()
        if not statics:
            return None
        decl, f = self.rng.choice(statics)
        if self.rng.random() < 0.5:
            return StaticStore(pos=self.pos(), cls=decl, field=f.name, source=self._int_operand(env))
        target = self.fresh()
        env[target] = "int"
        return StaticLoad(pos=self.pos(), target=target, cls=decl, field=f.name)

    def _branch(self, env, depth) -> Stmt:
        cond = self._cond(env)
        then_body = self._small_block(env, depth)
        else_body = self._small_block(env, depth) if self.rng.random() < 0.5 else []
        return If(pos=self.pos(), cond=cond, then_body=then_body, else_body=else_body)

    def _loop(self, env, depth) -> Stmt:
        cond = self._cond(env)
        body = self._small_block(env, depth)
        # Bias toward termination; a spinning loop only costs oracle steps.
        if self.rng.random() < 0.75:
            body.append(CopyAssign(pos=self.pos(), target=cond, source=Const(0)))
        return While(pos=self.pos(), cond=cond, body=body)

    def _cond(self, env) -> str:
        ints = self._locals_of(env, "int")
        if ints:
            return self.rng.choice(ints)
        name = self.fresh()
        env[name] = "int"
        return name

    def _small_block(self, env, depth) -> list[Stmt]:
        # Blocks share the enclosing env: anything assigned inside is visible
        # after the block for generation purposes, mirroring untyped locals.
        out = []
        for _ in range(self.rng.randint(1, 3)):
            st = self._stmt(env, depth + 1)
            if st is not None:
                out.append(st)
        return out


def generate_program(
    seed: int,
    mkref: bool = False,
    mark_changes: bool = False,
) -> GeneratedProgram:
    """Build a random valid program; optionally mark one method's statements
    with both sides' provenance so it qualifies as an analysis entry."""
    rng = random.Random(seed)
    gen = _Gen(rng, mkref)
    program = gen.build()
    diags = validate_program(program)
    if diags:
        raise ValidationError(diags)

    entry = None
    if mark_changes:
        candidates = [
            m
            for c in program.classes
            for m in c.methods
            if not m.static and len(m.body) >= 2
        ]
        if candidates:
            entry = rng.choice(candidates)
            simple = [st for st in entry.body if not isinstance(st, (If, While))]
            if len(simple) >= 2:
                k = min(len(simple), rng.randint(2, 4))
                chosen = rng.sample(simple, k)
                half = max(1, len(chosen) // 2)
                for st in chosen[:half]:
                    st.provenance = Provenance.LEFT
                for st in chosen[half:]:
                    st.provenance = Provenance.RIGHT
            else:
                entry = None
    return GeneratedProgram(program=program, main=gen.main, entry=entry)
