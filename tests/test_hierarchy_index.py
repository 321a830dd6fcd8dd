"""The indexed class hierarchy against the linear scans it replaced.

`Program.hierarchy()` answers name, supertype, implementer, member and
constructor queries from maps built once per program. The functions below
are the original linear-scan versions, kept only here as the oracle (the
supertype search is `conftest.reference_supertypes`): every
query is asked of both, for every type and every pair of types, through
the `Hierarchy` methods and the package's `subtype_of`, `implementers_of`
and `supertypes_of`.
"""

from __future__ import annotations

import pytest

from conftest import reference_supertypes
from oadetect.frontend import MAX_NESTING, parse_source
from oadetect.harness import load_bundled, load_scenario, scenario_units
from oadetect.mir import (
    ClassDef,
    FieldDef,
    Hierarchy,
    If,
    InterfaceDef,
    MethodDef,
    MirError,
    OpaqueOp,
    Position,
    Program,
    While,
    all_methods,
    implementers_of,
    iter_stmts,
    subtype_of,
    supertypes_of,
)
from oadetect.randprog import default_seed, generate_program
from test_byte_identity import WORKLOAD_DIGESTS, WORKLOAD_SEED, _bench_workloads
from test_differential import seed_range

BUNDLED = ("fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy")
UNKNOWN = "NoSuchType"


# ---------------------------------------------------------------------------
# Linear-scan oracle


def ref_class_named(p, name):
    for c in p.classes:
        if c.name == name:
            return c
    return None


def ref_interface_named(p, name):
    for i in p.interfaces:
        if i.name == name:
            return i
    return None


def ref_declares(p, name):
    return ref_class_named(p, name) is not None or ref_interface_named(p, name) is not None


def ref_declared_supers(p, name):
    c = ref_class_named(p, name)
    if c is not None:
        return ([c.superclass] if c.superclass else []) + list(c.interfaces)
    i = ref_interface_named(p, name)
    if i is not None:
        return [i.extends] if i.extends else []
    raise MirError(f"unknown type '{name}'")


def ref_subtype(sub, sup, p):
    return sup in reference_supertypes(sub, p)


def ref_implementers(t, p):
    return {c.name for c in p.classes if t in reference_supertypes(c.name, p)}


def ref_lca(a, b, p):
    if a == b:
        return a
    if not ref_declares(p, a) or not ref_declares(p, b):
        return None
    common = reference_supertypes(a, p) & reference_supertypes(b, p)
    minimal = [t for t in common if not any(s != t and t in reference_supertypes(s, p) for s in common)]
    return minimal[0] if len(minimal) == 1 else None


def ref_sorted_members(c):
    return sorted(c.constructors + c.methods, key=lambda m: (m.pos.line, m.name))


def ref_methods_by_id(p):
    return {m.id: m for c in p.classes for m in ref_sorted_members(c)}


def ref_constructor(p, cls_name, arity):
    c = ref_class_named(p, cls_name)
    if c is None:
        return None
    for ctor in c.constructors:
        if len(ctor.params) == arity:
            return ctor
    return None


def ref_chain(p, cls_name):
    c = ref_class_named(p, cls_name)
    while c is not None:
        yield c
        c = ref_class_named(p, c.superclass)


def ref_method(p, cls_name, mname, arity, static):
    for c in ref_chain(p, cls_name):
        for m in c.methods:
            if m.name == mname and len(m.params) == arity and m.static == static:
                return m
    return None


def ref_field(p, cls_name, fname, static):
    for c in ref_chain(p, cls_name):
        for f in c.fields:
            if f.name == fname and f.static == static:
                return c.name, f
    return None


def ref_field_of(p, cls_name, fname):
    hit = ref_field(p, cls_name, fname, False)
    if hit is None:
        found = [(c.name, f) for c in p.classes for f in c.fields if f.name == fname and not f.static]
        hit = found[0] if len(found) == 1 else None
    return (hit[0], hit[1].type) if hit is not None else None


def ref_static_field_of(p, cls_name, fname):
    hit = ref_field(p, cls_name, fname, True)
    return (hit[0], hit[1].type) if hit is not None else (cls_name, None)


def ref_dispatch_targets(p, receiver_type, mname, arity):
    """The instance methods the implementers of a declared receiver type
    reach, else those every class reaches; one per id, sorted by id."""
    if receiver_type is not None and ref_declares(p, receiver_type):
        found = {}
        for cls in ref_implementers(receiver_type, p):
            m = ref_method(p, cls, mname, arity, False)
            if m is not None:
                found[m.id] = m
        if found:
            return [found[k] for k in sorted(found)]
    found = {}
    for c in p.classes:
        m = ref_method(p, c.name, mname, arity, False)
        if m is not None:
            found[m.id] = m
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------


def assert_index_matches(p: Program) -> int:
    """Every query on every type and type pair; returns the number asked."""
    h = p.hierarchy()
    names = sorted({c.name for c in p.classes} | {i.name for i in p.interfaces})
    probes = names + [UNKNOWN]
    asked = 0
    for n in probes:
        assert h.classes.get(n) is ref_class_named(p, n)
        assert h.interfaces.get(n) is ref_interface_named(p, n)
        assert h.declares(n) == ref_declares(p, n)
        asked += 3
        if n != UNKNOWN:
            assert h.declared_supers(n) == ref_declared_supers(p, n)
            asked += 1
    for a in names:
        assert supertypes_of(a, p) == reference_supertypes(a, p)
        assert implementers_of(a, p) == ref_implementers(a, p)
        asked += 2
        for b in probes:
            if b != UNKNOWN:
                assert subtype_of(a, b, p) == ref_subtype(a, b, p)
                asked += 1
            assert h.lca(a, b) == ref_lca(a, b, p)
            assert h.lca(b, a) == ref_lca(b, a, p)
            asked += 2
        assert h.lca(a, None) is None and h.lca(None, a) is None
        asked += 1

    got = h.methods_by_id()
    want = ref_methods_by_id(p)
    assert list(got) == list(want)
    assert all(got[k] is want[k] for k in want)
    asked += 1

    method_names = sorted({m.name for c in p.classes for m in c.constructors + c.methods})
    field_names = sorted({f.name for c in p.classes for f in c.fields})
    for cls in probes:
        assert list(h.chain(cls)) == list(ref_chain(p, cls))
        asked += 1
        for arity in range(4):
            assert h.constructor_of(cls, arity) is ref_constructor(p, cls, arity)
            asked += 1
            for mname in method_names:
                assert h.resolve_method(cls, mname, arity, static=False) is ref_method(p, cls, mname, arity, False)
                assert h.resolve_method(cls, mname, arity, static=True) is ref_method(p, cls, mname, arity, True)
                asked += 2
        for fname in field_names:
            assert h.resolve_field(cls, fname, static=False) == ref_field(p, cls, fname, False)
            assert h.resolve_field(cls, fname, static=True) == ref_field(p, cls, fname, True)
            assert h.field_of(cls, fname) == ref_field_of(p, cls, fname)
            assert h.static_field_of(cls, fname) == ref_static_field_of(p, cls, fname)
            asked += 4
    for fname in field_names + ["noSuchField"]:
        assert h.field_of(None, fname) == ref_field_of(p, None, fname)
        asked += 1
    signatures = sorted({(m.name, len(m.params)) for m in ref_methods_by_id(p).values()}) + [("noSuchMethod", 0)]
    for recv in probes + [None, "int", "String", f"{probes[0]}[]"]:
        for mname, arity in signatures:
            got = h.dispatch_targets(recv, mname, arity)
            want = ref_dispatch_targets(p, recv, mname, arity)
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
            asked += 1
    return asked


def assert_unknown_type_errors(p: Program) -> None:
    for _ in range(2):  # a second ask must raise again, not hit a cache
        with pytest.raises(MirError, match=f"unknown type '{UNKNOWN}'"):
            supertypes_of(UNKNOWN, p)
        with pytest.raises(MirError, match=f"unknown type '{UNKNOWN}'"):
            implementers_of(UNKNOWN, p)
        some = (p.classes or p.interfaces)[0].name
        with pytest.raises(MirError, match=f"unknown type '{UNKNOWN}'"):
            subtype_of(UNKNOWN, some, p)
        with pytest.raises(MirError, match=f"unknown type '{UNKNOWN}'"):
            subtype_of(some, UNKNOWN, p)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_match_linear_scans(name):
    program, _ = scenario_units(load_bundled(name))
    assert assert_index_matches(program) > 0
    assert_unknown_type_errors(program)


def test_random_programs_match_linear_scans():
    base = default_seed() + 3000
    for i in range(30):
        program = generate_program(base + i, mkref=(i % 2 == 0)).program
        assert_index_matches(program)
        assert_unknown_type_errors(program)


def test_index_sees_declarations_added_after_a_query():
    p = parse_source(
        "interface I {\n  method m();\n}\n"
        "class A implements I {\n  method m() {\n  }\n}\n"
    )
    assert implementers_of("I", p) == {"A"}
    assert p.hierarchy().lca("A", "I") == "I"
    with pytest.raises(MirError, match="unknown type 'B'"):
        supertypes_of("B", p)

    ctor = MethodDef(name="<init>", params=("x",), body=[], declaring_class="B", kind="constructor")
    p.classes.append(
        ClassDef(
            name="B",
            superclass="A",
            fields=[FieldDef("f", "int")],
            methods=[MethodDef(name="n", params=(), body=[], declaring_class="B")],
            constructors=[ctor],
        )
    )
    assert implementers_of("I", p) == {"A", "B"}
    assert supertypes_of("B", p) == {"B", "A", "I"}
    assert p.hierarchy().constructor_of("B", 1) is ctor
    assert "B.n/0" in p.hierarchy().methods_by_id()

    p.interfaces.append(InterfaceDef(name="J", extends="I"))
    assert subtype_of("J", "I", p)
    assert_index_matches(p)

    # A replaced list of the same length is noticed too.
    p.classes = [ClassDef(name="Z"), ClassDef(name="Y")]
    assert "A" not in p.hierarchy().classes and "Z" in p.hierarchy().classes
    assert_index_matches(p)


def test_first_declaration_of_a_name_wins():
    p = parse_source("class A {\n  field x: int;\n}\nclass A {\n  field y: int;\n}\n", validate=False)
    assert p.hierarchy().classes["A"] is p.classes[0]
    assert p.hierarchy().resolve_field("A", "y", static=False) is None
    assert_index_matches(p)


def test_memoised_answers_cannot_be_corrupted(fig1_advanced):
    p, _ = fig1_advanced
    with pytest.raises(AttributeError):
        implementers_of("Report", p).add("Main")
    with pytest.raises(AttributeError):
        supertypes_of("ReportSimple", p).add("Main")
    with pytest.raises(TypeError):
        p.hierarchy().methods_by_id()["X.y/0"] = None
    assert implementers_of("Report", p) == {"ReportSimple", "ReportAdvanced"}


# ---------------------------------------------------------------------------
# Virtual dispatch

DISPATCH = (
    "interface I {\n  method m();\n}\n"
    "interface Lonely {\n  method m();\n}\n"
    "class A implements I {\n  method m() {\n  }\n}\n"
    "class B extends A {\n}\n"
    "class C {\n  method m() {\n  }\n  method k(x) {\n  }\n}\n"
)


def _ids(methods) -> list[str]:
    return [m.id for m in methods]


def test_dispatch_targets_are_the_receivers_implementers_definitions():
    h = parse_source(DISPATCH).hierarchy()
    # B inherits A.m, so it adds no definition of its own.
    assert _ids(h.dispatch_targets("I", "m", 0)) == ["A.m/0"]
    assert _ids(h.dispatch_targets("B", "m", 0)) == ["A.m/0"]
    assert _ids(h.dispatch_targets("C", "k", 1)) == ["C.k/1"]


def test_dispatch_targets_are_memoised():
    h = parse_source(DISPATCH).hierarchy()
    for recv in ("I", None):
        first = h.dispatch_targets(recv, "m", 0)
        assert isinstance(first, tuple)
        assert h.dispatch_targets(recv, "m", 0) is first


def test_dispatch_targets_fall_back_to_every_providing_class():
    h = parse_source(DISPATCH).hierarchy()
    # Unknown, undeclared, array and primitive receivers, and an interface
    # that no class implements.
    for recv in (None, "Undeclared", "A[]", "int", "String", "Lonely"):
        assert _ids(h.dispatch_targets(recv, "m", 0)) == ["A.m/0", "C.m/0"]
    # I's implementers provide no k/1, so every class that does answers.
    assert _ids(h.dispatch_targets("I", "k", 1)) == ["C.k/1"]


def test_dispatch_targets_of_a_method_no_class_provides():
    h = parse_source(DISPATCH).hierarchy()
    assert h.dispatch_targets("I", "nosuch", 0) == ()
    assert h.dispatch_targets(None, "m", 1) == ()
    assert h.dispatch_targets("Undeclared", "k", 0) == ()


def test_dispatch_targets_see_a_class_added_after_a_query():
    p = parse_source(DISPATCH)
    assert _ids(p.hierarchy().dispatch_targets("I", "m", 0)) == ["A.m/0"]
    assert _ids(p.hierarchy().dispatch_targets(None, "m", 0)) == ["A.m/0", "C.m/0"]
    p.classes.append(
        ClassDef(name="D", interfaces=("I",), methods=[MethodDef(name="m", params=(), body=[], declaring_class="D")])
    )
    assert _ids(p.hierarchy().dispatch_targets("I", "m", 0)) == ["A.m/0", "D.m/0"]
    assert _ids(p.hierarchy().dispatch_targets(None, "m", 0)) == ["A.m/0", "C.m/0", "D.m/0"]
    assert_index_matches(p)


# ---------------------------------------------------------------------------
# Closures built from closures, the method order, statement walks and ids


def assert_closures_match(p: Program) -> int:
    """Each type's closure and implementer set against the per-type
    search, from fresh indexes queried in three orders: types in
    declaration order, in reverse, and implementer sets first. Returns the
    number of types."""
    names = [d.name for d in p.classes + p.interfaces]
    want = {t: reference_supertypes(t, p) for t in names}
    implementers = {t: {c.name for c in p.classes if t in want[c.name]} for t in names}
    for order in (names, names[::-1]):
        h = Hierarchy(p)
        for t in order:
            assert h.supertypes(t) == want[t], t
    h = Hierarchy(p)
    for t in names:
        assert h.implementers(t) == implementers[t], t
    for t in names:
        assert h.supertypes(t) == want[t], t
    return len(names)


@pytest.fixture(scope="module")
def programs(tmp_path_factory) -> list[Program]:
    """The seed range (`mkref` off and on), the bundled corpus and the
    bench workloads at their seed, built once for this module."""
    found = [p for _, _, p, _ in seed_range()]
    found += [scenario_units(load_bundled(name))[0] for name in BUNDLED]
    root = tmp_path_factory.mktemp("workloads")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("OA_SEED", raising=False)  # as the benchmark builds its workloads
        for workload in sorted(WORKLOAD_DIGESTS):
            wl = _bench_workloads().build_workload(workload, root / workload, WORKLOAD_SEED)
            found += [scenario_units(load_scenario(spec.directory))[0] for spec in wl.scenarios]
    return found


def test_closures_match_the_per_type_search(programs):
    assert sum(assert_closures_match(p) for p in programs) > 1000
    for p in programs:
        assert_unknown_type_errors(p)


@pytest.mark.parametrize("source, closures", [
    # A cycle, and a class and an interface outside it that reach it.
    (
        "class A extends B {\n}\nclass B extends A implements I {\n}\nclass C extends A {\n}\n"
        "interface I extends J {\n}\ninterface J extends I {\n}\n",
        {"A": "ABIJ", "B": "ABIJ", "C": "ABCIJ", "I": "IJ", "J": "IJ"},
    ),
    # A self-cycle, and a class below it.
    ("class A extends A {\n}\nclass B extends A {\n}\n", {"A": "A", "B": "AB"}),
    # Supertypes no declaration names are left out.
    (
        "class A extends Gone implements I, Lost {\n}\ninterface I extends Missing {\n}\n",
        {"A": "AI", "I": "I"},
    ),
])
def test_closures_of_cycles_and_undeclared_supertypes(source, closures):
    p = parse_source(source, validate=False)
    assert assert_closures_match(p) == len(closures)
    assert assert_masks_match(p) == len(closures) ** 2
    h = p.hierarchy()
    assert {t: "".join(sorted(h.supertypes(t))) for t in closures} == closures
    assert_unknown_type_errors(p)


def _chain(n: int, cycle: bool = False) -> Program:
    """Classes C0 .. C(n-1), each extending the one before; C0 extends the
    last when `cycle` is set."""
    return Program([
        ClassDef(name=f"C{i}", superclass=f"C{i - 1}" if i else (f"C{n - 1}" if cycle else None))
        for i in range(n)
    ])


def test_closures_of_a_chain_and_a_cycle_in_every_query_order():
    for cycle in (False, True):
        assert assert_closures_match(_chain(300, cycle)) == 300


def test_a_5000_class_chain_closes_without_recursing():
    n = 5000
    p = _chain(n)
    h = p.hierarchy()
    for t in (f"C{n - 1}", "C0", "C1", f"C{n // 2}"):
        assert h.supertypes(t) == reference_supertypes(t, p)
    assert len(h.supertypes(f"C{n - 1}")) == n


def test_a_5000_class_cycle_closes_without_recursing():
    p = _chain(5000, cycle=True)
    h = p.hierarchy()
    everything = reference_supertypes("C4999", p)
    assert len(everything) == 5000
    assert h.supertypes("C4999") == everything
    assert h.supertypes("C0") == everything  # taken whole from C4999's closure
    assert_unknown_type_errors(p)


# ---------------------------------------------------------------------------
# The bitmask index against the oracles


def ref_implementers_by_search(t: str, p: Program) -> set[str]:
    """The classes at or below `t`, by a search over the declared
    supertypes reversed."""
    below: dict[str, list[str]] = {}
    first: set[str] = set()  # the first declaration of a name wins
    for d in p.classes + p.interfaces:
        if d.name not in first:
            first.add(d.name)
            supers = [d.superclass, *d.interfaces] if isinstance(d, ClassDef) else [d.extends]
            for s in supers:
                if s:
                    below.setdefault(s, []).append(d.name)
    seen, work = {t}, [t]
    while work:
        for sub in below.get(work.pop(), ()):
            if sub not in seen:
                seen.add(sub)
                work.append(sub)
    return seen & {c.name for c in p.classes}


def assert_masks_match(p: Program) -> int:
    """Each type's closure and implementer set, and the subtype test and
    least common supertype of each pair of types, from a fresh index against
    the oracles: the per-type search, the reversed search, and `ref_lca`'s
    definition over the searched closures. Returns the pairs asked."""
    h = Hierarchy(p)
    names = list(dict.fromkeys(d.name for d in p.classes + p.interfaces))
    closure = {t: reference_supertypes(t, p) for t in names}
    for t in names:
        assert h.supertypes(t) == closure[t], t
        assert h.implementers(t) == ref_implementers_by_search(t, p), t
    for a in names:
        for b in names:
            assert h.is_subtype(a, b) == subtype_of(a, b, p) == (b in closure[a]), (a, b)
            common = closure[a] & closure[b]
            minimal = [t for t in common if not any(s != t and t in closure[s] for s in common)]
            want = a if a == b else minimal[0] if len(minimal) == 1 else None
            assert h.lca(a, b) == want, (a, b)
    return len(names) ** 2


def test_masks_match_the_oracles(programs):
    assert sum(assert_masks_match(p) for p in programs) > 50_000


@pytest.mark.parametrize("n, step", [(300, 7), (5000, 997)])
@pytest.mark.parametrize("reverse", [False, True], ids=["declared", "reversed"])
def test_masks_of_a_chain_match_the_oracles(n, step, reverse):
    # Declared in reverse, the first type numbered is the deepest, so the
    # component search runs the whole chain on its stack before it closes
    # one. Ci's closure is C0..Ci, so the least common supertype of Ci and
    # Cj is C(min(i, j)).
    p = _chain(n)
    if reverse:
        p.classes.reverse()
    h = p.hierarchy()
    probes = sorted({*range(0, n, step), 1, n - 2, n - 1})
    closure = {i: reference_supertypes(f"C{i}", p) for i in probes}
    for i in probes:
        assert h.supertypes(f"C{i}") == closure[i] == {f"C{k}" for k in range(i + 1)}
        assert h.implementers(f"C{i}") == ref_implementers_by_search(f"C{i}", p)
        for j in probes:
            assert h.is_subtype(f"C{i}", f"C{j}") == (f"C{j}" in closure[i])
            assert h.lca(f"C{i}", f"C{j}") == f"C{min(i, j)}"


def test_all_methods_is_each_class_sorted_by_line_then_name(programs):
    # Members on one line (here none has a position) go by name.
    unplaced = [MethodDef(name=n, params=(), body=[], declaring_class="A") for n in ("b", "a")]
    programs = programs + [Program([ClassDef(name="A", methods=unplaced)])]
    assert [m.name for m in all_methods(programs[-1])] == ["a", "b"]
    for p in programs:
        want = [m for c in p.classes for m in ref_sorted_members(c)]
        got = list(all_methods(p))
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
        assert list(all_methods(p)) == got  # a fresh iterator each call
        assert list(p.hierarchy().methods_by_id().values()) == got


def _recursive_stmts(body) -> list:
    out = []
    for st in body:
        out.append(st)
        if isinstance(st, If):
            out += _recursive_stmts(st.then_body)
            out += _recursive_stmts(st.else_body)
        elif isinstance(st, While):
            out += _recursive_stmts(st.body)
    return out


def _nested_body(depth: int) -> list:
    """Statements before, between and after blocks, `if`/`else` and
    `while` alternating, nested `depth` deep."""
    line = iter(range(1, 10 * depth + 10))

    def op() -> OpaqueOp:
        return OpaqueOp(pos=Position("n.mir", next(line)), target="x")

    inner: list = [op()]
    for level in range(depth):
        if level % 2:
            block = While(pos=Position("n.mir", next(line)), cond="c", body=[op(), *inner, op()])
        else:
            block = If(pos=Position("n.mir", next(line)), cond="c",
                       then_body=[op(), *inner], else_body=[op(), While(pos=Position("n.mir", next(line)), cond="c")])
        inner = [op(), block, op()]
    return inner


def test_iter_stmts_walks_in_pre_order_at_the_nesting_limit():
    body = _nested_body(MAX_NESTING)
    want = _recursive_stmts(body)
    got = list(iter_stmts(body))
    assert len(got) == len(want) > 3 * MAX_NESTING and all(a is b for a, b in zip(got, want))
    assert list(iter_stmts([])) == []
    flat = [OpaqueOp(pos=Position("n.mir", i), target="x") for i in range(3)]
    assert list(iter_stmts(flat)) == flat


def test_method_ids_and_display_names_are_unchanged():
    ctor = MethodDef(name="<init>", params=("a", "b"), body=[], declaring_class="A", kind="constructor")
    assert (ctor.id, ctor.display) == ("A.<init>/2", "A.<init>()")
    m = MethodDef(name="run", params=(), body=[], declaring_class="Main", static=True)
    assert (m.id, m.display) == ("Main.run/0", "Main.run()")
    # Neither is a field: records compare and print as before.
    assert "id" not in MethodDef._fields and "display" not in repr(m)
    for name in BUNDLED:
        for m in all_methods(scenario_units(load_bundled(name))[0]):
            assert m.id == f"{m.declaring_class}.{m.name}/{len(m.params)}"
            assert m.display == f"{m.declaring_class}.{m.name}()"
