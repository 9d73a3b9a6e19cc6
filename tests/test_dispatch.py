"""The per-node walks dispatch on a node's exact class.

`Evaluator.evaluate`, `apply`, `whnf`, `_unfold`, `_match`, `size_view` and
`_read`, `sizes.normalize` (on the base of each pair) and `Checker.check`,
`infer` and `_infer_atom` read `type(x)` once and test it with `is`, in
place of a `match` over class patterns or an `isinstance` chain.  The two
pick the same arm only while every node class is a leaf class, so the first
test asserts that, for classes found with `__subclasses__()`: a class added
later is covered without editing this file.  The tables then pin what each walk
gives on a minimal instance of every concrete class (a value and its
readback, a normal form, a match outcome, or a diagnostic); a class without
a row fails.  The table of `apply` has a row for each kind of defined head
too: a fun that saturates, one left under-applied, a cofun, and a fun whose
clauses are still being checked.  An AST scan keeps `match` statements out
of these functions, and `isinstance` out of `apply`, `whnf` and `_unfold`."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from sizedcheck.diagnostics import Diagnostic
from sizedcheck.evaluator import _NOMATCH, _STUCK
from sizedcheck.pretty import pretty
from sizedcheck.signature import ConEntry, DataEntry, FunEntry, LetEntry
from sizedcheck.sizes import INFTY, bump, format_size, normalize, ns_var
from sizedcheck.syntax import (
    Annot,
    App,
    CaseData,
    CaseSize,
    Con,
    Def,
    Elided,
    Expr,
    Ident,
    Lam,
    NOPOS,
    Pattern,
    PCon,
    PDot,
    Pi,
    PSizeRel,
    PSucc,
    PVar,
    PWild,
    SetU,
    Size,
    SizeU,
    Var,
    fresh_ident,
)
from sizedcheck.values import (
    VSET,
    VSIZEU,
    Closure,
    Thunk,
    Value,
    VCon,
    VData,
    VDef,
    VLam,
    VNe,
    VPi,
    VSet,
    VSize,
    VSizeU,
)

from conftest import NAT, STREAM, build

SRC = Path(__file__).resolve().parent.parent / "src" / "sizedcheck"

PROGRAM = NAT + STREAM + """
fun pred : Nat -> Nat
{ pred zero = zero
; pred (succ n) = n
}
fun const : Nat -> Nat -> Nat
{ const m n = m
}
cofun zeros : [i : Size] -> Stream Nat i
{ zeros ($ i) = cons Nat i zero (zeros i)
}
let one : Nat = succ zero
"""


def _concrete(base: type) -> set[type]:
    out, todo = set(), list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        out.add(cls)
        todo += cls.__subclasses__()
    return out


@pytest.mark.parametrize("base", [Expr, Pattern, Value], ids=lambda b: b.__name__)
def test_node_classes_are_leaves(base):
    inner = sorted(c.__name__ for c in _concrete(base) if c.__subclasses__())
    assert inner == []


def test_signature_entries_are_leaves():
    assert [c.__subclasses__() for c in (DataEntry, FunEntry, LetEntry, ConEntry)] == [[]] * 4


@pytest.fixture(scope="module")
def world():
    ch, _, _ = build(PROGRAM)
    names = {t: ch.sig.by_text[t]
             for t in ("Nat", "zero", "succ", "pred", "const", "zeros", "one")}
    # a fun whose clauses are still being checked has no totality report yet
    rigid = fresh_ident("rigid")
    ch.sig.add(rigid, FunEntry(rigid, False, VSET, 1, None, []))
    names["rigid"] = rigid
    return ch.ev, names


# -- evaluate --------------------------------------------------------------------


def _eval_rows(n):
    x, i, j, m = (fresh_ident(t) for t in "xijm")
    nat, zero, succ = Def(n["Nat"]), Con(n["zero"]), Con(n["succ"])
    one = App(succ, zero)
    branches = [(PCon(n["succ"], [PVar(m)]), Var(m)), (PCon(n["zero"], []), SetU())]
    return {
        Var: [(Var(x), ("VNe", "x"))],
        Def: [(nat, ("VData", "Nat")), (Def(n["pred"]), ("VDef", "pred")),
              (Def(n["one"]), ("VCon", "succ zero"))],
        Con: [(zero, ("VCon", "zero"))],
        App: [(one, ("VCon", "succ zero")), (App(Def(n["pred"]), one), ("VCon", "zero")),
              (App(SetU(), zero), ("STUCK-MATCH", "application of a non-function value"))],
        Lam: [(Lam(x, Var(x)), ("VLam", "\\ x -> x"))],
        Pi: [(Pi(Annot.RELEVANT, None, nat, nat), ("VPi", "Nat -> Nat"))],
        SetU: [(SetU(), ("VSet", "Set"))],
        SizeU: [(SizeU(), ("VSizeU", "Size"))],
        Size: [(Size(((INFTY, 1),)), ("VSize", "#")), (Size(((i, 1),)), ("VSize", "$ i"))],
        CaseSize: [(CaseSize(((i, 1),), j, Var(j)), ("VSize", "$ i"))],
        CaseData: [(CaseData(zero, branches), ("VSet", "Set")),
                   (CaseData(one, branches), ("VCon", "zero")),
                   (CaseData(Var(x), branches), ("STUCK-MATCH", "case on a neutral value")),
                   (CaseData(zero, branches[:1]), ("STUCK-MATCH", "no case branch matches"))],
        Elided: [(Elided(), ("STUCK-MATCH", "cannot evaluate an elided value"))],
    }


def _evaluated(ev, e: Expr):
    try:
        v = ev.evaluate(None, e)
    except Diagnostic as d:
        return d.code, d.message
    return type(v).__name__, pretty(ev.quote(v))


def test_evaluate_table_covers_every_expression_class(world):
    assert set(_eval_rows(world[1])) == _concrete(Expr)


@pytest.mark.parametrize("cls", sorted(_concrete(Expr), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_evaluate_on_a_minimal_instance(world, cls):
    ev, names = world
    for e, want in _eval_rows(names)[cls]:
        ev.reset_budget()
        assert _evaluated(ev, e) == want


# -- apply ---------------------------------------------------------------------------


# the position of each argument's application: a head that cannot be applied
# is reported at the argument that meets it
POSS = [11, 22]


def _apply_rows(n):
    x = fresh_ident("x")
    zero = Thunk.of(VCon(n["zero"], ()))
    one = Thunk.of(VCon(n["succ"], (zero,)))
    infty = Thunk.of(VSize(((INFTY, 0),)))
    stuck = ("STUCK-MATCH", "application of a non-function value")
    return {
        VLam: [(VLam(Closure(None, x, Var(x))), [zero], ("VCon", "zero")),
               # the lambda's body, Set, meets the second argument
               (VLam(Closure(None, x, SetU())), [zero, one], stuck + (22,))],
        VCon: [(VCon(n["succ"], ()), [zero], ("VCon", "succ zero"))],
        VData: [(VData(n["Nat"], ()), [zero], ("VData", "Nat zero"))],
        VNe: [(VNe(x), [zero, one], ("VNe", "x zero (succ zero)"))],
        VDef: [(VDef(n["pred"], []), [one], ("VCon", "zero")),
               # the leftover argument is applied to what `pred one` unfolds
               # to; apply does not check types
               (VDef(n["pred"], []), [one, zero], ("VCon", "zero zero")),
               (VDef(n["const"], []), [one], ("VDef", "const (succ zero)")),
               (VDef(n["const"], [(one, Annot.RELEVANT)]), [zero], ("VCon", "succ zero")),
               (VDef(n["zeros"], []), [infty], ("VDef", "zeros #")),
               (VDef(n["rigid"], []), [one], ("VDef", "rigid (succ zero)"))],
        VPi: [(VPi(Annot.RELEVANT, VSET, Closure(None, None, SetU())), [zero], stuck + (11,))],
        VSet: [(VSET, [zero], stuck + (11,))],
        VSizeU: [(VSIZEU, [zero], stuck + (11,))],
        VSize: [(VSize(((INFTY, 0),)), [zero], stuck + (11,))],
    }


def _applied(ev, head: Value, args: list[Thunk]):
    try:
        v = ev.apply(head, [(th, Annot.RELEVANT) for th in args], POSS[:len(args)])
    except Diagnostic as d:
        return d.code, d.message, d.pos
    return type(v).__name__, pretty(ev.quote(v))


def test_apply_table_covers_every_value_class(world):
    assert set(_apply_rows(world[1])) == _concrete(Value)


@pytest.mark.parametrize("cls", sorted(_concrete(Value), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_apply_on_a_minimal_instance(world, cls):
    ev, names = world
    for head, args, want in _apply_rows(names)[cls]:
        ev.reset_budget()
        assert _applied(ev, head, args) == want


# -- normalize ---------------------------------------------------------------------


# a size is a tuple of (base, successors) pairs; `normalize` branches on the
# class of each base: a variable, a hole's int id, or #
BASES = (Ident, int, type(INFTY))


def _normalize_rows():
    i, j, k = (fresh_ident(t) for t in "ijk")
    return {
        Ident: [(((i, 0),), "j+1"), (((k, 0),), "k"), (((k, 2),), "k+2"), (((i, 1),), "j+2"),
                (((k, 0), (i, 1)), "max(j+2, k)")],
        type(INFTY): [(((INFTY, 0),), "#"), (((INFTY, 1),), "#"), (((k, 0), (INFTY, 0)), "#")],
        int: [(((7, 0),), "j+1"), (((8, 0),), "?8")],
    }, {i.uid: bump(ns_var(j), 1)}, {7: ns_var(i)}


def test_normalize_table_covers_every_size_class():
    assert set(_normalize_rows()[0]) == set(BASES)


@pytest.mark.parametrize("cls", BASES, ids=lambda c: c.__name__)
def test_normalize_on_a_minimal_instance(cls):
    rows, bound, holes = _normalize_rows()
    for s, want in rows[cls]:
        ns = normalize(s, lambda x: bound.get(x.uid), holes)
        assert format_size(ns, {8: "?8"}) == want
    # without a lookup or a hole table a hole stays a hole
    assert normalize(((7, 0),)) == ((7, 0),)


# -- _match --------------------------------------------------------------------------


def _match_rows(n):
    x, i, j, k = (fresh_ident(t) for t in "xijk")
    zero = Thunk.of(VCon(n["zero"], []))
    one = Thunk.of(VCon(n["succ"], [zero]))
    size = Thunk.of(VSize(bump(ns_var(k), 1)))
    neutral = Thunk.of(VNe(x))
    return {
        PVar: [(PVar(x), zero, "match", {x.uid: "zero"})],
        PWild: [(PWild(), neutral, "match", {})],
        PDot: [(PDot(Var(x)), neutral, "match", {})],
        PSucc: [(PSucc(j), size, "match", {j.uid: "k"}), (PSucc(j), zero, "stuck", {})],
        PSizeRel: [(PSizeRel(i, j), size, "match", {j.uid: "$ k"})],
        PCon: [(PCon(n["zero"], []), zero, "match", {}),
               (PCon(n["zero"], []), one, "nomatch", {}),
               (PCon(n["zero"], []), neutral, "stuck", {}),
               (PCon(n["succ"], []), one, "stuck", {}),
               (PCon(n["succ"], [PVar(x)]), one, "match", {x.uid: "zero"})],
    }


def test_match_table_covers_every_pattern_class(world):
    assert set(_match_rows(world[1])) == _concrete(Pattern)


@pytest.mark.parametrize("cls", sorted(_concrete(Pattern), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_match_on_a_minimal_instance(world, cls):
    ev, names = world
    for p, th, want, want_env in _match_rows(names)[cls]:
        r = ev._match(p, th, None, NOPOS)
        outcome = {_STUCK: "stuck", _NOMATCH: "nomatch"}.get(r, "match")
        # the cells the match put in front of the empty environment
        shown, env = {}, None if outcome != "match" else r
        while env is not None:
            shown[env[0]] = pretty(ev.quote(ev.force(env[1])))
            env = env[2]
        assert (outcome, shown) == (want, want_env)


def test_size_view(world):
    x = fresh_ident("x")
    ev = world[0]
    assert ev.size_view(VSize(bump(ns_var(x), 2))) == bump(ns_var(x), 2)
    assert ev.size_view(VNe(x)) == ns_var(x)
    assert ev.size_view(VNe(x, [(Thunk.of(VNe(x)), Annot.RELEVANT)])) is None
    assert ev.size_view(VCon(x, [])) is None


# -- no class patterns in the per-node walks ------------------------------------------


WALKS = [
    ("evaluator.py", "Evaluator.evaluate"),
    ("evaluator.py", "Evaluator.apply"),
    ("evaluator.py", "Evaluator.whnf"),
    ("evaluator.py", "Evaluator._unfold"),
    ("evaluator.py", "Evaluator._match"),
    ("evaluator.py", "Evaluator.size_view"),
    ("evaluator.py", "Evaluator._read"),
    ("sizes.py", "normalize"),
    ("checker.py", "Checker.check"),
    ("checker.py", "Checker.infer"),
    ("checker.py", "Checker._infer_atom"),
]


def _function(tree: ast.Module, qualname: str) -> ast.FunctionDef | None:
    body = tree.body
    *outer, name = qualname.split(".")
    for cls in outer:
        body = next((n.body for n in body if isinstance(n, ast.ClassDef) and n.name == cls), [])
    return next((n for n in body if isinstance(n, ast.FunctionDef) and n.name == name), None)


@pytest.mark.parametrize("module,qualname", WALKS, ids=[q for _, q in WALKS])
def test_walk_has_no_match_statement(module, qualname):
    path = SRC / module
    fn = _function(ast.parse(path.read_text(), str(path)), qualname)
    assert fn is not None, f"{qualname} not found in {module}"
    assert [n.lineno for n in ast.walk(fn) if isinstance(n, ast.Match)] == []


# the walks whose dispatch was an `isinstance` chain
EXACT = ["Evaluator.apply", "Evaluator.whnf", "Evaluator._unfold"]


@pytest.mark.parametrize("qualname", EXACT)
def test_walk_calls_no_isinstance(qualname):
    path = SRC / "evaluator.py"
    fn = _function(ast.parse(path.read_text(), str(path)), qualname)
    assert fn is not None, f"{qualname} not found in evaluator.py"
    calls = [n.lineno for n in ast.walk(fn) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "isinstance"]
    assert calls == []
