"""The checker elaborates the parser's tree in place, and each nullary value
is built once.

After `Checker.check_program`, every term and pattern node that the
signature's clauses and lets hold is, by identity, a node the parser made;
the only new nodes are the `Size(((x, 0),))` nodes made for size variables
passed as size arguments.  An AST scan keeps the checker from constructing
tree nodes, and the universes, data types and funs evaluate to one value
each."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from sizedcheck.checker import Checker
from sizedcheck.parser import parse_source
from sizedcheck.scope import scope_check
from sizedcheck.signature import FunEntry, LetEntry
from sizedcheck.sizes import INFTY_SIZE, normalize
from sizedcheck.syntax import (
    App,
    Clause,
    ConSpec,
    Declaration,
    Def,
    Expr,
    Ident,
    ParamSpec,
    Pattern,
    SetU,
    Size,
    SizeU,
)
from sizedcheck.values import VSET, VSIZEU, VSize

from conftest import NAT, SNAT_PARAMETRIC, accept_sources, build

SRC = Path(__file__).resolve().parent.parent / "src" / "sizedcheck"

_WALKED = (Expr, Pattern, Declaration, Clause, ParamSpec, ConSpec)


def _nodes(roots) -> dict[int, object]:
    """Every node reachable from roots, by id; a `Size` node's pairs hold
    no node.  The dict holds the nodes, so no id is reused
    while it lives."""
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, _WALKED) and id(x) not in seen:
            seen[id(x)] = x
            stack.extend(getattr(x, s) for s in type(x).__slots__ if s != "fault")
    return seen


PROGRAMS = dict(accept_sources())
PROGRAMS["size arguments, cases and dots"] = SNAT_PARAMETRIC + """
fun again : [i : Size] -> SNat ($ i) -> SNat ($ i)
{ again i (zero .i) = zero i
; again i (succ .i n) = succ i n
}
let two : SNat # = succ # (succ # (zero #))
let f : [i : Size] -> SNat i -> SNat ($ i) = \\ i -> \\ n -> case n
  { (zero (i > j)) -> zero i ; (succ (i > j) m) -> succ i (again j (succ j m)) }
eval let three : SNat # = f # two
"""


@pytest.mark.parametrize("name", PROGRAMS)
def test_signature_holds_the_parsers_nodes(name):
    decls = scope_check(parse_source(PROGRAMS[name]))
    parsed = _nodes(decls)
    sig, _ = Checker().check_program(decls)
    roots = []
    for entry in sig.entries.values():
        if isinstance(entry, FunEntry):
            roots.extend((c.lhs, c.rhs) for c in entry.clauses)
        elif isinstance(entry, LetEntry):
            roots.append(entry.body)
    checked = _nodes(roots)
    new = [x for k, x in checked.items() if k not in parsed]
    assert [x for x in new if not (
        type(x) is Size and len(x.size) == 1 and type(x.size[0][0]) is Ident
        and x.size[0][1] == 0)] == []
    assert any(type(x) is App for x in checked.values())


class _Constructions(ast.NodeVisitor):
    """(method, class) for each call of a tree-node class in a module."""

    BUILT = {"App", "Lam", "CaseData", "CaseSize", "PCon", "Pi"}

    def __init__(self):
        self.where: list[str] = []
        self.found: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id in self.BUILT:
            self.found.append((self.where[-1], node.func.id))
        self.generic_visit(node)


def test_checker_builds_no_tree_nodes():
    v = _Constructions()
    v.visit(ast.parse((SRC / "checker.py").read_text()))
    assert v.found == [("check_data_decl", "Pi"), ("check_data_decl", "Pi")]


def test_nullary_values_are_built_once():
    src = NAT + "fun id : Nat -> Nat\n{ id n = n\n}\n"
    ch, _, _ = build(src)
    ev = ch.ev
    for name in ("Nat", "id"):
        d = Def(ch.sig.by_text[name])
        assert ev.evaluate(None, d) is ev.evaluate(None, d)
    assert ev.evaluate(None, SetU()) is ev.evaluate(None, SetU()) is VSET
    assert ev.evaluate(None, SizeU()) is ev.evaluate(None, SizeU()) is VSIZEU


def test_one_infinity():
    ch, decls, _ = build("let s : Size = #\n")
    assert decls[0].body.size is INFTY_SIZE
    assert normalize(INFTY_SIZE) is INFTY_SIZE
    assert ch.ev.quote(VSize(INFTY_SIZE)).size is INFTY_SIZE
