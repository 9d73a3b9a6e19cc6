"""Abstract syntax: identifiers, polarities, terms, patterns and
declarations, plus spines, and `Record`, the base of the package's slotted
classes.  A size expression has no tree of its own: a `Size` term and a
size case's scrutinee hold it as the tuple of (base, successors) pairs whose
max it is, a base being an `Ident`, a hole's int id or `sizes.INFTY`.  It is
the form `sizes.normalize` reads and returns, so a normal form read back is
a `Size` of the same tuple."""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from enum import Enum

Pos = int  # a 0-based source offset; shown as (line, column) by LineTable
NOPOS: Pos = -1  # no position, shown as (0, 0)

_uids = itertools.count(1)


def fresh_uid() -> int:
    return next(_uids)


class Record:
    """Base of the classes whose instances are just their slots.  Their one
    repr lists the slots, `Var(name=x#3, pos=4)`; equality and hashing
    stay by identity."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in type(self).__slots__)
        return f"{type(self).__name__}({fields})"


class LineTable:
    """The start offset of each line of one source, to show a position as
    the 1-based (line, column) a user reads; only a newline ends a line."""

    __slots__ = ("starts",)

    def __init__(self, source: str):
        self.starts = [0] + [m.end() for m in re.finditer("\n", source)]

    def line_col(self, pos: Pos) -> tuple[int, int]:
        if pos < 0:
            return (0, 0)
        line = bisect_right(self.starts, pos)
        return line, pos - self.starts[line - 1] + 1


class Ident:
    """A resolved name; equality and hashing go by uid, text is display-only."""

    __slots__ = __match_args__ = ("text", "uid")

    def __init__(self, text: str, uid: int):
        self.text = text
        self.uid = uid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ident) and self.uid == other.uid

    def __hash__(self) -> int:
        return self.uid

    def __repr__(self) -> str:
        return f"{self.text}#{self.uid}"


def fresh_ident(text: str) -> Ident:
    return Ident(text, fresh_uid())


class Annot(Enum):
    """Binder/argument relevance: (x : A) is relevant, [x : A] is parametric."""

    RELEVANT = "relevant"
    PARAMETRIC = "parametric"


class Polarity(Enum):
    """Variance of a type former in one argument position."""

    UNUSED = "unused"
    STRICT_POS = "++"
    POS = "+"
    NEG = "-"
    INVARIANT = "invariant"


_P = Polarity

# Composition p*q: polarity of an occurrence of variance q seen through a
# position of variance p.  UNUSED annihilates, STRICT_POS is the identity,
# INVARIANT absorbs everything else, NEG*NEG = POS.
_COMPOSE = {}
for _p in _P:
    for _q in _P:
        if _p is _P.UNUSED or _q is _P.UNUSED:
            _COMPOSE[(_p, _q)] = _P.UNUSED
        elif _p is _P.INVARIANT or _q is _P.INVARIANT:
            _COMPOSE[(_p, _q)] = _P.INVARIANT
        elif _p is _P.STRICT_POS:
            _COMPOSE[(_p, _q)] = _q
        elif _q is _P.STRICT_POS:
            _COMPOSE[(_p, _q)] = _p
        elif _p is _P.NEG:
            _COMPOSE[(_p, _q)] = _P.POS if _q is _P.NEG else _P.NEG
        else:  # _p is POS
            _COMPOSE[(_p, _q)] = _q


def compose(p: Polarity, q: Polarity) -> Polarity:
    return _COMPOSE[(p, q)]


# The lattice UNUSED < STRICT_POS < POS < INVARIANT, UNUSED < NEG < INVARIANT.
_ORDER = {
    _P.UNUSED: {_P.UNUSED, _P.STRICT_POS, _P.POS, _P.NEG, _P.INVARIANT},
    _P.STRICT_POS: {_P.STRICT_POS, _P.POS, _P.INVARIANT},
    _P.POS: {_P.POS, _P.INVARIANT},
    _P.NEG: {_P.NEG, _P.INVARIANT},
    _P.INVARIANT: {_P.INVARIANT},
}


def leq_pol(p: Polarity, q: Polarity) -> bool:
    return q in _ORDER[p]


def join(p: Polarity, q: Polarity) -> Polarity:
    if leq_pol(p, q):
        return q
    if leq_pol(q, p):
        return p
    return _P.INVARIANT


# ---------------------------------------------------------------------------
# Terms


class Expr(Record):
    """A term; every kind of term has a source position, `pos`."""

    __slots__ = ()


class Var(Expr):
    """Local variable: x"""

    __slots__ = __match_args__ = ("name", "pos")

    def __init__(self, name: Ident, pos: Pos = NOPOS):
        self.name = name
        self.pos = pos


class Def(Expr):
    """Reference to a global data type, fun/cofun or let."""

    __slots__ = __match_args__ = ("name", "pos")

    def __init__(self, name: Ident, pos: Pos = NOPOS):
        self.name = name
        self.pos = pos


class Con(Expr):
    """Reference to a data constructor."""

    __slots__ = __match_args__ = ("name", "pos")

    def __init__(self, name: Ident, pos: Pos = NOPOS):
        self.name = name
        self.pos = pos


class SetU(Expr):
    """The universe of small types: Set"""

    __slots__ = __match_args__ = ("pos",)

    def __init__(self, pos: Pos = NOPOS):
        self.pos = pos


class SizeU(Expr):
    """The type of sizes: Size"""

    __slots__ = __match_args__ = ("pos",)

    def __init__(self, pos: Pos = NOPOS):
        self.pos = pos


class Pi(Expr):
    """Function type: (x : A) -> B, [x : A] -> B or A -> B"""

    __slots__ = __match_args__ = ("annot", "binder", "domain", "codomain", "pos")

    def __init__(self, annot: Annot, binder: Ident | None, domain: Expr, codomain: Expr,
                 pos: Pos = NOPOS):
        self.annot = annot
        self.binder = binder
        self.domain = domain
        self.codomain = codomain
        self.pos = pos


class Lam(Expr):
    """Lambda: \\ x -> e"""

    __slots__ = __match_args__ = ("binder", "body", "pos")

    def __init__(self, binder: Ident, body: Expr, pos: Pos = NOPOS):
        self.binder = binder
        self.body = body
        self.pos = pos


class App(Expr):
    """Application: f a.  The annot is filled in during elaboration from
    the function's Pi annotation."""

    __slots__ = __match_args__ = ("fun", "arg", "annot", "pos")

    def __init__(self, fun: Expr, arg: Expr, annot: Annot | None = None, pos: Pos = NOPOS):
        self.fun = fun
        self.arg = arg
        self.annot = annot
        self.pos = pos


class Size(Expr):
    """A size expression used as a term: #, ($ i), (max i j), _.  `size` is
    a tuple of (base, successors) pairs read as their max, in source order
    (see `sizes`): `$ (max i #)` is ((i, 1), (INFTY, 1))."""

    __slots__ = __match_args__ = ("size", "pos")

    def __init__(self, size: tuple, pos: Pos = NOPOS):
        self.size = size
        self.pos = pos


class CaseSize(Expr):
    """Right-hand-side match on a size variable: case i { ($ j) -> e }; the
    scrutinee is a size's tuple of pairs, as `Size.size` is."""

    __slots__ = __match_args__ = ("scrut", "binder", "branch", "pos")

    def __init__(self, scrut: tuple, binder: Ident, branch: Expr, pos: Pos = NOPOS):
        self.scrut = scrut
        self.binder = binder
        self.branch = branch
        self.pos = pos


class CaseData(Expr):
    """Right-hand-side match on data: case e { p -> e ; ... }"""

    __slots__ = __match_args__ = ("scrut", "branches", "pos")

    def __init__(self, scrut: Expr, branches: list[tuple[Pattern, Expr]], pos: Pos = NOPOS):
        self.scrut = scrut
        self.branches = branches
        self.pos = pos


class Elided(Expr):
    """Printing placeholder for a truncated coinductive value."""

    __slots__ = __match_args__ = ("pos",)

    def __init__(self, pos: Pos = NOPOS):
        self.pos = pos


# ---------------------------------------------------------------------------
# Patterns and declarations


class Pattern(Record):
    """A pattern; every kind of pattern has a source position, `pos`."""

    __slots__ = ()


class PVar(Pattern):
    """Variable pattern: x"""

    __slots__ = __match_args__ = ("name", "pos")

    def __init__(self, name: Ident, pos: Pos = NOPOS):
        self.name = name
        self.pos = pos


class PCon(Pattern):
    """Constructor pattern: (c p1 ... pn)"""

    __slots__ = __match_args__ = ("con", "args", "pos")

    def __init__(self, con: Ident, args: list[Pattern], pos: Pos = NOPOS):
        self.con = con
        self.args = args
        self.pos = pos


class PDot(Pattern):
    """Dot (inaccessible) pattern: .e"""

    __slots__ = __match_args__ = ("expr", "pos")

    def __init__(self, expr: Expr, pos: Pos = NOPOS):
        self.expr = expr
        self.pos = pos


class PSizeRel(Pattern):
    """Size pattern inside a constructor: (i > j)"""

    __slots__ = __match_args__ = ("parent", "child", "pos")

    def __init__(self, parent: Ident, child: Ident, pos: Pos = NOPOS):
        self.parent = parent
        self.child = child
        self.pos = pos


class PSucc(Pattern):
    """Successor pattern on a size argument: ($ j)"""

    __slots__ = __match_args__ = ("child", "pos")

    def __init__(self, child: Ident, pos: Pos = NOPOS):
        self.child = child
        self.pos = pos


class PWild(Pattern):
    """Wildcard: _"""

    __slots__ = __match_args__ = ("pos",)

    def __init__(self, pos: Pos = NOPOS):
        self.pos = pos


class Clause(Record):
    __slots__ = __match_args__ = ("lhs", "rhs", "pos")

    def __init__(self, lhs: list[Pattern], rhs: Expr, pos: Pos = NOPOS):
        self.lhs = lhs
        self.rhs = rhs
        self.pos = pos


class ParamSpec(Record):
    """Data type parameter ++(A : Set) or (A : Set); its binder in the kind is
    None when no later parameter type and no index reads it."""

    __slots__ = __match_args__ = ("name", "type", "polarity", "kind_binder")

    def __init__(self, name: Ident, type: Expr, polarity: Polarity):
        self.name = name
        self.type = type
        self.polarity = polarity
        self.kind_binder: Ident | None = name


class ConSpec(Record):
    __slots__ = __match_args__ = ("name", "type", "pos")

    def __init__(self, name: Ident, type: Expr, pos: Pos = NOPOS):
        self.name = name
        self.type = type
        self.pos = pos


class Declaration(Record):
    """A declaration.  Besides its fields and its `pos`, each kind keeps
    `fault`: the first UNBOUND or DUPLICATE fault the parser found in it (a
    Diagnostic), which `scope_check` raises, or None."""

    __slots__ = ()


class DataDecl(Declaration):
    """data/codata, optionally sized: the size index is the first index."""

    __match_args__ = ("sized", "coinductive", "name", "params", "index_sig", "constructors",
                      "pos")
    __slots__ = (*__match_args__, "fault")

    def __init__(self, sized: bool, coinductive: bool, name: Ident, params: list[ParamSpec],
                 index_sig: Expr, constructors: list[ConSpec], pos: Pos = NOPOS):
        self.sized = sized
        self.coinductive = coinductive
        self.name = name
        self.params = params
        self.index_sig = index_sig
        self.constructors = constructors
        self.pos = pos
        self.fault = None


class FunDecl(Declaration):
    __match_args__ = ("coinductive", "name", "type", "clauses", "pos")
    __slots__ = (*__match_args__, "fault")

    def __init__(self, coinductive: bool, name: Ident, type: Expr, clauses: list[Clause],
                 pos: Pos = NOPOS):
        self.coinductive = coinductive
        self.name = name
        self.type = type
        self.clauses = clauses
        self.pos = pos
        self.fault = None


class LetDecl(Declaration):
    __match_args__ = ("name", "type", "body", "eval", "pos")
    __slots__ = (*__match_args__, "fault")

    def __init__(self, name: Ident, type: Expr, body: Expr, eval: bool = False,
                 pos: Pos = NOPOS):
        self.name = name
        self.type = type
        self.body = body
        self.eval = eval
        self.pos = pos
        self.fault = None


# ---------------------------------------------------------------------------
# Spines


def spine(e: Expr) -> tuple[Expr, list[tuple[Expr, Annot | None]]]:
    """Split f a1 ... an into f and [(a1, annot1), ..., (an, annotn)]."""
    args = []
    while isinstance(e, App):
        args.append((e.arg, e.annot))
        e = e.fun
    args.reverse()
    return e, args
