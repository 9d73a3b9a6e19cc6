"""Abstract syntax: identifiers, polarities, size expressions, terms,
patterns and declarations, plus free variables and spines."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

Pos = tuple[int, int]  # 1-based (line, column)
NOPOS: Pos = (0, 0)

_uids = itertools.count(1)


def fresh_uid() -> int:
    return next(_uids)


@dataclass(eq=False)
class Ident:
    """A resolved name; equality and hashing go by uid, text is display-only."""

    text: str
    uid: int

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
# Size expressions


class SizeExpr:
    pass


@dataclass
class SVar(SizeExpr):
    """Size variable: i"""

    name: Ident


@dataclass
class SSucc(SizeExpr):
    """Successor: $ s"""

    arg: SizeExpr


@dataclass
class SInfty(SizeExpr):
    """Infinity: #"""


@dataclass
class SMax(SizeExpr):
    """Binary maximum: max s t"""

    left: SizeExpr
    right: SizeExpr


@dataclass
class SMeta(SizeExpr):
    """Size hole on a right-hand side: _"""

    mid: int


def size_vars(s: SizeExpr) -> list[Ident]:
    """The variables of s in source order, so a check that reports the first
    bad one reports the same one in every run."""
    match s:
        case SVar(name=x):
            return [x]
        case SSucc(arg=a):
            return size_vars(a)
        case SMax(left=a, right=b):
            return size_vars(a) + size_vars(b)
        case _:
            return []


def size_metas(s: SizeExpr) -> set[int]:
    match s:
        case SSucc(arg=a):
            return size_metas(a)
        case SMax(left=a, right=b):
            return size_metas(a) | size_metas(b)
        case SMeta(mid=m):
            return {m}
        case _:
            return set()


# ---------------------------------------------------------------------------
# Terms


class Expr:
    pos: Pos


@dataclass
class Var(Expr):
    """Local variable: x"""

    name: Ident
    pos: Pos = NOPOS


@dataclass
class Def(Expr):
    """Reference to a global data type, fun/cofun or let."""

    name: Ident
    pos: Pos = NOPOS


@dataclass
class Con(Expr):
    """Reference to a data constructor."""

    name: Ident
    pos: Pos = NOPOS


@dataclass
class SetU(Expr):
    """The universe of small types: Set"""

    pos: Pos = NOPOS


@dataclass
class SizeU(Expr):
    """The type of sizes: Size"""

    pos: Pos = NOPOS


@dataclass
class Pi(Expr):
    """Function type: (x : A) -> B, [x : A] -> B or A -> B"""

    annot: Annot
    binder: Ident | None
    domain: Expr
    codomain: Expr
    pos: Pos = NOPOS


@dataclass
class Lam(Expr):
    """Lambda: \\ x -> e"""

    binder: Ident
    body: Expr
    pos: Pos = NOPOS


@dataclass
class App(Expr):
    """Application: f a.  The annot is filled in during elaboration from
    the function's Pi annotation."""

    fun: Expr
    arg: Expr
    annot: Annot | None = None
    pos: Pos = NOPOS


@dataclass
class Size(Expr):
    """A size expression used as a term: #, ($ i), (max i j), _"""

    size: SizeExpr
    pos: Pos = NOPOS


@dataclass
class CaseSize(Expr):
    """Right-hand-side match on a size variable: case i { ($ j) -> e }"""

    scrut: SizeExpr
    binder: Ident
    branch: Expr
    pos: Pos = NOPOS


@dataclass
class CaseData(Expr):
    """Right-hand-side match on data: case e { p -> e ; ... }"""

    scrut: Expr
    branches: list[tuple["Pattern", Expr]]
    pos: Pos = NOPOS


@dataclass
class Elided(Expr):
    """Printing placeholder for a truncated coinductive value."""

    pos: Pos = NOPOS


# ---------------------------------------------------------------------------
# Patterns and declarations


class Pattern:
    pos: Pos


@dataclass
class PVar(Pattern):
    """Variable pattern: x"""

    name: Ident
    pos: Pos = NOPOS


@dataclass
class PCon(Pattern):
    """Constructor pattern: (c p1 ... pn)"""

    con: Ident
    args: list[Pattern]
    pos: Pos = NOPOS


@dataclass
class PDot(Pattern):
    """Dot (inaccessible) pattern: .e"""

    expr: Expr
    pos: Pos = NOPOS


@dataclass
class PSizeRel(Pattern):
    """Size pattern inside a constructor: (i > j)"""

    parent: Ident
    child: Ident
    pos: Pos = NOPOS


@dataclass
class PSucc(Pattern):
    """Successor pattern on a size argument: ($ j)"""

    child: Ident
    pos: Pos = NOPOS


@dataclass
class PWild(Pattern):
    """Wildcard: _"""

    pos: Pos = NOPOS


@dataclass
class Clause:
    lhs: list[Pattern]
    rhs: Expr
    pos: Pos = NOPOS


@dataclass
class ParamSpec:
    """Data type parameter ++(A : Set) or (A : Set)."""

    name: Ident
    type: Expr
    polarity: Polarity


@dataclass
class ConSpec:
    name: Ident
    type: Expr
    pos: Pos = NOPOS


class Declaration:
    pos: Pos
    # the first UNBOUND or DUPLICATE fault the parser found in the
    # declaration (a Diagnostic), which `scope_check` raises
    fault = None


@dataclass
class DataDecl(Declaration):
    """data/codata, optionally sized: the size index is the first index."""

    sized: bool
    coinductive: bool
    name: Ident
    params: list[ParamSpec]
    index_sig: Expr
    constructors: list[ConSpec]
    pos: Pos = NOPOS


@dataclass
class FunDecl(Declaration):
    coinductive: bool
    name: Ident
    type: Expr
    clauses: list[Clause]
    pos: Pos = NOPOS


@dataclass
class LetDecl(Declaration):
    name: Ident
    type: Expr
    body: Expr
    eval: bool = False
    pos: Pos = NOPOS


# ---------------------------------------------------------------------------
# Binding structure, free variables and spines


def pattern_binders(p: Pattern) -> list[Ident]:
    match p:
        case PVar(name=x):
            return [x]
        case PCon(args=args):
            out: list[Ident] = []
            for a in args:
                out.extend(pattern_binders(a))
            return out
        case PSizeRel(child=child) | PSucc(child=child):
            return [child]
        case _:
            return []


def free_vars(e: Expr) -> set[Ident]:
    """All free identifiers of e, including global Def/Con references."""
    match e:
        case Var(name=x) | Def(name=x) | Con(name=x):
            return {x}
        case Pi(binder=binder, domain=dom, codomain=cod):
            fv = free_vars(cod)
            if binder is not None:
                fv = fv - {binder}
            return free_vars(dom) | fv
        case Lam(binder=binder, body=body):
            return free_vars(body) - {binder}
        case App(fun=f, arg=a):
            return free_vars(f) | free_vars(a)
        case Size(size=s):
            return set(size_vars(s))
        case CaseSize(scrut=s, binder=binder, branch=branch):
            return set(size_vars(s)) | (free_vars(branch) - {binder})
        case CaseData(scrut=scrut, branches=branches):
            fv = free_vars(scrut)
            for pat, body in branches:
                bound = set(pattern_binders(pat))
                for d in _pattern_dots(pat):
                    fv |= free_vars(d) - bound
                fv |= free_vars(body) - bound
            return fv
        case _:
            return set()


def _pattern_dots(p: Pattern) -> list[Expr]:
    match p:
        case PDot(expr=e):
            return [e]
        case PCon(args=args):
            out: list[Expr] = []
            for a in args:
                out.extend(_pattern_dots(a))
            return out
        case _:
            return []


def spine(e: Expr) -> tuple[Expr, list[tuple[Expr, Annot | None]]]:
    """Split f a1 ... an into f and [(a1, annot1), ..., (an, annotn)]."""
    args = []
    while isinstance(e, App):
        args.append((e.arg, e.annot))
        e = e.fun
    args.reverse()
    return e, args
