"""Scope checking: resolve every name to a uid-bearing Ident.

Declarations are processed in source order; forward references are rejected
except for a declaration's own recursive occurrences (a fun inside its
clauses, a data type inside its constructor types).  Pattern variables are
collected left to right before dot-pattern expressions are resolved, so a dot
may mention a variable bound later in the same left-hand side.

Constructor names may be reused across data types.  A constructor may be
redeclared in a *different* data type; a second constructor of the same name
in one data type is DUPLICATE, and so is any clash that involves a data, fun
or let name.  In an expression a constructor name resolves to its latest
declaration, so a later data type's constructors shadow an earlier type's
constructors of the same name.  A constructor pattern is resolved here to the
latest declaration too, but the checker re-resolves it by name against the
scrutinee's data type, so patterns always see the right constructor.

Local names live in a plain dict from text to Ident.  Entering a binder copies
the dict, so an inner binding never reaches the enclosing scope.  A fault is
raised where it is found, as an UNBOUND or DUPLICATE `Diagnostic`."""

from __future__ import annotations

import itertools

from .diagnostics import Diagnostic
from .syntax import (
    App,
    CaseData,
    CaseSize,
    Clause,
    Con,
    ConSpec,
    DataDecl,
    Declaration,
    Def,
    Expr,
    FunDecl,
    Ident,
    Lam,
    LetDecl,
    ParamSpec,
    Pattern,
    PCon,
    PDot,
    Pi,
    Pos,
    PSizeRel,
    PSucc,
    PVar,
    SetU,
    Size,
    SizeExpr,
    SizeU,
    SMax,
    SMeta,
    SSucc,
    SVar,
    Var,
    fresh_ident,
)


Env = dict[str, Ident]  # the local names in scope: text -> Ident


def _unbound(name: str, pos: Pos) -> Diagnostic:
    return Diagnostic("UNBOUND", f"unbound name '{name}'", pos)


class _Scope:
    def __init__(self):
        self.globals: dict[str, tuple[Ident, str]] = {}  # text -> (ident, kind)
        self.con_owner: dict[str, Ident] = {}  # constructor text -> its data type
        self.metas = itertools.count(1)

    def define(self, name: Ident, kind: str, pos: Pos, owner: Ident | None = None) -> Ident:
        prev = self.globals.get(name.text)
        if prev is not None and not (
            kind == prev[1] == "con" and self.con_owner[name.text] != owner
        ):
            raise Diagnostic("DUPLICATE", f"duplicate definition of '{name.text}'", pos)
        ident = fresh_ident(name.text)
        self.globals[name.text] = (ident, kind)
        if owner is not None:
            self.con_owner[name.text] = owner
        return ident

    def resolve_global(self, text: str):
        return self.globals.get(text)


def _bind(env: Env, x: Ident) -> Ident:
    ident = env[x.text] = fresh_ident(x.text)
    return ident


def _inner(env: Env, x: Ident) -> tuple[Env, Ident]:
    """The scope of a binder x inside env, and x's new Ident."""
    inner = dict(env)
    return inner, _bind(inner, x)


def scope_check(decls: list[Declaration]) -> list[Declaration]:
    sc = _Scope()
    out: list[Declaration] = []
    for d in decls:
        match d:
            case DataDecl(sized=sized, coinductive=coind, name=name, params=params,
                          index_sig=index_sig, constructors=cons, pos=pos):
                env: Env = {}
                params2 = []
                for p in params:
                    ptype = _expr(sc, env, p.type)
                    params2.append(ParamSpec(_bind(env, p.name), ptype, p.polarity))
                index2 = _expr(sc, env, index_sig)
                name2 = sc.define(name, "data", pos)
                cons2 = []
                for c in cons:
                    ctype = _expr(sc, env, c.type)
                    cons2.append(
                        ConSpec(sc.define(c.name, "con", c.pos, name2), ctype, c.pos)
                    )
                out.append(DataDecl(sized, coind, name2, params2, index2, cons2, pos))
            case FunDecl(coinductive=coind, name=name, type=ty, clauses=clauses, pos=pos):
                ty2 = _expr(sc, {}, ty)
                name2 = sc.define(name, "fun", pos)
                clauses2 = [_clause(sc, c) for c in clauses]
                out.append(FunDecl(coind, name2, ty2, clauses2, pos))
            case LetDecl(name=name, type=ty, body=body, eval=ev, pos=pos):
                ty2 = _expr(sc, {}, ty)
                body2 = _expr(sc, {}, body)
                name2 = sc.define(name, "let", pos)
                out.append(LetDecl(name2, ty2, body2, ev, pos))
            case _:
                raise AssertionError(d)
    return out


def _clause(sc: _Scope, c: Clause) -> Clause:
    env: Env = {}
    # pass 1: bind pattern variables left to right
    lhs1 = [_pattern_bind(sc, env, p) for p in c.lhs]
    # pass 2: resolve dot-pattern expressions against the full binder set
    lhs2 = [_pattern_dots(sc, env, p) for p in lhs1]
    rhs = _expr(sc, env, c.rhs)
    return Clause(lhs2, rhs, c.pos)


def _pattern_bind(sc: _Scope, env: Env, p: Pattern) -> Pattern:
    match p:
        case PVar(name=x, pos=pos):
            g = sc.resolve_global(x.text)
            if g is not None and g[1] == "con":
                return PCon(g[0], [], pos)
            return PVar(_bind_once(env, x, pos), pos)
        case PCon(con=con, args=args, pos=pos):
            g = sc.resolve_global(con.text)
            if g is None:
                raise _unbound(con.text, pos)
            if g[1] != "con":
                raise Diagnostic("UNBOUND", f"'{con.text}' is not a constructor", pos)
            return PCon(g[0], [_pattern_bind(sc, env, a) for a in args], pos)
        case PSizeRel(parent=parent, child=child, pos=pos):
            par = env.get(parent.text)
            if par is None:
                raise _unbound(parent.text, pos)
            return PSizeRel(par, _bind_once(env, child, pos), pos)
        case PSucc(child=child, pos=pos):
            return PSucc(_bind_once(env, child, pos), pos)
        case _:
            return p


def _bind_once(env: Env, x: Ident, pos: Pos) -> Ident:
    """Bind pattern variable x; a name that env already binds is DUPLICATE."""
    if x.text in env:
        raise Diagnostic(
            "DUPLICATE", f"pattern variable '{x.text}' bound twice in one clause", pos
        )
    return _bind(env, x)


def _pattern_dots(sc: _Scope, env: Env, p: Pattern) -> Pattern:
    match p:
        case PDot(expr=e, pos=pos):
            return PDot(_expr(sc, env, e), pos)
        case PCon(con=con, args=args, pos=pos):
            return PCon(con, [_pattern_dots(sc, env, a) for a in args], pos)
        case _:
            return p


def _expr(sc: _Scope, env: Env, e: Expr) -> Expr:
    match e:
        case Var(name=x, pos=pos):
            local = env.get(x.text)
            if local is not None:
                return Var(local, pos)
            g = sc.resolve_global(x.text)
            if g is None:
                raise _unbound(x.text, pos)
            ident, kind = g
            return Con(ident, pos) if kind == "con" else Def(ident, pos)
        case SetU() | SizeU():
            return e
        case Pi(annot=annot, binder=binder, domain=dom, codomain=cod, pos=pos):
            dom2 = _expr(sc, env, dom)
            if binder is None:
                return Pi(annot, None, dom2, _expr(sc, env, cod), pos)
            inner, binder2 = _inner(env, binder)
            return Pi(annot, binder2, dom2, _expr(sc, inner, cod), pos)
        case Lam(binder=binder, body=body, pos=pos):
            inner, binder2 = _inner(env, binder)
            return Lam(binder2, _expr(sc, inner, body), pos)
        case App(fun=f, arg=a, annot=annot, pos=pos):
            return App(_expr(sc, env, f), _expr(sc, env, a), annot, pos)
        case Size(size=s, pos=pos):
            return Size(_size(sc, env, s, pos), pos)
        case CaseData(scrut=scrut, branches=branches, pos=pos):
            # a single successor-pattern branch is the size-case construct
            if len(branches) == 1 and isinstance(branches[0][0], PSucc):
                pat, body = branches[0]
                s = _scrut_size(sc, env, scrut, pos)
                inner, binder = _inner(env, pat.child)
                return CaseSize(s, binder, _expr(sc, inner, body), pos)
            if any(isinstance(b[0], PSucc) for b in branches):
                raise Diagnostic(
                    "UNBOUND", "a successor-pattern case must have exactly one branch", pos
                )
            scrut2 = _expr(sc, env, scrut)
            out = []
            for pat, body in branches:
                inner = dict(env)
                pat1 = _pattern_bind(sc, inner, pat)
                pat2 = _pattern_dots(sc, inner, pat1)
                out.append((pat2, _expr(sc, inner, body)))
            return CaseData(scrut2, out, pos)
        case _:
            raise AssertionError(f"scope: unhandled node {e!r}")


def _scrut_size(sc: _Scope, env: Env, scrut: Expr, pos: Pos) -> SizeExpr:
    e = _expr(sc, env, scrut)
    match e:
        case Var(name=x):
            return SVar(x)
        case Size(size=s):
            return s
    raise Diagnostic("UNBOUND", "case on a size requires a size variable scrutinee", pos)


def _size(sc: _Scope, env: Env, s: SizeExpr, pos: Pos) -> SizeExpr:
    match s:
        case SVar(name=x):
            local = env.get(x.text)
            if local is None:
                raise _unbound(x.text, pos)
            return SVar(local)
        case SSucc(arg=a):
            return SSucc(_size(sc, env, a, pos))
        case SMax(left=a, right=b):
            return SMax(_size(sc, env, a, pos), _size(sc, env, b, pos))
        case SMeta():
            return SMeta(next(sc.metas))
        case _:
            return s
