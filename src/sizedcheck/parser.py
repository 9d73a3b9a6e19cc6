"""Tokenizer and recursive-descent parser for the surface syntax (.ma files).

A fault is raised where it is found, as a PARSE `Diagnostic` at the token
that shows it.  The parser branches on token text alone: an identifier's text
is never a keyword's or a symbol's, and eof's text is empty, so the token kind
is read only to tell identifiers and eof apart.  A chain of binders and arrows
(`(x : A) ->`, `[x : A] ->`, `\\ x ->`, `A ->`) is collected in a loop and
folded to the right, so a long chain costs no stack.

Names are resolved as they are read, by the rules of `scope.py`, so the
parser builds the one tree the checker reads: a binder is a fresh Ident, a
use is the Ident it names, and a size hole gets its number.  A dot pattern
may name a variable bound later in its left-hand side, so it is read twice:
where it stands, to find its end and its PARSE faults, and again once the
whole left-hand side is bound.  An UNBOUND or DUPLICATE fault does not stop
the parser, since a later PARSE fault outranks it; `scope.scope_check`
raises it after parsing."""

from __future__ import annotations

import sys

from .diagnostics import Diagnostic
from .scope import Scope
from .syntax import (
    App,
    CaseData,
    CaseSize,
    Clause,
    ConSpec,
    DataDecl,
    Declaration,
    Expr,
    FunDecl,
    Ident,
    LetDecl,
    Lam,
    Annot,
    ParamSpec,
    Pattern,
    PCon,
    PDot,
    Pi,
    Polarity,
    Pos,
    PSizeRel,
    PSucc,
    PWild,
    Record,
    SetU,
    Size,
    SizeExpr,
    SizeU,
    SInfty,
    SMax,
    SMeta,
    SSucc,
    SVar,
    Var,
)

KEYWORDS = {
    "data", "sized", "codata", "fun", "cofun", "let", "eval",
    "case", "Size", "Set", "max",
}

MULTI_SYMBOLS = ("->", "++")
SINGLE_SYMBOLS = set(":;{}()[]=\\.$#_>|")


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # keyword | ident | symbol | eof
        self.text = text
        self.line = line
        self.col = col


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c.isalpha():
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            text = sys.intern(source[i:j])  # one string per name
            kind = "keyword" if text in KEYWORDS else "ident"
            toks.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        two = source[i : i + 2]
        if two in MULTI_SYMBOLS:
            toks.append(Token("symbol", two, line, col))
            i += 2
            col += 2
            continue
        if c in SINGLE_SYMBOLS:
            toks.append(Token("symbol", c, line, col))
            i += 1
            col += 1
            continue
        raise Diagnostic("PARSE", f"illegal character {c!r}", (line, col))
    toks.append(Token("eof", "", line, col))
    return toks


# the texts that can begin an argument of an application, besides identifiers
_ATOM_START = frozenset(("Set", "Size", "max", "case", "(", "$", "#", "_"))


def _error(message: str, t: Token) -> Diagnostic:
    return Diagnostic("PARSE", message, (t.line, t.col))


def _found(t: Token) -> str:
    return repr(t.text or t.kind)


class _Parser:
    __slots__ = ("toks", "i", "sc", "size_pos")

    def __init__(self, tokens: list[Token]):
        # two more copies of eof cover the deepest lookahead (ahead=2)
        self.toks = tokens + [tokens[-1]] * 2
        self.i = 0
        self.sc = Scope()
        # the first token of the size expression being read, if any
        self.size_pos: Pos | None = None

    # -- token helpers ------------------------------------------------------

    def at(self, text: str, ahead: int = 0) -> bool:
        return self.toks[self.i + ahead].text == text

    def expect(self, text: str) -> Token:
        t = self.toks[self.i]
        if t.text != text:
            raise _error(f"expected {text!r}, found {_found(t)}", t)
        self.i += 1
        return t

    def name(self) -> str:
        t = self.toks[self.i]
        if t.kind != "ident":
            raise _error(f"expected 'ident', found {_found(t)}", t)
        self.i += 1
        return t.text

    def block(self, item) -> list:
        """`{ item ; ... ; item }`, possibly empty."""
        self.expect("{")
        items = []
        if not self.at("}"):
            items.append(item())
            while self.at(";"):
                self.i += 1
                items.append(item())
        self.expect("}")
        return items

    # -- declarations -------------------------------------------------------

    def program(self) -> list[Declaration]:
        decls = []
        while self.toks[self.i].kind != "eof":
            self.sc.fault = None
            decls.append(self.declaration())
            decls[-1].fault = self.sc.fault
        return decls

    def declaration(self) -> Declaration:
        t = self.toks[self.i]
        p = (t.line, t.col)
        match t.text:
            case "sized" | "data" | "codata":
                return self.data_decl(p)
            case "fun" | "cofun":
                return self.fun_decl(p)
            case "eval" | "let":
                return self.let_decl(p)
        raise _error(f"expected a declaration, found {_found(t)}", t)

    def data_decl(self, p) -> DataDecl:
        sc = self.sc
        sized = self.at("sized")
        if sized:
            self.i += 1
        kw = self.toks[self.i]
        self.i += 1
        if kw.text not in ("data", "codata"):
            raise _error("expected 'data' or 'codata'", kw)
        name = self.name()
        params = []
        while self.at("++") or self.at("("):
            pol = Polarity.INVARIANT
            if self.at("++"):
                self.i += 1
                pol = Polarity.STRICT_POS
            self.expect("(")
            pn = self.name()
            self.expect(":")
            pt = self.expr()
            self.expect(")")
            params.append(ParamSpec(sc.bind(pn), pt, pol))
        self.expect(":")
        index_sig = self.expr()
        owner = sc.define(name, "data", p)
        cons = self.block(lambda: self.con_spec(owner))
        sc.restore(0)
        return DataDecl(sized, kw.text == "codata", owner, params, index_sig, cons, p)

    def con_spec(self, owner: Ident) -> ConSpec:
        t = self.toks[self.i]
        p = (t.line, t.col)
        name = self.name()
        self.expect(":")
        ty = self.expr()
        return ConSpec(self.sc.define(name, "con", p, owner), ty, p)

    def fun_decl(self, p) -> FunDecl:
        cofun = self.at("cofun")
        self.i += 1
        name = self.name()
        self.expect(":")
        ty = self.expr()
        fname = self.sc.define(name, "fun", p)
        clauses = self.block(lambda: self.clause(name))
        return FunDecl(cofun, fname, ty, clauses, p)

    def clause(self, fname: str) -> Clause:
        head = self.toks[self.i]
        if self.name() != fname:
            raise _error(
                f"clause head {head.text!r} does not match function name {fname!r}", head
            )
        dots: list = []
        lhs = []
        while not self.at("="):
            lhs.append(self.pattern_atom(dots))
        self.resolve_dots(dots)
        self.expect("=")
        rhs = self.expr()
        self.sc.restore(0)
        return Clause(lhs, rhs, (head.line, head.col))

    def let_decl(self, p) -> LetDecl:
        ev = self.at("eval")
        if ev:
            self.i += 1
        self.expect("let")
        name = self.name()
        self.expect(":")
        ty = self.expr()
        self.expect("=")
        body = self.expr()
        return LetDecl(self.sc.define(name, "let", p), ty, body, ev, p)

    # -- expressions --------------------------------------------------------

    def expr(self) -> Expr:
        sc = self.sc
        mark = len(sc.trail)
        # the links of the chain, outermost first: (pos, annot, binder,
        # domain), with annot None for a lambda; each binder is in scope
        # from the next link on
        links = []
        while True:
            t = self.toks[self.i]
            p = (t.line, t.col)
            text = t.text
            if text == "\\":
                self.i += 1
                x = sc.bind(self.name())
                self.expect("->")
                links.append((p, None, x, None))
            elif text == "[" or (
                text == "(" and self.toks[self.i + 1].kind == "ident" and self.at(":", 2)
            ):
                self.i += 1
                name = self.name()
                self.expect(":")
                dom = self.expr()
                self.expect("]" if text == "[" else ")")
                self.expect("->")
                annot = Annot.PARAMETRIC if text == "[" else Annot.RELEVANT
                links.append((p, annot, sc.bind(name), dom))
            else:
                e = self.app_expr()
                if not self.at("->"):
                    break
                self.i += 1
                links.append((p, Annot.RELEVANT, None, e))
        sc.restore(mark)
        for p, annot, x, dom in reversed(links):
            e = Lam(x, e, p) if annot is None else Pi(annot, x, dom, e, p)
        return e

    def app_expr(self) -> Expr:
        e = self.atom()
        while True:
            t = self.toks[self.i]
            if t.kind != "ident" and t.text not in _ATOM_START:
                return e
            e = App(e, self.atom(), None, (t.line, t.col))

    def atom(self) -> Expr:
        t = self.toks[self.i]
        p = (t.line, t.col)
        self.i += 1  # a fault is reported at t, so consuming it first is safe
        if t.kind == "ident":
            if self.size_pos is not None:
                return Var(self.sc.size_var(t.text, self.size_pos), p)
            return self.sc.var(t.text, p)
        match t.text:
            case "Set":
                return SetU(p)
            case "Size":
                return SizeU(p)
            case "max" | "$":
                outer = self.size_pos is None
                if outer:
                    self.size_pos = p
                a = self.size_atom()
                s = SMax(a, self.size_atom()) if t.text == "max" else SSucc(a)
                if outer:
                    self.size_pos = None
                return Size(s, p)
            case "case":
                return self.case(p)
            case "#":
                return Size(SInfty(), p)
            case "_":
                self.sc.metas += 1
                return Size(SMeta(self.sc.metas), p)
            case "(":
                e = self.expr()
                self.expect(")")
                return e
        raise _error(f"expected an expression, found {_found(t)}", t)

    def case(self, p) -> Expr:
        """A case, or a size case if its one branch is `($ j)`; the case's own
        faults outrank those found inside it."""
        sc = self.sc
        before = sc.fault
        scrut = self.app_expr()
        scrut_fault = sc.fault
        branches = self.block(self.branch)
        if not any(isinstance(b[0], PSucc) for b in branches):
            return CaseData(scrut, branches, p)
        if len(branches) > 1:
            if before is None:
                sc.fault = Diagnostic(
                    "UNBOUND", "a successor-pattern case must have exactly one branch", p
                )
        elif isinstance(scrut, (Var, Size)):
            ((pat, body),) = branches
            s = SVar(scrut.name) if isinstance(scrut, Var) else scrut.size
            return CaseSize(s, pat.child, body, p)
        elif scrut_fault is None:
            sc.fault = Diagnostic(
                "UNBOUND", "case on a size requires a size variable scrutinee", p
            )
        return CaseData(scrut, branches, p)

    def branch(self) -> tuple[Pattern, Expr]:
        sc = self.sc
        mark = len(sc.trail)
        dots: list = []
        pat = self.pattern_atom(dots, shadow=True)  # a size case's ($ j)
        self.resolve_dots(dots)
        self.expect("->")
        body = self.expr()
        sc.restore(mark)
        return pat, body

    def size_atom(self) -> SizeExpr:
        t = self.toks[self.i]
        e = self.atom()
        if isinstance(e, Var):
            return SVar(e.name)
        if isinstance(e, Size):
            return e.size
        raise _error("expected a size expression", t)

    # -- patterns -----------------------------------------------------------

    def pattern_atom(self, dots: list, shadow: bool = False) -> Pattern:
        """One pattern, whose dots go to `dots`; with `shadow`, a successor
        pattern may rebind a name in scope."""
        t = self.toks[self.i]
        p = (t.line, t.col)
        self.i += 1  # as in atom
        if t.kind == "ident":
            return self.sc.pattern_var(t.text, p)
        match t.text:
            case "_":
                return PWild(p)
            case ".":
                # read to find its end and its PARSE faults, and forgotten
                sc = self.sc
                dots.append((self.i, PDot(None, p)))
                fault, metas = sc.fault, sc.metas
                self.atom()
                sc.fault, sc.metas = fault, metas
                return dots[-1][1]
            case "(":
                return self.paren_pattern(p, dots, shadow)
        raise _error(f"expected a pattern, found {_found(t)}", t)

    def resolve_dots(self, dots: list):
        """Read the dots again once their left-hand side is bound."""
        if dots:
            end = self.i
            for start, d in dots:
                self.i = start
                d.expr = self.atom()
            self.i = end

    def paren_pattern(self, p, dots: list, shadow: bool) -> Pattern:
        sc = self.sc
        t = self.toks[self.i]
        if t.text == "$":
            tv = self.toks[self.i + 1]
            if tv.kind != "ident":
                raise _error(
                    "successor patterns admit exactly one successor: "
                    f"expected a size variable after '$', found {_found(tv)}", tv
                )
            self.i += 2
            self.expect(")")
            return PSucc(sc.bind(tv.text, None if shadow else p), p)
        if t.kind != "ident":
            raise _error(f"expected a pattern, found {_found(t)}", t)
        self.i += 1
        if self.at(">"):
            parent = sc.size_var(t.text, p)
            self.i += 1
            child = self.name()
            self.expect(")")
            return PSizeRel(parent, sc.bind(child, p), p)
        if self.at(")"):  # (x) is the pattern x
            self.i += 1
            return sc.pattern_var(t.text, p)
        con = sc.constructor(t.text, p)
        args = []
        while not self.at(")"):
            args.append(self.pattern_atom(dots))
        self.expect(")")
        return PCon(con, args, p)


def parse_source(source: str) -> list[Declaration]:
    return _Parser(tokenize(source)).program()
