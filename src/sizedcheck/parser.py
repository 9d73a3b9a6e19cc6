"""Tokenizer and recursive-descent parser for the surface syntax (.ma files).

A fault is raised where it is found, as a PARSE `Diagnostic` at the token
that shows it.  The parser branches on token text alone: an identifier's text
is never a keyword's or a symbol's, and eof's text is empty, so the token kind
is read only to tell identifiers and eof apart.  A chain of binders and arrows
(`(x : A) ->`, `[x : A] ->`, `\\ x ->`, `A ->`) is collected in a loop and
folded to the right, so a long chain costs no stack.

Identifiers produced here carry throwaway uids; scope checking rebuilds the
tree with resolved names."""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Diagnostic
from .syntax import (
    App,
    CaseData,
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
    PSizeRel,
    PSucc,
    PVar,
    PWild,
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
    fresh_ident,
)

KEYWORDS = {
    "data", "sized", "codata", "fun", "cofun", "let", "eval",
    "case", "Size", "Set", "max",
}

MULTI_SYMBOLS = ("->", "++")
SINGLE_SYMBOLS = set(":;{}()[]=\\.$#_>|")


@dataclass
class Token:
    kind: str  # keyword | ident | symbol | eof
    text: str
    line: int
    col: int


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
            text = source[i:j]
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
    def __init__(self, tokens: list[Token]):
        # two more copies of eof cover the deepest lookahead (ahead=2)
        self.toks = tokens + [tokens[-1]] * 2
        self.i = 0
        # one Ident per name text; binding structure is scope checking's job
        self.interned: dict[str, Ident] = {}

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, text: str, ahead: int = 0) -> bool:
        return self.toks[self.i + ahead].text == text

    def expect(self, text: str) -> Token:
        t = self.toks[self.i]
        if t.text != text:
            raise _error(f"expected {text!r}, found {_found(t)}", t)
        self.i += 1
        return t

    def pos(self) -> tuple[int, int]:
        t = self.toks[self.i]
        return (t.line, t.col)

    def name_token(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "ident":
            raise _error(f"expected 'ident', found {_found(t)}", t)
        self.i += 1
        return t

    def ident(self) -> Ident:
        text = self.name_token().text
        x = self.interned.get(text)
        if x is None:
            x = self.interned[text] = fresh_ident(text)
        return x

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
        while self.peek().kind != "eof":
            decls.append(self.declaration())
        return decls

    def declaration(self) -> Declaration:
        t = self.peek()
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
        sized = self.at("sized")
        if sized:
            self.i += 1
        kw = self.next()
        if kw.text not in ("data", "codata"):
            raise _error("expected 'data' or 'codata'", kw)
        name = self.ident()
        params = []
        while self.at("++") or self.at("("):
            pol = Polarity.INVARIANT
            if self.at("++"):
                self.i += 1
                pol = Polarity.STRICT_POS
            self.expect("(")
            pn = self.ident()
            self.expect(":")
            pt = self.expr()
            self.expect(")")
            params.append(ParamSpec(pn, pt, pol))
        self.expect(":")
        index_sig = self.expr()
        cons = self.block(self.con_spec)
        return DataDecl(sized, kw.text == "codata", name, params, index_sig, cons, p)

    def con_spec(self) -> ConSpec:
        p = self.pos()
        name = self.ident()
        self.expect(":")
        return ConSpec(name, self.expr(), p)

    def fun_decl(self, p) -> FunDecl:
        kw = self.next()
        name = self.ident()
        self.expect(":")
        ty = self.expr()
        clauses = self.block(lambda: self.clause(name.text))
        return FunDecl(kw.text == "cofun", name, ty, clauses, p)

    def clause(self, fname: str) -> Clause:
        head = self.name_token()
        if head.text != fname:
            raise _error(
                f"clause head {head.text!r} does not match function name {fname!r}", head
            )
        lhs = []
        while not self.at("="):
            lhs.append(self.pattern_atom())
        self.expect("=")
        return Clause(lhs, self.expr(), (head.line, head.col))

    def let_decl(self, p) -> LetDecl:
        ev = self.at("eval")
        if ev:
            self.i += 1
        self.expect("let")
        name = self.ident()
        self.expect(":")
        ty = self.expr()
        self.expect("=")
        return LetDecl(name, ty, self.expr(), ev, p)

    # -- expressions --------------------------------------------------------

    def expr(self) -> Expr:
        # the links of the chain, outermost first: (pos, annot, binder,
        # domain), with annot None for a lambda
        links = []
        while True:
            t = self.toks[self.i]
            p = (t.line, t.col)
            text = t.text
            if text == "\\":
                self.i += 1
                x = self.ident()
                self.expect("->")
                links.append((p, None, x, None))
            elif text == "[" or (
                text == "(" and self.peek(1).kind == "ident" and self.at(":", 2)
            ):
                self.i += 1
                x = self.ident()
                self.expect(":")
                dom = self.expr()
                self.expect("]" if text == "[" else ")")
                self.expect("->")
                annot = Annot.PARAMETRIC if text == "[" else Annot.RELEVANT
                links.append((p, annot, x, dom))
            else:
                e = self.app_expr()
                if not self.at("->"):
                    break
                self.i += 1
                links.append((p, Annot.RELEVANT, None, e))
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
        if t.kind == "ident":
            return Var(self.ident(), p)
        self.i += 1  # a fault is reported at t, so consuming it first is safe
        match t.text:
            case "Set":
                return SetU(p)
            case "Size":
                return SizeU(p)
            case "max":
                a = self.size_atom()
                return Size(SMax(a, self.size_atom()), p)
            case "case":
                scrut = self.app_expr()
                return CaseData(scrut, self.block(self.branch), p)
            case "$":
                return Size(SSucc(self.size_atom()), p)
            case "#":
                return Size(SInfty(), p)
            case "_":
                return Size(SMeta(-1), p)
            case "(":
                e = self.expr()
                self.expect(")")
                return e
        raise _error(f"expected an expression, found {_found(t)}", t)

    def branch(self) -> tuple[Pattern, Expr]:
        pat = self.pattern_atom()
        self.expect("->")
        return pat, self.expr()

    def size_atom(self) -> SizeExpr:
        t = self.toks[self.i]
        e = self.atom()
        if isinstance(e, Var):
            return SVar(e.name)
        if isinstance(e, Size):
            return e.size
        raise _error("expected a size expression", t)

    # -- patterns -----------------------------------------------------------

    def pattern_atom(self) -> Pattern:
        t = self.toks[self.i]
        p = (t.line, t.col)
        if t.kind == "ident":
            return PVar(self.ident(), p)
        self.i += 1  # as in atom
        match t.text:
            case "_":
                return PWild(p)
            case ".":
                return PDot(self.atom(), p)
            case "(":
                return self.paren_pattern(p)
        raise _error(f"expected a pattern, found {_found(t)}", t)

    def paren_pattern(self, p) -> Pattern:
        t = self.toks[self.i]
        if t.text == "$":
            self.i += 1
            tv = self.peek()
            if tv.kind != "ident":
                raise _error(
                    "successor patterns admit exactly one successor: "
                    f"expected a size variable after '$', found {_found(tv)}", tv
                )
            x = self.ident()
            self.expect(")")
            return PSucc(x, p)
        if t.kind != "ident":
            raise _error(f"expected a pattern, found {_found(t)}", t)
        if self.at(">", 1):
            parent = self.ident()
            self.expect(">")
            child = self.ident()
            self.expect(")")
            return PSizeRel(parent, child, p)
        con = self.ident()
        args = []
        while not self.at(")"):
            args.append(self.pattern_atom())
        self.expect(")")
        return PCon(con, args, p) if args else PVar(con, p)


def parse_source(source: str) -> list[Declaration]:
    return _Parser(tokenize(source)).program()
