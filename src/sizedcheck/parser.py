"""Tokenizer and recursive-descent parser for the surface syntax (.ma files).

Identifiers produced here carry throwaway uids; scope checking rebuilds the
tree with resolved names."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    App,
    CaseData,
    Clause,
    ConSpec,
    DataDecl,
    Declaration,
    Expr,
    FunDecl,
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


@dataclass
class ParseError(Exception):
    message: str
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


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
        raise ParseError(f"illegal character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        # two more copies of eof cover the deepest lookahead (ahead=2)
        self.toks = tokens + [tokens[-1]] * 2
        self.i = 0
        # one Ident per name text; binding structure is scope checking's job
        self.interned: dict[str, object] = {}

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        return self.next()

    def pos(self) -> tuple[int, int]:
        t = self.peek()
        return (t.line, t.col)

    def ident(self) -> tuple:
        t = self.expect("ident")
        if t.text not in self.interned:
            self.interned[t.text] = fresh_ident(t.text)
        return self.interned[t.text], (t.line, t.col)

    # -- declarations -------------------------------------------------------

    def program(self) -> list[Declaration]:
        decls = []
        while not self.at("eof"):
            decls.append(self.declaration())
        return decls

    def declaration(self) -> Declaration:
        p = self.pos()
        if self.at("keyword", "sized") or self.at("keyword", "data") or self.at("keyword", "codata"):
            return self.data_decl(p)
        if self.at("keyword", "fun") or self.at("keyword", "cofun"):
            return self.fun_decl(p)
        if self.at("keyword", "eval") or self.at("keyword", "let"):
            return self.let_decl(p)
        t = self.peek()
        raise ParseError(f"expected a declaration, found {t.text or t.kind!r}", t.line, t.col)

    def data_decl(self, p) -> DataDecl:
        sized = False
        if self.at("keyword", "sized"):
            self.next()
            sized = True
        kw = self.next()
        if kw.text not in ("data", "codata"):
            raise ParseError("expected 'data' or 'codata'", kw.line, kw.col)
        name, _ = self.ident()
        params = []
        while self.at("symbol", "++") or self.at("symbol", "("):
            pol = Polarity.INVARIANT
            if self.at("symbol", "++"):
                self.next()
                pol = Polarity.STRICT_POS
            self.expect("symbol", "(")
            pn, _ = self.ident()
            self.expect("symbol", ":")
            pt = self.expr()
            self.expect("symbol", ")")
            params.append(ParamSpec(pn, pt, pol))
        self.expect("symbol", ":")
        index_sig = self.expr()
        cons = []
        self.expect("symbol", "{")
        if not self.at("symbol", "}"):
            while True:
                cp = self.pos()
                cn, _ = self.ident()
                self.expect("symbol", ":")
                ct = self.expr()
                cons.append(ConSpec(cn, ct, cp))
                if self.at("symbol", ";"):
                    self.next()
                    continue
                break
        self.expect("symbol", "}")
        return DataDecl(sized, kw.text == "codata", name, params, index_sig, cons, p)

    def fun_decl(self, p) -> FunDecl:
        kw = self.next()
        name, _ = self.ident()
        self.expect("symbol", ":")
        ty = self.expr()
        clauses = []
        self.expect("symbol", "{")
        if not self.at("symbol", "}"):
            while True:
                clauses.append(self.clause(name.text))
                if self.at("symbol", ";"):
                    self.next()
                    continue
                break
        self.expect("symbol", "}")
        return FunDecl(kw.text == "cofun", name, ty, clauses, p)

    def clause(self, fname: str) -> Clause:
        p = self.pos()
        head = self.expect("ident")
        if head.text != fname:
            raise ParseError(
                f"clause head {head.text!r} does not match function name {fname!r}",
                head.line, head.col,
            )
        lhs = []
        while not self.at("symbol", "="):
            lhs.append(self.pattern_atom())
        self.expect("symbol", "=")
        rhs = self.expr()
        return Clause(lhs, rhs, p)

    def let_decl(self, p) -> LetDecl:
        ev = False
        if self.at("keyword", "eval"):
            self.next()
            ev = True
        self.expect("keyword", "let")
        name, _ = self.ident()
        self.expect("symbol", ":")
        ty = self.expr()
        self.expect("symbol", "=")
        body = self.expr()
        return LetDecl(name, ty, body, ev, p)

    # -- expressions --------------------------------------------------------

    def expr(self) -> Expr:
        p = self.pos()
        if self.at("symbol", "(") and self.at("ident", ahead=1) and self.at("symbol", ":", ahead=2):
            self.next()
            x, _ = self.ident()
            self.expect("symbol", ":")
            dom = self.expr()
            self.expect("symbol", ")")
            self.expect("symbol", "->")
            cod = self.expr()
            return Pi(Annot.RELEVANT, x, dom, cod, p)
        if self.at("symbol", "["):
            self.next()
            x, _ = self.ident()
            self.expect("symbol", ":")
            dom = self.expr()
            self.expect("symbol", "]")
            self.expect("symbol", "->")
            cod = self.expr()
            return Pi(Annot.PARAMETRIC, x, dom, cod, p)
        if self.at("symbol", "\\"):
            self.next()
            x, _ = self.ident()
            self.expect("symbol", "->")
            body = self.expr()
            return Lam(x, body, p)
        head = self.app_expr()
        if self.at("symbol", "->"):
            self.next()
            cod = self.expr()
            return Pi(Annot.RELEVANT, None, head, cod, p)
        return head

    def at_atom(self) -> bool:
        t = self.peek()
        if t.kind == "ident":
            return True
        if t.kind == "keyword":
            return t.text in ("Set", "Size", "max", "case")
        if t.kind == "symbol":
            return t.text in ("(", "$", "#", "_")
        return False

    def app_expr(self) -> Expr:
        e = self.atom()
        while self.at_atom():
            p = self.pos()
            arg = self.atom()
            e = App(e, arg, None, p)
        return e

    def atom(self) -> Expr:
        t = self.peek()
        p = (t.line, t.col)
        if t.kind == "ident":
            x, _ = self.ident()
            return Var(x, p)
        if self.at("keyword", "Set"):
            self.next()
            return SetU(p)
        if self.at("keyword", "Size"):
            self.next()
            return SizeU(p)
        if self.at("keyword", "max"):
            self.next()
            a = self.size_atom()
            b = self.size_atom()
            return Size(SMax(a, b), p)
        if self.at("keyword", "case"):
            self.next()
            scrut = self.app_expr()
            branches = []
            self.expect("symbol", "{")
            if not self.at("symbol", "}"):
                while True:
                    pat = self.pattern_atom()
                    self.expect("symbol", "->")
                    body = self.expr()
                    branches.append((pat, body))
                    if self.at("symbol", ";"):
                        self.next()
                        continue
                    break
            self.expect("symbol", "}")
            return CaseData(scrut, branches, p)
        if self.at("symbol", "$"):
            self.next()
            arg = self.size_atom()
            return Size(SSucc(arg), p)
        if self.at("symbol", "#"):
            self.next()
            return Size(SInfty(), p)
        if self.at("symbol", "_"):
            self.next()
            return Size(SMeta(-1), p)
        if self.at("symbol", "("):
            self.next()
            e = self.expr()
            self.expect("symbol", ")")
            return e
        raise ParseError(f"expected an expression, found {t.text or t.kind!r}", t.line, t.col)

    def size_atom(self) -> SizeExpr:
        t = self.peek()
        e = self.atom()
        return self.to_size(e, t)

    def to_size(self, e: Expr, t: Token) -> SizeExpr:
        match e:
            case Var(x):
                return SVar(x)
            case Size(s):
                return s
        raise ParseError("expected a size expression", t.line, t.col)

    # -- patterns -----------------------------------------------------------

    def pattern_atom(self) -> Pattern:
        t = self.peek()
        p = (t.line, t.col)
        if t.kind == "ident":
            x, _ = self.ident()
            return PVar(x, p)
        if self.at("symbol", "_"):
            self.next()
            return PWild(p)
        if self.at("symbol", "."):
            self.next()
            e = self.atom()
            return PDot(e, p)
        if self.at("symbol", "("):
            self.next()
            if self.at("symbol", "$"):
                self.next()
                tv = self.peek()
                if tv.kind != "ident":
                    raise ParseError(
                        "successor patterns admit exactly one successor: "
                        f"expected a size variable after '$', found {tv.text or tv.kind!r}",
                        tv.line, tv.col,
                    )
                x, _ = self.ident()
                self.expect("symbol", ")")
                return PSucc(x, p)
            if self.at("ident") and self.at("symbol", ">", ahead=1):
                parent, _ = self.ident()
                self.expect("symbol", ">")
                child, _ = self.ident()
                self.expect("symbol", ")")
                return PSizeRel(parent, child, p)
            if self.at("ident"):
                con, _ = self.ident()
                args = []
                while not self.at("symbol", ")"):
                    args.append(self.pattern_atom())
                self.expect("symbol", ")")
                if not args:
                    return PVar(con, p)
                return PCon(con, args, p)
            tv = self.peek()
            raise ParseError(
                f"expected a pattern, found {tv.text or tv.kind!r}",
                tv.line, tv.col,
            )
        raise ParseError(f"expected a pattern, found {t.text or t.kind!r}", t.line, t.col)


def parse_source(source: str) -> list[Declaration]:
    return _Parser(tokenize(source)).program()
