"""Tokenizer and recursive-descent parser for the surface syntax (.ma files).

`tokenize` reads a source with one compiled regex and returns its tokens as
two parallel lists, the texts and their source offsets; eof's text is empty.
Each distinct text is one string object within a source.  A position is a
source offset everywhere in the front end and the checker; it is shown as
(line, column) only where a user sees it, by `syntax.LineTable`.

A fault is raised where it is found, as a PARSE `Diagnostic` at the token
that shows it.  The parser branches on token text alone: an identifier's text
is never a keyword's or a symbol's, and eof's text is empty, so one set
lookup tells identifiers from the rest.  A chain of binders and arrows
(`(x : A) ->`, `[x : A] ->`, `\\ x ->`, `A ->`) is collected in a loop and
folded to the right, and so is a run of `$` with the `( $` groups nested
in it, so neither costs stack.

Names are resolved as they are read, by the rules of `scope.py`, so the
parser builds the one tree the checker reads: a binder is a fresh Ident, a
use is the Ident it names, and a size hole gets its number, an int counted
from 1 in source order.  A size is read as the tuple of (base, successors)
pairs whose max it is (see `sizes`): a name is ((x, 0),), `#` the one
((INFTY, 0),), `_` its hole's one pair (id, 0), a `$` run shifts every pair
of the size it ends in and `max a b` joins the tuples of a and b.  Nothing
is pruned, sorted or bounded here, so a size past `sizes.MAX_OFFSET` is
refused where it is evaluated.  A relevant Pi
binder that nothing reads is dropped, and so is a data kind's (`kind_binder`),
so `pretty` prints such a Pi as an arrow.  A dot pattern may name a variable
bound later in its left-hand side, so it is read twice: where it stands, to
find its end and its PARSE faults, and again once the whole left-hand side is
bound.  An UNBOUND or DUPLICATE fault does not stop the parser, since a
later PARSE fault outranks it; `scope.scope_check` raises it after parsing."""

from __future__ import annotations

import re

from .diagnostics import Diagnostic, too_deep
from .scope import Scope
from .sizes import INFTY_SIZE
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
    SizeU,
    Var,
)

KEYWORDS = {
    "data", "sized", "codata", "fun", "cofun", "let", "eval",
    "case", "Size", "Set", "max",
}

SYMBOLS = ("->", "++", *":;{}()[]=\\.$#_>|")

# whitespace and comments; a comment runs to the end of its line
_SKIP = r"(?:[ \t\r\n]+|--[^\n]*)*+"
# one token and the whitespace and comments after it; a character that can
# begin no token is a token of its own, which `tokenize` rejects
_TOKEN = re.compile(r"([^\W\d_][\w']*|" + "|".join(map(re.escape, SYMBOLS)) + r"|(?s:.))" + _SKIP)
_LEADING = re.compile(_SKIP)

# every text that is not a name, mapped to itself
_FIXED = {t: t for t in (*KEYWORDS, *SYMBOLS)}


class Tokens(Record):
    """The tokens of one source: token k is `texts[k]`, at source offset
    `offsets[k]`.  The last token is eof, whose text is empty."""

    __slots__ = ("texts", "offsets")

    def __init__(self, texts: list[str], offsets: list[Pos]):
        self.texts = texts
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.texts)


def tokenize(source: str) -> Tokens:
    names = dict(_FIXED)  # one string per distinct text
    texts: list[str] = []
    offsets: list[Pos] = []
    for m in _TOKEN.finditer(source, _LEADING.match(source).end()):
        t = m[1]
        texts.append(names.setdefault(t, t))
        offsets.append(m.start())
    # a name begins with a letter, which the regex class above does not
    # check: it also takes a digit that is not decimal, like '²'
    bad = {t for t in names if t not in _FIXED and not t[0].isalpha()}
    if bad:
        k = next(k for k, t in enumerate(texts) if t in bad)
        raise Diagnostic("PARSE", f"illegal character {texts[k][0]!r}", offsets[k])
    # eof stands after the last token and the whitespace after it, but
    # before a comment that ends the source; no token holds "--", so the
    # first "--" of the last line begins that comment
    last = source.rfind("\n") + 1
    comment = source.find("--", last)
    texts.append("")
    offsets.append(len(source) if comment < 0 else comment)
    return Tokens(texts, offsets)


# the texts that are not names, and those of them that can begin no argument
# of an application
_NOT_NAME = frozenset((*_FIXED, ""))
_NOT_ARG = _NOT_NAME - {"Set", "Size", "max", "case", "(", "$", "#", "_"}


def _found(text: str) -> str:
    return repr(text or "eof")


class _Parser:
    __slots__ = ("texts", "offsets", "i", "sc", "size_pos")

    def __init__(self, tokens: Tokens):
        # no lookahead passes eof: the parser looks past a token only when
        # that token is not eof
        self.texts = tokens.texts
        self.offsets = tokens.offsets
        self.i = 0
        self.sc = Scope()
        # the first token of the size expression being read, if any
        self.size_pos: Pos | None = None

    # -- token helpers ------------------------------------------------------

    def error(self, message: str, k: int | None = None) -> Diagnostic:
        """A PARSE fault at token k, by default the current one."""
        return Diagnostic("PARSE", message, self.offsets[self.i if k is None else k])

    def at(self, text: str) -> bool:
        return self.texts[self.i] == text

    def expect(self, text: str):
        t = self.texts[self.i]
        if t != text:
            raise self.error(f"expected {text!r}, found {_found(t)}")
        self.i += 1

    def name(self) -> str:
        t = self.texts[self.i]
        if t in _NOT_NAME:
            raise self.error(f"expected 'ident', found {_found(t)}")
        self.i += 1
        return t

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
        while self.texts[self.i]:
            self.sc.fault = None
            decls.append(self.declaration())
            decls[-1].fault = self.sc.fault
            self.sc.read.clear()
        return decls

    def declaration(self) -> Declaration:
        t = self.texts[self.i]
        p = self.offsets[self.i]
        try:
            match t:
                case "sized" | "data" | "codata":
                    return self.data_decl(p)
                case "fun" | "cofun":
                    return self.fun_decl(p)
                case "eval" | "let":
                    return self.let_decl(p)
        except RecursionError:
            raise too_deep(p) from None
        raise self.error(f"expected a declaration, found {_found(t)}")

    def data_decl(self, p) -> DataDecl:
        sc = self.sc
        sized = self.at("sized")
        if sized:
            self.i += 1
        kw = self.texts[self.i]
        if kw not in ("data", "codata"):
            raise self.error("expected 'data' or 'codata'")
        self.i += 1
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
        for ps in params:
            if ps.name not in sc.read:
                ps.kind_binder = None
        owner = sc.define(name, "data", p)
        cons = self.block(lambda: self.con_spec(owner))
        sc.restore(0)
        return DataDecl(sized, kw == "codata", owner, params, index_sig, cons, p)

    def con_spec(self, owner: Ident) -> ConSpec:
        p = self.offsets[self.i]
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
        head = self.i
        if self.name() != fname:
            raise self.error(f"clause head {self.texts[head]!r} does not match function name "
                             f"{fname!r}", head)
        dots: list = []
        lhs = []
        while not self.at("="):
            lhs.append(self.pattern_atom(dots))
        self.resolve_dots(dots)
        self.expect("=")
        rhs = self.expr()
        self.sc.restore(0)
        return Clause(lhs, rhs, self.offsets[head])

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
        texts = self.texts
        mark = len(sc.trail)
        # the links of the chain, outermost first: (pos, annot, binder,
        # domain), with annot None for a lambda; each binder is in scope
        # from the next link on
        links = []
        while True:
            p = self.offsets[self.i]
            text = texts[self.i]
            if text == "\\":
                self.i += 1
                x = sc.bind(self.name())
                self.expect("->")
                links.append((p, None, x, None))
            elif text == "[" or (
                text == "(" and texts[self.i + 1] not in _NOT_NAME and texts[self.i + 2] == ":"
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
            if annot is Annot.RELEVANT and x not in sc.read:
                x = None  # nothing reads it: an arrow
            e = Lam(x, e, p) if annot is None else Pi(annot, x, dom, e, p)
        return e

    def app_expr(self) -> Expr:
        e = self.atom()
        while self.texts[self.i] not in _NOT_ARG:
            p = self.offsets[self.i]
            e = App(e, self.atom(), None, p)
        return e

    def atom(self) -> Expr:
        k = self.i
        t = self.texts[k]
        p = self.offsets[k]
        self.i += 1  # a fault is reported at token k, so consuming it first is safe
        if t not in _NOT_NAME:
            if self.size_pos is not None:
                return Var(self.sc.size_var(t, self.size_pos), p)
            return self.sc.var(t, p)
        match t:
            case "Set":
                return SetU(p)
            case "Size":
                return SizeU(p)
            case "max" | "$":
                outer = self.size_pos is None
                if outer:
                    self.size_pos = p
                if t == "max":
                    s = self.size_atom() + self.size_atom()
                else:
                    s = self.successors()
                if outer:
                    self.size_pos = None
                return Size(s, p)
            case "case":
                return self.case(p)
            case "#":
                return Size(INFTY_SIZE, p)
            case "_":
                self.sc.metas += 1
                return Size(((self.sc.metas, 0),), p)
            case "(":
                e = self.expr()
                self.expect(")")
                return e
        raise self.error(f"expected an expression, found {_found(t)}", k)

    def successors(self) -> tuple:
        """The rest of a `$` run, read in a loop with every `( $` group
        nested in it, as `$ ($ ($ i))` prints; the run shifts every pair of
        the size it ends in.  A group that holds more than its size is read
        again from its `(` as an expression, which reports the fault."""
        texts = self.texts
        n, opens = 1, []
        while True:
            if texts[self.i] == "(" and texts[self.i + 1] == "$":
                opens.append(self.i)
                self.i += 1
            elif texts[self.i] != "$":
                break
            self.i += 1
            n += 1
        s = self.size_atom()
        for k in reversed(opens):
            if texts[self.i] != ")":
                self.i = k
                self.size_atom()
                raise AssertionError("a size group read again must be refused")
            self.i += 1
        return tuple([(b, k + n) for b, k in s])

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
            s = ((scrut.name, 0),) if isinstance(scrut, Var) else scrut.size
            return CaseSize(s, pat.child, body, p)
        elif scrut_fault is None:
            sc.fault = Diagnostic(
                "UNBOUND", "case on a size requires a size variable scrutinee", p
            )
        return CaseData(scrut, branches, p)

    def branch(self) -> tuple[Pattern, Expr]:
        sc = self.sc
        mark = len(sc.trail)
        outer, sc.pattern_mark = sc.pattern_mark, mark
        dots: list = []
        pat = self.pattern_atom(dots)
        sc.pattern_mark = outer
        self.resolve_dots(dots)
        self.expect("->")
        body = self.expr()
        sc.restore(mark)
        return pat, body

    def size_atom(self) -> tuple:
        k = self.i
        e = self.atom()
        if isinstance(e, Var):
            return ((e.name, 0),)
        if isinstance(e, Size):
            return e.size
        raise self.error("expected a size expression", k)

    # -- patterns -----------------------------------------------------------

    def pattern_atom(self, dots: list) -> Pattern:
        """One pattern, whose dots go to `dots`."""
        k = self.i
        t = self.texts[k]
        p = self.offsets[k]
        self.i += 1  # as in atom
        if t not in _NOT_NAME:
            return self.sc.pattern_var(t, p)
        match t:
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
                return self.paren_pattern(p, dots)
        raise self.error(f"expected a pattern, found {_found(t)}", k)

    def resolve_dots(self, dots: list):
        """Read the dots again once their left-hand side is bound."""
        if dots:
            end = self.i
            for start, d in dots:
                self.i = start
                d.expr = self.atom()
            self.i = end

    def paren_pattern(self, p, dots: list) -> Pattern:
        sc = self.sc
        t = self.texts[self.i]
        if t == "$":
            v = self.texts[self.i + 1]
            if v in _NOT_NAME:
                raise self.error(
                    "successor patterns admit exactly one successor: "
                    f"expected a size variable after '$', found {_found(v)}", self.i + 1
                )
            self.i += 2
            self.expect(")")
            return PSucc(sc.bind(v, p), p)
        if t in _NOT_NAME:
            raise self.error(f"expected a pattern, found {_found(t)}")
        self.i += 1
        if self.at(">"):
            parent = sc.size_var(t, p)
            self.i += 1
            child = self.name()
            self.expect(")")
            return PSizeRel(parent, sc.bind(child, p), p)
        if self.at(")"):  # (x) is the pattern x
            self.i += 1
            return sc.pattern_var(t, p)
        con = sc.constructor(t, p)
        args = []
        while not self.at(")"):
            args.append(self.pattern_atom(dots))
        self.expect(")")
        return PCon(con, args, p)


def parse_source(source: str) -> list[Declaration]:
    return _Parser(tokenize(source)).program()
