"""Pretty-printing of expressions, patterns and declarations.

Output re-parses to an alpha-equivalent tree with minimal parenthesization;
names that clash textually get a numeric suffix in order of appearance.
Chains of binders, of successors, of a size's pairs and of applications in
their last argument are printed in loops.  A chain of binders or of
applications collects the text of its links and joins it once: printed by
recursion, each link would copy the text of every link inside it, so the
chain would print in time quadratic in its length."""

from __future__ import annotations

from .syntax import (
    Annot,
    App,
    CaseData,
    CaseSize,
    Con,
    DataDecl,
    Declaration,
    Def,
    Elided,
    Expr,
    FunDecl,
    Ident,
    Lam,
    LetDecl,
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
    SizeU,
    Var,
    spine,
)
from .sizes import INFTY


class _Namer:
    """Stable display names: the first uid seen for a text keeps it, later
    uids get a numeric suffix; no display name is handed out twice."""

    __slots__ = ("by_uid", "used", "counts")

    def __init__(self):
        self.by_uid: dict[int, str] = {}
        self.used: set[str] = set()
        self.counts: dict[str, int] = {}

    def name(self, x: Ident) -> str:
        if x.uid not in self.by_uid:
            cand = x.text
            while cand in self.used:
                n = self.counts.get(x.text, 1) + 1
                self.counts[x.text] = n
                cand = f"{x.text}{n}"
            self.used.add(cand)
            self.by_uid[x.uid] = cand
        return self.by_uid[x.uid]


def pretty(e: Expr, namer: _Namer | None = None) -> str:
    return _expr(e, namer or _Namer())


def _size(s: tuple, nm: _Namer) -> str:
    """The pairs of a size as a binary max folded to the left, each pair
    with its successors nested: ((i, 1), (j, 0), (k, 0)) prints as
    `max (max ($ i) j) k`."""
    if len(s) == 1:
        return _pair(*s[0], nm)
    text = f"max {_pair_atom(*s[0], nm)} {_pair_atom(*s[1], nm)}"
    for b, n in s[2:]:
        text = f"max ({text}) {_pair_atom(b, n, nm)}"
    return text


def _pair(b, n: int, nm: _Namer) -> str:
    base = "#" if b is INFTY else nm.name(b) if isinstance(b, Ident) else "_"
    if n == 0:
        return base
    return "$ (" * (n - 1) + "$ " + base + ")" * (n - 1)


def _pair_atom(b, n: int, nm: _Namer) -> str:
    return _pair(b, n, nm) if n == 0 else f"({_pair(b, n, nm)})"


def _size_atom(s: tuple, nm: _Namer) -> str:
    t = _size(s, nm)
    return t if len(s) == 1 and s[0][1] == 0 else f"({t})"


def _is_atomic(e: Expr) -> bool:
    match e:
        case Var() | Def() | Con() | SetU() | SizeU() | Elided():
            return True
        case Size(size=s):
            return len(s) == 1 and s[0][1] == 0
        case _:
            return False


def _expr(e: Expr, nm: _Namer) -> str:
    match e:
        case Var(name=x) | Def(name=x) | Con(name=x):
            return nm.name(x)
        case SetU():
            return "Set"
        case SizeU():
            return "Size"
        case Elided():
            return "…"
        case Size(size=s):
            return _size(s, nm)
        case Pi() | Lam():
            # a chain of binders is printed in a loop, each link's prefix
            # in order, so it prints in linear time
            parts = []
            while True:
                if isinstance(e, Lam):
                    parts.append(f"\\ {nm.name(e.binder)} -> ")
                    e = e.body
                elif isinstance(e, Pi):
                    annot, binder, dom = e.annot, e.binder, e.domain
                    if binder is not None:
                        op, cl = ("[", "]") if annot is Annot.PARAMETRIC else ("(", ")")
                        parts.append(f"{op}{nm.name(binder)} : {_expr(dom, nm)}{cl} -> ")
                    else:
                        doms = _expr(dom, nm)
                        if isinstance(dom, (Pi, Lam)):
                            doms = f"({doms})"
                        parts.append(f"{doms} -> ")
                    e = e.codomain
                else:
                    break
            parts.append(_expr(e, nm))
            return "".join(parts)
        case App():
            # an application whose last argument is again an application is
            # printed in a loop, so the chain prints in linear time
            parts = []
            depth = 0
            while True:
                head, args = spine(e)
                parts.append(_arg(head, nm))
                parts.extend(" " + _arg(a, nm) for a, _ in args[:-1])
                e = args[-1][0]
                if type(e) is not App:
                    break
                parts.append(" (")
                depth += 1
            parts.append(" " + _arg(e, nm) + ")" * depth)
            return "".join(parts)
        case CaseSize(scrut=s, binder=binder, branch=branch):
            return (
                f"case {_size_atom(s, nm)} {{ ($ {nm.name(binder)}) -> "
                f"{_expr(branch, nm)} }}"
            )
        case CaseData(scrut=scrut, branches=branches):
            scruts = _arg(scrut, nm)
            bs = " ; ".join(
                f"{_pattern(p, nm)} -> {_expr(b, nm)}" for p, b in branches
            )
            return f"case {scruts} {{ {bs} }}"
    raise AssertionError(e)


def _arg(e: Expr, nm: _Namer) -> str:
    t = _expr(e, nm)
    return t if _is_atomic(e) else f"({t})"


def _pattern(p: Pattern, nm: _Namer) -> str:
    match p:
        case PVar(name=x):
            return nm.name(x)
        case PWild():
            return "_"
        case PDot(expr=e):
            return f".{_arg(e, nm)}"
        case PSizeRel(parent=parent, child=child):
            return f"({nm.name(parent)} > {nm.name(child)})"
        case PSucc(child=child):
            return f"($ {nm.name(child)})"
        case PCon(con=c, args=args):
            if not args:
                return nm.name(c)
            inner = " ".join(_pattern(a, nm) for a in args)
            return f"({nm.name(c)} {inner})"
    raise AssertionError(p)


def pretty_declaration(d: Declaration, nm: _Namer | None = None) -> str:
    nm = nm or _Namer()
    match d:
        case DataDecl(sized=sized, coinductive=coinductive, name=name, params=params,
                      index_sig=index_sig, constructors=cons):
            kw = ("sized " if sized else "") + ("codata" if coinductive else "data")
            ps = ""
            for p in params:
                mark = "++" if p.polarity is Polarity.STRICT_POS else ""
                ps += f" {mark}({nm.name(p.name)} : {_expr(p.type, nm)})"
            lines = [f"{kw} {nm.name(name)}{ps} : {_expr(index_sig, nm)}"]
            sep = "{"
            for c in cons:
                lines.append(f"{sep} {nm.name(c.name)} : {_expr(c.type, nm)}")
                sep = ";"
            lines.append("}")
            return "\n".join(lines)
        case FunDecl(coinductive=coinductive, name=name, type=ty, clauses=clauses):
            kw = "cofun" if coinductive else "fun"
            lines = [f"{kw} {nm.name(name)} : {_expr(ty, nm)}"]
            sep = "{"
            for cl in clauses:
                lhs = " ".join(_pattern(p, nm) for p in cl.lhs)
                lhs = f" {lhs}" if lhs else ""
                lines.append(f"{sep} {nm.name(name)}{lhs} = {_expr(cl.rhs, nm)}")
                sep = ";"
            lines.append("}")
            return "\n".join(lines)
        case LetDecl(name=name, type=ty, body=body, eval=ev):
            kw = "eval let" if ev else "let"
            return f"{kw} {nm.name(name)} : {_expr(ty, nm)} = {_expr(body, nm)}"
    raise AssertionError(d)


def pretty_program(decls: list[Declaration]) -> str:
    nm = _Namer()
    return "\n\n".join(pretty_declaration(d, nm) for d in decls) + "\n"
