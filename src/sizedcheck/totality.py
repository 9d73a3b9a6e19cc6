"""Static analyses behind the totality verdicts: polarity of a variable in a
type, strict positivity of data declarations, upper semi-continuity of result
types at successor matches, and size-descent termination with a structural
fallback."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .diagnostics import Diagnostic
from .signature import DataEntry, FunEntry, Signature
from .sizes import Rel, entails
from .syntax import (
    Annot,
    App,
    CaseData,
    CaseSize,
    Con,
    Def,
    Expr,
    Ident,
    Lam,
    Pattern,
    PCon,
    Pi,
    Polarity,
    Pos,
    PVar,
    Size,
    Var,
    compose,
    join,
    leq_pol,
    size_vars,
    spine,
)
from .values import Value, VData


def polarity_of(v: Ident, t: Expr, sig: Signature) -> Polarity:
    """Variance of v in the type expression t.

    Pi domains flip through NEG; data parameters compose with their declared
    polarity; a sized data's size index is POS for inductive and NEG for
    coinductive types; any other index position is INVARIANT; occurrences in
    parametric (erased) arguments do not count; applications of non-data
    heads are INVARIANT for every occurring variable."""
    match t:
        case Var(name=x) | Def(name=x) | Con(name=x):
            return Polarity.STRICT_POS if x == v else Polarity.UNUSED
        case Size(size=s):
            return Polarity.STRICT_POS if v in size_vars(s) else Polarity.UNUSED
        case Pi(domain=dom, codomain=cod):
            p = compose(Polarity.NEG, polarity_of(v, dom, sig))
            return join(p, polarity_of(v, cod, sig))
        case Lam(body=body):
            occ = polarity_of(v, body, sig)
            return Polarity.UNUSED if occ is Polarity.UNUSED else Polarity.INVARIANT
        case CaseSize(scrut=s, branch=branch):
            occ = v in size_vars(s) or polarity_of(v, branch, sig) is not Polarity.UNUSED
            return Polarity.INVARIANT if occ else Polarity.UNUSED
        case CaseData(scrut=scrut, branches=branches):
            occ = polarity_of(v, scrut, sig) is not Polarity.UNUSED or any(
                polarity_of(v, b, sig) is not Polarity.UNUSED for _, b in branches
            )
            return Polarity.INVARIANT if occ else Polarity.UNUSED
        case App():
            head, args = spine(t)
            if isinstance(head, Def):
                entry = sig.get(head.name)
                if isinstance(entry, DataEntry):
                    return _data_app_polarity(v, entry, args, sig)
            out = polarity_of(v, head, sig)
            if out is not Polarity.UNUSED:
                out = Polarity.INVARIANT
            for arg, annot in args:
                if annot is Annot.PARAMETRIC:
                    continue
                q = polarity_of(v, arg, sig)
                if q is not Polarity.UNUSED:
                    out = join(out, Polarity.INVARIANT)
            return out
        case _:
            return Polarity.UNUSED


def _data_app_polarity(v: Ident, entry: DataEntry, args, sig: Signature) -> Polarity:
    out = Polarity.STRICT_POS if entry.name == v else Polarity.UNUSED
    n_params = len(entry.params)
    for k, (arg, annot) in enumerate(args):
        if annot is Annot.PARAMETRIC:
            continue
        q = polarity_of(v, arg, sig)
        if k < n_params:
            out = join(out, compose(entry.params[k][1], q))
        elif entry.sized and k == n_params:
            index_pol = Polarity.NEG if entry.coinductive else Polarity.POS
            out = join(out, compose(index_pol, q))
        else:
            out = join(out, compose(Polarity.INVARIANT, q))
    return out


def strict_positivity_check(
    defined: Ident,
    strict_params: list[Ident],
    con_name: Ident,
    arg_types: list[Expr],
    sig: Signature,
    pos: Pos = (0, 0),
):
    """The defined type and every ++ parameter must occur only strictly
    positively in the constructor argument types."""
    for subject in [defined, *strict_params]:
        for k, b in enumerate(arg_types):
            p = polarity_of(subject, b, sig)
            if not leq_pol(p, Polarity.STRICT_POS):
                raise Diagnostic(
                    "POSITIVITY",
                    f"'{subject.text}' occurs non-strictly-positively "
                    f"(polarity {p.value}) in argument {k + 1} of "
                    f"constructor '{con_name.text}'",
                    pos,
                )


# ---------------------------------------------------------------------------
# Admissibility (upper semi-continuity)


def _sized_data_at(ev, sig: Signature, t: Value, i: Ident, coinductive: bool) -> bool:
    """t is a sized (co)inductive data value whose size index is exactly i,
    with no other relevant occurrence of i."""
    if not isinstance(t, VData):
        return False
    entry = sig.data(t.name)
    if not entry.sized or entry.coinductive is not coinductive:
        return False
    n_params = len(entry.params)
    if len(t.args) <= n_params:
        return False
    ns = ev.size_view(ev.force(t.args[n_params]))
    if ns is None or not ns.is_atom():
        return False
    base, off = ns.atom()
    if base != i or off != 0:
        return False
    want = Polarity.NEG if coinductive else Polarity.POS
    return polarity_of(i, ev.quote(t), sig) is want


def admissibility_check(ev, sig: Signature, residual: Value, i: Ident, cofun: bool) -> str | None:
    """Check that matching size variable i against a successor pattern is
    sound for the remaining type `residual`.  Returns a reason on failure.

    For corecursion every domain must be antitone in i or a sized inductive
    type at exactly i, and the result must be a sized coinductive type at
    exactly i; for recursion the dual reading applies."""
    from .pretty import pretty

    binders, t = ev.telescope(residual)
    good_dom = Polarity.NEG if cofun else Polarity.POS
    for _, d, _ in binders:
        p = polarity_of(i, ev.quote(d), sig)
        if leq_pol(p, good_dom):
            continue
        if _sized_data_at(ev, sig, d, i, coinductive=not cofun):
            continue
        kind = "antitone" if cofun else "monotone"
        other = "inductive" if cofun else "coinductive"
        return (
            f"argument type '{pretty(ev.quote(d))}' is neither {kind} "
            f"nor sized {other} at '{i.text}'"
        )
    if not _sized_data_at(ev, sig, t, i, coinductive=cofun):
        want = "coinductive" if cofun else "inductive"
        return (
            f"result type '{pretty(ev.quote(t))}' is not a sized {want} "
            f"type at exactly '{i.text}'"
        )
    return None


# ---------------------------------------------------------------------------
# Termination


class SizeRel(Enum):
    LT = "<"
    LE = "<="
    UNKNOWN = "?"


class StructRel(Enum):
    SUB = "sub"
    EQ = "eq"
    UNKNOWN = "?"


@dataclass
class CallGraphEntry:
    callee: str
    size_rel: SizeRel
    struct_rels: list[StructRel]
    pos: tuple


@dataclass
class TotalityReport:
    name: str
    rule: str  # "size-descent" | "structural" | "non-recursive" | "rejected"
    position: int | None = None
    entries: list[CallGraphEntry] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"{self.name}: {self.rule}"
                 + (f" on argument {self.position}" if self.position is not None else "")]
        for e in self.entries:
            rels = " ".join(r.value for r in e.struct_rels)
            lines.append(
                f"  call {e.callee} at {e.pos[0]}:{e.pos[1]}: "
                f"size {e.size_rel.value} args [{rels}]"
            )
        return "\n".join(lines)


def _strict_vars(p: Pattern, inside: bool = False) -> set[int]:
    """Variables bound strictly inside a constructor pattern."""
    match p:
        case PVar(name=x):
            return {x.uid} if inside else set()
        case PCon(args=args):
            out: set[int] = set()
            for a in args:
                out |= _strict_vars(a, True)
            return out
        case _:
            return set()


def _top_var(p: Pattern) -> int | None:
    return p.name.uid if isinstance(p, PVar) else None


def _call_entries(entry: FunEntry) -> list[CallGraphEntry]:
    out = []
    for c in entry.calls:
        if c.size_arg is not None and c.lhs_size is not None:
            if entails(c.sctx, c.size_arg, Rel.LT, c.lhs_size):
                srel = SizeRel.LT
            elif entails(c.sctx, c.size_arg, Rel.LE, c.lhs_size):
                srel = SizeRel.LE
            else:
                srel = SizeRel.UNKNOWN
        else:
            srel = SizeRel.UNKNOWN
        rels = []
        clause = entry.clauses[c.clause_index]
        for p_idx in range(entry.arity):
            if p_idx >= len(c.args) or p_idx >= len(clause.patterns):
                rels.append(StructRel.UNKNOWN)
                continue
            arg = c.args[p_idx]
            pat = clause.patterns[p_idx]
            if isinstance(arg, Var):
                if arg.name.uid in _strict_vars(pat):
                    rels.append(StructRel.SUB)
                    continue
                if arg.name.uid == _top_var(pat):
                    rels.append(StructRel.EQ)
                    continue
            rels.append(StructRel.UNKNOWN)
        out.append(CallGraphEntry(entry.name.text, srel, rels, c.pos))
    return out


def termination_check(entry: FunEntry, sig: Signature) -> TotalityReport:
    """Accept when every recursive call descends in the designated size
    parameter, or, failing that, when one argument position descends
    structurally in every clause.  Raises TERMINATION/PRODUCTIVITY."""
    entries = _call_entries(entry)
    name = entry.name.text
    if not entry.calls:
        return TotalityReport(name, "non-recursive", None, entries)

    if entry.size_param is not None and all(
        e.size_rel is SizeRel.LT for e in entries
    ):
        return TotalityReport(name, "size-descent", entry.size_param, entries)

    for p_idx in range(entry.arity):
        if all(e.struct_rels[p_idx] is StructRel.SUB for e in entries):
            return TotalityReport(name, "structural", p_idx, entries)

    code = "PRODUCTIVITY" if entry.coinductive else "TERMINATION"
    bad = [
        f"{e.callee} at {e.pos[0]}:{e.pos[1]}"
        for e in entries
        if e.size_rel is not SizeRel.LT
    ] or [f"{e.callee} at {e.pos[0]}:{e.pos[1]}" for e in entries]
    raise Diagnostic(
        code,
        f"cannot justify recursive calls of '{name}': " + ", ".join(bad),
        entry.clauses[entry.calls[0].clause_index].pos if entry.clauses else (0, 0),
        report=TotalityReport(name, "rejected", None, entries),
    )
