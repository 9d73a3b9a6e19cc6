"""Static analyses behind the totality verdicts: polarity of a variable in a
type, strict positivity of data declarations, upper semi-continuity of result
types at successor matches, and size-descent termination with a structural
fallback.

The type analyses read values, as the evaluator leaves them, and never
quote them back into syntax: a body under a binder is opened with a fresh
variable by `Evaluator.open`, and nothing is unfolded.  The variance of each
argument slot of a data type, the size index's included, is decided once,
in `DataEntry.variances`; `polarity_of`, the admissibility check, the
checker's size-monotonicity test and `Evaluator.compare` all read it."""

from __future__ import annotations

from enum import Enum

from .diagnostics import Diagnostic
from .pretty import pretty
from .signature import FunEntry
from .sizes import Rel, entails, size_vars
from .syntax import (
    Annot,
    Ident,
    LineTable,
    NOPOS,
    Pattern,
    PCon,
    Polarity,
    Pos,
    PVar,
    Record,
    Var,
    compose,
    join,
    leq_pol,
)
from .values import Value, VCon, VData, VDef, VLam, VNe, VPi, VSize


def polarity_of(x: Ident, t: Value, ev) -> Polarity:
    """Variance of the variable x in the type value t, read off t as it
    stands: no defined head is unfolded.

    Pi domains flip through NEG; each argument of a data type composes with
    the variance of its slot (`DataEntry.variances`); a neutral, defined or
    constructor head is STRICT_POS in itself, and an application of it, like
    a lambda, is INVARIANT for every variable that occurs in it; occurrences
    in parametric (erased) arguments do not count."""
    match t:
        case VSize(size=ns):
            return Polarity.STRICT_POS if x in size_vars(ns) else Polarity.UNUSED
        case VPi(domain=dom, closure=clo):
            _, body = ev.open(clo)
            p = compose(Polarity.NEG, polarity_of(x, dom, ev))
            return join(p, polarity_of(x, body, ev))
        case VLam(closure=clo):
            _, body = ev.open(clo)
            used = polarity_of(x, body, ev) is not Polarity.UNUSED
            return Polarity.INVARIANT if used else Polarity.UNUSED
        case VData(name=d, args=args):
            out = Polarity.STRICT_POS if d == x else Polarity.UNUSED
            for var, th in zip(ev.sig.data(d).variances, args):
                out = join(out, compose(var, polarity_of(x, ev.force(th), ev)))
            return out
        case VNe(head=h, spine=spine) | VDef(name=h, spine=spine):
            args = [th for th, annot in spine if annot is not Annot.PARAMETRIC]
        case VCon(con=h, args=spine):
            annots = ev.sig.con(h).annots
            args = [th for th, annot in zip(spine, annots) if annot is not Annot.PARAMETRIC]
        case _:
            return Polarity.UNUSED
    if not spine:
        return Polarity.STRICT_POS if h == x else Polarity.UNUSED
    # no short cut at a first occurrence: every relevant argument is forced,
    # so one that cannot be evaluated fails here whatever comes before it
    used = [h == x] + [polarity_of(x, ev.force(th), ev) is not Polarity.UNUSED for th in args]
    return Polarity.INVARIANT if any(used) else Polarity.UNUSED


def strict_positivity_check(
    defined: Ident,
    strict_params: list[Ident],
    con_name: Ident,
    arg_types: list[Value],
    ev,
    pos: Pos = NOPOS,
):
    """The defined type and every ++ parameter must occur only strictly
    positively in the constructor argument types."""
    for subject in [defined, *strict_params]:
        for k, b in enumerate(arg_types):
            p = polarity_of(subject, b, ev)
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


def _sized_data_at(ev, t: Value, i: Ident, coinductive: bool) -> bool:
    """t is a sized (co)inductive data value whose size index is exactly i,
    with no other relevant occurrence of i."""
    if not isinstance(t, VData):
        return False
    entry = ev.sig.data(t.name)
    if not entry.sized or entry.coinductive is not coinductive:
        return False
    n_params = len(entry.params)
    if len(t.args) <= n_params:
        return False
    ns = ev.size_view(ev.force(t.args[n_params]))
    if ns != ((i, 0),):
        return False
    return polarity_of(i, t, ev) is entry.variances[n_params]


def admissibility_check(ev, residual: Value, i: Ident) -> str | None:
    """Check that matching size variable i against a successor pattern is
    sound for the remaining type `residual` of a corecursive definition.
    Returns a reason on failure.

    Every domain must be antitone in i or a sized inductive type at exactly
    i, and the result must be a sized coinductive type at exactly i."""
    binders, t = ev.telescope(residual)
    for _, d, _ in binders:
        if leq_pol(polarity_of(i, d, ev), Polarity.NEG):
            continue
        if _sized_data_at(ev, d, i, coinductive=False):
            continue
        return (
            f"argument type '{pretty(ev.quote(d))}' is neither antitone "
            f"nor sized inductive at '{i.text}'"
        )
    if not _sized_data_at(ev, t, i, coinductive=True):
        return (
            f"result type '{pretty(ev.quote(t))}' is not a sized coinductive "
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


class CallGraphEntry(Record):
    __slots__ = ("callee", "size_rel", "struct_rels", "pos")

    def __init__(self, callee: str, size_rel: SizeRel, struct_rels: list[StructRel],
                 pos: tuple[int, int]):
        self.callee = callee
        self.size_rel = size_rel
        self.struct_rels = struct_rels
        self.pos = pos  # the call's (line, column), as reports and messages show it


class TotalityReport(Record):
    __slots__ = ("name", "rule", "position", "entries")

    def __init__(self, name: str, rule: str, position: int | None,
                 entries: list[CallGraphEntry]):
        self.name = name
        self.rule = rule  # "size-descent" | "structural" | "non-recursive" | "rejected"
        self.position = position
        self.entries = entries

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


def _call_entries(entry: FunEntry, lines: LineTable, hyps: dict) -> list[CallGraphEntry]:
    out = []
    for c in entry.calls:
        if c.size_arg is not None and c.lhs_size is not None:
            if entails(hyps, c.size_arg, Rel.LT, c.lhs_size):
                srel = SizeRel.LT
            elif entails(hyps, c.size_arg, Rel.LE, c.lhs_size):
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
        out.append(CallGraphEntry(entry.name.text, srel, rels, lines.line_col(c.pos)))
    return out


def termination_check(entry: FunEntry, lines: LineTable, hyps: dict) -> TotalityReport:
    """Accept when every recursive call descends in the designated size
    parameter, under the size hypotheses hyps, or, failing that, when one
    argument position descends structurally in every clause.  Raises
    TERMINATION/PRODUCTIVITY, whose message shows each call's position by
    `lines`."""
    entries = _call_entries(entry, lines, hyps)
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
        entry.clauses[entry.calls[0].clause_index].pos if entry.clauses else NOPOS,
        report=TotalityReport(name, "rejected", None, entries),
    )
