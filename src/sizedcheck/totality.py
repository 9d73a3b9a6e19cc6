"""Static analyses behind the totality verdicts: polarity of a variable in a
type, strict positivity of data declarations, upper semi-continuity of result
types at successor matches, and size-descent termination with a structural
fallback.

The type analyses read values, as the evaluator leaves them, and never
quote them back into syntax: a body under a binder is opened with a fresh
variable by `Evaluator.open`, and nothing is unfolded.  The variance of each
argument slot of a data type, the size index's included, is decided once,
in `DataEntry.variances`; `polarity_of`, the admissibility check, the
checker's size-monotonicity test and `Evaluator.compare` all read it.

Each recursive call is recorded once, as the `CallGraphEntry` row its
report prints, where the checker meets it; its size relation is decided by
`termination_check`, after every clause of its fun is checked and its
holes are solved."""

from __future__ import annotations

from enum import Enum

from .diagnostics import Diagnostic
from .pretty import pretty
from .signature import FunEntry, Signature
from .sizes import Rel, entails, normalize, size_vars
from .syntax import (
    Annot,
    Expr,
    Ident,
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
    """A recursive call and its row of the totality report, recorded once,
    where the checker meets the call (`Checker._infer_app`), with its
    structural relations to its clause's patterns.  `termination_check` sets
    its size relation once the holes are solved: `size`, the size argument,
    against `lhs_size`, the size its clause matched."""

    __slots__ = ("size_rel", "struct_rels", "pos", "size", "lhs_size", "clause_pos")

    def __init__(self, struct_rels: list[StructRel], pos: tuple[int, int],
                 size: tuple | None, lhs_size: tuple | None, clause_pos: Pos):
        self.size_rel = SizeRel.UNKNOWN
        self.struct_rels = struct_rels
        self.pos = pos  # the call's (line, column), as reports and messages show it
        self.size = size
        self.lhs_size = lhs_size
        self.clause_pos = clause_pos


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
                f"  call {self.name} at {e.pos[0]}:{e.pos[1]}: "
                f"size {e.size_rel.value} args [{rels}]"
            )
        return "\n".join(lines)


def _inside(p: Pattern, x: Ident) -> bool:
    """x is bound strictly inside the constructor pattern p."""
    return type(p) is PCon and any(
        (type(a) is PVar and a.name is x) or _inside(a, x) for a in p.args)


def struct_rels(args: list[Expr], patterns: list[Pattern]) -> list[StructRel]:
    """How each argument of a recursive call relates to the pattern its
    clause binds at the same position: SUB for a variable bound strictly
    inside it, EQ for the variable it is, else UNKNOWN, as for each pattern
    the call passes no argument to."""
    rels = [StructRel.UNKNOWN] * len(patterns)
    for k, (a, p) in enumerate(zip(args, patterns)):
        if type(a) is Var and _inside(p, a.name):
            rels[k] = StructRel.SUB
        elif type(a) is Var and type(p) is PVar and p.name is a.name:
            rels[k] = StructRel.EQ
    return rels


def termination_check(entry: FunEntry, sig: Signature) -> TotalityReport:
    """Accept when every recursive call descends in the designated size
    parameter, under the size hypotheses of sig, or, failing that, when one
    argument position descends structurally in every clause.  Sets each
    call's size relation first, its size read through sig's solved holes.
    Raises TERMINATION/PRODUCTIVITY at the clause of the first call."""
    entries = entry.calls
    name = entry.name.text
    if not entries:
        return TotalityReport(name, "non-recursive", None, entries)

    for e in entries:
        if e.size is not None and e.lhs_size is not None:
            size = normalize(e.size, None, sig.holes)
            if entails(sig.hyps, size, Rel.LT, e.lhs_size):
                e.size_rel = SizeRel.LT
            elif entails(sig.hyps, size, Rel.LE, e.lhs_size):
                e.size_rel = SizeRel.LE

    if entry.size_param is not None and all(
        e.size_rel is SizeRel.LT for e in entries
    ):
        return TotalityReport(name, "size-descent", entry.size_param, entries)

    for p_idx in range(entry.arity):
        if all(e.struct_rels[p_idx] is StructRel.SUB for e in entries):
            return TotalityReport(name, "structural", p_idx, entries)

    code = "PRODUCTIVITY" if entry.coinductive else "TERMINATION"
    bad = [f"{name} at {e.pos[0]}:{e.pos[1]}" for e in entries if e.size_rel is not SizeRel.LT]
    raise Diagnostic(
        code,
        f"cannot justify recursive calls of '{name}': " + ", ".join(bad),
        entries[0].clause_pos,
        report=TotalityReport(name, "rejected", None, entries),
    )
