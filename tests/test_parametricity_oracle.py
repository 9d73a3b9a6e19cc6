"""A parametricity oracle: an erased argument never drives evaluation.

The checker keeps a parametric variable (`[x : A] -> B`) out of every
relevant position (`Checker._use_check`, PARAMETRIC-VIOLATION).  So what an
accepted program computes cannot depend on any erased argument.  This oracle
checks that on the corpus and the four bench workloads at seed 1, each
program as written and with every `let` an `eval let`:

- the program is checked as usual, which gives its eval output;
- a fresh evaluator over the same signature, with every let's value
  cleared, evaluates each eval let again.  Every `PARAMETRIC` argument it
  applies is replaced by a poison thunk.  Forced, the poison forces the
  argument and returns it if it is a size, since cofun size patterns and the
  unfold memo read sizes; otherwise it returns the neutral `POISON`;
- each poisoned output must read back as the checker's.

A size argument, whose thunk holds a size expression or value, is passed as
it is, the value its poison would give, so the unfold memo keys it by its
normal form, as it does in the checker's evaluator.  One argument always
gets one poison, so a call that passes its arguments on meets the memo entry
of the same call made before, as it does there too.

Two small programs join them, because every erased argument of the corpus
that a program could misuse is a size, which passes: `idf Nat (succ zero)`
passes a type as an erased argument, which is poisoned and never forced, and
`leak` uses an erased `Nat` relevantly, which the checker rejects.

A program whose poisoned side ends in STUCK-MATCH, FUEL or `RecursionError`,
or whose output differs, is counted and named; the tests assert which
programs these are."""

from __future__ import annotations

from sizedcheck.checker import Checker
from sizedcheck.cli import run_deep
from sizedcheck.diagnostics import Diagnostic
from sizedcheck.evaluator import Evaluator
from sizedcheck.parser import parse_source
from sizedcheck.pretty import pretty
from sizedcheck.scope import scope_check
from sizedcheck.signature import LetEntry
from sizedcheck.syntax import Annot, Def, LetDecl, Size, fresh_ident
from sizedcheck.values import Thunk, VNe, VSize

from test_sharing_oracles import _programs
from test_workload_snapshot import LET

POISON = VNe(fresh_ident("POISON"))

_NAT = "data Nat : Set { zero : Nat ; succ : Nat -> Nat }\n"
PARAMETRIC_USES = [
    ("parametric", "idf", _NAT + "fun idf : [A : Set] -> A -> A { idf A x = x }\n"
                                 "eval let a : Nat = idf Nat (succ zero)\n"),
    ("parametric", "leak", _NAT + "fun f : [n : Nat] -> Nat { f n = n }\n"
                                  "eval let a : Nat = f (succ zero)\n"),
]


class _Poison:
    """The expression of a poison thunk: the argument it stands for."""

    __slots__ = ("arg",)

    def __init__(self, arg: Thunk):
        self.arg = arg


class PoisonedEvaluator(Evaluator):
    """The evaluator with every parametric argument it applies poisoned."""

    __slots__ = ("poisons",)

    def __init__(self, sig):
        super().__init__(sig)
        self.poisons: dict[int, tuple[Thunk, Thunk]] = {}  # id(arg) -> (arg, poison)

    def apply(self, fv, args, poss):
        return super().apply(
            fv, [(self._poison(th) if annot is Annot.PARAMETRIC else th, annot)
                 for th, annot in args], poss)

    def _poison(self, th: Thunk) -> Thunk:
        if (type(th.expr) in (Size, _Poison) or type(th.value) is VSize
                or th.value is POISON):
            return th
        kept = self.poisons.get(id(th))
        if kept is None or kept[0] is not th:
            kept = self.poisons[id(th)] = (th, Thunk(None, _Poison(th)))
        return kept[1]

    def force(self, th):
        if th.value is None and type(th.expr) is _Poison:
            v = super().force(th.expr.arg)
            th.value = v if type(v) is VSize else POISON
            th.expr = None
        return super().force(th)


def _poisoned_run(source: str) -> tuple[str, list[str], list[str]] | None:
    """(how the poisoned side ended, the checker's outputs, the poisoned
    outputs) for a program the checker accepts with output, else None."""
    try:
        decls = scope_check(parse_source(source))
        sig, want = Checker().check_program(decls)
    except Diagnostic:
        return None
    if not want:
        return None
    for entry in sig.entries.values():
        if type(entry) is LetEntry:
            entry.thunk = None
    ev = PoisonedEvaluator(sig)
    got: list[str] = []
    try:
        for d in decls:
            if isinstance(d, LetDecl) and d.eval:
                ev.reset_budget(d.pos)
                v = ev.evaluate(None, Def(d.name))
                got.append(f"{d.name.text} = {pretty(ev.readback(v))}")
    except Diagnostic as e:
        return e.code, want, got
    except RecursionError:
        return "RecursionError", want, got
    return "ok", want, got


def _oracle(programs) -> tuple[int, dict[str, list[str]]]:
    """(the variants whose poisoned outputs were compared, the variants by
    how they ended otherwise: a checker-side RecursionError, a poisoned
    output, or the poisoned side's STUCK-MATCH, FUEL or RecursionError)."""
    compared, found = 0, {}
    for w, name, source in programs:
        for variant, src in (("", source), ("eval ", LET.sub("eval let", source))):
            where = f"{variant}{w}/{name}"
            try:
                r = _poisoned_run(src)
            except RecursionError:
                found.setdefault("checker RecursionError", []).append(where)
                continue
            if r is None:
                continue
            end, want, got = r
            if end == "ok" and got != want:
                end = "poisoned output"
            if end != "ok":
                found.setdefault(end, []).append(where)
            compared += 1
    return compared, found


def test_erased_arguments_never_drive_evaluation():
    compared, found = run_deep(_oracle, _programs() + PARAMETRIC_USES)
    assert found == {}
    # 81 variants of the corpus and the workloads, and both of `idf`'s
    assert compared == 83
