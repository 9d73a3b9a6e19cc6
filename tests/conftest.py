"""Shared fixtures: corpus location, program builders, an
alpha-equivalence helper for round-trip checks, and a window free of trace
functions for memory measurements."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from sizedcheck import check_source
from sizedcheck.checker import Checker
from sizedcheck.evaluator import Evaluator
from sizedcheck.parser import parse_source
from sizedcheck.scope import scope_check
from sizedcheck.syntax import (
    App,
    CaseData,
    CaseSize,
    Clause,
    Con,
    ConSpec,
    DataDecl,
    Def,
    Elided,
    FunDecl,
    Lam,
    LetDecl,
    NOPOS,
    PCon,
    PDot,
    Pi,
    PSizeRel,
    PSucc,
    PVar,
    PWild,
    SetU,
    Size,
    Ident,
    SizeU,
    Var,
)
from sizedcheck.sizes import INFTY

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


def accept_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted((CORPUS / "accept").glob("*.ma"))}


def reject_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted((CORPUS / "reject").glob("*.ma"))}


def ok(src: str, name: str = "<test>"):
    r = check_source(src, name)
    assert r.diagnostic is None, f"unexpected rejection: {r.diagnostic}"
    return r


def rejected(src: str, code: str, name: str = "<test>"):
    r = check_source(src, name)
    assert r.diagnostic is not None, f"expected {code}, program was accepted"
    assert r.diagnostic.code == code, (
        f"expected {code}, got {r.diagnostic.code}: {r.diagnostic.message}"
    )
    return r.diagnostic


@contextmanager
def untraced():
    """Suspend the calling thread's `sys.settrace` function, if any, for the
    block.  A tracer such as `tests/coverage_probe.py`'s allocates on every
    event it sees, which a `tracemalloc` window inside the block would count.
    A trace function belongs to one thread, so enter the block on the thread
    that allocates: for the checker, inside a `cli.run_deep` call."""
    tracer = sys.gettrace()
    sys.settrace(None)
    try:
        yield
    finally:
        sys.settrace(tracer)


class _NoMemo(dict):
    """An unfold memo that never finds a key and keeps nothing."""

    __slots__ = ()

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


def memo_off(monkeypatch):
    """Turn the evaluator's unfold memo off for the rest of the test: every
    fresh budget (`Evaluator.reset_budget`, called for every declaration and
    eval let) gets a memo in which no unfolding is found again."""
    reset = Evaluator.reset_budget

    def reset_without_memo(self, pos=NOPOS):
        reset(self, pos)
        self.unfolded = _NoMemo()

    monkeypatch.setattr(Evaluator, "reset_budget", reset_without_memo)


def build(src: str):
    """Scope-check and type-check src, returning the live Checker (with its
    signature and evaluator) and the eval outputs."""
    decls = scope_check(parse_source(src))
    ch = Checker()
    _, outputs = ch.check_program(decls)
    return ch, decls, outputs


SNAT_PARAMETRIC = """
sized data SNat : Size -> Set
{ zero : [i : Size] -> SNat ($ i)
; succ : [i : Size] -> SNat i -> SNat ($ i)
}
"""

NAT = """
data Nat : Set
{ zero : Nat
; succ : Nat -> Nat
}
"""

STREAM = """
sized codata Stream ++(A : Set) : Size -> Set
{ cons : [i : Size] -> A -> Stream A i -> Stream A ($ i)
}
"""


# -- alpha equivalence -------------------------------------------------------


def alpha_eq_programs(ds1, ds2) -> bool:
    if len(ds1) != len(ds2):
        return False
    pairing: dict[int, int] = {}

    def idents(a, b) -> bool:
        if a.uid in pairing:
            return pairing[a.uid] == b.uid
        return a.text == b.text

    def bind(a, b):
        pairing[a.uid] = b.uid

    def base(x, y) -> bool:
        if type(x) is Ident and type(y) is Ident:
            return idents(x, y)
        return (x is INFTY and y is INFTY) or (type(x) is int and type(y) is int)

    def size(a, b) -> bool:
        # two sizes' pairs, in source order
        return len(a) == len(b) and all(
            m == n and base(x, y) for (x, m), (y, n) in zip(a, b)
        )

    def pat_bind(a, b) -> bool:
        match a, b:
            case (PVar(x), PVar(y)):
                bind(x, y)
                return True
            case (PCon(c, xs), PCon(d, ys)):
                return (
                    idents(c, d)
                    and len(xs) == len(ys)
                    and all(pat_bind(p, q) for p, q in zip(xs, ys))
                )
            case (PSizeRel(p1, c1), PSizeRel(p2, c2)):
                if not idents(p1, p2):
                    return False
                bind(c1, c2)
                return True
            case (PSucc(c1), PSucc(c2)):
                bind(c1, c2)
                return True
            case (PWild(), PWild()) | (PDot(_), PDot(_)):
                return True
        return False

    def pat_dots(a, b) -> bool:
        match a, b:
            case (PDot(e1), PDot(e2)):
                return expr(e1, e2)
            case (PCon(_, xs), PCon(_, ys)):
                return all(pat_dots(p, q) for p, q in zip(xs, ys))
            case _:
                return True

    def expr(a, b) -> bool:
        match a, b:
            case (Var(x), Var(y)) | (Def(x), Def(y)) | (Con(x), Con(y)):
                return idents(x, y)
            case (SetU(), SetU()) | (SizeU(), SizeU()) | (Elided(), Elided()):
                return True
            case (Size(s1), Size(s2)):
                return size(s1, s2)
            case (Pi(an1, b1, d1, c1), Pi(an2, b2, d2, c2)):
                if an1 is not an2 or not expr(d1, d2):
                    return False
                if (b1 is None) != (b2 is None):
                    return False
                if b1 is not None:
                    bind(b1, b2)
                return expr(c1, c2)
            case (Lam(x1, e1), Lam(x2, e2)):
                bind(x1, x2)
                return expr(e1, e2)
            case (App(f1, a1), App(f2, a2)):
                return expr(f1, f2) and expr(a1, a2)
            case (CaseSize(s1, x1, e1), CaseSize(s2, x2, e2)):
                if not size(s1, s2):
                    return False
                bind(x1, x2)
                return expr(e1, e2)
            case (CaseData(s1, bs1), CaseData(s2, bs2)):
                if not expr(s1, s2) or len(bs1) != len(bs2):
                    return False
                for (p1, e1), (p2, e2) in zip(bs1, bs2):
                    if not (pat_bind(p1, p2) and pat_dots(p1, p2) and expr(e1, e2)):
                        return False
                return True
        return False

    def clause(c1: Clause, c2: Clause) -> bool:
        if len(c1.lhs) != len(c2.lhs):
            return False
        if not all(pat_bind(p, q) for p, q in zip(c1.lhs, c2.lhs)):
            return False
        if not all(pat_dots(p, q) for p, q in zip(c1.lhs, c2.lhs)):
            return False
        return expr(c1.rhs, c2.rhs)

    def decl(d1, d2) -> bool:
        match d1, d2:
            case (DataDecl(), DataDecl()):
                if (
                    d1.sized != d2.sized
                    or d1.coinductive != d2.coinductive
                    or len(d1.params) != len(d2.params)
                    or len(d1.constructors) != len(d2.constructors)
                ):
                    return False
                bind(d1.name, d2.name)
                for p1, p2 in zip(d1.params, d2.params):
                    if p1.polarity is not p2.polarity or not expr(p1.type, p2.type):
                        return False
                    bind(p1.name, p2.name)
                if not expr(d1.index_sig, d2.index_sig):
                    return False
                for c1, c2 in zip(d1.constructors, d2.constructors):
                    bind(c1.name, c2.name)
                    if not expr(c1.type, c2.type):
                        return False
                return True
            case (FunDecl(), FunDecl()):
                if d1.coinductive != d2.coinductive or len(d1.clauses) != len(d2.clauses):
                    return False
                if not expr(d1.type, d2.type):
                    return False
                bind(d1.name, d2.name)
                return all(clause(c1, c2) for c1, c2 in zip(d1.clauses, d2.clauses))
            case (LetDecl(), LetDecl()):
                if d1.eval != d2.eval:
                    return False
                if not (expr(d1.type, d2.type) and expr(d1.body, d2.body)):
                    return False
                bind(d1.name, d2.name)
                return True
        return False

    return all(decl(a, b) for a, b in zip(ds1, ds2))
