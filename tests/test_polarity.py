"""`polarity_of` on values, case by case, and the slot variances of data
types that it, `Evaluator.compare` and the admissibility check read."""

from types import SimpleNamespace

import pytest

from sizedcheck.syntax import (
    Annot,
    App,
    Con,
    Def,
    Lam,
    Pi,
    Polarity,
    SetU,
    Size,
    Var,
    fresh_ident,
)
from sizedcheck.totality import polarity_of

from conftest import NAT, SNAT_PARAMETRIC, STREAM, build

PROGRAM = NAT + SNAT_PARAMETRIC.replace("zero", "szero").replace("succ", "ssucc") + STREAM + """
data Pair ++(A : Set) (B : Set) : Set
{ pair : A -> B -> Pair A B
}
sized data Vec ++(A : Set) : Size -> Nat -> Set
{ vnil  : [i : Size] -> Vec A ($ i) zero
; vcons : [i : Size] -> [n : Nat] -> A -> Vec A i n -> Vec A ($ i) (succ n)
}
fun G : Nat -> Set
{ G zero = Nat
}
"""

P = Polarity
R, E = Annot.RELEVANT, Annot.PARAMETRIC


@pytest.fixture(scope="module")
def w():
    ch, _, _ = build(PROGRAM)
    names = {t: Def(ch.sig.by_text[t]) for t in ("Nat", "SNat", "Stream", "Pair", "Vec", "G")}
    names |= {t: Con(ch.sig.by_text[t]) for t in ("zero", "szero")}
    free = {t: fresh_ident(t) for t in ("A", "B", "F", "i", "n", "x")}
    return SimpleNamespace(ch=ch, **names, **{t: Var(x) for t, x in free.items()},
                           ids=free)


def app(f, *args, annot=R):
    for a in args:
        f = App(f, a, annot)
    return f


def arrow(dom, cod):
    return Pi(R, None, dom, cod)


def size(w, succs=0):
    return Size(((w.ids["i"], succs),))


# (case, subject, type built from the fixture's names, expected polarity)
TABLE = [
    ("a variable is strictly positive in itself", "A", lambda w: w.A, P.STRICT_POS),
    ("an absent variable is unused", "B", lambda w: arrow(w.A, w.Nat), P.UNUSED),
    ("a Pi domain flips", "A", lambda w: arrow(w.A, w.Nat), P.NEG),
    ("two Pi domains flip back", "A", lambda w: arrow(arrow(w.A, w.Nat), w.Nat), P.POS),
    ("a codomain keeps", "A", lambda w: arrow(w.Nat, w.A), P.STRICT_POS),
    ("domain and codomain join", "A", lambda w: arrow(w.A, w.A), P.INVARIANT),
    ("a ++ parameter composes", "A", lambda w: app(w.Stream, w.A, size(w)), P.STRICT_POS),
    ("a ++ parameter composes with a flip", "A",
     lambda w: app(w.Stream, arrow(w.A, w.Nat), size(w)), P.NEG),
    ("the first of two parameters is ++", "A", lambda w: app(w.Pair, w.A, w.B), P.STRICT_POS),
    ("an unmarked parameter is invariant", "B", lambda w: app(w.Pair, w.A, w.B), P.INVARIANT),
    ("the size index of data is +", "i", lambda w: app(w.SNat, size(w)), P.POS),
    ("a successor size index of data is +", "i", lambda w: app(w.SNat, size(w, 1)), P.POS),
    ("the size index of codata is -", "i", lambda w: app(w.Stream, w.Nat, size(w)), P.NEG),
    ("a size index under a Pi domain flips", "i",
     lambda w: arrow(app(w.SNat, size(w)), w.Nat), P.NEG),
    ("an index past the size is invariant", "n",
     lambda w: app(w.Vec, w.A, size(w), w.n), P.INVARIANT),
    ("the defined type is strictly positive in itself", "Nat", lambda w: w.Nat, P.STRICT_POS),
    ("a parametric argument does not count", "i", lambda w: app(w.F, size(w), annot=E),
     P.UNUSED),
    ("a parametric constructor argument does not count", "i",
     lambda w: app(w.szero, size(w), annot=E), P.UNUSED),
    ("a relevant argument of a neutral head is invariant", "A", lambda w: app(w.F, w.A),
     P.INVARIANT),
    ("an applied neutral head is invariant", "F", lambda w: app(w.F, w.A), P.INVARIANT),
    ("a relevant argument of a stuck defined head is invariant", "n", lambda w: app(w.G, w.n),
     P.INVARIANT),
    ("a lambda body is invariant", "A", lambda w: Lam(w.ids["x"], w.A), P.INVARIANT),
    ("a lambda without the variable is unused", "B", lambda w: Lam(w.ids["x"], w.A), P.UNUSED),
    ("Set mentions nothing", "A", lambda w: SetU(), P.UNUSED),
]


@pytest.mark.parametrize("case, subject, build_type, want", TABLE, ids=[t[0] for t in TABLE])
def test_polarity_of_value(w, case, subject, build_type, want):
    x = w.ids[subject] if subject in w.ids else getattr(w, subject).name
    t = w.ch.ev.evaluate(None, build_type(w))
    assert polarity_of(x, t, w.ch.ev) is want


@pytest.mark.parametrize("data, want", [
    ("Stream", (P.STRICT_POS, P.NEG)),
    ("SNat", (P.POS,)),
    ("Pair", (P.STRICT_POS, P.INVARIANT)),
    ("Nat", ()),
    ("Vec", (P.STRICT_POS, P.POS, P.INVARIANT)),
])
def test_data_entry_variances(w, data, want):
    assert w.ch.sig.data(getattr(w, data).name).variances == want
