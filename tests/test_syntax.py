"""Core syntax: the Pi binders the parser and readback keep, spines, the
polarity lattice and scope checking."""

import itertools

import pytest

from sizedcheck import check_source
from sizedcheck.diagnostics import Diagnostic
from sizedcheck.parser import parse_source
from sizedcheck.scope import scope_check
from sizedcheck.syntax import (
    Annot,
    App,
    Con,
    DataDecl,
    Def,
    FunDecl,
    LetDecl,
    Pi,
    Polarity,
    Var,
    compose,
    join,
    leq_pol,
    spine,
)

from conftest import NAT, SNAT_PARAMETRIC, alpha_eq_programs


def _decls(src):
    return scope_check(parse_source(src))


def _let_body(src, name):
    for d in _decls(src):
        if isinstance(d, LetDecl) and d.name.text == name:
            return d
    raise AssertionError(name)


def _fun(src, name):
    for d in _decls(src):
        if isinstance(d, FunDecl) and d.name.text == name:
            return d
    raise AssertionError(name)


def _kept(e):
    """The binder of each Pi of a chain, outermost first: its text, or None
    for an arrow."""
    out = []
    while isinstance(e, Pi):
        out.append(None if e.binder is None else e.binder.text)
        e = e.codomain
    return out


class TestKeptBinders:
    """The parser drops a relevant Pi binder that nothing reads, so such a
    Pi is the arrow `A -> B`; a parametric binder is always kept."""

    @pytest.mark.parametrize("pi, kept", [
        ("(x : Nat) -> Nat", [None]),
        ("(A : Set) -> A", ["A"]),
        ("(i : Size) -> SNat ($ i)", ["i"]),  # read only in a size
        ("(A : Set) -> (x : A) -> Nat", ["A", None]),  # read only in a later domain
        ("[i : Size] -> Nat", ["i"]),
        ("(x : Set) -> (x : Set) -> x", [None, "x"]),  # the inner x shadows
        ("(n : Nat) -> case n { zero -> Nat ; (succ m) -> Nat }", ["n"]),
        ("(A : Set) -> case zero { zero -> A ; (succ m) -> Nat }", ["A"]),
        ("(x : Set) -> (\\ x -> x) Nat", [None]),  # the lambda's x shadows
    ])
    def test_pi(self, pi, kept):
        d = _let_body(NAT + SNAT_PARAMETRIC + f"let T : Set = {pi}", "T")
        assert _kept(d.body) == kept

    LIST = "sized data List ++(A : Set) : Size -> Set { nil : [i : Size] -> List A ($ i) }\n"

    @pytest.mark.parametrize("decl, params, index", [
        ("", [None], [None]),  # List: only a constructor reads A
        ("sized codata StreamEq (A : Set) : (i : Size) -> List A i -> List A i -> Set { }",
         ["A"], ["i", None, None]),
    ])
    def test_data_kind(self, decl, params, index):
        d = _decls(self.LIST + decl)[-1]
        assert isinstance(d, DataDecl) and [p.name.text for p in d.params] == ["A"]
        assert [p.kind_binder and p.kind_binder.text for p in d.params] == params
        assert _kept(d.index_sig) == index


class TestReadBinders:
    """Readback drops a relevant Pi binder that its codomain's readback never
    reads, as the parser drops one that nothing reads in the source, so a
    codomain that reads the binder only before evaluation prints as an
    arrow.  A parametric binder keeps its name, and so does one read only in
    a size."""

    PRELUDE = (NAT + SNAT_PARAMETRIC + "let K : Nat -> Set = \\ n -> Nat\n"
               "let KS : Size -> Set = \\ j -> SNat ($ j)\n")

    @pytest.mark.parametrize("decl, shown", [
        ("eval let T : Set = (x : Nat) -> K x", "T = Nat -> Nat"),
        ("let f : (x : Nat) -> K x = Set", "Set checked against 'Nat -> Nat'"),
        ("eval let T : Set = (y : Nat) -> (x : Nat) -> K x", "T = Nat -> Nat -> Nat"),
        ("eval let T : Set = [x : Nat] -> K x", "T = [x : Nat] -> Nat"),
        ("eval let T : Set = (i : Size) -> SNat i", "T = (i : Size) -> SNat i"),
        ("eval let T : Set = (i : Size) -> KS i", "T = (i : Size) -> SNat ($ i)"),
        ("eval let T : Set = (A : Set) -> (x : A) -> A", "T = (A : Set) -> A -> A"),
    ])
    def test_readback(self, decl, shown):
        r = check_source(self.PRELUDE + decl + "\n", "<t>")
        assert (r.outputs[-1] if r.diagnostic is None else r.diagnostic.message) == shown


class TestSpine:
    def test_head_and_arguments_in_order(self):
        src = SNAT_PARAMETRIC + "let f : [i : Size] -> SNat i -> SNat ($ i) = \\ i -> \\ n -> succ i n"
        app = _let_body(src, "f").body.body.body
        app = App(app.fun, app.arg, Annot.RELEVANT)
        head, args = spine(app)
        assert isinstance(head, Con) and head.name.text == "succ"
        assert [(a.name.text, annot) for a, annot in args] == [
            ("i", None), ("n", Annot.RELEVANT)
        ]
        assert all(isinstance(a, Var) for a, _ in args)

    def test_non_application_is_its_own_head(self):
        d = _let_body("let x : Set = Set", "x")
        assert spine(d.body) == (d.body, [])


class TestPolarity:
    ALL = list(Polarity)

    def test_composition_all_25_pairs(self):
        P = Polarity
        expected = {}
        for p, q in itertools.product(self.ALL, repeat=2):
            if p is P.UNUSED or q is P.UNUSED:
                expected[(p, q)] = P.UNUSED
            elif p is P.INVARIANT or q is P.INVARIANT:
                expected[(p, q)] = P.INVARIANT
            elif p is P.STRICT_POS:
                expected[(p, q)] = q
            elif q is P.STRICT_POS:
                expected[(p, q)] = p
            elif p is P.NEG:
                expected[(p, q)] = P.POS if q is P.NEG else P.NEG
            else:
                expected[(p, q)] = q
        for pair, want in expected.items():
            assert compose(*pair) is want, pair

    def test_composition_associative(self):
        for p, q, r in itertools.product(self.ALL, repeat=3):
            assert compose(compose(p, q), r) is compose(p, compose(q, r))

    def test_invariant_absorbs_nonzero(self):
        for p in self.ALL:
            if p is Polarity.UNUSED:
                continue
            assert compose(p, Polarity.INVARIANT) is Polarity.INVARIANT
            assert compose(Polarity.INVARIANT, p) is Polarity.INVARIANT

    def test_neg_neg_is_pos(self):
        assert compose(Polarity.NEG, Polarity.NEG) is Polarity.POS

    def test_join_is_lub(self):
        for p, q in itertools.product(self.ALL, repeat=2):
            j = join(p, q)
            assert leq_pol(p, j) and leq_pol(q, j)
            for r in self.ALL:
                if leq_pol(p, r) and leq_pol(q, r):
                    assert leq_pol(j, r)


class TestScopeCheck:
    def test_self_reference_in_clauses(self):
        src = """
data Nat : Set { zero : Nat ; succ : Nat -> Nat }
fun leq : Nat -> Nat -> [C : Set] -> C -> C -> C
{ leq  zero     y       C t f = t
; leq (succ x)  zero    C t f = f
; leq (succ x) (succ y) C t f = leq x y C t f
}
"""
        decls = _decls(src)
        leq = decls[1]
        head = leq.clauses[2].rhs
        while isinstance(head, App):
            head = head.fun
        assert isinstance(head, Def) and head.name == leq.name

    def test_empty_program(self):
        assert _decls("") == []

    def test_forward_reference_rejected(self):
        with pytest.raises(Diagnostic) as e:
            _decls("fun f : SNat # -> SNat # { f x = x }\n" + SNAT_PARAMETRIC)
        assert e.value.code == "UNBOUND"

    def test_duplicate_definition(self):
        with pytest.raises(Diagnostic) as e:
            _decls("let x : Set = Set\nlet x : Set = Set")
        assert e.value.code == "DUPLICATE"

    def test_deterministic_up_to_uids(self):
        src = SNAT_PARAMETRIC + "let f : [i : Size] -> SNat i -> SNat ($ i) = \\ i -> \\ n -> succ i n"
        assert alpha_eq_programs(_decls(src), _decls(src))

    def test_var_pattern_resolves_constructors(self):
        src = """
data Nat : Set { zero : Nat ; succ : Nat -> Nat }
fun isz : Nat -> Nat
{ isz zero = succ zero
; isz (succ n) = zero
}
"""
        from sizedcheck.syntax import PCon

        fun = _decls(src)[1]
        assert isinstance(fun.clauses[0].lhs[0], PCon)
        assert fun.clauses[0].lhs[0].con.text == "zero"
