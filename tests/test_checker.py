"""Bidirectional checking: inference, subsumption, data declarations,
pattern elaboration, the size-case rule, and the diagnostic catalog."""

import gc
import sys
import threading
import tracemalloc

import pytest

from sizedcheck import RunConfig, check_source
from sizedcheck.cli import run_deep
from sizedcheck.pretty import pretty
from sizedcheck.signature import DataEntry, FunEntry, LetEntry
from sizedcheck.sizes import INFTY_SIZE, ns_var
from sizedcheck.syntax import App, Def, Var, fresh_ident
from sizedcheck.values import Thunk, VData, VSize

from conftest import NAT, SNAT_PARAMETRIC, STREAM, build, ok, rejected, untraced
from test_workload_snapshot import ROOT, _workloads

MINUS = SNAT_PARAMETRIC + """
fun minus : [i : Size] -> SNat i -> SNat # -> SNat i
{ minus i (zero (i > j))    y          = zero j
; minus i  x               (zero .#)   = x
; minus i (succ (i > j) x) (succ .# y) = minus j x y
}
"""


class TestInfer:
    def test_parametric_constructor_application(self):
        # succ i n : SNat ($ i) for parametric succ under i : Size, n : SNat i
        src = SNAT_PARAMETRIC + """
let step : [i : Size] -> SNat i -> SNat ($ i) = \\ i -> \\ n -> succ i n
"""
        ch, _, _ = build(src)
        entry = ch.sig.entries[ch.sig.by_text["step"].uid]
        assert isinstance(entry, LetEntry)

    def test_nullary_constructor_has_declared_type(self):
        ch, _, _ = build(NAT)
        con = ch.sig.con(ch.sig.by_text["zero"])
        assert pretty(ch.ev.quote(con.type_value)) == "Nat"

    def test_relevant_succ_rejects_erased_size(self):
        rejected(
            SNAT_PARAMETRIC.replace(
                "succ : [i : Size]", "succ : (i : Size)"
            )
            + "let inc2 : [i : Size] -> SNat i -> SNat ($$ i)"
            "        = \\ i -> \\ n -> succ ($ i) (succ i n)",
            "PARAMETRIC-VIOLATION",
        )

    def test_not_a_function(self):
        rejected(NAT + "let x : Nat = zero zero", "NOT-A-FUNCTION")

    def test_type_mismatch_carries_both_types(self):
        # zero resolves to the latest declaration, SNat's
        d = rejected(NAT + SNAT_PARAMETRIC + "let x : Nat = zero #", "TYPE-MISMATCH")
        assert "'Nat'" in d.message and "'SNat #'" in d.message


class TestCheck:
    def test_identity_against_pi(self):
        ok(SNAT_PARAMETRIC + "let id : (x : SNat #) -> SNat # = \\ x -> x")

    def test_case_size_in_fib(self):
        ok(NAT + STREAM + """
fun add : Nat -> Nat -> Nat
{ add  zero    y = y
; add (succ x) y = succ (add x y)
}
fun tail : [A : Set] -> [i : Size] -> Stream A ($ i) -> Stream A i
{ tail A i (cons .A .i a as) = as
}
cofun adds : [i : Size] -> Stream Nat i -> Stream Nat i -> Stream Nat i
{ adds ($ i) (cons .Nat .i a as) (cons .Nat .i b bs) =
    cons Nat i (add a b) (adds i as bs)
}
cofun fib : [i : Size] -> Stream Nat i
{ fib ($ i) = cons Nat i zero (case i
    { ($ j) -> cons Nat j (succ zero) (adds j (fib j) (tail Nat j (fib i))) })
}
""")

    def test_case_size_requires_coinductive_target(self):
        rejected(SNAT_PARAMETRIC + """
fun f : [i : Size] -> SNat i -> SNat i
{ f i x = case i { ($ j) -> x }
}
""", "ADMISSIBILITY")

    def test_minus_third_clause_uses_subtyping(self):
        ok(MINUS)  # rhs has type SNat j against expected SNat i under j < i

    def test_lambda_against_non_function(self):
        rejected(NAT + "let x : Nat = \\ y -> y", "TYPE-MISMATCH")


class TestReusedConstructorNames:
    def test_fun_over_earlier_type_matches_its_constructors(self):
        # patterns resolve against Nat although SNat's zero and succ are later;
        # in expressions SNat's shadow Nat's, so Nat values are built before SNat
        r = ok(NAT + """
let two : Nat = succ (succ zero)
let s : Nat -> Nat = \\ n -> succ n
""" + SNAT_PARAMETRIC + """
fun add : Nat -> Nat -> Nat
{ add  zero    y = y
; add (succ x) y = s (add x y)
}
eval let four : Nat = add two two
""")
        assert r.outputs == ["four = succ (succ (succ (succ zero)))"]

    def test_sized_patterns_with_nat_in_scope(self):
        # Nat is declared after SNat, so zero and succ name Nat's in expressions
        # while minus's patterns must still match SNat's
        ch, _, outputs = build(SNAT_PARAMETRIC + """
let z : [i : Size] -> SNat ($ i) = \\ i -> zero i
let three : SNat # = succ # (succ # (succ # (zero #)))
let one : SNat # = succ # (zero #)
""" + NAT + """
fun minus : [i : Size] -> SNat i -> SNat # -> SNat i
{ minus i (zero (i > j))    y          = z j
; minus i  x               (zero .#)   = x
; minus i (succ (i > j) x) (succ .# y) = minus j x y
}
eval let two : SNat # = minus # three one
""")
        snat = ch.sig.data(ch.sig.by_text["SNat"])
        first = ch.sig.fun(ch.sig.by_text["minus"]).clauses[0].patterns[1]
        assert first.con.text == "zero" and first.con in snat.constructors
        assert outputs == ["two = succ _ (succ _ (zero _))"]

    def test_same_name_twice_in_one_type(self):
        rejected("data D : Set { c : D ; c : D }", "DUPLICATE")

    def test_let_reusing_a_constructor_name(self):
        rejected(NAT + "let zero : Nat = succ zero", "DUPLICATE")


class TestSubtype:
    @pytest.fixture()
    def world(self):
        ch, _, _ = build(NAT + SNAT_PARAMETRIC + STREAM)
        i, j = fresh_ident("i"), fresh_ident("j")
        ch.sig.hyps[j.uid] = (ns_var(i), True)
        return ch, i, j

    def _snat(self, ch, ns):
        return VData(ch.sig.by_text["SNat"], [Thunk.of(VSize(ns))])

    def _stream(self, ch, ns):
        nat = VData(ch.sig.by_text["Nat"], [])
        return VData(ch.sig.by_text["Stream"], [Thunk.of(nat), Thunk.of(VSize(ns))])

    def test_inductive_covariant(self, world):
        ch, i, j = world
        assert ch.subtype(self._snat(ch, ns_var(j)), self._snat(ch, ns_var(i)))
        assert not ch.subtype(self._snat(ch, ns_var(i)), self._snat(ch, ns_var(j)))

    def test_reflexive(self, world):
        ch, i, j = world
        t = self._snat(ch, ns_var(i))
        assert ch.subtype(t, t)

    def test_subtyping_chain_to_infinity(self, world):
        ch, i, j = world
        chain = [ns_var(i), ns_var(i, 1), INFTY_SIZE]
        for lo, hi in zip(chain, chain[1:]):
            assert ch.subtype(self._snat(ch, lo), self._snat(ch, hi))
            assert not ch.subtype(self._snat(ch, hi), self._snat(ch, lo))

    def test_coinductive_contravariant(self, world):
        ch, i, j = world
        s_i = self._stream(ch, ns_var(i))
        s_si = self._stream(ch, ns_var(i, 1))
        assert ch.subtype(s_si, s_i)
        assert not ch.subtype(s_i, s_si)

    # function types that quantify over a size: the codomains are compared
    # with the fresh size variable declared
    SIZED_ID = "([i : Size] -> SNat i -> SNat i)"
    EQ = """
data Eq (A : Set) (a : A) : A -> Set
{ refl : Eq A a a
}
"""

    def test_pi_over_a_size_is_a_subtype_of_itself(self):
        t = self.SIZED_ID
        ok(SNAT_PARAMETRIC + f"let f : {t} -> {t} = \\ g -> g")

    def test_pi_over_a_size_converts_with_itself(self):
        t = self.SIZED_ID
        ok(SNAT_PARAMETRIC + self.EQ + f"let p : Eq Set {t} {t} = refl Set {t}")

    def test_pi_codomain_larger_size_is_a_mismatch(self):
        grown = "([i : Size] -> SNat i -> SNat ($ i))"
        rejected(
            SNAT_PARAMETRIC + f"let f : {grown} -> {self.SIZED_ID} = \\ g -> g",
            "TYPE-MISMATCH",
        )
        rejected(
            SNAT_PARAMETRIC + self.EQ
            + f"let p : Eq Set {self.SIZED_ID} {grown} = refl Set {self.SIZED_ID}",
            "TYPE-MISMATCH",
        )

    # arrows over a size: their codomains cannot mention the argument, so
    # they are compared directly, with no variable declared
    BOOL = "data Bool : Set { true : Bool ; false : Bool }\n"

    def test_arrow_over_a_size_is_a_subtype_of_itself(self):
        ok(NAT + "let f : (Size -> Nat) -> Size -> Nat = \\ g -> g")

    def test_arrow_over_a_size_converts_with_itself(self):
        t = "(Size -> Nat)"
        ok(NAT + self.EQ + f"let p : Eq Set {t} {t} = refl Set {t}")

    def test_arrows_to_different_codomains_are_a_mismatch(self):
        rejected(
            NAT + self.BOOL + "let f : (Size -> Nat) -> Size -> Bool = \\ g -> g",
            "TYPE-MISMATCH",
        )
        rejected(
            NAT + self.BOOL + self.EQ
            + "let p : Eq Set (Size -> Nat) (Size -> Bool) = refl Set (Size -> Nat)",
            "TYPE-MISMATCH",
        )

    # two functions over a size are compared under a fresh variable that the
    # bodies use as a size
    SIZED_FAMILY = "([i : Size] -> Set)"

    def test_lambdas_over_a_size_convert_with_themselves(self):
        t, f = self.SIZED_FAMILY, "(\\ i -> SNat i)"
        ok(SNAT_PARAMETRIC + self.EQ + f"let p : Eq {t} {f} {f} = refl {t} {f}")

    def test_lambdas_over_different_sizes_are_a_mismatch(self):
        t, f = self.SIZED_FAMILY, "(\\ i -> SNat i)"
        rejected(
            SNAT_PARAMETRIC + self.EQ
            + f"let p : Eq {t} {f} (\\ i -> SNat ($ i)) = refl {t} {f}",
            "TYPE-MISMATCH",
        )


class TestDataDecl:
    def test_snat_accepted(self):
        ch, _, _ = build(SNAT_PARAMETRIC)
        entry = ch.sig.data(ch.sig.by_text["SNat"])
        assert entry.sized and not entry.coinductive
        assert [c.text for c in entry.constructors] == ["zero", "succ"]

    def test_streameq_antitone_accepted(self):
        ok(STREAM + """
sized codata StreamEq (A : Set) : (i : Size) -> Stream A i -> Stream A i -> Set
{ bisim : [i : Size] -> [a : A] -> [as : Stream A i] -> [bs : Stream A i] ->
    StreamEq A i as bs ->
    StreamEq A ($ i) (cons A i a as) (cons A i a bs)
}
""")

    def test_streameq_over_lists_loses_antitonicity(self):
        rejected("""
sized data List ++(A : Set) : Size -> Set
{ nil  : [i : Size] -> List A ($ i)
; cons : [i : Size] -> A -> List A i -> List A ($ i)
}
sized codata StreamEq (A : Set) : (i : Size) -> List A i -> List A i -> Set
{ bisim : [i : Size] -> [a : A] -> [as : List A i] -> [bs : List A i] ->
    StreamEq A i as bs ->
    StreamEq A ($ i) (cons A i a as) (cons A i a bs)
}
""", "SIZE-MONOTONICITY")

    def test_size_index_must_come_first(self):
        rejected("sized data D : Set { c : [i : Size] -> D }", "SIZE-INDEX-SHAPE")

    def test_constructor_must_quantify_size_first(self):
        rejected(
            "sized data D : Size -> Set { c : D # }",
            "SIZE-INDEX-SHAPE",
        )

    def test_target_size_must_be_successor(self):
        rejected(
            "sized data D : Size -> Set { c : [i : Size] -> D i }",
            "SIZE-INDEX-SHAPE",
        )

    def test_recursive_occurrence_at_wrong_size(self):
        rejected(
            "sized data D : Size -> Set { c : [i : Size] -> D ($ i) -> D ($ i) }",
            "SIZE-INDEX-SHAPE",
        )

    def test_size_parameter_accepted(self):
        ok("data P (i : Size) : Set { p : P i }")

    def test_size_parameter_must_be_the_target(self):
        d = rejected("data P (i : Size) : Set { p : P ($ i) }", "TYPE-MISMATCH")
        assert "must target 'P' applied to the declared parameters" in d.message

    def test_size_parameter_is_not_a_later_size(self):
        rejected("data P (i : Size) : Set { p : (j : Size) -> P j }", "TYPE-MISMATCH")

    def test_size_parameter_through_an_argument_and_a_pattern(self):
        r = ok(SNAT_PARAMETRIC + """
data P (i : Size) : Set { p : SNat i -> P i }
fun unP : [i : Size] -> P i -> SNat i
{ unP i (p .i n) = n
}
eval let z : SNat # = unP # (p # (zero #))
""")
        assert r.outputs == ["z = zero _"]

    def test_strict_parameter_in_a_domain_rejected(self):
        d = rejected("data T ++(A : Set) : Set { c : (A -> T A) -> T A }", "POSITIVITY")
        assert d.message.startswith("'A' occurs non-strictly-positively")

    def test_strict_parameter_nests_a_positive_type(self):
        ok(NAT + """
data T ++(A : Set) : Set { c : A -> (Nat -> T A) -> T A }
data Tree : Set { node : T Tree -> Tree }
""")


class TestElaboratePatterns:
    def test_map_successor_match_refines_argument(self):
        ok(STREAM + """
cofun map : [A : Set] -> [B : Set] -> [i : Size] ->
            (A -> B) -> Stream A i -> Stream B i
{ map A B ($ i) f (cons .A .i x xs) = cons B i (f x) (map A B i f xs)
}
""")

    def test_size_pattern_adds_hypothesis(self):
        ch, _, _ = build(MINUS)
        entry = ch.sig.fun(ch.sig.by_text["minus"])
        clause = entry.clauses[0]
        # the size pattern bound j with j < i available to the clause
        child = clause.patterns[1].args[0].child
        parent, strict = ch.sig.hyps[child.uid]
        assert child.text == "j" and parent == ns_var(clause.patterns[0].name) and strict

    def test_illegal_size_refinement(self):
        rejected(SNAT_PARAMETRIC + """
fun f : [i : Size] -> SNat i -> SNat i
{ f .($ j) (succ j x) = x
}
""", "ILLEGAL-SIZE-REFINEMENT")

    def test_size_pattern_required_at_variable_size(self):
        rejected(SNAT_PARAMETRIC + """
fun f : [i : Size] -> SNat i -> SNat i
{ f i (succ .i x) = x
}
""", "SIZE-PATTERN-REQUIRED")

    def test_dot_required_at_successor_size(self):
        rejected(SNAT_PARAMETRIC + """
fun f : [i : Size] -> SNat ($ i) -> SNat ($ i)
{ f i (succ (i > j) x) = succ j x
}
""", "SIZE-PATTERN-REQUIRED")

    def test_cofun_match_on_variable_size(self):
        rejected(NAT + STREAM + """
fun bad_head : [A : Set] -> [i : Size] -> Stream A i -> A
{ bad_head A i (cons .A .i a as) = a
}
""", "COFUN-MATCH-ON-VARIABLE-SIZE")

    def test_dot_mismatch(self):
        rejected(SNAT_PARAMETRIC + """
fun pred : [i : Size] -> SNat ($$ i) -> SNat ($ i)
{ pred i (succ .i n) = n
}
""", "DOT-MISMATCH")

    def test_successor_pattern_needs_cofun(self):
        rejected(SNAT_PARAMETRIC + """
fun f : [i : Size] -> SNat i
{ f ($ j) = zero j
}
""", "ADMISSIBILITY")

    def test_constructor_arity_checked(self):
        rejected(NAT + """
fun f : Nat -> Nat
{ f (succ) = zero
}
""", "TYPE-MISMATCH")


class TestMetas:
    def test_holes_solved_and_substituted(self):
        # the body keeps its holes; each has its solution in the signature's
        # table, which the evaluator reads wherever it normalizes the hole
        src = SNAT_PARAMETRIC + """
let inc2 : [i : Size] -> SNat i -> SNat ($$ i)
         = \\ i -> \\ n -> succ _ (succ _ n)
eval let two : SNat # = inc2 # (zero #)
"""
        ch, _, _ = build(src)
        entry = ch.sig.entries[ch.sig.by_text["inc2"].uid]
        from sizedcheck.cli import RunConfig, check_source
        from sizedcheck.syntax import Size, App, Lam

        def metas_in(e):
            match e:
                case App(f, a):
                    return metas_in(f) | metas_in(a)
                case Lam(_, b):
                    return metas_in(b)
                case Size(s):
                    return {b for b, _ in s if type(b) is int}
                case _:
                    return set()

        holes = metas_in(entry.body)
        assert len(holes) == 2 and holes <= ch.sig.holes.keys()
        r = check_source(src, "<test>", RunConfig([], print_sizes=True))
        assert r.outputs == ["two = succ # (succ # (zero #))"]
        assert "_" not in r.outputs[0]

    def test_elaboration_idempotent_after_solving(self):
        # the solved body re-checks against the declared type
        src = SNAT_PARAMETRIC + """
let inc2 : [i : Size] -> SNat i -> SNat ($$ i)
         = \\ i -> \\ n -> succ _ (succ _ n)
"""
        ch, _, _ = build(src)
        entry = ch.sig.entries[ch.sig.by_text["inc2"].uid]
        from sizedcheck.checker import Checker, ClauseState

        again = Checker()
        again.sig = ch.sig
        again.ev.sig = ch.sig
        again.state = ClauseState()
        out = again.check(None, entry.body, entry.type_value, erased=False)
        assert out is not None

    def test_unsolvable_hole_reported(self):
        # g demands a double successor and only j with no successor structure
        # is in scope
        rejected(SNAT_PARAMETRIC + """
fun g : [i : Size] -> SNat ($$ i) -> SNat #
{ g i x = x
}
fun f : [i : Size] -> SNat i -> SNat #
{ f i (succ (i > j) x) = g _ (succ j x)
}
""", "UNSOLVED-META")

    def test_hole_outside_clause_body(self):
        rejected(
            SNAT_PARAMETRIC + "fun f : SNat _ -> Set { f x = Set }",
            "UNSOLVED-META",
        )

    def test_hole_of_non_size_type(self):
        rejected(NAT + "let x : Nat = _", "UNSOLVED-META")

    SOLVED_UNDER_ENV = SNAT_PARAMETRIC + """
fun max2 : [i : Size] -> SNat i -> SNat i -> SNat i
{ max2 i (zero (i > j))    n               = n
; max2 i  m               (zero (i > j))   = m
; max2 i (succ (i > j) m) (succ (i > k) n) = succ (max j k) (max2 (max j k) m n)
}
let inc2 : [i : Size] -> SNat i -> SNat ($$ i)
         = \\ i -> \\ n -> succ _ (succ _ n)
let mx : [i : Size] -> [j : Size] -> SNat i -> SNat j -> SNat (max i j)
       = \\ i -> \\ j -> \\ m -> \\ n -> max2 _ m n
eval let two : SNat # = inc2 # (zero #)
eval let inc2k : [k : Size] -> SNat k -> SNat ($$ k) = \\ k -> \\ n -> inc2 k n
eval let big : SNat # = mx # # (zero #) two
eval let mxk : [k : Size] -> SNat k -> SNat ($ k) -> SNat ($ k)
             = \\ k -> \\ m -> \\ n -> mx k ($ k) m n
eval let mxinf : [k : Size] -> SNat k -> SNat # -> SNat # = \\ k -> \\ m -> \\ n -> mx k # m n
eval let mxkl : [k : Size] -> [l : Size] -> SNat k -> SNat l -> SNat (max k l)
              = \\ k -> \\ l -> \\ m -> \\ n -> mx k l m n
fun inc : [i : Size] -> SNat i -> SNat ($ i)
{ inc i n = succ _ n
}
eval let one : SNat # = inc # (zero #)
eval let inck : [k : Size] -> SNat k -> SNat ($ k) = \\ k -> \\ n -> inc k n
"""

    def test_solutions_read_under_an_environment(self):
        # inc2's holes are solved as i and $ i, mx's as max(i, j) and inc's
        # as i; each eval let reads them with i bound to # or to a variable
        from sizedcheck.cli import RunConfig, check_source
        from sizedcheck.sizes import canonical, format_size, metas

        r = check_source(self.SOLVED_UNDER_ENV, "<test>",
                         RunConfig([], print_sizes=True, print_constraints=True))
        assert r.diagnostic is None
        assert r.outputs == [
            "two = succ # (succ # (zero #))",
            "inc2k = \\ k -> \\ n -> succ ($ k) (succ k n)",
            "big = succ # (succ # (zero #))",
            "mxk = \\ k -> \\ m -> \\ n -> max2 ($ k) m n",
            "mxinf = \\ k -> \\ m -> \\ n -> max2 # m n",
            "mxkl = \\ k -> \\ l -> \\ m -> \\ n -> max2 (max k l) m n",
            "one = succ # (zero #)",
            "inck = \\ k -> \\ n -> succ k n",
        ]
        assert r.constraint_dump == [
            "-- inc2", "i <= m1", "m1+1 <= m2", "m2+1 <= i+2",
            "-- mx", "i <= m1", "j <= m1", "m1 <= max(i, j)",
            "-- inc clause 1", "i <= m1", "m1+1 <= i+1",
        ]
        ch, _, _ = build(self.SOLVED_UNDER_ENV)
        assert len(ch.sig.holes) == 4
        for ns in ch.sig.holes.values():
            assert type(ns) is tuple and canonical(ns) == ns and not metas(ns)
        assert sorted(map(format_size, ch.sig.holes.values())) == ["i", "i", "i+1", "max(i, j)"]

    def test_memory_per_hole_stays_small_in_a_deep_let(self):
        # a let 200 holes deep over the SNat of corpus/accept/holes.ma: a hole
        # is its int id and a normal form its pair tuple, so no object wraps
        # either; a wrapper object per hole and per normal form would cost
        # about 1,450 B per hole
        n = 200
        body = "succ _ (" * (n - 1) + "succ _ m" + ")" * (n - 1)
        src = SNAT_PARAMETRIC + (f"let deep : [i : Size] -> SNat i -> SNat ({'$' * n} i)\n"
                                 f"  = \\ i -> \\ m -> {body}\n")
        gc.collect()

        def measure():
            # on the worker, which checks, and whose trace function is the one to suspend
            with untraced():
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    r = check_source(src, "<test>")
                    return r, before, tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        r, before, peak = run_deep(measure)
        assert r.diagnostic is None
        assert (peak - before) / n < 1350


class TestProgram:
    def test_section2_signature_has_enough_entries(self):
        src = SNAT_PARAMETRIC + """
let inc2 : [i : Size] -> SNat i -> SNat ($$ i)
         = \\ i -> \\ n -> succ ($ i) (succ i n)

fun pred : [i : Size] -> SNat ($$ i) -> SNat ($ i)
{ pred i (succ .($ i) n) = n
; pred i (zero .($ i))   = zero i
}

fun minus : [i : Size] -> SNat i -> SNat # -> SNat i
{ minus i (zero (i > j))    y          = zero j
; minus i  x               (zero .#)   = x
; minus i (succ (i > j) x) (succ .# y) = minus j x y
}

fun div : [i : Size] -> SNat i -> SNat # -> SNat i
{ div i (zero (i > j))   y = zero j
; div i (succ (i > j) x) y = succ j (div j (minus j x y) y)
}
"""
        ch, _, _ = build(src)
        assert [e.name.text for e in ch.sig.entries.values()] == [
            "SNat", "zero", "succ", "inc2", "pred", "minus", "div"
        ]

    def test_empty_program(self):
        ch, _, outputs = build("")
        assert len(ch.sig) == 0 and outputs == []

    def test_admissibility_rejection_is_first_error(self):
        r = rejected(NAT + STREAM + """
fun tail : [A : Set] -> [i : Size] -> Stream A ($ i) -> Stream A i
{ tail A i (cons .A .i a as) = as
}
cofun f : [i : Size] -> (Stream Nat i -> Stream Nat #) -> Stream Nat i
{ f ($ j) g = f j g
}
eval let spinner : Stream Nat # = f # (tail Nat #)
""", "ADMISSIBILITY")


class TestCaseSize:
    def test_relevant_use_of_the_scrutinee_names_it(self):
        # in the branch i stands for $ j, which is parametric: the error
        # names i where the user wrote it
        line = "{ g ($ i) = cons Nat i zero (case i { ($ j) -> cons Nat j zero (g i) })"
        src = NAT + STREAM + f"""
cofun g : (i : Size) -> Stream Nat i
{line}
}}
"""
        d = rejected(src, "PARAMETRIC-VIOLATION")
        assert "'i'" in d.message
        assert d.pos == (src.splitlines().index(line) + 1, line.index("(g i)") + 4)


class TestDeterministicMessages:
    def test_first_bad_size_variable_is_the_first_in_the_source(self):
        # `max j k` has two parametric variables; the message names the
        # first, however many Idents the process has made before
        src = SNAT_PARAMETRIC + """
fun max2 : [i : Size] -> SNat i -> SNat i -> SNat i
{ max2 i (succ (i > j) m) (succ (i > k) n) = (max j k) (max2 (max j k) m n)
}
"""
        for _ in range(16):
            d = rejected(src, "PARAMETRIC-VIOLATION")
            assert d.message == "parametric variable 'j' used in a relevant position"
            fresh_ident("x")


class TestLongTypes:
    """A Pi chain is checked in a loop, so a long one needs no deep stack."""

    N = 3000

    @pytest.mark.parametrize("link", ["Set -> ", "(x : Set) -> ", "[i : Size] -> "])
    def test_long_pi_chain_is_accepted(self, link):
        ok("let a : Set = " + link * self.N + "Set\n")


class TestSuccessorRuns:
    """A run of `$` is read, walked and printed in loops, so a long one needs
    no deep stack."""

    def let(self, n: int, result: str) -> str:
        return (f"let f : [i : Size] -> SNat ({'$ ' * n}i) -> SNat {result}"
                " = \\ i -> \\ n -> n")

    @pytest.mark.parametrize("n", [3, 400, 500, 1000, 3000, 10000])
    def test_mismatch_is_positioned(self, n):
        line = self.let(n, "i")
        d = rejected(SNAT_PARAMETRIC + line + "\n", "TYPE-MISMATCH")
        chain = "$ (" * (n - 1) + "$ i" + ")" * (n - 1)
        assert d.message == f"expected 'SNat i', got 'SNat ({chain})'"
        assert d.pos == (len(SNAT_PARAMETRIC.splitlines()) + 1, len(line))

    @pytest.mark.parametrize("n", [500, 10000])
    def test_same_run_on_both_sides_is_accepted(self, n):
        ok(SNAT_PARAMETRIC + self.let(n, f"({'$ ' * n}i)") + "\n")

    @staticmethod
    def nested(n: int) -> str:
        """n successors nested as a message prints them."""
        return "$ (" * (n - 1) + "$ i" + ")" * (n - 1)

    @pytest.mark.parametrize("n", [300, 1000, 3000])
    def test_nested_groups_are_read_as_a_run(self, n):
        # the printed type of a message reads back at any depth
        chain = self.nested(n)
        line = f"let f : [i : Size] -> SNat ({chain}) -> SNat i = \\ i -> \\ n -> n"
        d = rejected(SNAT_PARAMETRIC + line + "\n", "TYPE-MISMATCH")
        assert d.message == f"expected 'SNat i', got 'SNat ({chain})'"
        assert d.pos == (len(SNAT_PARAMETRIC.splitlines()) + 1, len(line))
        ok(SNAT_PARAMETRIC + self.let(n, f"({chain})") + "\n")

    @pytest.mark.parametrize("size, message, col", [
        ("$ ($ i j)", "expected a size expression", 31),
        ("$ ($ ($ i) -> Set)", "expected a size expression", 31),
        ("$ ($ ($ i)", "expected ')', found '='", 51),
        ("$ ($ )", "expected an expression, found ')'", 34),
    ])
    def test_a_group_holding_more_than_a_size_is_refused(self, size, message, col):
        # as when each group was read as an expression
        d = check_source(SNAT_PARAMETRIC + self.let(1, "i").replace("($ i)", f"({size})") + "\n",
                         "<test>").diagnostic
        assert (d.code, d.message, d.pos) == (
            "PARSE", message, (len(SNAT_PARAMETRIC.splitlines()) + 1, col))


class TestArrowArguments:
    """An argument whose type's codomain is an arrow is checked, and not run
    while checking."""

    SRC = NAT + """
fun pred : Nat -> Nat
{ pred (succ n) = n
}
fun k : Nat -> Nat
{ k x = zero
}
"""

    def test_unused_stuck_argument_is_accepted(self):
        ok(self.SRC + "let a : Nat = k (pred zero)\n")

    def test_eval_let_never_forces_it(self):
        assert ok(self.SRC + "eval let a : Nat = k (pred zero)\n").outputs == ["a = zero"]

    def test_forced_argument_still_fails_when_run(self):
        d = check_source(self.SRC + "eval let a : Nat = pred (pred zero)\n", "<test>").diagnostic
        assert (d.code, d.message) == ("STUCK-MATCH", "no clause of 'pred' matches")


class TestNamedBinderArguments:
    """An argument at a named binder is suspended while checking: it runs
    only if the codomain's type needs its value."""

    SRC = TestArrowArguments.SRC + """fun k2 : (x : Nat) -> Nat
{ k2 x = zero
}
fun F : Nat -> Set
{ F zero = Nat
}
fun g : (x : Nat) -> F x -> Nat
{ g x y = zero
}
"""

    def test_unread_stuck_argument_is_accepted(self):
        ok(self.SRC + "let a : Nat = k2 (pred zero)\n")

    def test_eval_let_never_forces_it(self):
        assert ok(self.SRC + "eval let a : Nat = k2 (pred zero)\n").outputs == ["a = zero"]

    def test_argument_a_type_reads_is_run(self):
        d = check_source(self.SRC + "let a : Nat = g (pred zero) zero\n", "<test>").diagnostic
        assert (d.code, d.message) == ("STUCK-MATCH", "no clause of 'pred' matches")

    def test_argument_a_type_reads_computes_the_type(self):
        ok(self.SRC + "let a : Nat = g zero zero\n")
        rejected(self.SRC + "let a : Nat = g zero Set\n", "TYPE-MISMATCH")


class TestLongChains:
    """Long lambda, arrow, constructor and application chains are checked,
    evaluated, read back and printed.  Checking and readback recurse as deep
    as the chain, on the checker's worker thread (`cli.run_deep`); `pretty`
    prints a chain in a loop, so it stays linear in the chain's length."""

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_lambda_chain(self, n):
        lams = "".join(f"\\ x{k} -> " for k in range(n))
        ok(f"let f : {'Set -> ' * n}Set = {lams}Set\n")

    @pytest.mark.parametrize("n", [500, 1500, 3000])
    def test_constructor_spine(self, n):
        ok(NAT + f"data T : Set\n{{ mk : {'Nat -> ' * n}T\n}}\n"
           f"let t : T = mk{' zero' * n}\n"
           "fun k : T -> Nat\n{ k x = zero\n}\n"
           "let u : Nat = k t\n")

    @pytest.mark.parametrize("n", [300, 1000, 3000])
    def test_eval_lambda_chain_prints(self, n):
        lams = "".join(f"\\ x{k} -> " for k in range(n))
        r = ok(f"eval let f : {'Set -> ' * n}Set = {lams}Set\n")
        assert r.outputs == [f"f = {lams}Set"]

    # a named link that nothing reads is an arrow, so both kinds print as
    # arrows; the arrow rows keep their bare ids
    @pytest.mark.parametrize("link, n", [
        *(pytest.param("Set -> ", n, id=str(n)) for n in (300, 1000, 3000)),
        *(pytest.param("(x{k} : Set) -> ", n, id=f"named-{n}") for n in (300, 1000, 3000)),
    ])
    def test_eval_arrow_chain_prints(self, link, n):
        chain = "".join(link.format(k=k) for k in range(n))
        r = ok(f"eval let T : Set = {chain}Set\n")
        assert r.outputs == [f"T = {'Set -> ' * n}Set"]

    def test_eval_named_pi_read_only_in_a_domain(self):
        r = ok("eval let T : Set = (A : Set) -> (x : A) -> A\n")
        assert r.outputs == ["T = (A : Set) -> A -> A"]

    def test_eval_constructor_chain_prints(self):
        # a numeral 2^13 = 8192 constructors deep, read back on the worker
        # and printed in its last argument's loop
        doublings = 13
        n = 2 ** doublings
        src = NAT + "fun double : Nat -> Nat\n{ double zero = zero\n" \
            "; double (succ m) = succ (succ (double m))\n}\n" \
            f"eval let x : Nat = {'double (' * doublings}succ zero{')' * doublings}\n"
        ch, _, outputs = run_deep(build, src)
        assert outputs == [f"x = {'succ (' * (n - 1)}succ zero{')' * (n - 1)}"]
        quoted = run_deep(ch.ev.quote, ch.ev.evaluate(None, Def(ch.sig.by_text["x"])))
        assert pretty(quoted) == outputs[0][4:]

    def test_application_chain_prints(self):
        f, x = fresh_ident("f"), fresh_ident("x")
        e = Var(x)
        for _ in range(5000):
            e = App(Var(f), e)
        assert pretty(e) == "f (" * 4999 + "f x" + ")" * 4999

    def test_nth_16_of_fib_prints_on_the_main_thread(self):
        # the bench's `streams` program: 987 nested `succ`, evaluated, read
        # back and printed for a caller on the main thread at the default
        # recursion limit, as the bench calls `check_source`
        assert threading.current_thread() is threading.main_thread()
        assert sys.getrecursionlimit() == 1000
        fib16 = next(p for p in _workloads().build("streams", 1, ROOT) if p.name == "fib16")
        r = check_source(fib16.source, "fib16")
        assert r.diagnostic is None
        assert r.outputs == list(fib16.expect.outputs)
        assert r.outputs[0].count("succ") == 987

    @pytest.mark.parametrize("doublings", [9, 13])
    def test_eval_neutral_spine_chain_prints(self, doublings):
        # `iter n f x` under two lambdas reads back as n applications of the
        # neutral `f`, each in its last argument's loop
        n = 2 ** doublings
        src = NAT + "fun double : Nat -> Nat\n{ double zero = zero\n" \
            "; double (succ m) = succ (succ (double m))\n}\n" \
            "fun iter : Nat -> (Nat -> Nat) -> Nat -> Nat\n{ iter zero f x = x\n" \
            "; iter (succ n) f x = f (iter n f x)\n}\n" \
            "eval let g : (Nat -> Nat) -> Nat -> Nat = \\ f -> \\ x -> " \
            f"iter ({'double (' * doublings}succ zero{')' * doublings}) f x\n"
        r = ok(src)
        assert r.outputs == [f"g = \\ f -> \\ x -> {'f (' * (n - 1)}f x{')' * (n - 1)}"]

    def test_lambda_against_non_function_keeps_its_position(self):
        d = rejected(NAT + "let f : Nat -> Nat = \\ x -> \\ y -> x\n", "TYPE-MISMATCH")
        assert d.message == "lambda checked against non-function type 'Nat'"
        assert d.pos == (6, 29)


class TestOffsetLimit:
    """A size offset past 65536 is the LIMIT diagnostic of the declaration or
    eval let that reached it, not an internal error."""

    DOLLARS = "$" * 70000

    @pytest.mark.parametrize("decl", [
        "let T : [i : Size] -> SNat i -> SNat ({d} i) = \\ i -> \\ n -> n\n",
        "fun f : [i : Size] -> SNat ({d} i) -> SNat i {{ f i x = f i x }}\n",
    ], ids=["let", "fun"])
    def test_declaration(self, decl):
        d = rejected(SNAT_PARAMETRIC + decl.format(d=self.DOLLARS), "LIMIT")
        assert (d.pos, d.message) == ((6, 1), "size offset exceeds 65536")

    def test_eval_let(self):
        # accepted as checked; the eval let's erased size reaches 80000 only
        # when it is computed for display, and then it prints as _ as it
        # does without print_sizes
        d = "$" * 40000
        src = SNAT_PARAMETRIC + f"let g : [i : Size] -> SNat # = \\ i -> zero ({d} i)\n" \
            f"eval let e : [j : Size] -> SNat # = \\ j -> g ({d} j)\n"
        for print_sizes in (False, True):
            r = check_source(src, "<test>", RunConfig([], print_sizes=print_sizes))
            assert (r.diagnostic, r.outputs) == (None, ["e = \\ j -> zero _"])
