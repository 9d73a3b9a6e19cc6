"""Weak-head evaluation, runtime matching, readback and conversion."""

import pytest

from sizedcheck import RunConfig, check_source
from sizedcheck.checker import Checker
from sizedcheck.cli import run_deep
from sizedcheck.evaluator import Evaluator
from sizedcheck.parser import parse_source
from sizedcheck.pretty import pretty
from sizedcheck.scope import scope_check
from sizedcheck.sizes import INFTY, INFTY_SIZE, Rel, format_size, ns_var
from sizedcheck.diagnostics import Diagnostic
from sizedcheck.syntax import (
    NOPOS, App, Annot, Con, Def, Elided, Pi, SetU, Size, fresh_ident,
)
from sizedcheck.values import VSET, VSIZEU, Thunk, VCon, VData, VDef, VNe, VSize

from conftest import CORPUS, NAT, SNAT_PARAMETRIC, STREAM, build, untraced

PRED = SNAT_PARAMETRIC + """
fun pred : [i : Size] -> SNat ($$ i) -> SNat ($ i)
{ pred i (succ .($ i) n) = n
; pred i (zero .($ i))   = zero i
}

eval let one : SNat # = pred # (succ # (zero #))
"""


class TestEvaluate:
    def test_pred_unfolds_to_constructor(self):
        ch, decls, outputs = build(PRED)
        name = ch.sig.by_text["one"]
        v = ch.ev.whnf(ch.ev.evaluate(None, Def(name)))
        assert isinstance(v, VCon) and v.con.text == "zero"
        assert outputs == ["one = zero _"]

    def test_leq_picks_first_branch(self):
        src = NAT + """
fun leq : Nat -> Nat -> [C : Set] -> C -> C -> C
{ leq  zero     y       C t f = t
; leq (succ x)  zero    C t f = f
; leq (succ x) (succ y) C t f = leq x y C t f
}
eval let t : Nat = leq zero zero Nat (succ zero) zero
eval let f : Nat = leq (succ zero) zero Nat (succ zero) zero
"""
        _, _, outputs = build(src)
        assert outputs == ["t = succ zero", "f = zero"]

    def test_repeat_head_unfolds_once(self):
        src = NAT + STREAM + """
fun head : [A : Set] -> [i : Size] -> Stream A ($ i) -> A
{ head A i (cons .A .i a as) = a
}
cofun repeat : [A : Set] -> (a : A) -> [i : Size] -> Stream A i
{ repeat A a ($ i) = cons A i a (repeat A a i)
}
eval let hd : Nat = head Nat # (repeat Nat (succ zero) #)
"""
        _, _, outputs = build(src)
        assert outputs == ["hd = succ zero"]

    def test_cofun_stays_suspended_until_demanded(self):
        src = NAT + STREAM + """
cofun repeat : [A : Set] -> (a : A) -> [i : Size] -> Stream A i
{ repeat A a ($ i) = cons A i a (repeat A a i)
}
let r : Stream Nat # = repeat Nat zero #
"""
        ch, _, _ = build(src)
        v = ch.ev.evaluate(None, Def(ch.sig.by_text["r"]))
        assert isinstance(v, VDef) and v.name.text == "repeat"
        assert isinstance(ch.ev.whnf(v), VCon)


class TestMatchClauses:
    def test_minus_first_match_order(self):
        src = SNAT_PARAMETRIC + """
fun minus : [i : Size] -> SNat i -> SNat # -> SNat i
{ minus i (zero (i > j))    y          = zero j
; minus i  x               (zero .#)   = x
; minus i (succ (i > j) x) (succ .# y) = minus j x y
}
"""
        ch, _, _ = build(src)
        ev = ch.ev
        entry = ch.sig.fun(ch.sig.by_text["minus"])
        inf = Thunk.of(VSize(INFTY_SIZE))
        zero = ch.sig.by_text["zero"]
        succ = ch.sig.by_text["succ"]
        z = Thunk.of(VCon(zero, [inf]))
        sz = Thunk.of(VCon(succ, [inf, z]))
        env, clause = ev.match_clauses(entry.clauses, [inf, z, sz])
        assert clause is entry.clauses[0]  # zero-headed first argument
        env, clause = ev.match_clauses(entry.clauses, [inf, sz, z])
        assert clause is entry.clauses[1]  # second clause catches zero y

    def test_wildcards_match_without_forcing(self):
        src = NAT + """
fun const : Nat -> Nat -> Nat
{ const x _ = x
}
eval let c : Nat = const zero (succ zero)
"""
        _, _, outputs = build(src)
        assert outputs == ["c = zero"]

    def test_fallback_clause_catches_rest(self):
        src = NAT + """
fun classify : Nat -> Nat
{ classify (succ (succ n)) = succ zero
; classify n = zero
}
eval let a : Nat = classify zero
eval let b : Nat = classify (succ (succ (succ zero)))
"""
        _, _, outputs = build(src)
        assert outputs == ["a = zero", "b = succ zero"]

    def test_stuck_on_neutral(self):
        from sizedcheck.evaluator import _STUCK

        src = SNAT_PARAMETRIC + """
fun pred : [i : Size] -> SNat ($$ i) -> SNat ($ i)
{ pred i (succ .($ i) n) = n
; pred i (zero .($ i))   = zero i
}
"""
        ch, _, _ = build(src)
        entry = ch.sig.fun(ch.sig.by_text["pred"])
        x = fresh_ident("x")
        r = ch.ev.match_clauses(
            entry.clauses, [Thunk.of(VSize(INFTY_SIZE)), Thunk.of(VNe(x))]
        )
        assert r is _STUCK


class TestReadback:
    def test_inductive_numeral_prints_fully(self):
        src = SNAT_PARAMETRIC + "eval let three : SNat # = succ # (succ # (succ # (zero #)))"
        _, _, outputs = build(src)
        assert outputs == ["three = succ _ (succ _ (succ _ (zero _)))"]

    def test_coinductive_elided_at_depth(self):
        src = NAT + STREAM + """
cofun repeat : [A : Set] -> (a : A) -> [i : Size] -> Stream A i
{ repeat A a ($ i) = cons A i a (repeat A a i)
}
let r : Stream Nat # = repeat Nat zero #
"""
        ch, _, _ = build(src)
        v = ch.ev.evaluate(None, Def(ch.sig.by_text["r"]))
        ch.ev.print_depth = 2
        e = ch.ev.readback(v)
        assert pretty(e) == "cons _ zero (cons _ zero …)"
        ch.ev.print_depth = 0
        assert isinstance(ch.ev.readback(v), Elided)

    def test_set_value(self):
        src = "eval let T : Set = Set"
        _, _, outputs = build(src)
        assert outputs == ["T = Set"]

    def test_stuck_match_in_readback_reports_the_eval_let(self):
        # f has no clauses, so displaying succ f cannot put f in whnf
        src = NAT + "fun f : Nat { }\neval let x : Nat = succ f\n"
        d = check_source(src, "<t>").diagnostic
        assert d.code == "STUCK-MATCH" and "'f'" in d.message
        assert d.pos == (len(src.splitlines()), 1)

    def test_print_sizes_shows_erased_arguments(self):
        from sizedcheck.checker import Checker
        from sizedcheck.parser import parse_source
        from sizedcheck.scope import scope_check

        src = SNAT_PARAMETRIC + "eval let one : SNat # = succ # (zero #)"
        ch = Checker(print_sizes=True)
        _, outputs = ch.check_program(scope_check(parse_source(src)))
        assert outputs == ["one = succ # (zero #)"]


class TestConvertible:
    def test_parametric_arguments_ignored(self):
        ch, _, _ = build(PRED)
        ev = ch.ev
        pred = ch.sig.by_text["pred"]
        i, j, n = fresh_ident("i"), fresh_ident("j"), fresh_ident("n")

        def app(size_var):
            spine = [(Thunk.of(VSize(ns_var(size_var))), Annot.PARAMETRIC),
                     (Thunk.of(VNe(n)), Annot.RELEVANT)]
            return ev.apply(VDef(pred, []), spine, [NOPOS, NOPOS])

        assert ev.convertible(app(i), app(j))

    def test_set_reflexive(self):
        ch, _, _ = build("")
        from sizedcheck.values import VSet

        assert ch.ev.convertible(VSet(), VSet())

    def test_type_level_unfolding(self):
        src = SNAT_PARAMETRIC + """
fun Maxs : SNat # -> Size -> Set
{ Maxs (zero .#  ) i = SNat i
; Maxs (succ .# n) i = SNat i -> Maxs n i
}
let probe1 : (i : Size) -> Set = \\ i -> Maxs (succ # (zero #)) i
let probe2 : (i : Size) -> Set = \\ i -> SNat i -> SNat i
"""
        ch, _, _ = build(src)
        ev = ch.ev
        i = fresh_ident("i")
        v1 = ev.apply(ev.evaluate(None, Def(ch.sig.by_text["probe1"])),
                      [(Thunk.of(VSize(ns_var(i))), Annot.RELEVANT)], [NOPOS])
        v2 = ev.apply(ev.evaluate(None, Def(ch.sig.by_text["probe2"])),
                      [(Thunk.of(VSize(ns_var(i))), Annot.RELEVANT)], [NOPOS])
        assert ev.convertible(v1, v2)

    def test_different_constructors_differ(self):
        ch, _, _ = build(NAT)
        zero = ch.sig.by_text["zero"]
        succ = ch.sig.by_text["succ"]
        z = VCon(zero, [])
        sz = VCon(succ, [Thunk.of(z)])
        assert not ch.ev.convertible(z, sz)
        assert ch.ev.convertible(sz, VCon(succ, [Thunk.of(VCon(zero, []))]))


class TestThunks:
    def test_memoization_forces_once(self):
        src = SNAT_PARAMETRIC + "let three : SNat # = succ # (succ # (succ # (zero #)))"
        ch, _, _ = build(src)
        ev = ch.ev
        th = Thunk(None, Def(ch.sig.by_text["three"]))
        assert th.value is None
        v1 = ev.force(th)
        # the first force computed and dropped the suspension
        assert th.value is v1 and th.env is None and th.expr is None
        assert ev.force(th) is v1  # the second returned the stored value

    def test_fuel_exhaustion_is_reported(self):
        from sizedcheck.checker import Checker
        from sizedcheck.diagnostics import Diagnostic
        from sizedcheck.parser import parse_source
        from sizedcheck.scope import scope_check

        src = NAT + STREAM + """
cofun repeat : [A : Set] -> (a : A) -> [i : Size] -> Stream A i
{ repeat A a ($ i) = cons A i a (repeat A a i)
}
let r : Stream Nat # = repeat Nat zero #
"""
        ch = Checker(unfold_fuel=5)
        ch.check_program(scope_check(parse_source(src)))
        v = ch.ev.evaluate(None, Def(ch.sig.by_text["r"]))
        ch.ev.reset_budget()
        ch.ev.print_depth = 50
        with pytest.raises(Diagnostic) as e:
            ch.ev.readback(v)
        assert e.value.code == "FUEL"


# the Fibonacci stream program without its eval lets
FIB = (CORPUS / "accept" / "fib.ma").read_text().split("\neval let")[0] + "\n"

# a type-level function that unfolds once per succ of its argument
DEPTH = NAT + """
fun T : Nat -> Set
{ T  zero    = Nat
; T (succ n) = T n
}
"""


def numeral(n: int) -> str:
    return "zero" if n == 0 else f"(succ {numeral(n - 1)})"


def checked(src: str, unfold_fuel: int):
    return Checker(unfold_fuel=unfold_fuel).check_program(scope_check(parse_source(src)))


class TestUnfoldMemo:
    def test_fib_is_linear_in_the_index(self):
        # nth 12 (fib #) unfolds 2115 times without sharing
        src = FIB + f"eval let f : Nat = nth {numeral(12)} (fib #)\n"
        _, outputs = checked(src, unfold_fuel=500)
        assert outputs[0].count("succ") == 144

    def test_distinct_non_size_arguments_keep_their_values(self):
        src = NAT + STREAM + """
fun add : Nat -> Nat -> Nat
{ add  zero    y = y
; add (succ x) y = succ (add x y)
}
fun head : [A : Set] -> [i : Size] -> Stream A ($ i) -> A
{ head A i (cons .A .i a as) = a
}
cofun repeat : [A : Set] -> (a : A) -> [i : Size] -> Stream A i
{ repeat A a ($ i) = cons A i a (repeat A a i)
}
eval let s : Nat =
  add (head Nat # (repeat Nat zero #)) (head Nat # (repeat Nat (succ (succ zero)) #))
"""
        _, _, outputs = build(src)
        assert outputs == ["s = succ (succ zero)"]

    def test_equal_normal_sizes_share_one_unfolding(self):
        ch, _, _ = build(FIB)
        ev = ch.ev
        fib = Def(ch.sig.by_text["fib"])
        ev.reset_budget()
        at_infty = ev.evaluate(None, App(fib, Size(INFTY_SIZE), Annot.PARAMETRIC))
        at_succ_infty = ev.evaluate(None, App(fib, Size(((INFTY, 1),)), Annot.PARAMETRIC))
        v = ev.whnf(at_infty)
        assert isinstance(v, VCon) and ev.steps == 1
        assert ev.whnf(at_succ_infty) is v
        assert ev.steps == 1  # the hit unfolded no clause

    # doubly recursive: linear with the memo, exponential without it
    DOUBLE = NAT + """data Bool : Set { true : Bool ; false : Bool }
fun or : Bool -> Bool -> Bool
{ or true  b = true
; or false b = b
}
fun g : Nat -> Bool
{ g  zero    = false
; g (succ n) = or (g n) (g n)
}
""" + f"eval let r : Bool = g {numeral(18)}\n"

    def test_doubly_recursive_fun_is_linear_in_its_argument(self):
        ch, _, outputs = build(self.DOUBLE)
        assert outputs == ["r = false"]
        assert ch.ev.steps == 2 * 18 + 1  # g at 19 arguments, or at 18

    def test_without_the_memo_it_runs_out_of_fuel(self, monkeypatch):
        monkeypatch.setattr(Evaluator, "_memo_key", lambda self, th: object())
        d = check_source(self.DOUBLE, "<t>").diagnostic
        assert d is not None and d.code == "FUEL"

    def test_reset_budget_drops_the_memo(self):
        ch, _, _ = build(FIB)
        ev = ch.ev
        fib = Def(ch.sig.by_text["fib"])
        ev.reset_budget()
        v = ev.whnf(ev.evaluate(None, App(fib, Size(INFTY_SIZE), Annot.PARAMETRIC)))
        ev.reset_budget()
        assert ev.whnf(ev.evaluate(None, App(fib, Size(INFTY_SIZE), Annot.PARAMETRIC))) is not v
        assert ev.steps == 1


class TestFuelPerDeclaration:
    # each `let xk : T 3 = zero` costs 4 ticks, `T 12` costs 13
    MANY = DEPTH + "".join(f"let x{k} : T {numeral(3)} = zero\n" for k in range(5))

    def test_budget_is_per_declaration(self):
        checked(self.MANY, unfold_fuel=10)

    def test_one_declaration_over_budget_fails_at_its_position(self):
        src = self.MANY + f"let deep : T {numeral(12)} = zero\n"
        d = check_source(src, "<t>", RunConfig([], unfold_fuel=10)).diagnostic
        assert d.code == "FUEL"
        assert d.pos[0] > 0 and d.pos[0] == len(src.splitlines())

    def test_cyclic_streams_compare_under_fuel(self):
        # zeros # and zeros2 # unfold to cyclic values through the memo
        src = NAT + STREAM + """
data Eq (A : Set) (a : A) : A -> Set
{ refl : Eq A a a
}
cofun zeros : [i : Size] -> Stream Nat i
{ zeros ($ i) = cons Nat i zero (zeros i)
}
cofun zeros2 : [i : Size] -> Stream Nat i
{ zeros2 ($ i) = cons Nat i zero (zeros2 i)
}
let p : Eq (Stream Nat #) (zeros #) (zeros2 #) = refl (Stream Nat #) (zeros #)
"""
        d = check_source(src, "<t>", RunConfig([], unfold_fuel=10)).diagnostic
        assert d.code == "FUEL" and d.pos[0] == len(src.splitlines())

    def test_fuel_reports_the_eval_let(self):
        src = FIB + f"eval let f : Nat = nth {numeral(12)} (fib #)\n"
        d = check_source(src, "<t>", RunConfig([], unfold_fuel=100)).diagnostic
        assert d.code == "FUEL"
        assert d.pos[0] > 0 and d.pos[0] == len(src.splitlines())


def arrows(n: int, lets: int) -> str:
    """A fun of n arrows over Bool and Nat, two clauses, and `lets` lets
    applying it."""
    ty = " -> ".join(["Bool"] + ["Nat"] * n)
    xs = " ".join(f"x{k}" for k in range(1, n))
    zeros = " ".join(["zero"] * (n - 1))
    src = NAT + "data Bool : Set { true : Bool ; false : Bool }\n"
    src += f"fun f : {ty}\n{{ f true {xs} = x1\n; f false {xs} = succ x1\n}}\n"
    return src + "".join(f"let a{k} : Nat = f true {zeros}\n" for k in range(lets))


class TestSharedCodomains:
    def _pi_evaluations(self, monkeypatch, src: str) -> int:
        count = 0
        evaluate = Evaluator.evaluate

        def counting(self, env, e):
            nonlocal count
            count += isinstance(e, Pi)
            return evaluate(self, env, e)

        monkeypatch.setattr(Evaluator, "evaluate", counting)
        build(src)
        return count

    def test_each_arrow_codomain_is_evaluated_once(self, monkeypatch):
        # the fun's n Pi nodes and succ's one; every clause, let and
        # application walks the same values
        n = 30
        two = self._pi_evaluations(monkeypatch, arrows(n, lets=2))
        assert two <= n + 2
        assert self._pi_evaluations(monkeypatch, arrows(n, lets=3)) == two

    def test_dependent_codomain_differs_per_instantiation(self):
        src = SNAT_PARAMETRIC + "let f : [i : Size] -> SNat i -> SNat i = \\ i -> \\ x -> x\n"
        ch, _, _ = build(src)
        ev = ch.ev
        ty = ch.sig[ch.sig.by_text["f"]].type_value
        i = fresh_ident("i")
        at_i = ev.close(ty.closure, VSize(ns_var(i)))
        at_infty = ev.close(ty.closure, VSize(INFTY_SIZE))
        assert pretty(ev.quote(at_i)) == "SNat i -> SNat i"
        assert pretty(ev.quote(at_infty)) == "SNat # -> SNat #"
        # each arrow keeps its own codomain, evaluated once
        assert ev.close(at_i.closure, VNe(fresh_ident("x"))) is ev.close(at_i.closure, None)
        assert ev.close(at_i.closure, None) is not ev.close(at_infty.closure, None)


SSUCC = """sized data SNat : Size -> Set
{ szero : [i : Size] -> SNat ($ i)
; ssucc : [i : Size] -> SNat i -> SNat ($ i)
}
"""


class TestValueAtInfinity:
    def _ssucc(self):
        ch, _, _ = build(NAT + SSUCC)
        return ch, ch.sig.con(ch.sig.by_text["ssucc"]).type_value

    def test_closed_at_infinity_twice_is_one_value(self):
        ch, ty = self._ssucc()
        ev = ch.ev
        at_infty = ev.close(ty.closure, VSize(INFTY_SIZE))
        assert pretty(ev.quote(at_infty)) == "SNat # -> SNat #"
        assert ev.close(ty.closure, VSize(INFTY_SIZE)) is at_infty

    def test_value_at_a_variable_or_a_hole_is_not_kept(self):
        ch, ty = self._ssucc()

        def at(size):
            return ch.ev.close(ty.closure, VSize(size))

        i = fresh_ident("i")
        assert at(ns_var(i)) is not at(ns_var(i))
        assert at(((0, 0),)) is not at(((0, 0),))
        assert ty.closure.value is None

    def test_telescope_mints_no_variable_for_an_arrow(self):
        ch, ty = self._ssucc()
        (_, d1, x1), (_, d2, x2) = ch.ev.telescope(ty)[0]
        assert d1 is VSIZEU and isinstance(x1, VSize) and [b.text for b, _ in x1.size] == ["i"]
        assert isinstance(d2, VData) and x2 is None
        ch2, _, _ = build(arrows(5, lets=0))
        binders, rest = ch2.ev.telescope(ch2.sig.fun(ch2.sig.by_text["f"]).type_value)
        assert [x for _, _, x in binders] == [None] * 5
        assert pretty(ch2.ev.quote(rest)) == "Nat"

    def test_identical_closed_types_are_subtypes_without_a_walk(self, monkeypatch):
        ch, _ = self._ssucc()
        ev = ch.ev
        calls = []
        compare = Evaluator.compare

        def counting(self, a, b, rel, col):
            calls.append(rel)
            return compare(self, a, b, rel, col)

        def no_entailment(*args):
            raise AssertionError("size_entails called")

        monkeypatch.setattr(Evaluator, "compare", counting)
        monkeypatch.setattr(Evaluator, "size_entails", no_entailment)
        nat = ev.evaluate(None, Def(ch.sig.by_text["Nat"]))
        for v in (nat, VSET, VSIZEU):
            calls.clear()
            assert ev.compare(v, v, Rel.LE, [])
            assert calls == [Rel.LE]  # no EQ comparison behind it

    def test_shared_type_with_a_hole_still_adds_its_constraint(self):
        ch, _ = self._ssucc()
        snat = ch.sig.by_text["SNat"]
        v = VData(snat, (Thunk.of(VSize(((7, 0),))),))
        col = []
        assert ch.ev.compare(v, v, Rel.LE, col)
        assert [(format_size(c.lhs), format_size(c.rhs)) for c in col] == [("?7", "?7")]


# a partial, an exact and an over-application of funs, one of which is stuck
SPINES = NAT + STREAM + """
fun add : Nat -> Nat -> Nat
{ add  zero    y = y
; add (succ x) y = succ (add x y)
}
fun konst : Nat -> Nat -> Nat
{ konst x = \\ y -> x
}
fun pred : Nat -> Nat -> Nat
{ pred (succ n) = \\ y -> n
}
fun F : Nat -> Set
{ F x = Set
}
cofun repeat : [A : Set] -> (a : A) -> [i : Size] -> Stream A i
{ repeat A a ($ i) = cons A i a (repeat A a i)
}
"""


class TestApplySpine:
    """Evaluation applies a whole application spine at once."""

    def test_partial_application_is_a_def_holding_its_spine(self):
        ch, _, _ = build(SPINES + "let p : Nat -> Nat = add (succ zero)\n")
        v = ch.ev.evaluate(None, Def(ch.sig.by_text["p"]))
        assert isinstance(v, VDef) and v.name.text == "add"
        assert len(v.spine) == 1 and v.spine[0][0].value is None

    def test_over_application_equals_one_at_a_time(self):
        ch, _, outputs = build(SPINES + "eval let k : Nat = konst (succ zero) zero\n")
        assert outputs == ["k = succ zero"]
        ev = ch.ev
        konst, succ, zero = (ch.sig.by_text[t] for t in ("konst", "succ", "zero"))
        one = App(Con(succ), Con(zero), Annot.RELEVANT)
        whole = ev.evaluate(None, App(App(Def(konst), one, Annot.RELEVANT), Con(zero), Annot.RELEVANT))
        v = ev.evaluate(None, Def(konst))
        for arg in (one, Con(zero)):
            v = ev.apply(v, [(Thunk(None, arg), Annot.RELEVANT)], [NOPOS])
        assert pretty(ev.readback(whole)) == pretty(ev.readback(v)) == "succ zero"

    def test_cofun_head_keeps_its_whole_spine_unevaluated(self):
        ch, _, _ = build(SPINES + "let r : Stream Nat # = repeat Nat zero #\n")
        v = ch.ev.evaluate(None, Def(ch.sig.by_text["r"]))
        assert isinstance(v, VDef) and v.name.text == "repeat"
        assert [th.value for th, _ in v.spine] == [None, None, None]

    @pytest.mark.parametrize("let, pos", [
        ("eval let a : Nat -> Nat = pred zero", (27, 32)),
        ("eval let a : Nat = pred zero (succ zero)", (27, 25)),
        ("eval let a : Nat = add (pred zero zero) zero", (27, 30)),
    ])
    def test_unmatched_fun_is_reported_at_the_saturating_application(self, let, pos):
        d = check_source(SPINES + let + "\n", "t.ma").diagnostic
        assert (d.code, d.message, d.pos) == ("STUCK-MATCH", "no clause of 'pred' matches", pos)

    @pytest.mark.parametrize("head", ["F", None])
    def test_non_function_is_reported_at_its_application(self, head):
        # an application's position is its argument's
        ch, _, _ = build(SPINES)
        zero = ch.sig.by_text["zero"]
        f = (SetU() if head is None
             else App(Def(ch.sig.by_text[head]), Con(zero, 5), Annot.RELEVANT, 5))
        with pytest.raises(Diagnostic) as e:
            ch.ev.evaluate(None, App(App(f, Con(zero, 9), Annot.RELEVANT, 9),
                                   Con(zero, 12), Annot.RELEVANT, 12))
        assert (e.value.code, e.value.message, e.value.pos) == (
            "STUCK-MATCH", "application of a non-function value", 9)

    def test_nth_of_repeat_steps_and_memo(self):
        src = SPINES + """
fun head : [A : Set] -> [i : Size] -> Stream A ($ i) -> A
{ head A i (cons .A .i a as) = a
}
fun tail : [A : Set] -> [i : Size] -> Stream A ($ i) -> Stream A i
{ tail A i (cons .A .i a as) = as
}
fun nth : Nat -> Stream Nat # -> Nat
{ nth  zero    xs = head Nat # xs
; nth (succ n) xs = nth n (tail Nat # xs)
}
""" + f"eval let x : Nat = nth {numeral(10)} (repeat Nat zero #)\n"
        ch, _, outputs = build(src)
        ev = ch.ev
        assert outputs == ["x = zero"]
        # `repeat A a i` passes its variables' own thunks on, so every layer
        # of the stream is one memo entry
        assert ev.steps == 23
        memo = sorted((key[0].text, pretty(ev.quote(v))) for key, v in ev.unfolded.items())
        assert memo == ([("head", "zero")] + [("nth", "zero")] * 11
                        + [("repeat", "cons Nat # zero (repeat Nat zero #)")]
                        + [("tail", "repeat Nat zero #")] * 10)


# the two returns of `Evaluator._unfold` that only these inputs reach; (program,
# outputs, diagnostic as (code, position, message) or None)
HEAD = """fun head : [A : Set] -> [i : Size] -> Stream A ($ i) -> A
{ head A i (cons .A .i a as) = a
}
"""
EQ = "data Eq (A : Set) : A -> A -> Set { refl : (a : A) -> Eq A a a }\n"
UNFOLD_PATHS = {
    # `from` has arity 1: its lambda takes the second argument, applied to
    # what the unfolding returns
    "leftover arguments": (
        NAT + STREAM + HEAD + """cofun from : [i : Size] -> Nat -> Stream Nat i
{ from ($ i) = \\ n -> cons Nat i n (from i (succ n))
}
eval let h : Nat = head Nat # (from # (succ zero))
""",
        ["h = succ zero"], None),
    # `f zero` in f's own clause stays rigid, so it does not convert to zero
    "rigid while its clauses are checked": (
        NAT + EQ + """fun k : [A : Set] -> A -> Nat -> Nat { k A a m = m }
fun f : Nat -> Nat
{ f zero = zero
; f (succ n) = k (Eq Nat (f zero) zero) (refl Nat zero) n
}
""",
        [], ("TYPE-MISMATCH", (10, 51), "expected 'Eq Nat (f zero) zero', got 'Eq Nat zero zero'")),
}


@pytest.mark.parametrize("name", UNFOLD_PATHS)
def test_unfold_path(name):
    src, outputs, diagnostic = UNFOLD_PATHS[name]
    r = check_source(src, "<t>")
    d = r.diagnostic
    assert (r.outputs, d and (d.code, d.pos, d.message)) == (outputs, diagnostic)


class TestReadbackShape:
    """Eval output is built once, in its final shape: a 5000-deep numeral
    reads back as 5000 `App` nodes around one shared `succ` leaf, with no
    other memory per level, and a bare constructor evaluates to the one
    value its entry holds.  Readback recurses as deep as the numeral, so
    each step runs on the checker's worker thread (`cli.run_deep`)."""

    SRC = NAT + """fun add : Nat -> Nat -> Nat
{ add  zero    y = y
; add (succ x) y = succ (add x y)
}
fun rep : Nat -> Nat -> Nat
{ rep  zero    n = zero
; rep (succ k) n = add n (rep k n)
}
""" + f"let r : Nat = rep {numeral(50)} {numeral(100)}\n"
    LEVELS = 5000

    @pytest.fixture(scope="class")
    def deep(self):
        ch, _, _ = run_deep(build, self.SRC)
        ev = ch.ev
        v = ev.evaluate(None, Def(ch.sig.by_text["r"]))
        ev.reset_budget()
        run_deep(ev.readback, v)  # forces every level
        return ev, v

    def test_one_succ_leaf(self, deep):
        ev, v = deep
        ev.reset_budget()
        e, leaves, levels = run_deep(ev.readback, v), set(), 0
        while isinstance(e, App):
            leaves.add(id(e.fun))
            levels += 1
            e = e.arg
        assert (levels, len(leaves), type(e)) == (self.LEVELS, 1, Con)

    def test_peak_per_level(self, deep):
        import tracemalloc

        ev, v = deep
        ev.reset_budget()

        def measure():
            # on the worker, whose trace function is the one to suspend
            with untraced():
                tracemalloc.start()
                try:
                    return ev.readback(v), tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        e, peak = run_deep(measure)
        assert isinstance(e, App)
        assert peak / self.LEVELS <= 100

    def test_bare_constructor_is_one_value(self, deep):
        ev, _ = deep
        zero = Con(ev.sig.by_text["zero"])
        assert ev.evaluate(None, zero) is ev.evaluate(None, zero)
