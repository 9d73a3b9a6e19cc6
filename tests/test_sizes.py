"""Size algebra: normalization, entailment under size hypotheses, and the
hole solver, against hand-checked and brute-forced expectations."""

import gc
import tracemalloc

import pytest

from sizedcheck import sizes
from sizedcheck.sizes import (
    INFTY,
    INFTY_SIZE,
    Ambiguous,
    Rel,
    SizeConstraint,
    Unsolvable,
    bump,
    entails,
    format_size,
    normalize,
    ns_max,
    ns_var,
    solve_metas,
)
from sizedcheck.syntax import fresh_ident

from conftest import untraced

i = fresh_ident("i")
j = fresh_ident("j")
k = fresh_ident("k")


def hyps_of(*edges):
    """The map of hypotheses child < parent (strict) or child <= parent, as
    `Signature.hyps` holds them."""
    return {child.uid: (parent, strict) for child, parent, strict in edges}


J_BELOW_I = (j, ns_var(i), True)
K_BELOW_I = (k, ns_var(i), True)


class TestNormalize:
    def test_fold_two_successors(self):
        assert normalize(((i, 2),)) == ns_var(i, 2)

    def test_successor_of_infinity_collapses(self):
        assert normalize(((INFTY, 1),)) == INFTY_SIZE

    def test_max_dominance(self):
        # max ($ i) i = i+1, verified by brute force over valuations
        got = normalize(((i, 1), (i, 0)))
        assert got == ns_var(i, 1)
        for v in range(6):
            assert max(v + 1, v) == v + 1

    def test_max_keeps_incomparable_bases(self):
        got = normalize(((i, 0), (j, 0)))
        assert got == ns_max(ns_var(i), ns_var(j))

    def test_idempotent(self):
        cases = [
            ((i, 1), (j, 2)),  # $ (max i ($ j))
            ((INFTY, 0), (i, 0)),  # max # i
            ((7, 0),),  # _
        ]
        for s in cases:
            once = normalize(s)
            assert normalize(once) == once

    def test_roundtrip_through_expr(self):
        ns = ns_max(ns_var(i, 2), ns_var(j))
        # a size reads back as the pairs of its normal form
        assert normalize(ns) == ns


class TestEntails:
    def test_strict_hypothesis_gives_successor_bound(self):
        hyps = hyps_of(J_BELOW_I)
        assert entails(hyps, bump(ns_var(j), 1), Rel.LE, ns_var(i))

    def test_reflexivity(self):
        assert entails({}, ns_var(i), Rel.LE, ns_var(i))

    def test_no_max_inversion(self):
        # {j < i, k < i} does not entail i <= max j k (take j = k = 0, i = 1)
        hyps = hyps_of(J_BELOW_I, K_BELOW_I)
        assert not entails(hyps, ns_var(i), Rel.LE, ns_max(ns_var(j), ns_var(k)))

    def test_anything_below_infinity(self):
        hyps = {}
        assert entails(hyps, ns_var(i, 5), Rel.LE, INFTY_SIZE)
        assert entails(hyps, ns_var(i), Rel.LT, INFTY_SIZE)
        assert entails(hyps, INFTY_SIZE, Rel.LE, INFTY_SIZE)
        assert not entails(hyps, INFTY_SIZE, Rel.LT, INFTY_SIZE)
        assert not entails(hyps, INFTY_SIZE, Rel.LE, ns_var(i))

    def test_offset_rule_same_base(self):
        hyps = {}
        assert entails(hyps, ns_var(i, 1), Rel.LE, ns_var(i, 2))
        assert not entails(hyps, ns_var(i, 2), Rel.LE, ns_var(i, 1))
        assert entails(hyps, ns_var(i), Rel.LT, ns_var(i, 1))
        assert not entails(hyps, ns_var(i), Rel.LT, ns_var(i))

    def test_max_left_is_conjunction(self):
        hyps = hyps_of(J_BELOW_I, K_BELOW_I)
        m = ns_max(ns_var(j), ns_var(k))
        assert entails(hyps, m, Rel.LT, ns_var(i))
        assert entails(hyps, m, Rel.LE, ns_var(i, 3))

    def test_max_right_is_disjunction(self):
        hyps = {}
        assert entails(hyps, ns_var(i), Rel.LE, ns_max(ns_var(i), ns_var(j)))

    def test_an_unsolved_hole_is_related_only_to_itself(self):
        # nothing is known of a hole yet: it bounds, and is bounded by, only
        # itself plus an offset
        hyps = hyps_of(J_BELOW_I)
        assert entails(hyps, ((1, 0),), Rel.LE, ((1, 1),))
        assert not entails(hyps, ((1, 0),), Rel.LE, ns_var(i))
        assert not entails(hyps, ns_var(j), Rel.LT, ((1, 0),))
        assert not entails(hyps, ((1, 0),), Rel.LE, ((2, 0),))
        assert entails(hyps, ((1, 0),), Rel.LT, INFTY_SIZE)


class TestAddHypothesis:
    def test_basic_edge(self):
        hyps = hyps_of(J_BELOW_I)
        assert entails(hyps, ns_var(j), Rel.LT, ns_var(i))

    def test_top_element(self):
        hyps = hyps_of((j, INFTY_SIZE, True))
        assert entails(hyps, ns_var(j), Rel.LE, INFTY_SIZE)
        assert not entails(hyps, INFTY_SIZE, Rel.LE, ns_var(j))

    def test_offset_accumulation(self):
        hyps = hyps_of(J_BELOW_I, (k, ns_var(j), True))
        assert entails(hyps, ns_var(k, 2), Rel.LE, ns_var(i))
        assert not entails(hyps, ns_var(k, 3), Rel.LE, ns_var(i))


class TestSolveMetas:
    def test_direct_assignment(self):
        hyps = {}
        # m = i as a pair of inequalities
        cs = [
            SizeConstraint(((1, 0),), Rel.LE, ns_var(i)),
            SizeConstraint(ns_var(i), Rel.LE, ((1, 0),)),
        ]
        sol = solve_metas(cs, hyps, {1})
        assert sol[1] == ns_var(i)

    def test_least_solution_with_lower_bound(self):
        # {m <= i, $ j <= m} under {j < i}: least solution m = j+1
        hyps = hyps_of(J_BELOW_I)
        cs = [
            SizeConstraint(((1, 0),), Rel.LE, ns_var(i)),
            SizeConstraint(ns_var(j, 1), Rel.LE, ((1, 0),)),
        ]
        sol = solve_metas(cs, hyps, {1})
        assert sol[1] == ns_var(j, 1)
        # brute-force check over candidate bases {j, i} and offsets 0..2:
        # j+1 is the least candidate satisfying both constraints
        candidates = [(b, o) for b in ("j", "i") for o in range(3)]
        vals = {"j": 0, "i": 2}
        feasible = [
            (b, o)
            for b, o in candidates
            if vals[b] + o <= vals["i"] and vals["j"] + 1 <= vals[b] + o
        ]
        assert min(feasible, key=lambda p: vals[p[0]] + p[1]) == ("j", 1)

    def test_unsolvable_needs_subtraction(self):
        # j <= m+2 with no successor structure below j: no expressible hole
        hyps = {}
        cs = [SizeConstraint(ns_var(j), Rel.LE, ((1, 2),))]
        with pytest.raises(Unsolvable):
            solve_metas(cs, hyps, {1})

    def test_ambiguous_when_unconstrained(self):
        with pytest.raises(Ambiguous):
            solve_metas([], {}, {1})

    def test_infinity_fallback_for_upper_only(self):
        # $ m <= # constrains nothing; the hole defaults to #
        cs = [SizeConstraint(((1, 1),), Rel.LE, INFTY_SIZE)]
        sol = solve_metas(cs, {}, {1})
        assert sol[1] == INFTY_SIZE

    def test_dependency_chain(self):
        hyps = {}
        cs = [
            SizeConstraint(ns_var(i), Rel.LE, ((1, 0),)),
            SizeConstraint(((1, 1),), Rel.LE, ((2, 0),)),
            SizeConstraint(((2, 1),), Rel.LE, ns_var(i, 2)),
        ]
        sol = solve_metas(cs, hyps, {1, 2})
        assert sol[1] == ns_var(i)
        assert sol[2] == ns_var(i, 1)

    def test_reverification_catches_conflicts(self):
        hyps = {}
        # j <= m and m <= i is unsolvable without a hypothesis relating them
        cs = [
            SizeConstraint(ns_var(j), Rel.LE, ((1, 0),)),
            SizeConstraint(((1, 0),), Rel.LE, ns_var(i)),
        ]
        with pytest.raises(Unsolvable):
            solve_metas(cs, hyps, {1})

    def test_self_loop_is_cyclic(self):
        cs = [SizeConstraint(((1, 1),), Rel.LE, ((1, 0),))]
        with pytest.raises(Unsolvable, match="cyclic"):
            solve_metas(cs, {}, {1})

    def test_two_cycle_is_cyclic(self):
        cs = [
            SizeConstraint(((1, 0),), Rel.LE, ((2, 0),)),
            SizeConstraint(((2, 0),), Rel.LE, ((1, 0),)),
        ]
        with pytest.raises(Unsolvable, match="cyclic"):
            solve_metas(cs, {}, {1, 2})

    def test_cycle_beside_a_solvable_hole_is_cyclic(self):
        cs = [
            SizeConstraint(ns_var(i), Rel.LE, ((1, 0),)),
            SizeConstraint(((2, 0),), Rel.LE, ((3, 0),)),
            SizeConstraint(((3, 0),), Rel.LE, ((2, 0),)),
        ]
        with pytest.raises(Unsolvable, match="cyclic"):
            solve_metas(cs, {}, {1, 2, 3})

    @staticmethod
    def _chain(n):
        # ?n >= i and ?m >= ?(m+1) + 1: each hole needs the one with the next
        # higher id, so ?m = i + (n - m)
        cs = [SizeConstraint(ns_var(i), Rel.LE, ((n, 0),))]
        cs += [SizeConstraint(((m + 1, 1),), Rel.LE, ((m, 0),)) for m in range(1, n)]
        return cs, set(range(1, n + 1))

    def test_chain_from_low_to_high_ids(self):
        n = 300
        cs, mids = self._chain(n)
        sol = solve_metas(cs, {}, mids)
        assert sol == {m: ns_var(i, n - m) for m in mids}

    def test_memory_per_hole_stays_small_on_a_deep_chain(self):
        # the walk down the chain keeps two ints per hole on its path and
        # drops a hole's bounds once it is solved; a suspended generator and
        # a set per hole on the path would cost about 1,100 B per hole
        n = 4000
        cs, mids = self._chain(n)
        hyps = {}
        gc.collect()
        with untraced():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                sol = solve_metas(cs, hyps, mids)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peak - before) / n < 800
        assert sol == {m: ns_var(i, n - m) for m in mids}

    def test_work_grows_linearly_with_the_chain(self, monkeypatch):
        # every hole of the chain reads its dependency's solution through one
        # bump, when it is solved and when its constraint is re-verified
        calls = 0
        bump_ = sizes.bump

        def counting(ns, n):
            nonlocal calls
            calls += 1
            return bump_(ns, n)

        monkeypatch.setattr(sizes, "bump", counting)
        counts = []
        for n in (100, 200):
            cs, mids = self._chain(n)
            calls = 0
            solve_metas(cs, {}, mids)
            counts.append(calls)
        assert counts[1] / counts[0] < 3


class TestFormat:
    def test_stable_textual_form(self):
        naming = {1: "m1"}
        assert format_size(((1, 0),), naming) == "m1"
        assert format_size(ns_var(i, 1)) == "i+1"
        assert format_size(INFTY_SIZE) == "#"
        assert format_size(ns_max(ns_var(i, 1), ns_var(j))) in (
            "max(i+1, j)",
            "max(j, i+1)",
        )
