"""Property suite for the size algebra: soundness against the valuation
model, completeness on the max-free fragment, structural laws, and the hole
solver against a brute-force search."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sizedcheck.sizes import (
    INFTY,
    INFTY_SIZE,
    Rel,
    SizeConstraint,
    Unsolvable,
    apply_solution,
    entails,
    normalize,
    ns_max,
    ns_var,
    solve_metas,
)
from sizedcheck.syntax import Ident, fresh_ident

from oracle import (
    ListSizeCtx,
    SInfty,
    SMax,
    SSucc,
    SVar,
    all_valuations,
    hole_solutions,
    holds,
    satisfies,
    satisfying_valuations,
    semantically_valid,
    subst_base,
    subst_size,
    tree_pairs,
    val_size,
)


def random_ctx(rng: random.Random, n_vars: int, n_edges: int) -> tuple[list, dict]:
    """Size variables in the order they are bound, which is uid order, and
    a hypothesis on each of the last n_edges, below an earlier one or #."""
    xs = [fresh_ident(f"v{k}") for k in range(max(0, n_vars - n_edges))]
    hyps: dict = {}
    for k in range(n_edges):
        child = fresh_ident(f"c{k}")
        if xs and rng.random() < 0.85:
            parent = ns_var(rng.choice(xs), rng.randrange(0, 3))
        else:
            parent = INFTY_SIZE
        hyps[child.uid] = (parent, rng.random() < 0.8)
        xs.append(child)
    return xs, hyps


def random_atom(rng: random.Random, xs: list) -> tuple:
    if not xs or rng.random() < 0.1:
        return INFTY_SIZE
    return ns_var(rng.choice(xs), rng.randrange(0, 4))


def random_size(rng: random.Random, xs: list, allow_max=True) -> tuple:
    a = random_atom(rng, xs)
    if allow_max and rng.random() < 0.3:
        return ns_max(a, random_atom(rng, xs))
    return a


class TestSoundness:
    def test_fuzz_no_false_positives(self):
        rng = random.Random(20260810)
        checked = 0
        for _ in range(1000):
            xs, hyps = random_ctx(rng, rng.randrange(1, 5), rng.randrange(0, 6))
            a = random_size(rng, xs)
            b = random_size(rng, xs)
            rel = Rel.LT if rng.random() < 0.4 else Rel.LE
            if entails(hyps, a, rel, b):
                checked += 1
                assert semantically_valid(xs, hyps, a, rel, b), (hyps, a, rel, b)
        assert checked > 100  # the fuzz must actually exercise positives


class TestOracle:
    def test_pruned_valuations_match_the_filtered_product(self):
        # the oracle's pruned enumeration against the brute-force reference
        def key(v):
            return tuple(sorted((x.uid, val) for x, val in v.items()))

        rng = random.Random(5)
        for _ in range(300):
            xs, hyps = random_ctx(rng, rng.randrange(1, 4), rng.randrange(0, 4))
            assert len(xs) <= 3
            pruned = [key(v) for v in satisfying_valuations(xs, hyps)]
            brute = [key(v) for v in all_valuations(xs) if satisfies(v, xs, hyps)]
            assert len(pruned) == len(set(pruned))
            assert set(pruned) == set(brute), hyps


class TestCompleteness:
    def test_max_free_agreement(self):
        rng = random.Random(99)
        agree = 0
        for _ in range(600):
            xs, hyps = random_ctx(rng, rng.randrange(1, 4), rng.randrange(0, 4))
            a = random_size(rng, xs, allow_max=False)
            b = random_size(rng, xs, allow_max=False)
            rel = Rel.LT if rng.random() < 0.4 else Rel.LE
            assert entails(hyps, a, rel, b) == semantically_valid(xs, hyps, a, rel, b), (
                hyps, a, rel, b,
            )
            agree += 1
        assert agree == 600


_names = st.sampled_from(["i", "j", "k"])


@st.composite
def size_exprs(draw, depth=3):
    if depth == 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return SInfty()
        return SVar(Ident(draw(_names), draw(st.integers(1, 3))))
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return SSucc(draw(size_exprs(depth=depth - 1)))
    if choice == 1:
        return SMax(draw(size_exprs(depth=depth - 1)), draw(size_exprs(depth=depth - 1)))
    return draw(size_exprs(depth=0))


class TestNormalizeLaws:
    @given(size_exprs())
    def test_idempotent(self, s):
        once = normalize(tree_pairs(s))
        assert normalize(once) == once

    @given(size_exprs(), st.integers(1, 3))
    def test_commutes_with_renaming(self, s, uid):
        old = Ident("i", 1)
        new = Ident("z", 77)
        renamed = subst_size(s, old, SVar(new))
        direct = normalize(tree_pairs(renamed))
        via = normalize(tree_pairs(s))
        for b, n in via:
            assert b != new
        assert subst_base(via, old, ns_var(new)) == direct


class TestAntisymmetry:
    def test_mutual_entailment_means_equal_normal_forms_max_free(self):
        rng = random.Random(7)
        hits = 0
        for _ in range(500):
            xs, hyps = random_ctx(rng, rng.randrange(1, 4), rng.randrange(0, 4))
            a = random_size(rng, xs, allow_max=False)
            b = random_size(rng, xs, allow_max=False)
            if entails(hyps, a, Rel.LE, b) and entails(hyps, b, Rel.LE, a):
                hits += 1
                assert a == b, (a, b)
        assert hits > 20

    def test_mutual_entailment_with_max_is_semantic_equality(self):
        # a hypothesis-dominated max component may make two distinct normal
        # forms mutually entailed; they must still agree at every valuation
        rng = random.Random(8)
        for _ in range(300):
            xs, hyps = random_ctx(rng, rng.randrange(1, 4), rng.randrange(0, 4))
            a = random_size(rng, xs)
            b = random_size(rng, xs)
            if entails(hyps, a, Rel.LE, b) and entails(hyps, b, Rel.LE, a):
                for v in all_valuations(xs):
                    if satisfies(v, xs, hyps):
                        assert val_size(v, a) == val_size(v, b)


class TestStrictIsIrreflexive:
    def test_never_strictly_below_itself(self):
        rng = random.Random(3)
        for _ in range(200):
            xs, hyps = random_ctx(rng, rng.randrange(1, 4), rng.randrange(0, 4))
            a = random_size(rng, xs)
            assert not entails(hyps, a, Rel.LT, a)


class TestSharedSnapshots:
    """Every binding writes its hypothesis to one map, shared by the whole
    program: every context kept along a branching sequence of bindings,
    including the hypotheses bound in its sibling branches after it was
    taken, answers through that map as a context that copies itself on
    each binding."""

    def test_snapshots_answer_as_copying_contexts(self):
        rng = random.Random(28)
        shared: dict = {}
        foreign = 0  # contexts that the map holds another branch's hypotheses for
        for _ in range(300):
            shared.clear()
            kept = [ListSizeCtx()]
            for _ in range(rng.randrange(1, 16)):
                # often the latest context, or one kept before it: a branch
                ref = kept[-1] if rng.random() < 0.5 else rng.choice(kept)
                x = fresh_ident(f"v{len(shared)}")
                scope = ref.variables
                if rng.random() < 0.4:
                    kept.append(ref.declare(x))
                    continue
                parent = INFTY_SIZE
                if scope and rng.random() < 0.85:
                    parent = ns_var(rng.choice(scope), rng.randrange(0, 3))
                    if rng.random() < 0.2:
                        parent = ns_max(parent, ns_var(rng.choice(scope)))
                strict = rng.random() < 0.8
                shared[x.uid] = (parent, strict)
                kept.append(ref.add(x, parent, strict))
            for ref in kept:
                scratch, xs = ref.hyps, ref.variables
                foreign += len(shared) > len(scratch)
                for x in xs:
                    assert ([shared[x.uid]] if x.uid in shared else []) == ref.out_edges(x)
                for _ in range(6):
                    a = ns_var(rng.choice(xs), rng.randrange(0, 3)) if xs else INFTY_SIZE
                    b = ns_var(rng.choice(xs), rng.randrange(0, 3)) if xs else INFTY_SIZE
                    rel = Rel.LT if rng.random() < 0.4 else Rel.LE
                    assert (entails(shared, a, rel, b)
                            == entails(scratch, a, rel, b)), (ref.edges, a, rel, b)
        # the map often holds hypotheses that a kept context does not see
        assert foreign > 100, foreign


@st.composite
def hole_problems(draw):
    """Up to 3 size variables, each declared or below an earlier one (strict
    or not, offsets 0-3), and 1-5 max-free constraints on up to 4 holes,
    each side a variable, a hole or # plus 0-3."""
    xs, hyps = [], {}
    for k in range(draw(st.integers(0, 3))):
        x = fresh_ident(f"v{k}")
        if xs and draw(st.booleans()):
            parent = ns_var(draw(st.sampled_from(xs)), draw(st.integers(0, 3)))
            hyps[x.uid] = (parent, draw(st.booleans()))
        xs.append(x)
    bases = xs + list(range(1, draw(st.integers(1, 4)) + 1)) + [INFTY]
    side = st.tuples(st.sampled_from(bases), st.integers(0, 3)).map(
        lambda p: INFTY_SIZE if p[0] is INFTY else (p,)
    )
    rel = st.sampled_from([Rel.LE, Rel.LE, Rel.LE, Rel.LT])
    constraints = draw(st.lists(st.builds(SizeConstraint, side, rel, side), min_size=1, max_size=5))
    return xs, hyps, constraints


def _needs_subtraction(constraints) -> bool:
    """A lower bound on a hole that sits below a base: s + n <= ?m + k with
    n (plus 1 if strict) under k and s not #."""
    return any(
        b is not INFTY and n + (c.rel is Rel.LT) < c.rhs[0][1]
        for c in constraints if type(c.rhs[0][0]) is int
        for b, n in c.lhs
    )


def _bounds_cycle(constraints) -> bool:
    """A hole reaches itself through lower bounds: ?a ... <= ?b ... makes ?b
    need ?a."""
    needs: dict = {}
    for c in constraints:
        (rb, _), (lb, _) = c.rhs[0], c.lhs[0]
        if type(rb) is int and type(lb) is int:
            needs.setdefault(rb, set()).add(lb)

    def reaches(a, b, seen) -> bool:
        return any(d == b or (d not in seen and reaches(d, b, seen | {d}))
                   for d in needs.get(a, ()))

    return any(reaches(m, m, {m}) for m in needs)


class TestSolverOracle:
    """`solve_metas` against `oracle.hole_solutions`: what it returns
    satisfies every constraint and is at most every candidate solution at
    every valuation, and it rejects only what has no candidate solution, or
    what needs one of its two named limits (no subtraction below a base, no
    cycle of holes)."""

    @settings(max_examples=300, deadline=None)
    @given(hole_problems())
    def test_least_solution_or_no_candidate(self, problem):
        xs, hyps, constraints = problem
        mids = set().union(*(c.metas() for c in constraints))
        found = hole_solutions(xs, hyps, constraints, mids)
        try:
            sol = solve_metas(constraints, hyps, mids)
        except Unsolvable as e:
            if found:
                msg = str(e)
                assert (msg.startswith("size hole would need") and _needs_subtraction(constraints)
                        or msg.startswith("cyclic") and _bounds_cycle(constraints)), (msg, found[0])
            return
        vals = list(satisfying_valuations(xs, hyps))
        for c in constraints:
            lhs, rhs = apply_solution(c.lhs, sol), apply_solution(c.rhs, sol)
            assert entails(hyps, lhs, c.rel, rhs), (c, sol)
            assert all(holds(v, lhs, c.rel, rhs) for v in vals), (c, sol)
        for other in found:
            for m in mids:
                assert all(val_size(v, sol[m]) <= val_size(v, other[m]) for v in vals), (m, sol, other)
