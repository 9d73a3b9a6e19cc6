"""The size operations that build their result once (`bump`, `apply_solution`,
`normalize` of solved holes, `pred`) against the earlier definitions, which
pruned every result and read a solved hole back from a size expression.

The earlier definitions are copied below as the oracle; hypothesis draws
normal forms, solutions, lookups and size expressions (trees of
`tests/oracle.py`, flattened to the parser's pairs for `normalize`), with `#`
and zero offsets among them, and offsets near `MAX_OFFSET`."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import pytest

from sizedcheck.sizes import (
    INFTY,
    INFTY_SIZE,
    MAX_OFFSET,
    OffsetOverflow,
    apply_solution,
    bump,
    canonical,
    normalize,
    ns_max,
    ns_var,
    pred,
)
from sizedcheck.syntax import fresh_ident

from oracle import (
    SInfty,
    SMax,
    SMeta,
    SSucc,
    SVar,
    absorbs_before_shift,
    parse_size,
    size_tree,
    tree_pairs,
)

# -- the oracle: the definitions before sizes were built once -----------------


def old_prune(pairs) -> frozenset:
    best: dict = {}
    for b, n in pairs:
        if b is INFTY:
            return frozenset({(INFTY, 0)})
        if n > MAX_OFFSET:
            raise OffsetOverflow(f"size offset exceeds {MAX_OFFSET}")
        if b not in best or best[b] < n:
            best[b] = n
    return frozenset(best.items())


def old_is_infty(ns: tuple) -> bool:
    return any(b is INFTY for b, _ in ns)


def old_bump(ns: tuple, n: int) -> tuple:
    if old_is_infty(ns):
        return ns
    return canonical(old_prune((b, k + n) for b, k in ns))


def old_ns_max(a: tuple, b: tuple) -> tuple:
    return canonical(old_prune(list(a) + list(b)))


def old_apply_solution(ns: tuple, sol: dict) -> tuple:
    out, hits = [], []
    for b, n in ns:
        val = sol.get(b) if type(b) is int else None
        if val is None:
            out.append((b, n))
        elif old_is_infty(val):
            return val
        else:
            hits.append((val, n))
    if not hits:
        return ns
    for val, n in hits:
        out.extend(old_bump(val, n))
    return canonical(old_prune(out))


def old_normalize(s, lookup=None, holes=None) -> tuple:
    """`holes` maps a solved hole to its solution as a size expression."""
    match s:
        case SVar(name=x):
            if lookup is not None:
                ns = lookup(x)
                if ns is not None:
                    return ns
            return ns_var(x)
        case SSucc(arg=a):
            return old_bump(old_normalize(a, lookup, holes), 1)
        case SInfty():
            return INFTY_SIZE
        case SMax(left=a, right=b):
            return old_ns_max(old_normalize(a, lookup, holes), old_normalize(b, lookup, holes))
        case SMeta(mid=m):
            if holes and m in holes:
                return old_normalize(holes[m], lookup, holes)
            return ((m, 0),)
    raise AssertionError(f"old_normalize: unhandled {s!r}")


def old_size_pred(ns: tuple) -> tuple:
    # the evaluator's successor-pattern binding
    if old_is_infty(ns):
        return ns
    return canonical(frozenset((b, max(n - 1, 0)) for b, n in ns))


def outcome(f, *args):
    """f(*args), or the marker "overflow" when it raises OffsetOverflow."""
    try:
        return f(*args)
    except OffsetOverflow:
        return "overflow"


# -- strategies ---------------------------------------------------------------

VARS = [fresh_ident(t) for t in ("i", "j", "k")]
MIDS = (1, 2, 3)

small = st.integers(0, 3)
offsets = st.one_of(small, st.sampled_from([MAX_OFFSET - 1, MAX_OFFSET]))


def atoms(offset=offsets, metas=True):
    bases = [st.builds(lambda x, n: (x, n), st.sampled_from(VARS), offset),
             st.just((INFTY, 0))]
    if metas:
        bases.append(st.builds(lambda m, n: (m, n), st.sampled_from(MIDS), offset))
    return st.one_of(*bases)


def normal_forms(offset=offsets, metas=True):
    return st.lists(atoms(offset, metas), min_size=1, max_size=4).map(
        lambda pairs: canonical(old_prune(pairs)))


# a solution names no hole, as every hole of a clause is solved at once
solutions = st.dictionaries(st.sampled_from(MIDS), normal_forms(small, metas=False))
lookups = st.dictionaries(st.sampled_from(VARS), normal_forms())


def size_exprs():
    leaves = st.one_of(
        st.builds(SVar, st.sampled_from(VARS)),
        st.just(SInfty()),
        st.builds(SMeta, st.sampled_from(MIDS)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(st.builds(SSucc, inner), st.builds(SMax, inner, inner)),
        max_leaves=6,
    )


SETTINGS = settings(max_examples=200, deadline=None)


# -- equivalence --------------------------------------------------------------


class TestAgreesWithTheOracle:
    @SETTINGS
    @given(normal_forms(), st.one_of(small, st.just(MAX_OFFSET)))
    def test_bump(self, ns, n):
        assert outcome(bump, ns, n) == outcome(old_bump, ns, n)

    @SETTINGS
    @given(normal_forms(), solutions)
    def test_apply_solution(self, ns, sol):
        assert outcome(apply_solution, ns, sol) == outcome(old_apply_solution, ns, sol)

    @SETTINGS
    @given(size_exprs(), st.one_of(st.none(), lookups), solutions)
    def test_normalize_reads_solved_holes_under_a_lookup(self, s, env, sol):
        calls, old_calls = [], []

        def lookup_into(log):
            if env is None:
                return None

            def lookup(x):
                log.append(x)
                return env.get(x)
            return lookup

        holes_as_exprs = {m: size_tree(ns) for m, ns in sol.items()}
        new = outcome(normalize, tree_pairs(s), lookup_into(calls), sol)
        old = outcome(old_normalize, s, lookup_into(old_calls), holes_as_exprs)
        if absorbs_before_shift(s, None if env is None else env.get, sol):
            # the one difference of the pairs (tests/test_size_syntax.py)
            assert (new, old) == ("overflow", INFTY_SIZE)
        else:
            assert new == old
        if new != "overflow":
            # variables are looked up in the same order, so a lookup that
            # forces a thunk forces the same ones first
            assert calls == old_calls

    @SETTINGS
    @given(normal_forms(small))
    def test_pred(self, ns):
        assert pred(ns) == old_size_pred(ns)


class TestEdges:
    i, j = VARS[0], VARS[1]

    def test_solution_variables_are_looked_up_in_printing_order(self):
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    sol = {1: canonical(frozenset(zip(VARS, (a, b, c))))}
                    order = []
                    normalize(((1, 0),), lambda x: order.append(x), sol)
                    assert order == VARS

    def test_infty_absorbs(self):
        assert bump(INFTY_SIZE, 5) == INFTY_SIZE
        both = ns_max(((1, 2),), ns_var(self.i))
        assert apply_solution(both, {1: INFTY_SIZE}) == INFTY_SIZE
        env = {self.i: INFTY_SIZE}
        assert normalize(((1, 1),), env.get, {1: ns_var(self.i, 2)}) == INFTY_SIZE
        assert pred(INFTY_SIZE) == INFTY_SIZE

    def test_zero_shift_is_the_size_itself(self):
        ns = ns_max(ns_var(self.i, 1), ns_var(self.j))
        assert bump(ns, 0) is ns
        assert apply_solution(((1, 0),), {1: ns}) == ns

    def test_unsolved_holes_stay(self):
        ns = ns_max(((1, 2),), ns_var(self.i))
        assert apply_solution(ns, {2: ns_var(self.j)}) is ns
        assert normalize(((1, 0),), None, {2: ns_var(self.j)}) == ((1, 0),)

    def test_overflow_past_max_offset_only(self):
        assert bump(ns_var(self.i, MAX_OFFSET - 1), 1) == ns_var(self.i, MAX_OFFSET)
        with pytest.raises(OffsetOverflow):
            bump(ns_var(self.i, MAX_OFFSET), 1)
        # in a max, any pair past the bound overflows
        with pytest.raises(OffsetOverflow):
            bump(ns_max(ns_var(self.i, MAX_OFFSET), ns_var(self.j)), 1)
        assert apply_solution(((1, MAX_OFFSET),), {1: ns_var(self.i)}) == ns_var(
            self.i, MAX_OFFSET)
        with pytest.raises(OffsetOverflow):
            apply_solution(((1, MAX_OFFSET),), {1: ns_var(self.i, 1)})

    def test_successor_chain_overflows_past_max_offset_only(self):
        # the parser reads a chain this long in a loop, as one pair
        s, bound = parse_size("$ " * MAX_OFFSET + "i", ["i"])
        i = bound["i"]
        assert s == ((i, MAX_OFFSET),)
        assert normalize(s) == ns_var(i, MAX_OFFSET)
        past, bound = parse_size("$ " * (MAX_OFFSET + 1) + "i", ["i"])
        with pytest.raises(OffsetOverflow):
            normalize(past)
        assert normalize(past, {bound["i"]: INFTY_SIZE}.get) == INFTY_SIZE
