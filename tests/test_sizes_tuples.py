"""The representation of a size normal form: a tuple of (base, offset) pairs
with distinct bases in `_pair_key` order (variables by uid, then holes by
id), `#` only as the lone pair (INFTY, 0), equal to and hashed like the same
pairs given to `canonical` in any order.

Hypothesis draws size expressions (trees of `tests/oracle.py`, given to
`normalize` as the parser's pairs), lookups and solutions; the inputs of the
operations are themselves results of `normalize`, so each result checked
here was built by the module's own constructors."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from sizedcheck.sizes import (
    INFTY,
    OffsetOverflow,
    _pair_key,
    apply_solution,
    bump,
    canonical,
    normalize,
    ns_max,
    ns_var,
    pred,
)

from oracle import tree_pairs
from test_sizes_equivalence import MIDS, VARS, lookups, offsets, size_exprs, solutions

SETTINGS = settings(max_examples=200, deadline=None)


def well_formed(pairs: tuple) -> None:
    assert type(pairs) is tuple and pairs
    assert list(pairs) == sorted(pairs, key=_pair_key)
    assert len({b for b, _ in pairs}) == len(pairs)
    if any(b is INFTY for b, _ in pairs):
        assert pairs == ((INFTY, 0),)
    for other in (canonical(frozenset(pairs)), canonical(reversed(pairs))):
        assert pairs == other and hash(pairs) == hash(other)


def check(f, *args) -> None:
    """f(*args) is well formed, unless it overflows."""
    try:
        ns = f(*args)
    except OffsetOverflow:
        return
    well_formed(ns)


def read(s, env=None, sol=None) -> tuple | None:
    try:
        return normalize(tree_pairs(s), None if env is None else env.get, sol)
    except OffsetOverflow:
        return None


class TestEveryResultIsOrdered:
    @SETTINGS
    @given(size_exprs(), st.one_of(st.none(), lookups), solutions)
    def test_normalize(self, s, env, sol):
        check(normalize, tree_pairs(s), None if env is None else env.get, sol)

    @SETTINGS
    @given(st.sampled_from(VARS), st.sampled_from(MIDS), offsets)
    def test_leaves(self, x, m, n):
        check(ns_var, x, n)
        check(normalize, ((m, n),))

    @SETTINGS
    @given(size_exprs(), st.one_of(st.none(), lookups), offsets)
    def test_bump_and_pred(self, s, env, n):
        ns = read(s, env)
        if ns is not None:
            check(bump, ns, n)
            check(pred, ns)

    @SETTINGS
    @given(size_exprs(), size_exprs(), st.one_of(st.none(), lookups))
    def test_ns_max(self, a, b, env):
        na, nb = read(a, env), read(b, env)
        if na is not None and nb is not None:
            check(ns_max, na, nb)
            check(ns_max, nb, na)

    @SETTINGS
    @given(size_exprs(), solutions)
    def test_apply_solution(self, s, sol):
        ns = read(s)
        if ns is not None:
            check(apply_solution, ns, sol)


def test_public_constructor_orders_any_iterable():
    i, j = VARS[0], VARS[1]
    ns = canonical([(2, 0), (j, 1), (i, 3)])
    assert ns == ((i, 3), (j, 1), (2, 0))
    assert ns == ns_max(ns_max(((2, 0),), ns_var(j, 1)), ns_var(i, 3))
