"""A size has one form from parser to printer: the tuple of (base,
successors) pairs whose max it is.

The differential test draws a size as a tree of `tests/oracle.py` (variables,
`$`, `#`, `max`, solved and unsolved holes), a lookup and a table of solved
holes, with offsets near `MAX_OFFSET` among their values.  It prints the tree
as source and parses it inside a `let`, so the parser's flattening is what is
tested, and requires `sizes.normalize` of the parsed pairs to equal the
recursive tree normalizer, or both to overflow.  The one expected difference
is pinned: under a `$` over a `max` that holds `#`, the tree absorbs the `#`
before the shift, while the pairs shift every base, and a pair pushed past
65536 raises (LIMIT in a program)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import pytest

from sizedcheck.parser import parse_source
from sizedcheck.pretty import pretty_program
from sizedcheck.sizes import (
    INFTY,
    INFTY_SIZE,
    MAX_OFFSET,
    OffsetOverflow,
    canonical,
    normalize,
    ns_var,
)
from sizedcheck.syntax import Ident, fresh_ident

from conftest import SNAT_PARAMETRIC, ok, rejected
from oracle import (
    SInfty,
    SMax,
    SMeta,
    SSucc,
    SVar,
    absorbs_before_shift,
    parse_size,
    tree_normalize,
    tree_pairs,
    tree_source,
)

VARS = [fresh_ident(t) for t in ("i", "j", "k")]
# what the lookup and the solutions name besides the source's variables
OUTER = [fresh_ident(t) for t in ("z", "w")]
MIDS = (1, 2, 3)

offsets = st.one_of(st.integers(0, 3), st.sampled_from([MAX_OFFSET - 2, MAX_OFFSET - 1,
                                                        MAX_OFFSET]))


def _normal_forms(bases):
    pair = st.tuples(st.sampled_from(bases), offsets)
    return st.one_of(
        st.just(INFTY_SIZE),
        st.lists(pair, min_size=1, max_size=3).map(_max_of),
    )


def _max_of(pairs) -> tuple:
    best: dict = {}
    for b, n in pairs:
        best[b] = max(n, best.get(b, 0))
    return canonical(best.items())


def trees():
    leaves = st.one_of(
        st.builds(SVar, st.sampled_from(VARS)),
        st.just(SInfty()),
        st.builds(SMeta, st.sampled_from(MIDS)),
    )
    # a `$` over a `max` is drawn as often as each alone: it is where the
    # pairs and the tree part
    return st.recursive(
        leaves,
        lambda inner: st.one_of(st.builds(SSucc, inner), st.builds(SMax, inner, inner),
                                st.builds(lambda a, b: SSucc(SMax(a, b)), inner, inner)),
        max_leaves=8,
    )


# a lookup reads a source variable by its text: the parser binds its own
lookups = st.dictionaries(st.sampled_from("ijk"), _normal_forms(OUTER))
# a solution names no hole, and may name the source's variables
solutions = st.dictionaries(st.sampled_from(MIDS), _normal_forms(VARS + OUTER))


def _numbered(tree, sol: dict) -> tuple[object, dict]:
    """The tree with its holes numbered in source order, as the parser
    numbers them, and the solutions under the new numbers: two holes of one
    drawn number get one solution."""
    holes: dict = {}

    def walk(s):
        match s:
            case SMeta(mid=m):
                k = len(holes) + 1
                holes[k] = sol.get(m)
                return SMeta(k)
            case SSucc(arg=a):
                return SSucc(walk(a))
            case SMax(left=a, right=b):
                left = walk(a)  # the left hole is numbered first
                return SMax(left, walk(b))
        return s

    out = walk(tree)
    return out, {k: v for k, v in holes.items() if v is not None}


def _shown(pairs: tuple) -> list:
    """A pair tuple with each variable shown by its text, so the parser's
    variables and the tree's compare."""
    return [(b.text if isinstance(b, Ident) else repr(b), n) for b, n in pairs]


def _outcome(f, *args):
    """f's normal form, shown and sorted: the parser's variables and the
    tree's have their own uids, and so their own canonical order."""
    try:
        return sorted(_shown(f(*args)))
    except OffsetOverflow:
        return "overflow"


@settings(max_examples=300, deadline=None)
@given(trees(), st.one_of(st.none(), lookups), solutions)
def test_parsed_pairs_normalize_as_the_tree(tree, env, sol):
    tree, holes = _numbered(tree, sol)
    pairs, bound = parse_size(tree_source(tree))
    # the parser's flattening: the pairs in source order, each shifted by
    # the successors above it
    assert _shown(pairs) == _shown(tree_pairs(tree))
    lookup = None if env is None else (lambda x: env.get(x.text))
    # a solution that names i names the parser's i
    parsed_holes = {m: ns if ns == INFTY_SIZE else
                    canonical((bound.get(b.text, b), n) for b, n in ns)
                    for m, ns in holes.items()}
    got = _outcome(normalize, pairs, lookup, parsed_holes)
    want = _outcome(tree_normalize, tree, lookup, holes)
    if absorbs_before_shift(tree, lookup, holes):
        assert (got, want) == ("overflow", _shown(INFTY_SIZE))
    else:
        assert got == want


class TestTheOneDifference:
    i, j, z = VARS[0], VARS[1], OUTER[0]

    @pytest.mark.parametrize("tree, env", [
        (SSucc(SMax(SVar(i), SInfty())), {"i": MAX_OFFSET}),
        (SSucc(SSucc(SMax(SMax(SVar(j), SInfty()), SVar(i)))), {"i": MAX_OFFSET - 1}),
        (SSucc(SMax(SVar(i), SVar(j))), {"i": MAX_OFFSET, "j": None}),
        (SSucc(SMax(SVar(i), SMeta(1))), {"i": MAX_OFFSET}),
    ], ids=["written #", "nested", "a variable read as #", "a hole solved as #"])
    def test_a_shift_over_a_max_that_holds_infinity(self, tree, env):
        val = {x: INFTY_SIZE if n is None else ns_var(self.z, n) for x, n in env.items()}
        lookup = lambda x: val.get(x.text)  # noqa: E731
        holes = {1: INFTY_SIZE}
        pairs, _ = parse_size(tree_source(tree))
        with pytest.raises(OffsetOverflow):
            normalize(pairs, lookup, holes)
        # the tree absorbs the # first
        assert tree_normalize(tree, lookup, holes) == INFTY_SIZE
        assert absorbs_before_shift(tree, lookup, holes)

    def test_in_a_program_it_is_limit(self):
        d = "$ " * (MAX_OFFSET + 1)
        decl = "let f : [i : Size] -> SNat ({d}{s}) -> SNat # = \\ i -> \\ n -> n\n"
        # the tree read both as #; the pairs push i past the bound
        diag = rejected(SNAT_PARAMETRIC + decl.format(d=d, s="(max i #)"), "LIMIT")
        assert (diag.pos, diag.message) == ((6, 1), "size offset exceeds 65536")
        ok(SNAT_PARAMETRIC + decl.format(d=d, s="#"))


class TestOneForm:
    def test_the_parser_builds_pairs(self):
        pairs, bound = parse_size("max ($ i) (max # ($ ($ (max j _))))")
        i, j = bound["i"], bound["j"]
        assert pairs == ((i, 1), (INFTY, 0), (j, 2), (1, 2))

    def test_a_bare_hole_is_its_own_normal_form(self):
        pairs, _ = parse_size("_")
        assert normalize(pairs) is pairs
        assert normalize(pairs, None, {2: INFTY_SIZE}) is pairs

    def test_a_max_prints_folded_to_the_left(self):
        src = "let t : (i : Size) -> (j : Size) -> Size = \\ i -> \\ j -> "
        for text, shown in [
            ("max i (max j #)", "max (max i j) #"),
            ("$ (max i ($ j))", "max ($ i) ($ ($ j))"),
            ("max ($ _) i", "max ($ _) i"),
            ("$ ($ i)", "$ ($ i)"),
        ]:
            printed = pretty_program(parse_source(src + text))
            assert printed.endswith(f"\\ i -> \\ j -> {shown}\n")
