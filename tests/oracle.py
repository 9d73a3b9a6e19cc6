"""Independent oracles for the test suite.

Sizes are valued in the linear order 0 < 1 < ... < omega < omega+1 < ... < top,
where top is the closure ordinal #: successor is absorbed at top only, and
size variables range over {0..6, omega}.  Streams get a tiny lazy-list
implementation mirroring the paper equations.  Two substitutions that only
the property tests use, on size expressions and on normal forms, live here
too."""

from __future__ import annotations

import itertools
from functools import reduce

from sizedcheck.sizes import INFTY, NormalSize, Rel, SizeCtx, bump, ns_max, ns_var
from sizedcheck.syntax import Ident, SizeExpr, SMax, SSucc, SVar

FIN, OM, TOP = 0, 1, 2
VAR_RANGE = [(FIN, k) for k in range(7)] + [(OM, 0)]


def val_atom(valuation, base, offset):
    if base is INFTY:
        return (TOP, 0)
    tier, k = valuation[base]
    if tier == TOP:
        return (TOP, 0)
    return (tier, k + offset)


def val_size(valuation, ns: NormalSize):
    return max(val_atom(valuation, b, n) for b, n in ns.pairs)


def holds(valuation, a: NormalSize, rel: Rel, b: NormalSize) -> bool:
    va, vb = val_size(valuation, a), val_size(valuation, b)
    if rel is Rel.LE:
        return va <= vb
    if rel is Rel.LT:
        return va < vb
    return va == vb


def satisfies(valuation, ctx: SizeCtx) -> bool:
    for child, parent, strict in ctx.edges:
        rel = Rel.LT if strict else Rel.LE
        if not holds(valuation, ns_var(child), rel, parent):
            return False
    return True


def all_valuations(ctx: SizeCtx):
    vs = sorted(ctx.scope, key=lambda x: x.uid)
    for choice in itertools.product(VAR_RANGE, repeat=len(vs)):
        yield dict(zip(vs, choice))


def satisfying_valuations(ctx: SizeCtx):
    """The valuations of all_valuations(ctx) that satisfy ctx, found without
    enumerating the others: variables are assigned one by one in uid order,
    and each hypothesis edge is checked as soon as its child and its
    parent's variables have values, so a prefix that breaks one is cut off."""
    vs = sorted(ctx.scope, key=lambda x: x.uid)
    index = {x: k for k, x in enumerate(vs)}
    ready: list[list] = [[] for _ in vs]
    for child, parent, strict in ctx.edges:
        k = max(index[x] for x in parent.vars() | {child})
        ready[k].append((ns_var(child), Rel.LT if strict else Rel.LE, parent))
    valuation: dict = {}

    def extend(k: int):
        if k == len(vs):
            yield dict(valuation)
            return
        for choice in VAR_RANGE:
            valuation[vs[k]] = choice
            if all(holds(valuation, c, rel, p) for c, rel, p in ready[k]):
                yield from extend(k + 1)
        del valuation[vs[k]]

    return extend(0)


def semantically_valid(ctx: SizeCtx, a: NormalSize, rel: Rel, b: NormalSize) -> bool:
    return all(holds(v, a, rel, b) for v in satisfying_valuations(ctx))


def subst_size(s: SizeExpr, x: Ident, r: SizeExpr) -> SizeExpr:
    """s with the size variable x replaced by r."""
    match s:
        case SVar(y):
            return r if y == x else s
        case SSucc(a):
            return SSucc(subst_size(a, x, r))
        case SMax(a, b):
            return SMax(subst_size(a, x, r), subst_size(b, x, r))
        case _:
            return s


def subst_base(ns: NormalSize, base, repl: NormalSize) -> NormalSize:
    """ns with each pair on base replaced by repl, bumped by the pair's offset."""
    parts = [
        bump(repl, n) if b == base else NormalSize(frozenset({(b, n)})) for b, n in ns.pairs
    ]
    return reduce(ns_max, parts)


# -- lazy streams for the ham and fib expectations ---------------------------


class LazyStream:
    def __init__(self, head, tail_fn):
        self.head = head
        self._tail_fn = tail_fn
        self._tail = None

    @property
    def tail(self) -> "LazyStream":
        if self._tail is None:
            self._tail = self._tail_fn()
        return self._tail

    def take(self, n: int) -> list:
        out, s = [], self
        for _ in range(n):
            out.append(s.head)
            s = s.tail
        return out


def smap(f, xs: LazyStream) -> LazyStream:
    return LazyStream(f(xs.head), lambda: smap(f, xs.tail))


def merge(xs: LazyStream, ys: LazyStream) -> LazyStream:
    # the paper's merge: leq-guided, duplicates preserved
    if xs.head <= ys.head:
        return LazyStream(xs.head, lambda: merge(xs.tail, ys))
    return LazyStream(ys.head, lambda: merge(xs, ys.tail))


def adds(xs: LazyStream, ys: LazyStream) -> LazyStream:
    return LazyStream(xs.head + ys.head, lambda: adds(xs.tail, ys.tail))


def ham_stream() -> LazyStream:
    s = LazyStream(1, lambda: merge(smap(lambda x: 2 * x, s), smap(lambda x: 3 * x, s)))
    return s


def fib_stream() -> LazyStream:
    s = LazyStream(0, lambda: adds(LazyStream(1, lambda: s), s))
    return s


def numeral_text(n: int, sized: bool = False) -> str:
    """The readback text of a natural number value."""
    if n == 0:
        return "zero _" if sized else "zero"
    inner = numeral_text(n - 1, sized)
    return f"succ _ ({inner})" if sized else f"succ ({inner})"
