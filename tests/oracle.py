"""Independent oracles for the test suite.

Sizes are valued in the linear order 0 < 1 < ... < omega < omega+1 < ... < top,
where top is the closure ordinal #: successor is absorbed at top only, and
size variables range over {0..6, omega}.  Streams get a tiny lazy-list
implementation mirroring the paper equations.  Two substitutions that only
the property tests use, on size expressions and on normal forms, live here
too, and so does `ListSizeCtx`, a size context that copies itself on every
binding: the reference for the one program-wide map of size hypotheses,
`Signature.hyps`, which every binding writes to.  The valuation model takes
the size variables as an explicit list and their hypotheses as such a map,
child uid -> (parent size, strict); `hole_solutions` is the brute-force
reference for `sizes.solve_metas`.

Size expressions as trees (`SVar`, `SSucc`, `SInfty`, `SMax`, `SMeta`) and
their recursive normalizer, `tree_normalize`, are the reference for
`sizes.normalize`, which reads the flat tuple of (base, successors) pairs the
parser builds; `tree_pairs` flattens a tree as the parser does, and
`tree_source` prints one as source."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from sizedcheck.sizes import (
    INFTY,
    INFTY_SIZE,
    OffsetOverflow,
    Rel,
    bump,
    ns_max,
    ns_var,
    size_vars,
)
from sizedcheck.parser import parse_source
from sizedcheck.syntax import Ident, Lam, Var

FIN, OM, TOP = 0, 1, 2
VAR_RANGE = [(FIN, k) for k in range(7)] + [(OM, 0)]


def val_atom(valuation, base, offset):
    if base is INFTY:
        return (TOP, 0)
    tier, k = valuation[base]
    if tier == TOP:
        return (TOP, 0)
    return (tier, k + offset)


def val_size(valuation, ns: tuple):
    return max(val_atom(valuation, b, n) for b, n in ns)


def holds(valuation, a: tuple, rel: Rel, b: tuple) -> bool:
    va, vb = val_size(valuation, a), val_size(valuation, b)
    if rel is Rel.LE:
        return va <= vb
    if rel is Rel.LT:
        return va < vb
    return va == vb


def edges(xs, hyps: dict) -> list:
    """(child, parent, strict) for each variable of xs that hyps bounds."""
    return [(x, *hyps[x.uid]) for x in xs if x.uid in hyps]


def satisfies(valuation, xs, hyps: dict) -> bool:
    for child, parent, strict in edges(xs, hyps):
        rel = Rel.LT if strict else Rel.LE
        if not holds(valuation, ns_var(child), rel, parent):
            return False
    return True


def all_valuations(xs):
    vs = sorted(xs, key=lambda x: x.uid)
    for choice in itertools.product(VAR_RANGE, repeat=len(vs)):
        yield dict(zip(vs, choice))


def satisfying_valuations(xs, hyps: dict):
    """The valuations of all_valuations(xs) that satisfy the hypotheses hyps
    holds on xs, found without enumerating the others: variables are
    assigned one by one in uid order, and each hypothesis edge is checked as
    soon as its child and its parent's variables have values, so a prefix
    that breaks one is cut off."""
    vs = sorted(xs, key=lambda x: x.uid)
    index = {x: k for k, x in enumerate(vs)}
    ready: list[list] = [[] for _ in vs]
    for child, parent, strict in edges(vs, hyps):
        k = max(index[x] for x in size_vars(parent) | {child})
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


def semantically_valid(xs, hyps: dict, a: tuple, rel: Rel, b: tuple) -> bool:
    return all(holds(v, a, rel, b) for v in satisfying_valuations(xs, hyps))


class ListSizeCtx:
    """A size context as a tuple of variables, in binding order, and a tuple
    of (child, parent, strict) hypotheses, each binding making a new one,
    with `out_edges` a scan of the hypotheses: the reference for the one
    program-wide map of hypotheses.  A variable is bound once, and a parent
    only in a context that binds its variables, as in a checked program."""

    def __init__(self, variables: tuple = (), edges: tuple = ()):
        self.variables = variables
        self.edges = edges

    def declare(self, x: Ident) -> "ListSizeCtx":
        assert x not in self.variables
        return ListSizeCtx(self.variables + (x,), self.edges)

    def add(self, child: Ident, parent: tuple, strict: bool) -> "ListSizeCtx":
        assert child not in self.variables and size_vars(parent) <= set(self.variables)
        return ListSizeCtx(self.variables + (child,), self.edges + ((child, parent, strict),))

    def out_edges(self, x: Ident) -> list:
        return [(p, s) for c, p, s in self.edges if c == x]

    @property
    def hyps(self) -> dict:
        """A map of this context's own hypotheses, built from nothing."""
        return {c.uid: (p, s) for c, p, s in self.edges}


def hole_solutions(xs, hyps: dict, constraints: list, mids: set[int]) -> list[dict]:
    """Every assignment of candidate sizes to the holes `mids` under which
    each of the max-free `constraints` holds at every valuation of the
    variables xs that satisfies hyps: the brute-force reference for
    `sizes.solve_metas`.  A candidate is a variable of xs plus an offset up
    to one past the largest offset in the constraints, or #.  A hole that is the right side of no
    constraint has no lower bound, and the solver's fallback makes it #, so
    # is its only candidate.

    The holes are assigned in id order, and each constraint is checked as
    soon as the holes it names have values; a check compares the two sides'
    values at every valuation, kept per (base, offset) pair."""
    vals = list(satisfying_valuations(xs, hyps))
    top = max((n for c in constraints for ns in (c.lhs, c.rhs) for _, n in ns), default=0)
    free = [ns_var(x, n) for x in sorted(xs, key=lambda x: x.uid) for n in range(top + 2)]
    bounded = {b for c in constraints for b, _ in c.rhs if type(b) is int}
    order = sorted(mids)
    domains = [free + [INFTY_SIZE] if m in bounded else [INFTY_SIZE] for m in order]
    # ready[k]: the constraints whose holes are all among the first k
    ready: list[list] = [[] for _ in range(len(order) + 1)]
    for c in constraints:
        ready[max((order.index(m) + 1 for m in c.metas()), default=0)].append(c)
    vectors: dict = {}

    def side(ns: tuple, s: dict) -> tuple:
        ((b, n),) = ns
        if type(b) is int:
            ((b, k),) = s[b]
            n += k
        if (b, n) not in vectors:
            vectors[b, n] = tuple(val_atom(v, b, n) for v in vals)
        return vectors[b, n]

    def valid(c, s: dict) -> bool:
        a, b = side(c.lhs, s), side(c.rhs, s)
        if c.rel is Rel.LT:
            return all(x < y for x, y in zip(a, b))
        return all(x <= y for x, y in zip(a, b))

    found: list[dict] = []
    assignment: dict = {}

    def extend(k: int):
        if not all(valid(c, assignment) for c in ready[k]):
            return
        if k == len(order):
            found.append(dict(assignment))
            return
        for cand in domains[k]:
            assignment[order[k]] = cand
            extend(k + 1)
        del assignment[order[k]]

    extend(0)
    return found


# -- size expressions as trees: the reference for sizes.normalize -----------


@dataclass(frozen=True)
class SVar:
    """Size variable: i"""

    name: Ident


@dataclass(frozen=True)
class SSucc:
    """Successor: $ s"""

    arg: object


@dataclass(frozen=True)
class SInfty:
    """Infinity: #"""


@dataclass(frozen=True)
class SMax:
    """Binary maximum: max s t"""

    left: object
    right: object


@dataclass(frozen=True)
class SMeta:
    """Size hole: _"""

    mid: int


def tree_normalize(s, lookup=None, holes: dict[int, tuple] | None = None) -> tuple:
    """The normal form of a tree, the recursive way: a max is pruned before
    a successor above it is added, so `$ (max i #)` is # whatever i is.  A
    solved hole is its solution read under the same lookup."""
    match s:
        case SVar(name=x):
            if lookup is not None:
                ns = lookup(x)
                if ns is not None:
                    return ns
            return ns_var(x)
        case SMeta(mid=m):
            sol = holes.get(m) if holes else None
            if sol is None:
                return ((m, 0),)
            if lookup is None or sol == INFTY_SIZE:
                return sol
            out = None
            for b, n in sol:
                val = lookup(b)
                val = bump(ns_var(b) if val is None else val, n)
                out = val if out is None else ns_max(out, val)
            return out
        case SSucc():
            n = 0
            while isinstance(s, SSucc):
                s = s.arg
                n += 1
            return bump(tree_normalize(s, lookup, holes), n)
        case SInfty():
            return INFTY_SIZE
        case SMax(left=a, right=b):
            return ns_max(tree_normalize(a, lookup, holes), tree_normalize(b, lookup, holes))
    raise AssertionError(f"tree_normalize: unhandled {s!r}")


def tree_pairs(s) -> tuple:
    """The parser's form of a tree: its (base, successors) pairs in source
    order, each shifted by the successors above it."""
    match s:
        case SVar(name=x):
            return ((x, 0),)
        case SMeta(mid=m):
            return ((m, 0),)
        case SInfty():
            return ((INFTY, 0),)
        case SSucc(arg=a):
            return tuple((b, n + 1) for b, n in tree_pairs(a))
        case SMax(left=a, right=b):
            return tree_pairs(a) + tree_pairs(b)
    raise AssertionError(s)


def tree_source(s) -> str:
    """A tree as the source text that parses to it: `$ ($ i)`, `max a b`."""
    match s:
        case SVar(name=x):
            return x.text
        case SMeta():
            return "_"
        case SInfty():
            return "#"
        case SSucc(arg=a):
            return f"$ ({tree_source(a)})"
        case SMax(left=a, right=b):
            return f"max ({tree_source(a)}) ({tree_source(b)})"
    raise AssertionError(s)


def parse_size(text: str, names=("i", "j", "k")) -> tuple[tuple, dict[str, Ident]]:
    """The pairs the parser builds for the size `text` where the size
    variables `names` are bound, and those variables by name.  A bare
    variable parses as a `Var`, which the checker reads as its one pair."""
    binders = "".join(f"({x} : Size) -> " for x in names)
    lams = "".join(f"\\ {x} -> " for x in names)
    (decl,) = parse_source(f"let t : {binders}Size = {lams}{text}")
    e, bound = decl.body, {}
    while isinstance(e, Lam):
        bound[e.binder.text] = e.binder
        e = e.body
    return (((e.name, 0),) if isinstance(e, Var) else e.size), bound


def size_tree(ns: tuple):
    """A normal form as a tree: its pairs as a left-folded max of successor
    chains."""
    def atom(b, n):
        e = SInfty() if b is INFTY else SMeta(b) if type(b) is int else SVar(b)
        for _ in range(n):
            e = SSucc(e)
        return e

    return reduce(SMax, [atom(b, n) for b, n in ns])


def push_successors(s):
    """s with every successor moved below the maxes under it, `$ (max a b)`
    to `max ($ a) ($ b)`: the tree whose recursive reading is the reading of
    its pairs."""
    match s:
        case SSucc(arg=a):
            a = push_successors(a)
            if isinstance(a, SMax):
                return SMax(push_successors(SSucc(a.left)), push_successors(SSucc(a.right)))
            return SSucc(a)
        case SMax(left=a, right=b):
            return SMax(push_successors(a), push_successors(b))
    return s


def absorbs_before_shift(s, lookup=None, holes=None) -> bool:
    """The one place where the pairs of s and its tree disagree: a `$` over
    a `max` that holds # (written, or a variable or solved hole that reads as
    #).  The tree absorbs the # before the shift, so it reads as #, while the
    pairs shift every base first, and one is pushed past MAX_OFFSET."""
    try:
        tree_normalize(push_successors(s), lookup, holes)
        return False
    except OffsetOverflow:
        pass
    try:
        return tree_normalize(s, lookup, holes) == INFTY_SIZE
    except OffsetOverflow:
        return False


def subst_size(s, x: Ident, r):
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


def subst_base(ns: tuple, base, repl: tuple) -> tuple:
    """ns with each pair on base replaced by repl, bumped by the pair's offset."""
    parts = [bump(repl, n) if b == base else ((b, n),) for b, n in ns]
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
