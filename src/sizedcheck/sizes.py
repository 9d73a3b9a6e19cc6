"""Size algebra: canonical forms for size expressions, entailment of size
inequalities under the program's size hypotheses, and solving of size holes.

A size has one form from parser to printer: a tuple of (base, successors)
pairs read as their max, where a base is a variable (an `Ident`), a hole (its
int id) or `INFTY`.  As the parser writes it, the pairs are in source order
and may repeat a base; `normalize` reads them under an environment and the
table of solved holes.  A normal form is such a tuple with distinct bases in
one fixed order, `_pair_key`'s, chosen where the form is built, so no reader
sorts it again; a one-pair size that stands for itself is its own normal form.

A size hypothesis comes only from a size pattern `(i > j)` or a size case's
`$ j`: it is a fact about the freshly bound child, j < i.  So it is stored
once per binder, in one program-wide map from the child's uid to (parent
size, strict), `Signature.hyps`, which `entails` and `solve_metas` read.  A
parent is bound before its child, so a walk up from a variable meets only
variables bound before it, and the one map answers every query as the
hypotheses in scope would; a variable has at most one hypothesis, and the
strict edges are acyclic.  A hole may be solved only by variables bound
where it is written, which the checker tests once the hole is solved.

`solve_metas` solves a clause's holes in dependency order by a depth-first
walk whose path is a flat stack of (hole id, index of its next lower bound)
ints, so a hole on the path costs no iterator, frame or set."""

from __future__ import annotations

from enum import Enum
from functools import reduce

from .syntax import Ident, Record

MAX_OFFSET = 1 << 16


class _Infty:
    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "#"


INFTY = _Infty()


_set = object.__setattr__


class _Frozen(Record):
    """A record whose fields are set once, by its `__init__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {type(self).__name__}.{name}")


# A base is an Ident, a hole's int id, or INFTY.  A normal form is a non-empty
# tuple of (base, offset) pairs with distinct bases, read as the maximum of
# base+offset, in `_pair_key` order: variables by uid, then holes by id.
# INFTY absorbs everything and successor chains are folded into offsets, so #
# is always the one pair (INFTY, 0): INFTY_SIZE, the one # of the syntax too.
INFTY_SIZE = ((INFTY, 0),)


def _pair_key(pair):
    b, n = pair
    if b is INFTY:
        return (2, 0, n)
    if type(b) is int:
        return (1, b, n)
    return (0, b.uid, n)


def canonical(pairs) -> tuple:
    """Any iterable of pairs with distinct bases, in `_pair_key` order."""
    return tuple(sorted(pairs, key=_pair_key))


def size_vars(ns: tuple) -> set[Ident]:
    return {b for b, _ in ns if type(b) is Ident}


def metas(ns: tuple) -> set[int]:
    return {b for b, _ in ns if type(b) is int}


def _prune(pairs) -> tuple:
    """The max of pairs whose offsets `normalize` or `bump` have checked."""
    best: dict = {}
    for b, n in pairs:
        if b is INFTY:
            return INFTY_SIZE
        if b not in best or best[b] < n:
            best[b] = n
    if len(best) == 1:
        return tuple(best.items())
    return canonical(best.items())


def ns_var(x: Ident, offset: int = 0) -> tuple:
    return ((x, offset),)


def bump(ns: tuple, n: int) -> tuple:
    """ns + n.  A uniform shift keeps the bases distinct and in order, so
    nothing is pruned or sorted; only the offset bound is checked."""
    if n == 0 or ns[0][0] is INFTY:
        return ns
    shifted = []
    for b, k in ns:
        k += n
        if k > MAX_OFFSET:
            raise OffsetOverflow(f"size offset exceeds {MAX_OFFSET}")
        shifted.append((b, k))
    return tuple(shifted)


def pred(ns: tuple) -> tuple:
    """The size a successor pattern binds at erased sizes: every offset one
    lower, but not below 0, and $ # matches with j = #.  The bases are
    unchanged, so the order is kept."""
    if ns[0][0] is INFTY:
        return ns
    return tuple([(b, max(n - 1, 0)) for b, n in ns])


def ns_max(a: tuple, b: tuple) -> tuple:
    return _prune(a + b)


def normalize(size: tuple, lookup=None, holes: dict[int, tuple] | None = None) -> tuple:
    """The normal form of a size written as a tuple of (base, successors)
    pairs, read as their max, as the parser builds it.  Each pair is read in
    order: a variable as `lookup` maps it (an already-normalized size), or
    as itself; a hole as its solution in `holes` (a normal form that names no
    hole) read under the same lookup, as if the solution were written in
    place of the hole, or as itself while unsolved; `#` as #.  Its
    successors are added with `bump`, and the max is taken over all pairs,
    so a pair past MAX_OFFSET raises even beside a #.  A size of one pair
    that stands for itself is its own normal form, the same tuple."""
    out = []
    for b, n in size:
        if type(b) is Ident:
            val = lookup(b) if lookup is not None else None
        elif b is INFTY:
            val = INFTY_SIZE
        else:
            val = holes.get(b) if holes else None
            if val is not None and lookup is not None and val[0][0] is not INFTY:
                val = normalize(val, lookup)
        if val is None:
            if n > MAX_OFFSET:
                raise OffsetOverflow(f"size offset exceeds {MAX_OFFSET}")
            out.append((b, n))
        else:
            val = bump(val, n)
            out += val
    if len(size) > 1:
        return _prune(out)
    return size if val is None else val


def format_size(ns: tuple, meta_names: dict[int, str] | None = None) -> str:
    def one(b, n: int) -> str:
        if b is INFTY:
            return "#"
        if type(b) is int:
            base = meta_names[b] if meta_names else f"?{b}"
        else:
            base = b.text
        return f"{base}+{n}" if n else base

    parts = [one(b, n) for b, n in ns]
    if len(parts) == 1:
        return parts[0]
    return "max(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Hypotheses and entailment


class OffsetOverflow(Exception):
    __slots__ = ()


class Rel(Enum):
    LE = "<="
    LT = "<"
    EQ = "="  # conversion in Evaluator.compare; entails and constraints take LE or LT


def _best_gain(hyps: dict, x: Ident, y: Ident) -> int | None:
    """Largest g such that the hypotheses prove x + g <= y, or None.  A
    variable has at most one hypothesis, on a parent bound before it, so the
    proof is the one chain of hypotheses up from x."""
    g = 0
    while x.uid != y.uid:
        hyp = hyps.get(x.uid)
        if hyp is None:
            return None
        parent, strict = hyp
        if len(parent) != 1 or type(parent[0][0]) is not Ident:
            # a max-parent gives only disjunctive information, # and a hole none
            return None
        ((x, k),) = parent
        g += (1 if strict else 0) - k
    return g


def _atom_le(hyps: dict, a: tuple, b: tuple) -> bool:
    (xb, n), (yb, m) = a, b
    if xb == yb:
        return n <= m
    if type(xb) is int or type(yb) is int:
        return False
    g = _best_gain(hyps, xb, yb)
    return g is not None and g >= n - m


def entails(hyps: dict, a: tuple, rel: Rel, b: tuple) -> bool:
    """Sound entailment of a <= b or a < b under the hypotheses hyps;
    complete on the max-free fragment.  A max on the left splits into a
    conjunction, a max on the right into a disjunction."""
    if len(a) > 1:
        return all(entails(hyps, (p,), rel, b) for p in a)
    if a[0][0] is INFTY:
        return rel is Rel.LE and b[0][0] is INFTY
    if b[0][0] is INFTY:
        # variables never denote the closure ordinal itself
        return True
    if len(b) > 1:
        return any(entails(hyps, a, rel, (q,)) for q in b)
    ((xa, na),) = a
    if rel is Rel.LT:
        return _atom_le(hyps, (xa, na + 1), b[0])
    return _atom_le(hyps, (xa, na), b[0])


# ---------------------------------------------------------------------------
# Metavariable solving


class SizeConstraint(_Frozen):
    __slots__ = ("lhs", "rel", "rhs")

    def __init__(self, lhs: tuple, rel: Rel, rhs: tuple):
        _set(self, "lhs", lhs)
        _set(self, "rel", rel)
        _set(self, "rhs", rhs)

    def metas(self) -> set[int]:
        return metas(self.lhs) | metas(self.rhs)


class Unsolvable(Exception):
    __slots__ = ()


class Ambiguous(Exception):
    __slots__ = ()


def apply_solution(ns: tuple, sol: dict[int, tuple]) -> tuple:
    """Replace every solved hole in ns by its solution, in one pass; ns
    itself when it mentions no solved hole.  A hole solved as # makes the
    whole of ns #, whatever offsets the other pairs would reach."""
    if len(ns) == 1:
        ((b, n),) = ns
        val = sol.get(b) if type(b) is int else None
        return ns if val is None else bump(val, n)
    out, hits = [], []
    for b, n in ns:
        val = sol.get(b) if type(b) is int else None
        if val is None:
            out.append((b, n))
        elif val[0][0] is INFTY:
            return val
        else:
            hits.append((val, n))
    if not hits:
        return ns
    for val, n in hits:
        out.extend(bump(val, n))
    return _prune(out)


def solve_metas(
    constraints: list[SizeConstraint],
    hyps: dict,
    known_metas: set[int] | None = None,
) -> dict[int, tuple]:
    """First-order solving of the size holes of one clause.

    Lower bounds s <= m+n are shifted into solved form only when the left
    offset covers n (there is no subtraction below a variable); each hole
    takes the least solution consistent with its lower bounds, holes without
    lower bounds fall back to #, and every constraint is re-verified.  Holes
    that need one another through their lower bounds are rejected as a
    cycle, even where # or one shared size would satisfy them.

    Holes are solved once each, in dependency order, by a depth-first walk
    from each unsolved hole in id order.  Every lower bound is one pair, so
    it depends on at most one hole, its base.  The walk keeps the path as a
    flat stack of (hole id, index of its next lower bound to read) ints: the
    top hole reads its bounds from that index to the first whose base is an
    unsolved hole, and walks into it (a hole already on the path is a
    cycle); with none left it is solved, and its bounds are dropped."""
    mids = {b for c in constraints for ns in (c.lhs, c.rhs)
            for b, _ in ns if type(b) is int}
    if known_metas:
        unconstrained = known_metas - mids
        if unconstrained:
            raise Ambiguous(f"size hole ?{min(unconstrained)} has no constraints")

    # lower bounds per hole, in constraint order: one-pair normal forms, the
    # left side itself where the shift leaves it as it is
    lower: dict[int, list[tuple]] = {m: [] for m in mids}
    for c in constraints:
        if len(c.rhs) != 1:
            continue  # meta under a max on the right: disjunctive, defer
        ((rb, rn),) = c.rhs
        if type(rb) is not int:
            continue
        strict = c.rel is Rel.LT
        bounds = lower[rb]
        for lb, ln in c.lhs:
            k = ln + (1 if strict else 0)
            if lb is INFTY:
                bounds.append(INFTY_SIZE)
            elif k < rn:
                raise Unsolvable(
                    f"size hole would need an expression {rn - k} below "
                    f"{format_size(((lb, ln),))}"
                )
            elif k - rn == ln and len(c.lhs) == 1:
                bounds.append(c.lhs)
            else:
                bounds.append(((lb, k - rn),))

    sol: dict[int, tuple] = {}
    for root in sorted(mids):
        if root in sol:
            continue
        stack = [root, 0]
        walking = {root}
        while stack:
            m, at = stack[-2], stack[-1]
            bounds = lower[m]
            while at < len(bounds):
                b = bounds[at][0][0]
                at += 1
                if type(b) is int and b not in sol:
                    if b in walking:
                        raise Unsolvable("cyclic size hole constraints")
                    stack[-1] = at
                    stack += (b, 0)
                    walking.add(b)
                    break
            else:
                del stack[-2:]
                del lower[m]
                walking.discard(m)
                bounds = [apply_solution(b, sol) for b in bounds]
                sol[m] = reduce(ns_max, bounds) if bounds else INFTY_SIZE

    for c in constraints:
        lhs = apply_solution(c.lhs, sol)
        rhs = apply_solution(c.rhs, sol)
        if not entails(hyps, lhs, c.rel, rhs):
            raise Unsolvable(
                f"no size expression fits: needs "
                f"{format_size(lhs)} {c.rel.value} {format_size(rhs)}"
            )
    return sol
