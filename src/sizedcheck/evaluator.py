"""Weak-head evaluation with erased sizes, runtime pattern matching,
readback, and one comparison for both subtyping and conversion.

Readback is one walk from values to syntax with two modes: `quote` reads
back structurally, for diagnostics and the size-case rule, and
`readback` displays eval output (unfolding, eliding coinductive layers past
the print depth, erasing parametric sizes, costing fuel).  A size value
holds its normal form, which is a tuple of (base, successors) pairs like the
parser's, so it reads back as a `Size` of that same tuple; an erased argument
reads back as `_ERASED`, the hole -1, which no program has.  `eval_size`
normalizes a size's pairs with `sizes.normalize`: a variable as the
environment binds it, and a hole through the signature's table of solved
holes, as its solution read under the same environment, so elaborated
syntax is never rewritten.

Environments are the cells of `values`, which never change: entering a
closure, a size case, a case branch or a clause puts one cell per variable it
binds in front of the environment it extends, which it shares, and `find`
reads a variable at the cost of the distance to its binder.

Unfoldings of defined heads are shared (call-by-need on heads, as Launchbury's
natural semantics shares thunks).  The unfold memo maps a function and the
arguments of its head, `spine[:arity]`, to the value its matching clause
returned.  A size argument is keyed by its normal form, so `fib #` and
`fib ($ #)` share one unfolding, since sizes are erased at run time; every
other argument is keyed by the identity of its thunk.  An argument that is a
bound variable is passed as that variable's own thunk, not wrapped in a new
one, so a call that passes its arguments on (`repeat A a i` in `repeat`'s
clause) meets the memo entry of the same call made before.  Only a clause that
matched and whose right-hand side was evaluated is stored, never a stuck or
unmatched head.  A memo hit unfolds no clause and so costs no fuel.  The memo
serves evaluation and conversion alike and lives as long as the unfold
budget: `reset_budget`, called for every declaration and every eval let,
drops both.

The codomain of an arrow `A -> B` is shared too.  The parser gives such a Pi
no binder, so its codomain cannot mention the argument, and its value
depends only on the closure's environment, which nothing mutates.
`close` evaluates it on the first instantiation and keeps it on the
`Closure`; every later walk of the type (`telescope`, pattern elaboration,
application, subtyping, conversion) gets the same value, with no fresh
variable, and two such codomains are compared with no variable bound.  A
codomain that unfolds definitions therefore pays fuel only on its first
instantiation, whichever declaration makes it.  The same holds for any body
at `#`, the one closed size: sizes are erased, so a type instantiated at `#`
(`ssucc #`, `fib #`) is always the same value, and `close` keeps it in the
same slot; a body at a size variable or at a size with a hole is evaluated
afresh each time.  `telescope` mints no variable for an arrow, whose
codomain could not read it.

Application is one routine, `apply`, which takes a whole spine.  `evaluate`
walks the left spine of `f a1 ... an` in one loop, suspends each argument as a
thunk with its annotation and the position of its own application (a bound
variable as its own thunk, so no chain of wrappers grows), evaluates the head
once and hands the spine over.  An application's position is its
argument's `pos`: the parser's `App.pos` (the offset of the argument's first
token, such as `(`) serves source diagnostics, and elaboration annotates that
node in place.  A constructor, data type or neutral head takes every argument
into one new value, and a lambda binds them one at a time.  A fun gathers
arguments up to its arity and is unfolded once, at the application that
saturates it (STUCK-MATCH is reported there); the arguments left over are
applied to what it unfolds to.  A cofun, a stuck fun and a fun still rigid
keep their whole spine unevaluated.  The leftover arguments of an unfolding
and the eta case of `compare` go through `apply` too, so no spine grows one
argument at a time, and an n-argument call costs one new value and one
unfold attempt, not n of each.

The walks that run once per node (`evaluate`, `_match`, `size_view` and
`_read` here, and the checker's `check`, `infer` and `_infer_atom`) read the
node's exact class once and branch on it with `is` tests, the most frequent
classes first; `sizes.normalize` does the same with the base of each pair.
A `match` over class patterns would make one `isinstance` test per arm that
fails: a `Size` node passed eight of them before its own arm.  Every node
class is a leaf class, so the exact class picks the arm a class pattern would
(`tests/test_dispatch.py` holds both).  Readback, like every walk here,
recurses as deeply as its value nests (`cli.run_deep` gives it the stack).
It builds each tree once, in its final shape: a constructor reads back as
its entry's one `Con` leaf and an erased argument as one shared `_`.

Subtyping and conversion are one walk, `compare`, with a relation: `Rel.LE`
for subtyping, `Rel.EQ` for conversion, which is subtyping at invariant
polarity.  Sizes are compared under the program's size hypotheses, the one
map `Signature.hyps`, which holds each hypothesis once, under the variable
it bounds: a variable that `compare` binds to open two bodies has none, so
the walk carries no context.  Two cases read the relation.  A pair of data
types compares each argument by the variance of its slot, read from
`DataEntry.variances`: a `++` parameter at the relation, an invariant
parameter or index for equality, and, under LE, the size index by
entailment, upwards at POS (data) and downwards at NEG (codata,
`Stream A ($ i) <= Stream A i`).  A pair of
Pi types compares its domains the other way round and its codomains at the
relation.  Every other pair is compared for equality: sizes, universes,
constructors, lambdas, and neutral or defined heads with their spines.
Under LE both sides are put in whnf first, strictly, so an unmatched closed
value raises STUCK-MATCH; two sides that are then one object, a universe or a
data type with no argument, are subtypes at once, since such a type holds no
hole and so adds no constraint.  Under EQ a defined head is unfolded only
when the two sides differ, never strictly, and two sizes a, b are
constrained as a <= b before b <= a, which fixes the order of the
constraint dump."""

from __future__ import annotations

from .diagnostics import Diagnostic
from .signature import DataEntry, FunEntry, LetEntry, Signature
from .sizes import (
    INFTY,
    OffsetOverflow,
    Rel,
    SizeConstraint,
    entails,
    metas,
    normalize,
    ns_var,
    pred,
)
from .syntax import (
    Annot,
    App,
    CaseData,
    CaseSize,
    Con,
    Def,
    Elided,
    Expr,
    Ident,
    Lam,
    NOPOS,
    Pattern,
    PCon,
    PDot,
    Pi,
    Polarity,
    Pos,
    PSizeRel,
    PSucc,
    PVar,
    PWild,
    SetU,
    Size,
    SizeU,
    Var,
    fresh_ident,
)
from .values import (
    Closure,
    Env,
    Spine,
    Thunk,
    Value,
    VCon,
    VData,
    VDef,
    VLam,
    VNe,
    VPi,
    VSET,
    VSet,
    VSize,
    VSIZEU,
    VSizeU,
    find,
)

_NOMATCH = object()
_STUCK = object()
# the hot paths read these on every call or argument; reading an enum member
# through its class costs a descriptor call in CPython 3.11, about ten times a
# global's cost
_LE, _EQ = Rel.LE, Rel.EQ
_COVARIANT, _NEG, _INVARIANT = Polarity.STRICT_POS, Polarity.NEG, Polarity.INVARIANT
_RELEVANT, _PARAMETRIC = Annot.RELEVANT, Annot.PARAMETRIC
# every erased argument of eval output reads back as this one leaf, a hole
# that no program has: the parser numbers holes from 1
_ERASED = Size(((-1, 0),))

DEFAULT_UNFOLD_FUEL = 100_000
DEFAULT_PRINT_DEPTH = 3


class Evaluator:
    __slots__ = ("sig", "unfold_fuel", "print_depth", "print_sizes", "steps", "budget_pos",
                 "unfolded", "read")

    def __init__(
        self,
        sig: Signature,
        unfold_fuel: int = DEFAULT_UNFOLD_FUEL,
        print_depth: int = DEFAULT_PRINT_DEPTH,
        print_sizes: bool = False,
    ):
        self.sig = sig
        self.unfold_fuel = unfold_fuel
        self.print_depth = print_depth
        self.print_sizes = print_sizes
        self.read: set = set()  # the variables one readback has read (see `_read`)
        self.reset_budget()

    # -- budgets ------------------------------------------------------------

    def reset_budget(self, pos: Pos = NOPOS):
        """Start a fresh unfold budget, and a fresh unfold memo, for the
        declaration or eval let at pos; FUEL is reported there."""
        self.steps = 0
        self.budget_pos = pos
        self.unfolded: dict[tuple, Value] = {}

    def _tick(self):
        self.steps += 1
        if self.steps > self.unfold_fuel:
            raise Diagnostic("FUEL", "unfold budget exhausted", self.budget_pos)

    # -- forcing and evaluation ----------------------------------------------

    def force(self, th: Thunk) -> Value:
        if th.value is None:
            th.value = self.evaluate(th.env, th.expr)
            th.env = th.expr = None
        return th.value

    def evaluate(self, env: Env, e: Expr) -> Value:
        t = type(e)
        if t is App:
            # the whole left spine at once; an application's position is its
            # argument's, and a bound variable is passed as its own thunk
            args: Spine = []
            poss: list[Pos] = []
            f = e
            while type(f) is App:
                a = f.arg
                cell = find(env, a.name.uid) if type(a) is Var else None
                args.append((Thunk(env, a) if cell is None else cell[1], f.annot or _RELEVANT))
                poss.append(a.pos)
                f = f.fun
            args.reverse()
            poss.reverse()
            return self.apply(self.evaluate(env, f), args, poss)
        if t is Var:
            cell = find(env, e.name.uid)
            if cell is None:
                return VNe(e.name)
            return self.force(cell[1])
        if t is Def:
            x = e.name
            entry = self.sig[x]
            te = type(entry)
            if te is DataEntry or te is FunEntry:
                return entry.value
            if te is LetEntry:
                if entry.thunk is None:
                    entry.thunk = Thunk(None, entry.body)
                return self.force(entry.thunk)
            raise AssertionError(f"evaluate: bad Def target {x!r}")
        if t is Size:
            return VSize(self.eval_size(env, e.size))
        if t is Con:
            return self.sig[e.name].value
        if t is Pi:
            clo = Closure(env, e.binder, e.codomain)
            return VPi(e.annot, self.evaluate(env, e.domain), clo)
        if t is Lam:
            return VLam(Closure(env, e.binder, e.body))
        if t is SetU:
            return VSET
        if t is SizeU:
            return VSIZEU
        if t is CaseSize:
            # the match is computationally irrelevant; bind the scrutinee
            ns = self.eval_size(env, e.scrut)
            return self.evaluate((e.binder.uid, Thunk.of(VSize(ns)), env), e.branch)
        if t is CaseData:
            pos = e.pos
            th = Thunk.of(self.whnf(self.evaluate(env, e.scrut), pos))
            for pat, body in e.branches:
                r = self._match(pat, th, env, pos)
                if r is _STUCK:
                    raise Diagnostic("STUCK-MATCH", "case on a neutral value", pos)
                if r is not _NOMATCH:
                    return self.evaluate(r, body)
            raise Diagnostic("STUCK-MATCH", "no case branch matches", pos)
        if t is Elided:
            raise Diagnostic("STUCK-MATCH", "cannot evaluate an elided value", e.pos)
        raise AssertionError(f"evaluate: unhandled node {e!r}")

    def eval_size(self, env: Env, s: tuple) -> tuple:
        def lookup(x: Ident):
            cell = find(env, x.uid)
            if cell is None:
                return None
            v = self.force(cell[1])
            ns = self.size_view(v)
            if ns is None:
                raise AssertionError(f"size variable bound to non-size value {v!r}")
            return ns

        return normalize(s, lookup, self.sig.holes)

    def apply(self, fv: Value, args: Spine, poss: list[Pos]) -> Value:
        """fv applied to a whole spine, where poss[k] is the position of the
        application of args[k]: the one place a spine grows (see the module
        docstring).  A fun is unfolded once, at the application that
        saturates it, and its leftover arguments are applied to the result;
        a stuck fun, a cofun and a rigid fun keep the whole spine."""
        k, n = 0, len(args)
        while k < n:
            if isinstance(fv, VLam):
                clo = fv.closure
                fv = self.evaluate((clo.binder.uid, args[k][0], clo.env), clo.body)
                k += 1
                continue
            rest = args[k:] if k else args
            if isinstance(fv, VCon):
                return VCon(fv.con, (*fv.args, *[th for th, _ in rest]))
            if isinstance(fv, VData):
                return VData(fv.name, (*fv.args, *[th for th, _ in rest]))
            if isinstance(fv, VDef):
                f, have = fv.name, fv.spine
                spine = have + rest
                entry = self.sig.fun(f)
                # the arguments up to the saturating application, or to the
                # next one past a stuck head; a fun of arity 0 is unfolded at
                # its first argument
                m = max(entry.arity - len(have), 1)
                if entry.coinductive or m > len(rest):
                    return VDef(f, spine)
                sat = spine if m == len(rest) else spine[: len(have) + m]
                u = self._unfold(VDef(f, sat), poss[k + m - 1])
                if u is None:
                    return VDef(f, spine)
                fv = u
                k += m
                continue
            if isinstance(fv, VNe):
                return VNe(fv.head, fv.spine + rest)
            raise Diagnostic("STUCK-MATCH", "application of a non-function value", poss[k])
        return fv

    def close(self, clo: Closure, v: Value | Thunk | None) -> Value:
        """The body of clo with its binder bound to v, a value or a thunk,
        which is bound as it is and forced only if the body reads it.  A body
        that cannot mention its binder ignores v and is evaluated only once;
        so is a body at the closed size # (see `Closure`)."""
        if clo.binder is None:
            if clo.value is None:
                clo.value = self.evaluate(clo.env, clo.body)
            return clo.value
        if type(v) is VSize and v.size[0][0] is INFTY:
            if clo.value is None:
                clo.value = self.evaluate((clo.binder.uid, Thunk.of(v), clo.env), clo.body)
            return clo.value
        return self.evaluate((clo.binder.uid, v if type(v) is Thunk else Thunk.of(v), clo.env),
                             clo.body)

    def open(self, clo: Closure) -> tuple[Ident | None, Value]:
        """The body of clo under a fresh variable named after its binder, and
        that variable; None for a body that cannot mention its binder."""
        if clo.binder is None:
            return None, self.close(clo, None)
        x = fresh_ident(clo.binder.text)
        return x, self.close(clo, VNe(x))

    def fresh_neutral(self, text: str, domain: Value | None = None) -> Value:
        x = fresh_ident(text)
        if isinstance(domain, VSizeU):
            return VSize(ns_var(x))
        return VNe(x)

    def telescope(
        self, t: Value, limit: int | None = None
    ) -> tuple[list[tuple[Annot, Value, Value]], Value]:
        """Walk the Pi telescope of t, at most `limit` binders deep, binding
        each to a fresh variable; returns (annot, whnf domain, variable) per
        binder and the whnf rest.  An arrow's codomain cannot read its
        argument, so an arrow gets no variable: None stands in its place."""
        binders: list[tuple[Annot, Value, Value | None]] = []
        t = self.whnf(t)
        while isinstance(t, VPi) and len(binders) != limit:
            dom = self.whnf(t.domain)
            clo = t.closure
            x = None if clo.binder is None else self.fresh_neutral(clo.binder.text, dom)
            binders.append((t.annot, dom, x))
            t = self.whnf(self.close(clo, x))
        return binders, t

    # -- definition unfolding -------------------------------------------------

    def _unfold(self, v: VDef, pos: Pos, strict: bool = True) -> Value | None:
        """Try one unfolding of a defined head.  Returns None when the value
        is underapplied or stuck; raises on an unmatched closed value only in
        strict (runtime) mode, and never for a cofun.  Only a successful
        unfolding is kept, in the memo.  A failed match is not cached: the
        head is matched again the next time it is unfolded, which costs no
        fuel and evaluates no thunk twice, since thunks are memoized.
        Arguments past the arity are applied to the result at pos."""
        entry = self.sig.fun(v.name)
        if entry.report is None:
            return None  # rigid while its own clauses are still being checked
        arity = entry.arity
        if len(v.spine) < arity:
            return None
        args = [t for t, _ in v.spine[:arity]]
        key = (v.name, *map(self._memo_key, args))
        out = self.unfolded.get(key)
        if out is None:
            r = self.match_clauses(entry.clauses, args, pos)
            if r is _NOMATCH and strict and not entry.coinductive:
                raise Diagnostic(
                    "STUCK-MATCH", f"no clause of '{v.name.text}' matches", pos
                )
            if r is _STUCK or r is _NOMATCH:
                return None
            env, clause = r
            self._tick()
            out = self.unfolded[key] = self.evaluate(env, clause.rhs)
        if len(v.spine) > arity:
            rest = v.spine[arity:]
            out = self.apply(out, rest, [pos] * len(rest))
        return out

    def _memo_key(self, th: Thunk):
        # a size is erased at run time, so only its normal form matters;
        # evaluating a suspended size expression is pure and cheap
        if th.value is None and isinstance(th.expr, Size):
            self.force(th)
        if isinstance(th.value, VSize):
            return th.value.size
        return th

    def whnf(self, v: Value, pos: Pos = NOPOS) -> Value:
        while isinstance(v, VDef):
            u = self._unfold(v, pos)
            if u is None:
                return v
            v = u
        return v

    # -- pattern matching -----------------------------------------------------

    def match_clauses(self, clauses, args: list[Thunk], pos: Pos = NOPOS):
        """First-match semantics in clause order; dot and wildcard patterns
        never force their argument."""
        for clause in clauses:
            if len(clause.patterns) != len(args):
                continue
            env = None
            for p, a in zip(clause.patterns, args):
                env = self._match(p, a, env, pos)
                if env is _STUCK:
                    return _STUCK
                if env is _NOMATCH:
                    break
            else:
                return env, clause
        return _NOMATCH

    def _match(self, p: Pattern, th: Thunk, env: Env, pos: Pos):
        """env extended by what p binds when th matches p, else _STUCK or
        _NOMATCH."""
        t = type(p)
        if t is PVar:
            return (p.name.uid, th, env)
        if t is PCon:
            v = self.whnf(self.force(th), pos)
            if type(v) is not VCon:
                return _STUCK
            if v.con != p.con:
                return _NOMATCH
            subs, args = p.args, v.args
            if len(subs) != len(args):
                return _STUCK
            for sp, sa in zip(subs, args):
                env = self._match(sp, sa, env, pos)
                if env is _STUCK or env is _NOMATCH:
                    return env
            return env
        if t is PDot or t is PWild:
            return env
        if t is PSucc:
            ns = self.size_view(self.force(th))
            if ns is None:
                return _STUCK
            return (p.child.uid, Thunk.of(VSize(pred(ns))), env)
        if t is PSizeRel:
            return (p.child.uid, th, env)
        raise AssertionError(f"match: unhandled pattern {p!r}")

    # -- readback -------------------------------------------------------------

    def quote(self, v: Value) -> Expr:
        """Full structural readback, without unfolding defined heads; used for
        diagnostics and the size-case rule."""
        self.read.clear()
        return self._read(v, None)

    def readback(self, v: Value) -> Expr:
        """Display readback: inductive values print fully, coinductive values
        are unrolled `print_depth` layers and then elided; erased size
        arguments print as _ unless print_sizes is set."""
        self.read.clear()
        return self._read(v, self.print_depth)

    def _read(self, v: Value, depth: int | None) -> Expr:
        """The one readback walk.  With depth None it is structural: nothing
        is unfolded, elided or erased.  Otherwise it displays: each value is
        put in whnf first, coinductive layers past depth are elided,
        constructor parameters are skipped, parametric arguments print as _
        unless print_sizes is set, and each constructor argument costs fuel.
        Types and sizes always read back structurally.  Every variable read
        goes into `read`, so a relevant Pi binder that its codomain never
        read is dropped, as the parser drops one, and prints as an arrow."""
        if depth is not None:
            v = self.whnf(v, self.budget_pos)
        t = type(v)
        if t is VCon:
            centry = self.sig.con(v.con)
            if depth is not None and self.sig.data(centry.data).coinductive:
                if depth <= 0:
                    return Elided()
                depth -= 1
            e = centry.leaf
            args, annots = v.args, centry.annots
            # display skips the parameters; an index loop, since an iterator
            # would stay alive in every level of a value nested in its last argument
            k = 0 if depth is None else centry.n_params
            while k < len(args):
                annot = annots[k] if k < len(annots) else _RELEVANT
                if depth is None:
                    arg = self._read(self.force(args[k]), None)
                elif centry.has_size and k == centry.n_params:
                    arg = (self._erased(args[k], None) if annot is _PARAMETRIC
                           else self._read(self.force(args[k]), None))
                else:
                    self._tick()
                    arg = self._read(self.force(args[k]), depth)
                e = App(e, arg, annot)
                k += 1
            return e
        if t is VNe:
            self.read.add(v.head)
            return self._read_spine(Var(v.head), v.spine, depth)
        if t is VDef:
            return self._read_spine(Def(v.name), v.spine, depth)
        if t is VLam:
            x, body = self.open(v.closure)
            return Lam(x, self._read(body, depth))
        if t is VPi:
            x, body = self.open(v.closure)
            dom, cod = self._read(v.domain, None), self._read(body, None)
            if v.annot is _RELEVANT and x not in self.read:
                x = None
            return Pi(v.annot, x, dom, cod)
        if t is VData:
            return self._read_spine(Def(v.name), [(th, _RELEVANT) for th in v.args], None)
        if t is VSize:
            self.read.update([b for b, _ in v.size])
            return Size(v.size)
        if t is VSet:
            return SetU()
        if t is VSizeU:
            return SizeU()
        raise AssertionError(f"readback: unhandled value {v!r}")

    def _read_spine(self, head: Expr, spine: Spine, depth: int | None) -> Expr:
        for th, annot in spine:
            if depth is not None and annot is _PARAMETRIC:
                arg = self._erased(th, depth)
            else:
                arg = self._read(self.force(th), depth)
            head = App(head, arg, annot)
        return head

    def _erased(self, th: Thunk, depth: int | None) -> Expr:
        """`_`, or under print_sizes the erased argument unless computing it
        passes MAX_OFFSET: a display flag must not turn a verdict into LIMIT."""
        if self.print_sizes:
            try:
                return self._read(self.force(th), depth)
            except OffsetOverflow:
                pass
        return _ERASED

    # -- comparison -----------------------------------------------------------

    def convertible(self, a: Value, b: Value,
                    collector: list[SizeConstraint] | None = None) -> bool:
        return self.compare(a, b, _EQ, collector)

    def size_entails(self, a: tuple, b: tuple, collector: list[SizeConstraint] | None) -> bool:
        """a <= b under the program's size hypotheses, or a constraint on
        collector if a hole occurs."""
        if collector is not None and (metas(a) or metas(b)):
            collector.append(SizeConstraint(a, _LE, b))
            return True
        return entails(self.sig.hyps, a, _LE, b)

    def size_view(self, v: Value) -> tuple | None:
        """The normal form of a size value or of a bare size variable."""
        t = type(v)
        if t is VSize:
            return v.size
        if t is VNe and not v.spine:
            return ns_var(v.head)
        return None

    def compare(self, a: Value, b: Value, rel: Rel, col) -> bool:
        """a <= b for rel LE (subtyping), a = b for rel EQ (conversion), under
        the program's size hypotheses; size constraints on holes go to col.
        A fresh variable, bound to compare two bodies, has no hypothesis, so
        it needs no entry in them.  See the module docstring."""
        if rel is _LE:
            a, b = self.whnf(a), self.whnf(b)
            if a is b:
                # a type that holds no size holds no hole, so it adds no constraint
                t = type(a)
                if t is VData and not a.args or t is VSet or t is VSizeU:
                    return True
        elif a is b:
            return True
        # data and Pi pairs are decided first: the size and unfolding cases
        # below never apply to them
        if isinstance(a, VData) and isinstance(b, VData):
            if a.name != b.name or len(a.args) != len(b.args):
                return False
            variances = self.sig.data(a.name).variances
            for k, (t1, t2) in enumerate(zip(a.args, b.args)):
                v1, v2 = self.force(t1), self.force(t2)
                var = variances[k]
                if var is _COVARIANT:
                    ok = self.compare(v1, v2, rel, col)
                elif rel is _LE and var is not _INVARIANT:
                    # the size index, compared upwards at POS, downwards at NEG
                    lo, hi = self.size_view(v1), self.size_view(v2)
                    if var is _NEG:
                        lo, hi = hi, lo
                    ok = (lo is not None and hi is not None
                          and self.size_entails(lo, hi, col))
                else:
                    ok = self.compare(v1, v2, _EQ, col)
                if not ok:
                    return False
            return True
        if isinstance(a, VPi) and isinstance(b, VPi):
            if a.annot is not b.annot:
                return False
            d1, d2 = (b.domain, a.domain) if rel is _LE else (a.domain, b.domain)
            if not self.compare(d1, d2, rel, col):
                return False
            c1, c2 = a.closure, b.closure
            if c1.binder is None and c2.binder is None:
                return self.compare(self.close(c1, None), self.close(c2, None), rel, col)
            x = self.fresh_neutral("_x" if c1.binder is None else c1.binder.text, a.domain)
            return self.compare(self.close(c1, x), self.close(c2, x), rel, col)
        if rel is _LE:
            return self.compare(a, b, _EQ, col)
        if isinstance(a, VSize) or isinstance(b, VSize):
            nsa, nsb = self.size_view(a), self.size_view(b)
            if nsa is None or nsb is None:
                return False
            return self.size_entails(nsa, nsb, col) and self.size_entails(nsb, nsa, col)
        if (
            isinstance(a, VDef)
            and isinstance(b, VDef)
            and a.name == b.name
            and len(a.spine) == len(b.spine)
        ):
            if self._compare_spines(a.spine, b.spine, col):
                return True
        ua = self._unfold(a, NOPOS, strict=False) if isinstance(a, VDef) else None
        ub = self._unfold(b, NOPOS, strict=False) if isinstance(b, VDef) else None
        if ua is not None or ub is not None:
            a, b = ua if ua is not None else a, ub if ub is not None else b
            return self.compare(a, b, _EQ, col)
        match (a, b):
            case (VSet(), VSet()) | (VSizeU(), VSizeU()):
                return True
            case (VLam(closure=clo), _) | (_, VLam(closure=clo)):
                # both sides are applied to one fresh variable
                x = self.fresh_neutral(clo.binder.text)
                a = self.apply(a, [(Thunk.of(x), _RELEVANT)], [NOPOS])
                b = self.apply(b, [(Thunk.of(x), _RELEVANT)], [NOPOS])
                return self.compare(a, b, _EQ, col)
            case (VCon(con=c1, args=args1), VCon(con=c2, args=args2)):
                if c1 != c2 or len(args1) != len(args2):
                    return False
                centry = self.sig.con(c1)
                if self.sig.data(centry.data).coinductive:
                    # shared unfoldings make streams cyclic: comparing two
                    # of them unfolds nothing, so each layer costs fuel
                    self._tick()
                annots = centry.annots
                for k, (t1, t2) in enumerate(zip(args1, args2)):
                    annot = annots[k] if k < len(annots) else _RELEVANT
                    if annot is _PARAMETRIC:
                        continue
                    if not self.compare(self.force(t1), self.force(t2), _EQ, col):
                        return False
                return True
            case (VNe(head=h1, spine=sp1), VNe(head=h2, spine=sp2)):
                if h1 != h2 or len(sp1) != len(sp2):
                    return False
                return self._compare_spines(sp1, sp2, col)
        return False

    def _compare_spines(self, sp1: Spine, sp2: Spine, col) -> bool:
        for (t1, an1), (t2, _) in zip(sp1, sp2):
            if an1 is _PARAMETRIC:
                continue
            self._tick()
            if not self.compare(self.force(t1), self.force(t2), _EQ, col):
                return False
        return True
