"""Bidirectional type checking: sized data/codata well-formedness, the
parametric-argument discipline, pattern elaboration with dot/size/successor
patterns, the size-case rule, and clause-level solving of size holes.
Subtyping, with size entailment and declared polarities, is the evaluator's
`compare` at `Rel.LE` (see the `evaluator` module docstring).

Elaboration annotates the parser's tree in place; it builds no second tree.
Each application node gets the annotation of the Pi it applies, and a size
variable passed as a size argument becomes `Size(((x, 0),))`, a size of one
pair, which the unfold memo keys by its normal form.  A Pi link gets its
elaborated domain and codomain, a lambda its elaborated body, a case
its elaborated scrutinee and branches, and a constructor pattern the
constructor it names in the scrutinee's type.  A tree is checked once, and nothing reads it
before, so annotating it loses nothing: the signature's clauses and lets
hold the parser's own nodes.

Elaborated syntax keeps its size holes.  Once a clause or let body is
checked, its holes are solved and each solution is stored once in the
signature's hole table; the evaluator reads it there whenever it normalizes
the hole, so no clause or let body is rewritten.

A typing context is just an environment, the evaluator's (see `values`),
whose cells also carry each binder's type and annotation: it never changes,
binding a variable (`bind`) costs one cell, and looking one up (`find`)
costs the distance to its binder.  So a context, a closure built in it and
every context that extends it share its cells, and a size case rebinds its
scrutinee with one cell in front, which the expressions beside the case
never see.  What a clause or let body gathers is in one place for the whole
body, `Checker.state`.  A size hypothesis is stored once per binder, in
`Signature.hyps`, when a size pattern or a size case binds its child (see
`sizes`).  Each hole records the environment it is written in, and a hole
may be solved only by variables bound there: a solution that names any
other is UNSOLVED-META."""

from __future__ import annotations

from .diagnostics import Diagnostic, too_deep
from .evaluator import DEFAULT_PRINT_DEPTH, DEFAULT_UNFOLD_FUEL, Evaluator
from .pretty import pretty
from .signature import ConEntry, DataEntry, FunEntry, LetEntry, Signature
from .sizes import (
    Ambiguous,
    INFTY,
    OffsetOverflow,
    Rel,
    SizeConstraint,
    Unsolvable,
    bump,
    format_size,
    ns_var,
    pred,
    solve_metas,
)
from .syntax import (
    Annot,
    App,
    CaseData,
    CaseSize,
    Clause,
    Con,
    DataDecl,
    Declaration,
    Def,
    Expr,
    FunDecl,
    Ident,
    Lam,
    LetDecl,
    LineTable,
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
    Record,
    SetU,
    Size,
    SizeU,
    Var,
    fresh_ident,
    leq_pol,
)
from .totality import (
    CallGraphEntry,
    admissibility_check,
    polarity_of,
    strict_positivity_check,
    struct_rels,
    termination_check,
)
from .values import VSET, VSIZEU
from .values import Env, Thunk, Value, VCon, VData, VDef, VLam, VNe, VPi, VSet, VSize, VSizeU, find


def _bound_var(v: Value) -> Ident:
    """The variable that `Evaluator.telescope` bound: a neutral or a size."""
    return v.head if isinstance(v, VNe) else v.size[0][0]


class ClauseState(Record):
    """What checking one clause or let body gathers: its size constraints and
    holes, each hole with the environment it is written in, solved once the
    body is checked.  A clause of the fun `fun` (None for a let) records each
    recursive call in `fun.calls`, as a row of its totality report, with the
    size `lhs_size` that the clause matches; `termination_check` decides each
    row's size relation once every clause is checked."""

    __slots__ = ("fun", "clause", "lhs_size", "collector", "metas")

    def __init__(self, fun: FunEntry | None = None, clause: Clause | None = None):
        self.fun = fun
        self.clause = clause
        self.lhs_size: tuple | None = None
        self.collector: list[SizeConstraint] = []
        self.metas: dict[int, Env] = {}


# the fields of a context's cell past the evaluator's (uid, thunk, rest)
_TYPE, _ANNOT = 3, 4


def bind(env: Env, x: Ident, ty: Value, annot: Annot, value: Value | None = None) -> Env:
    """env with a cell in front that binds x, of type ty, to value, or else
    to a fresh neutral: a size variable if ty is Size."""
    if value is None:
        value = VSize(ns_var(x)) if isinstance(ty, VSizeU) else VNe(x)
    return (x.uid, Thunk.of(value), env, ty, annot)


class Checker:
    __slots__ = ("sig", "ev", "collect_constraints", "constraint_dump", "lines", "state")

    def __init__(
        self,
        unfold_fuel: int = DEFAULT_UNFOLD_FUEL,
        print_depth: int = DEFAULT_PRINT_DEPTH,
        print_sizes: bool = False,
        collect_constraints: bool = False,
        lines: LineTable | None = None,
    ):
        self.sig = Signature()
        self.ev = Evaluator(self.sig, unfold_fuel, print_depth, print_sizes)
        self.collect_constraints = collect_constraints
        self.constraint_dump: list[str] = []
        # shows the call positions of totality reports and messages; without
        # the program's source, an offset shows as a column of line 1
        self.lines = lines or LineTable("")
        # the clause or let body being checked, if any
        self.state: ClauseState | None = None

    # -- program ------------------------------------------------------------

    def check_program(self, decls: list[Declaration]) -> tuple[Signature, list[str]]:
        # a size offset past MAX_OFFSET or a nesting deeper than the recursion
        # limit is reported at the declaration or eval let that reached it
        try:
            for d in decls:
                self.ev.reset_budget(d.pos)
                match d:
                    case DataDecl():
                        self.check_data_decl(d)
                    case FunDecl():
                        self.check_fun_decl(d)
                    case LetDecl():
                        self.check_let_decl(d)
                    case _:
                        raise AssertionError(d)
            outputs = []
            for d in decls:
                if isinstance(d, LetDecl) and d.eval:
                    self.ev.reset_budget(d.pos)
                    v = self.ev.evaluate(None, Def(d.name, d.pos))
                    rb = self.ev.readback(v)
                    outputs.append(f"{d.name.text} = {pretty(rb)}")
        except OffsetOverflow as e:
            raise Diagnostic("LIMIT", str(e), d.pos) from None
        except RecursionError:
            raise too_deep(d.pos) from None
        return self.sig, outputs

    # -- declarations ---------------------------------------------------------

    def check_data_decl(self, d: DataDecl):
        env: Env = None
        params: list[tuple[Ident, Polarity, Expr]] = []
        for p in d.params:
            pt = self.check_type(env, p.type)
            env = bind(env, p.name, self.ev.evaluate(env, pt), Annot.RELEVANT)
            params.append((p.name, p.polarity, pt))

        index_elab = self.check_type(env, d.index_sig)
        indices, t = self.ev.telescope(self.ev.evaluate(env, index_elab))
        if not isinstance(t, VSet):
            raise Diagnostic(
                "TYPE-MISMATCH", "a data type signature must end in Set", d.pos
            )
        if d.sized:
            if not indices or not isinstance(indices[0][1], VSizeU):
                raise Diagnostic(
                    "SIZE-INDEX-SHAPE",
                    "the size index must be the first index of a sized type",
                    d.pos,
                )

        kind = index_elab
        for p, (_, _, pt) in zip(reversed(d.params), reversed(params)):
            kind = Pi(Annot.RELEVANT, p.kind_binder, pt, kind, d.pos)
        entry = DataEntry(
            d.name,
            d.sized,
            d.coinductive,
            [(n, pol) for n, pol, _ in params],
            len(indices),
            self.ev.evaluate(None, kind),
        )
        self.sig.add(d.name, entry)

        # each constructor type is checked under the parameters, then bound
        # by them parametrically
        for c in d.constructors:
            ct = self.check_type(env, c.type)
            for name, _, pt in reversed(params):
                ct = Pi(Annot.PARAMETRIC, name, pt, ct, c.pos)
            cv = self.ev.evaluate(None, ct)
            centry = self._check_constructor(d, params, c.name, cv, c.pos)
            self.sig.add(c.name, centry)
            entry.constructors.append(c.name)

    def _check_constructor(
        self,
        d: DataDecl,
        params,
        cname: Ident,
        cv: Value,
        pos: Pos,
    ) -> ConEntry:
        # cv has one Pi per parameter around the checked type, so the
        # telescope holds at least the parameters
        n_params = len(params)
        binders, t = self.ev.telescope(cv)
        n_fixed = n_params + (1 if d.sized else 0)
        if d.sized and (len(binders) == n_params or not isinstance(binders[n_params][1], VSizeU)):
            raise Diagnostic(
                "SIZE-INDEX-SHAPE",
                f"constructor '{cname.text}' of a sized type must quantify "
                "over its size first",
                pos,
            )
        annots = [annot for annot, _, _ in binders]
        arg_domains = [dom for _, dom, _ in binders[n_fixed:]]

        if not (isinstance(t, VData) and t.name == d.name):
            raise Diagnostic(
                "TYPE-MISMATCH",
                f"constructor '{cname.text}' must target '{d.name.text}'",
                pos,
            )
        for k in range(n_params):
            if not self.ev.convertible(self.ev.force(t.args[k]), binders[k][2]):
                raise Diagnostic(
                    "TYPE-MISMATCH",
                    f"constructor '{cname.text}' must target '{d.name.text}' "
                    "applied to the declared parameters",
                    pos,
                )

        if d.sized:
            x = binders[n_params][2]
            if x is None:
                # an arrow from Size binds no variable for the target to carry
                raise Diagnostic(
                    "SIZE-INDEX-SHAPE",
                    f"constructor '{cname.text}' of a sized type must name its "
                    "size binder, as in '[i : Size] ->'",
                    pos,
                )
            size_var = _bound_var(x)
            ts = self.ev.size_view(self.ev.force(t.args[n_params]))
            if ts != ((size_var, 1),):
                raise Diagnostic(
                    "SIZE-INDEX-SHAPE",
                    f"the target of '{cname.text}' must carry size "
                    f"$ {size_var.text}",
                    pos,
                )
            want = self.sig.data(d.name).variances[n_params]
            tone = "antitone" if want is Polarity.NEG else "monotone"
            for k, b in enumerate(arg_domains):
                self._check_rec_sizes(b, d.name, size_var, n_params, cname, pos)
                p = polarity_of(size_var, b, self.ev)
                if not leq_pol(p, want):
                    raise Diagnostic(
                        "SIZE-MONOTONICITY",
                        f"argument {k + 1} of '{cname.text}' is not {tone} in "
                        f"the size index (polarity {p.value}); subtyping for "
                        f"'{d.name.text}' would be unsound",
                        pos,
                    )

        # each ++ parameter as the telescope binds it; the declared ident does
        # not occur in the constructor's type value
        strict_params = [_bound_var(binders[k][2])
                         for k, (_, pol, _) in enumerate(params) if pol is Polarity.STRICT_POS]
        strict_positivity_check(d.name, strict_params, cname, arg_domains, self.ev, pos)

        return ConEntry(cname, d.name, cv, n_params, d.sized, annots, len(binders))

    def _check_rec_sizes(
        self, t: Value, dname: Ident, i: Ident, n_params: int, cname: Ident, pos: Pos
    ):
        """Every recursive occurrence of the defined type in t carries size
        exactly i.  A method, not a nested function: a recursive closure
        would hold the checker in a reference cycle until the next collection."""
        ev = self.ev
        match t:
            case VData(name=d, args=args) | VCon(con=d, args=args):
                if d == dname:
                    occurrence = f"recursive occurrence of '{dname.text}' in '{cname.text}'"
                    size = ev.force(args[n_params]) if len(args) > n_params else None
                    if not args:
                        raise Diagnostic("SIZE-INDEX-SHAPE", f"unapplied {occurrence}", pos)
                    if not isinstance(size, VSize):
                        raise Diagnostic(
                            "SIZE-INDEX-SHAPE", f"{occurrence} lacks its size index", pos
                        )
                    if size.size != ((i, 0),):
                        raise Diagnostic(
                            "SIZE-INDEX-SHAPE",
                            f"{occurrence} must carry size exactly {i.text}",
                            pos,
                        )
                inner = (ev.force(th) for th in args)
            case VNe(spine=spine) | VDef(spine=spine):
                inner = (ev.force(th) for th, _ in spine)
            case VPi(domain=dom, closure=clo):
                inner = (dom, ev.open(clo)[1])
            case VLam(closure=clo):
                inner = (ev.open(clo)[1],)
            case _:
                return
        for v in inner:
            self._check_rec_sizes(v, dname, i, n_params, cname, pos)

    def check_fun_decl(self, f: FunDecl):
        ty = self.check_type(None, f.type)
        tv = self.ev.evaluate(None, ty)
        arities = {len(c.lhs) for c in f.clauses}
        if len(arities) > 1:
            raise Diagnostic(
                "TYPE-MISMATCH", "all clauses must bind the same number of patterns", f.pos
            )
        arity = arities.pop() if arities else 0

        binders, _ = self.ev.telescope(tv, limit=arity)
        if len(binders) < arity:
            raise Diagnostic(
                "TYPE-MISMATCH",
                "clauses bind more patterns than the type has arguments",
                f.pos,
            )
        size_param = next(
            (k for k, (_, dom, _) in enumerate(binders) if isinstance(dom, VSizeU)), None
        )

        entry = FunEntry(f.name, f.coinductive, tv, arity, size_param, f.clauses)
        self.sig.add(f.name, entry)
        for idx, clause in enumerate(f.clauses):
            self._check_clause(entry, clause, idx)
        entry.report = termination_check(entry, self.sig)

    def _check_clause(self, entry: FunEntry, clause: Clause, idx: int):
        """Elaborate the clause in place and solve its holes; as a method, it
        keeps nothing of one clause alive while the next is checked."""
        self.state = ClauseState(entry, clause)
        env, residual, obligations, _ = self._elab_patterns(
            None, entry.type_value, clause.lhs, entry
        )
        self._check_obligations(env, obligations)
        clause.rhs = self.check(env, clause.rhs, residual, erased=False)
        self._solve_holes(clause.pos, f"{entry.name.text} clause {idx + 1}")

    def _solve_holes(self, pos: Pos, where: str):
        """Dump the constraints of the checked body if asked (before solving,
        so a rejection shows them too), then solve its size holes, check that
        each solution names only variables bound where its hole is written,
        and store each in the signature's hole table; this ends the body's
        state."""
        state = self.state
        collector = state.collector
        if self.collect_constraints and collector:
            naming: dict[int, str] = {}
            for c in collector:
                for m in sorted(c.metas()):
                    naming.setdefault(m, f"m{len(naming) + 1}")
            self.constraint_dump.append(f"-- {where}")
            for c in collector:
                self.constraint_dump.append(
                    f"{format_size(c.lhs, naming)} {c.rel.value} {format_size(c.rhs, naming)}"
                )
        try:
            sol = solve_metas(collector, self.sig.hyps, state.metas.keys())
        except (Unsolvable, Ambiguous) as exc:
            raise Diagnostic("UNSOLVED-META", str(exc), pos)
        for m, env in state.metas.items():
            for x, _ in sol[m]:
                if type(x) is Ident and find(env, x.uid) is None:
                    raise Diagnostic(
                        "UNSOLVED-META",
                        f"size hole ?{m} would be {format_size(sol[m])}, but "
                        f"'{x.text}' is not bound where the hole is written",
                        pos,
                    )
        self.sig.holes.update(sol)
        self.state = None

    def check_let_decl(self, d: LetDecl):
        ty = self.check_type(None, d.type)
        tv = self.ev.evaluate(None, ty)
        self.state = ClauseState()
        body = self.check(None, d.body, tv, erased=False)
        self._solve_holes(d.pos, d.name.text)
        self.sig.add(d.name, LetEntry(d.name, tv, body))

    # -- pattern elaboration ----------------------------------------------------

    def _elab_patterns(self, env: Env, t: Value, patterns: list[Pattern], fun: FunEntry | None):
        """Elaborate patterns against the Pi telescope t: a clause's own
        arguments against its function `fun`'s type, or (fun None) a
        constructor's arguments past its parameters and size.  Returns the
        context they bind, the rest of t, the dot obligations and the values
        they match."""
        obligations: list = []
        vals: list[Value] = []
        for k, p in enumerate(patterns):
            t = self.ev.whnf(t)
            # the telescope of fresh variables was as long (`check_fun_decl`,
            # `ConEntry.arity`), and a pattern's value unfolds a type as a
            # fresh variable does, or further
            assert isinstance(t, VPi), "more patterns than the type has arguments"
            designated = fun is not None and k == fun.size_param
            env, val, obls = self._elab_pattern(env, t, p, fun, designated)
            obligations.extend(obls)
            vals.append(val)
            t = self.ev.close(t.closure, val)
        return env, t, obligations, vals

    def _elab_pattern(self, env: Env, pi: VPi, p: Pattern, fun: FunEntry | None, designated: bool):
        """Elaborate one pattern against the binder pi; its domain decides
        which arms apply.  A Size binder takes a variable or a wildcard, or,
        among a clause's own arguments (fun not None), a successor pattern of
        a cofun; the size matched at the designated binder is the clause's
        size for termination.  Returns the extended context, the value
        matched and the dot obligations."""
        dom = self.ev.whnf(pi.domain)
        at_size = isinstance(dom, VSizeU)
        match p:
            case PVar() | PWild():
                x = p.name if isinstance(p, PVar) else fresh_ident("_i" if at_size else "_x")
                env = bind(env, x, dom, pi.annot)
                val = self.ev.force(env[1])
                if designated and isinstance(p, PVar):
                    self.state.lhs_size = val.size
                return env, val, []
            case _ if at_size and fun is None:
                raise Diagnostic(
                    "TYPE-MISMATCH",
                    "only variable patterns may match an inner size argument",
                    p.pos,
                )
            case PSizeRel():
                raise Diagnostic(
                    "TYPE-MISMATCH",
                    "size patterns (i > j) belong inside constructor patterns",
                    p.pos,
                )
            case PSucc(child=j) if at_size:
                if not fun.coinductive:
                    raise Diagnostic(
                        "ADMISSIBILITY",
                        "successor patterns are only permitted in corecursive "
                        "definitions",
                        p.pos,
                    )
                i_star = fresh_ident("_x" if pi.closure.binder is None else pi.closure.binder.text)
                residual = self.ev.close(pi.closure, VSize(ns_var(i_star)))
                reason = admissibility_check(self.ev, residual, i_star)
                if reason is not None:
                    raise Diagnostic("ADMISSIBILITY", reason, p.pos)
                env = bind(env, j, dom, pi.annot)
                size = bump(ns_var(j), 1)
                if designated:
                    self.state.lhs_size = size
                return env, VSize(size), []
            case PSucc():
                raise Diagnostic(
                    "ADMISSIBILITY",
                    "successor patterns only match size arguments",
                    p.pos,
                )
            case PDot() if at_size:
                raise Diagnostic(
                    "ILLEGAL-SIZE-REFINEMENT",
                    "a dot pattern may not refine a size parameter of the "
                    "function itself",
                    p.pos,
                )
            case PDot():
                raise Diagnostic(
                    "DOT-MISMATCH",
                    "dot pattern in a position not determined by the type",
                    p.pos,
                )
            case PCon() if at_size:
                raise Diagnostic(
                    "TYPE-MISMATCH", "cannot match a constructor against a size", p.pos
                )
            case PCon():
                if not isinstance(dom, VData):
                    raise Diagnostic(
                        "TYPE-MISMATCH",
                        f"constructor pattern against non-data type "
                        f"'{pretty(self.ev.quote(dom))}'",
                        p.pos,
                    )
                return self._elab_con_pattern(env, dom, p)
        raise AssertionError(p)

    def _elab_con_pattern(self, env: Env, dty: VData, p: PCon):
        """Elaborate p against dty, naming in p the constructor it matches;
        returns as `_elab_pattern` does."""
        dentry = self.sig.data(dty.name)
        # constructor names may be reused across data types: resolve by name
        # against the scrutinee's type, not the latest declaration scope chose
        con = next((c for c in dentry.constructors if c.text == p.con.text), None)
        if con is None:
            raise Diagnostic(
                "TYPE-MISMATCH",
                f"'{p.con.text}' is not a constructor of '{dty.name.text}'",
                p.pos,
            )
        centry = self.sig.con(con)
        if len(p.args) != centry.arity:
            raise Diagnostic(
                "TYPE-MISMATCH",
                f"constructor '{p.con.text}' takes {centry.arity} patterns, "
                f"found {len(p.args)}",
                p.pos,
            )
        obligations: list = []
        thunks: list[Thunk] = []
        ct: Value = centry.type_value

        # parameters are forced by the scrutinee type
        for k in range(centry.n_params):
            ct = self.ev.whnf(ct)
            forced = self.ev.force(dty.args[k])
            sub = p.args[k]
            match sub:
                case PDot(expr=e):
                    obligations.append((e, self.ev.whnf(ct.domain), forced, sub.pos))
                case PVar(name=x):
                    env = bind(env, x, self.ev.whnf(ct.domain), Annot.PARAMETRIC, forced)
                case PWild():
                    pass
                case _:
                    raise Diagnostic(
                        "DOT-MISMATCH",
                        f"parameter argument of '{p.con.text}' is forced; "
                        "use a dot pattern",
                        sub.pos,
                    )
            thunks.append(Thunk.of(forced))
            ct = self.ev.close(ct.closure, forced)

        # the size argument
        if centry.has_size:
            ct = self.ev.whnf(ct)
            # a checked type's size argument is a size: `as_size` admits no other
            s_ns = self.ev.size_view(self.ev.force(dty.args[centry.n_params]))
            sub = p.args[centry.n_params]
            base, n = s_ns[0]
            if len(s_ns) == 1 and n == 0 and base is not INFTY:
                if type(base) is int:
                    raise Diagnostic(
                        "TYPE-MISMATCH", "cannot match at an unsolved size", p.pos
                    )
                if dentry.coinductive:
                    raise Diagnostic(
                        "COFUN-MATCH-ON-VARIABLE-SIZE",
                        f"cannot match on '{dty.name.text}' at variable size "
                        f"'{base.text}': it might be a totally undefined value",
                        p.pos,
                    )
                match sub:
                    case PSizeRel(parent=parent, child=child):
                        if parent != base:
                            raise Diagnostic(
                                "SIZE-PATTERN-REQUIRED",
                                f"size pattern must relate the matched index "
                                f"'{base.text}', found '{parent.text}'",
                                sub.pos,
                            )
                        env = bind(env, child, VSIZEU, ct.annot)
                        self.sig.hyps[child.uid] = (ns_var(parent), True)
                        size_val: Value = VSize(ns_var(child))
                    case PDot():
                        raise Diagnostic(
                            "SIZE-PATTERN-REQUIRED",
                            "matching at a variable size requires a size "
                            "pattern (i > j), not a dot",
                            sub.pos,
                        )
                    case _:
                        raise Diagnostic(
                            "SIZE-PATTERN-REQUIRED",
                            "matching at a variable size requires a size "
                            "pattern (i > j)",
                            sub.pos,
                        )
            else:
                if len(s_ns) > 1:
                    raise Diagnostic(
                        "SIZE-PATTERN-REQUIRED",
                        "cannot match at a max-shaped size index",
                        sub.pos,
                    )
                size_val = VSize(pred(s_ns))
                match sub:
                    case PDot(expr=e):
                        obligations.append((e, VSIZEU, size_val, sub.pos))
                    case _:
                        raise Diagnostic(
                            "SIZE-PATTERN-REQUIRED",
                            f"the size argument of '{p.con.text}' is forced "
                            "here; use a dot pattern",
                            sub.pos,
                        )
            thunks.append(Thunk.of(size_val))
            ct = self.ev.close(ct.closure, size_val)

        # the proper arguments
        first_index = centry.n_params + (1 if centry.has_size else 0)
        env, ct, obls, vals = self._elab_patterns(env, ct, p.args[first_index:], None)
        obligations.extend(obls)
        thunks.extend(map(Thunk.of, vals))

        target = self.ev.whnf(ct)
        assert isinstance(target, VData) and target.name == dty.name
        # indices beyond the size must agree with the scrutinee type
        for k in range(first_index, min(len(target.args), len(dty.args))):
            if not self.ev.convertible(
                self.ev.force(target.args[k]),
                self.ev.force(dty.args[k]),
                self.collector,
            ):
                raise Diagnostic(
                    "TYPE-MISMATCH",
                    f"index {k - first_index + 1} of '{p.con.text}' does not "
                    "match the scrutinee type",
                    p.pos,
                )
        p.con = con
        return env, VCon(con, tuple(thunks)), obligations

    def _check_obligations(self, env: Env, obligations):
        for e, ty, forced, pos in obligations:
            ty = self.ev.whnf(ty)
            if isinstance(ty, VSizeU):
                se = self.as_size(env, e, erased=True).size
                v: Value = VSize(self.ev.eval_size(env, se))
            else:
                elab = self.check(env, e, ty, erased=True)
                v = self.ev.evaluate(env, elab)
            if not self.ev.convertible(v, forced, self.collector):
                raise Diagnostic(
                    "DOT-MISMATCH",
                    f"dot pattern '{pretty(e)}' does not match the forced "
                    f"value '{pretty(self.ev.quote(forced))}'",
                    pos,
                )

    # -- expressions ------------------------------------------------------------

    def check_type(self, env: Env, e: Expr) -> Expr:
        t = type(e)
        if t is Pi:
            dom = e.domain = self.check_type(env, e.domain)
            if e.binder is not None:
                env = bind(env, e.binder, self.ev.evaluate(env, dom), e.annot)
            e.codomain = self.check_type(env, e.codomain)
            return e
        if t is SetU or t is SizeU:
            return e
        elab, ty = self.infer(env, e, erased=True)
        if not isinstance(self.ev.whnf(ty), VSet):
            raise Diagnostic(
                "TYPE-MISMATCH",
                f"expected a type, got something of type "
                f"'{pretty(self.ev.quote(ty))}'",
                e.pos,
            )
        return elab

    def as_size(self, env: Env, e: Expr, erased: bool) -> Size:
        """e as a size term; a size variable becomes `Size(((x, 0),))`.  Its
        variables are checked in source order, so the first bad one is the
        one reported, and then its holes are recorded."""
        t = type(e)
        if t is Var:
            e = Size(((e.name, 0),), e.pos)
        elif t is not Size:
            raise Diagnostic(
                "TYPE-MISMATCH",
                "expected a size expression (a size variable, $, #, max or _)",
                e.pos,
            )
        s = e.size
        self._check_size_vars(env, s, erased, e.pos)
        for m, _ in s:
            if type(m) is not int:
                continue
            if self.state is None:
                raise Diagnostic(
                    "UNSOLVED-META",
                    "size holes are only allowed on clause right-hand sides",
                    e.pos,
                )
            self.state.metas[m] = env
        return e

    def _check_size_vars(self, env: Env, s: tuple, erased: bool, pos: Pos):
        """Each variable of the size pairs s is a size variable that may be
        used where s is, checked in source order."""
        for x, _ in s:
            if type(x) is not Ident:
                continue
            b = find(env, x.uid)
            if b is None or not isinstance(self.ev.whnf(b[_TYPE]), VSizeU):
                raise Diagnostic("TYPE-MISMATCH", f"'{x.text}' is not a size variable", pos)
            self._use_check(b, x, erased, pos)

    def _use_check(self, b: tuple, x: Ident, erased: bool, pos: Pos):
        """x, bound by the cell b, may be used where erased says."""
        if b[_ANNOT] is Annot.PARAMETRIC and not erased:
            raise Diagnostic(
                "PARAMETRIC-VIOLATION",
                f"parametric variable '{x.text}' used in a relevant position",
                pos,
            )

    def _infer_atom(self, env: Env, e: Expr, erased: bool) -> tuple[Expr, Value]:
        t = type(e)
        if t is Var:
            x = e.name
            b = find(env, x.uid)
            assert b is not None, f"unbound variable {x!r} after scope checking"
            self._use_check(b, x, erased, e.pos)
            if isinstance(self.ev.whnf(b[_TYPE]), VSizeU):
                return Size(((x, 0),), e.pos), b[_TYPE]
            return e, b[_TYPE]
        if t is Def:
            entry = self.sig[e.name]
            te = type(entry)
            if te is DataEntry:
                return e, entry.kind_value
            if te is FunEntry or te is LetEntry:
                return e, entry.type_value
            raise AssertionError(entry)
        if t is Con:
            return e, self.sig.con(e.name).type_value
        raise AssertionError(e)

    def infer(self, env: Env, e: Expr, erased: bool) -> tuple[Expr, Value]:
        t = type(e)
        if t is App or t is Def:
            return self._infer_app(env, e, erased)
        if t is Var or t is Con:
            return self._infer_atom(env, e, erased)
        if t is Pi:
            return self.check_type(env, e), VSET
        if t is Size:
            return self.as_size(env, e, erased), VSIZEU
        if t is SetU:
            raise Diagnostic(
                "TYPE-MISMATCH",
                "Set has no inferable type; it may only appear where a "
                "type is expected",
                e.pos,
            )
        if t is SizeU:
            raise Diagnostic(
                "TYPE-MISMATCH",
                "Size may only appear where a type is expected",
                e.pos,
            )
        if t is Lam:
            raise Diagnostic(
                "TYPE-MISMATCH", "cannot infer the type of a lambda", e.pos
            )
        if t is CaseSize or t is CaseData:
            raise Diagnostic(
                "TYPE-MISMATCH",
                "a case expression is only accepted where its type is known",
                e.pos,
            )
        raise AssertionError(f"infer: unhandled node {e!r}")

    def _infer_app(self, env: Env, e: App | Def, erased: bool) -> tuple[Expr, Value]:
        # the App nodes of the spine, innermost first; a head that can be
        # applied elaborates to itself
        apps: list[App] = []
        head = e
        while type(head) is App:
            apps.append(head)
            head = head.fun
        apps.reverse()
        st = self.state
        fun = st.fun if st is not None else None
        is_self = fun is not None and type(head) is Def and head.name is fun.name
        if isinstance(head, (Var, Def, Con)):
            _, fty = self._infer_atom(env, head, erased)
        else:
            _, fty = self.infer(env, head, erased)

        size_arg: tuple | None = None
        size_param = fun.size_param if is_self else None
        # found by identity, so the loop keeps no counter alive across the
        # recursive check of each argument
        size_app = apps[size_param] if size_param is not None and size_param < len(apps) else None

        for app in apps:
            arg = app.arg
            fty = self.ev.whnf(fty)
            if not isinstance(fty, VPi):
                raise Diagnostic(
                    "NOT-A-FUNCTION",
                    f"'{pretty(self.ev.quote(fty))}' is applied to too many "
                    "arguments",
                    arg.pos,
                )
            arg_erased = erased or fty.annot is Annot.PARAMETRIC
            dom = self.ev.whnf(fty.domain)
            if isinstance(dom, VSizeU):
                arg = self.as_size(env, arg, arg_erased)
                val: Value | Thunk | None = VSize(self.ev.eval_size(env, arg.size))
                if app is size_app:
                    size_arg = val.size
            else:
                arg = self.check(env, arg, dom, arg_erased)
                # type checking runs no code that no type needs: the argument
                # is suspended, and an arrow's codomain cannot read it at all
                val = None if fty.closure.binder is None else Thunk(env, arg)
            app.arg = arg
            app.annot = fty.annot
            fty = self.ev.close(fty.closure, val)

        if is_self:
            rels = struct_rels([app.arg for app in apps], st.clause.lhs)
            fun.calls.append(CallGraphEntry(rels, self.lines.line_col(e.pos), size_arg,
                                            st.lhs_size, st.clause.pos))
        return e, fty

    def check(self, env: Env, e: Expr, expected: Value, erased: bool) -> Expr:
        expected = self.ev.whnf(expected)
        t = type(e)
        if t is App or t is Var or t is Con or t is Def:
            pass  # inferred and compared below
        elif t is Lam:
            if not isinstance(expected, VPi):
                raise Diagnostic(
                    "TYPE-MISMATCH",
                    f"lambda checked against non-function type "
                    f"'{pretty(self.ev.quote(expected))}'",
                    e.pos,
                )
            env = bind(env, e.binder, self.ev.whnf(expected.domain), expected.annot)
            body_type = self.ev.close(expected.closure, self.ev.force(env[1]))
            e.body = self.check(env, e.body, body_type, erased)
            return e
        elif t is CaseSize:
            return self._check_case_size(env, e, expected, erased)
        elif t is CaseData:
            return self._check_case_data(env, e, expected, erased)
        elif t is SetU:
            if isinstance(expected, VSet):
                return e
            raise Diagnostic(
                "TYPE-MISMATCH",
                f"Set checked against '{pretty(self.ev.quote(expected))}'",
                e.pos,
            )
        elif t is Pi:
            if isinstance(expected, VSet):
                return self.check_type(env, e)
            raise Diagnostic(
                "TYPE-MISMATCH",
                f"function type checked against "
                f"'{pretty(self.ev.quote(expected))}'",
                e.pos,
            )
        elif t is Size:
            if isinstance(expected, VSizeU):
                return self.as_size(env, e, erased)
            s = e.size
            if len(s) == 1 and type(s[0][0]) is int and s[0][1] == 0:
                raise Diagnostic(
                    "UNSOLVED-META",
                    f"a hole '_' stands for a size, but "
                    f"'{pretty(self.ev.quote(expected))}' is expected here",
                    e.pos,
                )
        # every other node is inferred, and its type compared with expected
        elab, ty = self.infer(env, e, erased)
        if not self.subtype(ty, expected):
            raise Diagnostic(
                "TYPE-MISMATCH",
                f"expected '{pretty(self.ev.quote(expected))}', got "
                f"'{pretty(self.ev.quote(ty))}'",
                e.pos,
            )
        return elab

    def _check_case_size(self, env: Env, e: CaseSize, expected: Value, erased: bool) -> Expr:
        # the match is computationally irrelevant, so its scrutinee is erased
        self._check_size_vars(env, e.scrut, True, e.pos)
        ns = self.ev.eval_size(env, e.scrut)
        i = ns[0][0]
        if len(ns) != 1 or ns[0][1] != 0 or type(i) is not Ident:
            raise Diagnostic(
                "ADMISSIBILITY",
                "case on a size requires a plain size variable scrutinee",
                e.pos,
            )
        reason = admissibility_check(self.ev, expected, i)
        if reason is not None:
            raise Diagnostic("ADMISSIBILITY", reason, e.pos)
        # in the branch i stands for $ j; it is parametric there, as j is.
        # Its cell goes in front of i's, which the expressions beside the case still read
        j = e.binder
        self.sig.hyps[j.uid] = (ns_var(i), True)
        env2 = bind(bind(env, j, VSIZEU, Annot.PARAMETRIC),
                    i, VSIZEU, Annot.PARAMETRIC, VSize(bump(ns_var(j), 1)))
        # re-evaluated from a readback: i = $ j in the branch changes hole solving
        expected2 = self.ev.evaluate(env2, self.ev.quote(expected))
        e.branch = self.check(env2, e.branch, expected2, erased)
        return e

    def _check_case_data(self, env: Env, e: CaseData, expected: Value, erased: bool) -> Expr:
        e.scrut, sty = self.infer(env, e.scrut, erased)
        sty = self.ev.whnf(sty)
        if not isinstance(sty, VData):
            raise Diagnostic(
                "TYPE-MISMATCH",
                f"case scrutinee must have a data type, got "
                f"'{pretty(self.ev.quote(sty))}'",
                e.pos,
            )
        branches = e.branches
        for k, (pat, body) in enumerate(branches):
            if not isinstance(pat, PCon):
                raise Diagnostic(
                    "TYPE-MISMATCH",
                    "case branches must match a constructor",
                    pat.pos,
                )
            env2, _, obligations = self._elab_con_pattern(env, sty, pat)
            self._check_obligations(env2, obligations)
            branches[k] = (pat, self.check(env2, body, expected, erased))
        return e

    # -- subtyping ----------------------------------------------------------------

    @property
    def collector(self) -> list[SizeConstraint] | None:
        return self.state.collector if self.state is not None else None

    def subtype(self, a: Value, b: Value) -> bool:
        """a <= b under the program's size hypotheses (`Evaluator.compare`)."""
        return self.ev.compare(a, b, Rel.LE, self.collector)
