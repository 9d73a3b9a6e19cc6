"""Name resolution: the rules by which the parser resolves every name to a
uid-bearing Ident as it reads it, and the report of the first scope fault.

Declarations are read in source order; forward references are rejected
except for a declaration's own recursive occurrences (a fun inside its
clauses, a data type inside its constructor types).  A data type is defined
after its index signature, a constructor after its type, a fun after its
type and a let after its body, so `let a : Nat = a` is UNBOUND.

Constructor names may be reused across data types.  A constructor may be
redeclared in a *different* data type; a second constructor of the same name
in one data type is DUPLICATE, and so is any clash that involves a data, fun
or let name.  In an expression a constructor name resolves to its latest
declaration, so a later data type's constructors shadow an earlier type's
constructors of the same name.  A constructor pattern is resolved here to the
latest declaration too, but the checker re-resolves it by name against the
scrutinee's data type, so patterns always see the right constructor.

Local names live in one dict from text to Ident; binding a name logs what it
shadowed, and leaving a scope undoes the log back to a mark.  A name that one
clause's left-hand side, or one case branch's pattern, binds twice is
DUPLICATE; a branch pattern may shadow a name bound outside it, as a lambda
may.  Every local Ident that a use resolves to joins `read`, which holds one
declaration's reads, so the parser can tell a binder that nothing reads.

A PARSE fault outranks every scope fault, even one found earlier, so the
parser keeps the first UNBOUND or DUPLICATE fault of a declaration on it and
reads on.  `scope_check` raises the first such fault once the whole program
has parsed, so it stays the step between parsing and checking that reports
one (and the step the bench's tracer times as `scope`)."""

from __future__ import annotations

from .diagnostics import Diagnostic
from .syntax import (
    Con,
    Declaration,
    Def,
    Expr,
    Ident,
    Pattern,
    PCon,
    Pos,
    PVar,
    Var,
    fresh_ident,
)


class Scope:
    """The names in scope at one point of one program, its size-hole count
    and the first fault of the declaration being read."""

    __slots__ = ("globals", "locals", "trail", "pattern_mark", "read", "unbound", "metas", "fault")

    def __init__(self):
        # text -> (ident, kind, the data type of a constructor)
        self.globals: dict[str, tuple[Ident, str, Ident | None]] = {}
        self.locals: dict[str, Ident] = {}
        self.trail: list[tuple[str, Ident | None]] = []  # (text, what it shadowed)
        # where the trail stood when the clause or branch pattern being read began
        self.pattern_mark = 0
        self.read: set[Ident] = set()  # the locals used so far in this declaration
        self.unbound: dict[str, Ident] = {}  # text -> the Ident of its every use
        self.metas = 0  # the number of the last size hole
        self.fault: Diagnostic | None = None

    def report(self, d: Diagnostic):
        if self.fault is None:
            self.fault = d

    def define(self, text: str, kind: str, pos: Pos, owner: Ident | None = None) -> Ident:
        prev = self.globals.get(text)
        if prev is not None and not (kind == prev[1] == "con" and prev[2] != owner):
            self.report(Diagnostic("DUPLICATE", f"duplicate definition of '{text}'", pos))
        ident = fresh_ident(text)
        self.globals[text] = (ident, kind, owner)
        return ident

    # -- local names -----------------------------------------------------------

    def bind(self, text: str, pattern: Pos | None = None) -> Ident:
        """Bind a name; a pattern variable at `pattern` is DUPLICATE if its own
        clause's left-hand side or branch pattern already binds it."""
        if pattern is not None and text in self.locals and any(
                t == text for t, _ in self.trail[self.pattern_mark:]):
            self.report(Diagnostic(
                "DUPLICATE", f"pattern variable '{text}' bound twice in one clause", pattern
            ))
        x = fresh_ident(text)
        self.trail.append((text, self.locals.get(text)))
        self.locals[text] = x
        return x

    def restore(self, mark: int):
        """Unbind every name bound since the trail was `mark` long."""
        trail, local = self.trail, self.locals
        while len(trail) > mark:
            text, prev = trail.pop()
            if prev is None:
                del local[text]
            else:
                local[text] = prev

    # -- uses ------------------------------------------------------------------

    def missing(self, text: str, pos: Pos) -> Ident:
        """Report an unbound name.  All its uses name one Ident, so the tree
        of a program with faults still prints as it was written."""
        self.report(Diagnostic("UNBOUND", f"unbound name '{text}'", pos))
        if text not in self.unbound:
            self.unbound[text] = fresh_ident(text)
        return self.unbound[text]

    def var(self, text: str, pos: Pos) -> Expr:
        x = self.locals.get(text)
        if x is not None:
            self.read.add(x)
            return Var(x, pos)
        g = self.globals.get(text)
        if g is None:
            return Var(self.missing(text, pos), pos)
        return Con(g[0], pos) if g[1] == "con" else Def(g[0], pos)

    def size_var(self, text: str, pos: Pos) -> Ident:
        """A size variable, at the first token of its size expression."""
        x = self.locals.get(text) or self.missing(text, pos)
        self.read.add(x)
        return x

    def pattern_var(self, text: str, pos: Pos) -> Pattern:
        """A bare name in a pattern: a constructor if one is in scope, else a
        new pattern variable, which may shadow a global of another kind."""
        g = self.globals.get(text)
        if g is not None and g[1] == "con":
            return PCon(g[0], [], pos)
        return PVar(self.bind(text, pos), pos)

    def constructor(self, text: str, pos: Pos) -> Ident:
        g = self.globals.get(text)
        if g is None:
            return self.missing(text, pos)
        if g[1] != "con":
            self.report(Diagnostic("UNBOUND", f"'{text}' is not a constructor", pos))
        return g[0]


def scope_check(decls: list[Declaration]) -> list[Declaration]:
    """Raise the program's first scope fault, or return the program."""
    for d in decls:
        if d.fault is not None:
            raise d.fault
    return decls
