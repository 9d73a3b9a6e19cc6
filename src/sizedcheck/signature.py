"""The checked global environment: data/codata entries, constructors,
functions with elaborated clauses and totality verdicts, lets, and the
solutions of the program's size holes."""

from __future__ import annotations

from dataclasses import dataclass, field

from .sizes import NormalSize, SizeCtx
from .syntax import Annot, Expr, Ident, Pattern, Polarity, Pos
from .values import Thunk, Value


@dataclass
class DataEntry:
    """A data or codata type.  `variances` holds the variance of each
    argument slot, the one place it is decided: each parameter as declared,
    then the size index, POS for sized data and NEG for sized codata
    (`Stream A ($ i) <= Stream A i`), and every other index INVARIANT."""

    name: Ident
    sized: bool
    coinductive: bool
    params: list[tuple[Ident, Polarity]]
    n_indices: int
    kind_value: Value
    constructors: list[Ident] = field(default_factory=list)
    variances: tuple[Polarity, ...] = field(init=False)

    def __post_init__(self):
        size = [Polarity.NEG if self.coinductive else Polarity.POS] if self.sized else []
        self.variances = (*(pol for _, pol in self.params), *size,
                          *[Polarity.INVARIANT] * (self.n_indices - len(size)))


@dataclass
class ConEntry:
    name: Ident
    data: Ident
    type_value: Value  # data parameters prepended parametrically
    n_params: int
    has_size: bool
    annots: list[Annot]  # per telescope position
    arity: int


@dataclass
class ElabClause:
    patterns: list[Pattern]
    rhs: Expr  # elaborated; its size holes are read through Signature.holes
    sctx: SizeCtx
    pos: Pos


@dataclass
class CallSite:
    """One recursive occurrence, recorded while checking a clause body."""

    args: list[Expr]
    size_arg: NormalSize | None
    sctx: SizeCtx
    lhs_size: NormalSize | None
    clause_index: int
    pos: Pos


@dataclass
class FunEntry:
    name: Ident
    coinductive: bool
    type_value: Value
    arity: int = 0
    size_param: int | None = None
    clauses: list[ElabClause] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    report: object = None  # TotalityReport once checked; None while checking


@dataclass
class LetEntry:
    name: Ident
    type_value: Value
    body: Expr
    thunk: Thunk | None = None


Entry = DataEntry | ConEntry | FunEntry | LetEntry


class Signature:
    """Append-only map from resolved idents to checked entries, and the
    table of solved size holes.  Hole ids are unique in a program, so each
    solution is stored once, as a normal form that names no hole, when its
    clause or let is checked; the evaluator reads it wherever the hole is
    normalized."""

    def __init__(self):
        self.entries: dict[int, Entry] = {}
        self.holes: dict[int, NormalSize] = {}
        self.order: list[Ident] = []
        # the first ident declared under each text: for a constructor name
        # reused across data types this is the earliest declaration
        self.by_text: dict[str, Ident] = {}

    def add(self, name: Ident, entry: Entry):
        assert name.uid not in self.entries
        self.entries[name.uid] = entry
        self.order.append(name)
        self.by_text.setdefault(name.text, name)

    def __getitem__(self, name: Ident) -> Entry:
        return self.entries[name.uid]

    def lookup_text(self, text: str) -> Entry | None:
        ident = self.by_text.get(text)
        return self.entries.get(ident.uid) if ident else None

    def data(self, name: Ident) -> DataEntry:
        e = self.entries[name.uid]
        assert isinstance(e, DataEntry)
        return e

    def con(self, name: Ident) -> ConEntry:
        e = self.entries[name.uid]
        assert isinstance(e, ConEntry)
        return e

    def fun(self, name: Ident) -> FunEntry:
        e = self.entries[name.uid]
        assert isinstance(e, FunEntry)
        return e

    def __len__(self):
        return len(self.entries)
