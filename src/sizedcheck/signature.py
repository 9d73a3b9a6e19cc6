"""The checked global environment: data/codata entries, constructors,
functions with elaborated clauses and totality verdicts, lets, the
solutions of the program's size holes and its size hypotheses."""

from __future__ import annotations

from .syntax import Annot, Clause, Con, Expr, Ident, Polarity, Record
from .values import Thunk, Value, VCon, VData, VDef


class DataEntry(Record):
    """A data or codata type.  `variances` holds the variance of each
    argument slot, the one place it is decided: each parameter as declared,
    then the size index, POS for sized data and NEG for sized codata
    (`Stream A ($ i) <= Stream A i`), and every other index INVARIANT.
    `value` is the type former applied to nothing, built once: a value's
    arguments are a tuple, never mutated, so every use of the name shares it."""

    __slots__ = ("name", "sized", "coinductive", "params", "n_indices", "kind_value",
                 "constructors", "variances", "value")

    def __init__(self, name: Ident, sized: bool, coinductive: bool,
                 params: list[tuple[Ident, Polarity]], n_indices: int, kind_value: Value):
        self.name = name
        self.sized = sized
        self.coinductive = coinductive
        self.params = params
        self.n_indices = n_indices
        self.kind_value = kind_value
        self.constructors: list[Ident] = []
        size = [Polarity.NEG if coinductive else Polarity.POS] if sized else []
        self.variances = (*(pol for _, pol in params), *size,
                          *[Polarity.INVARIANT] * (n_indices - len(size)))
        self.value = VData(name, ())


class ConEntry(Record):
    """A constructor.  `value` is the constructor applied to nothing and
    `leaf` its syntax, each built once, as `DataEntry.value` is: a bare
    constructor evaluates to `value`, and every readback of the constructor
    shares `leaf`."""

    __slots__ = ("name", "data", "type_value", "n_params", "has_size", "annots", "arity",
                 "value", "leaf")

    def __init__(self, name: Ident, data: Ident, type_value: Value, n_params: int,
                 has_size: bool, annots: list[Annot], arity: int):
        self.name = name
        self.data = data
        self.type_value = type_value  # data parameters prepended parametrically
        self.n_params = n_params
        self.has_size = has_size
        self.annots = annots  # per telescope position
        self.arity = arity
        self.value = VCon(name, ())
        self.leaf = Con(name)


class FunEntry(Record):
    """A fun or cofun: `clauses` are the parser's own, elaborated in place,
    and `value` is its head with an empty spine, built once, as
    `DataEntry.value` is."""

    __slots__ = ("name", "coinductive", "type_value", "arity", "size_param", "clauses",
                 "calls", "report", "value")

    def __init__(self, name: Ident, coinductive: bool, type_value: Value, arity: int,
                 size_param: int | None, clauses: list[Clause]):
        self.name = name
        self.coinductive = coinductive
        self.type_value = type_value
        self.arity = arity
        self.size_param = size_param
        self.clauses = clauses
        self.calls: list = []  # each a `totality.CallGraphEntry`, a report row
        self.report = None  # TotalityReport once checked; None while checking
        self.value = VDef(name, [])


class LetEntry(Record):
    __slots__ = ("name", "type_value", "body", "thunk")

    def __init__(self, name: Ident, type_value: Value, body: Expr):
        self.name = name
        self.type_value = type_value
        self.body = body
        self.thunk: Thunk | None = None


Entry = DataEntry | ConEntry | FunEntry | LetEntry


class Signature:
    """Append-only map from resolved idents to checked entries, in the order
    they were declared, and the tables of solved size holes and of size
    hypotheses.  Hole ids are unique in a program, so each solution is stored
    once, as a normal form that names no hole, when its clause or let is
    checked; the evaluator reads it wherever the hole is normalized.  So are
    uids, so each hypothesis is stored once, under its child's uid, when the
    child is bound (see `sizes`)."""

    __slots__ = ("entries", "holes", "hyps", "by_text")

    def __init__(self):
        self.entries: dict[int, Entry] = {}
        self.holes: dict[int, tuple] = {}
        self.hyps: dict[int, tuple[tuple, bool]] = {}
        # the first ident declared under each text: for a constructor name
        # reused across data types this is the earliest declaration
        self.by_text: dict[str, Ident] = {}

    def add(self, name: Ident, entry: Entry):
        assert name.uid not in self.entries
        self.entries[name.uid] = entry
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
