"""Stable diagnostic codes and the error type carried by every rejection."""

from __future__ import annotations

from sys import getrecursionlimit
from typing import TYPE_CHECKING

from .syntax import NOPOS, Pos, Record

if TYPE_CHECKING:
    from .totality import TotalityReport

# The catalog of stable codes; golden expectations match on these.
CODES = (
    "UNBOUND",
    "DUPLICATE",
    "PARSE",
    "TYPE-MISMATCH",
    "NOT-A-FUNCTION",
    "PARAMETRIC-VIOLATION",
    "SIZE-INDEX-SHAPE",
    "SIZE-MONOTONICITY",
    "POSITIVITY",
    # a constructor's size slot holds the wrong form: anything but (i > j) at
    # a variable size i, a non-dot at a successor or # size, or a max-shaped size
    "SIZE-PATTERN-REQUIRED",
    "ILLEGAL-SIZE-REFINEMENT",
    "COFUN-MATCH-ON-VARIABLE-SIZE",
    # a dot whose value differs from the forced one or that nothing forces,
    # or a non-dot pattern in a forced parameter slot
    "DOT-MISMATCH",
    "ADMISSIBILITY",
    "TERMINATION",
    "PRODUCTIVITY",
    "UNSOLVED-META",
    # runtime guards, outside the type-level catalog
    "FUEL",
    "STUCK-MATCH",
    # an implementation limit: a size offset past sizes.MAX_OFFSET, or an
    # input that nests deeper than the recursion limit (cli.RECURSION_LIMIT)
    "LIMIT",
)


class Diagnostic(Record, Exception):
    __slots__ = ("code", "message", "pos", "file", "report")

    def __init__(self, code: str, message: str, pos: Pos = NOPOS, file: str | None = None,
                 report: TotalityReport | None = None):
        self.code = code
        self.message = message
        self.pos = pos  # a source offset; `check_source` shows it as (line, column)
        self.file = file
        self.report = report  # the call table of a TERMINATION or PRODUCTIVITY rejection

    def render(self) -> str:
        pos = self.pos
        where = f"{pos[0]}:{pos[1]}" if isinstance(pos, tuple) else f"@{pos}"
        return f"{self.code} {self.file or '<input>'}:{where} {self.message}"

    def __str__(self):
        return self.render()


def too_deep(pos: Pos) -> Diagnostic:
    """LIMIT at pos for a RecursionError: what is read or checked there nests too deep."""
    return Diagnostic("LIMIT", f"nesting exceeds the recursion limit of {getrecursionlimit()}", pos)
