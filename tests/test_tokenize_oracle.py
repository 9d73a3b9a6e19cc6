"""`tokenize` against the per-character tokenizer it replaced.

The oracle below is that tokenizer as it stood: a loop over the characters
of a source that yields (text, line, column) triples.  On every source the
two give the same token texts and the same (line, column) for each token,
eof included.  Where the oracle raises, `tokenize` raises the same PARSE
message at the same (line, column).  The sources are the corpus, the four
bench workloads at seeds 1-3, the front-end snapshot's mutants and a table
of edge rows."""

from __future__ import annotations

from pathlib import Path

import pytest

from sizedcheck.diagnostics import Diagnostic
from sizedcheck.parser import tokenize
from sizedcheck.syntax import LineTable

from test_frontend_snapshot import mutants
from test_workload_snapshot import _workloads

ROOT = Path(__file__).resolve().parent.parent

KEYWORDS = {
    "data", "sized", "codata", "fun", "cofun", "let", "eval",
    "case", "Size", "Set", "max",
}
MULTI_SYMBOLS = ("->", "++")
SINGLE_SYMBOLS = set(":;{}()[]=\\.$#_>|")


class _Fault(Exception):
    def __init__(self, message: str, pos: tuple[int, int]):
        self.message = message
        self.pos = pos


def oracle(source: str) -> list[tuple[str, int, int]]:
    toks = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c.isalpha():
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            toks.append((source[i:j], line, col))
            col += j - i
            i = j
            continue
        two = source[i : i + 2]
        if two in MULTI_SYMBOLS:
            toks.append((two, line, col))
            i += 2
            col += 2
            continue
        if c in SINGLE_SYMBOLS:
            toks.append((c, line, col))
            i += 1
            col += 1
            continue
        raise _Fault(f"illegal character {c!r}", (line, col))
    toks.append(("", line, col))
    return toks


def expected(source: str):
    try:
        return oracle(source)
    except _Fault as f:
        return ("PARSE", f.message, f.pos)


def got(source: str):
    lines = LineTable(source)
    try:
        toks = tokenize(source)
    except Diagnostic as d:
        return (d.code, d.message, lines.line_col(d.pos))
    return [(t, *lines.line_col(o)) for t, o in zip(toks.texts, toks.offsets)]


def differences(sources) -> list[str]:
    return [name for name, src in sources if got(src) != expected(src)]


EDGES = {
    "empty": "",
    "trailing comment": "let x -- no newline after it",
    "trailing comment after spaces": "x\n   -- c",
    "trailing comment line": "x\n-- c",
    "comment then a comment line": "x -- c\n  -- d",
    "comment of three dashes": "x ---",
    "arrow then comment": "x ->-- c",
    "comment closes an arrow": "x -->",
    "crlf": "a\r\nb\r\n",
    "tab": "a\tb",
    "vertical tab": "a\x0bb",
    "form feed": "a\x0cb",
    "lone dash": "a - b",
    "accented letter": "é",
    "combining mark": "a\u0301b",
    "prime": "x'",
    "underscore first": "_x",
    "superscript inside": "x²y",
    "superscript first": "²",
    "roman numeral": "Ⅻ",
    "arabic-indic digit": "٣x",
    "digit first": "1x",
    "illegal after a comment line": "a -- c\n  @",
    "two illegal characters": "a ² b\n@",
    "only whitespace": " \n\t\r\n ",
}


@pytest.mark.parametrize("name", EDGES)
def test_edge_rows(name):
    assert got(EDGES[name]) == expected(EDGES[name])


@pytest.mark.parametrize("src", ["²", "Ⅻ"])
def test_numeric_letters_are_illegal_at_their_start(src):
    # the regex class of a name's start takes them, str.isalpha does not
    assert got(src) == ("PARSE", f"illegal character {src!r}", (1, 1))


def test_corpus():
    sources = [(p.name, p.read_text()) for p in sorted((ROOT / "corpus").glob("*/*.ma"))]
    assert sources and differences(sources) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["corpus", "streams", "wide", "holes"])
def test_workloads(workload, seed):
    progs = _workloads().build(workload, seed, ROOT)
    assert progs and differences([(p.name, p.source) for p in progs]) == []


def test_front_end_mutants():
    assert differences(mutants()) == []
