"""The totality report of every fun and cofun: the rule that accepted it, the
argument it rests on, and one row per recursive call with the call's
position, its size relation and its structural relation at each argument.

Each row is checked in process, so a tracer sees `TotalityReport.render`.
The corpus rows cover every fun and cofun of `corpus/accept`.  The other
rows reach what no corpus program does: a TERMINATION and a PRODUCTIVITY
rejection, a call whose size grows (`size ?`), a call whose size argument
is a hole, and a self-call that passes fewer arguments than its clause has
patterns (`?` for each one missing)."""

import pytest

from sizedcheck import check_source
from sizedcheck.signature import FunEntry

from conftest import CORPUS, NAT, STREAM

# file -> the rendered report of each fun and cofun, in declaration order
CORPUS_REPORTS = {
    "fib": [
        "add: structural on argument 0\n  call add at 10:32: size ? args [sub eq]",
        "head: non-recursive",
        "tail: non-recursive",
        "adds: size-descent on argument 0\n  call adds at 27:37: size < args [? sub sub]",
        "fib: size-descent on argument 0\n  call fib at 32:52: size < args [?]\n"
        "  call fib at 32:72: size < args [?]",
        "nth: structural on argument 0\n  call nth at 37:27: size ? args [sub ?]",
    ],
    "holes": [],
    "maxs": [
        "max2: size-descent on argument 0\n  call max2 at 12:79: size < args [? sub sub]",
        "Maxs: structural on argument 0\n  call Maxs at 17:41: size <= args [sub ?]",
        "maxs: structural on argument 0\n  call maxs at 22:42: size <= args [sub ? ?]",
    ],
    "merge_ham": [
        "add: structural on argument 0\n  call add at 11:32: size ? args [sub eq]",
        "leq: structural on argument 0\n  call leq at 20:45: size ? args [sub sub eq eq eq]",
        "head: non-recursive",
        "tail: non-recursive",
        "map: size-descent on argument 2\n  call map at 37:67: size < args [eq eq ? eq sub]",
        "merge: size-descent on argument 0\n  call merge at 43:36: size < args [? sub ?]\n"
        "  call merge at 44:51: size < args [? ? sub]",
        "ham: size-descent on argument 0\n  call ham at 49:53: size < args [?]\n"
        "  call ham at 50:53: size < args [?]",
        "nth: structural on argument 0\n  call nth at 55:27: size ? args [sub ?]",
    ],
    "minus_div": [
        "minus: size-descent on argument 0\n  call minus at 12:52: size < args [? sub sub]",
        "div: size-descent on argument 0\n  call div at 17:58: size < args [? ? eq]",
    ],
    "ord": ["emb: structural on argument 0\n  call emb at 28:27: size ? args [sub]"],
    "rose": [
        "mapList: structural on argument 3\n  call mapList at 11:62: size ? args [eq eq eq sub]",
        "mapRose: size-descent on argument 3\n  call mapRose at 21:64: size < args [eq eq eq ? ?]",
    ],
    "snat_parametric": ["pred: non-recursive"],
    "snat_relevant": ["pred: non-recursive"],
    "stream": [
        "head: non-recursive",
        "tail: non-recursive",
        "repeat: size-descent on argument 2\n  call repeat at 22:45: size < args [eq eq ?]",
        "map: size-descent on argument 2\n  call map at 27:67: size < args [eq eq ? eq sub]",
    ],
    "streameq": [
        "repeat: size-descent on argument 2\n  call repeat at 9:45: size < args [eq eq ?]",
        "map: size-descent on argument 2\n  call map at 14:67: size < args [eq eq ? eq sub]",
        "map_repeat: size-descent on argument 2\n"
        "  call map_repeat at 28:24: size < args [eq eq ? eq eq]",
    ],
}


def test_every_corpus_program_has_a_row():
    assert sorted(CORPUS_REPORTS) == sorted(p.stem for p in (CORPUS / "accept").glob("*.ma"))


@pytest.mark.parametrize("name", CORPUS_REPORTS)
def test_corpus_report(name):
    r = check_source((CORPUS / "accept" / f"{name}.ma").read_text(), name)
    assert r.diagnostic is None
    reports = [e.report for e in r.signature.entries.values() if isinstance(e, FunEntry)]
    assert [rep.render() for rep in reports] == CORPUS_REPORTS[name]
    for rep in reports:
        # the rule and argument the first line shows are the report's own
        assert rep.rule in ("size-descent", "structural", "non-recursive")
        assert (rep.position is None) == (rep.rule == "non-recursive")


SNAT = NAT + ("sized data SNat : Size -> Set\n{ szero : [i : Size] -> SNat ($ i)\n"
              "; ssucc : [i : Size] -> SNat i -> SNat ($ i)\n}\n")

# (program, the fun, its report, and the rejection's code, message and
# position, or None for an accepted program)
ROWS = {
    "spin": (
        (CORPUS / "reject" / "spin.ma").read_text(), "spin",
        "spin: rejected\n  call spin at 9:21: size <= args [? eq]",
        ("TERMINATION", "cannot justify recursive calls of 'spin': spin at 9:21", (9, 3))),
    "productivity": (
        NAT + STREAM + "cofun bad : [i : Size] -> Stream Nat i\n{ bad i = bad i\n}\n", "bad",
        "bad: rejected\n  call bad at 11:15: size <= args [?]",
        ("PRODUCTIVITY", "cannot justify recursive calls of 'bad': bad at 11:15", (11, 3))),
    "growing size": (
        SNAT + "fun grow : [i : Size] -> SNat i -> Nat\n{ grow i n = grow ($ i) n\n}\n",
        "grow",
        "grow: rejected\n  call grow at 11:25: size ? args [? eq]",
        ("TERMINATION", "cannot justify recursive calls of 'grow': grow at 11:25", (11, 3))),
    # the hole is read through its solution, j, which is below i
    "hole as the size argument": (
        SNAT + "fun f : [i : Size] -> SNat i -> Nat\n{ f i (szero (i > j)) = zero\n"
        "; f i (ssucc (i > j) n) = f _ n\n}\n", "f",
        "f: size-descent on argument 0\n  call f at 12:31: size < args [? sub]",
        None),
    "fewer arguments than patterns": (
        NAT + "fun app : (Nat -> Nat) -> Nat -> Nat\n{ app k m = k m\n}\n"
        "fun f : Nat -> Nat -> Nat\n{ f zero m = m\n; f (succ n) m = app (f n) m\n}\n", "f",
        "f: structural on argument 0\n  call f at 11:25: size ? args [sub ?]",
        None),
}


@pytest.mark.parametrize("name", ROWS)
def test_report(name):
    src, fun, report, rejection = ROWS[name]
    r = check_source(src, name)
    d = r.diagnostic
    if rejection is None:
        assert d is None
        rep = r.signature.fun(r.signature.by_text[fun]).report
    else:
        assert (d.code, d.message, d.pos) == rejection
        rep = d.report
    assert rep.render() == report
