"""Oracles for the evaluator's sharing.

The evaluator shares work three ways: the unfold memo (keyed by a thunk's
identity or a size's normal form), the value kept on a `Closure` (an arrow's
codomain, or a body at the closed size #), and thunks passed on and forced
once.  None of them may
change an outcome.  Each oracle runs the corpus and the four bench
workloads at seed 1 and compares with the evaluator as it is:

- with the memo off (`Evaluator._memo_key` returns a fresh key, so no
  unfolding is found again), every outcome is the same;
- with `Closure.value` never kept (every arrow codomain and every body at
  # evaluated afresh), every outcome is the same;
- every eval output, checked as `let x_sr : T = <output>` after its own
  program, is ACCEPT (type preservation).

A program that ends in FUEL or LIMIT on one side or on both, or whose
output is elided, is counted and named, not dropped: the tests assert which
programs these are.  Every program runs on the checker's worker thread
(`cli.run_deep`), so `nth 16 (fib #)`, whose output nests 987 deep, is
evaluated, read back and checked again like the others."""

from __future__ import annotations

import re

import pytest

from sizedcheck import check_source
from sizedcheck.cli import run_deep
from sizedcheck.evaluator import Evaluator
from sizedcheck.parser import parse_source
from sizedcheck.pretty import pretty
from sizedcheck.syntax import LetDecl
from sizedcheck.values import Closure, Thunk

from test_workload_snapshot import ROOT, _workloads, outcome

SEED = 1


def _programs() -> list[tuple[str, str, str]]:
    wl = _workloads()
    return [(w, p.name, p.source) for w in wl.WORKLOADS for p in wl.build(w, SEED, ROOT)]


@pytest.fixture(scope="module")
def programs():
    return _programs()


@pytest.fixture(scope="module")
def reference(programs):
    return run_deep(lambda: [outcome(w, n, s, True) for w, n, s in programs])


def _resource_end(row: dict) -> bool:
    d = row.get("diagnostic")
    return d is not None and d[0] in ("FUEL", "LIMIT")


def _differences(programs, reference) -> dict[str, list[str]]:
    """The programs that ran out of fuel or depth on one side or on both,
    and those whose outcome differs otherwise."""
    got = [outcome(w, n, s, True) for w, n, s in programs]
    found: dict[str, list[str]] = {"one side": [], "both": [], "differ": []}
    for want, row in zip(reference, got):
        if _resource_end(want) and _resource_end(row):
            found["both"].append(f"{row['workload']}/{row['program']}")
        elif want != row:
            side = "one side" if _resource_end(want) or _resource_end(row) else "differ"
            found[side].append(f"{row['workload']}/{row['program']}")
    return found


def test_memo_off_changes_no_outcome(programs, reference, monkeypatch):
    monkeypatch.setattr(Evaluator, "_memo_key", lambda self, th: object())
    found = run_deep(_differences, programs, reference)
    assert (found["differ"], found["one side"]) == ([], [])
    assert found["both"] == []


def test_unshared_arrow_codomains_change_no_outcome(programs, reference, monkeypatch):
    def close_afresh(self, clo: Closure, v):
        if clo.binder is None:
            return self.evaluate(clo.env, clo.body)
        return self.evaluate((clo.binder.uid, v if type(v) is Thunk else Thunk.of(v), clo.env),
                             clo.body)

    monkeypatch.setattr(Evaluator, "close", close_afresh)
    found = run_deep(_differences, programs, reference)
    assert (found["differ"], found["one side"]) == ([], [])
    assert found["both"] == []


_OUTPUT = re.compile(r"(\w+) = (.*)", re.S)


def _preservation(programs, reference):
    """(lets checked, programs whose lets were not ACCEPT, outputs that
    could not be checked by reason)."""
    checked, failures = 0, []
    skipped: dict[str, list[str]] = {"no output": [], "elided": []}
    for (w, name, source), ref in zip(programs, reference):
        if "exception" in ref:
            skipped["no output"].append(f"{w}/{name}")
            continue
        if not ref["outputs"]:
            continue
        types = {d.name.text: pretty(d.type) for d in parse_source(source)
                 if isinstance(d, LetDecl) and d.eval}
        lets = []
        for line in ref["outputs"]:
            x, value = _OUTPUT.fullmatch(line).groups()
            if "…" in value:
                skipped["elided"].append(f"{w}/{name}/{x}")
            else:
                lets.append(f"let {x}_sr : {types[x]} = {value}\n")
        r = check_source(source + "\n" + "".join(lets), name)
        checked += len(lets)
        if r.diagnostic is not None:
            failures.append((f"{w}/{name}", r.diagnostic.code, r.diagnostic.message))
    return checked, failures, skipped


def test_eval_outputs_have_their_types(programs, reference):
    checked, failures, skipped = run_deep(_preservation, programs, reference)
    assert failures == []
    assert checked == 35
    assert skipped["elided"] == ["corpus/accept/stream/rep"]
    # `nth 16 (fib #)` has its output, and its 987 nested `succ` parse again
    assert skipped["no output"] == []
