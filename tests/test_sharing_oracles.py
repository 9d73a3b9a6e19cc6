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

A program that ends in FUEL or `RecursionError` on one side or on both, or
whose output is elided or nested too deeply for the parser, is counted and
named, not dropped: the tests assert which programs these are."""

from __future__ import annotations

import re
import threading

import pytest

from sizedcheck import check_source
from sizedcheck.evaluator import Evaluator
from sizedcheck.parser import parse_source
from sizedcheck.pretty import pretty
from sizedcheck.syntax import LetDecl
from sizedcheck.values import Closure, Thunk

from test_workload_snapshot import ROOT, _workloads, outcome

SEED = 1


def _on_worker(fn):
    """fn() on one worker thread, so the stack it starts from is the same
    under pytest as from the command line."""
    box = []
    worker = threading.Thread(target=lambda: box.append(fn()))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and box, "the worker raised or did not finish"
    return box[0]


def _programs() -> list[tuple[str, str, str]]:
    wl = _workloads()
    return [(w, p.name, p.source) for w in wl.WORKLOADS for p in wl.build(w, SEED, ROOT)]


@pytest.fixture(scope="module")
def programs():
    return _programs()


@pytest.fixture(scope="module")
def reference(programs):
    return _on_worker(lambda: [outcome(w, n, s, True) for w, n, s in programs])


def _resource_end(row: dict) -> bool:
    d = row.get("diagnostic")
    return row.get("exception") == "RecursionError" or (d is not None and d[0] == "FUEL")


def _differences(programs, reference) -> dict[str, list[str]]:
    """The programs that ran out of fuel or stack on one side or on both,
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


# the one program whose value is deep enough to need the evaluator's loops
# at the default recursion limit; where they are missing it runs out of
# stack on both sides, which the oracles count but cannot compare
BOTH_ENDED = {"streams/fib16"}


def test_memo_off_changes_no_outcome(programs, reference, monkeypatch):
    monkeypatch.setattr(Evaluator, "_memo_key", lambda self, th: object())
    found = _on_worker(lambda: _differences(programs, reference))
    assert (found["differ"], found["one side"]) == ([], [])
    assert set(found["both"]) <= BOTH_ENDED


def test_unshared_arrow_codomains_change_no_outcome(programs, reference, monkeypatch):
    def close_afresh(self, clo: Closure, v):
        if clo.binder is None:
            return self.evaluate(clo.env, clo.body)
        return self.evaluate((clo.binder.uid, v if type(v) is Thunk else Thunk.of(v), clo.env),
                             clo.body)

    monkeypatch.setattr(Evaluator, "close", close_afresh)
    found = _on_worker(lambda: _differences(programs, reference))
    assert (found["differ"], found["one side"]) == ([], [])
    assert set(found["both"]) <= BOTH_ENDED


_OUTPUT = re.compile(r"(\w+) = (.*)", re.S)


def _preservation(programs, reference):
    """(lets checked, programs whose lets were not ACCEPT, outputs that
    could not be checked by reason)."""
    checked, failures = 0, []
    skipped: dict[str, list[str]] = {"no output": [], "elided": [], "too deep": []}
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
        try:
            r = check_source(source + "\n" + "".join(lets), name)
        except RecursionError:
            skipped["too deep"].append(f"{w}/{name}")
            continue
        checked += len(lets)
        if r.diagnostic is not None:
            failures.append((f"{w}/{name}", r.diagnostic.code, r.diagnostic.message))
    return checked, failures, skipped


def test_eval_outputs_have_their_types(programs, reference):
    checked, failures, skipped = _on_worker(lambda: _preservation(programs, reference))
    assert failures == []
    assert checked == 34
    assert skipped["elided"] == ["corpus/accept/stream/rep"]
    # `nth 16 (fib #)` has no output where evaluation runs out of stack,
    # and its 987 nested `succ` are deeper than the parser reads
    assert skipped["no output"] + skipped["too deep"] == ["streams/fib16"]
