"""Every program of the four bench workloads, checked with and without the
constraint dump, against a snapshot; then each again with every `let` made
an `eval let`; then both variants again with the constraint dump and
`print_sizes`.

The programs are built by `bench/workloads.py` at seed 1.  The snapshot pins
what `check_source` returns for each: the diagnostic's code, position and
message, the eval output and the constraint dump, or, for an ending that is
not a diagnostic, the exception's class.  The rows of the `eval let` variant
come after the others and carry `"every_let_eval": true`; a known defect is
pinned as it is (`accept/ord` is STUCK-MATCH there, ROADMAP item 1).  The
`print_sizes` rows come last and carry `"print_sizes": true`.  Nothing under
`bench/` is changed.

The programs run on the checker's own worker thread (`cli.run_deep`), so the
Python stack they start from is the same under pytest as from the command
line, and an ending that depends on the recursion depth is the same in both.

Regenerate with `python tests/test_workload_snapshot.py` from the repository
root, with `src` on `PYTHONPATH`."""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

from sizedcheck import RunConfig, check_source
from sizedcheck.cli import run_deep

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = Path(__file__).resolve().parent / "workload_snapshot.json"
SEED = 1
LET = re.compile(r"^let\b", re.M)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def outcome(workload: str, name: str, source: str, dump: bool,
            every_let_eval: bool = False, sizes: bool = False) -> dict:
    row: dict = {"workload": workload, "program": name, "print_constraints": dump}
    if every_let_eval:
        row["every_let_eval"] = True
        source = LET.sub("eval let", source)
    if sizes:
        row["print_sizes"] = True
    try:
        r = check_source(source, name, RunConfig([], print_constraints=dump, print_sizes=sizes))
    except Exception as e:  # pinned as its class: a known crash stays known
        row["exception"] = type(e).__name__
        return row
    d = r.diagnostic
    row["diagnostic"] = None if d is None else [d.code, d.pos[0], d.pos[1], d.message]
    row["outputs"] = r.outputs
    row["constraints"] = r.constraint_dump
    return row


def outcomes() -> list[dict]:
    wl = _workloads()
    rows: list[dict] = []

    def run():
        for every_let_eval in (False, True):
            for workload in wl.WORKLOADS:
                for prog in wl.build(workload, SEED, ROOT):
                    for dump in (False, True):
                        rows.append(
                            outcome(workload, prog.name, prog.source, dump, every_let_eval))
        for every_let_eval in (False, True):
            for workload in wl.WORKLOADS:
                for prog in wl.build(workload, SEED, ROOT):
                    rows.append(
                        outcome(workload, prog.name, prog.source, True, every_let_eval, True))

    run_deep(run)
    return rows


def test_workload_outcomes_match_snapshot():
    want = json.loads(SNAPSHOT.read_text())
    got = outcomes()
    assert len(got) == len(want)
    diffs = [(k, w, g) for k, (w, g) in enumerate(zip(want, got)) if w != g]
    assert diffs == []


def _regenerate():
    rows = [json.dumps(r, ensure_ascii=False) for r in outcomes()]
    SNAPSHOT.write_text("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    _regenerate()
