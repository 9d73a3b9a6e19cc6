"""Every verdict on identifier mutants of the corpus programs.

Each mutant is a corpus program, comments left out, with one or two of its
identifier, `#`, `$` or `_` tokens replaced by another such token of the
same program, drawn with `random.Random(0)`.  A name that resolves to the
wrong binder shows as a different verdict, so the snapshot pins the outcome
of every mutant, whatever its code: the diagnostic's code, position and
message and the eval output, or, for an ending that is not a diagnostic, the
exception's class.

The mutants run on the checker's own worker thread (`cli.run_deep`), so the
Python stack they start from is the same under pytest as from the command
line.

Regenerate with `python tests/test_resolution_snapshot.py` from the
repository root, with `src` on `PYTHONPATH`."""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

from sizedcheck import check_source
from sizedcheck.cli import run_deep

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = Path(__file__).resolve().parent / "resolution_snapshot.json"
MUTANTS = 1000
KEYWORDS = {
    "data", "sized", "codata", "fun", "cofun", "let", "eval",
    "case", "Size", "Set", "max",
}
# the surface tokens, as in test_frontend_snapshot.py
_TOKEN = re.compile(r"--[^\n]*|\n|[^\W\d_][\w']*|->|\+\+|\S")


def _swappable(t: str) -> bool:
    return t in ("#", "$", "_") or (t[0].isalpha() and t not in KEYWORDS)


def mutants() -> list[tuple[str, str]]:
    """(corpus file, mutated source) pairs, the same on every run."""
    rng = random.Random(0)
    programs = []
    for p in sorted((ROOT / "corpus").glob("*/*.ma")):
        toks = [t for t in _TOKEN.findall(p.read_text()) if not t.startswith("--")]
        programs.append((p.relative_to(ROOT).as_posix(), toks))
    out = []
    for _ in range(MUTANTS):
        name, toks = rng.choice(programs)
        toks = list(toks)
        spots = [k for k, t in enumerate(toks) if _swappable(t)]
        pool = [toks[k] for k in spots]
        for _ in range(rng.randint(1, 2)):
            toks[rng.choice(spots)] = rng.choice(pool)
        out.append((name, re.sub(r" ?\n ?", "\n", " ".join(toks))))
    return out


def outcome(name: str, source: str) -> dict:
    row: dict = {"program": name, "sha1": hashlib.sha1(source.encode()).hexdigest()[:12]}
    try:
        r = check_source(source, name)
    except Exception as e:  # pinned as its class: a known crash stays known
        row["exception"] = type(e).__name__
        return row
    d = r.diagnostic
    row["diagnostic"] = None if d is None else [d.code, d.pos[0], d.pos[1], d.message]
    row["outputs"] = r.outputs
    return row


def outcomes() -> list[dict]:
    rows: list[dict] = []

    def run():
        rows.extend(outcome(name, src) for name, src in mutants())

    run_deep(run)
    return rows


def test_mutant_outcomes_match_snapshot():
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
