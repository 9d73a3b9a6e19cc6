"""Front-end diagnostics on token mutants of the corpus programs.

Each mutant is a corpus program with one to three tokens dropped, swapped or
duplicated, drawn with `random.Random(0)`.  The snapshot pins the code, line,
column and message of every PARSE, UNBOUND or DUPLICATE diagnostic, and pins
that the other mutants get past parsing and scope checking.

Regenerate with `python tests/test_frontend_snapshot.py` from the repository
root, with `src` on `PYTHONPATH`."""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

from sizedcheck import check_source

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = Path(__file__).resolve().parent / "frontend_snapshot.json"
MUTANTS = 1500
FRONT_END = ("PARSE", "UNBOUND", "DUPLICATE")
# the surface tokens, lexed apart from sizedcheck's own tokenizer; a comment
# is one match and is left out of the mutants
_TOKEN = re.compile(r"--[^\n]*|\n|[^\W\d_][\w']*|->|\+\+|\S")


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
        for _ in range(rng.randint(1, 3)):
            spots = [k for k, t in enumerate(toks) if t != "\n"]
            i = rng.choice(spots)
            op = rng.choice(("drop", "swap", "duplicate"))
            if op == "drop":
                del toks[i]
            elif op == "swap":
                j = rng.choice(spots)
                toks[i], toks[j] = toks[j], toks[i]
            else:
                toks.insert(i, toks[i])
        out.append((name, re.sub(r" ?\n ?", "\n", " ".join(toks))))
    return out


def outcome(name: str, source: str) -> dict:
    d = check_source(source, name).diagnostic
    front = None
    if d is not None and d.code in FRONT_END:
        front = [d.code, d.pos[0], d.pos[1], d.message]
    return {
        "program": name,
        "sha1": hashlib.sha1(source.encode()).hexdigest()[:12],
        "diagnostic": front,
    }


def test_mutant_diagnostics_match_snapshot():
    want = json.loads(SNAPSHOT.read_text())
    got = [outcome(name, src) for name, src in mutants()]
    assert len(got) == len(want)
    diffs = [(k, w, g) for k, (w, g) in enumerate(zip(want, got)) if w != g]
    assert diffs == []


def test_snapshot_covers_every_front_end_code():
    want = json.loads(SNAPSHOT.read_text())
    assert len(want) >= 1000
    codes = {r["diagnostic"][0] for r in want if r["diagnostic"] is not None}
    assert codes == set(FRONT_END)


def _regenerate():
    rows = [json.dumps(outcome(name, src), ensure_ascii=False) for name, src in mutants()]
    SNAPSHOT.write_text("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    _regenerate()
