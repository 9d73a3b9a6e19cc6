"""Byte-for-byte snapshot of `sizedcheck check` on every corpus file.

Golden pins only diagnostic codes and plain eval output.  This pins the rest
of what a user sees: diagnostic messages and positions, `--print-sizes`
(the filled size holes), `--print-depth` elision and the constraint dump.

Regenerate with `python tests/test_cli_snapshot.py` from the repository root;
that runs `python -m sizedcheck check` as a separate interpreter per case."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = Path(__file__).resolve().parent / "cli_snapshot.json"
FLAGS = [[], ["--print-sizes"], ["--print-depth", "0"], ["--print-depth", "6"],
         ["--print-constraints"]]


def cases() -> list[list[str]]:
    files = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "corpus").glob("*/*.ma"))
    return [["check", *flags, f] for f in files for flags in FLAGS]


def _load() -> dict[str, dict]:
    return {" ".join(c["args"]): c for c in json.loads(SNAPSHOT.read_text())}


@pytest.mark.parametrize("args", cases(), ids=" ".join)
def test_cli_output_matches_snapshot(args, monkeypatch):
    from sizedcheck.cli import main

    want = _load()[" ".join(args)]
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert (code, out.getvalue(), err.getvalue()) == (
        want["exit"], want["stdout"], want["stderr"]
    )


def _regenerate():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    snap = []
    for args in cases():
        r = subprocess.run([sys.executable, "-m", "sizedcheck", *args], cwd=ROOT,
                           capture_output=True, text=True, env=env, timeout=120)
        snap.append({"args": args, "exit": r.returncode, "stdout": r.stdout,
                     "stderr": r.stderr})
    SNAPSHOT.write_text(json.dumps(snap, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    _regenerate()
