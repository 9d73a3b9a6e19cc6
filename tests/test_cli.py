"""The command-line entry point, run as a separate interpreter."""

import os
import subprocess
import sys
from pathlib import Path

from conftest import CORPUS

SRC = Path(__file__).resolve().parent.parent / "src"


def test_module_entry_point_runs_golden_without_warnings():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-m", "sizedcheck", "golden", str(CORPUS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert "RuntimeWarning" not in r.stderr
    assert r.stdout.count("PASS ") == len(list(CORPUS.glob("*/*.ma")))
