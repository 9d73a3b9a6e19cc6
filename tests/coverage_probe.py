"""Which lines of `src/sizedcheck` do tier-1 and the golden corpus never run?

Run from the repository root:

    python tests/coverage_probe.py [pytest arguments]

It traces, with `sys.settrace` and `threading.settrace`, every line run in
`src/sizedcheck` while tier-1 runs in process (`pytest.main`, by default on
`tests`) and then `sizedcheck golden corpus` (`cli.main`).  A line is
executable when it is in the `co_lines()` of a code object that `compile`
makes of its module.  The report lists the unreached lines by function, then
their total.  Tests that spawn a subprocess run code the tracer does not
see, so most of `cli.py`'s unreached lines are reached that way.

It uses the standard library only, and its name does not start with `test_`,
so pytest does not collect it.  Tracing makes tier-1 several times slower, so
it is a report, not a gate."""

from __future__ import annotations

import contextlib
import io
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sizedcheck"


def executable_lines() -> dict[str, dict[int, str]]:
    """For each module file, its executable lines, each with the qualified
    name of the innermost code object that holds it."""
    out: dict[str, dict[int, str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines: dict[int, str] = {}
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            for _, _, line in code.co_lines():
                if line is not None:
                    # an inner code object's lines override its parent's
                    if code.co_qualname != "<module>" or line not in lines:
                        lines[line] = code.co_qualname
            todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        out[str(path)] = lines
    return out


def run_traced(pytest_args: list[str]) -> set[tuple[str, int]]:
    files = {str(p) for p in PACKAGE.glob("*.py")}
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename in files:
            reached.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    import pytest

    sys.path.insert(0, str(ROOT / "src"))

    class Retrace:
        """A thread stops being traced where a RecursionError reaches its
        trace function, as the deepest inputs do on the checker's worker
        thread, so the worker is traced again before each test."""

        @pytest.fixture(autouse=True)
        def retrace(self):
            from sizedcheck.cli import run_deep  # imported traced, by the first test

            run_deep(sys.settrace, global_)

    os.chdir(ROOT)
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        pytest.main(pytest_args, plugins=[Retrace()])
        from sizedcheck import cli

        cli.run_deep(sys.settrace, global_)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["golden", "corpus"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached


def main(argv: list[str]) -> int:
    reached = run_traced(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    total = missed = 0
    for path, lines in executable_lines().items():
        total += len(lines)
        by_function: dict[str, list[int]] = defaultdict(list)
        for line, qualname in sorted(lines.items()):
            if (path, line) not in reached:
                by_function[qualname].append(line)
        name = Path(path).name
        for qualname, unreached in by_function.items():
            missed += len(unreached)
            print(f"{name} {qualname}: {', '.join(map(str, unreached))}")
    print(f"unreached: {missed} of {total} executable lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
