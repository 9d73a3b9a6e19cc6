"""Every parameter of every function in the package is read in its body.

An AST scan, like `test_imports.py`: a parameter must be loaded somewhere in
the function's body, nested functions included.  `self` and `cls` are exempt,
and so are dunder methods, whose signatures the language fixes."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sizedcheck"


def _unread(tree: ast.Module) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{node.name}({p.arg}) line {node.lineno}" for p in params
                if p is not None and p.arg not in ("self", "cls") and p.arg not in read]
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread(ast.parse(path.read_text(), str(path))) == []
