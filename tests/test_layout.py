"""Every class of the package is written out with `__slots__`, and importing
the package loads nothing that only the CLI or a generator of classes needs.

An AST scan, like `test_imports.py`: no module imports `dataclasses`, and
every class but an `Enum` declares `__slots__` in its own body, so no
instance carries a dict and no class is generated at import.  A fresh
interpreter then shows that `import sizedcheck` adds none of `dataclasses`,
`argparse` or `difflib` to `sys.modules`.  A last scan keeps the token
stream free of `Token` objects and of `sys.intern`."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sizedcheck import parse_source
from sizedcheck.evaluator import _ERASED
from sizedcheck.sizes import INFTY_SIZE, Rel, SizeConstraint, normalize, ns_var
from sizedcheck.syntax import Ident, LineTable

from conftest import CORPUS, build
from oracle import parse_size

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "sizedcheck").glob("*.py"))


def _faults(tree: ast.Module) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [f"imports {a.name} (line {node.lineno})" for a in node.names
                    if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            out.append(f"imports from dataclasses (line {node.lineno})")
        elif isinstance(node, ast.ClassDef):
            if any(isinstance(b, ast.Name) and b.id == "Enum" for b in node.bases):
                continue
            declared = {t.id for stmt in node.body if isinstance(stmt, ast.Assign)
                        for t in stmt.targets if isinstance(t, ast.Name)}
            if "__slots__" not in declared:
                out.append(f"class {node.name} has no __slots__ (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_classes_are_slotted_and_not_generated(path):
    assert _faults(ast.parse(path.read_text(), str(path))) == []


def _front_end_faults(tree: ast.Module) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "intern":
            out.append(f"reads .intern (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and any(a.name == "intern" for a in node.names):
            out.append(f"imports intern (line {node.lineno})")
        elif isinstance(node, ast.ClassDef) and node.name == "Token":
            out.append(f"class Token (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_token_objects_or_global_interning(path):
    """Tokens are two lists, not an object each, and names are shared by a
    dict of one source, not by the interpreter's table of interned strings."""
    assert _front_end_faults(ast.parse(path.read_text(), str(path))) == []


def test_import_loads_no_cli_or_class_generator_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = ("import sys; before = set(sys.modules); import sizedcheck; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    added = set(out.split())
    assert "sizedcheck.checker" in added  # the probe imported the package
    assert added & {"dataclasses", "argparse", "difflib"} == set()


# -- what the slotted classes keep ---------------------------------------------


def _hole_ids():
    # a hole is its int id, numbered in source order from 1
    pairs, _ = parse_size("max _ (max ($ _) _)")
    assert pairs == ((1, 0), (2, 1), (3, 0))
    assert all(type(b) is int for b, _ in pairs)


def _erased_is_no_hole():
    # an erased argument reads back as the hole -1, which no program has, so
    # the table of solved holes never holds it
    assert _ERASED.size == ((-1, 0),)
    ch, _, outputs = build((CORPUS / "accept" / "holes.ma").read_text())
    assert sorted(ch.sig.holes) == [1, 2, 3, 4, 5]
    assert outputs and "_" in outputs[0]


def _one_pair_is_its_normal_form():
    x = Ident("x", 5)
    for ns in (ns_var(x), ns_var(x, 2), ((3, 1),), INFTY_SIZE):
        assert normalize(ns) is ns


def _assign(obj, field, value):
    def row():
        with pytest.raises(AttributeError):
            setattr(obj(), field, value)
    return row


def _ident_by_uid():
    assert Ident("x", 5) == Ident("y", 5) and Ident("x", 5) != Ident("x", 6)
    assert hash(Ident("x", 5)) == 5 and len({Ident("x", 5), Ident("y", 5)}) == 1


def _no_fault():
    decls = parse_source("data Nat : Set { zero : Nat }\nlet z : Nat = zero\n")
    assert [d.fault for d in decls] == [None, None]


def _recorded_fault():
    src = "data Nat : Set { zero : Nat }\nlet z : Nat = one\nlet y : Nat = zero\n"
    decls = parse_source(src)
    assert decls[0].fault is None and decls[2].fault is None
    fault = decls[1].fault
    assert (fault.code, LineTable(src).line_col(fault.pos)) == ("UNBOUND", (2, 15))


KEPT = {
    "hole-ids-are-ints-from-1": _hole_ids,
    "erased-hole-never-solved": _erased_is_no_hole,
    "one-pair-size-is-its-normal-form": _one_pair_is_its_normal_form,
    "constraint-immutable": _assign(
        lambda: SizeConstraint(((1, 0),), Rel.LE, ((2, 0),)), "rel", Rel.LT),
    "ident-equality-by-uid": _ident_by_uid,
    "fault-none-when-clean": _no_fault,
    "fault-as-recorded": _recorded_fault,
}


@pytest.mark.parametrize("row", KEPT.values(), ids=KEPT.keys())
def test_kept_semantics(row):
    row()
