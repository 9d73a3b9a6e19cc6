"""Every arm of `checker.py` that rejects a program outside pattern
elaboration (which `tests/test_patterns.py` covers) gives its code, message
and position: the data declaration checks, the recursive-size check of a
sized constructor, the inference and checking arms, and the case rules.

A few rows need a shape no corpus program has: a data type with a parameter
of kind `Size -> Set`, which lets a sized type occur unapplied, short of its
size, or under a lambda inside a constructor's argument type.

Two more rows pin how the hole solver shifts a lower bound past the
successors written on the hole's side (`sizes.solve_metas`): one solves only
if the shift is made, one needs a predecessor and is rejected."""

from pathlib import Path

import pytest

from sizedcheck import check_source

NAT = """data Nat : Set
{ zero : Nat
; succ : Nat -> Nat
}
"""
SNAT = NAT + ("sized data SNat : Size -> Set\n{ szero : [i : Size] -> SNat ($ i)\n"
              "; ssucc : [i : Size] -> SNat i -> SNat ($ i)\n}\n")
WRAP = "data Wrap (F : Size -> Set) : Set { wrap : Wrap F }\n"

# (program, code, message, position)
REJECTIONS = {
    "data signature ending in Size": (
        "data D : Size { }\n",
        "TYPE-MISMATCH", "a data type signature must end in Set", (1, 1)),
    "data signature ending in a data type": (
        NAT + "data D : Nat -> Nat { }\n",
        "TYPE-MISMATCH", "a data type signature must end in Set", (5, 1)),
    "constructor of another type's target": (
        NAT + "data D : Set\n{ c : Nat\n}\n",
        "TYPE-MISMATCH", "constructor 'c' must target 'D'", (6, 3)),
    "recursive occurrence unapplied": (
        WRAP + "sized data D : Size -> Set\n{ c : [i : Size] -> Wrap D -> D ($ i)\n}\n",
        "SIZE-INDEX-SHAPE", "unapplied recursive occurrence of 'D' in 'c'", (3, 3)),
    "recursive occurrence short of its size": (
        WRAP + "sized data D (A : Set) : Size -> Set\n"
        "{ c : [i : Size] -> Wrap (D A) -> D A ($ i)\n}\n",
        "SIZE-INDEX-SHAPE", "recursive occurrence of 'D' in 'c' lacks its size index", (3, 3)),
    "recursive occurrence under a lambda": (
        WRAP + "sized data D : Size -> Set\n{ c : [i : Size] -> Wrap (\\ s -> D s) -> D ($ i)\n}\n",
        "SIZE-INDEX-SHAPE", "recursive occurrence of 'D' in 'c' must carry size exactly i",
        (3, 3)),
    "inferred lambda": (
        NAT + "let x : Nat = (\\ y -> y) zero\n",
        "TYPE-MISMATCH", "cannot infer the type of a lambda", (5, 16)),
    "inferred case": (
        NAT + "let x : Nat = (case zero { zero -> \\ y -> y }) zero\n",
        "TYPE-MISMATCH", "a case expression is only accepted where its type is known",
        (5, 16)),
    "function type checked against a data type": (
        NAT + "let x : Nat = Nat -> Nat\n",
        "TYPE-MISMATCH", "function type checked against 'Nat'", (5, 15)),
    "size case on a successor": (
        SNAT + "cofun f : [i : Size] -> SNat i\n{ f i = case ($ i) { ($ j) -> f j }\n}\n",
        "ADMISSIBILITY", "case on a size requires a plain size variable scrutinee", (10, 9)),
    "size case on a variable that is not a size": (
        NAT + "let f : Nat -> Nat = \\ x -> case x { ($ j) -> zero }\n",
        "TYPE-MISMATCH", "'x' is not a size variable", (5, 29)),
    "case on a type": (
        NAT + "let x : Set -> Nat = \\ A -> case A { zero -> zero }\n",
        "TYPE-MISMATCH", "case scrutinee must have a data type, got 'Set'", (5, 29)),
    "case branch of a variable": (
        NAT + "let x : Nat -> Nat = \\ n -> case n { m -> m }\n",
        "TYPE-MISMATCH", "case branches must match a constructor", (5, 38)),
}


@pytest.mark.parametrize("name", REJECTIONS)
def test_checker_rejection(name):
    src, code, message, pos = REJECTIONS[name]
    d = check_source(src, "<test>").diagnostic
    assert d is not None
    assert (d.code, d.message, d.pos) == (code, message, pos)


# the SNat of `corpus/accept/holes.ma`, then one let whose size hole has one
# lower bound: n's size shifted by the successors of `succ ($ _)`, which
# solves when n's size has a successor to spare and otherwise needs a
# predecessor of i
HOLES_SNAT = (Path(__file__).resolve().parent.parent / "corpus" / "accept"
              / "holes.ma").read_text().split("\n\n")[1] + "\n"
HOLE_BOUNDS = {
    "hole bound shifted by the hole's successor": (
        "let inc : [i : Size] -> SNat ($ i) -> SNat ($$ i) = \\ i -> \\ n -> succ ($ _) n\n",
        None),
    "hole bound that needs a predecessor": (
        "let inc : [i : Size] -> SNat i -> SNat ($ i) = \\ i -> \\ n -> succ ($ _) n\n",
        ("UNSOLVED-META", "size hole would need an expression 1 below i", (5, 1))),
}


@pytest.mark.parametrize("name", HOLE_BOUNDS)
def test_hole_lower_bound(name):
    src, want = HOLE_BOUNDS[name]
    d = check_source(HOLES_SNAT + src, "<test>").diagnostic
    assert (d and (d.code, d.message, d.pos)) == want
