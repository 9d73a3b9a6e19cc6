"""Every arm of `checker.py` that rejects a program outside pattern
elaboration (which `tests/test_patterns.py` covers) gives its code, message
and position: the data declaration checks, the recursive-size check of a
sized constructor, the inference and checking arms, and the case rules.

A few rows need a shape no corpus program has: a data type with a parameter
of kind `Size -> Set`, which lets a sized type occur unapplied, short of its
size, or under a lambda inside a constructor's argument type.

Accepted programs pin what a rule lets through, with their eval output: a
size case whose siblings still read the size it refines, a cofun argument
that is sized inductive at exactly the matched size, and a size hole whose
one lower bound is #.

Two more rows pin how the hole solver shifts a lower bound past the
successors written on the hole's side (`sizes.solve_metas`): one solves only
if the shift is made, one needs a predecessor and is rejected.

The last rows pin the scope of a hole's solution: a hole may be solved only
by variables bound where it is written.  A hole outside a case whose
branches bind `j` by a size pattern, bounded below only by sizes in `j`, is
UNSOLVED-META at its let; holes inside the branch that binds `j` solve."""

from pathlib import Path

import pytest

from sizedcheck import RunConfig, check_source

NAT = """data Nat : Set
{ zero : Nat
; succ : Nat -> Nat
}
"""
SNAT = NAT + ("sized data SNat : Size -> Set\n{ szero : [i : Size] -> SNat ($ i)\n"
              "; ssucc : [i : Size] -> SNat i -> SNat ($ i)\n}\n")
WRAP = "data Wrap (F : Size -> Set) : Set { wrap : Wrap F }\n"
STREAM = ("sized codata Stream ++(A : Set) : Size -> Set\n"
          "{ cons : [i : Size] -> A -> Stream A i -> Stream A ($ i)\n}\n")
ZEROS = "cofun zs : [i : Size] -> Stream Nat i\n{ zs ($ i) = cons Nat i zero (zs i)\n}\n"

# (program, code, message, position)
REJECTIONS = {
    "data signature ending in Size": (
        "data D : Size { }\n",
        "TYPE-MISMATCH", "a data type signature must end in Set", (1, 1)),
    "data signature ending in a data type": (
        NAT + "data D : Nat -> Nat { }\n",
        "TYPE-MISMATCH", "a data type signature must end in Set", (5, 1)),
    "sized constructor with an arrow size binder": (
        NAT + "sized data SNat : Size -> Set\n{ zero : Size -> SNat ($ #)\n}\n",
        "SIZE-INDEX-SHAPE",
        "constructor 'zero' of a sized type must name its size binder, as in '[i : Size] ->'",
        (6, 3)),
    # the parser makes an unread relevant size binder an arrow
    "sized constructor with an unread size binder": (
        NAT + "sized data SNat : Size -> Set\n{ zero : (i : Size) -> SNat #\n}\n",
        "SIZE-INDEX-SHAPE",
        "constructor 'zero' of a sized type must name its size binder, as in '[i : Size] ->'",
        (6, 3)),
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
    "cofun argument sized inductive above the matched size": (
        SNAT + STREAM + ZEROS
        + "cofun g : [i : Size] -> SNat ($ i) -> Stream Nat i\n"
        "{ g ($ i) n = cons Nat i zero (zs i)\n}\n",
        "ADMISSIBILITY",
        "argument type 'SNat ($ i)' is neither antitone nor sized inductive at 'i'", (16, 5)),
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


# (program, eval output)
ACCEPTS = {
    # the branch rebinds i to $ j; the sibling argument `f i` must still
    # read i, so the branch binds into a copy of the clause's context
    "size case beside a use of its scrutinee": (
        NAT + STREAM + "fun two : [A : Set] -> A -> A -> A\n{ two A x y = x\n}\n"
        "cofun f : [i : Size] -> Stream Nat i\n"
        "{ f ($ i) = cons Nat i zero (two (Stream Nat i) "
        "(case i { ($ j) -> cons Nat j zero (f j) }) (f i))\n}\n",
        []),
    "cofun argument sized inductive at the matched size": (
        SNAT + STREAM + ZEROS
        + "cofun g : [i : Size] -> SNat i -> Stream Nat i\n"
        "{ g ($ i) n = cons Nat i zero (zs i)\n}\n",
        []),
    "size hole bounded below by #": (
        SNAT + "eval let a : SNat # = ssucc _ (szero #)\n",
        ["a = ssucc _ (szero _)"]),
}


@pytest.mark.parametrize("name", ACCEPTS)
def test_checker_acceptance(name):
    src, outputs = ACCEPTS[name]
    result = check_source(src, "<test>")
    assert result.diagnostic is None
    assert result.outputs == outputs


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


# `g _` outside the case takes a size in the branches' j, which only the
# branches bind
G_HASH = "fun g : [k : Size] -> SNat k -> SNat # { g k n = zero # }\n"
G_SAME = "fun g : [k : Size] -> SNat k -> SNat k { g k n = n }\n"
LET_HASH = "let f : [i : Size] -> SNat i -> SNat # = \\ i -> \\ n -> g _ "
SCOPE_ESCAPES = {
    "two branches": (
        G_HASH + LET_HASH
        + "(case n { (zero (i > j)) -> zero j ; (succ (i > j) x) -> x })\n", "max(j+1, j)"),
    "two branches of zero j": (
        G_HASH + LET_HASH
        + "(case n { (zero (i > j)) -> zero j ; (succ (i > j) x) -> zero j })\n",
        "max(j+1, j+1)"),
    "one branch": (
        G_HASH + LET_HASH + "(case n { (succ (i > j) x) -> x })\n", "j"),
    "two branches at the let's own size": (
        G_SAME + "let f : [i : Size] -> SNat i -> SNat i = \\ i -> \\ n -> g _ "
        "(case n { (zero (i > j)) -> zero j ; (succ (i > j) x) -> x })\n", "max(j+1, j)"),
}


@pytest.mark.parametrize("name", SCOPE_ESCAPES)
def test_hole_solved_out_of_its_scope(name):
    src, solution = SCOPE_ESCAPES[name]
    d = check_source(HOLES_SNAT + src, "<test>").diagnostic
    assert d is not None
    assert (d.code, d.message, d.pos) == (
        "UNSOLVED-META",
        f"size hole ?1 would be {solution}, but 'j' is not bound where the hole is written",
        (6, 1))


def test_holes_inside_the_branch_that_binds_j():
    src = (HOLES_SNAT + "let f : [i : Size] -> SNat i -> SNat ($ i) = \\ i -> \\ n -> "
           "case n { (zero (i > j)) -> succ _ (zero j) ; (succ (i > j) x) -> succ _ (succ _ x) }\n")
    result = check_source(src, "<test>", RunConfig([], print_constraints=True))
    assert result.diagnostic is None
    assert result.constraint_dump == [
        "-- f", "j+1 <= m1", "m1+1 <= i+1", "j <= m2", "m2+1 <= m3", "m3+1 <= i+1"]
