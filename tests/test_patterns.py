"""Patterns, in two senses.  No class pattern in the package takes positional
sub-patterns, and every arm of the checker's pattern elaboration that rejects
a pattern gives its code, message and position.

CPython 3.11 looks `__match_args__` up with a new string each time it runs a
positional class pattern such as `Var(x)`, and its type attribute cache may
keep that string after the match, up to one per cache slot (about 250 KB).
That memory is carried from one program to the next, so it shows in peak
memory.  A keyword pattern such as `Var(name=x)` reads the attribute directly,
in about half the time."""

import ast
from pathlib import Path

import pytest

from sizedcheck import check_source

SRC = Path(__file__).resolve().parent.parent / "src" / "sizedcheck"


def test_no_positional_class_patterns():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.MatchClass) and node.patterns:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# -- pattern rejections -------------------------------------------------------

NAT = """data Nat : Set
{ zero : Nat
; succ : Nat -> Nat
}
"""
BOX = NAT + "data Box : Set { box : (i : Size) -> Box }\n"
CODATA = NAT + "sized codata S : Size -> Set { c : [i : Size] -> S i -> S ($ i) }\n"
LIST = NAT + "data List (A : Set) : Set { nil : List A ; cons : A -> List A -> List A }\n"
SNAT = NAT + ("sized data SNat : Size -> Set\n{ szero : [i : Size] -> SNat ($ i)\n"
              "; ssucc : [i : Size] -> SNat i -> SNat ($ i)\n}\n")
BOOL = NAT + "data Bool : Set { tt : Bool ; ff : Bool }\n"
VEC = NAT + ("data Vec (A : Set) : Nat -> Set\n{ nil : Vec A zero\n"
             "; cons : (n : Nat) -> A -> Vec A n -> Vec A (succ n)\n}\n")

ONLY_VARIABLES = "only variable patterns may match an inner size argument"
SIZE_REL_OUTSIDE = "size patterns (i > j) belong inside constructor patterns"

# one row per arm of pattern elaboration: a clause argument at a Size binder,
# at a data binder, an inner size argument of a constructor pattern, and a
# case branch; (program, code, message, position)
REJECTIONS = {
    "size binder, dot": (
        NAT + "fun f : [i : Size] -> Nat\n{ f .# = zero\n}\n",
        "ILLEGAL-SIZE-REFINEMENT",
        "a dot pattern may not refine a size parameter of the function itself", (6, 5)),
    "size binder, size pattern": (
        NAT + "fun f : [i : Size] -> [k : Size] -> Nat\n{ f i (i > j) = zero\n}\n",
        "TYPE-MISMATCH", SIZE_REL_OUTSIDE, (6, 7)),
    "size binder, constructor": (
        NAT + "fun f : [i : Size] -> Nat\n{ f zero = zero\n}\n",
        "TYPE-MISMATCH", "cannot match a constructor against a size", (6, 5)),
    "size binder, successor in a fun": (
        NAT + "fun f : [i : Size] -> Nat\n{ f ($ j) = zero\n}\n",
        "ADMISSIBILITY",
        "successor patterns are only permitted in corecursive definitions", (6, 5)),
    "size binder, successor in a cofun, inadmissible result": (
        NAT + "cofun f : Nat -> [i : Size] -> Nat\n{ f x ($ j) = zero\n}\n",
        "ADMISSIBILITY",
        "result type 'Nat' is not a sized coinductive type at exactly 'i'", (6, 7)),
    "size binder, successor in a cofun, inadmissible argument": (
        CODATA + "cofun f : [i : Size] -> (S i -> Nat) -> S i\n{ f ($ j) g = f ($ j) g\n}\n",
        "ADMISSIBILITY",
        "argument type 'S i -> Nat' is neither antitone nor sized inductive at 'i'", (7, 5)),
    "data binder, dot": (
        NAT + "fun f : Nat -> Nat\n{ f .zero = zero\n}\n",
        "DOT-MISMATCH", "dot pattern in a position not determined by the type", (6, 5)),
    "data binder, successor": (
        NAT + "fun f : Nat -> Nat\n{ f ($ j) = zero\n}\n",
        "ADMISSIBILITY", "successor patterns only match size arguments", (6, 5)),
    "data binder, size pattern": (
        NAT + "fun f : [i : Size] -> Nat -> Nat\n{ f i (i > j) = zero\n}\n",
        "TYPE-MISMATCH", SIZE_REL_OUTSIDE, (6, 7)),
    "constructor against Set": (
        NAT + "fun f : Set -> Nat\n{ f zero = zero\n}\n",
        "TYPE-MISMATCH", "constructor pattern against non-data type 'Set'", (6, 5)),
    "inner size, successor": (
        BOX + "fun f : Box -> Nat\n{ f (box ($ j)) = zero\n}\n",
        "TYPE-MISMATCH", ONLY_VARIABLES, (7, 10)),
    "inner size, dot": (
        BOX + "fun f : Box -> Nat\n{ f (box .#) = zero\n}\n",
        "TYPE-MISMATCH", ONLY_VARIABLES, (7, 10)),
    "inner size, size pattern": (
        BOX + "fun f : [i : Size] -> Box -> Nat\n{ f i (box (i > j)) = zero\n}\n",
        "TYPE-MISMATCH", ONLY_VARIABLES, (7, 12)),
    "inner size, constructor": (
        BOX + "fun f : Box -> Nat\n{ f (box zero) = zero\n}\n",
        "TYPE-MISMATCH", ONLY_VARIABLES, (7, 10)),
    "case branch, inner size successor": (
        BOX + "let f : Box -> Nat = \\ b -> case b { (box ($ j)) -> zero }\n",
        "TYPE-MISMATCH", ONLY_VARIABLES, (6, 43)),
    "case branch, dot at a data binder": (
        NAT + "let f : Nat -> Nat = \\ n -> case n { (succ .zero) -> zero ; zero -> zero }\n",
        "DOT-MISMATCH", "dot pattern in a position not determined by the type", (5, 44)),
    # a scrutinee type is a checked type, so a data type short of its
    # parameters or size is rejected by the type check before any pattern
    "constructor, data type short of its parameter": (
        LIST + "fun f : List -> Nat\n{ f nil = zero\n}\n",
        "TYPE-MISMATCH", "expected a type, got something of type 'Set -> Set'", (6, 9)),
    "constructor, data type short of its size": (
        SNAT + "fun f : SNat -> Nat\n{ f (szero j) = zero\n}\n",
        "TYPE-MISMATCH", "expected a type, got something of type 'Size -> Set'", (9, 9)),
    "case branch, data type short of its parameter": (
        LIST + "let f : List -> Nat = \\ l -> case l { nil -> zero }\n",
        "TYPE-MISMATCH", "expected a type, got something of type 'Set -> Set'", (6, 9)),
    # the arms of a constructor pattern
    "constructor, forced parameter as a constructor": (
        LIST + "fun f : List Nat -> Nat\n{ f (cons zero x xs) = x\n; f (nil .Nat) = zero\n}\n",
        "DOT-MISMATCH", "parameter argument of 'cons' is forced; use a dot pattern", (7, 11)),
    "constructor, forced parameter as a successor": (
        LIST + "fun f : List Nat -> Nat\n{ f (cons ($ j) x xs) = x\n; f (nil .Nat) = zero\n}\n",
        "DOT-MISMATCH", "parameter argument of 'cons' is forced; use a dot pattern", (7, 11)),
    "constructor, unsolved size": (
        SNAT + "fun id : [i : Size] -> SNat i -> SNat i\n{ id i n = n\n}\n"
        "let z : SNat # = szero #\n"
        "let x : Nat = case id _ z { (szero j) -> zero ; (ssucc j m) -> zero }\n",
        "TYPE-MISMATCH", "cannot match at an unsolved size", (13, 29)),
    "constructor, max-shaped size index": (
        SNAT + "fun f : [i : Size] -> [j : Size] -> SNat (max i j) -> Nat\n"
        "{ f i j (szero .i) = zero\n}\n",
        "SIZE-PATTERN-REQUIRED", "cannot match at a max-shaped size index", (10, 16)),
    "constructor, size pattern relating another index": (
        SNAT + "fun f : [i : Size] -> [k : Size] -> SNat i -> Nat\n"
        "{ f i k (ssucc (k > j) n) = zero\n}\n",
        "SIZE-PATTERN-REQUIRED", "size pattern must relate the matched index 'i', found 'k'",
        (10, 16)),
    "constructor, variable at a variable size": (
        SNAT + "fun f : [i : Size] -> SNat i -> Nat\n{ f i (ssucc j n) = zero\n}\n",
        "SIZE-PATTERN-REQUIRED", "matching at a variable size requires a size pattern (i > j)",
        (10, 14)),
    # there is no unification: an index past the size must convert as written
    "constructor, index of another value": (
        VEC + "fun f : (n : Nat) -> Vec Nat (succ n) -> Nat\n{ f n (nil .Nat) = zero\n}\n",
        "TYPE-MISMATCH", "index 1 of 'nil' does not match the scrutinee type", (10, 7)),
    "case branch, index of another value": (
        VEC + "let f : Vec Nat zero -> Nat = \\ v -> case v { (cons .Nat m x xs) -> zero }\n",
        "TYPE-MISMATCH", "index 1 of 'cons' does not match the scrutinee type", (9, 47)),
    "constructor of another type": (
        BOOL + "fun f : Nat -> Nat\n{ f tt = zero\n}\n",
        "TYPE-MISMATCH", "'tt' is not a constructor of 'Nat'", (7, 5)),
    "case branch, constructor of another type": (
        BOOL + "let f : Nat -> Nat = \\ n -> case n { tt -> zero }\n",
        "TYPE-MISMATCH", "'tt' is not a constructor of 'Nat'", (6, 38)),
    "constructor, too few patterns": (
        NAT + "fun f : Nat -> Nat\n{ f (succ) = zero\n}\n",
        "TYPE-MISMATCH", "constructor 'succ' takes 1 patterns, found 0", (6, 5)),
    "constructor, too many patterns": (
        NAT + "fun f : Nat -> Nat\n{ f (succ x y) = zero\n}\n",
        "TYPE-MISMATCH", "constructor 'succ' takes 1 patterns, found 2", (6, 5)),
}


@pytest.mark.parametrize("name", REJECTIONS)
def test_pattern_rejection(name):
    src, code, message, pos = REJECTIONS[name]
    d = check_source(src, "<test>").diagnostic
    assert d is not None
    assert (d.code, d.message, d.pos) == (code, message, pos)


@pytest.mark.parametrize("src", [
    NAT + "fun f : [i : Size] -> Nat\n{ f _ = zero\n}\n",
    BOX + "fun f : Box -> Nat\n{ f (box i) = zero\n}\n",
    BOX + "fun f : Box -> Nat\n{ f (box _) = zero\n}\n",
], ids=["size wildcard", "inner size variable", "inner size wildcard"])
def test_variable_patterns_at_sizes_are_accepted(src):
    assert check_source(src, "<test>").diagnostic is None


# a parameter argument of a constructor pattern is forced by the scrutinee's
# type: a variable binds it, a wildcard ignores it
@pytest.mark.parametrize("src", [
    LIST + "fun f : List Nat -> Nat\n{ f (nil A) = zero\n; f (cons A x xs) = x\n}\n",
    LIST + "fun f : List Nat -> Nat\n{ f (nil _) = zero\n; f (cons _ x xs) = x\n}\n",
], ids=["forced parameter variable", "forced parameter wildcard"])
def test_forced_parameter_patterns_are_accepted(src):
    assert check_source(src, "<test>").diagnostic is None
