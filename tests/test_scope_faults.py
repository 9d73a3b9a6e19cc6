"""The first UNBOUND or DUPLICATE fault of a program: which one is reported,
where and with what message when a program has several, and how the size
holes that name resolution numbers show in the checker's messages.

Each case gives code, line, column and message, or None for a program
that is accepted; a PARSE fault anywhere outranks every scope fault."""

import pytest

from sizedcheck import check_source

from conftest import NAT, SNAT_PARAMETRIC

# Nat under other constructor names, beside SNat
UNARY = """
data Nat : Set
{ nz : Nat
; ns : Nat -> Nat
}
"""
NAT_ADD = NAT + """
fun add : Nat -> Nat -> Nat
{ add zero y = y
"""
CASES = {
    "unbound name": NAT + "let a : Nat = succ b\n",
    "size variable under $": SNAT_PARAMETRIC
        + "let f : [i : Size] -> SNat i -> SNat ($ ($ k))\n"
        + "  = \\ i -> \\ n -> succ ($ ($ k)) n\n",
    "size variable under max": SNAT_PARAMETRIC
        + "let f : [i : Size] -> SNat i -> SNat (max i k) = \\ i -> \\ n -> n\n",
    "global in size position": SNAT_PARAMETRIC
        + "let f : [i : Size] -> SNat ($ (zero)) = \\ i -> zero i\n",
    "not a constructor": NAT_ADD + "; add (add x) y = y\n}\n",
    "unbound constructor in a pattern": NAT_ADD + "; add (plus x) y = y\n}\n",
    "unbound parent of a size pattern": SNAT_PARAMETRIC + """
fun pred : [i : Size] -> SNat ($ i) -> SNat i
{ pred i (succ (k > j) n) = n
}
""",
    "duplicate pattern variable in a clause": NAT_ADD + "; add x x = x\n}\n",
    "duplicate pattern variable in a case branch": NAT + """
data P : Set { pair : Nat -> Nat -> P }
fun f : P -> Nat
{ f p = case p { (pair y y) -> y }
}
""",
    "case branch shadowing a clause variable": NAT + """
fun pred : Nat -> Nat
{ pred x = case x { zero -> zero ; (succ x) -> x }
}
""",
    "duplicate data type": NAT + NAT,
    "duplicate constructor in one data type": "data D : Set { c : D ; c : D }\n",
    "duplicate let": "let a : Set = Set\nlet a : Set = Set\n",
    "unbound index before a duplicate data name": NAT + "data Nat : Foo -> Set { }\n",
    "let names itself": NAT + "let a : Nat = a\n",
    "successor branch among several, scrutinee unbound": NAT + """
fun f : Size -> Nat
{ f i = case q { ($ j) -> zz ; zero -> zero }
}
""",
    "size case on a non-variable, fault in the branch": NAT + """
fun f : Size -> Nat
{ f i = case (succ zero) { ($ j) -> zz }
}
""",
    "size case on a non-variable, fault in the scrutinee": NAT + """
fun f : Size -> Nat
{ f i = case (succ zz) { ($ j) -> zero }
}
""",
    "unbound name, then a parse fault": NAT + "let a : Nat = b\nlet c : Nat = )\n",
    "hole with no constraints": NAT + """
fun k : [j : Size] -> Nat
{ k j = zero
}
fun g : Nat -> Nat
{ g x = k _
}
""",
    "holes in a dot are numbered before the right-hand side": SNAT_PARAMETRIC + UNARY + """
fun k : [j : Size] -> Nat
{ k j = nz
}
fun g : [j : Size] -> SNat ($$ j) -> Nat
{ g j (succ .($ j) (succ .(_) x)) = k _
}
""",
    "dot naming a later pattern variable that shadows a fun": NAT + """
data Pair (A : Set) : Set { pair : A -> A -> Pair A }
fun B : Set -> Set { B x = x }
fun f : Pair Nat -> Set -> Nat
{ f (pair .B a b) B = a
}
""",
}

WANT = {
    'unbound name': ['UNBOUND', 6, 20, "unbound name 'b'"],
    'size variable under $': ['UNBOUND', 6, 39, "unbound name 'k'"],
    'size variable under max': ['UNBOUND', 6, 39, "unbound name 'k'"],
    'global in size position': ['UNBOUND', 6, 29, "unbound name 'zero'"],
    'not a constructor': ['UNBOUND', 9, 7, "'add' is not a constructor"],
    'unbound constructor in a pattern': ['UNBOUND', 9, 7, "unbound name 'plus'"],
    'unbound parent of a size pattern': ['UNBOUND', 8, 16, "unbound name 'k'"],
    'duplicate pattern variable in a clause': ['DUPLICATE', 9, 9, "pattern variable 'x' bound twice in one clause"],
    'duplicate pattern variable in a case branch': ['DUPLICATE', 9, 26, "pattern variable 'y' bound twice in one clause"],
    'case branch shadowing a clause variable': None,
    'duplicate data type': ['DUPLICATE', 7, 1, "duplicate definition of 'Nat'"],
    'duplicate constructor in one data type': ['DUPLICATE', 1, 24, "duplicate definition of 'c'"],
    'duplicate let': ['DUPLICATE', 2, 1, "duplicate definition of 'a'"],
    'unbound index before a duplicate data name': ['UNBOUND', 6, 12, "unbound name 'Foo'"],
    'let names itself': ['UNBOUND', 6, 15, "unbound name 'a'"],
    'successor branch among several, scrutinee unbound': ['UNBOUND', 8, 9, 'a successor-pattern case must have exactly one branch'],
    'size case on a non-variable, fault in the branch': ['UNBOUND', 8, 9, 'case on a size requires a size variable scrutinee'],
    'size case on a non-variable, fault in the scrutinee': ['UNBOUND', 8, 20, "unbound name 'zz'"],
    'unbound name, then a parse fault': ['PARSE', 7, 15, "expected an expression, found ')'"],
    'hole with no constraints': ['UNSOLVED-META', 11, 3, 'size hole ?1 has no constraints'],
    'holes in a dot are numbered before the right-hand side': ['UNSOLVED-META', 16, 3, 'size hole ?2 has no constraints'],
    'dot naming a later pattern variable that shadows a fun': ['DOT-MISMATCH', 10, 11, "dot pattern 'B' does not match the forced value 'Nat'"],
}


@pytest.mark.parametrize("name", list(CASES))
def test_first_fault(name):
    d = check_source(CASES[name], name).diagnostic
    assert (d is not None) == (WANT[name] is not None)
    assert (d and [d.code, d.pos[0], d.pos[1], d.message]) == WANT[name]
