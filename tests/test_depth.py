"""Inputs that nest deeply end in a verdict or in a positioned diagnostic.

Every judgement of the checker recurses as deeply as its input nests:
parsing, typing, pattern elaboration, evaluation, conversion and readback.
`check_source` runs them on one worker thread with a deep stack, so each row
below ends in exit 0, or in a cataloged diagnostic at a real position: a
nesting deeper than the worker's recursion limit is LIMIT at its
declaration or eval let.  The conversion of two cyclic streams ends at once
in TYPE-MISMATCH, since a pair of stream values met again inside its own
comparison is not convertible."""

import os
import queue
import subprocess
import sys
from pathlib import Path

import pytest

from sizedcheck import CODES, check_source, cli

from conftest import NAT, STREAM

N = 3000  # links of each chain
LAMBDAS = "".join(f"\\ x{k} -> " for k in range(N))
NAMED = "".join(f"(x{k} : Set) -> x{k} -> " for k in range(N))


def _double(doublings: int) -> str:
    """An eval let of the numeral 2^doublings, computed, read back and printed."""
    return (NAT + "fun double : Nat -> Nat\n{ double zero = zero\n"
            "; double (succ m) = succ (succ (double m))\n}\n"
            f"eval let x : Nat = {'double (' * doublings}succ zero{')' * doublings}\n")


def _cases(n: int) -> str:
    body = "zero"
    for k in reversed(range(n)):
        body = f"case x{k} {{ zero -> zero ; (succ x{k + 1}) -> {body} }}"
    return NAT + f"let f : Nat -> Nat = \\ x0 -> {body}\n"


CYCLIC = NAT + STREAM + """
data Eq (A : Set) (a : A) : A -> Set
{ refl : Eq A a a
}
cofun zeros : [i : Size] -> Stream Nat i
{ zeros ($ i) = cons Nat i zero (zeros i)
}
cofun zeros2 : [i : Size] -> Stream Nat i
{ zeros2 ($ i) = cons Nat i zero (zeros2 i)
}
let p : Eq (Stream Nat #) (zeros #) (zeros2 #) = refl (Stream Nat #) (zeros #)
"""

# (source, eval output, or the diagnostic's code, message and position, by
# default the first column of the last line)
ROWS = {
    "parentheses": (f"let x : Set = {'(' * N}Set{')' * N}\n", []),
    # three parser frames a level: the parser gives up at the let
    "parentheses past the limit": (f"let x : Set = {'(' * 70000}Set{')' * 70000}\n",
                                   ("LIMIT", "nesting exceeds the recursion limit of 200000")),
    "successors": (NAT + f"let a : Nat = {'succ (' * 2000}zero{')' * 2000}\n", []),
    "data cases": (_cases(1000), []),
    "constructor patterns": (
        NAT + f"fun f : Nat -> Nat\n{{ f {'(succ ' * 1000}x{')' * 1000} = x\n}}\n", []),
    "numeral past 1000": (_double(11), [f"x = {'succ (' * 2047}succ zero{')' * 2047}"]),
    "arrows": (f"eval let T : Set = {'Set -> ' * N}Set\n", [f"T = {'Set -> ' * N}Set"]),
    # parsed in a loop, checked one frame an arrow: the checker gives up at the let
    "arrows past the limit": (f"let T : Set = {'Set -> ' * 210000}Set\n",
                              ("LIMIT", "nesting exceeds the recursion limit of 200000")),
    "lambdas": (f"eval let f : {'Set -> ' * N}Set = {LAMBDAS}Set\n", [f"f = {LAMBDAS}Set"]),
    "named Pis": (f"eval let T : Set = {NAMED}Set\n", [f"T = {NAMED}Set"]),
    # the second layer of each stream is its first again, a pair already
    # under comparison, which is not convertible
    "cyclic conversion": (CYCLIC, (
        "TYPE-MISMATCH", "expected 'Eq (Stream Nat #) (zeros #) (zeros2 #)', "
        "got 'Eq (Stream Nat #) (zeros #) (zeros #)'", (20, 70))),
}


@pytest.mark.parametrize("name", list(ROWS))
def test_deep_input_ends_in_a_verdict(name):
    src, want = ROWS[name]
    r = check_source(src, name)
    d = r.diagnostic
    if isinstance(want, tuple):
        code, message, *at = want
        pos = at[0] if at else (len(src.splitlines()), 1)
        assert d is not None and d.code in CODES
        assert (d.code, d.message, d.pos) == (code, message, pos)
    else:
        assert d is None, d.render()
        assert r.outputs == want


# first use from more threads than cores, switching often, in a fresh
# interpreter: one worker serves every call, and the limit comes back
CONCURRENT = """
import sys, threading
from sizedcheck import check_source
limit = sys.getrecursionlimit()
src = "data Nat : Set { zero : Nat ; succ : Nat -> Nat }\\n" \\
    "let a : Nat = " + "succ (" * 2000 + "zero" + ")" * 2000 + "\\n"
results = []
def call():
    for _ in range(5):
        results.append(check_source(src, "c").diagnostic)
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=call) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
assert results == [None] * 20, results
assert sys.getrecursionlimit() == limit
assert [t.name for t in threading.enumerate()].count("sizedcheck") == 1
print("ok")
"""


def test_concurrent_callers_share_one_worker():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", CONCURRENT], capture_output=True, text=True,
                       env=env, timeout=120)
    assert (r.returncode, r.stdout, r.stderr) == (0, "ok\n", "")


def test_an_abandoned_call_is_answered_apart():
    # a caller that stopped waiting leaves its answer in a queue of its own,
    # which nobody reads; the next call still gets its own answer
    src, want = ROWS["numeral past 1000"]
    check_source(src, "first")
    unread = queue.SimpleQueue()
    cli._jobs.put((check_source, (ROWS["successors"][0], "abandoned"), unread))
    assert check_source(src, "again").outputs == want
    assert unread.get(timeout=60)[0].outputs == []
