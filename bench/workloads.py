"""The benchmark's workloads and the answer each program must get.

Every workload is a list of `Program`s built from a seed. The expected
answer never comes from sizedcheck: `corpus` reads the hand-written
`.expect` files, and the generated workloads compute theirs in plain Python
(Fibonacci and Hamming numbers in unary, ACCEPT, or UNSOLVED-META).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus", "streams", "wide", "holes")

# A top-level declaration starts a line with one of these keywords.
_DECL = re.compile(r"^(?:sized\s+)?(?:co)?data\b|^(?:co)?fun\b|^(?:eval\s+)?let\b", re.M)


@dataclass(frozen=True)
class Expect:
    """ACCEPT with the exact eval output lines, or REJECT with a code."""

    verdict: str  # "ACCEPT" | "REJECT"
    code: str | None = None
    outputs: tuple[str, ...] = ()

    def render(self) -> str:
        """The answer in the text form of a golden `.expect` file."""
        if self.verdict == "REJECT":
            return f"REJECT {self.code}\n"
        return "ACCEPT\n" + "".join(line + "\n" for line in self.outputs)


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    expect: Expect
    decls: int  # data, fun/cofun and let declarations in `source`


def count_decls(source: str) -> int:
    return len(_DECL.findall(source))


def build(workload: str, seed: int, root: Path) -> list[Program]:
    corpus = root / "corpus"
    if workload == "corpus":
        return _corpus(seed, corpus)
    if workload == "streams":
        return _streams(seed, corpus)
    if workload == "wide":
        return _wide(seed)
    if workload == "holes":
        return _holes(seed)
    raise ValueError(f"unknown workload {workload!r}")


# -- corpus -----------------------------------------------------------------


def _parse_expect(text: str, where: Path) -> Expect:
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if head == ["ACCEPT"]:
        return Expect("ACCEPT", outputs=tuple(lines[1:]))
    if len(head) == 2 and head[0] == "REJECT":
        return Expect("REJECT", code=head[1])
    raise ValueError(f"malformed expectation {where}")


def _corpus(seed: int, corpus: Path) -> list[Program]:
    progs = []
    for sub in ("accept", "reject"):
        for src in sorted((corpus / sub).glob("*.ma")):
            exp = src.with_suffix(".expect")
            source = src.read_text(encoding="utf-8")
            progs.append(Program(
                f"{sub}/{src.stem}", source,
                _parse_expect(exp.read_text(encoding="utf-8"), exp),
                count_decls(source),
            ))
    if not progs:
        raise ValueError(f"no golden programs under {corpus}")
    # The seed only fixes the order in which the programs are checked.
    random.Random(seed).shuffle(progs)
    return progs


# -- streams ------------------------------------------------------------------


def _prelude(path: Path) -> str:
    """A corpus program up to its first eval let."""
    source = path.read_text(encoding="utf-8")
    return source[: source.index("\neval let") + 1]


def nat_term(n: int) -> str:
    """The term `succ (... (succ zero))` with n successors."""
    return "(succ " * n + "zero" + ")" * n


def nat_output(n: int) -> str:
    """How sizedcheck prints the natural number n: `succ (succ zero)`."""
    if n == 0:
        return "zero"
    return "succ (" * (n - 1) + "succ zero" + ")" * (n - 1)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def hamming(n: int) -> int:
    """Element n of `ham = 1 : merge (map (2*) ham) (map (3*) ham)` as the
    corpus defines it: `merge` keeps duplicates and prefers its left
    stream on ties, so 6 appears twice."""
    h = [1]
    i = j = 0
    while len(h) <= n:
        x, y = 2 * h[i], 3 * h[j]
        if x <= y:
            h.append(x)
            i += 1
        else:
            h.append(y)
            j += 1
    return h[n]


FIB_NS = (8, 12, 16)
# Ten Hamming programs in three bands. The six of the middle band, three at
# n = 6 and three at n = 7, cost about what fib 8 costs, so the median falls
# inside a cluster of seven programs of nearly equal cost: slow outliers
# among the cheaper programs then move it little, where a median at the edge
# of a gap between programs would jump. Fib 12 is the 90th percentile.
HAM_LOW = (3, 4, 3)  # seeded n from 3..4, three programs
HAM_MID = (6, 7, 6)  # n = 6 and 7, three of each
HAM_HIGH = (12, 16, 1)  # seeded n from 12..16, one program


def _streams(seed: int, corpus: Path) -> list[Program]:
    rng = random.Random(seed)
    fib = _prelude(corpus / "accept" / "fib.ma")
    ham = _prelude(corpus / "accept" / "merge_ham.ma")
    progs = []

    def add(name, prelude, stream, n, value):
        source = prelude + f"eval let r : Nat = nth {nat_term(n)} ({stream} #)\n"
        expect = Expect("ACCEPT", outputs=(f"r = {nat_output(value)}",))
        progs.append(Program(name, source, expect, count_decls(source)))

    for n in FIB_NS:
        add(f"fib{n}", fib, "fib", n, fibonacci(n))
    lo, hi, count = HAM_MID
    ns = [lo + (hi - lo + 1) * k // count for k in range(count)]
    for lo, hi, count in (HAM_LOW, HAM_HIGH):
        ns += [rng.randint(lo, hi) for _ in range(count)]
    for n in ns:
        add(f"ham{n}.{len(progs)}", ham, "ham", n, hamming(n))
    rng.shuffle(progs)
    return progs


# -- wide -------------------------------------------------------------------

_WIDE_DATA = """data Nat : Set
{ zero : Nat
; succ : Nat -> Nat
}

data Bool : Set
{ true : Bool
; false : Bool
}

sized data SNat : Size -> Set
{ szero : [i : Size] -> SNat ($ i)
; ssucc : [i : Size] -> SNat i -> SNat ($ i)
}
"""

# argument type -> closed values of that type
_WIDE_ARGS = {
    "Nat": ("zero", "(succ zero)", "(succ (succ zero))"),
    "Bool": ("true", "false"),
    "SNat #": ("(szero #)", "(ssucc # (szero #))"),
}

WIDE_PROGRAMS = 24
WIDE_FUNS = 4


def _wide_fun(rng: random.Random, name: str, arity: int, prior: list[str]) -> str:
    # The first argument is a Bool split by the two clauses; the others are
    # Nat, Bool and SNat # in equal numbers, in seeded order.
    kinds = tuple(_WIDE_ARGS)
    tys = ["Bool", "Nat"] + [kinds[k % len(kinds)] for k in range(arity - 2)]
    tail = tys[1:]
    rng.shuffle(tail)
    tys[1:] = tail
    nats = [k for k, t in enumerate(tys) if t == "Nat"]
    xs = [f"x{k}" for k in range(1, arity)]
    a, b = rng.choice(nats), rng.choice(nats)
    sig = " -> ".join(tys + ["Nat"])
    lines = [
        f"fun {name} : {sig}",
        f"{{ {name} true {' '.join(xs)} = x{a}",
        f"; {name} false {' '.join(xs)} = succ x{b}",
        "}",
    ]
    args = []
    for t in tys:
        if t == "Nat" and prior and rng.random() < 0.25:
            args.append(rng.choice(prior))  # refer to an earlier let
        else:
            args.append(rng.choice(_WIDE_ARGS[t]))
    lines.append(f"let u{name} : Nat = {name} {' '.join(args)}")
    prior.append(f"u{name}")
    return "\n".join(lines) + "\n"


def _sized_fun(rng: random.Random, name: str) -> str:
    # minus from minus_div.ma: size patterns, a dot pattern and a recursive
    # call at a smaller size, so termination and admissibility checking run.
    x = "(szero #)"
    for _ in range(rng.randint(0, 3)):
        x = f"(ssucc # {x})"
    return (
        f"fun {name} : [i : Size] -> SNat i -> SNat # -> SNat i\n"
        f"{{ {name} i (szero (i > j)) y = szero j\n"
        f"; {name} i x (szero .#) = x\n"
        f"; {name} i (ssucc (i > j) x) (ssucc .# y) = {name} j x y\n"
        "}\n"
        f"let u{name} : SNat # = {name} # {x} (ssucc # (szero #))\n"
    )


def _spread(rng: random.Random, width: int, count: int) -> list[int]:
    """`count` offsets spread evenly over 0 .. width-1, in seeded order."""
    values = [(width * j) // count for j in range(count)]
    rng.shuffle(values)
    return values


def _wide(seed: int) -> list[Program]:
    rng = random.Random(seed)
    # Function k of program p has 20+5k+offset[p] arguments, so each program
    # spans telescopes of 20 to 40 arguments, and every seed checks the same
    # multiset of program sizes, only in another order and with other types.
    offsets = _spread(rng, 6, WIDE_PROGRAMS)
    progs = []
    for p in range(WIDE_PROGRAMS):
        parts = [_WIDE_DATA]
        prior: list[str] = []
        for k in range(WIDE_FUNS):
            parts.append(_wide_fun(rng, f"f{k}", 20 + 5 * k + offsets[p], prior))
        parts.append(_sized_fun(rng, "minus"))
        source = "\n".join(parts)
        progs.append(Program(f"wide{p}", source, Expect("ACCEPT"), count_decls(source)))
    return progs


# -- holes ------------------------------------------------------------------

_SNAT = """sized data SNat : Size -> Set
{ zero : [i : Size] -> SNat ($ i)
; succ : [i : Size] -> SNat i -> SNat ($ i)
}
"""

HOLE_PROGRAMS = 20
HOLE_LETS = 3
UNSOLVABLE = 5  # programs of HOLE_PROGRAMS whose last let has no solution


def _hole_let(name: str, depth: int, offset: int) -> str:
    """`\\ i -> \\ n -> succ _ (... (succ _ n))` with `depth` holes, at type
    `SNat ($...$ i)` with `offset` successors; solvable iff depth <= offset."""
    body = "succ _ (" * (depth - 1) + "succ _ n" + ")" * (depth - 1)
    return (
        f"let {name} : [i : Size] -> SNat i -> SNat ({'$' * offset} i)\n"
        f"  = \\ i -> \\ n -> {body}\n"
    )


def _holes(seed: int) -> list[Program]:
    rng = random.Random(seed)
    # Let k of program p is 20+7k+offset[p] holes deep, so each program spans
    # depths of 20 to 40. The unsolvable programs are every fourth by depth,
    # so every seed checks the same multiset of program sizes and verdicts.
    offsets = _spread(rng, 7, HOLE_PROGRAMS)
    by_depth = sorted(range(HOLE_PROGRAMS), key=lambda p: (offsets[p], p))
    bad = set(by_depth[HOLE_PROGRAMS // UNSOLVABLE // 2 :: HOLE_PROGRAMS // UNSOLVABLE])
    progs = []
    for p in range(HOLE_PROGRAMS):
        parts = [_SNAT]
        for k in range(HOLE_LETS):
            depth = 20 + 7 * k + offsets[p]
            if p in bad and k == HOLE_LETS - 1:
                offset = depth - rng.randint(1, 5)
            else:
                offset = depth + rng.randint(0, 3)
            parts.append(_hole_let(f"h{k}", depth, offset))
        source = "\n".join(parts)
        expect = Expect("REJECT", code="UNSOLVED-META") if p in bad else Expect("ACCEPT")
        progs.append(Program(f"holes{p}", source, expect, count_decls(source)))
    return progs
