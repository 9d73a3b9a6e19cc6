"""How does checking time grow with the number of binders in scope?

Run from the repository root:

    python tests/scaling_probe.py

It checks eight programs whose binders nest n deep and prints the wall time
of `check_source` for each at n = 1000, 2000, 4000, 8000 and 16000, with
the ratio to the previous n.  A checker whose cost per binder does not
depend on how many binders are already in scope doubles its time when n
doubles.  The shapes:

- `lambda`: a lambda chain, `let f : Set -> ... -> Set = \\ x0 -> ... -> Set`;
- `patterns`: a fun with n pattern variables, `f x0 ... = x0`;
- `sizes`: a size telescope, `let T : Set = [i0 : Size] -> ... -> Set`;
- `cases`: n nested data cases, each binding the predecessor it matches;
- `size_cases`: n nested size cases under a stream's constructor,
  `case i0 { ($ i1) -> cons i1 (case i1 { ... }) }`;
- `size_lambdas`: a size telescope checked against a lambda chain,
  `let f : [i0 : Size] -> ... -> Set = \\ i0 -> ... -> Set`;
- `size_patterns`: n nested data cases on a sized type, each branch binding
  a size pattern `(i0 > i1)`;
- `family`: a type family used three times per level, `(F : (B : Set) -> B
  -> Set) -> (x0 : F Nat zero) -> F (F Nat zero) x0 -> ... -> Set`.

Each run is on the checker's own worker thread (`cli.run_deep`, with a
512 MB stack and a recursion limit of 200000), so the parser and checker can
recurse n deep, with the garbage collector off while timing.  It uses the standard library only, and its name
does not start with `test_`, so pytest does not collect it; the count-based
`tests/test_scaling.py` is the tier-1 gate and imports its shapes from here."""

from __future__ import annotations

import gc
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sizedcheck import check_source  # noqa: E402
from sizedcheck.cli import run_deep  # noqa: E402

NAT = "data Nat : Set { zero : Nat ; succ : Nat -> Nat }\n"
STREAM = "sized codata Stream : Size -> Set { cons : [i : Size] -> Stream i -> Stream ($ i) }\n"
SNAT = ("sized data SNat : Size -> Set { zero : [i : Size] -> SNat ($ i) ; "
        "succ : [i : Size] -> SNat i -> SNat ($ i) }\n")


def lambda_chain(n: int) -> str:
    binders = " ".join(f"\\ x{k} ->" for k in range(n))
    return f"let f : {'Set -> ' * n}Set = {binders} Set\n"


def fun_patterns(n: int) -> str:
    xs = " ".join(f"x{k}" for k in range(n))
    return NAT + f"fun f : {'Nat -> ' * n}Nat {{ f {xs} = x0 }}\n"


def size_telescope(n: int) -> str:
    return "let T : Set = " + "".join(f"[i{k} : Size] -> " for k in range(n)) + "Set\n"


def nested_cases(n: int) -> str:
    body = "zero"
    for k in reversed(range(n)):
        body = f"case x{k} {{ zero -> zero ; (succ x{k + 1}) -> {body} }}"
    return NAT + f"let f : Nat -> Nat = \\ x0 -> {body}\n"


def nested_size_cases(n: int) -> str:
    body = "s"
    for k in reversed(range(n)):
        body = f"case i{k} {{ ($ i{k + 1}) -> cons i{k + 1} ({body}) }}"
    return STREAM + f"let f : [i0 : Size] -> Stream i0 -> Stream i0 = \\ i0 -> \\ s -> {body}\n"


def size_lambdas(n: int) -> str:
    binders = " ".join(f"\\ i{k} ->" for k in range(n))
    return "let f : " + "".join(f"[i{k} : Size] -> " for k in range(n)) + f"Set = {binders} Set\n"


def size_pattern_cases(n: int) -> str:
    body = "Set"
    for k in reversed(range(n)):
        i, j = f"i{k}", f"i{k + 1}"
        body = (f"case x{k} {{ (zero ({i} > {j})) -> Set ; "
                f"(succ ({i} > {j}) x{k + 1}) -> {body} }}")
    return SNAT + f"let f : [i0 : Size] -> SNat i0 -> Set = \\ i0 -> \\ x0 -> {body}\n"


def type_family(n: int) -> str:
    levels = "".join(f"(x{k} : F Nat zero) -> F (F Nat zero) x{k} -> " for k in range(n))
    return NAT + f"let T : Set = (F : (B : Set) -> B -> Set) -> {levels}Set\n"


SIZES = (1000, 2000, 4000, 8000, 16000)

SHAPES = {
    "lambda": lambda_chain,
    "patterns": fun_patterns,
    "sizes": size_telescope,
    "cases": nested_cases,
    "size_cases": nested_size_cases,
    "size_lambdas": size_lambdas,
    "size_patterns": size_pattern_cases,
    "family": type_family,
}


def timed_check(source: str) -> float:
    """Seconds `check_source` takes on source, GC off; it must accept."""
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        result = check_source(source, "<probe>")
        elapsed = perf_counter() - start
    finally:
        gc.enable()
    assert result.diagnostic is None, result.diagnostic.render()
    return elapsed


def main() -> int:
    for name, shape in SHAPES.items():
        prev = None
        for n in SIZES:
            ms = 1000 * run_deep(timed_check, shape(n))
            ratio = f"  x{ms / prev:.2f}" if prev else ""
            print(f"{name:9} n={n:6}  {ms:9.1f} ms{ratio}", flush=True)
            prev = ms
    return 0


if __name__ == "__main__":
    sys.exit(main())
