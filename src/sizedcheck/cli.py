"""Batch driver: check files, run eval lets, run the golden corpus.

Exit codes: 0 full success, 1 language-level rejection, 2 environment
failure (unreadable file, malformed expectation, a standard output that the
reader closed), 3 internal error (an exception that is not a diagnostic,
reported on one line)."""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

from .checker import Checker
from .diagnostics import Diagnostic
from .evaluator import DEFAULT_PRINT_DEPTH, DEFAULT_UNFOLD_FUEL
from .parser import parse_source
from .scope import scope_check
from .signature import FunEntry, Signature
from .sizes import MAX_OFFSET
from .syntax import LineTable, Record


# the checker recurses as deeply as its input nests, so `check_source` runs it
# on one thread with this stack, at this recursion limit (`run_deep`)
STACK_BYTES = 512 * 1024 * 1024
RECURSION_LIMIT = 200_000


class RunConfig(Record):
    __slots__ = ("paths", "print_constraints", "print_sizes", "explain_totality",
                 "unfold_fuel", "print_depth")

    def __init__(self, paths: list[str], print_constraints: bool = False,
                 print_sizes: bool = False, explain_totality: str | None = None,
                 unfold_fuel: int = DEFAULT_UNFOLD_FUEL, print_depth: int = DEFAULT_PRINT_DEPTH):
        self.paths = paths
        self.print_constraints = print_constraints
        self.print_sizes = print_sizes
        self.explain_totality = explain_totality
        self.unfold_fuel = unfold_fuel
        self.print_depth = print_depth


class CheckResult(Record):
    __slots__ = ("signature", "outputs", "constraint_dump", "diagnostic")

    def __init__(self, signature: Signature | None, outputs: list[str],
                 constraint_dump: list[str], diagnostic: Diagnostic | None):
        self.signature = signature
        self.outputs = outputs
        self.constraint_dump = constraint_dump
        self.diagnostic = diagnostic


_DEFAULTS = RunConfig([])  # read only
_worker: threading.Thread | None = None
_jobs = None  # the calls for the worker to make, each with the queue its answer goes to
_starting = threading.Lock()


def _serve():
    while True:
        fn, args, answer = _jobs.get()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(RECURSION_LIMIT)
        try:
            out = fn(*args), None
        except BaseException as e:  # noqa: BLE001  (raised again on the caller's thread)
            out = None, e
        sys.setrecursionlimit(limit)
        answer.put(out)
        del fn, args, answer, out  # hold nothing of this call while waiting for the next


def run_deep(fn, *args):
    """fn(*args) on the one worker thread, started on first use with a STACK_BYTES
    stack, or directly when called there; while a call runs, the process-wide
    recursion limit is RECURSION_LIMIT and the caller waits.  Each call gets
    its answer through a queue of its own, so a caller that stopped waiting
    leaves its answer where no other call reads it."""
    global _jobs, _worker
    if threading.current_thread() is _worker:
        return fn(*args)
    import queue  # only a process that checks something needs it

    with _starting:
        if _worker is None:
            _jobs = queue.SimpleQueue()
            stack = threading.stack_size(STACK_BYTES)
            try:
                worker = threading.Thread(target=_serve, name="sizedcheck", daemon=True)
                worker.start()
                _worker = worker
            finally:
                threading.stack_size(stack)
    answer = queue.SimpleQueue()
    _jobs.put((fn, args, answer))
    result, exc = answer.get()
    if exc is not None:
        raise exc
    return result


def check_source(source: str, filename: str, cfg: RunConfig | None = None) -> CheckResult:
    return run_deep(_check, source, filename, cfg or _DEFAULTS)


def _check(source: str, filename: str, cfg: RunConfig) -> CheckResult:
    lines = LineTable(source)
    checker = None  # built after parsing, so a parse or scope fault dumps nothing
    try:
        # looked up here, as module globals, so a tracer that wraps them sees each call
        decls = scope_check(parse_source(source))
        checker = Checker(
            unfold_fuel=cfg.unfold_fuel,
            print_depth=cfg.print_depth,
            print_sizes=cfg.print_sizes,
            collect_constraints=cfg.print_constraints,
            lines=lines,
        )
        sig, outputs = checker.check_program(decls)
    except Diagnostic as d:
        d.file = filename
        d.pos = lines.line_col(d.pos)
        return CheckResult(None, [], [] if checker is None else checker.constraint_dump, d)
    return CheckResult(sig, outputs, checker.constraint_dump, None)


def _read_source(path: str | Path, err) -> str | None:
    """The text of a source file, or None once the reason it cannot be read
    or decoded is reported."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=err)
        return None


def run_check(cfg: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    status = 0
    for path in cfg.paths:
        source = _read_source(path, err)
        if source is None:
            return 2
        result = check_source(source, path, cfg)
        for line in result.constraint_dump:
            print(line, file=out)
        if result.diagnostic is not None:
            report = result.diagnostic.report
            if report is not None and report.name == cfg.explain_totality:
                print(report.render(), file=out)
            print(result.diagnostic.render(), file=err)
            status = max(status, 1)
            continue
        if cfg.explain_totality:
            entry = result.signature.lookup_text(cfg.explain_totality)
            if isinstance(entry, FunEntry) and entry.report is not None:
                print(entry.report.render(), file=out)
        for line in result.outputs:
            print(line, file=out)
    return status


def collect_golden(root: Path) -> list[Path]:
    """The sources of a corpus, accepted ones first; each has its expectation
    beside it, in a `.expect` file."""
    return sorted(root.glob("accept/*.ma")) + sorted(root.glob("reject/*.ma"))


def run_golden(cfg: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    root = Path(cfg.paths[0])
    cases = collect_golden(root)
    if not cases:
        print(f"error: no golden cases under {root}", file=err)
        return 2
    failures = 0
    for src in cases:
        name, expectation = src.stem, src.with_suffix(".expect")
        try:
            expect = expectation.read_text()
        except OSError as e:
            print(f"error: missing expectation for {name}: {e}", file=err)
            return 2
        lines = expect.splitlines()
        if not lines:
            print(f"error: empty expectation file {expectation}", file=err)
            return 2
        header = lines[0].split() or [""]  # a blank header is malformed
        source = _read_source(src, err)
        if source is None:
            return 2
        result = check_source(source, str(src), cfg)
        ok, detail = False, ""
        if header[0] == "ACCEPT":
            want = "\n".join(lines[1:])
            if result.diagnostic is not None:
                detail = f"expected success, got {result.diagnostic.render()}"
            else:
                got = "\n".join(result.outputs)
                if got == want:
                    ok = True
                else:
                    import difflib  # only a drifted golden output needs it

                    diff = difflib.unified_diff(
                        want.splitlines(), got.splitlines(),
                        "expected", "actual", lineterm="",
                    )
                    detail = "eval output drifted:\n" + "\n".join(diff)
        elif header[0] == "REJECT" and len(header) == 2:
            if result.diagnostic is None:
                detail = f"expected {header[1]}, got success"
            elif result.diagnostic.code != header[1]:
                detail = (
                    f"expected {header[1]}, got {result.diagnostic.code} "
                    f"({result.diagnostic.message})"
                )
            else:
                ok = True
        else:
            print(f"error: malformed expectation {expectation}", file=err)
            return 2
        if ok:
            print(f"PASS {name}", file=out)
        else:
            print(f"FAIL {name}: {detail}", file=out)
            failures += 1
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    import argparse  # the CLI's alone: `import sizedcheck` does not load it

    ap = argparse.ArgumentParser(
        prog="sizedcheck",
        description="Type checker, totality checker and evaluator for a "
        "dependently typed core language with sized types. A size may lie at "
        f"most {MAX_OFFSET} successors above its variable, and checking may "
        f"recurse at most {RECURSION_LIMIT} calls deep; a larger offset or a "
        "deeper nesting is reported as LIMIT.",
    )
    sub = ap.add_subparsers(dest="mode", required=True)

    def common(p):
        p.add_argument("--print-sizes", action="store_true",
                       help="show erased size arguments in eval output")
        p.add_argument("--unfold-fuel", type=int, default=DEFAULT_UNFOLD_FUEL, metavar="N",
                       help="unfold budget per declaration and per eval let")
        p.add_argument("--print-depth", type=int, default=DEFAULT_PRINT_DEPTH, metavar="N",
                       help="coconstructor layers printed before eliding")

    pc = sub.add_parser("check", help="check files and run their eval lets")
    pc.add_argument("files", nargs="+", metavar="FILE")
    pc.add_argument("--print-constraints", action="store_true",
                    help="dump each clause's size constraints")
    pc.add_argument("--explain-totality", metavar="NAME",
                    help="print the call graph of NAME and the rule justifying it, "
                    "or 'rejected'")
    common(pc)
    pg = sub.add_parser("golden", help="run an accept/reject corpus")
    pg.add_argument("dir", metavar="DIR")
    common(pg)

    ns = ap.parse_args(argv)
    if ns.unfold_fuel < 1 or ns.print_depth < 0:
        ap.error("--unfold-fuel must be >= 1 and --print-depth >= 0")
    check = ns.mode == "check"
    cfg = RunConfig(
        paths=ns.files if check else [ns.dir],
        print_constraints=check and ns.print_constraints,
        print_sizes=ns.print_sizes,
        explain_totality=ns.explain_totality if check else None,
        unfold_fuel=ns.unfold_fuel,
        print_depth=ns.print_depth,
    )
    try:
        return run_check(cfg) if check else run_golden(cfg)
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # exit does not fail again (see the signal module's note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except Exception as exc:  # diagnostics never get here: check_source reports them
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
