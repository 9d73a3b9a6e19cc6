"""Where does each bench workload reach its peak of traced memory?

Run from the repository root:

    python tests/memory_probe.py [seed]

For each workload of `bench/workloads.py` at the seed (default 1) it runs
one pass of the programs sorted by name to warm up, then a pass under
`tracemalloc` with garbage collected before each program, as the bench's
`peak_mem_mb` does.  It prints the program with the highest peak, and the
allocation sites that hold memory at that program's peak.

The peak is found by wrapping a few hot functions (`SAMPLED`) so that each
call and each return reads the traced memory.  A second run of the program
records the event at which that reading is highest, and a third run takes a
snapshot at the same event.  The programs are deterministic, so the third
run is at the second's state there.  A wrapper takes exactly its function's
parameters, so it allocates nothing per call that could show in the picture.
The sampled peak can be a little under the true one, which may fall between
two events.  `sys.settrace` would materialise a frame object per call and
inflate the picture, so the probe does not use it.

It uses the standard library only, and its name does not start with `test_`,
so pytest does not collect it.  It changes nothing under `bench/`."""

from __future__ import annotations

import gc
import importlib
import linecache
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from sizedcheck import check_source  # noqa: E402

# (module, attribute) of each function whose calls and returns are sampled
SAMPLED = [
    ("sizedcheck.parser", "_Parser.expr"),
    ("sizedcheck.checker", "Checker.check"),
    ("sizedcheck.checker", "Checker.infer"),
    ("sizedcheck.checker", "solve_metas"),
    ("sizedcheck.evaluator", "Evaluator.evaluate"),
    ("sizedcheck.evaluator", "Evaluator.compare"),
    ("sizedcheck.evaluator", "Evaluator.readback"),
    ("sizedcheck.sizes", "apply_solution"),
    ("sizedcheck.sizes", "entails"),
]
TOP_SITES = 12


class Sampler:
    """Counts sampling events, keeps the highest traced memory seen and its
    event, and takes a snapshot at event `at`."""

    def __init__(self, at: int = 0):
        self.at = at
        self.events = 0
        self.peak = 0
        self.peak_event = 0
        self.peak_where = ""
        self.snapshot = None

    def __call__(self, where: str):
        self.events += 1
        if self.events == self.at:
            self.snapshot = tracemalloc.take_snapshot()
        current = tracemalloc.get_traced_memory()[0]
        if current > self.peak:
            self.peak, self.peak_event, self.peak_where = current, self.events, where


def _sampling(fn, name: str, sampler):
    """fn behind a wrapper of the same positional parameters and defaults
    that calls sampler(name) before and after it."""
    code = fn.__code__
    if code.co_kwonlyargcount or code.co_flags & (0x04 | 0x08):  # *args, **kwargs
        raise TypeError(f"{name}: only positional parameters can be wrapped")
    params = ", ".join(code.co_varnames[:code.co_argcount])
    scope = {"fn": fn, "sample": sampler}
    exec(f"def wrapper({params}):\n"
         f"    sample({name!r})\n"
         f"    try:\n"
         f"        return fn({params})\n"
         f"    finally:\n"
         f"        sample({name!r})\n", scope)
    wrapper = scope["wrapper"]
    wrapper.__defaults__ = fn.__defaults__
    return wrapper


def sampled_run(prog, sampler: Sampler):
    """One check of prog under tracemalloc, with every function of SAMPLED
    wrapped to call sampler."""
    patches = []
    for module, attr in SAMPLED:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = owner.__dict__[name]
        patches.append((owner, name, fn))
        setattr(owner, name, _sampling(fn, attr, sampler))
    gc.collect()
    tracemalloc.start()
    try:
        check_source(prog.source, prog.name)
    finally:
        tracemalloc.stop()
        for owner, name, fn in patches:
            setattr(owner, name, fn)


def program_peaks(progs) -> list[tuple[int, object]]:
    """The tracemalloc peak of each program over one pass, as the bench
    measures it."""
    peaks = []
    tracemalloc.start()
    try:
        for prog in progs:
            gc.collect()
            tracemalloc.reset_peak()
            check_source(prog.source, prog.name)
            peaks.append((tracemalloc.get_traced_memory()[1], prog))
    finally:
        tracemalloc.stop()
    return peaks


def report(workload: str, seed: int):
    progs = sorted(workloads.build(workload, seed, ROOT), key=lambda p: p.name)
    for prog in progs:
        check_source(prog.source, prog.name)
    peak, prog = max(program_peaks(progs), key=lambda p: p[0])
    print(f"{workload} seed {seed}: peak {peak / 1e6:.4f} MB in {prog.name} "
          f"({len(progs)} programs)")
    found = Sampler()
    sampled_run(prog, found)
    at = Sampler(found.peak_event)
    sampled_run(prog, at)
    snapshot = at.snapshot.filter_traces([
        tracemalloc.Filter(False, tracemalloc.__file__),
        tracemalloc.Filter(False, __file__),
    ])
    stats = snapshot.statistics("lineno")
    print(f"  sampled peak {found.peak / 1e6:.4f} MB at event {found.peak_event} of "
          f"{found.events}, in {found.peak_where}; top sites there:")
    for stat in stats[:TOP_SITES]:
        frame = stat.traceback[0]
        where = Path(frame.filename)
        if where.is_relative_to(ROOT):
            where = where.relative_to(ROOT)
        line = linecache.getline(frame.filename, frame.lineno).strip()
        print(f"  {stat.size / 1000:8.1f} KB {stat.count:6d}  {where}:{frame.lineno}  {line[:60]}")
    rest = sum(s.size for s in stats[TOP_SITES:])
    print(f"  {rest / 1000:8.1f} KB in {max(len(stats) - TOP_SITES, 0)} other sites")


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 1
    for workload in workloads.WORKLOADS:
        report(workload, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
