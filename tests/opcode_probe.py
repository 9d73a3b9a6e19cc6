"""How many bytecodes does one pass over each bench workload execute?

Run from the repository root:

    python tests/opcode_probe.py [seed]

For each workload of `bench/workloads.py` at the seed (default 1) it starts a
child process with `PYTHONHASHSEED=0`.  The child checks the programs, sorted
by name, once to warm up, then once more under `sys.settrace` with opcode
events (`frame.f_trace_opcodes = True`), and counts the events in the frames
of `src/sizedcheck`.  It prints the executed bytecodes of that pass in total
and per module.  The count does not depend on the host's speed or load, and
the same commit gives the same numbers on every run, so a change of a few
percent that wall time cannot resolve shows here.

`sys.settrace` traces only the thread that calls it, and `check_source` runs
on the checker's worker thread (`cli.run_deep`), so the trace is installed
inside a `run_deep` call, and the worker's previous trace function, if any,
is put back after it.  A workload on which `evaluator` or `checker` counts
nothing means the trace missed the checker's thread: the probe then exits 1.

It uses the standard library only, and its name does not start with `test_`,
so pytest does not collect it (`tests/test_opcode_probe.py` runs `count_pass`
on one small program).  It changes nothing under `bench/`."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sizedcheck"
# the modules that every workload runs through; a count of 0 in either is a
# trace on the wrong thread
REQUIRED = ("evaluator", "checker")


def count_pass(sources: list[tuple[str, str]]) -> dict[str, int]:
    """The bytecodes executed per module of the package while checking each
    (source, name) once."""
    from sizedcheck import check_source
    from sizedcheck.cli import run_deep

    package = str(PACKAGE)
    events: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            events[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    def traced():
        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            for source, name in sources:
                check_source(source, name)
        finally:
            sys.settrace(previous)

    run_deep(traced)
    per_module: Counter = Counter()
    for code, n in events.items():
        per_module[Path(code.co_filename).stem] += n
    return dict(per_module)


def count(workload: str, seed: int) -> dict[str, int]:
    """The bytecodes executed per module of the package in the second of
    two passes over the workload."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from sizedcheck import check_source

    progs = sorted(workloads.build(workload, seed, ROOT), key=lambda p: p.name)
    for prog in progs:
        check_source(prog.source, prog.name)
    return count_pass([(prog.source, prog.name) for prog in progs])


def report(workload: str, seed: int) -> bool:
    """Print the workload's table; False when a required module counts
    nothing."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, __file__, "--child", workload, str(seed)], env=env,
                         capture_output=True, text=True, check=True).stdout
    per_module = json.loads(out)
    total = sum(per_module.values())
    print(f"{workload} seed {seed}: {total:,} bytecodes")
    for module, n in sorted(per_module.items(), key=lambda kv: -kv[1]):
        print(f"  {n:12,d}  {module}")
    missing = [m for m in REQUIRED if not per_module.get(m)]
    if missing:
        print(f"  no bytecodes counted in {', '.join(missing)}", file=sys.stderr)
    return not missing


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(count(argv[1], int(argv[2]))))
        return 0
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    seed = int(argv[0]) if argv else 1
    ok = [report(workload, seed) for workload in workloads.WORKLOADS]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
