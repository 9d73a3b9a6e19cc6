"""The sizedcheck benchmark: time to verdict on four workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; sizedcheck is imported from `src/`.
One process and one thread drive `sizedcheck.check_source`, one program at
a time (a closed loop with one client). Every verdict, diagnostic code and
eval output is compared with an answer that does not come from sizedcheck
(see workloads.py). Times are scaled to a reference host speed (see
hostspeed.py); the human-readable lines also give them unscaled.

`--trace 0` reports the end-to-end metrics, measured untraced. `--trace 1`
alternates untraced and traced passes over the workload and reports the
per-layer metrics (see tracer.py); the spans of the last traced pass are
written to `bench/out/`. Human-readable lines go first; the last line of
standard output is one JSON object. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import PROGRAM, SELF_TIME_METRICS, Tracer, layer_metrics  # noqa: E402

MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90
SETUP_SPAWNS = 9
SEGMENT_S = 0.1  # measured work between two host-speed probes
DEADLINE_S = 120.0  # stop measuring this long after start, whatever is left


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Outcome:
    verdict: str  # ACCEPT | REJECT | CRASH
    code: str | None = None  # diagnostic code, or the exception type
    outputs: tuple[str, ...] = ()
    detail: str = ""

    def render(self) -> str:
        """The outcome in the text form of a golden `.expect` file."""
        if self.verdict == "ACCEPT":
            return "ACCEPT\n" + "".join(line + "\n" for line in self.outputs)
        return f"{self.verdict} {self.code}\n"


def load_sizedcheck():
    src = ROOT / "src"
    if not (src / "sizedcheck" / "__init__.py").is_file():
        raise BenchError(f"no sizedcheck sources under {src}")
    if not (ROOT / "corpus").is_dir():
        raise BenchError(f"no corpus under {ROOT}")
    sys.path.insert(0, str(src))
    import sizedcheck

    if Path(sizedcheck.__file__).resolve().parent != (src / "sizedcheck").resolve():
        raise BenchError(f"imported sizedcheck from {sizedcheck.__file__}, not {src}")
    return sizedcheck


def check(check_source, prog: workloads.Program) -> Outcome:
    try:
        r = check_source(prog.source, prog.name)
    except Exception as e:  # any non-Diagnostic ending is a counted failure
        return Outcome("CRASH", type(e).__name__, detail=str(e)[:200])
    if r.diagnostic is not None:
        return Outcome("REJECT", r.diagnostic.code, detail=r.diagnostic.message)
    return Outcome("ACCEPT", None, tuple(r.outputs))


def is_right(out: Outcome, exp: workloads.Expect) -> bool:
    if out.verdict != exp.verdict:
        return False
    if exp.verdict == "REJECT":
        return out.code == exp.code
    return out.outputs == exp.outputs


class Judge:
    """Judges every program run and keeps the tallies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed with an answer, not with an exception
        self.kinds: dict[str, str] = {}  # program -> first failure seen
        self._rendered_mismatches = 0

    def __call__(self, prog: workloads.Program, out: Outcome) -> bool:
        self.attempted += 1
        ok = is_right(out, prog.expect)
        # Second, independent route: compare golden-file renderings.
        if out.render() != prog.expect.render():
            self._rendered_mismatches += 1
        if not ok:
            self.failed += 1
            if out.verdict != "CRASH":
                self.wrong += 1
            self.kinds.setdefault(
                prog.name, f"{out.verdict} {out.code or ''} {out.detail}".strip())
        return ok

    def consistent(self) -> bool:
        """No program was judged wrongly without being counted as failed."""
        return self._rendered_mismatches == self.failed


def one_pass(check_source, progs, judge: Judge) -> float:
    """Check every program once; return the summed time to verdict."""
    total = 0.0
    for p in progs:
        t0 = perf_counter()
        out = check(check_source, p)
        total += perf_counter() - t0
        judge(p, out)
    return total


def scaled_pass(run_pass, speed: HostSpeed) -> tuple[float, float]:
    """(raw, scaled) seconds of run_pass(), which returns its own time."""
    before = speed.probe()
    raw = run_pass()
    return raw, raw * speed.factor(before, speed.probe())


# -- end-to-end -----------------------------------------------------------


def setup_seconds(speed: HostSpeed) -> float:
    """Median scaled time for a fresh interpreter to start and import
    sizedcheck, as the CLI pays on every invocation. The time is the child's
    CPU time (user plus system): its wall time also holds host scheduling
    delays, which come in steps of about 50 ms on the hosts this runs on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def spawn() -> float:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "import sizedcheck"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)

    return statistics.median(scaled_pass(spawn, speed)[1] for _ in range(SETUP_SPAWNS))


def peak_mem_mb(check_source, progs, judge: Judge) -> float:
    """tracemalloc peak over one pass, with garbage collected before each
    program."""
    tracemalloc.start()
    try:
        for p in progs:
            gc.collect()
            judge(p, check(check_source, p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def timed_loop(check_source, progs, seconds: float, deadline: float, judge: Judge,
               speed: HostSpeed):
    """Whole passes until `seconds` have gone by and MIN_SAMPLES programs
    have run. Returns per-sample (raw seconds, scaled seconds, decls if the
    answer was right else 0)."""
    samples: list[tuple[float, float, int]] = []
    segment: list[tuple[float, int]] = []
    before = speed.probe()
    start = perf_counter()

    def flush():
        nonlocal before
        after = speed.probe()
        f = speed.factor(before, after)
        samples.extend((raw, raw * f, decls) for raw, decls in segment)
        segment.clear()
        before = after

    while True:
        seg_start = perf_counter()
        for p in progs:
            t0 = perf_counter()
            out = check(check_source, p)
            raw = perf_counter() - t0
            segment.append((raw, p.decls if judge(p, out) else 0))
            if perf_counter() - seg_start >= SEGMENT_S:
                flush()
                seg_start = perf_counter()
        if segment:
            flush()
        done = len(samples) >= MIN_SAMPLES and perf_counter() - start >= seconds
        if done or perf_counter() >= deadline:
            return samples


def end_to_end(check_source, progs, seconds: float, deadline: float, judge: Judge,
               speed: HostSpeed):
    setup = setup_seconds(speed)
    # The warm-up and the memory pass run the programs sorted by name: what
    # the warm-up leaves behind moves the peak, and the seeded order must not.
    by_name = sorted(progs, key=lambda p: p.name)
    one_pass(check_source, by_name, Judge())  # its answers are not counted
    mem = peak_mem_mb(check_source, by_name, judge)
    gc.collect()
    samples = timed_loop(check_source, progs, seconds, deadline, judge, speed)

    n = len(samples)

    def p50_p90(times):
        ms = [t * 1000.0 for t in times]
        return statistics.median(ms), statistics.quantiles(ms, n=100, method="inclusive")[89]

    p50, p90 = p50_p90(s for _, s, _ in samples)
    raw50, raw90 = p50_p90(r for r, _, _ in samples)
    decls = sum(d for _, _, d in samples)
    metrics = {
        "verdict_ms.p50": (p50, "ms", n),
        "verdict_ms.p90": (p90, "ms", n),
        "decls_per_s": (decls / sum(s for _, s, _ in samples), "1/s", n),
        "peak_mem_mb": (mem, "MB", 1),
        "setup_s": (setup, "s", SETUP_SPAWNS),
    }
    raw = {
        "verdict_ms.p50": raw50,
        "verdict_ms.p90": raw90,
        "decls_per_s": decls / sum(r for r, _, _ in samples),
    }
    return metrics, raw


# -- per-layer ------------------------------------------------------------


def per_layer(check_source, progs, seconds: float, deadline: float, judge: Judge,
              speed: HostSpeed, tracer: Tracer):
    """Alternate untraced and traced passes; returns the per-layer metrics
    and every traced pass's counters."""
    one_pass(check_source, progs, Judge())  # warm-up; its answers are not counted

    def traced_pass() -> float:
        tracer.reset()
        tracer.install()
        try:
            for p in progs:
                judge(p, tracer.run(PROGRAM, check, check_source, p))
        finally:
            tracer.uninstall()
        return sum(e - s for _, name, s, e, _ in tracer.spans if name == PROGRAM)

    untraced: list[float] = []
    traced: list[float] = []
    passes: list[dict] = []
    counts: list[dict] = []
    start = perf_counter()
    turn = 0
    while True:
        # alternate which kind of pass goes first
        for is_traced in (turn % 2 == 1, turn % 2 == 0):
            gc.collect()
            if not is_traced:
                untraced.append(scaled_pass(lambda: one_pass(check_source, progs, judge),
                                            speed)[1])
                continue
            raw, scaled = scaled_pass(traced_pass, speed)
            traced.append(scaled)
            f = scaled / raw
            passes.append(layer_metrics({k: v * f for k, v in tracer.self_s.items()},
                                        tracer.counts))
            counts.append(dict(tracer.counts))
        turn += 1
        now = perf_counter()
        if len(traced) >= 2 and (now - start >= seconds or now >= deadline):
            break

    metrics = {}
    for name, (_, unit) in passes[0].items():
        values = [m[name][0] for m in passes]
        value = statistics.median(values) if unit == "ms" else values[-1]
        metrics[name] = (value, unit, len(values))
    tokens, parser_ms = metrics["parser.tokens"][0], metrics["parser.ms"][0]
    metrics["parser.tokens_per_ms"] = (tokens / parser_ms if parser_ms else 0.0,
                                       "tokens/ms", len(passes))
    metrics["trace.total_ms"] = (statistics.median(traced) * 1000.0, "ms", len(traced))
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio", len(traced))
    return metrics, counts


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    """The spans of the last traced pass, times in microseconds (unscaled)."""
    OUT.mkdir(exist_ok=True)
    t0 = min((s for _, _, s, _, _ in tracer.spans), default=0.0)
    spans = [
        {"id": sid, "name": name, "start_us": round((s - t0) * 1e6, 1),
         "end_us": round((e - t0) * 1e6, 1), "parent": parent}
        for sid, name, s, e, parent in sorted(tracer.spans)
    ]
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans}))
    return path


# -- command line -----------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    try:
        sizedcheck = load_sizedcheck()
        progs = workloads.build(args.workload, args.seed, ROOT)
        again = workloads.build(args.workload, args.seed, ROOT)
    except (BenchError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sources = [p.source for p in progs]
    digest = hashlib.sha256("\0".join(sources).encode()).hexdigest()[:16]

    judge = Judge()
    speed = HostSpeed()
    check_source = sizedcheck.check_source
    checks = {"same_seed_same_sources": sources == [p.source for p in again]}
    raw: dict[str, float] = {}
    if args.trace:
        tracer = Tracer()
        metrics, counts = per_layer(check_source, progs, args.seconds, deadline, judge,
                                    speed, tracer)
        spans_path = write_spans(tracer, args.workload, args.seed)
        checks["counters_repeat"] = all(c == counts[0] for c in counts)
    else:
        metrics, raw = end_to_end(check_source, progs, args.seconds, deadline, judge, speed)
    checks["failures_all_counted"] = judge.consistent()
    checks["no_wrong_answers"] = judge.wrong == 0

    print(f"workload {args.workload} seed {args.seed}: {len(progs)} programs, "
          f"sources {digest}; host-speed probe median "
          f"{statistics.median(speed.probes) * 1000:.3f} ms over {len(speed.probes)}")
    for name, (value, unit, n) in metrics.items():
        extra = f"  (unscaled {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:30s} {value:14.4f} {unit:10s} n={n}{extra}")
    print(f"  {'failed_frac':30s} {judge.failed / judge.attempted:14.4f} {'ratio':10s} "
          f"n={judge.attempted} ({judge.failed} failed)")
    for prog, kind in sorted(judge.kinds.items()):
        print(f"  failed: {prog}: {kind}")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    if args.trace:
        if tracer.missing:  # their layers read 0
            print(f"  warning: not hooked: {', '.join(tracer.missing)}")
        total = metrics["trace.total_ms"][0]
        shares = ", ".join(f"{name} {metrics[name][0] / total:.1%}"
                           for name in SELF_TIME_METRICS if metrics[name][0] / total >= 0.001)
        print(f"  shares of trace.total_ms: {shares}")
        print(f"  spans of the last traced pass: {spans_path.relative_to(ROOT)}")

    result = {
        "correct": all(checks.values()),
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
