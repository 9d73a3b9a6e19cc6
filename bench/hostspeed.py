"""Scaling measured times to a reference host speed.

The benchmark runs on shared machines whose speed changes by up to 1.7x
within seconds (a corpus pass took 63 ms and 111 ms in one process, a few
seconds apart). CPU time moves with wall time, so the slowdown is the
processor, not waiting. To compare runs made at different moments, the
benchmark times a fixed piece of pure-Python reference work before and after
every stretch of measured work, and scales that stretch by
`REFERENCE_S / mean(before, after)`. A scaled time is the time the work
would have taken on a host where the reference work takes `REFERENCE_S`.
"""

from __future__ import annotations

import gc
from time import perf_counter

# The reference work's median time on the unloaded host the bounds were set
# on (Intel Xeon, 2 vCPUs, Python 3.11).
REFERENCE_S = 0.004


def _reference_work() -> int:
    # Interpreter-bound like the checker: calls, attribute and dict access,
    # integer arithmetic. It allocates no objects the garbage collector
    # tracks, so a collection cannot land inside a probe.
    table: dict[int, int] = {}
    acc = 0
    for i in range(30000):
        k = i & 511
        v = table.get(k, 0) + i
        table[k] = v
        acc += v & 7
    return acc


class HostSpeed:
    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> float:
        """Time the reference work once, with garbage collection held off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            _reference_work()
            took = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.probes.append(took)
        return took

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale for work timed between two probes."""
        return REFERENCE_S / ((before + after) / 2.0)
