"""Outside-in tracing of sizedcheck's layers.

`Tracer.install` wraps public functions of each module in place, from the
benchmark's own process; nothing under `src/` changes. A timed function
records a span (name, start, end, parent) at its outermost call only, so a
recursive function gives one span per top-level use. A span's self time is
its duration minus the time of its child spans. Counters count every call.
`uninstall` puts the original functions back.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, attribute) of every function timed under that name.
# Module-level functions are wrapped where the caller looks them up, so
# `entails` is timed as called from the evaluator and totality (not from
# inside `sizes` itself) and `pretty` as called from the checker.
TIMED = {
    "parser": [("sizedcheck.cli", "parse_source")],
    "scope": [("sizedcheck.cli", "scope_check")],
    "checker.program": [("sizedcheck.checker", "Checker.check_program")],
    "checker.decl": [
        ("sizedcheck.checker", "Checker.check_data_decl"),
        ("sizedcheck.checker", "Checker.check_fun_decl"),
        ("sizedcheck.checker", "Checker.check_let_decl"),
    ],
    "evaluator.readback": [("sizedcheck.evaluator", "Evaluator.readback")],
    "evaluator.conv": [("sizedcheck.evaluator", "Evaluator.convertible")],
    "sizes.entails": [
        ("sizedcheck.evaluator", "entails"),
        ("sizedcheck.totality", "entails"),
    ],
    "sizes.solve": [("sizedcheck.checker", "solve_metas")],
    "totality": [
        ("sizedcheck.checker", "termination_check"),
        ("sizedcheck.checker", "admissibility_check"),
        ("sizedcheck.checker", "strict_positivity_check"),
    ],
    "pretty": [("sizedcheck.checker", "pretty")],
}

# Span name of the benchmark's own span around one `check_source` call.
PROGRAM = "program"


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.reset()

    def reset(self):
        """Forget the spans and counts of the previous pass."""
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # open spans: [id, child seconds]
        self._next_id = 0

    # -- spans ----------------------------------------------------------------

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((sid, name, start, end, parent))

    def _timed(self, name: str, fn):
        depth = 0

        def wrapper(*args, **kwargs):
            nonlocal depth
            self.counts[name] += 1
            if depth:
                return fn(*args, **kwargs)
            depth += 1
            try:
                return self.run(name, fn, *args, **kwargs)
            finally:
                depth -= 1

        return wrapper

    # -- installing -----------------------------------------------------------

    def _patch(self, module: str, attr: str, make):
        owner = sys.modules[module]
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        self._patches.append((owner, path[-1], original))
        setattr(owner, path[-1], make(original))

    def install(self):
        for name, targets in TIMED.items():
            for module, attr in targets:
                self._patch(module, attr, lambda fn, name=name: self._timed(name, fn))
        # solve_metas also counts the constraints it is given and the holes
        # it solves; it is wrapped a second time, around its timed wrapper.
        self._patch("sizedcheck.checker", "solve_metas", self._solve_counts)

        def counted(key):
            def make(fn):
                def wrapper(*args, **kwargs):
                    self.counts[key] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def tokenize(fn):
            def wrapper(*args, **kwargs):
                toks = fn(*args, **kwargs)
                self.counts["parser.tokens"] += len(toks)
                return toks
            return wrapper

        def force(fn):
            def wrapper(ev, th):
                c = self.counts
                c["evaluator.force_calls"] += 1
                if th.value is None:
                    c["evaluator.thunks_evaluated"] += 1
                return fn(ev, th)
            return wrapper

        self._patch("sizedcheck.parser", "tokenize", tokenize)
        self._patch("sizedcheck.checker", "Checker.subtype", counted("checker.subtype_calls"))
        self._patch("sizedcheck.evaluator", "Evaluator.match_clauses", counted("evaluator.unfolds"))
        self._patch("sizedcheck.evaluator", "Evaluator.force", force)

    def _solve_counts(self, fn):
        def wrapper(constraints, *args, **kwargs):
            self.counts["sizes.constraints"] += len(constraints)
            sol = fn(constraints, *args, **kwargs)
            self.counts["sizes.metas_solved"] += len(sol)
            return sol
        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_metrics(self_s: dict, counts: Counter) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass: name -> (value, unit)."""
    ms = {k: v * 1000.0 for k, v in self_s.items()}
    forces = counts["evaluator.force_calls"]
    return {
        "parser.ms": (ms.get("parser", 0.0), "ms"),
        "parser.tokens": (counts["parser.tokens"], "count"),
        "scope.ms": (ms.get("scope", 0.0), "ms"),
        "checker.elab_ms": (ms.get("checker.decl", 0.0), "ms"),
        "checker.decls": (counts["checker.decl"], "count"),
        "checker.subtype_calls": (counts["checker.subtype_calls"], "count"),
        "evaluator.eval_ms": (ms.get("checker.program", 0.0), "ms"),
        "evaluator.readback_ms": (ms.get("evaluator.readback", 0.0), "ms"),
        "evaluator.conv_ms": (ms.get("evaluator.conv", 0.0), "ms"),
        "evaluator.conv_calls": (counts["evaluator.conv"], "count"),
        "evaluator.unfolds": (counts["evaluator.unfolds"], "count"),
        "evaluator.force_calls": (forces, "count"),
        "evaluator.thunks_evaluated": (counts["evaluator.thunks_evaluated"], "count"),
        "evaluator.force_reuse_ratio": (
            1.0 - counts["evaluator.thunks_evaluated"] / forces if forces else 0.0, "ratio"),
        "sizes.entails_ms": (ms.get("sizes.entails", 0.0), "ms"),
        "sizes.entails_calls": (counts["sizes.entails"], "count"),
        "sizes.solve_ms": (ms.get("sizes.solve", 0.0), "ms"),
        "sizes.solve_calls": (counts["sizes.solve"], "count"),
        "sizes.constraints": (counts["sizes.constraints"], "count"),
        "sizes.metas_solved": (counts["sizes.metas_solved"], "count"),
        "totality.ms": (ms.get("totality", 0.0), "ms"),
        "totality.calls": (counts["totality"], "count"),
        "pretty.ms": (ms.get("pretty", 0.0), "ms"),
        "trace.other_ms": (ms.get(PROGRAM, 0.0), "ms"),
    }


# The self-time metrics, which add up to the traced total of a pass.
SELF_TIME_METRICS = (
    "parser.ms", "scope.ms", "checker.elab_ms", "evaluator.eval_ms",
    "evaluator.readback_ms", "evaluator.conv_ms", "sizes.entails_ms",
    "sizes.solve_ms", "totality.ms", "pretty.ms", "trace.other_ms",
)
