"""The benchmark's per-layer trace wraps sizedcheck's functions by name
(`bench/tracer.py`); a renamed function only warns there and zeroes its
metrics, so every hooked name must exist."""

import importlib.util
from pathlib import Path

import sizedcheck.cli  # noqa: F401  (the tracer wraps names in every module)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        assert t.missing == []
    finally:
        t.uninstall()
