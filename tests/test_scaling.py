"""Binding n variables costs work linear in n.

A count that does not depend on the host stands for the work: one per bind
(`Ctx.bind`, `Ctx.bind_value`, `Ctx.fork`, `SizeCtx.declare`, `SizeCtx.add`),
plus every entry copied into a new context map, size context or evaluator
environment.  A context operation counts the entries of each container of
its result (`Ctx.bindings` and `Ctx.env`, the storage of a `SizeCtx`) that it
does not share with the context it extends; the evaluator counts the entries
of each environment it builds with `dict(...)`, which is how `close`,
`apply`'s lambda case and a size case copy one.  (A data case's branch and a
closure's one value at # copy with `{**...}`, which no shape here evaluates.)

Each shape of `tests/scaling_probe.py` is counted at n = 1000, 2000 and
4000.  A context that copies its maps on every bind does n(n-1)/2 copies, so
its count grows 4x per doubling; the bound is 2.3x."""

import pytest

from sizedcheck import check_source, evaluator
from sizedcheck.checker import Ctx
from sizedcheck.sizes import SizeCtx

from scaling_probe import SHAPES, run_deep

SIZES = (1000, 2000, 4000)
MAX_RATIO = 2.3


def _containers(obj) -> list:
    return [v for v in (getattr(obj, n) for n in type(obj).__slots__) if hasattr(v, "__len__")]


class WorkCount:
    def __init__(self, monkeypatch):
        self.work = 0
        for cls, names in ((Ctx, ("bind", "bind_value", "fork")),
                           (SizeCtx, ("declare", "add"))):
            for name in names:
                monkeypatch.setattr(cls, name, self._counted(getattr(cls, name)))
        monkeypatch.setattr(evaluator, "dict", self._dict, raising=False)

    def _counted(self, method):
        def counted(ctx, *args, **kwargs):
            new = method(ctx, *args, **kwargs)
            self.work += 1 + sum(len(c) for c, old in zip(_containers(new), _containers(ctx))
                                 if c is not old)
            return new
        return counted

    def _dict(self, *args):
        d = dict(*args)
        self.work += len(d)
        return d

    def of(self, source: str) -> int:
        self.work = 0
        result = run_deep(check_source, source, "<scaling>")
        assert result.diagnostic is None, result.diagnostic.render()
        return self.work


@pytest.mark.parametrize("shape", SHAPES)
def test_binding_work_is_linear(shape, monkeypatch):
    count = WorkCount(monkeypatch)
    works = [count.of(SHAPES[shape](n)) for n in SIZES]
    ratios = [b / a for a, b in zip(works, works[1:])]
    assert max(ratios) <= MAX_RATIO, (works, ratios)

