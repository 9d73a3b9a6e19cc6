"""Binding n variables, and reading them back, costs work linear in n.

A count that does not depend on the host stands for the work: one per bind
(`Ctx.bind`, `Ctx.bind_value`, `SizeCtx.declare`, `SizeCtx.add`), plus every
entry copied into a new map, plus every step of an environment walk.

- A context operation counts the entries of each dict of its result (the
  storage of a `SizeCtx`) that it does not share with the context it
  extends.
- The evaluator and the checker count the entries of each dict they build
  with `dict(...)`, which is how an environment would be copied.
- `find`, wrapped where `evaluator` and `checker` import it, counts one step
  per cell it passes, the binder's own included.

Each gated shape of `tests/scaling_probe.py` is counted at n = 1000, 2000
and 4000.  A context that copies its maps on every bind does n(n-1)/2
copies, so its count grows 4x per doubling; the bound is 2.3x.  Two shapes of
the probe are not gated, because their count stays quadratic: nested data
cases whose branches bind size patterns copy the size table (`SizeCtx`
extended from an older context), and each use of a type family walks back to
its binder."""

import pytest

from sizedcheck import check_source, checker, evaluator, values
from sizedcheck.checker import Ctx
from sizedcheck.sizes import SizeCtx

from scaling_probe import SHAPES, fun_patterns, run_deep

SIZES = (1000, 2000, 4000)
MAX_RATIO = 2.3
GATED = ("lambda", "patterns", "sizes", "cases", "size_cases", "size_lambdas")


def _dicts(obj) -> list:
    return [v for v in (getattr(obj, n) for n in type(obj).__slots__) if isinstance(v, dict)]


class WorkCount:
    def __init__(self, monkeypatch):
        self.work = self.steps = 0
        for cls, names in ((Ctx, ("bind", "bind_value")), (SizeCtx, ("declare", "add"))):
            for name in names:
                monkeypatch.setattr(cls, name, self._counted(getattr(cls, name)))
        for module in (evaluator, checker):
            monkeypatch.setattr(module, "dict", self._dict, raising=False)
            monkeypatch.setattr(module, "find", self._find, raising=False)

    def _counted(self, method):
        def counted(ctx, *args, **kwargs):
            new = method(ctx, *args, **kwargs)
            self.work += 1 + sum(len(c) for c, old in zip(_dicts(new), _dicts(ctx))
                                 if c is not old)
            return new
        return counted

    def _dict(self, *args):
        d = dict(*args)
        self.work += len(d)
        return d

    def _find(self, env, uid):
        cell = env
        while cell is not None:
            self.steps += 1
            if cell[0] == uid:
                break
            cell = cell[2]
        return values.find(env, uid)

    def of(self, source: str) -> int:
        self.work = self.steps = 0
        result = run_deep(check_source, source, "<scaling>")
        assert result.diagnostic is None, result.diagnostic.render()
        return self.work + self.steps


@pytest.mark.parametrize("shape", GATED)
def test_binding_work_is_linear(shape, monkeypatch):
    count = WorkCount(monkeypatch)
    works = [count.of(SHAPES[shape](n)) for n in SIZES]
    ratios = [b / a for a, b in zip(works, works[1:])]
    assert max(ratios) <= MAX_RATIO, (works, ratios)


def test_walk_steps_are_counted(monkeypatch):
    # `f x0 ... = x0` reads x0 past every later pattern variable
    count = WorkCount(monkeypatch)
    count.of(fun_patterns(1000))
    assert count.steps >= 1000
