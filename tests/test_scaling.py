"""Binding n variables, and reading them back, costs work linear in n.

A count that does not depend on the host stands for the work: one per bind
(`checker.bind`) and one per size hypothesis written (`Signature.hyps`),
plus every entry copied into a new map, plus every step of an environment
walk.

- The evaluator and the checker count the entries of each dict they build
  with `dict(...)`, which is how an environment would be copied.
- `find`, wrapped where `evaluator` and `checker` import it, counts one step
  per cell it passes, the binder's own included.

Each gated shape of `tests/scaling_probe.py` is counted at n = 1000, 2000
and 4000.  A context that copies its maps on every bind does n(n-1)/2
copies, so its count grows 4x per doubling; the bound is 2.3x.  One shape of
the probe is not gated, because its count stays quadratic: each use of a
type family walks back to its binder."""

import pytest

from sizedcheck import check_source, checker, evaluator, signature, values

from scaling_probe import SHAPES, fun_patterns

SIZES = (1000, 2000, 4000)
MAX_RATIO = 2.3
GATED = ("lambda", "patterns", "sizes", "cases", "size_cases", "size_lambdas", "size_patterns")


class _CountedWrites(dict):
    """A map that adds one to its counter's work per write."""

    __slots__ = ("count",)

    def __setitem__(self, key, value):
        self.count.work += 1
        super().__setitem__(key, value)


class WorkCount:
    def __init__(self, monkeypatch):
        self.work = self.steps = 0
        bind, init = checker.bind, signature.Signature.__init__

        def counted_bind(*args):
            self.work += 1
            return bind(*args)

        def counted_init(sig):
            init(sig)
            sig.hyps = _CountedWrites()
            sig.hyps.count = self

        monkeypatch.setattr(checker, "bind", counted_bind)
        monkeypatch.setattr(signature.Signature, "__init__", counted_init)
        for module in (evaluator, checker):
            monkeypatch.setattr(module, "dict", self._dict, raising=False)
            monkeypatch.setattr(module, "find", self._find, raising=False)

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
        result = check_source(source, "<scaling>")
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
