"""Weak-head values: constructor values with suspended arguments, neutrals,
closures, and memoizing thunks."""

from __future__ import annotations

from dataclasses import dataclass, field

from .sizes import NormalSize
from .syntax import Annot, Expr, Ident


class Thunk:
    """A suspended (env, expr) pair, memoized after the first force."""

    __slots__ = ("env", "expr", "value")

    def __init__(self, env: dict | None, expr: Expr | None, value: "Value | None" = None):
        self.env = env
        self.expr = expr
        self.value = value

    @classmethod
    def of(cls, value: "Value") -> "Thunk":
        return cls(None, None, value)

    def __repr__(self):
        return f"Thunk({self.value!r})" if self.value is not None else "Thunk(<suspended>)"


# Spine entries keep the application annotation so conversion can skip
# parametric arguments.
Spine = list[tuple[Thunk, Annot]]


@dataclass(slots=True)
class Closure:
    """A body under one binder, with the environment it was built in.

    The binder is None when the body cannot mention it: the codomain of an
    arrow `A -> B`, to which the parser gives no binder.  Such a body has one
    value whatever it is instantiated at, so `Evaluator.close` evaluates it
    on the first instantiation and keeps the result in `value`."""

    env: dict
    binder: Ident | None
    body: Expr
    value: Value | None = field(default=None, compare=False, repr=False)


class Value:
    __slots__ = ()


@dataclass(slots=True)
class VSet(Value):
    pass


@dataclass(slots=True)
class VSizeU(Value):
    pass


@dataclass(slots=True)
class VSize(Value):
    size: NormalSize


@dataclass(slots=True)
class VPi(Value):
    annot: Annot
    binder: Ident
    domain: Value
    closure: Closure


@dataclass(slots=True)
class VLam(Value):
    binder: Ident
    closure: Closure


@dataclass(slots=True)
class VCon(Value):
    """Constructor value; args cover parameters, the size index and the
    proper arguments, all suspended."""

    con: Ident
    args: list[Thunk]


@dataclass(slots=True)
class VData(Value):
    """A (possibly partially applied) data type former."""

    name: Ident
    args: list[Thunk]


@dataclass(slots=True)
class VNe(Value):
    """Neutral: a variable applied to a spine."""

    head: Ident
    spine: Spine = field(default_factory=list)


@dataclass(slots=True)
class VDef(Value):
    """A defined function (fun/cofun) applied to a spine; unfolds on demand."""

    name: Ident
    spine: Spine = field(default_factory=list)
