"""Weak-head values: constructor values with suspended arguments, neutrals,
closures, and memoizing thunks, and the environments they are built in.

An environment is None, the empty one, or a cell `(uid, thunk, rest)` that
binds the variable uid to thunk in front of the environment rest; the
checker's cells also carry the binder's type and annotation.  No environment
ever changes: extending one costs a cell and shares every cell it extends,
and a lookup, `find`, costs the distance from the front to the binder."""

from __future__ import annotations

from .syntax import Annot, Expr, Ident, Record


Env = tuple | None


def find(env: Env, uid: int) -> tuple | None:
    """The cell of env that binds uid, the nearest one, or None."""
    while env is not None:
        if env[0] == uid:
            return env
        env = env[2]
    return None


class Thunk:
    """A suspended (env, expr) pair, memoized after the first force."""

    __slots__ = ("env", "expr", "value")

    def __init__(self, env: Env, expr: Expr | None, value: "Value | None" = None):
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


class Closure(Record):
    """A body under one binder, with the environment it was built in.

    The binder is None when the body cannot mention it: the codomain of an
    arrow `A -> B`, to which the parser gives no binder.  `value` is the body
    evaluated once and kept by `Evaluator.close`: for such a body, its value
    at every argument; for a body with a binder, its value at the closed
    size `#`, which is the same whichever `#` it is given.  It is None until
    the first such instantiation."""

    __slots__ = ("env", "binder", "body", "value")

    def __init__(self, env: Env, binder: Ident | None, body: Expr):
        self.env = env
        self.binder = binder
        self.body = body
        self.value: Value | None = None


class Value(Record):
    __slots__ = ()


class VSet(Value):
    __slots__ = ()


class VSizeU(Value):
    __slots__ = ()


# the universes hold nothing, so one value of each serves everywhere
VSET = VSet()
VSIZEU = VSizeU()


class VSize(Value):
    """A size, as its normal form's tuple of pairs (see `sizes`)."""

    __slots__ = ("size",)

    def __init__(self, size: tuple):
        self.size = size


class VPi(Value):
    __slots__ = ("annot", "domain", "closure")

    def __init__(self, annot: Annot, domain: Value, closure: Closure):
        self.annot = annot
        self.domain = domain
        self.closure = closure


class VLam(Value):
    __slots__ = ("closure",)

    def __init__(self, closure: Closure):
        self.closure = closure


class VCon(Value):
    """Constructor value; args, a tuple fixed where the value is built,
    cover parameters, the size index and the proper arguments, all
    suspended."""

    __slots__ = ("con", "args")

    def __init__(self, con: Ident, args: tuple[Thunk, ...]):
        self.con = con
        self.args = args


class VData(Value):
    """A (possibly partially applied) data type former; args is a tuple
    fixed where the value is built."""

    __slots__ = ("name", "args")

    def __init__(self, name: Ident, args: tuple[Thunk, ...]):
        self.name = name
        self.args = args


class VNe(Value):
    """Neutral: a variable applied to a spine."""

    __slots__ = ("head", "spine")

    def __init__(self, head: Ident, spine: Spine | None = None):
        self.head = head
        self.spine = [] if spine is None else spine


class VDef(Value):
    """A defined function (fun/cofun) applied to a spine; unfolds on demand."""

    __slots__ = ("name", "spine")

    def __init__(self, name: Ident, spine: Spine):
        self.name = name
        self.spine = spine
