"""Typed symbolic values -- the Python rendering of LMS's ``Rep[T]``.

A :class:`Rep` holds an IR expression and the staging context it belongs to.
Every overloaded operation *emits* an assignment binding the result to a
fresh name and returns a new ``Rep`` referring to that name -- precisely the
``MyInt`` trick from Section 2 of the paper, generalized over types.

Because Python cannot overload ``and``/``or``/``not`` or ``if``, staged
booleans use ``&``, ``|``, ``~`` and ``ctx.if_``; staged mutation goes
through :class:`StagedVar`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Type, Union

from repro.staging import ir

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.staging.builder import StagingContext


Liftable = Union["Rep", int, float, bool, str, None]


def lift_expr(ctx: "StagingContext", value: Liftable) -> ir.Expr:
    """Return the IR expression for a Rep or a liftable Python constant."""
    if isinstance(value, Rep):
        return value.expr
    return ctx.lift(value).expr


_FOLDABLE = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
}


def _fold_bin(op: str, lhs: ir.Expr, rhs: ir.Expr):
    """LMS-style smart construction: fold present-stage subcomputations.

    Two constants compute now; boolean/arithmetic identities with one
    constant simplify (``x and True -> x``, ``x * 1 -> x``, ``x + 0 -> x``).
    Division is never folded (the host should raise at run time, in the
    residual program, not at generation time).
    """
    lconst = isinstance(lhs, ir.Const)
    rconst = isinstance(rhs, ir.Const)
    if lconst and rconst and op in _FOLDABLE:
        try:
            return ir.Const(_FOLDABLE[op](lhs.value, rhs.value))
        except TypeError:
            return None
    if op == "and":
        if lconst:
            return rhs if lhs.value else ir.Const(False)
        if rconst:
            return lhs if rhs.value else ir.Const(False)
    if op == "or":
        if lconst:
            return ir.Const(True) if lhs.value else rhs
        if rconst:
            return ir.Const(True) if rhs.value else lhs
    # Arithmetic identities (x * 1, x + 0) are deliberately NOT folded: the
    # paper's MyInt emits them verbatim (the Appendix B.1 trace starts with
    # "x0 = in * 1"), and they are free at run time anyway.
    return None


class Rep:
    """A staged (future-stage) value of unspecified type."""

    ctype = "long"
    is_vector = False  # RepVec subclasses carry batches, not scalars

    def __init__(self, expr: ir.Expr, ctx: "StagingContext", ctype: str | None = None):
        if type(expr) not in ir.ATOMS:
            sym = ctx.bind(expr, ctype=ctype or type(self).ctype)
            expr = sym
        self.expr = expr
        self.ctx = ctx
        if ctype is not None:
            self.ctype = ctype

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other: Liftable) -> ir.Expr:
        return lift_expr(self.ctx, other)

    def _bin(self, op: str, other: Liftable, result: Type["Rep"], swap: bool = False):
        if getattr(other, "is_vector", False) and not self.is_vector:
            # A scalar met a batch: the operation broadcasts, and the vector
            # side owns the lowering (a kernel call instead of an inline op).
            return other._scalar_bin(op, self, scalar_is_lhs=not swap)
        lhs, rhs = self.expr, self._coerce(other)
        if swap:
            lhs, rhs = rhs, lhs
        folded = _fold_bin(op, lhs, rhs)
        if folded is not None:
            return result(folded, self.ctx)
        sym = self.ctx.bind(ir.Bin(op, lhs, rhs), ctype=result.ctype)
        return result(sym, self.ctx)

    # -- generic equality (types refine the arithmetic) -----------------------

    def __eq__(self, other: object) -> "RepBool":  # type: ignore[override]
        return self._bin("==", other, RepBool)

    def __ne__(self, other: object) -> "RepBool":  # type: ignore[override]
        return self._bin("!=", other, RepBool)

    __hash__ = None  # type: ignore[assignment] - staged values are not hashable

    def __bool__(self) -> bool:
        raise TypeError(
            "staged value used in a Python conditional; use ctx.if_(...) "
            "instead -- the branch condition is future-stage data"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.expr!r})"


class _NumericRep(Rep):
    """Shared arithmetic for staged ints and floats."""

    def _arith_result(self, other: Liftable, op: str) -> Type["Rep"]:
        if op == "/":
            return RepFloat
        if isinstance(self, RepFloat) or isinstance(other, (RepFloat, float)):
            return RepFloat
        return RepInt

    def __add__(self, other: Liftable):
        return self._bin("+", other, self._arith_result(other, "+"))

    def __radd__(self, other: Liftable):
        return self._bin("+", other, self._arith_result(other, "+"), swap=True)

    def __sub__(self, other: Liftable):
        return self._bin("-", other, self._arith_result(other, "-"))

    def __rsub__(self, other: Liftable):
        return self._bin("-", other, self._arith_result(other, "-"), swap=True)

    def __mul__(self, other: Liftable):
        return self._bin("*", other, self._arith_result(other, "*"))

    def __rmul__(self, other: Liftable):
        return self._bin("*", other, self._arith_result(other, "*"), swap=True)

    def __truediv__(self, other: Liftable):
        return self._bin("/", other, RepFloat)

    def __rtruediv__(self, other: Liftable):
        return self._bin("/", other, RepFloat, swap=True)

    def __floordiv__(self, other: Liftable):
        return self._bin("//", other, RepInt)

    def __mod__(self, other: Liftable):
        return self._bin("%", other, RepInt)

    def __neg__(self):
        sym = self.ctx.bind(ir.Un("-", self.expr), ctype=self.ctype)
        return type(self)(sym, self.ctx)

    def __lt__(self, other: Liftable) -> "RepBool":
        return self._bin("<", other, RepBool)

    def __le__(self, other: Liftable) -> "RepBool":
        return self._bin("<=", other, RepBool)

    def __gt__(self, other: Liftable) -> "RepBool":
        return self._bin(">", other, RepBool)

    def __ge__(self, other: Liftable) -> "RepBool":
        return self._bin(">=", other, RepBool)


class RepInt(_NumericRep):
    """A staged integer (C type ``long``)."""

    ctype = "long"

    def to_float(self) -> "RepFloat":
        return self.ctx.call("to_float", [self], result="double")  # type: ignore[return-value]


class RepFloat(_NumericRep):
    """A staged double-precision float."""

    ctype = "double"


class RepBool(Rep):
    """A staged boolean; combine with ``&``, ``|``, ``~``."""

    ctype = "bool"

    def __and__(self, other: Liftable) -> "RepBool":
        return self._bin("and", other, RepBool)

    def __rand__(self, other: Liftable) -> "RepBool":
        return self._bin("and", other, RepBool, swap=True)

    def __or__(self, other: Liftable) -> "RepBool":
        return self._bin("or", other, RepBool)

    def __ror__(self, other: Liftable) -> "RepBool":
        return self._bin("or", other, RepBool, swap=True)

    def __invert__(self) -> "RepBool":
        sym = self.ctx.bind(ir.Un("not", self.expr), ctype="bool")
        return RepBool(sym, self.ctx)


class RepStr(Rep):
    """A staged string with the operations query plans need."""

    ctype = "char*"

    def __lt__(self, other: Liftable) -> "RepBool":
        return self._bin("<", other, RepBool)

    def __le__(self, other: Liftable) -> "RepBool":
        return self._bin("<=", other, RepBool)

    def __gt__(self, other: Liftable) -> "RepBool":
        return self._bin(">", other, RepBool)

    def __ge__(self, other: Liftable) -> "RepBool":
        return self._bin(">=", other, RepBool)

    def startswith(self, prefix: Liftable) -> "RepBool":
        return self.ctx.call("str_startswith", [self, prefix], result="bool")  # type: ignore[return-value]

    def endswith(self, suffix: Liftable) -> "RepBool":
        return self.ctx.call("str_endswith", [self, suffix], result="bool")  # type: ignore[return-value]

    def contains(self, needle: Liftable) -> "RepBool":
        return self.ctx.call("str_contains", [self, needle], result="bool")  # type: ignore[return-value]

    def substring(self, start: Liftable, stop: Liftable) -> "RepStr":
        return self.ctx.call("str_slice", [self, start, stop], result="char*")  # type: ignore[return-value]

    def length(self) -> RepInt:
        return self.ctx.call("len", [self], result="long")  # type: ignore[return-value]

    def hash(self) -> RepInt:
        return self.ctx.call("hash_str", [self], result="long")  # type: ignore[return-value]


# -- vector (batch) values ---------------------------------------------------
#
# The vector code-generation backend (:mod:`repro.compiler.vec`) stages whole
# columns at a time.  A ``RepVec`` is one such column: every overloaded
# operation lowers to a named batch kernel (``rt.v_*``) over arrays rather
# than an inline scalar expression, but sequencing works identically --
# each kernel result is bound to a fresh name in emission order.  Scalar
# Reps mixed into vector operations broadcast (the kernels accept plain
# Python scalars for either operand).


_VEC_KERNELS = {
    "+": "v_add",
    "-": "v_sub",
    "*": "v_mul",
    "/": "v_div",
    "//": "v_floordiv",
    "%": "v_mod",
    "==": "v_eq",
    "!=": "v_ne",
    "<": "v_lt",
    "<=": "v_le",
    ">": "v_gt",
    ">=": "v_ge",
    "and": "v_and",
    "or": "v_or",
}

_VEC_BOOL_OPS = frozenset({"==", "!=", "<", "<=", ">", ">=", "and", "or"})

# scalar C type -> the vector C type of a column of it
VEC_CTYPES = {
    "long": "vec_long",
    "int": "vec_long",
    "double": "vec_double",
    "bool": "vec_bool",
    "char*": "vec_str",
}


def vec_ctype(scalar_ctype: str) -> str:
    """The vector C type carrying a batch of ``scalar_ctype`` values."""
    return VEC_CTYPES.get(scalar_ctype, "vec_long")


class RepVec(Rep):
    """A staged batch of values: one column of a batch record."""

    ctype = "vec_long"
    scalar_ctype = "long"
    is_vector = True

    def _vcall(self, fn: str, args: Sequence[Liftable], result_cls: Type["Rep"]):
        exprs = tuple([lift_expr(self.ctx, a) for a in args])
        sym = self.ctx.bind(ir.Call(fn, exprs), ctype=result_cls.ctype, prefix="v")
        return result_cls(sym, self.ctx)

    def _vbin(self, fn: str, other: Liftable, result_cls: Type["Rep"], swap: bool = False):
        args = [other, self] if swap else [self, other]
        return self._vcall(fn, args, result_cls)

    def _scalar_bin(self, op: str, scalar: Liftable, scalar_is_lhs: bool):
        """Reflected entry: ``Rep._bin`` saw a scalar meet this vector."""
        fn = _VEC_KERNELS[op]
        if op in _VEC_BOOL_OPS:
            result_cls: Type[Rep] = RepVecBool
        elif op == "/":
            result_cls = RepVecFloat
        elif op in ("//", "%"):
            result_cls = RepVecInt
        elif isinstance(self, RepVecFloat) or isinstance(scalar, (RepFloat, float)):
            result_cls = RepVecFloat
        else:
            result_cls = RepVecInt
        return self._vbin(fn, scalar, result_cls, swap=scalar_is_lhs)

    def __eq__(self, other: object) -> "RepVecBool":  # type: ignore[override]
        return self._vbin("v_eq", other, RepVecBool)

    def __ne__(self, other: object) -> "RepVecBool":  # type: ignore[override]
        return self._vbin("v_ne", other, RepVecBool)

    __hash__ = None  # type: ignore[assignment]


class _VecNumeric(RepVec):
    """Shared arithmetic for staged int and float batches."""

    def _arith_result(self, other: Liftable) -> Type["Rep"]:
        if isinstance(self, RepVecFloat) or isinstance(
            other, (RepVecFloat, RepFloat, float)
        ):
            return RepVecFloat
        return RepVecInt

    def __add__(self, other: Liftable):
        return self._vbin("v_add", other, self._arith_result(other))

    def __radd__(self, other: Liftable):
        return self._vbin("v_add", other, self._arith_result(other), swap=True)

    def __sub__(self, other: Liftable):
        return self._vbin("v_sub", other, self._arith_result(other))

    def __rsub__(self, other: Liftable):
        return self._vbin("v_sub", other, self._arith_result(other), swap=True)

    def __mul__(self, other: Liftable):
        return self._vbin("v_mul", other, self._arith_result(other))

    def __rmul__(self, other: Liftable):
        return self._vbin("v_mul", other, self._arith_result(other), swap=True)

    def __truediv__(self, other: Liftable):
        return self._vbin("v_div", other, RepVecFloat)

    def __rtruediv__(self, other: Liftable):
        return self._vbin("v_div", other, RepVecFloat, swap=True)

    def __floordiv__(self, other: Liftable):
        return self._vbin("v_floordiv", other, RepVecInt)

    def __mod__(self, other: Liftable):
        return self._vbin("v_mod", other, RepVecInt)

    def __neg__(self):
        return self._vcall("v_neg", [self], type(self))

    def __lt__(self, other: Liftable) -> "RepVecBool":
        return self._vbin("v_lt", other, RepVecBool)

    def __le__(self, other: Liftable) -> "RepVecBool":
        return self._vbin("v_le", other, RepVecBool)

    def __gt__(self, other: Liftable) -> "RepVecBool":
        return self._vbin("v_gt", other, RepVecBool)

    def __ge__(self, other: Liftable) -> "RepVecBool":
        return self._vbin("v_ge", other, RepVecBool)


class RepVecInt(_VecNumeric):
    """A staged batch of integers."""

    ctype = "vec_long"
    scalar_ctype = "long"


class RepVecFloat(_VecNumeric):
    """A staged batch of doubles."""

    ctype = "vec_double"
    scalar_ctype = "double"


class RepVecBool(RepVec):
    """A staged batch of booleans (selection masks)."""

    ctype = "vec_bool"
    scalar_ctype = "bool"

    def __and__(self, other: Liftable) -> "RepVecBool":
        return self._vbin("v_and", other, RepVecBool)

    def __rand__(self, other: Liftable) -> "RepVecBool":
        return self._vbin("v_and", other, RepVecBool, swap=True)

    def __or__(self, other: Liftable) -> "RepVecBool":
        return self._vbin("v_or", other, RepVecBool)

    def __ror__(self, other: Liftable) -> "RepVecBool":
        return self._vbin("v_or", other, RepVecBool, swap=True)

    def __invert__(self) -> "RepVecBool":
        return self._vcall("v_not", [self], RepVecBool)


class RepVecStr(RepVec):
    """A staged batch of strings: comparisons, ``LIKE`` and ``SUBSTRING``."""

    ctype = "vec_str"
    scalar_ctype = "char*"

    def like(self, pattern: str, negate: bool) -> "RepVecBool":
        return self._vcall("v_like", [self, pattern, negate], RepVecBool)

    def substring(self, start: int, stop: int) -> "RepVecStr":
        return self._vcall("v_substr", [self, start, stop], RepVecStr)

    def __lt__(self, other: Liftable) -> "RepVecBool":
        return self._vbin("v_lt", other, RepVecBool)

    def __le__(self, other: Liftable) -> "RepVecBool":
        return self._vbin("v_le", other, RepVecBool)

    def __gt__(self, other: Liftable) -> "RepVecBool":
        return self._vbin("v_gt", other, RepVecBool)

    def __ge__(self, other: Liftable) -> "RepVecBool":
        return self._vbin("v_ge", other, RepVecBool)


class StagedVar:
    """A mutable future-stage variable (generated local that is reassigned).

    ``get`` returns the current value as a ``Rep``; ``set`` emits a
    reassignment.  Inside staged branches/loops, reads after writes see the
    generated control flow, exactly as a C local would.
    """

    def __init__(
        self,
        name: str,
        rep_type: Type[Rep],
        ctype: str,
        ctx: "StagingContext",
    ) -> None:
        self.name = name
        self.rep_type = rep_type
        self.ctype = ctype
        self.ctx = ctx

    def get(self) -> Rep:
        return self.rep_type(ir.Sym(self.name), self.ctx)

    def set(self, value: Liftable) -> None:
        self.ctx.emit(ir.Reassign(self.name, lift_expr(self.ctx, value)))

    def __iadd__(self, delta: Liftable) -> "StagedVar":
        self.set(self.get() + delta)  # type: ignore[operator]
        return self


_CTYPE_TO_REP: dict[str, Type[Rep]] = {
    "long": RepInt,
    "int": RepInt,
    "double": RepFloat,
    "bool": RepBool,
    "char*": RepStr,
    "void*": Rep,
    "vec_long": RepVecInt,
    "vec_double": RepVecFloat,
    "vec_bool": RepVecBool,
    "vec_str": RepVecStr,
}


def rep_for_ctype(ctype: str) -> Type[Rep]:
    """Map a C type hint to the Rep subclass used for values of that type."""
    return _CTYPE_TO_REP.get(ctype, Rep)
