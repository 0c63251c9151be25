"""The staging context: fresh names, emission, structured control flow.

A :class:`StagingContext` is the object the staged query interpreter writes
code *into*.  It corresponds to the (implicit, global) code buffer of the
paper's ``MyInt`` example, extended with:

* structured control flow (``if_``/``else``, ``loop``, ``for_range``) as
  context managers, because Python's native ``if``/``while`` cannot be
  overloaded on symbolic booleans;
* function scoping, so a single generation pass can produce several
  functions (needed for allocation hoisting, Section 4.4, and parallel
  partials, Section 4.5);
* typed ``Rep`` constructors, so emitters know C types.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Sequence

from repro.errors import ReproError
from repro.staging import ir
from repro.staging.rep import (
    Rep,
    RepBool,
    RepFloat,
    RepInt,
    RepStr,
    StagedVar,
    lift_expr,
    rep_for_ctype,
)


class StagingError(ReproError):
    """Raised on misuse of the staging API (e.g. ``else_`` without ``if_``)."""

    code = "E_STAGING"
    phase = "codegen"


class StagingContext:
    """Accumulates IR while the staged interpreter runs.

    Usage sketch (the paper's power example)::

        ctx = StagingContext()
        with ctx.function("power4", ["in_"]) as params:
            x = params[0]
            r = ctx.int_(1)
            for _ in range(4):
                r = r * x          # each * emits "xN = r * in_"
            ctx.return_(r)
        source = generate_python(ctx.program())
    """

    def __init__(self) -> None:
        self._counter = 0
        self._functions: list[ir.Function] = []
        self._block_stack: list[ir.Block] = []
        self._last_if: Optional[ir.If] = None
        self._param_reps: dict[int, Rep] = {}

    # -- names and emission -------------------------------------------------

    def fresh(self, prefix: str = "x") -> str:
        """Return a new unique symbol name."""
        name = f"{prefix}{self._counter}"
        self._counter += 1
        return name

    @property
    def current_block(self) -> ir.Block:
        if not self._block_stack:
            raise StagingError("emit outside of a function body")
        return self._block_stack[-1]

    def emit(self, stmt: ir.Stmt) -> None:
        """Append a statement to the innermost open block.

        Comments are transparent to control flow: a ``ctx.comment(...)``
        between an ``if_`` block and its ``else_`` must not sever the pair.
        """
        if not self._block_stack:
            raise StagingError("emit outside of a function body")
        self._block_stack[-1].append(stmt)
        kind = type(stmt)
        if kind is ir.If:
            self._last_if = stmt
        elif kind is not ir.Comment:
            self._last_if = None

    def comment(self, text: str) -> None:
        self.emit(ir.Comment(text))

    @contextlib.contextmanager
    def emit_into(self, block: ir.Block) -> Iterator[None]:
        """Temporarily redirect emission into ``block``.

        A code-motion helper: stage a fragment into a detached block, then
        splice it wherever it belongs (e.g. the vector backend binds column
        views *before* a devectorizing loop the first time the loop body
        touches the field).  The caller owns the splice; symbols referenced
        by the fragment must already be bound at the insertion point.
        """
        self._block_stack.append(block)
        try:
            yield
        finally:
            self._block_stack.pop()

    def bind(self, expr: ir.Expr, ctype: str = "long", prefix: str = "x") -> ir.Sym:
        """Bind ``expr`` to a fresh name; return the symbol.

        Binding every intermediate result is what guarantees proper
        sequencing of staged operations (Section 2 of the paper).
        """
        if type(expr) is ir.Sym:
            return expr
        name = f"{prefix}{self._counter}"  # fresh(), on the hottest path
        self._counter += 1
        self.emit(ir.Assign(name, expr, ctype=ctype))
        return ir.Sym(name)

    # -- typed constructors --------------------------------------------------

    def int_(self, value: int) -> RepInt:
        """Lift a Python int to a staged int."""
        return RepInt(ir.Const(int(value)), self)

    def float_(self, value: float) -> RepFloat:
        return RepFloat(ir.Const(float(value)), self)

    def bool_(self, value: bool) -> RepBool:
        return RepBool(ir.Const(bool(value)), self)

    def str_(self, value: str) -> RepStr:
        return RepStr(ir.Const(str(value)), self)

    def lift(self, value: object) -> Rep:
        """Lift any supported Python constant to a staged value."""
        if isinstance(value, Rep):
            return value
        if isinstance(value, bool):
            return self.bool_(value)
        if isinstance(value, int):
            return self.int_(value)
        if isinstance(value, float):
            return self.float_(value)
        if isinstance(value, str):
            return self.str_(value)
        if value is None:
            return Rep(ir.Const(None), self, ctype="void*")
        if isinstance(value, tuple):
            # Constant tuples (e.g. the empty probe bucket, sort specs) are
            # embedded verbatim in generated code.
            return Rep(ir.Const(value), self, ctype="void*")
        raise StagingError(f"cannot lift value of type {type(value).__name__}")

    def sym(self, name: str, ctype: str = "long") -> Rep:
        """Wrap an existing generated name as a typed staged value."""
        return rep_for_ctype(ctype)(ir.Sym(name), self)

    # -- runtime parameters ---------------------------------------------------
    #
    # The residual program of a parameterized statement closes over a
    # parameter vector instead of baking literal values in.  The driver
    # binds each slot once at the top of the generated function
    # (``param0 = params[0]``) and registers the typed Rep here; staged
    # ``Param`` expressions then read the registered symbol -- parameters
    # are pure future-stage values, invisible to plan-time specialization.

    def register_param(self, index: int, rep: Rep) -> None:
        """Register the staged value of parameter slot ``index``."""
        self._param_reps[index] = rep

    def param_rep(self, index: int) -> Rep:
        """The staged value bound for parameter slot ``index``."""
        try:
            return self._param_reps[index]
        except KeyError:
            raise StagingError(
                f"parameter slot {index} staged without a registered "
                "binding; the driver must register_param() every slot"
            ) from None

    # -- variables ------------------------------------------------------------

    def var(self, init: Rep, prefix: str = "v") -> StagedVar:
        """Introduce a mutable staged variable initialized to ``init``."""
        name = self.fresh(prefix)
        self.emit(ir.Assign(name, init.expr, ctype=init.ctype, mutable=True))
        return StagedVar(name, type(init), init.ctype, self)

    # -- calls ---------------------------------------------------------------

    def call(
        self,
        fn: str,
        args: Sequence[object],
        result: str = "long",
        prefix: str = "x",
    ) -> Rep:
        """Emit a bound call to an intrinsic/runtime helper, return its value."""
        exprs = tuple([lift_expr(self, a) for a in args])
        sym = self.bind(ir.Call(fn, exprs), ctype=result, prefix=prefix)
        return rep_for_ctype(result)(sym, self)

    def call_stmt(self, fn: str, args: Sequence[object]) -> None:
        """Emit a call purely for its side effect."""
        exprs = tuple([lift_expr(self, a) for a in args])
        self.emit(ir.ExprStmt(ir.Call(fn, exprs)))

    # -- control flow ----------------------------------------------------------

    @contextlib.contextmanager
    def function(self, name: str, params: Sequence[str]) -> Iterator[list[Rep]]:
        """Open a generated function scope; yields the parameters as Reps."""
        fn = ir.Function(name, tuple(params), [])
        self._functions.append(fn)
        self._block_stack.append(fn.body)
        try:
            yield [Rep(ir.Sym(p), self, ctype="long") for p in params]
        finally:
            self._block_stack.pop()

    @contextlib.contextmanager
    def nested_function(self, name: str, params: Sequence[str]) -> Iterator[list[Rep]]:
        """A closure defined at the current position (Section 4.4 pattern)."""
        node = ir.NestedFunc(name, tuple(params), [])
        self.emit(node)
        self._block_stack.append(node.body)
        try:
            yield [Rep(ir.Sym(p), self, ctype="long") for p in params]
        finally:
            self._block_stack.pop()

    @contextlib.contextmanager
    def if_(self, cond: Rep) -> Iterator[None]:
        """Staged conditional: ``with ctx.if_(c): ...``."""
        node = ir.If(cond.expr)
        self.emit(node)
        self._block_stack.append(node.then)
        try:
            yield
        finally:
            self._block_stack.pop()
            self._last_if = node

    @contextlib.contextmanager
    def else_(self) -> Iterator[None]:
        """The else branch of the immediately preceding ``if_``."""
        node = self._last_if
        if node is None:
            raise StagingError("else_ must directly follow an if_ block")
        self._block_stack.append(node.els)
        try:
            yield
        finally:
            self._block_stack.pop()
            self._last_if = None

    @contextlib.contextmanager
    def loop(self) -> Iterator[None]:
        """An unbounded loop; exit with :meth:`break_if` / :meth:`break_`."""
        node = ir.While()
        self.emit(node)
        self._block_stack.append(node.body)
        try:
            yield
        finally:
            self._block_stack.pop()

    def break_(self) -> None:
        self.emit(ir.Break())

    def break_if(self, cond: Rep) -> None:
        """Emit ``if cond: break`` -- the staged loop-exit idiom."""
        with self.if_(cond):
            self.break_()

    @contextlib.contextmanager
    def for_range(
        self,
        start: object,
        stop: object,
        prefix: str = "i",
        step: Optional[object] = None,
        batch: bool = False,
    ) -> Iterator[RepInt]:
        """Counted loop; yields the staged induction variable.  ``batch``
        marks a vector batch loop (see :attr:`ir.ForRange.batch`)."""
        var = self.fresh(prefix)
        node = ir.ForRange(
            var,
            lift_expr(self, start),
            lift_expr(self, stop),
            [],
            step=None if step is None else lift_expr(self, step),
            batch=batch,
        )
        self.emit(node)
        self._block_stack.append(node.body)
        try:
            yield RepInt(ir.Sym(var), self)
        finally:
            self._block_stack.pop()

    @contextlib.contextmanager
    def for_each(
        self, iterable: Rep, prefix: str = "e", ctype: str = "long"
    ) -> Iterator[Rep]:
        """Iterate a runtime collection; yields the staged element."""
        var = self.fresh(prefix)
        node = ir.ForEach(var, iterable.expr, [])
        self.emit(node)
        self._block_stack.append(node.body)
        try:
            yield rep_for_ctype(ctype)(ir.Sym(var), self)
        finally:
            self._block_stack.pop()

    def return_(self, value: Optional[Rep] = None) -> None:
        self.emit(ir.Return(None if value is None else value.expr))

    # -- results ----------------------------------------------------------------

    def program(self) -> list[ir.Function]:
        """All functions generated so far, in definition order."""
        return list(self._functions)
