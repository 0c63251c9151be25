"""Lint passes: residual-program smells that are not outright errors.

Each pass is independent and composes over the shared walker:

* :class:`UnreachableCode` -- statements following a ``Break``/``Continue``/
  ``Return`` in the same block can never execute;
* :class:`DeadStore` -- a pure, immutable binding whose name is never read
  (the generation pass emitted work the residual program never uses);
* :class:`InfiniteLoop` -- a ``while True`` body with no reachable ``break``
  or ``return`` (staged loops model their condition as internal ``Break``
  guards, so a loop without one can never terminate);
* :class:`HoistSafety` -- effect analysis for the Section-4.4 code-motion
  path: everything emitted *before* the ``run`` closure in a
  ``prepare``/``run`` pair executes ahead of the hot loop, so it must be
  restricted to pure computation, allocation, and database reads -- writes
  to pre-existing state or result output there would reorder observable
  effects;
* :class:`BulkOpInLoop` -- a whole-batch vector kernel staged inside a
  residual row loop runs once per iteration instead of once per batch,
  turning the vector backend's O(n) into O(n^2); the batch lowering is
  supposed to keep every ``v_*`` call directly in its batch loop (or at
  statement nesting depth zero);
* :class:`DeadInstrumentation` -- an observability intrinsic (``obs_now``)
  staged inside a hot loop, or a timer bind that is never read: profiling
  overhead the instrument lowering is supposed to keep off the per-row path;
* :class:`DeadBuildColumn` -- a batch join build (``join_finish``) payload
  column that nothing reads, and :class:`DeadGather` -- a bound ``v_take``
  whose result nothing reads: fields carried past their last reader, which
  the plan's liveness pass (``physical.live_fields``) is there to drop;
* :class:`DuplicateFold` -- two ``v_agg_*`` folds of the same staged input
  into one group table in one batch loop: one accumulator computed twice,
  which the aggregate slot layout (``staged_agg.AggLayout``) is there to
  share.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.analysis.walker import (
    AnalysisPass,
    Diagnostic,
    Severity,
    iter_stmts,
    used_names,
)
from repro.staging import ir


def default_lint_passes() -> list[AnalysisPass]:
    return [
        UnreachableCode(),
        DeadStore(),
        InfiniteLoop(),
        HoistSafety(),
        BulkOpInLoop(),
        DeadInstrumentation(),
        DeadBuildColumn(),
        DeadGather(),
        DuplicateFold(),
    ]


_TERMINATORS = frozenset({ir.Break, ir.Continue, ir.Return})
_IMPURE = frozenset({ir.Call, ir.Index})


class UnreachableCode(AnalysisPass):
    """Flags statements after a terminator within one block."""

    name = "lint"

    def run(self, functions: Sequence[ir.Function]) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for fn in functions:
            self._check(fn.name, fn.body, out)
        return out

    def _check(self, fn_name: str, body: ir.Block, out: list[Diagnostic]) -> None:
        # One frame per open block: its statements and the statement that
        # terminated it, if any.
        todo: list[list] = [[iter(body), None]]
        while todo:
            frame = todo[-1]
            stmt = next(frame[0], None)
            if stmt is None:
                todo.pop()
                continue
            terminated_by: Optional[ir.Stmt] = frame[1]
            if terminated_by is not None and type(stmt) is not ir.Comment:
                kind = type(terminated_by).__name__.lower()
                out.append(self.diag(
                    "unreachable-code",
                    f"statement is unreachable: the block already "
                    f"terminated with a {kind}",
                    fn_name,
                    stmt,
                    severity=Severity.WARNING,
                ))
            elif terminated_by is None and type(stmt) in _TERMINATORS:
                frame[1] = stmt
            todo.extend([iter(sub), None] for sub in reversed(ir.stmt_blocks(stmt)))


def _is_pure(expr: ir.Expr) -> bool:
    """Pure = safe to delete: no helper calls, no subscripts (which may
    fault at run time), only constants/symbols/operators/constructors."""
    return not any(type(node) in _IMPURE for node in ir.walk_expr(expr))


class DeadStore(AnalysisPass):
    """Flags immutable bindings of pure expressions that are never read."""

    name = "lint"

    def run(self, functions: Sequence[ir.Function]) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for fn in functions:
            used = used_names(fn.body)
            for stmt in iter_stmts(fn.body):
                if (
                    type(stmt) is ir.Assign
                    and not stmt.mutable
                    and stmt.name not in used
                    and _is_pure(stmt.expr)
                ):
                    out.append(self.diag(
                        "dead-store",
                        f"{stmt.name!r} is bound to a pure expression but "
                        "never read",
                        fn.name,
                        stmt,
                        severity=Severity.WARNING,
                    ))
        return out


class InfiniteLoop(AnalysisPass):
    """Flags ``While`` bodies with no way out.

    Staged loops are ``while True`` by construction (:class:`ir.While` has
    no condition); every such loop must contain a ``break`` at its own
    nesting level or a ``return`` somewhere in its body.  Breaks belonging
    to *inner* loops do not count, and nested functions are opaque.
    """

    name = "lint"

    def run(self, functions: Sequence[ir.Function]) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for fn in functions:
            for stmt in iter_stmts(fn.body, into_nested=False):
                if type(stmt) is ir.While and not self._has_exit(stmt.body):
                    out.append(self.diag(
                        "infinite-loop",
                        "while-true body contains no reachable break or "
                        "return; the generated loop cannot terminate",
                        fn.name,
                        stmt,
                        severity=Severity.WARNING,
                    ))
        return out

    @staticmethod
    def _has_exit(body: ir.Block) -> bool:
        # inner loops swallow their own breaks; returns still exit
        return any(
            type(stmt) is ir.Return or (type(stmt) is ir.Break and loops == 0)
            for stmt, loops in ir.walk_stmts(body, into_nested=False)
        )


# -- effect analysis ---------------------------------------------------------

#: Observability intrinsics the instrument lowering stages.  Bracketing an
#: operator costs two of these per *datapath invocation* (depth zero); one
#: inside a residual loop body would fire per row instead -- dead
#: instrumentation overhead on the hot path.
OBS_CALLS = frozenset({"obs_now"})


def call_effect(fn: str) -> Optional[str]:
    """The effect class of an intrinsic; None when undeclared (conservative)."""
    row = ir.INTRINSICS.get(fn)
    return None if row is None else row.effect


class HoistSafety(AnalysisPass):
    """Proves the cold path of a ``prepare``/``run`` split is safe to hoist.

    For every function that defines a nested closure at the top level of
    its body (the code-motion shape the driver emits for every program),
    each statement *preceding* the closure was moved out of the hot path
    by the generation pass.  The move is safe iff
    those statements only compute, allocate, read the database, or
    initialize state allocated within the same prelude; anything that
    writes pre-existing state or emits output is flagged.
    """

    name = "lint"

    def run(self, functions: Sequence[ir.Function]) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for fn in functions:
            split = next(
                (i for i, s in enumerate(fn.body) if type(s) is ir.NestedFunc),
                None,
            )
            if split is None:
                continue
            local_allocs: set[str] = set()
            for stmt, _ in ir.walk_stmts(fn.body[:split]):
                self._check_hoisted(fn.name, stmt, local_allocs, out)
        return out

    def _check_hoisted(
        self,
        fn_name: str,
        stmt: ir.Stmt,
        local_allocs: set[str],
        out: list[Diagnostic],
    ) -> None:
        def flag(message: str) -> None:
            out.append(self.diag(
                "hoist-unsafe",
                message,
                fn_name,
                stmt,
                severity=Severity.WARNING,
            ))

        if type(stmt) is ir.SetIndex:
            if not (type(stmt.arr) is ir.Sym and stmt.arr.name in local_allocs):
                flag(
                    "hoisted subscript-write targets state that was not "
                    "allocated in the prelude"
                )
        for node in _calls(stmt):
            effect = call_effect(node.fn)
            if effect in (ir.WRITE, ir.IO):
                target = node.args[0] if node.args else None
                if (
                    effect == ir.WRITE
                    and type(target) is ir.Sym
                    and target.name in local_allocs
                ):
                    continue  # initializing freshly allocated state
                flag(
                    f"hoisted statement calls {node.fn!r}, which "
                    "has observable effects; it must stay on the "
                    "hot path"
                )
            elif effect is None:
                flag(
                    f"hoisted statement calls unknown helper "
                    f"{node.fn!r}; cannot prove the hoist safe"
                )
        if type(stmt) is ir.Assign:
            if type(stmt.expr) is ir.Call and call_effect(stmt.expr.fn) == ir.ALLOC:
                local_allocs.add(stmt.name)


def _calls(stmt: ir.Stmt) -> Iterator[ir.Call]:
    """Every intrinsic call ``stmt`` evaluates directly, pre-order."""
    for expr in ir.stmt_exprs(stmt):
        for node in ir.walk_expr(expr):
            if type(node) is ir.Call:
                yield node


def _is_kernel(fn: str) -> bool:
    row = ir.INTRINSICS.get(fn)
    return row is not None and row.kernel


class BulkOpInLoop(AnalysisPass):
    """Flags whole-batch vector kernels staged inside a row loop body.

    The vector backend's contract is that every kernel (an
    :data:`ir.INTRINSICS` row marked ``kernel``) runs once per *batch*:
    the batch loop (a ``ForRange`` marked ``batch``, one iteration per
    bounded slice of a table) is the one legal loop around kernels.
    Inside it, filters compose masks, aggregations factorize keys, and the
    only residual loops left are per-group emission and devectorized
    edges -- whose views (``v_tolist``) are bound *before* the row loop.  A kernel call inside any other ``for``/``while`` body
    re-scans a whole batch every iteration, which silently degrades the
    batch lowering from O(n) to O(n^2).  The walk treats nested functions
    as part of their enclosing nesting depth: a hoisted ``run`` closure at
    depth zero is fine, but a kernel inside a row loop of it is not.
    """

    name = "lint"

    def run(self, functions: Sequence[ir.Function]) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for fn in functions:
            self._check(fn.name, fn.body, out)
        return out

    def _check(self, fn_name: str, body: ir.Block, out: list[Diagnostic]) -> None:
        # One frame per open block: its statements and whether it runs
        # inside a loop other than a batch loop.
        todo = [(iter(body), False)]
        while todo:
            stmts, in_loop = todo[-1]
            stmt = next(stmts, None)
            if stmt is None:
                todo.pop()
                continue
            if in_loop:
                for node in _calls(stmt):
                    if _is_kernel(node.fn):
                        out.append(self.diag(
                            "bulk-op-in-loop",
                            f"vector kernel {node.fn!r} is staged inside "
                            "a loop body; whole-batch kernels must run "
                            "once per batch, not once per iteration",
                            fn_name,
                            stmt,
                            severity=Severity.WARNING,
                        ))
            shape = ir.SHAPES.get(type(stmt), ir.LEAF)
            batch_loop = type(stmt) is ir.ForRange and stmt.batch
            entered = in_loop or (shape.loop and not batch_loop)
            todo.extend((iter(sub), entered) for sub in reversed(shape.blocks(stmt)))


class DeadInstrumentation(AnalysisPass):
    """Flags observability intrinsics that cost more than they measure.

    The instrument lowering brackets each operator's datapath with a pair
    of ``obs_now`` reads at statement depth zero (datapaths chain at the
    top level of the generated function), so two legitimate shapes exist:
    a depth-zero timer bind whose value feeds a stats write, and nothing
    else.  Everything outside that is dead instrumentation:

    * an ``obs_now`` staged inside a loop body fires once per *row* --
      clock-read overhead on the hot path that no report ever aggregates;
    * a timer bind whose name is never read -- the generation pass paid
      for a measurement and then dropped it.
    """

    name = "lint"

    def run(self, functions: Sequence[ir.Function]) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for fn in functions:
            self._check_loops(fn.name, fn.body, out)
            used = used_names(fn.body)
            for stmt in iter_stmts(fn.body):
                if (
                    type(stmt) is ir.Assign
                    and type(stmt.expr) is ir.Call
                    and stmt.expr.fn in OBS_CALLS
                    and stmt.name not in used
                ):
                    out.append(self.diag(
                        "dead-instrumentation",
                        f"timer bind {stmt.name!r} ({stmt.expr.fn}) is never "
                        "read; the measurement is taken and dropped",
                        fn.name,
                        stmt,
                        severity=Severity.WARNING,
                    ))
        return out

    def _check_loops(
        self, fn_name: str, body: ir.Block, out: list[Diagnostic]
    ) -> None:
        for stmt, loops in ir.walk_stmts(body):
            if not loops:
                continue
            for node in _calls(stmt):
                if node.fn in OBS_CALLS:
                    out.append(self.diag(
                        "dead-instrumentation",
                        f"observability intrinsic {node.fn!r} is "
                        "staged inside a loop body; timers bracket "
                        "whole datapaths, they never run per row",
                        fn_name,
                        stmt,
                        severity=Severity.WARNING,
                    ))


# -- dead fields ---------------------------------------------------------------


class DeadBuildColumn(AnalysisPass):
    """Flags batch join build columns no probe reads.

    ``jx = rt.join_finish(state, nkeys, ncols, ...)`` holds the key index
    at ``jx[0]`` and payload column ``j`` at ``jx[1 + j]``; a probe reads a
    column it gathers as exactly that subscript.  A payload column with no
    such read was stored, concatenated and carried for nothing: its field
    is not read past the join.
    """

    name = "lint"

    def run(self, functions: Sequence[ir.Function]) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for fn in functions:
            builds: dict[str, tuple[ir.Stmt, int]] = {}
            read: set[tuple[str, object]] = set()
            for stmt in iter_stmts(fn.body):
                if (
                    type(stmt) is ir.Assign
                    and type(stmt.expr) is ir.Call
                    and stmt.expr.fn == "join_finish"
                    and type(stmt.expr.args[2]) is ir.Const
                ):
                    builds[stmt.name] = (stmt, stmt.expr.args[2].value)
                for expr in ir.stmt_exprs(stmt):
                    for node in ir.walk_expr(expr):
                        if (
                            type(node) is ir.Index
                            and type(node.arr) is ir.Sym
                            and type(node.idx) is ir.Const
                        ):
                            read.add((node.arr.name, node.idx.value))
            for name, (stmt, ncols) in builds.items():
                dead = [j for j in range(ncols) if (name, 1 + j) not in read]
                if dead:
                    out.append(self.diag(
                        "dead-build-column",
                        f"join build {name!r} stores payload column(s) {dead} "
                        f"of {ncols} that no probe reads",
                        fn.name,
                        stmt,
                        severity=Severity.WARNING,
                    ))
        return out


class DeadGather(AnalysisPass):
    """Flags a bound ``v_take`` (a gather through row ids) whose result is
    never read: a whole-batch copy made for nothing."""

    name = "lint"

    def run(self, functions: Sequence[ir.Function]) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for fn in functions:
            used = used_names(fn.body)
            for stmt in iter_stmts(fn.body):
                if (
                    type(stmt) is ir.Assign
                    and type(stmt.expr) is ir.Call
                    and stmt.expr.fn == "v_take"
                    and stmt.name not in used
                ):
                    out.append(self.diag(
                        "dead-gather",
                        f"gather {stmt.name!r} (v_take) is never read",
                        fn.name,
                        stmt,
                        severity=Severity.WARNING,
                    ))
        return out


class DuplicateFold(AnalysisPass):
    """Flags two folds of the same staged input into one group table
    within one batch loop.

    A fold is ``rt.v_agg_<kind>(groups, slot, ids, *inputs)``; two that
    name the same ``groups``, ``ids`` and inputs and compute the same --
    the same kernel, or a float total twice (``v_agg_fsum``, and
    ``v_agg_sum`` of a batch bound as ``vec_double``) -- fill two slots
    with one accumulator: every batch pays its fold twice.
    """

    name = "lint"

    def run(self, functions: Sequence[ir.Function]) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for fn in functions:
            ctypes = {
                stmt.name: stmt.ctype
                for stmt in iter_stmts(fn.body)
                if type(stmt) is ir.Assign
            }
            for stmt in iter_stmts(fn.body):
                if type(stmt) is ir.ForRange and stmt.batch:
                    self._check_loop(fn.name, stmt.body, ctypes, out)
        return out

    def _check_loop(
        self, fn_name: str, body: ir.Block, ctypes: dict, out: list[Diagnostic]
    ) -> None:
        seen: dict[tuple, object] = {}
        for stmt, _ in ir.walk_stmts(body):
            fold = _fold_of(stmt, ctypes)
            if fold is None:
                continue
            computes, slot = fold
            first = seen.setdefault(computes, slot)
            if first != slot:
                out.append(self.diag(
                    "duplicate-fold",
                    f"{stmt.expr.fn} folds into slot {slot} what slot "
                    f"{first} of the same group table already folds",
                    fn_name,
                    stmt,
                    severity=Severity.WARNING,
                ))


def _fold_of(stmt: ir.Stmt, ctypes: dict) -> Optional[tuple]:
    """``(what it computes, slot)`` of a group-table fold statement."""
    if type(stmt) is not ir.ExprStmt or type(stmt.expr) is not ir.Call:
        return None
    call = stmt.expr
    if not call.fn.startswith("v_agg_") or len(call.args) < 3:
        return None
    groups, slot, ids, *inputs = call.args
    kind = call.fn
    if kind == "v_agg_fsum" or (
        kind == "v_agg_sum" and inputs and _is_float_batch(inputs[0], ctypes)
    ):
        kind = "float total"
    slot_value = slot.value if type(slot) is ir.Const else slot
    return (kind, groups, ids, *inputs), slot_value


def _is_float_batch(expr: ir.Expr, ctypes: dict) -> bool:
    return type(expr) is ir.Sym and ctypes.get(expr.name) == "vec_double"
