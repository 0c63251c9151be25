"""A minimal statement/expression IR for staged programs.

The paper's point is that a *single* generation pass suffices, so this IR is
deliberately small: it is built once, in order, by the staged interpreter and
then pretty-printed to Python (executable) or C (illustrative).  There are no
transformation passes over it -- it exists only so that the same generated
program can be rendered in more than one target language.

Expressions are trees of :class:`Expr`; statements are :class:`Stmt` nodes
held in :class:`Block` lists.  Every intermediate value computed by the
staged interpreter is bound to a fresh symbol (:class:`Assign`), which --
exactly as in the paper -- guarantees proper sequencing of effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

class Expr:
    """Base class for IR expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """A compile-time constant (int, float, bool, str or None)."""

    value: object


@dataclass(frozen=True)
class Sym(Expr):
    """A reference to a previously bound name."""

    name: str


@dataclass(frozen=True)
class Bin(Expr):
    """A binary operation.

    ``op`` is one of: ``+ - * / // % == != < <= > >= and or`` plus the
    string-typed operators which the emitters special-case.
    """

    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Un(Expr):
    """A unary operation: ``not`` or ``-``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    """A call to a named intrinsic or runtime helper.

    The Python emitter inlines known intrinsics (``len``, ``hash_str``,
    ``tuple``...) and routes everything else through the ``rt`` runtime
    module; the C emitter maps them onto C idioms or helper functions.
    """

    fn: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Index(Expr):
    """An array/list/dict subscript read: ``arr[idx]``."""

    arr: Expr
    idx: Expr


@dataclass(frozen=True)
class TupleExpr(Expr):
    """Construction of an immutable tuple (used for group keys and rows)."""

    items: tuple[Expr, ...]


@dataclass(frozen=True)
class ListExpr(Expr):
    """Construction of a mutable list (used for aggregate state)."""

    items: tuple[Expr, ...]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

class Stmt:
    """Base class for IR statements."""

    __slots__ = ()


Block = list  # Block is simply a list[Stmt]; alias for readability.


@dataclass
class Assign(Stmt):
    """``name = expr`` -- binds a fresh symbol.

    ``ctype`` is a C-type hint recorded when the value was staged, used only
    by the C emitter.  ``mutable`` marks names introduced by ``StagedVar``
    that are reassigned later (C emits these as declarations + assignments).
    """

    name: str
    expr: Expr
    ctype: str = "long"
    mutable: bool = False


@dataclass
class Reassign(Stmt):
    """``name = expr`` for an already-declared mutable variable."""

    name: str
    expr: Expr


@dataclass
class SetIndex(Stmt):
    """``arr[idx] = value``."""

    arr: Expr
    idx: Expr
    value: Expr


@dataclass
class ExprStmt(Stmt):
    """Evaluate an expression for its side effect (e.g. ``out.append(...)``)."""

    expr: Expr


@dataclass
class If(Stmt):
    """A structured conditional."""

    cond: Expr
    then: Block = field(default_factory=list)
    els: Block = field(default_factory=list)


@dataclass
class While(Stmt):
    """``while True:`` -- staged code exits with :class:`Break` guards.

    Modelling loops this way lets the staged condition be computed with
    arbitrary emitted statements inside the loop header, which a
    ``while cond:`` form could not express.
    """

    body: Block = field(default_factory=list)


@dataclass
class ForRange(Stmt):
    """``for var in range(start, stop[, step]):``.

    ``batch`` marks the vector lowering's batch loop: each iteration is one
    bounded batch of a table, so whole-batch kernels in its body run once
    per batch (emitters render it like any other counted loop).
    """

    var: str
    start: Expr
    stop: Expr
    body: Block = field(default_factory=list)
    step: Optional[Expr] = None
    batch: bool = False


@dataclass
class ForEach(Stmt):
    """``for var in iterable:`` -- iteration over a runtime collection."""

    var: str
    iterable: Expr
    body: Block = field(default_factory=list)


@dataclass
class Break(Stmt):
    """``break``."""


@dataclass
class Continue(Stmt):
    """``continue``."""


@dataclass
class Return(Stmt):
    """``return expr`` (or bare ``return``)."""

    expr: Optional[Expr] = None


@dataclass
class NestedFunc(Stmt):
    """A function defined inside another (closure).

    Used for the code-motion pattern of Section 4.4: ``prepare`` allocates
    data structures and returns a ``run`` closure containing the hot path.
    """

    name: str
    params: tuple[str, ...]
    body: Block = field(default_factory=list)


@dataclass
class Comment(Stmt):
    """A generated-code comment; kept so emitted artifacts stay readable."""

    text: str


@dataclass
class Function:
    """A generated function: name, parameter list and body block."""

    name: str
    params: tuple[str, ...]
    body: Block = field(default_factory=list)


Node = Union[Expr, Stmt]


# --------------------------------------------------------------------------
# Walker hooks
#
# The analysis layer (:mod:`repro.analysis`) never rewrites the IR -- it only
# traverses it.  These helpers are the single place that knows the child
# structure of every node, so adding an IR node means extending exactly one
# table here and every analysis pass picks it up.
# --------------------------------------------------------------------------


def expr_children(expr: Expr) -> tuple[Expr, ...]:
    """The direct sub-expressions of ``expr`` (empty for atoms)."""
    if isinstance(expr, Bin):
        return (expr.lhs, expr.rhs)
    if isinstance(expr, Un):
        return (expr.operand,)
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, Index):
        return (expr.arr, expr.idx)
    if isinstance(expr, (TupleExpr, ListExpr)):
        return expr.items
    return ()


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    for child in expr_children(expr):
        yield from walk_expr(child)


def stmt_exprs(stmt: Stmt) -> tuple[Expr, ...]:
    """The expressions a statement evaluates directly (not its sub-blocks)."""
    if isinstance(stmt, (Assign, Reassign)):
        return (stmt.expr,)
    if isinstance(stmt, SetIndex):
        return (stmt.arr, stmt.idx, stmt.value)
    if isinstance(stmt, ExprStmt):
        return (stmt.expr,)
    if isinstance(stmt, If):
        return (stmt.cond,)
    if isinstance(stmt, ForRange):
        if stmt.step is None:
            return (stmt.start, stmt.stop)
        return (stmt.start, stmt.stop, stmt.step)
    if isinstance(stmt, ForEach):
        return (stmt.iterable,)
    if isinstance(stmt, Return):
        return () if stmt.expr is None else (stmt.expr,)
    return ()


def stmt_blocks(stmt: Stmt) -> tuple[Block, ...]:
    """The nested statement blocks of a structured statement."""
    if isinstance(stmt, If):
        return (stmt.then, stmt.els)
    if isinstance(stmt, (While, ForRange, ForEach, NestedFunc)):
        return (stmt.body,)
    return ()


def stmt_binds(stmt: Stmt) -> Optional[str]:
    """The name a statement introduces into the current scope, if any.

    ``NestedFunc`` binds its *function name*; its parameters belong to the
    nested scope and are not returned here.
    """
    if isinstance(stmt, Assign):
        return stmt.name
    if isinstance(stmt, (ForRange, ForEach)):
        return stmt.var
    if isinstance(stmt, NestedFunc):
        return stmt.name
    return None


def is_atom(expr: Expr) -> bool:
    """Return True when ``expr`` needs no binding to a fresh name.

    Symbols and constants can be referenced any number of times without
    duplicating work; everything else is bound once by the staging context.
    """
    return isinstance(expr, (Sym, Const))
