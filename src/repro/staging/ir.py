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
from operator import attrgetter
from typing import Callable, Optional, Union


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
    """A call to a named intrinsic; ``fn`` must be a key of :data:`INTRINSICS`,
    which says how each target renders it, its result type and its effect.
    """

    fn: str
    args: tuple[Expr, ...]


# --------------------------------------------------------------------------
# Intrinsics
#
# Every name an ``ir.Call`` may carry is declared here, once: the Python and
# C emitters, the type checker and the lint passes all read this table, so
# adding or removing a runtime kernel means editing exactly one row.
# --------------------------------------------------------------------------

#: Effect classes, for the Section-4.4 hoisting-safety lint.
PURE, ALLOC, READ, WRITE, IO = "pure", "alloc", "read", "write", "io"


@dataclass(frozen=True)
class Intrinsic:
    """One intrinsic's contract.

    ``py`` and ``c`` are ``str.format`` templates over the rendered
    arguments; ``None`` renders a plain call, ``rt.<name>(...)`` into the
    runtime module in Python and ``<name>(...)`` against the support header
    in C.  ``result`` is the C result type: ``None`` is opaque (never
    flagged), ``"void"`` a statement-position helper.  ``kernel`` marks a
    whole-batch vector kernel, which must run once per batch.
    """

    result: Optional[str]
    effect: str
    py: Optional[str] = None
    c: Optional[str] = None
    kernel: bool = False


def _kernel(result: Optional[str], effect: str = PURE) -> Intrinsic:
    return Intrinsic(result, effect, kernel=True)


INTRINSICS: dict[str, Intrinsic] = {
    # scalar values
    "len": Intrinsic("long", PURE, "len({0})", "strlen({0})"),
    "to_float": Intrinsic("double", PURE, "float({0})", "(double){0}"),
    "to_int": Intrinsic("long", PURE, "int({0})", "(long){0}"),
    "hash_str": Intrinsic("long", PURE, "hash({0})", "hash_string({0})"),
    "min2": Intrinsic(None, PURE, "min({0}, {1})", "MIN({0}, {1})"),
    "max2": Intrinsic(None, PURE, "max({0}, {1})", "MAX({0}, {1})"),
    "not_none": Intrinsic("bool", PURE, "({0} is not None)"),
    "is_none": Intrinsic("bool", PURE, "({0} is None)"),
    # strings
    "str_startswith": Intrinsic(
        "bool", PURE, "{0}.startswith({1})", "str_starts_with({0}, {1})"
    ),
    "str_endswith": Intrinsic(
        "bool", PURE, "{0}.endswith({1})", "str_ends_with({0}, {1})"
    ),
    "str_contains": Intrinsic(
        "bool", PURE, "({1} in {0})", "(strstr({0}, {1}) != NULL)"
    ),
    "str_slice": Intrinsic("char*", PURE, "{0}[{1}:{2}]", "str_slice({0}, {1}, {2})"),
    "like": Intrinsic("bool", PURE),
    "like_contains2": Intrinsic("bool", PURE),
    # lists, dicts and sets; WRITE mutates the first argument
    "alloc": Intrinsic("void*", ALLOC, "[{1}] * {0}", "array_fill({0}, {1})"),
    "list_new": Intrinsic("void*", ALLOC, "[]", "buffer_new()"),
    "list_append": Intrinsic("void", WRITE, "{0}.append({1})", "buffer_append({0}, {1})"),
    "list_len": Intrinsic("long", PURE, "len({0})", "buffer_size({0})"),
    "list_head": Intrinsic("void*", PURE, "{0}[:{1}]", "buffer_head({0}, {1})"),
    "dict_new": Intrinsic("void*", ALLOC, "{{}}", "hashmap_new()"),
    "dict_get": Intrinsic(None, PURE, "{0}.get({1}, {2})", "hashmap_get({0}, {1}, {2})"),
    "dict_items": Intrinsic("void*", PURE, "{0}.items()", "hashmap_items({0})"),
    "dict_len": Intrinsic("long", PURE, "len({0})"),
    "set_new": Intrinsic("void*", ALLOC, "set()", "hashset_new()"),
    "set_new1": Intrinsic("void*", ALLOC, "{{{0}}}", "hashset_of({0})"),
    "set_add": Intrinsic("void", WRITE, "{0}.add({1})", "hashset_add({0}, {1})"),
    "set_contains": Intrinsic("bool", PURE, "({1} in {0})", "hashset_contains({0}, {1})"),
    "set_len": Intrinsic("long", PURE, "len({0})", "hashset_size({0})"),
    # database reads: idempotent snapshots of load-time state
    "db_column": Intrinsic("void*", READ, "db.column({0}, {1})", "load_column({0}, {1})"),
    "db_column_vec": Intrinsic(  # vec_long / vec_double / ... by column
        None, READ, "db.column_vec({0}, {1})", "load_column_vec({0}, {1})"
    ),
    "db_size": Intrinsic("long", READ, "db.size({0})", "table_size({0})"),
    # (lo, hi, rows) of an integer / one-byte string column, or None
    "db_bounds": Intrinsic(
        "void*", READ, "db.bounds({0}, {1})", "load_column_bounds({0}, {1})"
    ),
    "db_index": Intrinsic("void*", READ, "db.index({0}, {1})", "load_index({0}, {1})"),
    "db_unique_index": Intrinsic(
        "void*", READ, "db.unique_index({0}, {1})", "load_unique_index({0}, {1})"
    ),
    "db_encoded": Intrinsic(
        "void*", READ, "db.encoded_column({0}, {1})", "load_encoded_column({0}, {1})"
    ),
    "db_dict_strings": Intrinsic(
        "void*", READ, "db.dictionary({0}, {1}).strings",
        "load_dictionary_strings({0}, {1})",
    ),
    "db_date_candidates": Intrinsic(
        "void*", READ, "db.date_index({0}, {1}).candidate_list({2}, {3})",
        "date_index_candidates({0}, {1}, {2}, {3})",
    ),
    "db_date_runs": Intrinsic(
        "void*", READ, "db.date_index({0}, {1}).runs({2}, {3})",
        "date_index_runs({0}, {1}, {2}, {3})",
    ),
    "index_lookup": Intrinsic("void*", READ, "{0}.get({1}, ())", "index_lookup({0}, {1})"),
    "index_lookup_unique": Intrinsic(
        "long", READ, "{0}.get({1}, -1)", "index_lookup_unique({0}, {1})"
    ),
    # runtime-module helpers
    "sort_rows": Intrinsic("void", WRITE),
    "topk_rows": Intrinsic("void*", PURE),
    "argsort_columns": Intrinsic("void*", PURE),
    "group_state": Intrinsic("void*", ALLOC),
    # read state the hot path wrote: ranked with writes so no pass moves them
    "group_merge": Intrinsic("void*", WRITE),
    "join_finish": Intrinsic("void*", WRITE),
    # externally observable effects
    "out_append": Intrinsic("void", IO, "out.append({0})", "emit_row({0})"),
    "map_full": Intrinsic("void", IO),
    # cooperative budget/fault checkpoint: may raise, must stay in the loop
    "scan_tick": Intrinsic("void", IO, c="lb2_scan_tick({0})"),
    # observability clock read: moving one changes a measurement, never a
    # result, so hoisting treats it as a read
    "obs_now": Intrinsic("double", READ),
    # the batch lowering; the sliced column's vector type
    "batch_slice": Intrinsic(None, PURE, "{0}[{1}:{1} + {2}]"),
    # Whole-batch kernels (``rt.v_*``).  Elementwise arithmetic is
    # polymorphic over the element type; comparisons and boolean combinators
    # produce mask vectors.  All but the group table's folds build fresh
    # arrays from their inputs, so they are pure.
    "v_add": _kernel(None),
    "v_sub": _kernel(None),
    "v_mul": _kernel(None),
    "v_div": _kernel("vec_double"),
    "v_floordiv": _kernel("vec_long"),
    "v_mod": _kernel("vec_long"),
    "v_neg": _kernel(None),
    "v_eq": _kernel("vec_bool"),
    "v_ne": _kernel("vec_bool"),
    "v_lt": _kernel("vec_bool"),
    "v_le": _kernel("vec_bool"),
    "v_gt": _kernel("vec_bool"),
    "v_ge": _kernel("vec_bool"),
    "v_and": _kernel("vec_bool"),
    "v_or": _kernel("vec_bool"),
    "v_not": _kernel("vec_bool"),
    "v_like": _kernel("vec_bool"),
    "v_substr": _kernel("vec_str"),
    "v_mask_index": _kernel("void*"),
    "v_take": _kernel(None),
    "v_len": _kernel("long"),
    "v_tolist": _kernel("void*"),
    "v_sum": _kernel(None),
    "v_fsum": _kernel("double"),
    "v_count_nn": _kernel("long"),
    "v_min": _kernel(None),
    "v_max": _kernel(None),
    "v_join_probe": _kernel("void*"),
    "v_join_probe_outer": _kernel("void*"),
    "v_join_contains": _kernel("vec_bool"),
    # the group table (their first argument) folds each batch
    "v_group_ids": _kernel("vec_long", WRITE),
    "v_agg_sum": _kernel("void", WRITE),
    "v_agg_fsum": _kernel("void", WRITE),
    "v_agg_count": _kernel("void", WRITE),
    "v_agg_count_nn": _kernel("void", WRITE),
    "v_agg_min": _kernel("void", WRITE),
    "v_agg_max": _kernel("void", WRITE),
    "v_agg_distinct": _kernel("void", WRITE),
}


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
# traverses it.  :data:`SHAPES` is the single place that knows the child
# structure of every node, so adding an IR node means adding exactly one row
# there and every walker (the verifier, the lint passes, the emitters'
# helpers) picks it up.  Walkers look a node's row up by its exact type once
# and walk with an explicit stack, never by ``isinstance`` chains or
# recursive generators.
# --------------------------------------------------------------------------


def _none(node) -> tuple:
    return ()


def _no_name(node) -> None:
    return None


@dataclass(frozen=True)
class Shape:
    """What a walker needs to know of one node type.

    ``reads`` gives the expressions the node evaluates directly: an
    expression's operands, a statement's own expressions (not those of its
    sub-blocks).  ``blocks`` gives a statement's nested blocks, ``binds``
    the name it introduces into the current scope (a ``NestedFunc`` binds
    its function name; its parameters belong to the nested scope), and
    ``loop`` marks a loop, whose body is a break/continue context.
    """

    reads: Callable[[Node], tuple[Expr, ...]] = _none
    blocks: Callable[[Stmt], tuple[Block, ...]] = _none
    binds: Callable[[Stmt], Optional[str]] = _no_name
    loop: bool = False


#: The row of a node without children, sub-blocks or binding (and of any
#: node type the table does not know).
LEAF = Shape()


def _range_reads(stmt: ForRange) -> tuple[Expr, ...]:
    if stmt.step is None:
        return (stmt.start, stmt.stop)
    return (stmt.start, stmt.stop, stmt.step)


def _body(stmt) -> tuple[Block, ...]:
    return (stmt.body,)


def _expr(node) -> tuple[Expr, ...]:
    return (node.expr,)


SHAPES: dict[type, Shape] = {
    Const: LEAF,
    Sym: LEAF,
    Bin: Shape(attrgetter("lhs", "rhs")),
    Un: Shape(lambda e: (e.operand,)),
    Call: Shape(attrgetter("args")),
    Index: Shape(attrgetter("arr", "idx")),
    TupleExpr: Shape(attrgetter("items")),
    ListExpr: Shape(attrgetter("items")),
    Assign: Shape(_expr, binds=attrgetter("name")),
    Reassign: Shape(_expr),
    SetIndex: Shape(attrgetter("arr", "idx", "value")),
    ExprStmt: Shape(_expr),
    If: Shape(lambda s: (s.cond,), attrgetter("then", "els")),
    While: Shape(blocks=_body, loop=True),
    ForRange: Shape(_range_reads, _body, attrgetter("var"), loop=True),
    ForEach: Shape(lambda s: (s.iterable,), _body, attrgetter("var"), loop=True),
    Break: LEAF,
    Continue: LEAF,
    Return: Shape(lambda s: () if s.expr is None else (s.expr,)),
    NestedFunc: Shape(blocks=_body, binds=attrgetter("name")),
    Comment: LEAF,
}


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    todo = [expr]
    while todo:
        node = todo.pop()
        yield node
        children = SHAPES.get(type(node), LEAF).reads(node)
        if children:
            todo.extend(reversed(children))


def stmt_exprs(stmt: Stmt) -> tuple[Expr, ...]:
    """The expressions a statement evaluates directly (not its sub-blocks)."""
    return SHAPES.get(type(stmt), LEAF).reads(stmt)


def stmt_blocks(stmt: Stmt) -> tuple[Block, ...]:
    """The nested statement blocks of a structured statement."""
    return SHAPES.get(type(stmt), LEAF).blocks(stmt)


def walk_stmts(block: Block, *, into_nested: bool = True):
    """Yield ``(stmt, loops)`` for every statement under ``block``,
    pre-order; ``loops`` counts the loops around it inside ``block``.

    ``into_nested=False`` stops at :class:`NestedFunc` boundaries (a
    nested function is a separate scope and break/continue context).
    """
    todo = [(iter(block), 0)]
    while todo:
        stmts, loops = todo[-1]
        stmt = next(stmts, None)
        if stmt is None:
            todo.pop()
            continue
        yield stmt, loops
        kind = type(stmt)
        if kind is NestedFunc and not into_nested:
            continue
        shape = SHAPES.get(kind, LEAF)
        blocks = shape.blocks(stmt)
        if blocks:
            inner = loops + shape.loop
            todo.extend((iter(sub), inner) for sub in reversed(blocks))


#: The atom types: an expression of one needs no binding to a fresh name.
#: Symbols and constants can be referenced any number of times without
#: duplicating work; everything else is bound once by the staging context.
ATOMS = frozenset({Sym, Const})
