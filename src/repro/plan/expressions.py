"""Scalar expressions over records, with three co-defined backends.

Each node knows how to:

* ``eval(row)``      -- evaluate directly on a runtime row (dict); used by the
  Volcano and push interpreters;
* ``stage(rec)``     -- evaluate symbolically on a staged record, *emitting*
  residual code (the LB2 path -- the Futamura projection applied to this very
  evaluator);
* ``template(rec)``  -- render a Python source fragment referencing ``rec``
  (the coarse template-expansion compiler of Section 4's strawman).

Keeping all three on one node is the reproduction's embodiment of the
paper's claim that the compiler is the interpreter, re-typed.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass
from typing import Callable, Optional

from repro.catalog.types import ColumnType

Types = dict[str, ColumnType]


class ExprError(Exception):
    """Raised on malformed expressions or unresolvable columns."""


class Expr:
    """Base class for scalar expressions."""

    def eval(self, row: dict) -> object:
        raise NotImplementedError

    def stage(self, rec) -> object:
        raise NotImplementedError

    def template(self, rec: str) -> str:
        raise NotImplementedError

    def columns(self) -> frozenset[str]:
        """The fields the expression reads: its :class:`Col` leaves.

        Memoized on the node (nodes are frozen); a rebuilt node
        (:func:`remake`) starts without it."""
        memo = self.__dict__.get(_COLUMNS_MEMO)
        if memo is None:
            memo = _memo_columns(self)
        return memo

    def result_type(self, types: Types) -> ColumnType:
        raise NotImplementedError

    # -- tiny combinator sugar used by query definitions ------------------------

    def __add__(self, other: "Expr") -> "Arith":
        return Arith("+", self, _wrap(other))

    def __sub__(self, other: "Expr") -> "Arith":
        return Arith("-", self, _wrap(other))

    def __mul__(self, other: "Expr") -> "Arith":
        return Arith("*", self, _wrap(other))

    def __truediv__(self, other: "Expr") -> "Arith":
        return Arith("/", self, _wrap(other))

    def eq(self, other) -> "Cmp":
        return Cmp("==", self, _wrap(other))

    def ne(self, other) -> "Cmp":
        return Cmp("!=", self, _wrap(other))

    def lt(self, other) -> "Cmp":
        return Cmp("<", self, _wrap(other))

    def le(self, other) -> "Cmp":
        return Cmp("<=", self, _wrap(other))

    def gt(self, other) -> "Cmp":
        return Cmp(">", self, _wrap(other))

    def ge(self, other) -> "Cmp":
        return Cmp(">=", self, _wrap(other))


def _wrap(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(value)


@dataclass(frozen=True)
class Col(Expr):
    """A reference to a named field of the current record."""

    name: str

    def eval(self, row: dict) -> object:
        try:
            return row[self.name]
        except KeyError:
            raise ExprError(
                f"record has no field {self.name!r}; fields: {sorted(row)}"
            ) from None

    def stage(self, rec):
        return rec[self.name]

    def template(self, rec: str) -> str:
        return f"{rec}[{self.name!r}]"

    def columns(self) -> frozenset[str]:
        return frozenset((self.name,))

    def result_type(self, types: Types) -> ColumnType:
        try:
            return types[self.name]
        except KeyError:
            raise ExprError(f"unknown field {self.name!r} in type context") from None


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant (present-stage: folded into generated code)."""

    value: object

    def eval(self, row: dict) -> object:
        return self.value

    def stage(self, rec):
        return rec.ctx.lift(self.value)

    def template(self, rec: str) -> str:
        return repr(self.value)

    def result_type(self, types: Types) -> ColumnType:
        if isinstance(self.value, bool):
            return ColumnType.BOOL
        if isinstance(self.value, int):
            return ColumnType.INT
        if isinstance(self.value, float):
            return ColumnType.FLOAT
        if isinstance(self.value, str):
            return ColumnType.STRING
        raise ExprError(f"untypable constant {self.value!r}")


@dataclass(frozen=True)
class Param(Expr):
    """A runtime parameter slot (future-stage: *not* folded into code).

    Where :class:`Const` is a present-stage value the generator bakes into
    the residual program, ``Param`` is a hole the residual program fills at
    every execution from the parameter vector it closes over -- parameters
    are applied last and never change the plan.  ``index`` is the slot in
    that vector, ``name`` the source-level ``:name`` (``None`` for
    positional ``?``), and ``ptype`` the type the planner inferred from the
    expression context (a comparison against a column, an arithmetic
    sibling, ...).

    ``eval`` raises: the interpreted engines never see a ``Param`` --
    callers substitute bound values first (``plan.params.bind_params``).
    """

    index: int
    name: Optional[str] = None
    ptype: Optional[ColumnType] = None

    def eval(self, row: dict) -> object:
        from repro.errors import ParamError

        raise ParamError(
            f"unbound parameter {self.describe()}: interpreted execution "
            "requires bind_params() before eval",
            phase="execute",
        )

    def stage(self, rec):
        return rec.ctx.param_rep(self.index)

    def template(self, rec: str) -> str:
        return f"params[{self.index}]"

    def result_type(self, types: Types) -> ColumnType:
        if self.ptype is None:
            raise ExprError(f"parameter {self.describe()} has no inferred type")
        return self.ptype

    def describe(self) -> str:
        return f":{self.name}" if self.name else f"?{self.index}"


_ARITH_EVAL = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@dataclass(frozen=True)
class Arith(Expr):
    """Binary arithmetic (+ - * /)."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITH_EVAL:
            raise ExprError(f"unknown arithmetic operator {self.op!r}")

    def eval(self, row: dict) -> object:
        return _ARITH_EVAL[self.op](self.lhs.eval(row), self.rhs.eval(row))

    def stage(self, rec):
        lhs, rhs = self.lhs.stage(rec), self.rhs.stage(rec)
        if self.op == "+":
            return lhs + rhs
        if self.op == "-":
            return lhs - rhs
        if self.op == "*":
            return lhs * rhs
        return lhs / rhs

    def template(self, rec: str) -> str:
        return f"({self.lhs.template(rec)} {self.op} {self.rhs.template(rec)})"

    def result_type(self, types: Types) -> ColumnType:
        if self.op == "/":
            return ColumnType.FLOAT
        left = self.lhs.result_type(types)
        right = self.rhs.result_type(types)
        if ColumnType.FLOAT in (left, right):
            return ColumnType.FLOAT
        return ColumnType.INT


_CMP_EVAL = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Cmp(Expr):
    """A comparison producing a boolean."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in _CMP_EVAL:
            raise ExprError(f"unknown comparison operator {self.op!r}")

    def eval(self, row: dict) -> bool:
        return _CMP_EVAL[self.op](self.lhs.eval(row), self.rhs.eval(row))

    def stage(self, rec):
        from repro.compiler.staged_record import DicValue

        lhs, rhs = self.lhs.stage(rec), self.rhs.stage(rec)
        op = self.op
        if isinstance(rhs, DicValue) and not isinstance(lhs, DicValue):
            # Dictionary-compressed values drive the specialization; mirror
            # the comparison so the DicValue is the receiver.
            lhs, rhs = rhs, lhs
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}[op]
        if op == "==":
            return lhs == rhs
        if op == "!=":
            return lhs != rhs
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        return lhs >= rhs

    def template(self, rec: str) -> str:
        return f"({self.lhs.template(rec)} {self.op} {self.rhs.template(rec)})"

    def result_type(self, types: Types) -> ColumnType:
        return ColumnType.BOOL


def _flatten_into(node, terms) -> None:
    """Set an And/Or's terms, splicing in those of a nested node of its
    own type."""
    flat: list[Expr] = []
    for term in terms:
        flat.extend(term.terms if type(term) is type(node) else (term,))
    if not flat:
        raise ExprError(f"{type(node).__name__}() needs at least one term")
    object.__setattr__(node, "terms", tuple(flat))


@dataclass(frozen=True)
class And(Expr):
    """Conjunction of one or more boolean expressions."""

    terms: tuple[Expr, ...]

    def __init__(self, *terms: Expr) -> None:
        _flatten_into(self, terms)

    def eval(self, row: dict) -> bool:
        return all(t.eval(row) for t in self.terms)

    def stage(self, rec):
        result = self.terms[0].stage(rec)
        for term in self.terms[1:]:
            result = result & term.stage(rec)
        return result

    def template(self, rec: str) -> str:
        return "(" + " and ".join(t.template(rec) for t in self.terms) + ")"

    def result_type(self, types: Types) -> ColumnType:
        return ColumnType.BOOL


@dataclass(frozen=True)
class Or(Expr):
    """Disjunction of one or more boolean expressions."""

    terms: tuple[Expr, ...]

    def __init__(self, *terms: Expr) -> None:
        _flatten_into(self, terms)

    def eval(self, row: dict) -> bool:
        return any(t.eval(row) for t in self.terms)

    def stage(self, rec):
        result = self.terms[0].stage(rec)
        for term in self.terms[1:]:
            result = result | term.stage(rec)
        return result

    def template(self, rec: str) -> str:
        return "(" + " or ".join(t.template(rec) for t in self.terms) + ")"

    def result_type(self, types: Types) -> ColumnType:
        return ColumnType.BOOL


@dataclass(frozen=True)
class Not(Expr):
    """Boolean negation."""

    term: Expr

    def eval(self, row: dict) -> bool:
        return not self.term.eval(row)

    def stage(self, rec):
        return ~self.term.stage(rec)

    def template(self, rec: str) -> str:
        return f"(not {self.term.template(rec)})"

    def result_type(self, types: Types) -> ColumnType:
        return ColumnType.BOOL


@dataclass(frozen=True)
class IsNotNull(Expr):
    """``term IS NOT NULL``."""

    term: Expr

    def eval(self, row: dict) -> bool:
        return self.term.eval(row) is not None

    def stage(self, rec):
        return rec.ctx.call("not_none", [self.term.stage(rec)], result="bool")

    def template(self, rec: str) -> str:
        return f"({self.term.template(rec)} is not None)"

    def result_type(self, types: Types) -> ColumnType:
        return ColumnType.BOOL


def _like_shape(pattern: str) -> tuple[str, tuple[str, ...]]:
    """Classify a LIKE pattern for specialization.

    Returns ``(shape, parts)`` where shape is one of ``exact``, ``prefix``,
    ``suffix``, ``contains``, ``contains2`` (``%a%b%``) or ``generic``.
    The common shapes compile to direct string operations; ``generic`` falls
    back to the runtime matcher.
    """
    if "_" in pattern:
        return "generic", (pattern,)
    body = pattern.split("%")
    if len(body) == 1:
        return "exact", (pattern,)
    if len(body) == 2:
        head, tail = body
        if head and not tail:
            return "prefix", (head,)
        if tail and not head:
            return "suffix", (tail,)
        if head and tail:
            return "generic", (pattern,)
        return "any", ()
    if len(body) == 3 and not body[0] and not body[2] and body[1]:
        return "contains", (body[1],)
    if (
        len(body) == 4
        and not body[0]
        and not body[3]
        and body[1]
        and body[2]
    ):
        return "contains2", (body[1], body[2])
    return "generic", (pattern,)


@functools.lru_cache(maxsize=256)
def like_predicate(pattern: str) -> Callable[[str], bool]:
    """The (un-negated) LIKE test of ``pattern`` on one value, specialized
    by shape: what the interpreters run per row, and the batch kernel per
    value of a batch it cannot scan natively."""
    shape, parts = _like_shape(pattern)
    if shape == "exact":
        return lambda value: value == pattern
    if shape == "prefix":
        return lambda value: value.startswith(parts[0])
    if shape == "suffix":
        return lambda value: value.endswith(parts[0])
    if shape == "contains":
        return lambda value: parts[0] in value
    if shape == "any":
        return lambda value: True
    from repro.compiler import runtime

    if shape == "contains2":
        return lambda value: runtime.like_contains2(value, *parts)
    return lambda value: runtime.like(value, pattern)


@dataclass(frozen=True)
class Like(Expr):
    """SQL LIKE, specialized by pattern shape at construction time."""

    term: Expr
    pattern: str
    negate: bool = False

    @property
    def shape(self) -> str:
        return _like_shape(self.pattern)[0]

    def _match(self, value: str) -> bool:
        result = like_predicate(self.pattern)(value)
        return not result if self.negate else result

    def eval(self, row: dict) -> bool:
        return self._match(self.term.eval(row))

    def stage(self, rec):
        value = self.term.stage(rec)
        if getattr(value, "is_vector", False):
            # a batch column: one kernel per batch covers every shape
            return value.like(self.pattern, self.negate)
        shape, parts = _like_shape(self.pattern)
        ctx = rec.ctx
        if shape == "exact":
            result = value == self.pattern
        elif shape == "prefix":
            result = value.startswith(parts[0])
        elif shape == "suffix":
            result = value.endswith(parts[0])
        elif shape == "contains":
            result = value.contains(parts[0])
        elif shape == "contains2":
            result = ctx.call(
                "like_contains2", [value, parts[0], parts[1]], result="bool"
            )
        elif shape == "any":
            result = ctx.bool_(True)
        else:
            result = ctx.call("like", [value, self.pattern], result="bool")
        return ~result if self.negate else result

    def template(self, rec: str) -> str:
        value = self.term.template(rec)
        shape, parts = _like_shape(self.pattern)
        if shape == "exact":
            body = f"({value} == {self.pattern!r})"
        elif shape == "prefix":
            body = f"{value}.startswith({parts[0]!r})"
        elif shape == "suffix":
            body = f"{value}.endswith({parts[0]!r})"
        elif shape == "contains":
            body = f"({parts[0]!r} in {value})"
        elif shape == "any":
            body = "True"
        else:
            body = f"rt.like({value}, {self.pattern!r})"
        return f"(not {body})" if self.negate else body

    def result_type(self, types: Types) -> ColumnType:
        return ColumnType.BOOL


@dataclass(frozen=True)
class Case(Expr):
    """``CASE WHEN cond THEN a ELSE b END`` (two-armed)."""

    cond: Expr
    then: Expr
    els: Expr

    def eval(self, row: dict) -> object:
        return self.then.eval(row) if self.cond.eval(row) else self.els.eval(row)

    def stage(self, rec):
        # Both arms are staged *outside* the branch: expressions are pure,
        # and hoisting the loads keeps record-field memoization sound (a
        # field first touched inside a branch must not be reused after it).
        ctx = rec.ctx
        cond = self.cond.stage(rec)
        then = self.then.stage(rec)
        els = self.els.stage(rec)
        var = ctx.var(_plain(els, ctx), prefix="case")
        with ctx.if_(cond):
            var.set(_plain(then, ctx))
        return var.get()

    def template(self, rec: str) -> str:
        return (
            f"({self.then.template(rec)} if {self.cond.template(rec)} "
            f"else {self.els.template(rec)})"
        )

    def result_type(self, types: Types) -> ColumnType:
        return self.then.result_type(types)


def _plain(value, ctx):
    """Force a staged value to a plain Rep (decode dictionary codes)."""
    from repro.compiler.staged_record import DicValue

    if isinstance(value, DicValue):
        return value.decode()
    return value


@dataclass(frozen=True)
class ExtractYear(Expr):
    """``extract(year from date_col)`` on the integer date encoding."""

    term: Expr

    def eval(self, row: dict) -> int:
        return self.term.eval(row) // 10000

    def stage(self, rec):
        return self.term.stage(rec) // 10000

    def template(self, rec: str) -> str:
        return f"({self.term.template(rec)} // 10000)"

    def result_type(self, types: Types) -> ColumnType:
        return ColumnType.INT


def substring_bounds(start: int, length: int) -> tuple[int, int]:
    """The 0-based slice ``lo:hi`` that ``substring(s from start for
    length)`` takes.

    SQL numbers characters from 1 and returns those at positions
    ``start .. start + length - 1`` that exist: a start below 1 keeps only
    the part of that span from position 1 on (``from 0 for 3`` is the
    first two characters), and a span ending before position 1 is empty.
    """
    lo = max(start - 1, 0)
    return lo, max(start - 1 + length, lo)


@dataclass(frozen=True)
class Substring(Expr):
    """``substring(s from start for length)`` -- 1-based, like SQL; every
    lowering slices :func:`substring_bounds`."""

    term: Expr
    start: int
    length: int

    @property
    def bounds(self) -> tuple[int, int]:
        return substring_bounds(self.start, self.length)

    def eval(self, row: dict) -> str:
        lo, hi = self.bounds
        return self.term.eval(row)[lo:hi]

    def stage(self, rec):
        return self.term.stage(rec).substring(*self.bounds)

    def template(self, rec: str) -> str:
        lo, hi = self.bounds
        return f"{self.term.template(rec)}[{lo}:{hi}]"

    def result_type(self, types: Types) -> ColumnType:
        return ColumnType.STRING


@dataclass(frozen=True)
class InList(Expr):
    """``expr IN (const, ...)`` over a literal list."""

    term: Expr
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    def eval(self, row: dict) -> bool:
        return self.term.eval(row) in self.values

    def stage(self, rec):
        value = self.term.stage(rec)
        result = value == self.values[0]
        for candidate in self.values[1:]:
            result = result | (value == candidate)
        return result

    def template(self, rec: str) -> str:
        return f"({self.term.template(rec)} in {self.values!r})"

    def result_type(self, types: Types) -> ColumnType:
        return ColumnType.BOOL


def Between(term: Expr, lo, hi) -> And:
    """``term BETWEEN lo AND hi`` (inclusive both ends)."""
    return And(term.ge(lo), term.le(hi))


# -- aggregate specifications ---------------------------------------------------

_AGG_KINDS = ("sum", "count", "avg", "min", "max", "count_distinct")


@dataclass(frozen=True)
class AggSpec:
    """An aggregate over a group: kind plus the aggregated expression."""

    kind: str
    expr: Optional[Expr] = None

    def __post_init__(self) -> None:
        if self.kind not in _AGG_KINDS:
            raise ExprError(f"unknown aggregate kind {self.kind!r}")
        if self.kind != "count" and self.expr is None:
            raise ExprError(f"aggregate {self.kind!r} requires an expression")

    def columns(self) -> frozenset[str]:
        return self.expr.columns() if self.expr is not None else _NO_COLUMNS

    def result_type(self, types: Types) -> ColumnType:
        if self.kind in ("count", "count_distinct"):
            return ColumnType.INT
        if self.kind == "avg":
            return ColumnType.FLOAT
        assert self.expr is not None
        return self.expr.result_type(types)


# -- declared structure -----------------------------------------------------------
#
# :data:`SLOTS` is the one place that knows where an expression form keeps
# its sub-expressions; ``plan.physical.SHAPES`` does the same for operators,
# with the same slot kinds.  Every walk (:func:`walk_expr`,
# :meth:`Expr.columns`, the plan's parameter walk) and every rebuild
# (:func:`map_slots`, :func:`replace_expr`) reads them, so a new expression
# form is one row here.

#: Slot kinds.  ``ONE``: the field holds an Expr, or None.  ``TERMS``: a
#: tuple of Exprs that is its node's only field and its constructor's
#: arguments (a rebuilt And/Or flattens there).  ``NAMED``: a tuple of
#: ``(name, Expr)`` pairs.  ``AGGS``: a tuple of ``(name, AggSpec)`` pairs.
ONE, TERMS, NAMED, AGGS = "one", "terms", "named", "aggs"

Slots = tuple[tuple[str, str], ...]

_TERM: Slots = (("term", ONE),)
_SIDES: Slots = (("lhs", ONE), ("rhs", ONE))

SLOTS: dict[type, Slots] = {
    Col: (),
    Const: (),
    Param: (),
    Arith: _SIDES,
    Cmp: _SIDES,
    And: (("terms", TERMS),),
    Or: (("terms", TERMS),),
    Not: _TERM,
    IsNotNull: _TERM,
    Like: _TERM,
    Case: (("cond", ONE), ("then", ONE), ("els", ONE)),
    ExtractYear: _TERM,
    Substring: _TERM,
    InList: _TERM,
    AggSpec: (("expr", ONE),),
}


def slot_exprs(node, slots: Slots) -> list[Expr]:
    """The expressions ``node`` holds directly in ``slots``, in order."""
    out: list[Expr] = []
    for name, kind in slots:
        value = getattr(node, name)
        if kind == ONE:
            if value is not None:
                out.append(value)
        elif kind == TERMS:
            out.extend(value)
        elif kind == NAMED:
            out.extend(expr for _, expr in value)
        else:
            out.extend(spec.expr for _, spec in value if spec.expr is not None)
    return out


_COLUMNS_MEMO = "_columns_memo"
_NO_COLUMNS: frozenset[str] = frozenset()


def _memo_columns(expr: Expr) -> frozenset[str]:
    """Compute and memoize :meth:`Expr.columns` of ``expr``: one iterative
    walk that takes a memoized sub-expression's answer whole."""
    out: set[str] = set()
    todo = [expr]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Col:
            out.add(node.name)
            continue
        subs = _SUBS[kind]
        if subs is None:  # a leaf, or an empty ONE slot
            continue
        memo = node.__dict__.get(_COLUMNS_MEMO)
        if memo is not None:
            out |= memo
            continue
        get, many = subs
        if many:
            todo.extend(get(node))
        else:
            todo.append(get(node))
    cols = frozenset(out)
    object.__setattr__(expr, _COLUMNS_MEMO, cols)
    return cols


def _subs_getter(slots: Slots) -> Optional[tuple[Callable, bool]]:
    """How :func:`_memo_columns` reads a form's sub-expressions, made from
    its :data:`SLOTS` row: ``(get, many)``, where ``get(node)`` is one
    sub-expression (or None) unless ``many`` says it is a sequence; None
    for a leaf.  An expression form's slots are ONE slots, or one TERMS
    slot (its only field)."""
    if not slots:
        return None
    names = [name for name, _ in slots]
    if slots[0][1] == TERMS:
        return operator.attrgetter(names[0]), True
    return operator.attrgetter(*names), len(names) > 1


#: Per form, how its sub-expressions are read (None: a leaf, and the
#: type of an empty ONE slot), made from SLOTS.
_SUBS = {form: _subs_getter(slots) for form, slots in SLOTS.items()}
_SUBS[type(None)] = None


def walk_expr(expr: Expr) -> list[Expr]:
    """``expr`` and every sub-expression, pre-order."""
    out: list[Expr] = []
    todo = [expr]
    while todo:
        node = todo.pop()
        out.append(node)
        slots = SLOTS[type(node)]
        if slots:
            todo.extend(reversed(slot_exprs(node, slots)))
    return out


def map_slots(node, slots: Slots, fn: Callable[[Expr], Expr], changes=None):
    """``node`` with ``fn`` applied to every expression in its ``slots``
    and the field values in ``changes`` put in: a copy when anything
    differs (by identity), ``node`` itself when nothing does."""
    changes = dict(changes or ())
    for name, kind in slots:
        old = getattr(node, name)
        if kind == ONE:
            new = old if old is None else fn(old)
        elif kind == TERMS:
            new = _map_tuple(old, fn)
            if new is not old:
                return type(node)(*new)
        else:
            item = fn if kind == NAMED else functools.partial(
                map_slots, slots=SLOTS[AggSpec], fn=fn
            )
            new = _map_tuple(old, lambda pair: _map_pair(pair, item))
        if new is not old:
            changes[name] = new
    return remake(node, changes) if changes else node


def _map_tuple(values: tuple, fn) -> tuple:
    new = tuple(map(fn, values))
    return values if all(map(operator.is_, new, values)) else new


def _map_pair(pair: tuple, fn) -> tuple:
    name, value = pair
    new = fn(value)
    return pair if new is value else (name, new)


def remake(node, changes: dict):
    """A copy of the dataclass ``node`` with the field values in
    ``changes``, set field by field: no constructor runs, and nothing the
    old node memoized outside its fields carries over."""
    cls = type(node)
    new = object.__new__(cls)
    values = vars(new)
    for name in _field_names(cls):
        values[name] = changes[name] if name in changes else getattr(node, name)
    return new


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def replace_expr(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """``expr`` with every sub-expression ``fn`` maps to a value replaced
    by it, top-down: a replaced node is not looked into, and a node ``fn``
    maps to None is rebuilt over its own replaced sub-expressions (it is
    returned as is when none is replaced)."""
    new = fn(expr)
    if new is not None:
        return new
    slots = SLOTS[type(expr)]
    if not slots:
        return expr
    return map_slots(expr, slots, lambda sub: replace_expr(sub, fn))


def sum_(expr: Expr) -> AggSpec:
    return AggSpec("sum", expr)


def count() -> AggSpec:
    return AggSpec("count")


def count_col(expr: Expr) -> AggSpec:
    """``count(expr)`` -- counts non-null values (left outer join support)."""
    return AggSpec("count", expr)


def avg(expr: Expr) -> AggSpec:
    return AggSpec("avg", expr)


def min_(expr: Expr) -> AggSpec:
    return AggSpec("min", expr)


def max_(expr: Expr) -> AggSpec:
    return AggSpec("max", expr)


def count_distinct(expr: Expr) -> AggSpec:
    return AggSpec("count_distinct", expr)


# -- terse constructors -----------------------------------------------------------


def col(name: str) -> Col:
    return Col(name)


def lit(value) -> Const:
    return Const(value)
