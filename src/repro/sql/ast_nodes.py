"""AST node definitions for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


class SqlExpr:
    """Base class for SQL expression AST nodes."""


@dataclass(frozen=True)
class Ref(SqlExpr):
    """A column reference, optionally qualified: ``alias.column``."""

    column: str
    table: Optional[str] = None


@dataclass(frozen=True)
class Literal(SqlExpr):
    """A constant: number, string, boolean, or encoded date."""

    value: object


@dataclass(frozen=True)
class Placeholder(SqlExpr):
    """A statement parameter: positional ``?`` or named ``:name``.

    ``index`` is the slot in the runtime parameter vector.  Positional
    placeholders are numbered left to right; every occurrence of the same
    named placeholder shares one index (first-occurrence order).  ``name``
    is ``None`` for positional placeholders.
    """

    index: int
    name: Optional[str] = None


@dataclass(frozen=True)
class Interval(SqlExpr):
    """``INTERVAL 'n' unit`` -- only valid in +/- with a date."""

    amount: int
    unit: str  # day | month | year


@dataclass(frozen=True)
class BinOp(SqlExpr):
    """Arithmetic, comparison, or boolean binary operator."""

    op: str
    lhs: SqlExpr
    rhs: SqlExpr


@dataclass(frozen=True)
class NotOp(SqlExpr):
    term: SqlExpr


@dataclass(frozen=True)
class IsNullOp(SqlExpr):
    """``term IS NULL``, or ``term IS NOT NULL`` when ``negate``."""

    term: SqlExpr
    negate: bool = False


@dataclass(frozen=True)
class LikeOp(SqlExpr):
    term: SqlExpr
    pattern: str
    negate: bool = False


@dataclass(frozen=True)
class InListOp(SqlExpr):
    term: SqlExpr
    values: tuple
    negate: bool = False


@dataclass(frozen=True)
class BetweenOp(SqlExpr):
    term: SqlExpr
    lo: SqlExpr
    hi: SqlExpr
    negate: bool = False


@dataclass(frozen=True)
class CaseOp(SqlExpr):
    cond: SqlExpr
    then: SqlExpr
    els: SqlExpr


@dataclass(frozen=True)
class ExtractOp(SqlExpr):
    unit: str
    term: SqlExpr


@dataclass(frozen=True)
class SubstringOp(SqlExpr):
    term: SqlExpr
    start: int
    length: int


@dataclass(frozen=True)
class FuncCall(SqlExpr):
    """An aggregate call: count/sum/avg/min/max.

    ``star`` marks ``count(*)``; ``distinct`` marks ``count(distinct e)``.
    """

    name: str
    arg: Optional[SqlExpr] = None
    distinct: bool = False
    star: bool = False


@dataclass(frozen=True)
class Exists(SqlExpr):
    """``[NOT] EXISTS (subselect)`` -- decorrelated to a semi/anti join."""

    select: "SelectStmt"
    negate: bool = False


@dataclass(frozen=True)
class InSelectOp(SqlExpr):
    """``expr [NOT] IN (subselect)`` -- decorrelated to a semi/anti join."""

    term: SqlExpr
    select: "SelectStmt"
    negate: bool = False


@dataclass(frozen=True)
class ScalarSubquery(SqlExpr):
    """``(subselect)`` used as a value -- must yield one row, one column."""

    select: "SelectStmt"


@dataclass(frozen=True)
class FromTable:
    """One FROM item: a base table with an optional alias."""

    table: str
    alias: str


@dataclass
class SelectStmt:
    """A single-block SELECT statement."""

    items: list[tuple[Optional[str], SqlExpr]]  # (output alias, expression)
    from_tables: list[FromTable]
    where: Optional[SqlExpr] = None
    group_by: list[SqlExpr] = field(default_factory=list)
    having: Optional[SqlExpr] = None
    order_by: list[tuple[Union[SqlExpr, int], bool]] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
