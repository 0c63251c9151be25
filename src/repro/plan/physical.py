"""Physical query plans.

These are the operator trees that all four engines consume: the Volcano
interpreter, the data-centric push interpreter, the template-expansion
compiler and the LB2 single-pass compiler.  As in the paper, plans are
supplied explicitly (by the optimizer, by the SQL planner, or hand-written
for the TPC-H suite) -- "Query plans in LB2 and DBLAB are supplied
explicitly".

Every node can compute its ordered output fields (name, type) given the
catalog; the compiled engines rely on this for typed code generation, and
the interpreters use it to emit result rows in a deterministic column order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional, Sequence

from repro.errors import ReproError
from repro.catalog.catalog import Catalog
from repro.catalog.types import ColumnType
from repro.plan.expressions import (
    AGGS, NAMED, ONE, AggSpec, And, Arith, Cmp, Col, Const, Expr, ExprError,
    IsNotNull, Param, Slots, map_slots, remake, slot_exprs,
)

Fields = list[tuple[str, ColumnType]]


class PlanError(ReproError):
    """Raised on malformed plans (unknown fields, clashing names...)."""

    code = "E_PLAN"
    phase = "plan"


class PhysicalPlan:
    """Base class for physical operators."""

    def children(self) -> tuple["PhysicalPlan", ...]:
        """The child plans, in the order :data:`SHAPES` declares them
        (each declared operator's method is made from its row)."""
        raise PlanError(f"undeclared plan operator {type(self).__name__}")

    def fields(self, catalog: Catalog) -> Fields:
        """Ordered output fields of this operator (memoized per catalog).

        Plans are immutable, so the result is cached on the node; deep
        plans would otherwise recompute child fields exponentially often.
        """
        memo = self.__dict__.get("_fields_memo")
        if memo is not None and memo[0] is catalog:
            return memo[1]
        result = self.compute_fields(catalog)
        object.__setattr__(self, "_fields_memo", (catalog, result))
        return result

    def compute_fields(self, catalog: Catalog) -> Fields:
        """Compute ordered output fields (overridden per operator)."""
        raise NotImplementedError

    def nullable(self, catalog: Catalog) -> frozenset[str]:
        """The output fields that can hold NULL (memoized per catalog, as
        :meth:`fields` is).

        The plan's one nullability rule.  NULLs enter from declared
        nullable columns (``Column.nullable``), a left outer join's
        null-extended side, and the sum/avg/min/max of a group that can
        be empty -- a global aggregate's, a GroupJoin's unmatched left
        row's -- or that reads a nullable field.  Any expression reading a
        nullable field is nullable, and a Select whose predicate can pass
        no row with NULL in a field clears it (:func:`_rejects_null`).  Every engine guards exactly the
        Project outputs that read one (:meth:`Project.null_refs`), and the
        vector lowering keeps a join whose key is one in rows.
        """
        memo = self.__dict__.get("_nullable_memo")
        if memo is not None and memo[0] is catalog:
            return memo[1]
        result = frozenset(self.compute_nullable(catalog))
        object.__setattr__(self, "_nullable_memo", (catalog, result))
        return result

    def compute_nullable(self, catalog: Catalog) -> set[str]:
        """Nullable output fields (overridden per operator): by default the
        children's, those this operator outputs."""
        out: set[str] = set()
        for child in self.children():
            out |= child.nullable(catalog)
        return out & set(self.field_names(catalog))

    def field_types(self, catalog: Catalog) -> dict[str, ColumnType]:
        return dict(self.fields(catalog))

    def field_names(self, catalog: Catalog) -> list[str]:
        return [name for name, _ in self.fields(catalog)]

    def validate(self, catalog: Catalog) -> None:
        """Walk the plan, forcing field resolution everywhere."""
        for child in self.children():
            child.validate(catalog)
        self.fields(catalog)

    def operator_count(self) -> int:
        return 1 + sum(c.operator_count() for c in self.children())

    def _require(self, catalog: Catalog, child: "PhysicalPlan", names: Sequence[str]) -> None:
        have = set(child.field_names(catalog))
        missing = [n for n in names if n not in have]
        if missing:
            raise PlanError(
                f"{type(self).__name__}: fields {missing} not produced by child "
                f"{type(child).__name__} (has: {sorted(have)})"
            )


@dataclass(frozen=True)
class Scan(PhysicalPlan):
    """Full scan of a base table, optionally renaming columns.

    ``rename`` supports self-joins (e.g. TPC-H Q21 scans lineitem three
    times): renamed fields keep their column's type.  Only renamed fields
    change; others pass through under their own names.
    """

    table: str
    rename: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rename", _renames(self.rename))

    @property
    def rename_map(self) -> dict[str, str]:
        return dict(self.rename)

    def compute_fields(self, catalog: Catalog) -> Fields:
        schema = catalog.table(self.table)
        renames = self.rename_map
        for old in renames:
            schema.require(old)
        return [(renames.get(c.name, c.name), c.type) for c in schema.columns]

    def compute_nullable(self, catalog: Catalog) -> set[str]:
        return _declared_nullable(catalog, self.table, self.rename_map)


@dataclass(frozen=True)
class DateIndexScan(PhysicalPlan):
    """Scan of a table pruned by a date index to a date range.

    Two modes:

    * ``enforce=False`` (default): the scan only *prunes* whole partitions;
      the plan's Select still carries the exact predicate (boundary
      partitions can contain out-of-range rows).
    * ``enforce=True``: the scan itself enforces the bounds, using the
      comparison strictness in ``lo_strict``/``hi_strict``; the rewriter
      removes the corresponding conjuncts from the Select.  The LB2
      back-end then emits *two* loops -- interior partitions run the
      pipeline with no date check at all, boundary partitions re-check --
      one of the "intricate compilation patterns" done in a single pass.

    ``lo_strict=True`` means ``column > lo``; ``hi_strict=True`` means
    ``column < hi``.
    """

    table: str
    column: str
    lo: Optional[int] = None
    hi: Optional[int] = None
    rename: tuple[tuple[str, str], ...] = ()
    enforce: bool = False
    lo_strict: bool = False
    hi_strict: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "rename", _renames(self.rename))

    def bound_check(self, value: int) -> bool:
        """Evaluate the enforced bounds on one encoded date (runtime use)."""
        if self.lo is not None:
            if self.lo_strict:
                if not value > self.lo:
                    return False
            elif not value >= self.lo:
                return False
        if self.hi is not None:
            if self.hi_strict:
                if not value < self.hi:
                    return False
            elif not value <= self.hi:
                return False
        return True

    @property
    def rename_map(self) -> dict[str, str]:
        return dict(self.rename)

    def compute_fields(self, catalog: Catalog) -> Fields:
        schema = catalog.table(self.table)
        if schema.column_type(self.column) is not ColumnType.DATE:
            raise PlanError(
                f"DateIndexScan column {self.table}.{self.column} is not a date"
            )
        renames = self.rename_map
        return [(renames.get(c.name, c.name), c.type) for c in schema.columns]

    def compute_nullable(self, catalog: Catalog) -> set[str]:
        return _declared_nullable(catalog, self.table, self.rename_map)


@dataclass(frozen=True)
class Select(PhysicalPlan):
    """Filter by a boolean predicate."""

    child: PhysicalPlan
    pred: Expr

    def compute_fields(self, catalog: Catalog) -> Fields:
        out = self.child.fields(catalog)
        self._require(catalog, self.child, sorted(self.pred.columns()))
        if self.pred.result_type(dict(out)) is not ColumnType.BOOL:
            raise PlanError("Select predicate is not boolean")
        return out

    def compute_nullable(self, catalog: Catalog) -> set[str]:
        nullable = self.child.nullable(catalog)
        return set(nullable) - _rejects_null(self.pred, nullable)


@dataclass(frozen=True)
class Project(PhysicalPlan):
    """Compute named output expressions (also used for renaming)."""

    child: PhysicalPlan
    outputs: tuple[tuple[str, Expr], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", tuple(self.outputs))

    def compute_fields(self, catalog: Catalog) -> Fields:
        types = self.child.field_types(catalog)
        names = [n for n, _ in self.outputs]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate output names in Project: {names}")
        needed: set[str] = set()
        for _, expr in self.outputs:
            needed |= expr.columns()
        self._require(catalog, self.child, sorted(needed))
        return [(name, expr.result_type(types)) for name, expr in self.outputs]

    def compute_nullable(self, catalog: Catalog) -> set[str]:
        return {
            name
            for (name, _), refs in zip(self.outputs, self.null_refs(catalog))
            if refs
        }

    def null_refs(self, catalog: Catalog) -> list[tuple[str, ...]]:
        """Per output, the nullable child fields it reads, sorted.  SQL
        NULL propagation (None in, None out) guards exactly the outputs
        where this is not empty -- a bare column as well as arithmetic."""
        nullable = self.child.nullable(catalog)
        return [tuple(sorted(expr.columns() & nullable)) for _, expr in self.outputs]


def _join_fields(node: "EquiJoin", catalog: Catalog) -> Fields:
    if len(node.left_keys) != len(node.right_keys):
        raise PlanError(f"{type(node).__name__}: key arity mismatch")
    node._require_keys(catalog)
    lf, rf = node.left.fields(catalog), node.right.fields(catalog)
    clash = {n for n, _ in lf} & {n for n, _ in rf}
    if clash:
        raise PlanError(
            f"{type(node).__name__}: output field name clash {sorted(clash)}; "
            "rename one side (Scan(rename=...) or Project)"
        )
    return lf + rf


@dataclass(frozen=True)
class EquiJoin(PhysicalPlan):
    """The fields every two-sided equi-join shares: its two inputs and the
    key fields each side matches on.  A join type subclasses this, never
    another join type, so ``isinstance`` tells them apart."""

    left: PhysicalPlan
    right: PhysicalPlan
    left_keys: tuple[str, ...]
    right_keys: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left_keys", _as_keys(self.left_keys))
        object.__setattr__(self, "right_keys", _as_keys(self.right_keys))

    def _require_keys(self, catalog: Catalog) -> None:
        self._require(catalog, self.left, self.left_keys)
        self._require(catalog, self.right, self.right_keys)


@dataclass(frozen=True)
class HashJoin(EquiJoin):
    """Inner equi-join; builds a hash table on the left (build) side."""

    def compute_fields(self, catalog: Catalog) -> Fields:
        return _join_fields(self, catalog)


@dataclass(frozen=True)
class LeftOuterJoin(EquiJoin):
    """Left outer equi-join; unmatched left rows carry None right fields."""

    def compute_fields(self, catalog: Catalog) -> Fields:
        return _join_fields(self, catalog)

    def compute_nullable(self, catalog: Catalog) -> set[str]:
        return self.left.nullable(catalog) | set(self.right.field_names(catalog))


@dataclass(frozen=True)
class SemiJoin(EquiJoin):
    """Keep left rows having at least one key match on the right (EXISTS)."""

    def compute_fields(self, catalog: Catalog) -> Fields:
        self._require_keys(catalog)
        return self.left.fields(catalog)


@dataclass(frozen=True)
class AntiJoin(EquiJoin):
    """Keep left rows having no key match on the right (NOT EXISTS)."""

    def compute_fields(self, catalog: Catalog) -> Fields:
        self._require_keys(catalog)
        return self.left.fields(catalog)


@dataclass(frozen=True)
class IndexJoin(PhysicalPlan):
    """Join the child stream against a base table through its hash index.

    The paper's Section 4.3 operator: ``index(rkey(rTuple))`` finds matching
    base-table rows without building a hash table.  ``unique`` selects the
    primary-key (one row) vs foreign-key (row list) index.  An optional
    residual predicate filters fetched base rows before merging.
    """

    child: PhysicalPlan
    table: str
    table_key: str
    child_key: str
    unique: bool = True
    residual: Optional[Expr] = None
    rename: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rename", _renames(self.rename))

    @property
    def rename_map(self) -> dict[str, str]:
        return dict(self.rename)

    def compute_fields(self, catalog: Catalog) -> Fields:
        self._require(catalog, self.child, [self.child_key])
        schema = catalog.table(self.table)
        schema.require(self.table_key)
        renames = self.rename_map
        table_fields = [(renames.get(c.name, c.name), c.type) for c in schema.columns]
        child_fields = self.child.fields(catalog)
        clash = {n for n, _ in child_fields} & {n for n, _ in table_fields}
        if clash:
            raise PlanError(f"IndexJoin: field name clash {sorted(clash)}")
        out = child_fields + table_fields
        if self.residual is not None:
            types = dict(out)
            for name in self.residual.columns():
                if name not in types:
                    raise PlanError(f"IndexJoin residual references unknown {name!r}")
        return out

    def compute_nullable(self, catalog: Catalog) -> set[str]:
        return self.child.nullable(catalog) | _declared_nullable(
            catalog, self.table, self.rename_map
        )


@dataclass(frozen=True)
class IndexSemiJoin(PhysicalPlan):
    """Semi/anti join through a base-table index (Section 4.3).

    The paper: "Method ``exists`` is used by IndexSemiJoin and
    IndexAntiJoin operators."  Keeps child rows for which the indexed
    table has (``anti=False``) or lacks (``anti=True``) a matching row;
    with a ``residual`` predicate, existence is evaluated against fetched
    rows (the ``IndexEntryView.exists(pred)`` form).
    """

    child: PhysicalPlan
    table: str
    table_key: str
    child_key: str
    anti: bool = False
    unique: bool = False
    residual: Optional[Expr] = None
    rename: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rename", _renames(self.rename))

    @property
    def rename_map(self) -> dict[str, str]:
        return dict(self.rename)

    def compute_fields(self, catalog: Catalog) -> Fields:
        self._require(catalog, self.child, [self.child_key])
        schema = catalog.table(self.table)
        schema.require(self.table_key)
        out = self.child.fields(catalog)
        if self.residual is not None:
            renames = self.rename_map
            table_types = {
                renames.get(c.name, c.name): c.type for c in schema.columns
            }
            types = dict(out) | table_types
            for name in self.residual.columns():
                if name not in types:
                    raise PlanError(
                        f"IndexSemiJoin residual references unknown {name!r}"
                    )
        return out


@dataclass(frozen=True)
class Agg(PhysicalPlan):
    """Hash aggregation with optional grouping keys.

    With no keys this is a global aggregate producing exactly one row (SQL
    semantics for empty input: count = 0, sum/avg/min/max = None).
    """

    child: PhysicalPlan
    keys: tuple[tuple[str, Expr], ...]
    aggs: tuple[tuple[str, AggSpec], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "aggs", tuple(self.aggs))

    def compute_fields(self, catalog: Catalog) -> Fields:
        types = self.child.field_types(catalog)
        needed: set[str] = set()
        for _, expr in self.keys:
            needed |= expr.columns()
        for _, spec in self.aggs:
            needed |= spec.columns()
        self._require(catalog, self.child, sorted(needed))
        out: Fields = [(n, e.result_type(types)) for n, e in self.keys]
        out += [(n, s.result_type(types)) for n, s in self.aggs]
        names = [n for n, _ in out]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate output names in Agg: {names}")
        return out

    def compute_nullable(self, catalog: Catalog) -> set[str]:
        nullable = self.child.nullable(catalog)
        out = {name for name, expr in self.keys if expr.columns() & nullable}
        return out | {
            name
            for name, spec in self.aggs
            if spec.kind in _NULL_WHEN_EMPTY
            and (not self.keys or spec.columns() & nullable)
        }


@dataclass(frozen=True)
class GroupJoin(EquiJoin):
    """Combined outer join + aggregation (HyPer's specialized operator).

    The paper attributes part of HyPer's edge on some queries to "specialized
    operators like GroupJoin"; this is that operator, as an extension: for
    each left row, aggregate the matching right rows directly -- one row out
    per left row, no intermediate join product.  Unmatched left rows get the
    empty-group values (count = 0, sum/avg/min/max = None), i.e. the
    ``LEFT OUTER JOIN ... GROUP BY left key`` pattern of TPC-H Q13 in one
    operator.

    ``aggs`` range over *right-side* fields only.
    """

    aggs: tuple[tuple[str, AggSpec], ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "aggs", tuple(self.aggs))

    def compute_fields(self, catalog: Catalog) -> Fields:
        if len(self.left_keys) != len(self.right_keys):
            raise PlanError("GroupJoin: key arity mismatch")
        self._require_keys(catalog)
        right_types = self.right.field_types(catalog)
        needed: set[str] = set()
        for _, spec in self.aggs:
            needed |= spec.columns()
        self._require(catalog, self.right, sorted(needed))
        out = list(self.left.fields(catalog))
        names = {n for n, _ in out}
        for name, spec in self.aggs:
            if name in names:
                raise PlanError(f"GroupJoin output name clash: {name!r}")
            out.append((name, spec.result_type(right_types)))
        return out

    def compute_nullable(self, catalog: Catalog) -> set[str]:
        # an unmatched left row aggregates an empty group
        return self.left.nullable(catalog) | {
            name for name, spec in self.aggs if spec.kind in _NULL_WHEN_EMPTY
        }


@dataclass(frozen=True)
class Sort(PhysicalPlan):
    """Order by named output fields of the child; True = ascending.

    ``limit`` bounds the output (Top-K): engines may then use a bounded
    heap selection instead of a full sort -- the fusion target of
    :func:`repro.plan.rewrite.fuse_topk`.
    """

    child: PhysicalPlan
    keys: tuple[tuple[str, bool], ...]
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))

    def compute_fields(self, catalog: Catalog) -> Fields:
        if self.limit is not None and self.limit < 0:
            raise PlanError("Sort limit must be non-negative")
        self._require(catalog, self.child, [n for n, _ in self.keys])
        return self.child.fields(catalog)


@dataclass(frozen=True)
class Limit(PhysicalPlan):
    """Emit at most ``n`` rows."""

    child: PhysicalPlan
    n: int

    def compute_fields(self, catalog: Catalog) -> Fields:
        if self.n < 0:
            raise PlanError(f"Limit must be non-negative, got {self.n}")
        return self.child.fields(catalog)


@dataclass(frozen=True)
class Distinct(PhysicalPlan):
    """Remove duplicate rows."""

    child: PhysicalPlan

    def compute_fields(self, catalog: Catalog) -> Fields:
        return self.child.fields(catalog)


# -- declared structure -----------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """Where an operator keeps its sub-trees: ``children`` names the fields
    holding child plans, in order, and ``exprs`` the fields holding
    expressions, each with its slot kind (:data:`expressions.SLOTS`)."""

    children: tuple[str, ...] = ()
    exprs: Slots = ()


#: The row of an operator without children or expressions.
LEAF = Shape()

_CHILD = ("child",)
_SIDES = ("left", "right")
_RESIDUAL: Slots = (("residual", ONE),)

#: The one declaration of the plan tree's structure: :meth:`PhysicalPlan.
#: children`, :func:`walk`, :func:`node_exprs` and :func:`rebuild` read it,
#: so a new operator is one row here.
SHAPES: dict[type, Shape] = {
    Scan: LEAF,
    DateIndexScan: LEAF,
    Select: Shape(_CHILD, (("pred", ONE),)),
    Project: Shape(_CHILD, (("outputs", NAMED),)),
    HashJoin: Shape(_SIDES),
    LeftOuterJoin: Shape(_SIDES),
    SemiJoin: Shape(_SIDES),
    AntiJoin: Shape(_SIDES),
    IndexJoin: Shape(_CHILD, _RESIDUAL),
    IndexSemiJoin: Shape(_CHILD, _RESIDUAL),
    Agg: Shape(_CHILD, (("keys", NAMED), ("aggs", AGGS))),
    GroupJoin: Shape(_SIDES, (("aggs", AGGS),)),
    Sort: Shape(_CHILD),
    Limit: Shape(_CHILD),
    Distinct: Shape(_CHILD),
}


def _children_method(names: tuple[str, ...]) -> Callable[[PhysicalPlan], tuple]:
    """An operator's ``children()``, reading the child fields its row names."""
    if not names:
        return lambda self: ()
    if len(names) == 1:
        (name,) = names
        return lambda self: (getattr(self, name),)
    get = attrgetter(*names)
    return lambda self: get(self)


for _operator, _shape in SHAPES.items():
    _operator.children = _children_method(_shape.children)


def shape_of(node: PhysicalPlan) -> Shape:
    try:
        return SHAPES[type(node)]
    except KeyError:
        raise PlanError(f"undeclared plan operator {type(node).__name__}") from None


def node_exprs(node: PhysicalPlan) -> list[Expr]:
    """The expressions the operator holds directly (an undeclared one
    holds none)."""
    return slot_exprs(node, SHAPES.get(type(node), LEAF).exprs)


def walk(plan: PhysicalPlan) -> list[PhysicalPlan]:
    """Every operator of ``plan``, children before their parent, left to
    right (the reverse of a pre-order that visits the right child first)."""
    out: list[PhysicalPlan] = []
    todo = [plan]
    while todo:
        node = todo.pop()
        out.append(node)
        todo.extend(node.children())
    out.reverse()
    return out


def live_fields(plan: PhysicalPlan, catalog: Catalog) -> dict[int, frozenset[str]]:
    """Per operator of ``plan`` (by ``id``; the caller holds the plan), the
    output fields some consumer reads: fields die where their last reader
    is.

    The root's every field is read (they are the result).  An operator
    reads what its keys and expressions name (:func:`node_exprs`,
    :meth:`Expr.columns`) and hands on the live fields it passes through
    (:func:`_input_reads`); a child's live fields are the ones its
    consumers read, over every consumer of a shared sub-plan.  One
    iterative walk: parents before children, each operator once.
    """
    order: list[PhysicalPlan] = []
    seen: set[int] = set()
    todo: list[tuple[PhysicalPlan, bool]] = [(plan, False)]
    while todo:
        node, done = todo.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            todo.append((node, True))
            todo.extend((child, False) for child in node.children())
    live: dict[int, frozenset[str]] = {id(plan): frozenset(plan.field_names(catalog))}
    for node in reversed(order):  # a reverse post-order: parents first
        out = live[id(node)]
        for child, reads in zip(node.children(), _input_reads(node, out)):
            names = child.field_names(catalog)
            read = frozenset(names) if reads is None else reads.intersection(names)
            live[id(child)] = live.get(id(child), frozenset()) | read
    return live


def _input_reads(node: PhysicalPlan, out: frozenset[str]) -> list[Optional[set[str]]]:
    """Per child of ``node``, the names it reads from that child when its
    consumers read ``out`` of its output (None: every field).  A join side
    is intersected with its own fields by the caller, so both sides may be
    handed the same set."""
    if isinstance(node, Project):
        return [set().union(*(e.columns() for n, e in node.outputs if n in out))]
    if isinstance(node, Distinct):
        return [None]  # every field decides what is distinct
    exprs: set[str] = set()
    for expr in node_exprs(node):
        exprs |= expr.columns()
    if isinstance(node, Agg):
        return [exprs]
    if isinstance(node, Sort):
        return [out | {name for name, _ in node.keys}]
    if isinstance(node, (IndexJoin, IndexSemiJoin)):
        return [out | exprs | {node.child_key}]
    if isinstance(node, (HashJoin, LeftOuterJoin)):
        return [out | set(node.left_keys), out | set(node.right_keys)]
    if isinstance(node, (SemiJoin, AntiJoin)):
        return [out | set(node.left_keys), set(node.right_keys)]
    if isinstance(node, GroupJoin):
        return [out | set(node.left_keys), exprs | set(node.right_keys)]
    return [out | exprs for _ in node.children()]  # Select, Limit; leaves: none


def rebuild(
    node: PhysicalPlan,
    children: Optional[Sequence[PhysicalPlan]] = None,
    exprs: Optional[Callable[[Expr], Expr]] = None,
) -> PhysicalPlan:
    """``node`` with ``children`` in its child slots and ``exprs`` applied
    to every expression in its expression slots: a copy, with no memo of
    the old node, when anything differs (by identity); ``node`` itself
    when nothing does."""
    shape = shape_of(node)
    changes = {}
    if children is not None:
        for name, child in zip(shape.children, children, strict=True):
            if child is not getattr(node, name):
                changes[name] = child
    if exprs is not None:
        return map_slots(node, shape.exprs, exprs, changes)
    return remake(node, changes) if changes else node


#: Aggregates whose value over no (non-NULL) input is NULL.
_NULL_WHEN_EMPTY = frozenset({"sum", "avg", "min", "max"})


def _declared_nullable(catalog: Catalog, table: str, renames: dict[str, str]) -> set[str]:
    """A base table's declared-nullable columns, under a scan's renames."""
    return {
        renames.get(c.name, c.name)
        for c in catalog.table(table).columns
        if c.nullable
    }


#: Comparisons that raise on a NULL operand, so no NULL row passes them.
_ORDERING = frozenset({"<", "<=", ">", ">="})


def _rejects_null(pred: Expr, nullable: frozenset[str]) -> set[str]:
    """The fields a predicate lets no NULL row through in, as the engines
    evaluate it (``None`` under Python semantics), alone or as a conjunct:
    the column of an ``IS NOT NULL``, those of an ordering comparison (it
    raises on ``None``), and those of an ``==`` whose other side cannot be
    NULL.  ``!=`` clears nothing (``None != 5`` holds), nor ``==`` between
    two nullable sides (``None == None`` holds), nor a comparison of an
    operand that could turn a NULL into a value (a Case, say): operands
    are built of Col, Const, Param and Arith only."""
    if isinstance(pred, And):
        return set().union(*(_rejects_null(term, nullable) for term in pred.terms))
    if isinstance(pred, IsNotNull) and isinstance(pred.term, Col):
        return {pred.term.name}
    if not (isinstance(pred, Cmp) and _plain(pred.lhs) and _plain(pred.rhs)):
        return set()
    if pred.op in _ORDERING:
        return pred.columns()
    out: set[str] = set()
    if pred.op == "==":
        if not pred.rhs.columns() & nullable:
            out |= pred.lhs.columns()
        if not pred.lhs.columns() & nullable:
            out |= pred.rhs.columns()
    return out


def _plain(expr: Expr) -> bool:
    """Built of Col, Const, Param and Arith only: NULL in, NULL (or a
    raise) out."""
    if isinstance(expr, Arith):
        return _plain(expr.lhs) and _plain(expr.rhs)
    return isinstance(expr, (Col, Const, Param))


def nullable_keys(
    side: PhysicalPlan, keys: Sequence[str], catalog: Catalog
) -> tuple[str, ...]:
    """The join key fields of ``side`` that can hold NULL.  SQL equality
    never holds for NULL, so where there are any, every engine leaves
    NULL-bearing keys out of its build table and a NULL probe key matches
    nothing; where there are none, no check runs."""
    nullable = side.nullable(catalog)
    return tuple(k for k in keys if k in nullable)


def _renames(rename) -> tuple[tuple[str, str], ...]:
    """A scan's renames as a sorted tuple of pairs, given a dict or None."""
    return tuple(sorted(dict(rename).items())) if rename else ()


def _as_keys(keys) -> tuple[str, ...]:
    if isinstance(keys, str):
        return (keys,)
    return tuple(keys)
