"""Parameter slots of a physical plan: collect, validate, bind.

A plan produced from parameterized SQL carries :class:`~repro.plan.
expressions.Param` leaves in its expression slots (Select predicates,
Project outputs, index-join residuals, aggregate arguments).  This module
is the single place that understands where those slots live:

* :func:`collect_params` walks a plan and returns its parameter signature
  -- one :class:`ParamSlot` per vector index, with the planner-inferred
  type (INT/FLOAT unify to FLOAT when occurrences disagree).  A slot the
  planner could not type raises the typed ``E_PARAM`` error here, at
  statement time, not deep inside code generation.
* :func:`check_bindings` validates user-supplied bindings (positional
  sequence or name mapping) against a signature and returns the positional
  value vector -- arity, missing/unknown names, and Python-type mismatches
  all raise ``E_PARAM`` with ``phase="execute"``.
* :func:`bind_params` substitutes a value vector into the plan, turning
  every ``Param`` back into a :class:`Const`.  The interpreted engines
  (Volcano, push) execute the bound plan; the compiled engines never need
  it -- their residual program reads the vector at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.catalog.types import ColumnType
from repro.errors import ParamError
from repro.plan import physical as phys
from repro.plan.expressions import (
    AggSpec,
    And,
    Arith,
    Case,
    Cmp,
    Const,
    Expr,
    ExtractYear,
    InList,
    Like,
    Not,
    Or,
    Param,
    Substring,
)

Bindings = Union[Sequence[object], Mapping[str, object]]


@dataclass(frozen=True)
class ParamSlot:
    """One slot of a plan's runtime parameter vector."""

    index: int
    ctype: ColumnType
    name: Optional[str] = None

    def describe(self) -> str:
        return f":{self.name}" if self.name else f"?{self.index}"


def _map_expr(expr: Expr, fn) -> Expr:
    """Rebuild ``expr`` with ``fn`` applied to every :class:`Param` leaf."""
    if isinstance(expr, Param):
        return fn(expr)
    if isinstance(expr, Arith):
        return Arith(expr.op, _map_expr(expr.lhs, fn), _map_expr(expr.rhs, fn))
    if isinstance(expr, Cmp):
        return Cmp(expr.op, _map_expr(expr.lhs, fn), _map_expr(expr.rhs, fn))
    if isinstance(expr, And):
        return And(*[_map_expr(t, fn) for t in expr.terms])
    if isinstance(expr, Or):
        return Or(*[_map_expr(t, fn) for t in expr.terms])
    if isinstance(expr, Not):
        return Not(_map_expr(expr.term, fn))
    if isinstance(expr, Case):
        return Case(
            _map_expr(expr.cond, fn),
            _map_expr(expr.then, fn),
            _map_expr(expr.els, fn),
        )
    if isinstance(expr, Like):
        return Like(_map_expr(expr.term, fn), expr.pattern, expr.negate)
    if isinstance(expr, InList):
        return InList(_map_expr(expr.term, fn), expr.values)
    if isinstance(expr, ExtractYear):
        return ExtractYear(_map_expr(expr.term, fn))
    if isinstance(expr, Substring):
        return Substring(_map_expr(expr.term, fn), expr.start, expr.length)
    return expr


def _map_agg(spec: AggSpec, fn) -> AggSpec:
    if spec.expr is None:
        return spec
    return AggSpec(spec.kind, _map_expr(spec.expr, fn))


def map_plan_exprs(plan: phys.PhysicalPlan, fn) -> phys.PhysicalPlan:
    """Rebuild ``plan`` with ``fn`` applied to every Param in every
    expression slot.  Operators without expression slots are rebuilt only
    when a child changed."""
    if isinstance(plan, phys.Select):
        return phys.Select(map_plan_exprs(plan.child, fn), _map_expr(plan.pred, fn))
    if isinstance(plan, phys.Project):
        return phys.Project(
            map_plan_exprs(plan.child, fn),
            [(n, _map_expr(e, fn)) for n, e in plan.outputs],
        )
    if isinstance(plan, phys.Agg):
        return phys.Agg(
            map_plan_exprs(plan.child, fn),
            [(n, _map_expr(e, fn)) for n, e in plan.keys],
            [(n, _map_agg(s, fn)) for n, s in plan.aggs],
        )
    if isinstance(plan, phys.GroupJoin):
        return phys.GroupJoin(
            map_plan_exprs(plan.left, fn),
            map_plan_exprs(plan.right, fn),
            plan.left_keys,
            plan.right_keys,
            [(n, _map_agg(s, fn)) for n, s in plan.aggs],
        )
    if isinstance(plan, phys.IndexJoin):
        return phys.IndexJoin(
            map_plan_exprs(plan.child, fn),
            plan.table,
            plan.table_key,
            plan.child_key,
            unique=plan.unique,
            residual=None if plan.residual is None else _map_expr(plan.residual, fn),
            rename=plan.rename_map,
        )
    if isinstance(plan, phys.IndexSemiJoin):
        return phys.IndexSemiJoin(
            map_plan_exprs(plan.child, fn),
            plan.table,
            plan.table_key,
            plan.child_key,
            anti=plan.anti,
            unique=plan.unique,
            residual=None if plan.residual is None else _map_expr(plan.residual, fn),
            rename=plan.rename_map,
        )
    if isinstance(plan, (phys.HashJoin, phys.LeftOuterJoin, phys.SemiJoin, phys.AntiJoin)):
        return type(plan)(
            map_plan_exprs(plan.left, fn),
            map_plan_exprs(plan.right, fn),
            plan.left_keys,
            plan.right_keys,
        )
    if isinstance(plan, phys.Sort):
        return phys.Sort(map_plan_exprs(plan.child, fn), plan.keys, plan.limit)
    if isinstance(plan, phys.Limit):
        return phys.Limit(map_plan_exprs(plan.child, fn), plan.n)
    if isinstance(plan, phys.Distinct):
        return phys.Distinct(map_plan_exprs(plan.child, fn))
    # Leaves (Scan, DateIndexScan) and any operator without expression
    # slots pass through untouched.
    return plan


def plan_params(plan: phys.PhysicalPlan) -> list[Param]:
    """Every Param occurrence in the plan, in traversal order."""
    out: list[Param] = []

    def visit(param: Param) -> Expr:
        out.append(param)
        return param

    map_plan_exprs(plan, visit)
    return out


def _unify(a: Optional[ColumnType], b: Optional[ColumnType], slot: str) -> Optional[ColumnType]:
    if a is None:
        return b
    if b is None or a is b:
        return a
    numeric = {ColumnType.INT, ColumnType.FLOAT}
    if a in numeric and b in numeric:
        return ColumnType.FLOAT
    if {a, b} == {ColumnType.DATE, ColumnType.INT}:
        return ColumnType.DATE
    raise ParamError(
        f"parameter {slot} used with conflicting types "
        f"{a.value} and {b.value}",
        phase="plan",
    )


def collect_params(plan: phys.PhysicalPlan) -> Tuple[ParamSlot, ...]:
    """The plan's parameter signature, ordered by vector index.

    Raises ``E_PARAM`` (phase ``plan``) for an untypable slot, a gap in
    the index sequence, or occurrences with irreconcilable types.
    """
    occurrences = plan_params(plan)
    if not occurrences:
        return ()
    by_index: dict[int, tuple[Optional[str], Optional[ColumnType]]] = {}
    for param in occurrences:
        name, ctype = by_index.get(param.index, (param.name, None))
        by_index[param.index] = (
            name or param.name,
            _unify(ctype, param.ptype, param.describe()),
        )
    count = max(by_index) + 1
    slots: list[ParamSlot] = []
    for index in range(count):
        if index not in by_index:
            raise ParamError(
                f"parameter vector has a gap at slot {index}", phase="plan"
            )
        name, ctype = by_index[index]
        if ctype is None:
            label = f":{name}" if name else f"?{index}"
            raise ParamError(
                f"cannot infer a type for parameter {label}; compare it "
                "against a column or another typed expression",
                phase="plan",
            )
        slots.append(ParamSlot(index, ctype, name))
    return tuple(slots)


_PY_TYPES = {
    ColumnType.INT: "int",
    ColumnType.FLOAT: "float",
    ColumnType.STRING: "str",
    ColumnType.DATE: "int (YYYYMMDD date encoding)",
    ColumnType.BOOL: "bool",
}


def _check_value(slot: ParamSlot, value: object) -> object:
    ok: bool
    if slot.ctype is ColumnType.BOOL:
        ok = isinstance(value, bool)
    elif slot.ctype is ColumnType.FLOAT:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif slot.ctype in (ColumnType.INT, ColumnType.DATE):
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:  # STRING
        ok = isinstance(value, str)
    if not ok:
        raise ParamError(
            f"parameter {slot.describe()} expects {_PY_TYPES[slot.ctype]}, "
            f"got {type(value).__name__} {value!r}",
            phase="execute",
        )
    return value


def check_bindings(
    signature: Sequence[ParamSlot], params: Optional[Bindings]
) -> Tuple[object, ...]:
    """Validate bindings against a signature; return the positional vector.

    Positional statements take a sequence of the exact arity; named
    statements take either a mapping over exactly the statement's names or
    a sequence in first-occurrence order.  Every violation is a typed
    ``E_PARAM`` with ``phase="execute"`` -- never a raw ``TypeError``.
    """
    signature = tuple(signature)
    if not signature:
        if params:
            raise ParamError(
                f"statement takes no parameters, got {len(params)}",
                phase="execute",
            )
        return ()
    named = any(slot.name for slot in signature)
    if params is None:
        raise ParamError(
            f"statement takes {len(signature)} parameter(s), got none",
            phase="execute",
        )
    if isinstance(params, Mapping):
        if not named:
            raise ParamError(
                "statement uses positional '?' parameters; pass a sequence, "
                "not a mapping",
                phase="execute",
            )
        names = {slot.name for slot in signature}
        unknown = sorted(set(params) - names)
        if unknown:
            raise ParamError(
                f"unknown parameter name(s): {', '.join(unknown)}",
                phase="execute",
            )
        missing = sorted(names - set(params))
        if missing:
            raise ParamError(
                f"missing parameter(s): {', '.join(missing)}", phase="execute"
            )
        return tuple(
            _check_value(slot, params[slot.name]) for slot in signature
        )
    if isinstance(params, (str, bytes)):
        raise ParamError(
            "parameters must be a sequence or mapping, not a string",
            phase="execute",
        )
    values = tuple(params)
    if len(values) != len(signature):
        raise ParamError(
            f"statement takes {len(signature)} parameter(s), got {len(values)}",
            phase="execute",
        )
    return tuple(
        _check_value(slot, value) for slot, value in zip(signature, values)
    )


def bind_params(
    plan: phys.PhysicalPlan, values: Sequence[object]
) -> phys.PhysicalPlan:
    """Substitute a positional value vector: every Param becomes a Const.

    ``values`` must already be validated (:func:`check_bindings`); an
    out-of-range index raises ``E_PARAM`` defensively.
    """
    values = tuple(values)

    def visit(param: Param) -> Expr:
        if param.index >= len(values):
            raise ParamError(
                f"no binding for parameter {param.describe()}",
                phase="execute",
            )
        value = values[param.index]
        if param.ptype is ColumnType.FLOAT and isinstance(value, int):
            value = float(value)
        return Const(value)

    return map_plan_exprs(plan, visit)
