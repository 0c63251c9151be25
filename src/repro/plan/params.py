"""Parameter slots of a physical plan: collect, validate, bind.

A plan produced from parameterized SQL carries :class:`~repro.plan.
expressions.Param` leaves in its expression slots (Select predicates,
Project outputs, index-join residuals, aggregate arguments), which
:data:`repro.plan.physical.SHAPES` declares.  This module reads and binds
them:

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
from repro.plan.expressions import Const, Expr, Param, replace_expr, walk_expr

Bindings = Union[Sequence[object], Mapping[str, object]]


@dataclass(frozen=True)
class ParamSlot:
    """One slot of a plan's runtime parameter vector."""

    index: int
    ctype: ColumnType
    name: Optional[str] = None

    def describe(self) -> str:
        return f":{self.name}" if self.name else f"?{self.index}"


def plan_params(plan: phys.PhysicalPlan) -> list[Param]:
    """Every Param occurrence in the plan, in traversal order (children
    before their parent); a read-only walk that builds no node."""
    return [
        leaf
        for node in phys.walk(plan)
        for expr in phys.node_exprs(node)
        for leaf in walk_expr(expr)
        if type(leaf) is Param
    ]


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


class ParamVector(tuple):
    """A positional value vector :func:`check_bindings` validated against
    :attr:`signature` -- what a compiled program reads at run time.

    Handing it to :func:`check_bindings` again with an equal signature
    returns it as is, so a request whose bindings were checked when its
    statement was resolved is not checked a second time when it runs.
    """

    signature: Tuple[ParamSlot, ...]


def _vector(signature: Tuple[ParamSlot, ...], values) -> ParamVector:
    vector = ParamVector(_check_value(slot, v) for slot, v in zip(signature, values))
    vector.signature = signature
    return vector


def check_bindings(
    signature: Sequence[ParamSlot], params: Optional[Bindings]
) -> Tuple[object, ...]:
    """Validate bindings against a signature; return the positional vector.

    Positional statements take a sequence of the exact arity; named
    statements take either a mapping over exactly the statement's names or
    a sequence in first-occurrence order.  Every violation is a typed
    ``E_PARAM`` with ``phase="execute"`` -- never a raw ``TypeError``.
    The vector is a :class:`ParamVector`, which passes back through
    unchecked.
    """
    signature = tuple(signature)
    if type(params) is ParamVector and (
        params.signature is signature or params.signature == signature
    ):
        return params
    if not signature:
        if params:
            raise ParamError(
                f"statement takes no parameters, got {len(params)}",
                phase="execute",
            )
        return ()
    if params is None:
        raise ParamError(
            f"statement takes {len(signature)} parameter(s), got none",
            phase="execute",
        )
    if type(params) is not tuple and type(params) is not list:
        if isinstance(params, Mapping):
            return _check_mapping(signature, params)
        if isinstance(params, (str, bytes)):
            raise ParamError(
                "parameters must be a sequence or mapping, not a string",
                phase="execute",
            )
        params = tuple(params)
    if len(params) != len(signature):
        raise ParamError(
            f"statement takes {len(signature)} parameter(s), got {len(params)}",
            phase="execute",
        )
    return _vector(signature, params)


def _check_mapping(
    signature: Tuple[ParamSlot, ...], params: Mapping[str, object]
) -> ParamVector:
    if not any(slot.name for slot in signature):
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
    return _vector(signature, [params[slot.name] for slot in signature])


def bind_params(
    plan: phys.PhysicalPlan, values: Sequence[object]
) -> phys.PhysicalPlan:
    """Substitute a positional value vector: every Param becomes a Const.

    ``values`` must already be validated (:func:`check_bindings`); an
    out-of-range index raises ``E_PARAM`` defensively.
    """
    values = tuple(values)

    def visit(param: Expr) -> Optional[Expr]:
        if type(param) is not Param:
            return None
        if param.index >= len(values):
            raise ParamError(
                f"no binding for parameter {param.describe()}",
                phase="execute",
            )
        value = values[param.index]
        if param.ptype is ColumnType.FLOAT and isinstance(value, int):
            value = float(value)
        return Const(value)

    return _map_exprs(plan, lambda expr: replace_expr(expr, visit))


def _map_exprs(node: phys.PhysicalPlan, fn) -> phys.PhysicalPlan:
    """``node``'s tree with ``fn`` applied to every expression slot."""
    return phys.rebuild(node, [_map_exprs(child, fn) for child in node.children()], fn)
