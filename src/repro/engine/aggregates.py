"""Aggregate accumulator semantics shared by both interpreted engines.

SQL semantics throughout: ``count`` of an empty group is 0; ``sum``, ``avg``,
``min`` and ``max`` of an empty group (global aggregation over zero rows) are
None.  ``count(expr)`` counts non-null values, which is what makes TPC-H Q13
(left outer join feeding ``count(o_orderkey)``) come out right.
"""

from __future__ import annotations

from typing import Sequence

from repro.plan.expressions import AggSpec


def eval_null_safe(expr, refs: Sequence[str], row: dict) -> object:
    """Evaluate ``expr`` with SQL NULL propagation: None when any of
    ``refs`` -- the nullable fields it reads, from
    :meth:`repro.plan.physical.Project.null_refs` -- is None."""
    if any(row[name] is None for name in refs):
        return None
    return expr.eval(row)


def init_state(aggs: Sequence[tuple[str, AggSpec]]) -> list:
    """A fresh accumulator list for one group."""
    state: list = []
    for _, spec in aggs:
        if spec.kind == "count":
            state.append(0)
        elif spec.kind == "avg":
            state.append([0.0, 0])
        elif spec.kind == "count_distinct":
            state.append(set())
        else:  # sum / min / max start undefined
            state.append(None)
    return state


def update_state(state: list, aggs: Sequence[tuple[str, AggSpec]], row: dict) -> None:
    """Fold one input row into the accumulators."""
    for i, (_, spec) in enumerate(aggs):
        kind = spec.kind
        if kind == "count":
            if spec.expr is None or spec.expr.eval(row) is not None:
                state[i] += 1
            continue
        value = spec.expr.eval(row)  # type: ignore[union-attr]
        if kind == "sum":
            state[i] = value if state[i] is None else state[i] + value
        elif kind == "avg":
            if value is not None:
                state[i][0] += value
                state[i][1] += 1
        elif kind == "min":
            if state[i] is None or value < state[i]:
                state[i] = value
        elif kind == "max":
            if state[i] is None or value > state[i]:
                state[i] = value
        elif kind == "count_distinct":
            state[i].add(value)


def finalize_state(state: list, aggs: Sequence[tuple[str, AggSpec]]) -> list:
    """Turn accumulators into output values."""
    out: list = []
    for value, (_, spec) in zip(state, aggs):
        kind = spec.kind
        if kind == "avg":
            out.append(value[0] / value[1] if value[1] else None)
        elif kind == "count_distinct":
            out.append(len(value))
        else:
            out.append(value)
    return out
