"""Plan pretty-printing ("EXPLAIN").

Renders operator trees as indented text with the per-operator details a
reader needs to audit a plan: predicates, join keys, aggregate specs,
index usage, sort order, output fields.
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.catalog import Catalog
from repro.plan import physical as phys
from repro.plan.expressions import (
    AggSpec,
    And,
    Arith,
    Between,
    Case,
    Cmp,
    Col,
    Const,
    Expr,
    ExtractYear,
    InList,
    IsNotNull,
    Like,
    Not,
    Or,
    Substring,
)


def format_expr(expr: Expr) -> str:
    """A compact, SQL-ish rendering of a plan expression."""
    if isinstance(expr, Col):
        return expr.name
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Arith):
        return f"({format_expr(expr.lhs)} {expr.op} {format_expr(expr.rhs)})"
    if isinstance(expr, Cmp):
        op = {"==": "=", "!=": "<>"}.get(expr.op, expr.op)
        return f"{format_expr(expr.lhs)} {op} {format_expr(expr.rhs)}"
    if isinstance(expr, And):
        return " AND ".join(format_expr(t) for t in expr.terms)
    if isinstance(expr, Or):
        return "(" + " OR ".join(format_expr(t) for t in expr.terms) + ")"
    if isinstance(expr, Not):
        return f"NOT ({format_expr(expr.term)})"
    if isinstance(expr, Like):
        negate = "NOT " if expr.negate else ""
        return f"{format_expr(expr.term)} {negate}LIKE {expr.pattern!r}"
    if isinstance(expr, InList):
        return f"{format_expr(expr.term)} IN {expr.values!r}"
    if isinstance(expr, Case):
        return (
            f"CASE WHEN {format_expr(expr.cond)} THEN {format_expr(expr.then)} "
            f"ELSE {format_expr(expr.els)} END"
        )
    if isinstance(expr, ExtractYear):
        return f"YEAR({format_expr(expr.term)})"
    if isinstance(expr, Substring):
        return f"SUBSTR({format_expr(expr.term)}, {expr.start}, {expr.length})"
    if isinstance(expr, IsNotNull):
        return f"{format_expr(expr.term)} IS NOT NULL"
    return type(expr).__name__


def format_agg(spec: AggSpec) -> str:
    if spec.kind == "count" and spec.expr is None:
        return "count(*)"
    if spec.kind == "count_distinct":
        return f"count(distinct {format_expr(spec.expr)})"
    return f"{spec.kind}({format_expr(spec.expr)})"


def _describe(node: phys.PhysicalPlan) -> str:
    if isinstance(node, phys.Scan):
        extra = f" renamed {dict(node.rename)}" if node.rename else ""
        return f"Scan {node.table}{extra}"
    if isinstance(node, phys.DateIndexScan):
        mode = "enforced" if node.enforce else "pruning-only"
        return (
            f"DateIndexScan {node.table}.{node.column} "
            f"[{node.lo}, {node.hi}] ({mode})"
        )
    if isinstance(node, phys.Select):
        return f"Select {format_expr(node.pred)}"
    if isinstance(node, phys.Project):
        parts = ", ".join(
            name if isinstance(e, Col) and e.name == name else f"{format_expr(e)} AS {name}"
            for name, e in node.outputs
        )
        return f"Project {parts}"
    if isinstance(node, phys.HashJoin):
        keys = ", ".join(f"{a}={b}" for a, b in zip(node.left_keys, node.right_keys))
        return f"HashJoin on {keys} (build left)"
    if isinstance(node, phys.LeftOuterJoin):
        keys = ", ".join(f"{a}={b}" for a, b in zip(node.left_keys, node.right_keys))
        return f"LeftOuterJoin on {keys} (build right)"
    if isinstance(node, phys.SemiJoin):
        keys = ", ".join(f"{a}={b}" for a, b in zip(node.left_keys, node.right_keys))
        return f"SemiJoin on {keys}"
    if isinstance(node, phys.AntiJoin):
        keys = ", ".join(f"{a}={b}" for a, b in zip(node.left_keys, node.right_keys))
        return f"AntiJoin on {keys}"
    if isinstance(node, phys.IndexJoin):
        kind = "unique" if node.unique else "multi"
        residual = f" residual {format_expr(node.residual)}" if node.residual else ""
        return (
            f"IndexJoin {node.table} via {kind} index on {node.table_key} "
            f"probe {node.child_key}{residual}"
        )
    if isinstance(node, phys.IndexSemiJoin):
        kind = "anti" if node.anti else "semi"
        residual = f" residual {format_expr(node.residual)}" if node.residual else ""
        return (
            f"Index{kind.capitalize()}Join {node.table} on {node.table_key} "
            f"probe {node.child_key}{residual}"
        )
    if isinstance(node, phys.Agg):
        keys = ", ".join(f"{format_expr(e)} AS {n}" for n, e in node.keys) or "(global)"
        aggs = ", ".join(f"{format_agg(s)} AS {n}" for n, s in node.aggs)
        return f"Agg by {keys}: {aggs}"
    if isinstance(node, phys.Sort):
        keys = ", ".join(f"{n} {'asc' if asc else 'desc'}" for n, asc in node.keys)
        return f"Sort by {keys}"
    if isinstance(node, phys.Limit):
        return f"Limit {node.n}"
    if isinstance(node, phys.Distinct):
        return "Distinct"
    return type(node).__name__


def explain(plan: phys.PhysicalPlan, catalog: Optional[Catalog] = None) -> str:
    """Multi-line indented rendering of a plan tree.

    With a catalog, the root line also lists the output fields.
    """
    lines: list[str] = []

    def walk(node: phys.PhysicalPlan, depth: int) -> None:
        lines.append("  " * depth + "-> " + _describe(node))
        for child in node.children():
            walk(child, depth + 1)

    walk(plan, 0)
    if catalog is not None:
        names = ", ".join(plan.field_names(catalog))
        lines.insert(0, f"output: [{names}]")
    return "\n".join(lines)
