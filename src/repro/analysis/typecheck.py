"""Bottom-up type inference over residual programs, checked against hints.

``ir.Assign.ctype`` defaults to ``"long"``; the Python target never reads
it, but the C emitter renders it as the declaration type -- so a staged
string (or double) bound without an explicit hint silently miscompiles in
C.  This pass reconstructs types from the leaves (constants, the intrinsic
result types declared in :data:`repro.staging.ir.INTRINSICS`, operators)
and flags every hint the inference contradicts.

Inference is deliberately partial: opaque values (subscripts into runtime
collections, opaque or undeclared intrinsics) type as *unknown* and are
never flagged.
``"void*"`` declarations are opaque-pointer declarations and accept
anything; ``bool``/``long`` are mutually compatible (C integers).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.walker import AnalysisPass, Diagnostic
from repro.staging import ir

_COMPARISONS = {"==", "!=", "<", "<=", ">", ">="}
_NUMERIC = {"long", "bool", "double"}


def _const_type(value: object) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "long"
    if isinstance(value, float):
        return "double"
    if isinstance(value, str):
        return "char*"
    return "void*"  # None, embedded tuples, ...


def infer_expr(expr: ir.Expr, env: dict[str, Optional[str]]) -> Optional[str]:
    """Infer an expression's C type bottom-up; ``None`` when unknown."""
    if isinstance(expr, ir.Const):
        return _const_type(expr.value)
    if isinstance(expr, ir.Sym):
        return env.get(expr.name)
    if isinstance(expr, ir.Bin):
        lhs = infer_expr(expr.lhs, env)
        rhs = infer_expr(expr.rhs, env)
        op = expr.op
        if op in _COMPARISONS or op in ("and", "or"):
            return "bool"
        if op == "/":
            return "double"
        if op in ("//", "%"):
            if lhs in ("long", "bool") and rhs in ("long", "bool"):
                return "long"
            return None
        # + - * : numeric promotion, or concatenation of two strings
        if lhs == "double" or rhs == "double":
            return "double"
        if lhs in ("long", "bool") and rhs in ("long", "bool"):
            return "long"
        if lhs == "char*" and rhs == "char*" and op == "+":
            return "char*"
        return None
    if isinstance(expr, ir.Un):
        if expr.op == "not":
            return "bool"
        return infer_expr(expr.operand, env)
    if isinstance(expr, ir.Call):
        row = ir.INTRINSICS.get(expr.fn)
        result = None if row is None else row.result
        if result == "void":
            return None
        if result is None and expr.fn in ("min2", "max2") and len(expr.args) == 2:
            a = infer_expr(expr.args[0], env)
            b = infer_expr(expr.args[1], env)
            if a is not None and a == b:
                return a
        return result
    if isinstance(expr, ir.Index):
        return None  # element types of runtime collections are opaque
    if isinstance(expr, (ir.TupleExpr, ir.ListExpr)):
        return "void*"
    return None


def compatible(declared: str, inferred: Optional[str]) -> bool:
    """Whether a declaration type can carry a value of the inferred type."""
    if inferred is None or declared == inferred:
        return True
    if declared in ("void*",):
        return True  # opaque pointer declarations accept anything
    if declared in ("long", "int", "bool") and inferred in ("long", "bool"):
        return True
    return False


class TypeChecker(AnalysisPass):
    """Flags ``ctype`` hints that contradict bottom-up inference."""

    name = "typecheck"

    def run(self, functions: Sequence[ir.Function]) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for fn in functions:
            # parameters are opaque runtime values
            env: dict[str, Optional[str]] = {p: None for p in fn.params}
            declared: dict[str, str] = {}
            self._check_block(fn.name, fn.body, env, declared, out)
        return out

    def _check_block(
        self,
        fn_name: str,
        block: ir.Block,
        env: dict[str, Optional[str]],
        declared: dict[str, str],
        out: list[Diagnostic],
    ) -> None:
        for stmt, _ in ir.walk_stmts(block):
            if isinstance(stmt, ir.Assign):
                inferred = infer_expr(stmt.expr, env)
                if not compatible(stmt.ctype, inferred):
                    out.append(self.diag(
                        "ctype-mismatch",
                        f"{stmt.name!r} declared {stmt.ctype!r} but its "
                        f"initializer has type {inferred!r} -- the C emitter "
                        "would declare the wrong type",
                        fn_name,
                        stmt,
                    ))
                declared[stmt.name] = stmt.ctype
                env[stmt.name] = inferred if inferred is not None else (
                    stmt.ctype if stmt.ctype != "void*" else None
                )
            elif isinstance(stmt, ir.Reassign):
                inferred = infer_expr(stmt.expr, env)
                decl = declared.get(stmt.name)
                if decl is not None and not compatible(decl, inferred):
                    out.append(self.diag(
                        "reassign-type",
                        f"{stmt.name!r} declared {decl!r} but reassigned a "
                        f"value of type {inferred!r}",
                        fn_name,
                        stmt,
                    ))
            elif isinstance(stmt, ir.If):
                cond = infer_expr(stmt.cond, env)
                if cond in ("char*", "double"):
                    out.append(self.diag(
                        "cond-type",
                        f"branch condition has type {cond!r}; staged "
                        "conditions must be boolean (or integer) valued",
                        fn_name,
                        stmt,
                    ))
            elif isinstance(stmt, ir.ForRange):
                env[stmt.var] = "long"
            elif isinstance(stmt, ir.ForEach):
                env[stmt.var] = None
            elif isinstance(stmt, ir.NestedFunc):
                for p in stmt.params:
                    env.setdefault(p, None)
