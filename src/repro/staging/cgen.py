"""Render staged IR to illustrative C source.

The paper's LB2 emits C (Figure 14).  This reproduction *executes* the
Python rendering (:mod:`repro.staging.pygen`); the C rendering exists to
demonstrate that the very same single generation pass retargets to C-shaped
output, mirroring the artifacts shown in the paper's Appendix B.2.  It is
tested against golden files but not compiled (no C toolchain is assumed in
the environment).
"""

from __future__ import annotations

from typing import Sequence

from repro.staging import ir
from repro.staging.pygen import PRIMARY, CodegenError, binding, precedence

_BIN_C = {
    "and": "&&",
    "or": "||",
    "//": "/",
}


def _c_const(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, float):
        text = repr(value)
        return text if ("." in text or "e" in text) else text + ".0"
    return str(value)


# C binding strength of the IR's operators, loosest first.
_C_PREC = precedence("or", "and", "== !=", "< <= > >=", "+ -", "* / // %", "not neg")


def _c_operand(expr: ir.Expr, floor: int) -> str:
    text = render_expr_c(expr)
    return f"({text})" if binding(expr, _C_PREC) < floor else text


def render_expr_c(expr: ir.Expr) -> str:
    """Render one IR expression as C source, parenthesizing a child only
    where it binds looser than its parent or equally tight on the right."""
    if isinstance(expr, ir.Const):
        return _c_const(expr.value)
    if isinstance(expr, ir.Sym):
        return expr.name
    if isinstance(expr, ir.Bin):
        op = _BIN_C.get(expr.op, expr.op)
        level = _C_PREC.get(expr.op, -1)
        return f"{_c_operand(expr.lhs, level)} {op} {_c_operand(expr.rhs, level + 1)}"
    if isinstance(expr, ir.Un):
        operand = _c_operand(expr.operand, _C_PREC["neg"])
        if expr.op == "not":
            return f"!{operand}"
        return f"{expr.op}{operand}"
    if isinstance(expr, ir.Call):
        args = [render_expr_c(a) for a in expr.args]
        row = ir.INTRINSICS.get(expr.fn)
        if row is not None and row.c is not None:
            return row.c.format(*args)
        # No C idiom: a helper assumed to live in a small hand-written
        # support header, just as LB2's generated C calls into a scan/print
        # support layer.
        return f"{expr.fn}({', '.join(args)})"
    if isinstance(expr, ir.Index):
        return f"{_c_operand(expr.arr, PRIMARY)}[{render_expr_c(expr.idx)}]"
    if isinstance(expr, ir.TupleExpr):
        inner = ", ".join(render_expr_c(i) for i in expr.items)
        return f"{{{inner}}}"
    if isinstance(expr, ir.ListExpr):
        inner = ", ".join(render_expr_c(i) for i in expr.items)
        return f"{{{inner}}}"
    raise CodegenError(f"unhandled expression node: {expr!r}")


class _CWriter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def line(self, text: str) -> None:
        self.lines.append("  " * self.depth + text)

    def block(self, body: ir.Block) -> None:
        self.depth += 1
        for stmt in body:
            self.stmt(stmt)
        self.depth -= 1

    def stmt(self, node: ir.Stmt) -> None:
        if isinstance(node, ir.Comment):
            self.line(f"// {node.text}")
        elif isinstance(node, ir.Assign):
            self.line(f"{node.ctype} {node.name} = {render_expr_c(node.expr)};")
        elif isinstance(node, ir.Reassign):
            self.line(f"{node.name} = {render_expr_c(node.expr)};")
        elif isinstance(node, ir.SetIndex):
            self.line(
                f"{render_expr_c(node.arr)}[{render_expr_c(node.idx)}] = "
                f"{render_expr_c(node.value)};"
            )
        elif isinstance(node, ir.ExprStmt):
            self.line(f"{render_expr_c(node.expr)};")
        elif isinstance(node, ir.If):
            self.line(f"if ({render_expr_c(node.cond)}) {{")
            self.block(node.then)
            if node.els:
                self.line("} else {")
                self.block(node.els)
            self.line("}")
        elif isinstance(node, ir.While):
            self.line("for (;;) {")
            self.block(node.body)
            self.line("}")
        elif isinstance(node, ir.ForRange):
            var, start = node.var, render_expr_c(node.start)
            stop = render_expr_c(node.stop)
            step = "1" if node.step is None else render_expr_c(node.step)
            incr = f"{var}++" if step == "1" else f"{var} += {step}"
            self.line(f"for (long {var} = {start}; {var} < {stop}; {incr}) {{")
            self.block(node.body)
            self.line("}")
        elif isinstance(node, ir.ForEach):
            self.line(
                f"FOREACH({node.var}, {render_expr_c(node.iterable)}) {{"
            )
            self.block(node.body)
            self.line("}")
        elif isinstance(node, ir.NestedFunc):
            # C has no closures; render as a labelled block for illustration.
            self.line(f"// closure {node.name}({', '.join(node.params)})")
            self.line("{")
            self.block(node.body)
            self.line("}")
        elif isinstance(node, ir.Break):
            self.line("break;")
        elif isinstance(node, ir.Continue):
            self.line("continue;")
        elif isinstance(node, ir.Return):
            if node.expr is None:
                self.line("return;")
            else:
                self.line(f"return {render_expr_c(node.expr)};")
        else:
            raise CodegenError(f"unhandled statement node: {node!r}")


_C_HEADER = """#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <stdbool.h>
#include "lb2_runtime.h"
"""


def generate_c(functions: Sequence[ir.Function], header: str = "") -> str:
    """Render a staged program to illustrative C source."""
    writer = _CWriter()
    for line in _C_HEADER.splitlines():
        writer.line(line)
    writer.line("")
    if header:
        for line in header.splitlines():
            writer.line(f"// {line}" if line else "//")
    for fn in functions:
        params = ", ".join(f"void* {p}" for p in fn.params)
        writer.line(f"void {fn.name}({params}) {{")
        writer.block(fn.body)
        writer.line("}")
        writer.line("")
    return "\n".join(writer.lines) + "\n"
