"""Render staged IR to illustrative C source.

The paper's LB2 emits C (Figure 14).  This reproduction *executes* the
Python rendering (:mod:`repro.staging.pygen`); the C rendering exists to
demonstrate that the very same single generation pass retargets to C-shaped
output, mirroring the artifacts shown in the paper's Appendix B.2.  It is
tested against golden files but not compiled (no C toolchain is assumed in
the environment).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.staging import ir
from repro.staging.pygen import PRIMARY, CodegenError, binding, precedence

_BIN_C = {
    "and": "&&",
    "or": "||",
    "//": "/",
}

# Intrinsic -> C rendering.  Helpers that have no direct C idiom map onto
# named functions assumed to live in a small hand-written support header,
# just as LB2's generated C calls into a scan/print support layer.
_C_CALLS: dict[str, Callable[..., str]] = {
    "len": lambda a: f"strlen({a})",
    "to_float": lambda a: f"(double){a}",
    "to_int": lambda a: f"(long){a}",
    "hash_str": lambda a: f"hash_string({a})",
    "hash_int": lambda a: f"{a}",
    "abs": lambda a: f"labs({a})",
    "min2": lambda a, b: f"MIN({a}, {b})",
    "max2": lambda a, b: f"MAX({a}, {b})",
    "str_startswith": lambda a, b: f"str_starts_with({a}, {b})",
    "str_endswith": lambda a, b: f"str_ends_with({a}, {b})",
    "str_contains": lambda a, b: f"(strstr({a}, {b}) != NULL)",
    "str_slice": lambda a, lo, hi: f"str_slice({a}, {lo}, {hi})",
    "str_concat": lambda a, b: f"str_concat({a}, {b})",
    "str_eq": lambda a, b: f"(strcmp({a}, {b}) == 0)",
    "alloc": lambda n, v: f"array_fill({n}, {v})",
    "list_new": lambda: "buffer_new()",
    "list_append": lambda l, v: f"buffer_append({l}, {v})",
    "list_len": lambda l: f"buffer_size({l})",
    "list_head": lambda l, n: f"buffer_head({l}, {n})",
    "dict_new": lambda: "hashmap_new()",
    "dict_get": lambda d, k, default: f"hashmap_get({d}, {k}, {default})",
    "dict_contains": lambda d, k: f"hashmap_contains({d}, {k})",
    "dict_items": lambda d: f"hashmap_items({d})",
    "db_column": lambda t, c: f"load_column({t}, {c})",
    "db_column_vec": lambda t, c: f"load_column_vec({t}, {c})",
    "scan_tick": lambda n: f"lb2_scan_tick({n})",
    "db_size": lambda t: f"table_size({t})",
    "db_index": lambda t, c: f"load_index({t}, {c})",
    "db_unique_index": lambda t, c: f"load_unique_index({t}, {c})",
    "db_dictionary": lambda t, c: f"load_dictionary({t}, {c})",
    "db_date_index": lambda t, c: f"load_date_index({t}, {c})",
    "db_encoded": lambda t, c: f"load_encoded_column({t}, {c})",
    "db_dict_strings": lambda t, c: f"load_dictionary_strings({t}, {c})",
    "db_date_candidates": lambda t, c, lo, hi: (
        f"date_index_candidates({t}, {c}, {lo}, {hi})"
    ),
    "db_date_runs": lambda t, c, lo, hi: (
        f"date_index_runs({t}, {c}, {lo}, {hi})"
    ),
    "index_lookup": lambda idx, k: f"index_lookup({idx}, {k})",
    "index_lookup_unique": lambda idx, k: f"index_lookup_unique({idx}, {k})",
    "set_new": lambda: "hashset_new()",
    "set_new1": lambda v: f"hashset_of({v})",
    "set_add": lambda s, v: f"hashset_add({s}, {v})",
    "set_contains": lambda s, v: f"hashset_contains({s}, {v})",
    "set_len": lambda s: f"hashset_size({s})",
    "out_append": lambda v: f"emit_row({v})",
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
        fn = _C_CALLS.get(expr.fn)
        if fn is not None:
            return fn(*args)
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
