"""Render staged IR to executable Python source and compile it.

This is the production back-end of the reproduction: the residual program of
the first Futamura projection is Python source containing only loops, local
variables, subscripts and arithmetic -- all interpretive overhead (operator
objects, expression trees, per-tuple dispatch) has been dissolved by the
generation pass.

Generated functions receive three well-known names:

* ``db``  -- a :class:`repro.storage.database.Database` (raw column access),
* ``out`` -- the output row collector (a list),
* ``rt``  -- the :mod:`repro.compiler.runtime` helper module.

Most staged intermediates are bound to fresh names, but not all operands
are atoms (the open map's probe is ``(cur + 1) % size``), so
:func:`render_expr` parenthesizes where Python would bind differently.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from repro.errors import ReproError
from repro.staging import ir


class CodegenError(ReproError):
    """Raised when the IR contains a node the target cannot render."""

    code = "E_CODEGEN"
    phase = "host-compile"


def _render_call(node: ir.Call, args: Sequence[str]) -> str:
    row = ir.INTRINSICS.get(node.fn)
    if row is None:
        raise CodegenError(f"undeclared intrinsic {node.fn!r} (see ir.INTRINSICS)")
    if row.py is not None:
        return row.py.format(*args)
    return f"rt.{node.fn}({', '.join(args)})"


def precedence(*levels: str) -> dict[str, int]:
    """Operator -> binding strength, levels loosest first; ``neg`` = ``-x``."""
    return {op: n for n, ops in enumerate(levels) for op in ops.split()}


# Comparisons chain in Python (``a < b < c`` is not ``(a < b) < c``), so
# render_expr never nests one in another unparenthesized.
_PY_PREC = precedence("or", "and", "not", "== != < <= > >=", "+ -", "* / // %", "neg")
PRIMARY = 99


def binding(expr: ir.Expr, prec: dict[str, int]) -> int:
    """How tightly ``expr`` binds once rendered, in ``prec``'s terms."""
    if isinstance(expr, ir.Bin):
        return prec.get(expr.op, -1)
    if isinstance(expr, ir.Un):
        return prec["not" if expr.op == "not" else "neg"]
    if isinstance(expr, ir.Const) and type(expr.value) in (int, float) and expr.value < 0:
        return prec["neg"]  # rendered with its sign
    return PRIMARY


def _operand(expr: ir.Expr, floor: int) -> str:
    text = render_expr(expr)
    return f"({text})" if binding(expr, _PY_PREC) < floor else text


def render_expr(expr: ir.Expr) -> str:
    """Render one IR expression as Python source, parenthesizing a child
    only where it binds looser than its parent or equally tight on the
    right (or is a comparison under a comparison)."""
    if isinstance(expr, ir.Const):
        return repr(expr.value)
    if isinstance(expr, ir.Sym):
        return expr.name
    if isinstance(expr, ir.Bin):
        level = _PY_PREC.get(expr.op, -1)
        lhs = _operand(expr.lhs, level + (level == _PY_PREC["<"]))
        return f"{lhs} {expr.op} {_operand(expr.rhs, level + 1)}"
    if isinstance(expr, ir.Un):
        operand = _operand(expr.operand, binding(expr, _PY_PREC))
        if expr.op == "not":
            return f"not {operand}"
        return f"{expr.op}{operand}"
    if isinstance(expr, ir.Call):
        return _render_call(expr, [render_expr(a) for a in expr.args])
    if isinstance(expr, ir.Index):
        return f"{_operand(expr.arr, PRIMARY)}[{render_expr(expr.idx)}]"
    if isinstance(expr, ir.TupleExpr):
        inner = ", ".join(render_expr(i) for i in expr.items)
        if len(expr.items) == 1:
            inner += ","
        return f"({inner})"
    if isinstance(expr, ir.ListExpr):
        return f"[{', '.join(render_expr(i) for i in expr.items)}]"
    raise CodegenError(f"unhandled expression node: {expr!r}")


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def block(self, body: ir.Block) -> None:
        self.depth += 1
        emitted = False
        for stmt in body:
            emitted = self.stmt(stmt) or emitted
        if not emitted:
            self.line("pass")
        self.depth -= 1

    def stmt(self, node: ir.Stmt) -> bool:
        """Render one statement; returns False for pure comments."""
        if isinstance(node, ir.Comment):
            self.line(f"# {node.text}")
            return False
        if isinstance(node, (ir.Assign, ir.Reassign)):
            self.line(f"{node.name} = {render_expr(node.expr)}")
        elif isinstance(node, ir.SetIndex):
            self.line(
                f"{render_expr(node.arr)}[{render_expr(node.idx)}] = "
                f"{render_expr(node.value)}"
            )
        elif isinstance(node, ir.ExprStmt):
            self.line(render_expr(node.expr))
        elif isinstance(node, ir.If):
            self.line(f"if {render_expr(node.cond)}:")
            self.block(node.then)
            if node.els:
                self.line("else:")
                self.block(node.els)
        elif isinstance(node, ir.While):
            self.line("while True:")
            self.block(node.body)
        elif isinstance(node, ir.ForRange):
            if node.step is None:
                rng = f"range({render_expr(node.start)}, {render_expr(node.stop)})"
            else:
                rng = (
                    f"range({render_expr(node.start)}, {render_expr(node.stop)}, "
                    f"{render_expr(node.step)})"
                )
            self.line(f"for {node.var} in {rng}:")
            self.block(node.body)
        elif isinstance(node, ir.ForEach):
            self.line(f"for {node.var} in {render_expr(node.iterable)}:")
            self.block(node.body)
        elif isinstance(node, ir.NestedFunc):
            self.line(f"def {node.name}({', '.join(node.params)}):")
            free = _free_mutables(node.body)
            self.depth += 1
            emitted = False
            if free:
                # Mutable staged locals hoisted into the enclosing prepare()
                # scope (Section 4.4) are reassigned by this closure.
                self.line(f"nonlocal {', '.join(sorted(free))}")
                emitted = True
            for stmt in node.body:
                emitted = self.stmt(stmt) or emitted
            if not emitted:
                self.line("pass")
            self.depth -= 1
        elif isinstance(node, ir.Break):
            self.line("break")
        elif isinstance(node, ir.Continue):
            self.line("continue")
        elif isinstance(node, ir.Return):
            if node.expr is None:
                self.line("return")
            else:
                self.line(f"return {render_expr(node.expr)}")
        else:
            raise CodegenError(f"unhandled statement node: {node!r}")
        return True


def _free_mutables(body) -> set[str]:
    """Names a block reassigns without defining -- closures need ``nonlocal``."""
    assigned: set[str] = set()
    reassigned: set[str] = set()

    def walk(block) -> None:
        for stmt in block:
            if isinstance(stmt, ir.Assign):
                assigned.add(stmt.name)
            elif isinstance(stmt, ir.Reassign):
                reassigned.add(stmt.name)
            elif isinstance(stmt, ir.If):
                walk(stmt.then)
                walk(stmt.els)
            elif isinstance(stmt, (ir.While,)):
                walk(stmt.body)
            elif isinstance(stmt, (ir.ForRange, ir.ForEach)):
                assigned.add(stmt.var)
                walk(stmt.body)
            elif isinstance(stmt, ir.NestedFunc):
                walk(stmt.body)

    walk(body)
    return reassigned - assigned


def generate_python(functions: Sequence[ir.Function], header: str = "") -> str:
    """Render a staged program (list of functions) to Python source."""
    writer = _Writer()
    if header:
        for line in header.splitlines():
            writer.line(f"# {line}" if line else "#")
    for fn in functions:
        writer.line(f"def {fn.name}({', '.join(fn.params)}):")
        writer.block(fn.body)
        writer.line("")
    return "\n".join(writer.lines) + "\n"


_module_counter = itertools.count()


class PyProgram:
    """A compiled staged program: source text plus callable entry points."""

    def __init__(self, source: str, globals_: dict | None = None) -> None:
        from repro.compiler import runtime as _rt

        self.source = source
        self.namespace: dict = {"rt": _rt}
        if globals_:
            self.namespace.update(globals_)
        filename = f"<staged-{next(_module_counter)}>"
        code = compile(source, filename, "exec")
        exec(code, self.namespace)  # noqa: S102 - executing our own codegen output

    def fn(self, name: str) -> Callable:
        """Return a generated function by name."""
        func = self.namespace.get(name)
        if not callable(func):
            raise CodegenError(f"no generated function named {name!r}")
        return func
