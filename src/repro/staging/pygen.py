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
from typing import Callable, Optional, Sequence

from repro.errors import ReproError
from repro.staging import ir


class CodegenError(ReproError):
    """Raised when the IR contains a node the target cannot render."""

    code = "E_CODEGEN"
    phase = "host-compile"


def _render_call(node: ir.Call) -> str:
    row = ir.INTRINSICS.get(node.fn)
    if row is None:
        raise CodegenError(f"undeclared intrinsic {node.fn!r} (see ir.INTRINSICS)")
    args = [render_expr(a) for a in node.args]
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
    kind = type(expr)
    if kind is ir.Bin:
        return prec.get(expr.op, -1)
    if kind is ir.Un:
        return prec["not" if expr.op == "not" else "neg"]
    if kind is ir.Const and type(expr.value) in (int, float) and expr.value < 0:
        return prec["neg"]  # rendered with its sign
    return PRIMARY


def _operand(expr: ir.Expr, floor: int) -> str:
    if type(expr) is ir.Sym:
        return expr.name
    text = render_expr(expr)
    return f"({text})" if binding(expr, _PY_PREC) < floor else text


def render_expr(expr: ir.Expr) -> str:
    """Render one IR expression as Python source, parenthesizing a child
    only where it binds looser than its parent or equally tight on the
    right (or is a comparison under a comparison)."""
    kind = type(expr)
    if kind is ir.Sym:  # most operands: skip the table
        return expr.name
    render = _RENDER.get(kind)
    if render is None:
        raise CodegenError(f"unhandled expression node: {expr!r}")
    return render(expr)


def _bin(expr: ir.Bin) -> str:
    level = _PY_PREC.get(expr.op, -1)
    lhs = _operand(expr.lhs, level + (level == _COMPARE))
    return f"{lhs} {expr.op} {_operand(expr.rhs, level + 1)}"


def _un(expr: ir.Un) -> str:
    operand = _operand(expr.operand, binding(expr, _PY_PREC))
    if expr.op == "not":
        return f"not {operand}"
    return f"{expr.op}{operand}"


def _tuple(expr: ir.TupleExpr) -> str:
    inner = ", ".join(map(render_expr, expr.items))
    if len(expr.items) == 1:
        inner += ","
    return f"({inner})"


_COMPARE = _PY_PREC["<"]

#: Expression type -> its Python rendering.
_RENDER: dict[type, Callable[..., str]] = {
    ir.Const: lambda e: repr(e.value),
    ir.Sym: lambda e: e.name,
    ir.Bin: _bin,
    ir.Un: _un,
    ir.Call: _render_call,
    ir.Index: lambda e: f"{_operand(e.arr, PRIMARY)}[{render_expr(e.idx)}]",
    ir.TupleExpr: _tuple,
    ir.ListExpr: lambda e: f"[{', '.join(map(render_expr, e.items))}]",
}


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
        render = _WRITE.get(type(node))
        if render is None:
            raise CodegenError(f"unhandled statement node: {node!r}")
        return render(self, node) is not False

    def _comment(self, node: ir.Comment) -> bool:
        self.line(f"# {node.text}")
        return False

    def _assign(self, node) -> None:
        self.line(f"{node.name} = {render_expr(node.expr)}")

    def _set_index(self, node: ir.SetIndex) -> None:
        self.line(
            f"{render_expr(node.arr)}[{render_expr(node.idx)}] = "
            f"{render_expr(node.value)}"
        )

    def _expr_stmt(self, node: ir.ExprStmt) -> None:
        self.line(render_expr(node.expr))

    def _if(self, node: ir.If) -> None:
        self.line(f"if {render_expr(node.cond)}:")
        self.block(node.then)
        if node.els:
            self.line("else:")
            self.block(node.els)

    def _while(self, node: ir.While) -> None:
        self.line("while True:")
        self.block(node.body)

    def _for_range(self, node: ir.ForRange) -> None:
        bounds = ", ".join(map(render_expr, ir.stmt_exprs(node)))
        self.line(f"for {node.var} in range({bounds}):")
        self.block(node.body)

    def _for_each(self, node: ir.ForEach) -> None:
        self.line(f"for {node.var} in {render_expr(node.iterable)}:")
        self.block(node.body)

    def _nested_func(self, node: ir.NestedFunc) -> None:
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

    def _return(self, node: ir.Return) -> None:
        if node.expr is None:
            self.line("return")
        else:
            self.line(f"return {render_expr(node.expr)}")


#: Statement type -> the writer method that renders it.
_WRITE: dict[type, Callable[[_Writer, ir.Stmt], Optional[bool]]] = {
    ir.Comment: _Writer._comment,
    ir.Assign: _Writer._assign,
    ir.Reassign: _Writer._assign,
    ir.SetIndex: _Writer._set_index,
    ir.ExprStmt: _Writer._expr_stmt,
    ir.If: _Writer._if,
    ir.While: _Writer._while,
    ir.ForRange: _Writer._for_range,
    ir.ForEach: _Writer._for_each,
    ir.NestedFunc: _Writer._nested_func,
    ir.Break: lambda writer, node: writer.line("break"),
    ir.Continue: lambda writer, node: writer.line("continue"),
    ir.Return: _Writer._return,
}


def _free_mutables(body: ir.Block) -> set[str]:
    """Names a block reassigns without binding -- closures need ``nonlocal``."""
    bound: set[str] = set()
    reassigned: set[str] = set()
    shapes, leaf = ir.SHAPES, ir.LEAF
    todo = [body]
    while todo:
        for stmt in todo.pop():
            kind = type(stmt)
            if kind is ir.Assign:  # most statements
                bound.add(stmt.name)
            elif kind is ir.Reassign:
                reassigned.add(stmt.name)
            else:
                shape = shapes.get(kind, leaf)
                name = shape.binds(stmt)
                if name is not None:
                    bound.add(name)
                todo.extend(shape.blocks(stmt))
    return reassigned - bound


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
