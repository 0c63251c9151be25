"""The IR verifier: structural well-formedness of residual programs.

The staged evaluator emits code in one pass with no checking stage, so any
codegen bug becomes a runtime failure (or a silently wrong answer) in the
residual program.  The verifier restores the guarantee that typed
multi-pass IRs get for free, as pure analysis:

* **def-before-use** -- every :class:`ir.Sym` must refer to a function
  parameter or a name bound by an earlier statement (closures see the whole
  enclosing scope, matching Python's late binding);
* **single assignment** -- :class:`ir.Assign` introduces a fresh name; a
  second static assignment (or shadowing of any visible name) is an error;
* **mutability discipline** -- :class:`ir.Reassign` may only target names
  introduced with ``mutable=True`` (the ``StagedVar`` contract);
* **loop context** -- ``Break``/``Continue`` only inside a loop body, and
  never escaping through a :class:`ir.NestedFunc` boundary;
* **closure capture** -- every free name of a nested function (the
  Section-4.4 ``prepare``/``run`` pair) must be bound in an enclosing
  scope, and closure reassignments must target mutable names (these are
  exactly the names the Python emitter declares ``nonlocal``).
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.walker import AnalysisPass, Diagnostic
from repro.staging import ir


class Verifier(AnalysisPass):
    """Checks every function of a staged program; reports all violations.

    A scope is one dict, name -> mutable flag, holding every name visible
    in it: a closure's starts as a copy of its enclosing scope's, complete
    by then (see :meth:`_check_scope`), plus its parameters.
    """

    name = "verifier"

    def run(self, functions: Sequence[ir.Function]) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for fn in functions:
            scope = dict.fromkeys(fn.params, False)
            self._check_scope(fn.name, fn.body, scope, nested=False, out=out)
        return out

    # -- scope checking -------------------------------------------------------

    def _check_scope(
        self,
        fn_name: str,
        body: ir.Block,
        scope: dict[str, bool],
        nested: bool,
        out: list[Diagnostic],
    ) -> None:
        """Walk one function scope in program order, then its closures.

        Nested function bodies are deferred until the enclosing scope is
        fully populated: a closure runs only when called, so it legally
        references every name its enclosing scope ever defines (Python's
        late binding).  That is precisely the hoisted ``prepare``/``run``
        situation the Section 4.4 code-motion path produces.
        """
        deferred: list[ir.NestedFunc] = []
        shapes, leaf, sym, const = ir.SHAPES, ir.LEAF, ir.Sym, ir.Const
        # One frame per open block: its statements (an iterator, so a
        # frame resumes after a sub-block) and the loops around it.
        frames = [(iter(body), 0)]
        while frames:
            stmts, loops = frames[-1]
            for stmt in stmts:
                kind = type(stmt)
                shape = shapes.get(kind, leaf)
                # 1. every directly-read symbol must already be bound
                todo = list(shape.reads(stmt))
                while todo:
                    node = todo.pop()
                    nkind = type(node)
                    if nkind is sym:
                        if node.name not in scope:
                            self._unbound(fn_name, stmt, scope, nested, out)
                            break
                    elif nkind is not const:
                        todo.extend(shapes.get(nkind, leaf).reads(node))

                # 2. statement-specific rules
                name = shape.binds(stmt)
                if name is not None:
                    mutable = kind is ir.Assign and stmt.mutable
                    self._define(fn_name, stmt, name, mutable, scope, out)
                    if kind is ir.NestedFunc:
                        deferred.append(stmt)  # checked against the full scope
                        continue
                elif kind is ir.Reassign:
                    mutable = scope.get(stmt.name)
                    if mutable is None:
                        out.append(self.diag(
                            "reassign-undefined",
                            f"reassignment of undefined name {stmt.name!r}",
                            fn_name,
                            stmt,
                        ))
                    elif not mutable:
                        out.append(self.diag(
                            "reassign-immutable",
                            f"reassignment of immutable name {stmt.name!r} "
                            "(bound without mutable=True)",
                            fn_name,
                            stmt,
                        ))
                elif (kind is ir.Break or kind is ir.Continue) and loops == 0:
                    what = "break" if kind is ir.Break else "continue"
                    out.append(self.diag(
                        f"{what}-outside-loop",
                        f"{what} statement outside any loop body",
                        fn_name,
                        stmt,
                    ))

                # 3. descend into sub-blocks (loops bump the break context);
                #    this frame resumes after them
                blocks = shape.blocks(stmt)
                if blocks:
                    inner = loops + shape.loop
                    frames.extend((iter(sub), inner) for sub in reversed(blocks))
                    break
            else:
                frames.pop()
        for node in deferred:
            child = dict(scope)
            child.update(dict.fromkeys(node.params, False))
            self._check_scope(f"{fn_name}.{node.name}", node.body, child,
                              nested=True, out=out)

    def _unbound(
        self,
        fn_name: str,
        stmt: ir.Stmt,
        scope: dict[str, bool],
        nested: bool,
        out: list[Diagnostic],
    ) -> None:
        """Report each unbound symbol ``stmt`` reads, in pre-order (the
        walk that found one stopped at it)."""
        rule = "closure-capture" if nested else "undefined-sym"
        what = (
            "free variable of closure is not bound in any enclosing scope"
            if nested
            else "symbol used before any definition"
        )
        for expr in ir.stmt_exprs(stmt):
            for node in ir.walk_expr(expr):
                if type(node) is ir.Sym and node.name not in scope:
                    out.append(self.diag(
                        rule, f"{what}: {node.name!r}", fn_name, stmt
                    ))

    def _define(
        self,
        fn_name: str,
        stmt: ir.Stmt,
        name: str,
        mutable: bool,
        scope: dict[str, bool],
        out: list[Diagnostic],
    ) -> None:
        if name in scope:
            out.append(self.diag(
                "duplicate-def",
                f"second static binding of name {name!r} "
                "(fresh-name single-assignment discipline violated)",
                fn_name,
                stmt,
            ))
        scope[name] = mutable
