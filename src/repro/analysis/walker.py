"""Shared traversal machinery for the analysis-only passes.

The paper's architecture deliberately has *no* transformation passes over
the IR -- the single generation pass is the whole compiler.  What this
module adds is the complementary guarantee: analysis passes that walk the
residual program and *validate* it without ever rewriting a node, turning
the IR into a checked contract between the staged evaluator and the
emitters.

Every pass subclasses :class:`AnalysisPass` and reports
:class:`Diagnostic`s; the walk itself is driven through the hook functions
in :mod:`repro.staging.ir` (its :data:`~repro.staging.ir.SHAPES` table,
``walk_stmts`` and ``walk_expr``), so passes never hard-code node shapes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.errors import ReproError
from repro.staging import ir
from repro.staging.pygen import _Writer


class Severity(enum.Enum):
    """Diagnostic severity: errors are contract violations (the program is
    wrong or would miscompile in C); warnings are suspicious-but-runnable."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding: which pass, which rule, where, and what went wrong."""

    pass_name: str
    rule: str
    severity: Severity
    message: str
    function: str
    stmt: Optional[ir.Stmt] = field(default=None, compare=False, repr=False)

    def render(self) -> str:
        return (
            f"[{self.severity}] {self.pass_name}/{self.rule} "
            f"in {self.function}(): {self.message}"
        )


class AnalysisPass:
    """Base class for analysis passes.

    A pass is a callable over a whole program (a list of
    :class:`ir.Function`); it must be read-only with respect to the IR.
    Subclasses set :attr:`name` and implement :meth:`run`.
    """

    name = "pass"

    def run(self, functions: Sequence[ir.Function]) -> list[Diagnostic]:
        raise NotImplementedError

    # -- reporting helper ----------------------------------------------------

    def diag(
        self,
        rule: str,
        message: str,
        function: str,
        stmt: Optional[ir.Stmt] = None,
        severity: Severity = Severity.ERROR,
    ) -> Diagnostic:
        return Diagnostic(
            pass_name=self.name,
            rule=rule,
            severity=severity,
            message=message,
            function=function,
            stmt=stmt,
        )


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------


def iter_stmts(block: ir.Block, *, into_nested: bool = True) -> Iterator[ir.Stmt]:
    """Yield every statement in ``block``, pre-order, including nested blocks.

    ``into_nested=False`` stops at :class:`ir.NestedFunc` boundaries, which
    is what scope-sensitive passes want (a nested function is a separate
    scope and, for loops, a separate break/continue context).
    """
    for stmt, _ in ir.walk_stmts(block, into_nested=into_nested):
        yield stmt


def stmt_syms(stmt: ir.Stmt) -> Iterator[ir.Sym]:
    """Every :class:`ir.Sym` read directly by ``stmt`` (not by sub-blocks)."""
    for expr in ir.stmt_exprs(stmt):
        for node in ir.walk_expr(expr):
            if type(node) is ir.Sym:
                yield node


def used_names(block: ir.Block) -> set[str]:
    """All names referenced anywhere under ``block`` (crossing nested funcs),
    including :class:`ir.Reassign` targets (a reassignment keeps the
    original binding live)."""
    names: set[str] = set()
    for stmt, _ in ir.walk_stmts(block):
        for sym in stmt_syms(stmt):
            names.add(sym.name)
        if type(stmt) is ir.Reassign:
            names.add(stmt.name)
    return names


# ---------------------------------------------------------------------------
# Pass driver
# ---------------------------------------------------------------------------


def run_passes(
    functions: Sequence[ir.Function],
    passes: Sequence[AnalysisPass],
) -> list[Diagnostic]:
    """Run each pass over the program; concatenate their diagnostics."""
    out: list[Diagnostic] = []
    for p in passes:
        out.extend(p.run(functions))
    return out


def default_passes() -> list[AnalysisPass]:
    """The standard pipeline: verify, type-check, then lint."""
    from repro.analysis.lint import default_lint_passes
    from repro.analysis.typecheck import TypeChecker
    from repro.analysis.verifier import Verifier

    return [Verifier(), TypeChecker(), *default_lint_passes()]


def analyze(functions: Sequence[ir.Function]) -> list[Diagnostic]:
    """Run the full default pipeline over a staged program."""
    return run_passes(functions, default_passes())


# ---------------------------------------------------------------------------
# Source excerpts (for IRVerificationError rendering)
# ---------------------------------------------------------------------------


class _TrackingWriter(_Writer):
    """The Python writer, additionally recording each statement's first line."""

    def __init__(self) -> None:
        super().__init__()
        self.stmt_lines: dict[int, int] = {}

    def stmt(self, node: ir.Stmt) -> bool:
        self.stmt_lines.setdefault(id(node), len(self.lines))
        return super().stmt(node)


def render_excerpt(
    functions: Sequence[ir.Function],
    stmt: Optional[ir.Stmt],
    context: int = 3,
) -> str:
    """Render the generated-Python neighbourhood of ``stmt``, marked.

    Falls back to the first function's header when the statement cannot be
    located (e.g. a function-level diagnostic).
    """
    writer = _TrackingWriter()
    for fn in functions:
        writer.line(f"def {fn.name}({', '.join(fn.params)}):")
        writer.block(fn.body)
        writer.line("")
    target = writer.stmt_lines.get(id(stmt)) if stmt is not None else None
    if target is None:
        target = 0
    lo = max(0, target - context)
    hi = min(len(writer.lines), target + context + 1)
    out = []
    for i in range(lo, hi):
        marker = ">>>" if i == target else "   "
        out.append(f"{marker} {i + 1:4d} | {writer.lines[i]}")
    return "\n".join(out)


class IRVerificationError(ReproError):
    """Raised by ``LB2Compiler.compile(verify=True)`` on a bad residual
    program.  Carries the structured diagnostics plus a rendered excerpt of
    the generated source around the first offending statement."""

    code = "E_VERIFY"
    phase = "verify"

    def __init__(
        self,
        diagnostics: Sequence[Diagnostic],
        functions: Sequence[ir.Function],
    ) -> None:
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0]
        excerpt = render_excerpt(functions, first.stmt)
        lines = [d.render() for d in self.diagnostics[:10]]
        more = len(self.diagnostics) - 10
        if more > 0:
            lines.append(f"... and {more} more")
        super().__init__(
            "generated IR failed verification:\n"
            + "\n".join(lines)
            + "\n--- generated source (excerpt) ---\n"
            + excerpt
        )
