"""Static analysis over staged residual programs.

The single generation pass *is* the compiler (first Futamura projection);
this package adds the missing safety net as pure, composable analyses that
never rewrite the IR: a structural verifier, a bottom-up type checker, and
a set of lint passes (unreachable code, dead stores, infinite loops, and
Section-4.4 hoisting-safety effect analysis).

Entry points:

* :func:`analyze` -- run the full default pipeline over a program;
* ``python -m repro.analysis.cli`` -- the TPC-H lint gate (also the
  ``repro-lint/v2`` JSON report);
* ``LB2Compiler.compile(verify=True)`` -- the in-driver verifier hook,
  raising :class:`IRVerificationError` on contract violations.
"""

from repro.analysis.lint import (
    DeadStore,
    HoistSafety,
    InfiniteLoop,
    UnreachableCode,
    call_effect,
    default_lint_passes,
)
from repro.analysis.typecheck import TypeChecker, compatible, infer_expr
from repro.analysis.verifier import Verifier
from repro.analysis.walker import (
    AnalysisPass,
    Diagnostic,
    IRVerificationError,
    Severity,
    analyze,
    default_passes,
    iter_stmts,
    render_excerpt,
    run_passes,
    used_names,
)

__all__ = [
    "AnalysisPass",
    "DeadStore",
    "Diagnostic",
    "HoistSafety",
    "IRVerificationError",
    "InfiniteLoop",
    "Severity",
    "TypeChecker",
    "UnreachableCode",
    "Verifier",
    "analyze",
    "call_effect",
    "compatible",
    "default_lint_passes",
    "default_passes",
    "infer_expr",
    "iter_stmts",
    "render_excerpt",
    "run_passes",
    "used_names",
]
