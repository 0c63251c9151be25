"""The compilation driver: physical plan -> residual program -> callable.

``LB2Compiler.compile`` performs the whole first Futamura projection in one
call: it runs the staged evaluator over the plan (one pass, emitting IR),
renders Python source, and compiles it with the host ``compile()``.  The
returned :class:`CompiledQuery` carries the Python source (the
illustrative C rendering is produced on demand) plus timing of the
generation and compilation steps, which the Figure 13 experiment reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.verifier import Verifier
from repro.analysis.walker import IRVerificationError, iter_stmts
from repro.catalog.catalog import Catalog
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.plan import physical as phys
from repro.plan.params import ParamSlot, check_bindings, collect_params
from repro.staging import generate_c, generate_python
from repro.staging.builder import StagingContext
from repro.staging.pygen import PyProgram
from repro.storage.database import Database
from repro.compiler.lb2 import Config, StagedPlanBuilder
from repro.compiler.staged_record import value_output
from repro.resilience.faults import fault_point
from repro.staging import ir


@dataclass
class CompiledQuery:
    """A compiled query: sources, entry points, and compile-time metrics."""

    plan: phys.PhysicalPlan
    source: str
    program: PyProgram
    field_names: list[str]
    generation_seconds: float
    compile_seconds: float
    instrumented: bool = False
    codegen_stats: dict = field(default_factory=dict, repr=False)
    last_stats: Optional[dict] = field(default=None, repr=False)
    last_times: Optional[dict] = field(default=None, repr=False)
    last_kernels: Optional[dict] = field(default=None, repr=False)
    functions: list[ir.Function] = field(default_factory=list, repr=False)
    param_signature: tuple[ParamSlot, ...] = ()
    _c_source: Optional[str] = field(default=None, repr=False)

    def run(self, db: Database, params=None) -> list[tuple]:
        """Execute the compiled query against ``db``; returns result rows.

        Every run is the Figure 7 sequence: ``prepare(db)`` allocates and
        returns the hot-path closure, which runs once into ``out``.

        For a parameterized plan, ``params`` supplies the bindings (a
        sequence for positional ``?`` statements, a mapping for ``:name``
        statements); they are validated against :attr:`param_signature`
        and passed to ``run`` as its runtime parameter vector -- the
        compiled code is shared across bindings.  Arity or type mismatches
        raise the typed ``E_PARAM`` error.

        In instrument mode, each run refreshes three per-operator views:
        :attr:`last_stats` (label -> rows emitted), :attr:`last_times`
        (label -> inclusive wall-clock seconds), and :attr:`last_kernels`
        (kernel name -> ``{"calls", "rows"}``; empty under scalar codegen).
        """
        out: list[tuple] = []
        extra: list = []
        if self.param_signature or params:
            extra.append(list(check_bindings(self.param_signature, params)))
        if self.instrumented:
            return self._run_instrumented(db, out, extra)
        self.prepare(db)(out, *extra)
        return out

    def _run_instrumented(self, db: Database, out: list, extra: list) -> list[tuple]:
        # Counters and @t:-prefixed timings share the staged stats dict;
        # split them back apart so counter consumers never see times.
        raw: dict = {}
        kernels: dict = {}

        def observe(name: str, nrows: int, args: tuple) -> None:
            entry = kernels.setdefault(name, {"calls": 0, "rows": 0})
            entry["calls"] += 1
            entry["rows"] += nrows

        from repro.compiler import runtime

        previous = runtime.set_kernel_observer(observe)
        try:
            self.prepare(db)(out, *extra, raw)
        finally:
            runtime.set_kernel_observer(previous)
        self.last_stats = {
            k: v for k, v in raw.items() if not k.startswith("@t:")
        }
        self.last_times = {
            k[3:]: v for k, v in raw.items() if k.startswith("@t:")
        }
        self.last_kernels = kernels
        return out

    def prepare(self, db: Database) -> Callable[..., None]:
        """Run the allocation prelude; return the hot-path closure
        ``run(out[, params][, stats])``.

        One closure answers once: its state (hash maps, aggregates, sort
        buffers) is filled by its first call, so a second call on the same
        closure sees the first call's rows.  Call ``prepare`` again for
        each execution.
        """
        return self.program.fn("prepare")(db)

    def c_source(self) -> str:
        """The illustrative C rendering of the same staged program,
        rendered from :attr:`functions` on first call (compiles skip it)."""
        if self._c_source is None:
            self._c_source = generate_c(self.functions, header=_header(self.plan))
        return self._c_source


class LB2Compiler:
    """Compiles physical plans by specializing the staged evaluator."""

    def __init__(
        self,
        catalog: Catalog,
        db: Database,
        config: Optional[Config] = None,
    ) -> None:
        self.catalog = catalog
        self.db = db
        self.config = config or Config()

    def compile(
        self,
        plan: phys.PhysicalPlan,
        verify: bool = True,
        *,
        validated: bool = False,
        signature: Optional[tuple[ParamSlot, ...]] = None,
    ) -> CompiledQuery:
        """Specialize the evaluator to ``plan``; returns a runnable query.

        The residual program has the Figure 7 form: ``prepare(db)``
        performs the allocations the generation pass hoisted and returns a
        ``run(out[, params][, stats])`` closure holding the hot path.
        Parameter slots are bound at the top of ``run``, so a parameter
        never reaches ``prepare``.

        ``verify=True`` (the default) runs the IR verifier over the staged
        program between generation and host compilation, raising
        :class:`repro.analysis.IRVerificationError` -- with structured
        diagnostics and a source excerpt -- instead of letting a codegen
        bug surface as an arbitrary runtime failure.

        A caller that already ran ``plan.validate`` says ``validated``, and
        one that already ran ``collect_params(plan)`` passes its
        ``signature``: a served miss does each once (the resilient
        executor validates a hand-built plan up front, the session's
        resolve collects a statement's slots).
        """
        if not validated:
            plan.validate(self.catalog)
        param_slots = collect_params(plan) if signature is None else signature
        with span("codegen") as sp:
            fault_point("codegen")
            t0 = time.perf_counter()
            ctx = StagingContext()
            builder = StagedPlanBuilder(self.catalog, self.db, ctx, self.config)
            root = builder.build(plan)
            field_names = plan.field_names(self.catalog)

            def output_cb(rec) -> None:
                # rows() devectorizes batch records at the sink; it is the
                # identity on scalar records.
                def per_row(r) -> None:
                    values = [value_output(r[n]).expr for n in field_names]
                    ctx.call_stmt("out_append", [_tuple_rep(ctx, values)])

                rec.rows(per_row)

            run_params = ["out"]
            if param_slots:
                run_params.append("params")
            if self.config.instrument:
                run_params.append("stats")
                builder.stats_sym = ctx.sym("stats", "void*")
            with ctx.function("prepare", ["db"]):
                datapath = root.exec()
                with ctx.nested_function("run", run_params):
                    # Bind each parameter slot once at the top of the hot
                    # path: the closure reads the runtime vector, it never
                    # bakes bindings in.
                    for slot in param_slots:
                        sym = ctx.bind(
                            ir.Index(ir.Sym("params"), ir.Const(slot.index)),
                            ctype=slot.ctype.ctype,
                            prefix="param",
                        )
                        ctx.register_param(
                            slot.index, ctx.sym(sym.name, slot.ctype.ctype)
                        )
                    datapath(output_cb)
                ctx.emit(ir.Return(ir.Sym("run")))

            functions = ctx.program()
            codegen_stats = builder.finish()
            source = generate_python(functions, header=_header(plan))
            generation_seconds = time.perf_counter() - t0
            if sp:
                sp.meta["backend"] = codegen_stats["backend"]
                sp.meta["residual_bytes"] = len(source)
                sp.meta["ir_stmts"] = sum(
                    1 for fn in functions for _ in iter_stmts(fn.body)
                )

        if verify:
            with span("verify"):
                fault_point("verify")
                diagnostics = Verifier().run(functions)
                if diagnostics:
                    raise IRVerificationError(diagnostics, functions)

        with span("host-compile"):
            fault_point("host-compile")
            t1 = time.perf_counter()
            program = PyProgram(source)
            compile_seconds = time.perf_counter() - t1

        REGISTRY.counter("compile.count")
        REGISTRY.observe("compile.generation_seconds", generation_seconds)
        REGISTRY.observe("compile.host_seconds", compile_seconds)
        return CompiledQuery(
            plan=plan,
            source=source,
            program=program,
            field_names=field_names,
            generation_seconds=generation_seconds,
            compile_seconds=compile_seconds,
            instrumented=self.config.instrument,
            codegen_stats=codegen_stats,
            functions=functions,
            param_signature=param_slots,
        )


def _header(plan: phys.PhysicalPlan) -> str:
    return f"residual program for plan rooted at {type(plan).__name__}"


def _tuple_rep(ctx: StagingContext, exprs) -> object:
    from repro.staging.rep import Rep

    sym = ctx.bind(ir.TupleExpr(tuple(exprs)), ctype="void*")
    return Rep(sym, ctx, ctype="void*")
