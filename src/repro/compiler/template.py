"""The pure template-expansion compiler (Section 4's first idea).

Each operator is specialized "as a string with placeholders for parameters".
This removes the interpreter's operator dispatch and expression-tree
walking, but -- exactly as the paper criticizes -- the generated code keeps
*generic and inefficient data structures*: records stay dicts, aggregation
state goes through the generic library helpers (our analogue of DBLAB
leaning on GLib), and no cross-operator representation changes (dictionary
codes, columnar state) are possible.

This engine is the measured contrast class for the LB2 single-pass
compiler in the Figure 8 experiment.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional

from repro.catalog.catalog import Catalog
from repro.engine import aggregates as agg_lib
from repro.plan import physical as phys
from repro.staging.pygen import PyProgram
from repro.storage.database import Database


class TemplateError(Exception):
    """Raised when a plan node has no template."""


class _Emitter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 1  # inside ``def query(db, out):``
        self._counter = itertools.count()
        self.env: dict[str, object] = {}

    def fresh(self, prefix: str) -> str:
        return f"{prefix}_{next(self._counter)}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def bind(self, prefix: str, value: object) -> str:
        """Expose a present-stage object to the generated module's globals."""
        name = self.fresh(f"_{prefix}")
        self.env[name] = value
        return name


def _keys_code(rec: str, keys) -> str:
    inner = ", ".join(f"{rec}[{k!r}]" for k in keys)
    if len(keys) == 1:
        inner += ","
    return f"({inner})"


def _add_key(em: _Emitter, side: phys.PhysicalPlan, keys, catalog: Catalog,
             add: str, key: str) -> None:
    """Emit ``add``, the line putting ``key`` into a join's build table,
    guarded where one of ``side``'s key fields can be NULL: a NULL-bearing
    key is left out, so it matches nothing (SQL equality never holds for
    NULL) and an outer or anti join's probe row with one finds no match."""
    if phys.nullable_keys(side, keys, catalog):
        em.line(f"if None not in {key}:")
        em.depth += 1
        em.line(add)
        em.depth -= 1
    else:
        em.line(add)


def _emit(node: phys.PhysicalPlan, em: _Emitter, catalog: Catalog,
          rec: str, body) -> None:
    """Expand ``node``'s template; ``body(rec)`` expands the consumer."""
    if isinstance(node, phys.Scan):
        em.line(f"for {rec} in db.table({node.table!r}).rows():")
        em.depth += 1
        if node.rename:
            ren = em.bind("ren", node.rename_map)
            em.line(f"{rec} = {{{ren}.get(k, k): v for k, v in {rec}.items()}}")
        body(rec)
        em.depth -= 1

    elif isinstance(node, phys.DateIndexScan):
        tbl = em.fresh("tbl")
        rid = em.fresh("rid")
        em.line(f"{tbl} = db.table({node.table!r})")
        extra = 0
        em.line(
            f"for {rid} in db.date_index({node.table!r}, {node.column!r})"
            f".candidate_list({node.lo!r}, {node.hi!r}):"
        )
        em.depth += 1
        if node.enforce:
            # the generic-library call on the hot path, true to form
            check = em.bind("check", node.bound_check)
            em.line(f"if {check}({tbl}.column({node.column!r})[{rid}]):")
            em.depth += 1
            extra = 1
        em.line(f"{rec} = {tbl}.row({rid})")
        if node.rename:
            ren = em.bind("ren", node.rename_map)
            em.line(f"{rec} = {{{ren}.get(k, k): v for k, v in {rec}.items()}}")
        body(rec)
        em.depth -= 1 + extra

    elif isinstance(node, phys.Select):
        def on_child(child_rec: str) -> None:
            em.line(f"if {node.pred.template(child_rec)}:")
            em.depth += 1
            body(child_rec)
            em.depth -= 1

        _emit(node.child, em, catalog, rec, on_child)

    elif isinstance(node, phys.Project):
        null_refs = node.null_refs(catalog)

        def on_child(child_rec: str) -> None:
            out = em.fresh("prj")
            parts = []
            for (name, expr), refs in zip(node.outputs, null_refs):
                code = expr.template(child_rec)
                if refs:
                    guard = " or ".join(f"{child_rec}[{r!r}] is None" for r in refs)
                    code = f"(None if ({guard}) else {code})"
                parts.append(f"{name!r}: {code}")
            em.line(f"{out} = {{{', '.join(parts)}}}")
            body(out)

        _emit(node.child, em, catalog, em.fresh("rec"), on_child)

    elif isinstance(node, phys.HashJoin):
        table = em.fresh("jt")
        em.line(f"{table} = {{}}")

        def on_left(lrec: str) -> None:
            key = em.fresh("k")
            em.line(f"{key} = {_keys_code(lrec, node.left_keys)}")
            _add_key(em, node.left, node.left_keys, catalog,
                     f"{table}.setdefault({key}, []).append({lrec})", key)

        _emit(node.left, em, catalog, em.fresh("rec"), on_left)

        def on_right(rrec: str) -> None:
            key = em.fresh("k")
            lrec = em.fresh("lrec")
            merged = em.fresh("jn")
            em.line(f"{key} = {_keys_code(rrec, node.right_keys)}")
            em.line(f"for {lrec} in {table}.get({key}, ()):")
            em.depth += 1
            em.line(f"{merged} = {{**{lrec}, **{rrec}}}")
            body(merged)
            em.depth -= 1

        _emit(node.right, em, catalog, em.fresh("rec"), on_right)

    elif isinstance(node, phys.LeftOuterJoin):
        table = em.fresh("jt")
        em.line(f"{table} = {{}}")

        def on_right(rrec: str) -> None:
            key = em.fresh("k")
            em.line(f"{key} = {_keys_code(rrec, node.right_keys)}")
            _add_key(em, node.right, node.right_keys, catalog,
                     f"{table}.setdefault({key}, []).append({rrec})", key)

        _emit(node.right, em, catalog, em.fresh("rec"), on_right)
        nulls = em.bind(
            "nulls", {name: None for name in node.right.field_names(catalog)}
        )

        def on_left(lrec: str) -> None:
            key = em.fresh("k")
            matches = em.fresh("ms")
            rrec = em.fresh("rrec")
            merged = em.fresh("jn")
            em.line(f"{key} = {_keys_code(lrec, node.left_keys)}")
            em.line(f"{matches} = {table}.get({key})")
            em.line(f"if {matches}:")
            em.depth += 1
            em.line(f"for {rrec} in {matches}:")
            em.depth += 1
            em.line(f"{merged} = {{**{lrec}, **{rrec}}}")
            body(merged)
            em.depth -= 2
            em.line("else:")
            em.depth += 1
            em.line(f"{merged} = {{**{lrec}, **{nulls}}}")
            body(merged)
            em.depth -= 1

        _emit(node.left, em, catalog, em.fresh("rec"), on_left)

    elif isinstance(node, (phys.SemiJoin, phys.AntiJoin)):
        keys = em.fresh("ks")
        em.line(f"{keys} = set()")

        def on_right(rrec: str) -> None:
            key = _keys_code(rrec, node.right_keys)
            _add_key(em, node.right, node.right_keys, catalog, f"{keys}.add({key})", key)

        _emit(node.right, em, catalog, em.fresh("rec"), on_right)
        negate = "not " if isinstance(node, phys.AntiJoin) else ""

        def on_left(lrec: str) -> None:
            em.line(f"if {negate}({_keys_code(lrec, node.left_keys)} in {keys}):")
            em.depth += 1
            body(lrec)
            em.depth -= 1

        _emit(node.left, em, catalog, em.fresh("rec"), on_left)

    elif isinstance(node, phys.IndexJoin):
        idx = em.fresh("idx")
        tbl = em.fresh("tbl")
        fn = "unique_index" if node.unique else "index"
        em.line(f"{idx} = db.{fn}({node.table!r}, {node.table_key!r})")
        em.line(f"{tbl} = db.table({node.table!r})")
        ren = em.bind("ren", node.rename_map) if node.rename else None

        def on_child(crec: str) -> None:
            merged = em.fresh("jn")
            fetched = em.fresh("frec")
            if node.unique:
                rid = em.fresh("rid")
                em.line(f"{rid} = {idx}.get({crec}[{node.child_key!r}], -1)")
                em.line(f"if {rid} >= 0:")
                em.depth += 1
                rids_block = [rid]
            else:
                rid = em.fresh("rid")
                em.line(f"for {rid} in {idx}.get({crec}[{node.child_key!r}], ()):")
                em.depth += 1
                rids_block = [rid]
            em.line(f"{fetched} = {tbl}.row({rids_block[0]})")
            if ren:
                em.line(f"{fetched} = {{{ren}.get(k, k): v for k, v in {fetched}.items()}}")
            em.line(f"{merged} = {{**{crec}, **{fetched}}}")
            if node.residual is not None:
                em.line(f"if {node.residual.template(merged)}:")
                em.depth += 1
                body(merged)
                em.depth -= 1
            else:
                body(merged)
            em.depth -= 1

        _emit(node.child, em, catalog, em.fresh("rec"), on_child)

    elif isinstance(node, phys.IndexSemiJoin):
        idx = em.fresh("idx")
        tbl = em.fresh("tbl")
        fn = "unique_index" if node.unique else "index"
        em.line(f"{idx} = db.{fn}({node.table!r}, {node.table_key!r})")
        em.line(f"{tbl} = db.table({node.table!r})")
        ren = em.bind("ren", node.rename_map) if node.rename else None

        def on_child(crec: str) -> None:
            hit = em.fresh("hit")
            if node.unique:
                rid = em.fresh("rid")
                em.line(f"{rid} = {idx}.get({crec}[{node.child_key!r}], -1)")
                em.line(f"{hit} = {rid} >= 0")
                rowids_expr = f"(({rid},) if {rid} >= 0 else ())"
            else:
                em.line(f"{hit} = bool({idx}.get({crec}[{node.child_key!r}], ()))")
                rowids_expr = f"{idx}.get({crec}[{node.child_key!r}], ())"
            if node.residual is not None:
                rid2 = em.fresh("rid")
                frec = em.fresh("frec")
                merged = em.fresh("mrec")
                em.line(f"{hit} = False")
                em.line(f"for {rid2} in {rowids_expr}:")
                em.depth += 1
                em.line(f"{frec} = {tbl}.row({rid2})")
                if ren:
                    em.line(f"{frec} = {{{ren}.get(k, k): v for k, v in {frec}.items()}}")
                em.line(f"{merged} = {{**{crec}, **{frec}}}")
                em.line(f"if {node.residual.template(merged)}:")
                em.depth += 1
                em.line(f"{hit} = True")
                em.line("break")
                em.depth -= 2
            keep = f"not {hit}" if node.anti else hit
            em.line(f"if {keep}:")
            em.depth += 1
            body(crec)
            em.depth -= 1

        _emit(node.child, em, catalog, em.fresh("rec"), on_child)

    elif isinstance(node, phys.Agg):
        groups = em.fresh("groups")
        specs = em.bind("specs", node.aggs)
        init = em.bind("init", agg_lib.init_state)
        update = em.bind("update", agg_lib.update_state)
        finalize = em.bind("finalize", agg_lib.finalize_state)
        em.line(f"{groups} = {{}}")

        def on_child(crec: str) -> None:
            key = em.fresh("k")
            state = em.fresh("st")
            key_exprs = ", ".join(e.template(crec) for _, e in node.keys)
            if len(node.keys) == 1:
                key_exprs += ","
            em.line(f"{key} = ({key_exprs})")
            em.line(f"{state} = {groups}.get({key})")
            em.line(f"if {state} is None:")
            em.depth += 1
            em.line(f"{state} = {init}({specs})")
            em.line(f"{groups}[{key}] = {state}")
            em.depth -= 1
            # The generic-library call on the hot path: the hallmark of
            # template expansion (cf. DBLAB + GLib in the paper).
            em.line(f"{update}({state}, {specs}, {crec})")

        _emit(node.child, em, catalog, em.fresh("rec"), on_child)
        if not node.keys:
            em.line(f"if not {groups}:")
            em.depth += 1
            em.line(f"{groups}[()] = {init}({specs})")
            em.depth -= 1
        key = em.fresh("k")
        state = em.fresh("st")
        out = em.fresh("grec")
        em.line(f"for {key}, {state} in {groups}.items():")
        em.depth += 1
        key_fields = ", ".join(
            f"{name!r}: {key}[{i}]" for i, (name, _) in enumerate(node.keys)
        )
        em.line(f"{out} = {{{key_fields}}}")
        vals = em.fresh("vals")
        em.line(f"{vals} = {finalize}({state}, {specs})")
        for i, (name, _) in enumerate(node.aggs):
            em.line(f"{out}[{name!r}] = {vals}[{i}]")
        body(out)
        em.depth -= 1

    elif isinstance(node, phys.GroupJoin):
        groups = em.fresh("gj")
        specs = em.bind("specs", node.aggs)
        init = em.bind("init", agg_lib.init_state)
        update = em.bind("update", agg_lib.update_state)
        finalize = em.bind("finalize", agg_lib.finalize_state)
        em.line(f"{groups} = {{}}")

        def on_right(rrec: str) -> None:
            key = em.fresh("k")
            state = em.fresh("st")
            em.line(f"{key} = {_keys_code(rrec, node.right_keys)}")
            em.line(f"{state} = {groups}.get({key})")
            em.line(f"if {state} is None:")
            em.depth += 1
            em.line(f"{state} = {init}({specs})")
            em.line(f"{groups}[{key}] = {state}")
            em.depth -= 1
            em.line(f"{update}({state}, {specs}, {rrec})")

        _emit(node.right, em, catalog, em.fresh("rec"), on_right)

        def on_left(lrec: str) -> None:
            key = em.fresh("k")
            state = em.fresh("st")
            vals = em.fresh("vals")
            merged = em.fresh("grec")
            em.line(f"{key} = {_keys_code(lrec, node.left_keys)}")
            em.line(f"{state} = {groups}.get({key})")
            em.line(f"if {state} is None:")
            em.depth += 1
            em.line(f"{state} = {init}({specs})")
            em.depth -= 1
            em.line(f"{vals} = {finalize}({state}, {specs})")
            em.line(f"{merged} = dict({lrec})")
            for i, (name, _) in enumerate(node.aggs):
                em.line(f"{merged}[{name!r}] = {vals}[{i}]")
            body(merged)

        _emit(node.left, em, catalog, em.fresh("rec"), on_left)

    elif isinstance(node, phys.Sort):
        rows = em.fresh("rows")
        em.line(f"{rows} = []")

        def on_child(crec: str) -> None:
            em.line(f"{rows}.append({crec})")

        _emit(node.child, em, catalog, em.fresh("rec"), on_child)
        sorter = em.bind("sort", _sort_dict_rows)
        em.line(f"{sorter}({rows}, {tuple(node.keys)!r})")
        if node.limit is not None:
            em.line(f"del {rows}[{node.limit}:]")
        loop_rec = em.fresh("rec")
        em.line(f"for {loop_rec} in {rows}:")
        em.depth += 1
        body(loop_rec)
        em.depth -= 1

    elif isinstance(node, phys.Limit):
        counter = em.fresh("seen")
        em.line(f"{counter} = 0")

        def on_child(crec: str) -> None:
            nonlocal counter
            em.line(f"if {counter} < {node.n}:")
            em.depth += 1
            em.line(f"{counter} += 1")
            body(crec)
            em.depth -= 1

        _emit(node.child, em, catalog, em.fresh("rec"), on_child)

    elif isinstance(node, phys.Distinct):
        seen = em.fresh("seen")
        fields = node.field_names(catalog)
        em.line(f"{seen} = set()")

        def on_child(crec: str) -> None:
            key = em.fresh("k")
            em.line(f"{key} = {_keys_code(crec, fields)}")
            em.line(f"if {key} not in {seen}:")
            em.depth += 1
            em.line(f"{seen}.add({key})")
            body(crec)
            em.depth -= 1

        _emit(node.child, em, catalog, em.fresh("rec"), on_child)

    else:
        raise TemplateError(f"no template for {type(node).__name__}")


def _sort_dict_rows(rows: list[dict], keys: tuple) -> None:
    import functools

    def compare(a: dict, b: dict) -> int:
        for name, asc in keys:
            av, bv = a[name], b[name]
            if av == bv:
                continue
            if av < bv:
                return -1 if asc else 1
            return 1 if asc else -1
        return 0

    rows.sort(key=functools.cmp_to_key(compare))


@dataclass
class TemplateCompiledQuery:
    """A template-expanded query: source + entry point + metrics."""

    plan: phys.PhysicalPlan
    source: str
    program: PyProgram
    field_names: list[str]
    generation_seconds: float
    compile_seconds: float

    def run(self, db: Database) -> list[tuple]:
        out: list[tuple] = []
        self.program.fn("query")(db, out)
        return out


class TemplateCompiler:
    """Compile by expanding per-operator string templates."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def compile(self, plan: phys.PhysicalPlan) -> TemplateCompiledQuery:
        plan.validate(self.catalog)
        t0 = time.perf_counter()
        em = _Emitter()
        names = plan.field_names(self.catalog)

        def sink(rec: str) -> None:
            fields = ", ".join(f"{rec}[{n!r}]" for n in names)
            if len(names) == 1:
                fields += ","
            em.line(f"out.append(({fields}))")

        _emit(plan, em, self.catalog, em.fresh("rec"), sink)
        source = "def query(db, out):\n" + "\n".join(em.lines) + "\n"
        generation_seconds = time.perf_counter() - t0
        t1 = time.perf_counter()
        program = PyProgram(source, globals_=em.env)
        compile_seconds = time.perf_counter() - t1
        return TemplateCompiledQuery(
            plan=plan,
            source=source,
            program=program,
            field_names=names,
            generation_seconds=generation_seconds,
            compile_seconds=compile_seconds,
        )


def execute_template(
    plan: phys.PhysicalPlan, db: Database, catalog: Catalog
) -> list[tuple]:
    """One-shot convenience: template-compile and run a plan."""
    return TemplateCompiler(catalog).compile(plan).run(db)
