"""Planning: SQL AST -> normalized query block -> physical plan.

Responsibilities:

* name resolution -- references become alias-qualified field names
  (``alias.column``), so self-joins are unambiguous;
* expression translation into :mod:`repro.plan.expressions` nodes,
  including DATE/INTERVAL constant folding;
* aggregate extraction -- aggregate calls anywhere in SELECT/HAVING/ORDER BY
  are pulled into the Agg operator and replaced by references;
* equi-join detection -- ``a.x = b.y`` conjuncts become join edges, other
  conjuncts become per-relation or cross-relation filters;
* delegation to the cost-based optimizer for join ordering.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.catalog.catalog import Catalog
from repro.catalog.types import (
    ColumnType,
    date_add_days,
    date_add_months,
    date_add_years,
)
from repro.plan import physical as phys
from repro.plan.expressions import (
    AggSpec,
    And,
    Arith,
    Between,
    Case,
    Cmp,
    Col,
    Const,
    Expr,
    ExprError,
    ExtractYear,
    InList,
    IsNotNull,
    Like,
    Not,
    Or,
    Param,
    Substring,
    replace_expr,
)
from repro.errors import ReproError
from repro.plan.optimizer import QueryBlock, Relation, order_joins, plan_block
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_select
from repro.storage.database import Database


class SqlPlanError(ReproError):
    """Raised for semantic errors (unknown columns, bad aggregates...)."""

    code = "E_SQL_PLAN"
    phase = "plan"


_CMP_MAP = {"=": "==", "<>": "!=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_INTERVAL_FN = {"day": date_add_days, "month": date_add_months, "year": date_add_years}


class _Scope:
    """Resolves column references against the FROM list."""

    def __init__(self, tables: list[ast.FromTable], catalog: Catalog) -> None:
        self.catalog = catalog
        self.by_alias: dict[str, str] = {}
        # ``alias.column -> ColumnType`` for every visible column; parameter
        # type inference resolves sibling expressions against this.
        self.types: dict[str, ColumnType] = {}
        for item in tables:
            if item.alias in self.by_alias:
                raise SqlPlanError(f"duplicate alias {item.alias!r} in FROM")
            if not catalog.has_table(item.table):
                raise SqlPlanError(f"unknown table {item.table!r}")
            self.by_alias[item.alias] = item.table
            for column in catalog.table(item.table).columns:
                self.types[f"{item.alias}.{column.name}"] = column.type

    def resolve(self, ref: ast.Ref) -> str:
        if ref.table is not None:
            table = self.by_alias.get(ref.table)
            if table is None:
                raise SqlPlanError(f"unknown alias {ref.table!r}")
            self.catalog.table(table).require(ref.column)
            return f"{ref.table}.{ref.column}"
        owners = [
            alias
            for alias, table in self.by_alias.items()
            if self.catalog.table(table).has_column(ref.column)
        ]
        if not owners:
            raise SqlPlanError(f"unknown column {ref.column!r}")
        if len(owners) > 1:
            raise SqlPlanError(
                f"ambiguous column {ref.column!r} (in {', '.join(sorted(owners))})"
            )
        return f"{owners[0]}.{ref.column}"


class _Translator:
    """SQL expression AST -> plan expressions, extracting aggregates."""

    def __init__(self, scope: _Scope) -> None:
        self.scope = scope
        self.aggs: list[tuple[str, AggSpec, ast.FuncCall]] = []

    def _agg_name(self, call: ast.FuncCall) -> str:
        for name, _, existing in self.aggs:
            if existing == call:
                return name
        name = f"__agg{len(self.aggs)}"
        if call.star:
            spec = AggSpec("count")
        else:
            arg = self.scalar(call.arg)
            if call.name == "count":
                kind = "count_distinct" if call.distinct else "count"
            else:
                kind = call.name
            spec = AggSpec(kind, arg)
        self.aggs.append((name, spec, call))
        try:
            # Register the aggregate output's type so parameters compared
            # against it (HAVING sum(x) > ?) infer like column siblings.
            self.scope.types[name] = spec.result_type(self.scope.types)
        except ExprError:
            pass
        return name

    def translate(self, node: ast.SqlExpr, allow_aggs: bool) -> Expr:
        if isinstance(node, ast.FuncCall):
            if not allow_aggs:
                raise SqlPlanError(f"aggregate {node.name} not allowed here")
            return Col(self._agg_name(node))
        if isinstance(node, ast.Ref):
            return Col(self.scope.resolve(node))
        if isinstance(node, ast.Literal):
            return Const(node.value)
        if isinstance(node, ast.Placeholder):
            return Param(node.index, node.name)
        if isinstance(node, ast.Interval):
            raise SqlPlanError("INTERVAL is only valid added to or subtracted from a date")
        if isinstance(node, ast.BinOp):
            return self._binop(node, allow_aggs)
        if isinstance(node, ast.NotOp):
            return Not(self.translate(node.term, allow_aggs))
        if isinstance(node, ast.IsNullOp):
            # IS NULL stays a negation: only IS NOT NULL clears a field's
            # nullability (PhysicalPlan.nullable)
            expr = IsNotNull(self.translate(node.term, allow_aggs))
            return expr if node.negate else Not(expr)
        if isinstance(node, ast.LikeOp):
            term = self._infer(self.translate(node.term, allow_aggs), ColumnType.STRING)
            return Like(term, node.pattern, node.negate)
        if isinstance(node, ast.InListOp):
            expr = InList(self.translate(node.term, allow_aggs), node.values)
            return Not(expr) if node.negate else expr
        if isinstance(node, ast.BetweenOp):
            term = self.translate(node.term, allow_aggs)
            term_type = self._typed(term)
            lo = self._infer(self.translate(node.lo, allow_aggs), term_type)
            hi = self._infer(self.translate(node.hi, allow_aggs), term_type)
            expr = Between(term, _const_value(lo), _const_value(hi))
            return Not(expr) if node.negate else expr
        if isinstance(node, ast.CaseOp):
            then = self.translate(node.then, allow_aggs)
            els = self.translate(node.els, allow_aggs)
            then = self._infer(then, self._typed(els))
            els = self._infer(els, self._typed(then))
            return Case(self.translate(node.cond, allow_aggs), then, els)
        if isinstance(node, ast.ExtractOp):
            term = self.translate(node.term, allow_aggs)
            if node.unit == "year":
                return ExtractYear(term)
            raise SqlPlanError(f"EXTRACT({node.unit.upper()}) is not supported")
        if isinstance(node, ast.SubstringOp):
            term = self._infer(self.translate(node.term, allow_aggs), ColumnType.STRING)
            return Substring(term, node.start, node.length)
        raise SqlPlanError(f"unsupported expression node {type(node).__name__}")

    def scalar(self, node: ast.SqlExpr) -> Expr:
        return self.translate(node, allow_aggs=False)

    # -- parameter type inference -------------------------------------------
    #
    # A parameter's type comes from its expression context: the column (or
    # typed sibling) it is compared with, the BETWEEN term, the other CASE
    # arm, the LIKE/SUBSTRING string position.  An expression whose type is
    # not yet known (it contains another untyped parameter) contributes
    # nothing; ``plan.params.collect_params`` raises the typed ``E_PARAM``
    # error if any slot is still untyped once the plan is built.

    def _typed(self, expr: Expr) -> Optional[ColumnType]:
        try:
            return expr.result_type(self.scope.types)
        except ExprError:
            return None

    def _infer(self, expr: Expr, ptype: Optional[ColumnType]) -> Expr:
        if isinstance(expr, Param) and expr.ptype is None and ptype is not None:
            return Param(expr.index, expr.name, ptype)
        return expr

    def _infer_pair(self, lhs: Expr, rhs: Expr) -> tuple[Expr, Expr]:
        lhs = self._infer(lhs, self._typed(rhs))
        rhs = self._infer(rhs, self._typed(lhs))
        return lhs, rhs

    def _binop(self, node: ast.BinOp, allow_aggs: bool) -> Expr:
        # DATE +/- INTERVAL folds at planning time.
        if node.op in ("+", "-"):
            interval = None
            other = None
            if isinstance(node.rhs, ast.Interval):
                interval, other = node.rhs, node.lhs
            elif isinstance(node.lhs, ast.Interval) and node.op == "+":
                interval, other = node.lhs, node.rhs
            if interval is not None:
                base = self.translate(other, allow_aggs)
                if not isinstance(base, Const) or not isinstance(base.value, int):
                    raise SqlPlanError("INTERVAL arithmetic requires a date constant")
                amount = interval.amount if node.op == "+" else -interval.amount
                return Const(_INTERVAL_FN[interval.unit](base.value, amount))
        lhs = self.translate(node.lhs, allow_aggs)
        rhs = self.translate(node.rhs, allow_aggs)
        if node.op in ("and",):
            return And(lhs, rhs)
        if node.op == "or":
            return Or(lhs, rhs)
        if node.op in _CMP_MAP:
            lhs, rhs = self._infer_pair(lhs, rhs)
            return Cmp(_CMP_MAP[node.op], lhs, rhs)
        if node.op in ("+", "-", "*", "/"):
            lhs, rhs = self._infer_pair(lhs, rhs)
            return Arith(node.op, lhs, rhs)
        raise SqlPlanError(f"unsupported operator {node.op!r}")


def _const_value(expr: Expr):
    if isinstance(expr, Const):
        return expr.value
    return expr


def _aliases_of(expr: Expr) -> set[str]:
    return {name.split(".", 1)[0] for name in expr.columns()}


def _ast_conjuncts(expr: Optional[ast.SqlExpr]) -> list[ast.SqlExpr]:
    """Split an AST boolean expression on top-level ANDs."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinOp) and expr.op == "and":
        return _ast_conjuncts(expr.lhs) + _ast_conjuncts(expr.rhs)
    return [expr]


def _is_subquery_conjunct(node: ast.SqlExpr) -> bool:
    if isinstance(node, (ast.Exists, ast.InSelectOp)):
        return True
    if isinstance(node, ast.BinOp) and (
        isinstance(node.lhs, ast.ScalarSubquery)
        or isinstance(node.rhs, ast.ScalarSubquery)
    ):
        return True
    return False


def _correlated_pairs(
    sub: ast.SelectStmt,
    inner_scope: _Scope,
    outer_scope: _Scope,
) -> tuple[list[tuple[str, str]], list[ast.SqlExpr]]:
    """Split a subquery's WHERE into correlation equalities and the rest.

    A correlation is an equality between a column resolvable only in the
    inner scope and one resolvable only in the outer scope; each becomes a
    (outer field, inner field) semi-join key pair.
    """

    def resolve_in(scope: _Scope, ref: ast.Ref) -> Optional[str]:
        try:
            return scope.resolve(ref)
        except SqlPlanError:
            return None

    pairs: list[tuple[str, str]] = []
    residual: list[ast.SqlExpr] = []
    for conjunct in _ast_conjuncts(sub.where):
        if (
            isinstance(conjunct, ast.BinOp)
            and conjunct.op == "="
            and isinstance(conjunct.lhs, ast.Ref)
            and isinstance(conjunct.rhs, ast.Ref)
        ):
            sides = []
            for ref in (conjunct.lhs, conjunct.rhs):
                sides.append(
                    (resolve_in(inner_scope, ref), resolve_in(outer_scope, ref))
                )
            (l_in, l_out), (r_in, r_out) = sides
            if l_in and not l_out and r_out and not r_in:
                pairs.append((r_out, l_in))
                continue
            if r_in and not r_out and l_out and not l_in:
                pairs.append((l_out, r_in))
                continue
        residual.append(conjunct)
    return pairs, residual


def _plan_uncorrelated(sub: ast.SelectStmt, db: Database, catalog: Catalog):
    """A full recursive plan for an uncorrelated subselect."""
    return plan_query(sub, db, catalog)


def plan_query(
    stmt: ast.SelectStmt, db: Database, catalog: Catalog
) -> phys.PhysicalPlan:
    """Plan a parsed SELECT into an executable physical plan."""
    scope = _Scope(stmt.from_tables, catalog)
    translator = _Translator(scope)

    # WHERE: split into per-relation filters, join edges, cross filters,
    # and subquery conjuncts (handled after the join tree is built).
    relations = {t.alias: Relation(t.alias, t.table) for t in stmt.from_tables}
    join_edges: list[tuple[str, str]] = []
    cross_filters: list[Expr] = []
    subquery_conjuncts: list[ast.SqlExpr] = []
    for ast_conjunct in _ast_conjuncts(stmt.where):
        if _is_subquery_conjunct(ast_conjunct):
            subquery_conjuncts.append(ast_conjunct)
            continue
        conjunct = translator.scalar(ast_conjunct)
        if (
            isinstance(conjunct, Cmp)
            and conjunct.op == "=="
            and isinstance(conjunct.lhs, Col)
            and isinstance(conjunct.rhs, Col)
            and conjunct.lhs.name.split(".", 1)[0] != conjunct.rhs.name.split(".", 1)[0]
        ):
            join_edges.append((conjunct.lhs.name, conjunct.rhs.name))
            continue
        aliases = _aliases_of(conjunct)
        if len(aliases) == 1:
            relations[aliases.pop()].filters.append(conjunct)
        else:
            cross_filters.append(conjunct)

    # GROUP BY keys.
    key_exprs = [translator.scalar(g) for g in stmt.group_by]
    keys = [(f"__key{i}", expr) for i, expr in enumerate(key_exprs)]

    # SELECT items (aggregates extracted as they are translated).
    outputs: list[tuple[str, Expr]] = []
    key_map = {expr: Col(name) for name, expr in keys}
    used_names: set[str] = set()
    for i, (alias, item) in enumerate(stmt.items):
        translated = translator.translate(item, allow_aggs=True)
        translated = replace_expr(translated, key_map.get)
        if alias is None:
            # SQL default naming: a bare column reference keeps its name;
            # colliding defaults (self-joins) fall back to positionals.
            alias = item.column if isinstance(item, ast.Ref) else f"col{i}"
            if alias in used_names:
                alias = f"col{i}"
        used_names.add(alias)
        outputs.append((alias, translated))
    names = [n for n, _ in outputs]
    if len(set(names)) != len(names):
        raise SqlPlanError(f"duplicate output names: {names}")

    having = None
    if stmt.having is not None:
        having = replace_expr(translator.translate(stmt.having, True), key_map.get)

    aggs = [(name, spec) for name, spec, _ in translator.aggs]
    if (aggs or keys) and not stmt.group_by:
        # Global aggregate: every select item must be aggregate-only.
        for name, expr in outputs:
            bad = [c for c in expr.columns() if not c.startswith("__agg")]
            if bad:
                raise SqlPlanError(
                    f"column {bad[0]!r} must appear in GROUP BY or an aggregate"
                )
    if keys and aggs is not None:
        for name, expr in outputs:
            bad = [
                c
                for c in expr.columns()
                if "." in c and Col(c) not in key_map.values()
            ]
            if aggs and bad:
                raise SqlPlanError(
                    f"column {bad[0]!r} must appear in GROUP BY or an aggregate"
                )

    # ORDER BY: by position, output name, or a select-item expression.
    order_by: list[tuple[str, bool]] = []
    for key, asc in stmt.order_by:
        if isinstance(key, int):
            if not 1 <= key <= len(outputs):
                raise SqlPlanError(f"ORDER BY position {key} out of range")
            order_by.append((outputs[key - 1][0], asc))
            continue
        if isinstance(key, ast.Ref) and key.table is None and key.column in names:
            order_by.append((key.column, asc))
            continue
        translated = replace_expr(translator.translate(key, True), key_map.get)
        for name, expr in outputs:
            if expr == translated:
                order_by.append((name, asc))
                break
        else:
            raise SqlPlanError("ORDER BY expression must appear in the select list")

    extra_columns: list[str] = []
    for conjunct in subquery_conjuncts:
        extra_columns.extend(
            _subquery_outer_columns(conjunct, scope, catalog)
        )

    block = QueryBlock(
        relations=list(relations.values()),
        join_edges=join_edges,
        cross_filters=cross_filters,
        keys=keys,
        aggs=aggs,
        having=having,
        outputs=outputs,
        order_by=order_by,
        limit=stmt.limit,
        distinct=stmt.distinct,
        extra_columns=extra_columns,
    )
    if not subquery_conjuncts:
        return plan_block(block, db, catalog)

    # Build the join tree first, then graft decorrelated subquery operators.
    base = order_joins(block, db, catalog)
    if cross_filters:
        base = phys.Select(base, And(*cross_filters))
    for i, conjunct in enumerate(subquery_conjuncts):
        base = _apply_subquery(conjunct, base, scope, db, catalog, i)
    return plan_block(block, db, catalog, base=base)


def _subquery_outer_columns(
    node: ast.SqlExpr, outer_scope: _Scope, catalog: Catalog
) -> list[str]:
    """Outer-plan columns a subquery conjunct will reference after grafting."""
    if isinstance(node, ast.Exists):
        inner_scope = _Scope(node.select.from_tables, catalog)
        pairs, _ = _correlated_pairs(node.select, inner_scope, outer_scope)
        return [outer for outer, _ in pairs]
    if isinstance(node, ast.InSelectOp):
        if isinstance(node.term, ast.Ref):
            return [outer_scope.resolve(node.term)]
        return []
    if isinstance(node, ast.BinOp):
        other = node.lhs if isinstance(node.rhs, ast.ScalarSubquery) else node.rhs
        try:
            return sorted(_Translator(outer_scope).scalar(other).columns())
        except SqlPlanError:
            return []
    return []


def _apply_subquery(
    node: ast.SqlExpr,
    base: phys.PhysicalPlan,
    outer_scope: _Scope,
    db: Database,
    catalog: Catalog,
    index: int,
) -> phys.PhysicalPlan:
    """Graft one decorrelated subquery conjunct onto the join tree."""
    if isinstance(node, ast.Exists):
        return _apply_exists(node, base, outer_scope, db, catalog)
    if isinstance(node, ast.InSelectOp):
        return _apply_in_select(node, base, outer_scope, db, catalog)
    if isinstance(node, ast.BinOp):
        return _apply_scalar_compare(node, base, outer_scope, db, catalog, index)
    raise SqlPlanError(f"unsupported subquery form {type(node).__name__}")


def _apply_exists(
    node: ast.Exists,
    base: phys.PhysicalPlan,
    outer_scope: _Scope,
    db: Database,
    catalog: Catalog,
) -> phys.PhysicalPlan:
    """[NOT] EXISTS with equality correlation -> Semi/AntiJoin."""
    sub = node.select
    if sub.group_by or sub.having or sub.limit:
        raise SqlPlanError("EXISTS subqueries must be plain filtered selects")
    inner_scope = _Scope(sub.from_tables, catalog)
    pairs, residual = _correlated_pairs(sub, inner_scope, outer_scope)
    if not pairs:
        raise SqlPlanError(
            "EXISTS subqueries must correlate on at least one equality "
            "with the outer query"
        )
    inner_translator = _Translator(inner_scope)
    inner_relations = {t.alias: Relation(t.alias, t.table) for t in sub.from_tables}
    inner_edges: list[tuple[str, str]] = []
    inner_cross: list[Expr] = []
    for ast_conjunct in residual:
        if _is_subquery_conjunct(ast_conjunct):
            raise SqlPlanError("nested subqueries inside EXISTS are not supported")
        conjunct = inner_translator.scalar(ast_conjunct)
        if (
            isinstance(conjunct, Cmp)
            and conjunct.op == "=="
            and isinstance(conjunct.lhs, Col)
            and isinstance(conjunct.rhs, Col)
            and conjunct.lhs.name.split(".", 1)[0] != conjunct.rhs.name.split(".", 1)[0]
        ):
            inner_edges.append((conjunct.lhs.name, conjunct.rhs.name))
            continue
        aliases = _aliases_of(conjunct)
        if len(aliases) == 1:
            inner_relations[aliases.pop()].filters.append(conjunct)
        else:
            inner_cross.append(conjunct)
    inner_block = QueryBlock(
        relations=list(inner_relations.values()),
        join_edges=inner_edges,
        cross_filters=[],
        keys=[(name, Col(name)) for _, name in pairs],
        aggs=[],
        outputs=[],
    )
    inner_plan = order_joins(inner_block, db, catalog)
    if inner_cross:
        inner_plan = phys.Select(inner_plan, And(*inner_cross))
    outer_keys = tuple(outer for outer, _ in pairs)
    inner_keys = tuple(inner for _, inner in pairs)
    join = phys.AntiJoin if node.negate else phys.SemiJoin
    return join(base, inner_plan, outer_keys, inner_keys)


def _apply_in_select(
    node: ast.InSelectOp,
    base: phys.PhysicalPlan,
    outer_scope: _Scope,
    db: Database,
    catalog: Catalog,
) -> phys.PhysicalPlan:
    """``col [NOT] IN (uncorrelated subselect)`` -> Semi/AntiJoin.

    Where the subselect's column or the outer key can be NULL, ``NOT IN``
    also needs SQL's three-valued answer, which the anti-join alone does
    not give: a NULL in the subselect passes no row, and a NULL outer key
    passes only when the subselect is empty.  The plan checks both against
    a one-row count of the subselect's rows and non-NULL values."""
    if not isinstance(node.term, ast.Ref):
        raise SqlPlanError("IN (subquery) requires a plain column on the left")
    outer_key = outer_scope.resolve(node.term)
    inner_plan = _plan_uncorrelated(node.select, db, catalog)
    inner_fields = inner_plan.field_names(catalog)
    if len(inner_fields) != 1:
        raise SqlPlanError("IN (subquery) must select exactly one column")
    inner_key = inner_fields[0]
    if not node.negate:
        return phys.SemiJoin(base, inner_plan, (outer_key,), (inner_key,))
    anti = phys.AntiJoin(base, inner_plan, (outer_key,), (inner_key,))
    passes = []
    if inner_key in inner_plan.nullable(catalog):
        passes.append(Cmp("==", Col("__in_keys"), Col("__in_rows")))
    if outer_key in base.nullable(catalog):
        passes.append(IsNotNull(Col(outer_key)))
    if not passes:
        return anti
    counts = phys.Agg(_plan_uncorrelated(node.select, db, catalog), [], [
        ("__in_rows", AggSpec("count")), ("__in_keys", AggSpec("count", Col(inner_key))),
    ])
    empty = Cmp("==", Col("__in_rows"), Const(0))
    outputs = [(name, Col(name)) for name in ("__in_rows", "__in_keys")]
    return _filter_on_one_row(anti, counts, outputs, Or(empty, And(*passes)), catalog)


def _apply_scalar_compare(
    node: ast.BinOp,
    base: phys.PhysicalPlan,
    outer_scope: _Scope,
    db: Database,
    catalog: Catalog,
    index: int,
) -> phys.PhysicalPlan:
    """``expr op (scalar subselect)`` -> single-row join + filter."""
    if node.op not in _CMP_MAP:
        raise SqlPlanError("scalar subqueries are only supported in comparisons")
    if isinstance(node.rhs, ast.ScalarSubquery):
        sub, other, op = node.rhs.select, node.lhs, node.op
    elif isinstance(node.lhs, ast.ScalarSubquery):
        mirrored = {
            "<": ">", "<=": ">=", ">": "<", ">=": "<=",
            "=": "=", "<>": "<>", "!=": "!=",
        }
        sub, other, op = node.lhs.select, node.rhs, mirrored[node.op]
    else:  # pragma: no cover - guarded by _is_subquery_conjunct
        raise SqlPlanError("no scalar subquery in comparison")
    if sub.group_by:
        raise SqlPlanError("scalar subqueries must aggregate to a single row")
    inner_plan = _plan_uncorrelated(sub, db, catalog)
    inner_fields = inner_plan.field_names(catalog)
    if len(inner_fields) != 1:
        raise SqlPlanError("scalar subqueries must select exactly one column")
    scalar = Col(f"__scalar{index}")
    # An empty input aggregates to NULL, and a comparison with NULL is never
    # true: a NULL scalar leaves no build row, so the join drops every row.
    value = phys.Select(inner_plan, IsNotNull(Col(inner_fields[0])))
    other_expr = _Translator(outer_scope).scalar(other)
    return _filter_on_one_row(
        base, value, [(scalar.name, Col(inner_fields[0]))],
        Cmp(_CMP_MAP[op], other_expr, scalar), catalog,
    )


def _filter_on_one_row(
    base: phys.PhysicalPlan,
    row: phys.PhysicalPlan,
    outputs: list[tuple[str, Expr]],
    pred: Expr,
    catalog: Catalog,
) -> phys.PhysicalPlan:
    """Pair every row of ``base`` with the (at most) one row of ``row``,
    projected to ``outputs``, keep the pairs ``pred`` passes, and trim
    back to ``base``'s fields so downstream shaping is unaffected."""
    outer_fields = base.field_names(catalog)
    joined = phys.HashJoin(
        phys.Project(row, outputs + [("__kr", Const(1))]),
        phys.Project(base, [(n, Col(n)) for n in outer_fields] + [("__kl", Const(1))]),
        ("__kr",), ("__kl",),
    )
    return phys.Project(phys.Select(joined, pred), [(n, Col(n)) for n in outer_fields])


def sql_to_plan(text: str, db: Database, catalog: Optional[Catalog] = None) -> phys.PhysicalPlan:
    """Parse and plan a SQL string against a loaded database."""
    return plan_query(parse_select(text), db, catalog or db.catalog)
