"""Tests for physical plan construction, field propagation and validation."""

import pytest

from repro.catalog import Catalog, INT, STRING, FLOAT
from repro.catalog.types import ColumnType
from repro.catalog.schema import schema
from repro.plan import (
    Agg,
    AntiJoin,
    DateIndexScan,
    Distinct,
    HashJoin,
    IndexJoin,
    LeftOuterJoin,
    Limit,
    Project,
    Scan,
    Select,
    SemiJoin,
    Sort,
    avg,
    col,
    count,
    lit,
    sum_,
)
from repro.catalog.schema import Column
from repro.plan import GroupJoin, max_
from repro.plan.expressions import And, Case, IsNotNull, Or, Param
from repro.plan.physical import PlanError


@pytest.fixture
def cat():
    return Catalog(
        [
            schema("t", ("a", INT), ("b", STRING), ("v", FLOAT), pk=["a"]),
            schema("u", ("x", INT), ("y", STRING)),
            schema("dated", ("k", INT), ("day", ColumnType.DATE)),
        ]
    )


def test_scan_fields(cat):
    assert Scan("t").field_names(cat) == ["a", "b", "v"]
    assert Scan("t").field_types(cat)["v"] is FLOAT


def test_scan_rename(cat):
    s = Scan("t", rename={"a": "t2_a"})
    assert s.field_names(cat) == ["t2_a", "b", "v"]
    assert s.field_types(cat)["t2_a"] is INT


def test_scan_rename_unknown_column(cat):
    with pytest.raises(Exception):
        Scan("t", rename={"zzz": "w"}).fields(cat)


def test_select_preserves_fields(cat):
    plan = Select(Scan("t"), col("a").gt(1))
    assert plan.field_names(cat) == ["a", "b", "v"]


def test_select_unknown_column(cat):
    with pytest.raises(PlanError):
        Select(Scan("t"), col("nope").gt(1)).fields(cat)


def test_select_non_boolean_predicate(cat):
    with pytest.raises(PlanError, match="not boolean"):
        Select(Scan("t"), col("a") + col("a")).fields(cat)


def test_project_fields_and_types(cat):
    plan = Project(Scan("t"), [("twice", col("a") * lit(2)), ("b", col("b"))])
    assert plan.fields(cat) == [("twice", INT), ("b", STRING)]


def test_project_duplicate_names(cat):
    with pytest.raises(PlanError, match="duplicate"):
        Project(Scan("t"), [("x", col("a")), ("x", col("b"))]).fields(cat)


def test_hash_join_fields_concatenate(cat):
    plan = HashJoin(Scan("t"), Scan("u"), ("a",), ("x",))
    assert plan.field_names(cat) == ["a", "b", "v", "x", "y"]


def test_hash_join_arity_mismatch(cat):
    with pytest.raises(PlanError, match="arity"):
        HashJoin(Scan("t"), Scan("u"), ("a", "b"), ("x",)).fields(cat)


def test_hash_join_name_clash(cat):
    with pytest.raises(PlanError, match="clash"):
        HashJoin(Scan("t"), Scan("t"), ("a",), ("a",)).fields(cat)


def test_self_join_with_rename(cat):
    plan = HashJoin(
        Scan("t"), Scan("t", rename={"a": "a2", "b": "b2", "v": "v2"}), ("a",), ("a2",)
    )
    assert plan.field_names(cat) == ["a", "b", "v", "a2", "b2", "v2"]


def test_semi_anti_join_keep_left_fields(cat):
    semi = SemiJoin(Scan("t"), Scan("u"), ("a",), ("x",))
    anti = AntiJoin(Scan("t"), Scan("u"), ("a",), ("x",))
    assert semi.field_names(cat) == ["a", "b", "v"]
    assert anti.field_names(cat) == ["a", "b", "v"]


def test_left_outer_join_fields(cat):
    plan = LeftOuterJoin(Scan("t"), Scan("u"), ("a",), ("x",))
    assert plan.field_names(cat) == ["a", "b", "v", "x", "y"]


def test_index_join_fields(cat):
    plan = IndexJoin(Scan("u"), table="t", table_key="a", child_key="x")
    assert plan.field_names(cat) == ["x", "y", "a", "b", "v"]


def test_index_join_rename_and_residual(cat):
    plan = IndexJoin(
        Scan("u"),
        table="t",
        table_key="a",
        child_key="x",
        rename={"a": "ta"},
        residual=col("ta").gt(0),
    )
    assert "ta" in plan.field_names(cat)


def test_index_join_residual_unknown_column(cat):
    plan = IndexJoin(
        Scan("u"), table="t", table_key="a", child_key="x", residual=col("zz").gt(0)
    )
    with pytest.raises(PlanError):
        plan.fields(cat)


def test_agg_fields(cat):
    plan = Agg(
        Scan("t"),
        keys=[("b", col("b"))],
        aggs=[("total", sum_(col("v"))), ("n", count()), ("m", avg(col("a")))],
    )
    assert plan.fields(cat) == [
        ("b", STRING),
        ("total", FLOAT),
        ("n", INT),
        ("m", FLOAT),
    ]


def test_agg_duplicate_output_names(cat):
    with pytest.raises(PlanError, match="duplicate"):
        Agg(Scan("t"), keys=[("b", col("b"))], aggs=[("b", count())]).fields(cat)


def test_global_agg_fields(cat):
    plan = Agg(Scan("t"), keys=[], aggs=[("n", count())])
    assert plan.fields(cat) == [("n", INT)]


def test_sort_requires_known_fields(cat):
    with pytest.raises(PlanError):
        Sort(Scan("t"), [("zzz", True)]).fields(cat)
    assert Sort(Scan("t"), [("a", False)]).field_names(cat) == ["a", "b", "v"]


def test_limit_negative_rejected(cat):
    with pytest.raises(PlanError):
        Limit(Scan("t"), -1).fields(cat)


def test_distinct_passthrough(cat):
    assert Distinct(Scan("t")).field_names(cat) == ["a", "b", "v"]


def test_date_index_scan_requires_date_column(cat):
    assert DateIndexScan("dated", "day").field_names(cat) == ["k", "day"]
    with pytest.raises(PlanError, match="not a date"):
        DateIndexScan("dated", "k").fields(cat)


def test_operator_count(cat):
    plan = Sort(Select(Scan("t"), col("a").gt(0)), [("a", True)])
    assert plan.operator_count() == 3


def test_validate_walks_tree(cat):
    bad = Sort(Select(Scan("t"), col("nope").gt(0)), [("a", True)])
    with pytest.raises(PlanError):
        bad.validate(cat)


def test_fields_memoized(cat):
    plan = Scan("t")
    assert plan.fields(cat) is plan.fields(cat)


def test_needs_null_guard(cat):
    """The three cases the Project-over-global-aggregate guard covered,
    asked of the plan's nullability rule (``Project.null_refs``)."""
    global_agg = Agg(Scan("t"), keys=[], aggs=[("s", sum_(col("v")))])
    assert Project(global_agg, [("r", col("s") / lit(2.0))]).null_refs(cat) == [("s",)]
    grouped = Agg(Scan("t"), keys=[("b", col("b"))], aggs=[("s", sum_(col("v")))])
    assert Project(grouped, [("r", col("s"))]).null_refs(cat) == [()]
    assert Project(Scan("t"), [("a", col("a"))]).null_refs(cat) == [()]


@pytest.fixture
def null_cat():
    return Catalog(
        [
            schema("t", ("a", INT), ("b", STRING), ("v", FLOAT), pk=["a"]),
            schema("n", ("k", INT), Column("note", STRING, nullable=True)),
        ]
    )


def test_nullable_sources(null_cat):
    """NULLs enter from a declared column, an outer join's null-extended
    side, a global aggregate's and a GroupJoin's sum/avg/min/max, and an
    aggregate over a nullable field; count never is."""
    assert Scan("n").nullable(null_cat) == {"note"}
    assert Scan("n", rename={"note": "m"}).nullable(null_cat) == {"m"}
    assert Scan("t").nullable(null_cat) == set()
    outer = LeftOuterJoin(Scan("t"), Scan("n"), ["a"], ["k"])
    assert outer.nullable(null_cat) == {"k", "note"}
    assert HashJoin(Scan("t"), Scan("n"), ["a"], ["k"]).nullable(null_cat) == {"note"}
    aggs = [("s", sum_(col("v"))), ("m", max_(col("v"))), ("c", count())]
    assert Agg(Scan("t"), [], aggs).nullable(null_cat) == {"s", "m"}
    assert Agg(Scan("t"), [("b", col("b"))], aggs).nullable(null_cat) == set()
    over_outer = Agg(outer, [("b", col("b"))], [("s", sum_(col("k"))), ("c", count())])
    assert over_outer.nullable(null_cat) == {"s"}
    keyed = Agg(outer, [("kk", col("k"))], [("c", count())])
    assert keyed.nullable(null_cat) == {"kk"}
    group_join = GroupJoin(Scan("t"), Scan("n"), ["a"], ["k"], aggs=[
        ("s", sum_(col("k"))), ("c", count()),
    ])
    assert group_join.nullable(null_cat) == {"s"}


def test_nullable_propagates_and_select_clears(null_cat):
    """An expression reading a nullable field is nullable; a Select whose
    predicate rejects NULL in a field (IS NOT NULL, an ordering comparison
    or an equality with a constant, also as a conjunct) clears it, and a
    disjunction or ``!=`` clears nothing."""
    outer = LeftOuterJoin(Scan("t"), Scan("n"), ["a"], ["k"])
    project = Project(outer, [("k1", col("k") + lit(1)), ("a", col("a")), ("kk", col("k"))])
    assert project.nullable(null_cat) == {"k1", "kk"}
    assert project.null_refs(null_cat) == [("k",), (), ("k",)]
    assert Select(outer, IsNotNull(col("k"))).nullable(null_cat) == {"note"}
    both = Select(outer, And(col("k").gt(lit(0)), col("note").eq(lit("x"))))
    assert both.nullable(null_cat) == set()
    either = Select(outer, Or(col("k").gt(lit(0)), col("a").gt(lit(0))))
    assert either.nullable(null_cat) == {"k", "note"}
    assert Select(outer, col("k").ne(lit(99))).nullable(null_cat) == {"k", "note"}
    assert Sort(outer, [("k", True)]).nullable(null_cat) == {"k", "note"}
    assert SemiJoin(Scan("t"), outer, ["a"], ["a"]).nullable(null_cat) == set()


def test_a_select_clears_only_what_its_predicate_rejects(null_cat):
    """Comparisons are evaluated on ``None`` as Python does, so only those
    that can pass no NULL row clear a field: an ordering comparison (it
    raises), ``==`` against a side that cannot be NULL, and ``IS NOT NULL``
    of a bare column.  ``None != 5`` and ``None == None`` hold, and a Case
    can turn a NULL into a value, so those clear nothing."""
    outer = LeftOuterJoin(Scan("t"), Scan("n"), ["a"], ["k"])
    both = {"k", "note"}

    def kept(pred):
        return Select(outer, pred).nullable(null_cat)

    assert kept(col("note").ne(lit("x"))) == both
    assert kept(col("k").eq(col("a"))) == {"note"}  # a is NOT NULL
    assert kept(col("k").eq(Param(0, ptype=INT))) == {"note"}
    assert kept((col("k") + lit(1)).le(lit(3))) == {"note"}
    assert kept(col("k").eq(col("k"))) == both  # None == None holds
    guarded = Case(IsNotNull(col("k")), col("k"), lit(10))
    assert kept(guarded.gt(lit(5))) == both
    assert kept(IsNotNull(guarded)) == both
    assert kept(And(col("k").ne(lit(1)), IsNotNull(col("note")))) == {"k"}
    assert outer.nullable(null_cat) is outer.nullable(null_cat)  # memoized


# -- the declared structure: one table per layer, one rebuild, one walk ------------


def _leaf_classes(base):
    """The classes of the package deriving from ``base`` that nothing
    derives from: the operators and expression forms a plan can hold."""
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        subs = [c for c in cls.__subclasses__() if c.__module__.startswith("repro.")]
        todo.extend(subs)
        if not subs and cls is not base:
            out.append(cls)
    return out


def test_every_operator_and_expression_form_declares_its_structure():
    from repro.plan import expressions, physical

    operators = _leaf_classes(physical.PhysicalPlan)
    assert len(operators) == 15
    assert [c.__name__ for c in operators if c not in physical.SHAPES] == []
    forms = _leaf_classes(expressions.Expr)
    assert len(forms) == 14
    assert [c.__name__ for c in forms if c not in expressions.SLOTS] == []
    assert expressions.AggSpec in expressions.SLOTS
    # every declared slot names a field of its class
    for table in (physical.SHAPES, expressions.SLOTS):
        for cls, shape in table.items():
            slots = shape if table is expressions.SLOTS else (
                tuple((n, "child") for n in shape.children) + shape.exprs
            )
            fields = set(cls.__dataclass_fields__)
            assert {name for name, _ in slots} <= fields, cls.__name__


def _tpch_plans():
    from repro.tpch import query_plan
    from repro.tpch.queries import q13_groupjoin

    return [query_plan(q) for q in range(1, 23)] + [q13_groupjoin()]


def test_an_identity_rebuild_returns_the_same_object():
    from repro.plan.expressions import replace_expr, walk_expr
    from repro.plan.physical import node_exprs, rebuild, walk

    for plan in _tpch_plans():
        for node in walk(plan):
            assert rebuild(node, node.children(), lambda expr: expr) is node
            assert rebuild(node) is node
            for expr in node_exprs(node):
                for sub in walk_expr(expr):
                    assert replace_expr(sub, lambda _: None) is sub


def test_a_rebuild_copies_only_what_changed_and_drops_memos(cat):
    from repro.plan.expressions import replace_expr
    from repro.plan.physical import rebuild

    old_child = Select(Scan("t"), col("a").gt(1))
    node = Project(old_child, [("a", col("a")), ("w", col("v") * lit(2.0))])
    node.fields(cat)
    node.nullable(cat)
    new_child = Select(Scan("t"), col("a").gt(2))
    copy = rebuild(node, [new_child])
    assert copy == Project(new_child, node.outputs) and copy is not node
    assert copy.outputs is node.outputs
    assert "_fields_memo" not in vars(copy) and "_nullable_memo" not in vars(copy)
    doubled = rebuild(node, exprs=lambda expr: replace_expr(
        expr, lambda e: lit(3.0) if e == lit(2.0) else None
    ))
    assert doubled.outputs[0] is node.outputs[0]
    assert doubled.outputs[1][1] == col("v") * lit(3.0)
    assert doubled.child is old_child


def test_a_rebuilt_and_or_flattens_through_its_constructor():
    from repro.plan.expressions import replace_expr

    pred = And(col("a").gt(1), IsNotNull(col("b")))
    spliced = replace_expr(
        pred, lambda e: And(col("x").lt(2), col("y").lt(3)) if isinstance(e, IsNotNull) else None
    )
    assert spliced == And(col("a").gt(1), col("x").lt(2), col("y").lt(3))
    assert len(spliced.terms) == 3
    either = Or(col("a").gt(1), Case(col("a").gt(2), col("a"), col("b")))
    assert replace_expr(either, lambda e: None) is either

