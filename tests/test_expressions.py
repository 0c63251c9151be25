"""Tests for the expression language: eval, templates, typing, and the
agreement between interpreted evaluation and staged/compiled evaluation."""

import pytest

from repro.catalog.types import ColumnType
from repro.plan.expressions import (
    AggSpec,
    And,
    Arith,
    Between,
    Case,
    Cmp,
    Col,
    Const,
    ExprError,
    ExtractYear,
    InList,
    Like,
    Not,
    Or,
    Substring,
    _like_shape,
    avg,
    col,
    count,
    count_distinct,
    lit,
    max_,
    min_,
    sum_,
)
from repro.staging import PyProgram, StagingContext, generate_python
from repro.compiler.staged_record import FieldDesc, StagedRecord
from repro.staging.rep import rep_for_ctype
from repro.staging import ir

ROW = {
    "a": 10,
    "b": 3,
    "f": 2.5,
    "s": "PROMO ANODIZED STEEL",
    "d": 19940215,
    "phone": "13-345-678-9012",
}
TYPES = {
    "a": ColumnType.INT,
    "b": ColumnType.INT,
    "f": ColumnType.FLOAT,
    "s": ColumnType.STRING,
    "d": ColumnType.DATE,
    "phone": ColumnType.STRING,
}


def staged_eval(expr, row=ROW, types=TYPES):
    """Stage ``expr`` over a symbolic record and execute the residual code."""
    ctx = StagingContext()
    with ctx.function("f", ["row"]):
        descs = [FieldDesc(name, types[name]) for name in row]
        loaders = {
            name: (
                lambda n=name, t=types[name]: rep_for_ctype(t.ctype)(
                    ctx.bind(ir.Index(ir.Sym("row"), ir.Const(n)), ctype=t.ctype),
                    ctx,
                )
            )
            for name in row
        }
        rec = StagedRecord(ctx, descs, loaders)
        ctx.return_(expr.stage(rec))
    return PyProgram(generate_python(ctx.program())).fn("f")(row)


def template_eval(expr, row=ROW):
    """Render the template fragment and evaluate it on a dict."""
    from repro.compiler import runtime as rt

    return eval(expr.template("rec"), {"rt": rt}, {"rec": row})  # noqa: S307


ALL_BACKENDS = (lambda e: e.eval(ROW), staged_eval, template_eval)


CASES = [
    (col("a"), 10),
    (lit(7), 7),
    (col("a") + col("b"), 13),
    (col("a") - lit(1), 9),
    (col("a") * col("b"), 30),
    (col("a") / lit(4), 2.5),
    (col("a").eq(10), True),
    (col("a").ne(10), False),
    (col("a").lt(col("b")), False),
    (col("b").le(3), True),
    (col("a").gt(9), True),
    (col("a").ge(11), False),
    (And(col("a").gt(0), col("b").gt(0)), True),
    (And(col("a").gt(0), col("b").gt(5)), False),
    (Or(col("a").gt(100), col("b").eq(3)), True),
    (Not(col("a").eq(10)), False),
    (Like(col("s"), "PROMO%"), True),
    (Like(col("s"), "%STEEL"), True),
    (Like(col("s"), "%ANODIZED%"), True),
    (Like(col("s"), "%BRASS%"), False),
    (Like(col("s"), "%MO%ST%"), True),
    (Like(col("s"), "%ST%MO%"), False),
    (Like(col("s"), "PROMO%", negate=True), False),
    (Case(col("a").gt(5), lit(1), lit(0)), 1),
    (Case(col("a").gt(50), col("a"), col("b")), 3),
    (ExtractYear(col("d")), 1994),
    (Substring(col("phone"), 1, 2), "13"),
    (InList(col("b"), (1, 2, 3)), True),
    (InList(col("b"), (7, 8)), False),
    (InList(col("s"), ("X", "PROMO ANODIZED STEEL")), True),
    (Between(col("a"), 5, 15), True),
    (Between(col("a"), 11, 15), False),
]


@pytest.mark.parametrize("expr,expected", CASES, ids=[str(i) for i in range(len(CASES))])
def test_eval(expr, expected):
    assert expr.eval(ROW) == pytest.approx(expected)


@pytest.mark.parametrize("expr,expected", CASES, ids=[str(i) for i in range(len(CASES))])
def test_staged_agrees(expr, expected):
    got = staged_eval(expr)
    if isinstance(expected, bool):
        assert bool(got) == expected
    else:
        assert got == pytest.approx(expected)


@pytest.mark.parametrize("expr,expected", CASES, ids=[str(i) for i in range(len(CASES))])
def test_template_agrees(expr, expected):
    got = template_eval(expr)
    if isinstance(expected, bool):
        assert bool(got) == expected
    else:
        assert got == pytest.approx(expected)


def test_like_shapes():
    assert _like_shape("abc")[0] == "exact"
    assert _like_shape("abc%")[0] == "prefix"
    assert _like_shape("%abc")[0] == "suffix"
    assert _like_shape("%abc%")[0] == "contains"
    assert _like_shape("%a%b%")[0] == "contains2"
    assert _like_shape("a%b")[0] == "generic"
    assert _like_shape("a_c")[0] == "generic"
    assert _like_shape("%")[0] == "any"


def test_generic_like_fallback():
    expr = Like(col("s"), "PROMO%STEEL")
    assert expr.eval(ROW) is True
    assert staged_eval(expr)
    assert template_eval(expr)


def test_columns_collection():
    expr = And(col("a").gt(col("b")), Like(col("s"), "x%"))
    assert expr.columns() == {"a", "b", "s"}
    assert lit(1).columns() == set()


def test_columns_are_memoized_per_node_and_a_rebuild_starts_fresh():
    from repro.plan.expressions import remake

    lhs = col("a") + col("b")
    expr = lhs.gt(col("c"))
    assert expr.columns() is expr.columns()
    assert lhs.columns() == {"a", "b"} and "_columns_memo" in vars(lhs)
    copy = remake(expr, {"rhs": col("d")})
    assert "_columns_memo" not in vars(copy)
    assert copy.columns() == {"a", "b", "d"}
    assert expr.columns() == {"a", "b", "c"}
    assert copy.lhs is lhs and copy.lhs.columns() is lhs.columns()


def test_result_types():
    types = TYPES
    assert (col("a") + col("b")).result_type(types) is ColumnType.INT
    assert (col("a") + col("f")).result_type(types) is ColumnType.FLOAT
    assert (col("a") / col("b")).result_type(types) is ColumnType.FLOAT
    assert col("a").eq(1).result_type(types) is ColumnType.BOOL
    assert Substring(col("s"), 1, 2).result_type(types) is ColumnType.STRING
    assert ExtractYear(col("d")).result_type(types) is ColumnType.INT
    assert Case(col("a").gt(0), col("f"), lit(0.0)).result_type(types) is ColumnType.FLOAT


def test_unknown_column_raises():
    with pytest.raises(ExprError):
        col("zzz").eval(ROW)
    with pytest.raises(ExprError):
        col("zzz").result_type(TYPES)


def test_bad_operators_rejected():
    with pytest.raises(ExprError):
        Arith("**", col("a"), col("b"))
    with pytest.raises(ExprError):
        Cmp("<>", col("a"), col("b"))


def test_and_or_flatten():
    nested = And(And(col("a").gt(0), col("b").gt(0)), col("f").gt(0))
    assert len(nested.terms) == 3
    nested_or = Or(Or(col("a").gt(0), col("b").gt(0)), col("f").gt(0))
    assert len(nested_or.terms) == 3


def test_empty_and_rejected():
    with pytest.raises(ExprError):
        And()
    with pytest.raises(ExprError):
        Or()


def test_agg_spec_validation():
    assert sum_(col("a")).kind == "sum"
    assert count().expr is None
    assert count_distinct(col("a")).kind == "count_distinct"
    with pytest.raises(ExprError):
        AggSpec("median", col("a"))
    with pytest.raises(ExprError):
        AggSpec("sum")  # needs an expression


def test_agg_result_types():
    assert count().result_type(TYPES) is ColumnType.INT
    assert avg(col("a")).result_type(TYPES) is ColumnType.FLOAT
    assert sum_(col("f")).result_type(TYPES) is ColumnType.FLOAT
    assert min_(col("a")).result_type(TYPES) is ColumnType.INT
    assert max_(col("s")).result_type(TYPES) is ColumnType.STRING


def test_agg_columns():
    assert sum_(col("a") * col("f")).columns() == {"a", "f"}
    assert count().columns() == set()
