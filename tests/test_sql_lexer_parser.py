"""Tests for the SQL lexer and parser."""

import pytest

from repro.sql import ast_nodes as ast
from repro.sql.lexer import SqlLexError, tokenize
from repro.sql.parser import SqlParseError, parse_select


# -- lexer ------------------------------------------------------------------------


def kinds(text):
    return [(kind, value) for kind, value, _ in tokenize(text)][:-1]  # drop eof


def test_tokenize_keywords_case_insensitive():
    assert kinds("SELECT Select select") == [("keyword", "select")] * 3


def test_tokenize_identifiers_keep_case():
    assert kinds("Lineitem l_orderkey") == [
        ("ident", "Lineitem"),
        ("ident", "l_orderkey"),
    ]


def test_tokenize_numbers():
    assert kinds("42 3.14 .5") == [
        ("number", "42"),
        ("number", "3.14"),
        ("number", ".5"),
    ]


def test_tokenize_qualified_ref_is_not_a_decimal():
    assert kinds("a.b") == [("ident", "a"), ("symbol", "."), ("ident", "b")]


def test_tokenize_strings_with_escape():
    assert kinds("'it''s'") == [("string", "it's")]


def test_tokenize_unterminated_string():
    with pytest.raises(SqlLexError, match="unterminated"):
        tokenize("'oops")


def test_tokenize_symbols_longest_match():
    assert kinds("<= <> >=") == [
        ("symbol", "<="),
        ("symbol", "<>"),
        ("symbol", ">="),
    ]


def test_tokenize_comments():
    assert kinds("select -- a comment\n 1") == [
        ("keyword", "select"),
        ("number", "1"),
    ]


def test_tokenize_rejects_garbage():
    with pytest.raises(SqlLexError):
        tokenize("select @")


def test_tokenize_rejects_digits_that_are_not_decimal():
    # '²' and '½' are numeric but no int() reads them: a typed lex error,
    # not a number token that fails later with a raw ValueError.
    for text, ch, at in (("x < ²", "²", 4), ("1² + 2", "²", 1), ("½", "½", 0)):
        with pytest.raises(SqlLexError, match=f"unexpected character '{ch}' at position {at}"):
            tokenize(text)


def test_eof_token_present():
    assert tokenize("") == [("eof", "", 0)]


# -- parser -----------------------------------------------------------------------


def test_parse_minimal():
    stmt = parse_select("select a from t")
    assert stmt.items == [(None, ast.Ref("a"))]
    assert stmt.from_tables == [ast.FromTable("t", "t")]
    assert stmt.where is None and not stmt.group_by and stmt.limit is None


def test_parse_aliases():
    stmt = parse_select("select t.a as x, b y from tbl as t, other o")
    assert stmt.items[0] == ("x", ast.Ref("a", table="t"))
    assert stmt.items[1] == ("y", ast.Ref("b"))
    assert stmt.from_tables == [ast.FromTable("tbl", "t"), ast.FromTable("other", "o")]


def test_parse_where_precedence():
    stmt = parse_select("select a from t where a = 1 or b = 2 and c = 3")
    where = stmt.where
    assert isinstance(where, ast.BinOp) and where.op == "or"
    assert isinstance(where.rhs, ast.BinOp) and where.rhs.op == "and"


def test_parse_not_precedence():
    stmt = parse_select("select a from t where not a = 1 and b = 2")
    assert isinstance(stmt.where, ast.BinOp) and stmt.where.op == "and"
    assert isinstance(stmt.where.lhs, ast.NotOp)


def test_parse_arith_precedence():
    stmt = parse_select("select a + b * c from t")
    expr = stmt.items[0][1]
    assert isinstance(expr, ast.BinOp) and expr.op == "+"
    assert isinstance(expr.rhs, ast.BinOp) and expr.rhs.op == "*"


def test_parse_parentheses():
    stmt = parse_select("select (a + b) * c from t")
    expr = stmt.items[0][1]
    assert expr.op == "*" and expr.lhs.op == "+"


def test_parse_unary_minus_folds_literals():
    stmt = parse_select("select -5 from t")
    assert stmt.items[0][1] == ast.Literal(-5)


def test_parse_date_literal():
    stmt = parse_select("select a from t where d < date '1994-06-30'")
    assert stmt.where.rhs == ast.Literal(19940630)


def test_parse_interval():
    stmt = parse_select("select a from t where d < date '1994-01-01' + interval '3' month")
    rhs = stmt.where.rhs
    assert isinstance(rhs, ast.BinOp) and isinstance(rhs.rhs, ast.Interval)
    assert rhs.rhs == ast.Interval(3, "month")


def test_parse_like_and_not_like():
    stmt = parse_select("select a from t where s like 'x%' and s not like '%y'")
    like1 = stmt.where.lhs
    like2 = stmt.where.rhs
    assert like1 == ast.LikeOp(ast.Ref("s"), "x%")
    assert like2 == ast.LikeOp(ast.Ref("s"), "%y", negate=True)


def test_parse_in_list():
    stmt = parse_select("select a from t where m in ('MAIL', 'SHIP') and k not in (1, 2)")
    assert stmt.where.lhs == ast.InListOp(ast.Ref("m"), ("MAIL", "SHIP"))
    assert stmt.where.rhs == ast.InListOp(ast.Ref("k"), (1, 2), negate=True)


def test_parse_between():
    stmt = parse_select("select a from t where d between 0.05 and 0.07")
    assert stmt.where == ast.BetweenOp(ast.Ref("d"), ast.Literal(0.05), ast.Literal(0.07))


def test_parse_case():
    stmt = parse_select("select case when a > 0 then 1 else 0 end from t")
    expr = stmt.items[0][1]
    assert isinstance(expr, ast.CaseOp)
    assert expr.then == ast.Literal(1) and expr.els == ast.Literal(0)


def test_parse_case_multiple_whens_desugar():
    stmt = parse_select(
        "select case when a > 0 then 1 when a < 0 then 2 else 3 end from t"
    )
    expr = stmt.items[0][1]
    assert isinstance(expr.els, ast.CaseOp)
    assert expr.els.els == ast.Literal(3)


def test_parse_extract_substring():
    stmt = parse_select(
        "select extract(year from d), substring(p from 1 for 2) from t"
    )
    assert stmt.items[0][1] == ast.ExtractOp("year", ast.Ref("d"))
    assert stmt.items[1][1] == ast.SubstringOp(ast.Ref("p"), 1, 2)


def test_parse_aggregates():
    stmt = parse_select(
        "select count(*), sum(v), avg(v), min(v), max(v), count(distinct g) from t"
    )
    exprs = [e for _, e in stmt.items]
    assert exprs[0] == ast.FuncCall("count", star=True)
    assert exprs[1] == ast.FuncCall("sum", arg=ast.Ref("v"))
    assert exprs[5] == ast.FuncCall("count", arg=ast.Ref("g"), distinct=True)


def test_parse_group_having_order_limit():
    stmt = parse_select(
        "select g, count(*) n from t group by g having count(*) > 2 "
        "order by n desc, g asc limit 7"
    )
    assert stmt.group_by == [ast.Ref("g")]
    assert isinstance(stmt.having, ast.BinOp)
    assert stmt.order_by == [(ast.Ref("n"), False), (ast.Ref("g"), True)]
    assert stmt.limit == 7


def test_parse_order_by_position():
    stmt = parse_select("select a, b from t order by 2 desc")
    assert stmt.order_by == [(2, False)]


def test_parse_join_on():
    stmt = parse_select("select a from t join u on t.k = u.k where u.v > 1")
    assert len(stmt.from_tables) == 2
    # ON condition folded into WHERE
    assert isinstance(stmt.where, ast.BinOp) and stmt.where.op == "and"


def test_parse_distinct():
    assert parse_select("select distinct a from t").distinct


def test_parse_trailing_semicolon():
    assert parse_select("select a from t;").items


def test_parse_errors():
    for bad in (
        "select",
        "select a",
        "select a from",
        "select a from t where",
        "select a from t limit x",
        "select a from t limit 1.5",
        "select substring(a from 1.5 for 2) from t",
        "select substring(a from 1 for 2.0) from t",
        "select a from t order by",
        "select a from t group by",
        "select a from t trailing garbage here ..",
        "select case when a then 1 end from t",  # missing ELSE
    ):
        with pytest.raises(SqlParseError):
            parse_select(bad)
