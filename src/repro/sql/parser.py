"""Recursive-descent parser for the SQL subset.

Grammar (informally)::

    select   := SELECT [DISTINCT] item (',' item)* FROM from_item (',' from_item)*
                [JOIN table [alias] ON expr]*
                [WHERE expr] [GROUP BY expr (',' expr)*] [HAVING expr]
                [ORDER BY ord (',' ord)*] [LIMIT n]
    expr     := or_expr;  usual precedence: OR < AND < NOT < cmp < add < mul
    primary  := literal | DATE 'lit' | INTERVAL 'n' unit | ref | '(' expr ')'
                | CASE WHEN ... | EXTRACT(YEAR FROM e) | SUBSTRING(e FROM i FOR n)
                | agg '(' [DISTINCT] expr | '*' ')'
"""

from __future__ import annotations

from typing import Optional, Union

from repro.catalog.types import date_to_int
from repro.errors import ParamError, ReproError
from repro.sql import ast_nodes as ast
from repro.sql.lexer import KIND, POSITION, VALUE, Token, is_kw, is_sym, tokenize


class SqlParseError(ReproError):
    """Raised on syntax errors, with token position context."""

    code = "E_SQL_PARSE"
    phase = "plan"


_AGG_NAMES = ("count", "sum", "avg", "min", "max")
_CMP_OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.pos = 0
        # Parameter bookkeeping: ``?`` placeholders number left to right,
        # every occurrence of the same ``:name`` shares one index, and the
        # two styles cannot be mixed in a single statement.
        self.param_style: Optional[str] = None
        self.positional_params = 0
        self.named_params: dict[str, int] = {}

    # -- token helpers -----------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.cur
        self.pos += 1
        return token

    def accept_kw(self, *names: str) -> bool:
        if is_kw(self.cur, *names):
            self.advance()
            return True
        return False

    def accept_sym(self, *symbols: str) -> bool:
        if is_sym(self.cur, *symbols):
            self.advance()
            return True
        return False

    def expect_kw(self, name: str) -> None:
        if not self.accept_kw(name):
            self.fail(f"expected {name.upper()}")

    def expect_sym(self, symbol: str) -> None:
        if not self.accept_sym(symbol):
            self.fail(f"expected {symbol!r}")

    def fail(self, message: str) -> None:
        token = self.cur
        raise SqlParseError(
            f"{message}, found {token[KIND]} {token[VALUE]!r} at position {token[POSITION]}"
        )

    def integer(self, message: str) -> int:
        """Consume an integer literal; anything else fails with ``message``."""
        if self.cur[KIND] != "number" or not self.cur[VALUE].isdigit():
            self.fail(message)
        return int(self.advance()[VALUE])

    def fail_param(self, message: str) -> None:
        token = self.cur
        raise ParamError(f"{message} (at position {token[POSITION]})", phase="plan")

    def placeholder(self) -> ast.Placeholder:
        token = self.advance()
        if token[VALUE] == "?":
            if self.param_style == "named":
                raise ParamError(
                    "cannot mix positional '?' and named ':name' parameters "
                    "in one statement",
                    phase="plan",
                )
            self.param_style = "positional"
            index = self.positional_params
            self.positional_params += 1
            return ast.Placeholder(index=index)
        if self.param_style == "positional":
            raise ParamError(
                "cannot mix positional '?' and named ':name' parameters "
                "in one statement",
                phase="plan",
            )
        self.param_style = "named"
        index = self.named_params.setdefault(token[VALUE], len(self.named_params))
        return ast.Placeholder(index=index, name=token[VALUE])

    # -- statement ---------------------------------------------------------------

    def parse(self) -> ast.SelectStmt:
        stmt = self.select_body()
        self.accept_sym(";")
        if self.cur[KIND] != "eof":
            self.fail("unexpected trailing input")
        return stmt

    def subselect(self) -> ast.SelectStmt:
        """A parenthesized SELECT; the caller consumed '(' already."""
        stmt = self.select_body()
        self.expect_sym(")")
        return stmt

    def select_body(self) -> ast.SelectStmt:
        self.expect_kw("select")
        distinct = self.accept_kw("distinct")
        items = [self.select_item()]
        while self.accept_sym(","):
            items.append(self.select_item())
        self.expect_kw("from")
        from_tables = [self.from_item()]
        join_conds: list[ast.SqlExpr] = []
        while True:
            if self.accept_sym(","):
                from_tables.append(self.from_item())
            elif is_kw(self.cur, "join", "inner"):
                self.accept_kw("inner")
                self.expect_kw("join")
                from_tables.append(self.from_item())
                self.expect_kw("on")
                join_conds.append(self.expr())
            else:
                break
        where = self.expr() if self.accept_kw("where") else None
        for cond in join_conds:
            where = cond if where is None else ast.BinOp("and", where, cond)
        group_by: list[ast.SqlExpr] = []
        if self.accept_kw("group"):
            self.expect_kw("by")
            group_by.append(self.expr())
            while self.accept_sym(","):
                group_by.append(self.expr())
        having = self.expr() if self.accept_kw("having") else None
        order_by: list[tuple[Union[ast.SqlExpr, int], bool]] = []
        if self.accept_kw("order"):
            self.expect_kw("by")
            order_by.append(self.order_item())
            while self.accept_sym(","):
                order_by.append(self.order_item())
        limit: Optional[int] = None
        if self.accept_kw("limit"):
            token = self.cur
            if token[KIND] == "param":
                self.fail_param(
                    "LIMIT cannot be a parameter; the bound is baked "
                    "into the residual program"
                )
            limit = self.integer("expected an integer after LIMIT")
        return ast.SelectStmt(
            items=items,
            from_tables=from_tables,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def select_item(self) -> tuple[Optional[str], ast.SqlExpr]:
        expr = self.expr()
        alias: Optional[str] = None
        if self.accept_kw("as"):
            if self.cur[KIND] != "ident":
                self.fail("expected an alias after AS")
            alias = self.advance()[VALUE]
        elif self.cur[KIND] == "ident":
            alias = self.advance()[VALUE]
        return alias, expr

    def from_item(self) -> ast.FromTable:
        if self.cur[KIND] == "param":
            self.fail_param(
                "a parameter cannot stand for a table name; "
                "parameters bind values, not plan structure"
            )
        if self.cur[KIND] != "ident":
            self.fail("expected a table name")
        table = self.advance()[VALUE]
        alias = table
        if self.accept_kw("as"):
            if self.cur[KIND] != "ident":
                self.fail("expected an alias after AS")
            alias = self.advance()[VALUE]
        elif self.cur[KIND] == "ident":
            alias = self.advance()[VALUE]
        return ast.FromTable(table, alias)

    def order_item(self) -> tuple[Union[ast.SqlExpr, int], bool]:
        if self.cur[KIND] == "number":
            key: Union[ast.SqlExpr, int] = int(self.advance()[VALUE])
        else:
            key = self.expr()
        asc = True
        if self.accept_kw("desc"):
            asc = False
        else:
            self.accept_kw("asc")
        return key, asc

    # -- expressions --------------------------------------------------------------

    def expr(self) -> ast.SqlExpr:
        return self.or_expr()

    def or_expr(self) -> ast.SqlExpr:
        left = self.and_expr()
        while self.accept_kw("or"):
            left = ast.BinOp("or", left, self.and_expr())
        return left

    def and_expr(self) -> ast.SqlExpr:
        left = self.not_expr()
        while self.accept_kw("and"):
            left = ast.BinOp("and", left, self.not_expr())
        return left

    def not_expr(self) -> ast.SqlExpr:
        if is_kw(self.cur, "not") and is_kw(self.tokens[self.pos + 1], "exists"):
            self.advance()
            self.advance()
            self.expect_sym("(")
            return ast.Exists(self.subselect(), negate=True)
        if self.accept_kw("not"):
            return ast.NotOp(self.not_expr())
        if self.accept_kw("exists"):
            self.expect_sym("(")
            return ast.Exists(self.subselect())
        return self.predicate()

    def predicate(self) -> ast.SqlExpr:
        left = self.additive()
        negate = False
        if is_kw(self.cur, "not"):
            # LIKE/IN/BETWEEN can be negated inline: x NOT LIKE 'p'
            nxt = self.tokens[self.pos + 1]
            if is_kw(nxt, "like", "in", "between"):
                self.advance()
                negate = True
        if self.accept_kw("like"):
            if self.cur[KIND] == "param":
                self.fail_param(
                    "a LIKE pattern cannot be a parameter; the pattern "
                    "shape specializes the residual program"
                )
            if self.cur[KIND] != "string":
                self.fail("expected a pattern string after LIKE")
            return ast.LikeOp(left, self.advance()[VALUE], negate=negate)
        if self.accept_kw("in"):
            self.expect_sym("(")
            if is_kw(self.cur, "select"):
                return ast.InSelectOp(left, self.subselect(), negate=negate)
            values = [self.constant()]
            while self.accept_sym(","):
                values.append(self.constant())
            self.expect_sym(")")
            return ast.InListOp(left, tuple(values), negate=negate)
        if self.accept_kw("between"):
            lo = self.additive()
            self.expect_kw("and")
            hi = self.additive()
            return ast.BetweenOp(left, lo, hi, negate=negate)
        if negate:
            self.fail("expected LIKE, IN or BETWEEN after NOT")
        if is_sym(self.cur, *_CMP_OPS):
            op = self.advance()[VALUE]
            right = self.additive()
            return ast.BinOp(op, left, right)
        return left

    def additive(self) -> ast.SqlExpr:
        left = self.multiplicative()
        while is_sym(self.cur, "+", "-"):
            op = self.advance()[VALUE]
            left = ast.BinOp(op, left, self.multiplicative())
        return left

    def multiplicative(self) -> ast.SqlExpr:
        left = self.unary()
        while is_sym(self.cur, "*", "/"):
            op = self.advance()[VALUE]
            left = ast.BinOp(op, left, self.unary())
        return left

    def unary(self) -> ast.SqlExpr:
        if self.accept_sym("-"):
            term = self.unary()
            if isinstance(term, ast.Literal) and isinstance(term.value, (int, float)):
                return ast.Literal(-term.value)
            return ast.BinOp("-", ast.Literal(0), term)
        return self.primary()

    def constant(self) -> object:
        """A bare literal (for IN lists)."""
        token = self.cur
        if token[KIND] == "param":
            self.fail_param(
                "a parameter cannot appear in an IN list; the list "
                "unrolls into the residual program at compile time"
            )
        if token[KIND] == "number":
            self.advance()
            return float(token[VALUE]) if "." in token[VALUE] else int(token[VALUE])
        if token[KIND] == "string":
            self.advance()
            return token[VALUE]
        if is_kw(token, "date"):
            self.advance()
            if self.cur[KIND] != "string":
                self.fail("expected a date string")
            return date_to_int(self.advance()[VALUE])
        self.fail("expected a constant")
        raise AssertionError  # unreachable

    def primary(self) -> ast.SqlExpr:
        token = self.cur
        if token[KIND] == "param":
            return self.placeholder()
        if token[KIND] == "number":
            self.advance()
            value = float(token[VALUE]) if "." in token[VALUE] else int(token[VALUE])
            return ast.Literal(value)
        if token[KIND] == "string":
            self.advance()
            return ast.Literal(token[VALUE])
        if is_kw(token, "true"):
            self.advance()
            return ast.Literal(True)
        if is_kw(token, "false"):
            self.advance()
            return ast.Literal(False)
        if is_kw(token, "date"):
            self.advance()
            if self.cur[KIND] == "param":
                self.fail_param(
                    "a DATE literal cannot be a parameter; date bounds "
                    "drive index-rewrite decisions at plan time"
                )
            if self.cur[KIND] != "string":
                self.fail("expected a date string after DATE")
            return ast.Literal(date_to_int(self.advance()[VALUE]))
        if is_kw(token, "interval"):
            self.advance()
            if self.cur[KIND] == "param":
                self.fail_param("an INTERVAL amount cannot be a parameter")
            if self.cur[KIND] != "string":
                self.fail("expected a quoted amount after INTERVAL")
            amount = int(self.advance()[VALUE])
            if not is_kw(self.cur, "day", "month", "year"):
                self.fail("expected DAY, MONTH or YEAR")
            unit = self.advance()[VALUE]
            return ast.Interval(amount, unit)
        if is_kw(token, "case"):
            return self.case_expr()
        if is_kw(token, "extract"):
            self.advance()
            self.expect_sym("(")
            if not is_kw(self.cur, "year", "month", "day"):
                self.fail("expected YEAR, MONTH or DAY in EXTRACT")
            unit = self.advance()[VALUE]
            self.expect_kw("from")
            term = self.expr()
            self.expect_sym(")")
            return ast.ExtractOp(unit, term)
        if is_kw(token, "substring"):
            self.advance()
            self.expect_sym("(")
            term = self.expr()
            self.expect_kw("from")
            if self.cur[KIND] == "param":
                self.fail_param("a SUBSTRING position cannot be a parameter")
            start = self.integer("expected an integer start position")
            self.expect_kw("for")
            if self.cur[KIND] == "param":
                self.fail_param("a SUBSTRING length cannot be a parameter")
            length = self.integer("expected an integer length")
            self.expect_sym(")")
            return ast.SubstringOp(term, start, length)
        if is_kw(token, *_AGG_NAMES):
            name = self.advance()[VALUE]
            self.expect_sym("(")
            if name == "count" and self.accept_sym("*"):
                self.expect_sym(")")
                return ast.FuncCall("count", star=True)
            distinct = self.accept_kw("distinct")
            arg = self.expr()
            self.expect_sym(")")
            return ast.FuncCall(name, arg=arg, distinct=distinct)
        if token[KIND] == "ident":
            name = self.advance()[VALUE]
            if self.accept_sym("."):
                if self.cur[KIND] not in ("ident",):
                    self.fail("expected a column name after '.'")
                column = self.advance()[VALUE]
                return ast.Ref(column=column, table=name)
            return ast.Ref(column=name)
        if self.accept_sym("("):
            if is_kw(self.cur, "select"):
                return ast.ScalarSubquery(self.subselect())
            inner = self.expr()
            self.expect_sym(")")
            return inner
        self.fail("expected an expression")
        raise AssertionError  # unreachable

    def case_expr(self) -> ast.SqlExpr:
        self.expect_kw("case")
        self.expect_kw("when")
        cond = self.expr()
        self.expect_kw("then")
        then = self.expr()
        if is_kw(self.cur, "when"):
            els = self.case_tail()
        elif self.accept_kw("else"):
            els = self.expr()
            self.expect_kw("end")
        else:
            self.fail("CASE requires an ELSE branch")
            raise AssertionError
        return ast.CaseOp(cond, then, els)

    def case_tail(self) -> ast.SqlExpr:
        """Additional WHEN arms desugar to nested CASE."""
        self.expect_kw("when")
        cond = self.expr()
        self.expect_kw("then")
        then = self.expr()
        if is_kw(self.cur, "when"):
            els = self.case_tail()
        elif self.accept_kw("else"):
            els = self.expr()
            self.expect_kw("end")
        else:
            self.fail("CASE requires an ELSE branch")
            raise AssertionError
        return ast.CaseOp(cond, then, els)


def parse_select(text: str) -> ast.SelectStmt:
    """Parse one SELECT statement."""
    return _Parser(text).parse()
