"""Statement shapes: canonical text plus auto-parameterized literals.

This is the pre-parse half of the prepared-statement story.  Two statements
that differ only in formatting (whitespace, keyword case, comments) must
share one cache entry, and two statements that differ only in *eligible
literal values* must share one compiled residual program.  Both reductions
happen here, at the token level, before the parser runs:

* :func:`normalize_statement` renders the token stream back to one
  canonical spelling -- single spaces, lower-case keywords, comments gone.
  Identifiers keep their case (catalog names are case-sensitive).
* :func:`statement_shape` additionally lifts eligible number/string
  literals out of the text, replacing each with a positional ``?`` and
  collecting the values in order.  The canonical parameterized text is the
  statement's *shape* -- the session cache key and the unit the serving
  tier's breaker and shape digests agree on.

A statement that already carries explicit placeholders (``?`` or
``:name``) is never auto-parameterized: the user has drawn the
present-stage/future-stage line themselves.

Auto-parameterization is deliberately conservative.  A literal is left
in place (stays present-stage, specializing the residual program) when it
shapes the plan or the generated code rather than merely filling a value
slot:

* ``DATE '...'`` literals -- date bounds drive index-rewrite decisions;
* ``INTERVAL`` amounts -- folded into date arithmetic at plan time;
* ``LIKE`` patterns -- the pattern's shape picks the string kernel;
* ``IN (...)`` lists -- unrolled into the residual comparison chain;
* ``LIMIT`` bounds and ``SUBSTRING`` positions -- baked into loops;
* literals in ``GROUP BY`` / ``ORDER BY`` lists -- ordinals, not values;
* literals directly after ``THEN`` / ``ELSE`` -- keeps one CASE arm
  typed so the planner can infer the other arm's parameter type.

Everything else -- comparison operands, arithmetic terms, BETWEEN bounds
-- lifts.  A unary minus directly before a number folds into the lifted
value, so ``-0.05`` becomes one parameter rather than ``0 - ?``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.sql.lexer import KIND, VALUE, SqlLexError, Token, is_kw, is_sym, tokenize

#: A literal directly after one of these keywords stays present-stage.
_SKIP_AFTER_KW = frozenset(
    {"date", "interval", "like", "limit", "from", "for", "then", "else"}
)

#: Tokens after which a ``-`` is a *binary* operator, not a sign.
_BINARY_MINUS_AFTER_KW = frozenset({"end", "null", "true", "false"})


@dataclass(frozen=True)
class StatementShape:
    """The canonical parameterized form of one SQL statement.

    ``text`` is the shape key: canonical spelling with every lifted
    literal replaced by a placeholder.  ``values`` holds the lifted
    literal values in slot order (empty when the statement carried
    explicit placeholders -- then the caller supplies the bindings).
    ``explicit`` distinguishes user-written placeholders from
    auto-parameterized text; ``param_count``/``param_names`` describe the
    slot vector (``param_names`` is empty for positional statements).
    ``tokens`` is the lexed statement, kept so :attr:`literal_text` needs
    no second lex.
    """

    text: str
    values: Tuple[object, ...] = ()
    explicit: bool = False
    param_count: int = 0
    param_names: Tuple[str, ...] = ()
    tokens: Sequence[Token] = field(default=(), repr=False, compare=False)

    @property
    def parameterized(self) -> bool:
        return self.explicit or self.param_count > 0

    @cached_property
    def literal_text(self) -> str:
        """The statement with its literals in place, in the canonical
        spelling of :func:`normalize_statement` (the per-literal cache
        text); ``text`` itself when nothing was lifted.  Rendered on first
        read: a shape-cache hit never needs it."""
        if self.explicit or not self.param_count:
            return self.text
        return _render(self.tokens)


def _render(tokens: Sequence[Token]) -> str:
    """One canonical spelling of a token stream."""
    parts: List[str] = []
    for kind, value, _ in tokens:
        if kind == "eof":
            break
        if kind == "string":
            parts.append("'" + value.replace("'", "''") + "'")
        elif kind == "param":
            parts.append("?" if value == "?" else ":" + value)
        else:
            parts.append(value)
    return " ".join(parts)


def normalize_statement(sql: str) -> str:
    """Whitespace/keyword-case/comment-insensitive canonical spelling.

    Falls back to whitespace collapsing when the text does not lex -- the
    parser will produce the real typed error downstream, and an unlexable
    statement still deserves a stable cache key.
    """
    try:
        return _render(tokenize(sql))
    except SqlLexError:
        return " ".join(sql.split())


def _explicit_shape(tokens: Sequence[Token]) -> StatementShape:
    names: List[str] = []
    positional = 0
    for kind, value, _ in tokens:
        if kind != "param":
            continue
        if value == "?":
            positional += 1
        elif value not in names:
            names.append(value)
    count = len(names) if names else positional
    return StatementShape(
        text=_render(tokens),
        values=(),
        explicit=True,
        param_count=count,
        param_names=tuple(names),
    )


def _is_unary_minus(prev: Optional[Token]) -> bool:
    """Is a ``-`` at this position a sign rather than subtraction?"""
    if prev is None:
        return True
    kind, value, _ = prev
    if kind in ("number", "string", "ident", "param"):
        return False
    if kind == "symbol":
        return value != ")"
    if kind == "keyword":
        return value not in _BINARY_MINUS_AFTER_KW
    return True


def statement_shape(sql: str) -> StatementShape:
    """The statement's shape: canonical text with eligible literals lifted.

    Returns an un-parameterized shape (``values=()``, ``param_count=0``)
    when nothing lifts or the text does not lex.
    """
    try:
        tokens = tokenize(sql)
    except SqlLexError:
        return StatementShape(text=" ".join(sql.split()))

    out: List[str] = []
    values: List[object] = []
    prev: Optional[Token] = None
    paren_depth = 0
    in_list_depths: List[int] = []  # IN-list paren depths currently open
    in_by_list = False  # inside a GROUP BY / ORDER BY key list
    i = 0
    n = len(tokens) - 1  # the last token is eof
    while i < n:
        token = tokens[i]
        kind, value, _ = token
        if kind == "symbol":
            if value == "(":
                paren_depth += 1
                # ``IN (`` opens a constant list unless a subselect follows.
                if (
                    prev is not None
                    and is_kw(prev, "in")
                    and not is_kw(tokens[i + 1], "select")
                ):
                    in_list_depths.append(paren_depth)
            elif value == ")":
                if in_list_depths and in_list_depths[-1] == paren_depth:
                    in_list_depths.pop()
                paren_depth -= 1
        elif kind == "keyword":
            if value == "by":
                in_by_list = True
            elif value in ("having", "limit", "where"):
                in_by_list = False
        elif kind == "param":
            return _explicit_shape(tokens)

        liftable = (
            not in_list_depths
            and not in_by_list
            and not (
                prev is not None
                and prev[KIND] == "keyword"
                and prev[VALUE] in _SKIP_AFTER_KW
            )
        )
        if liftable and kind in ("number", "string"):
            values.append(_literal_value(token))
            out.append("?")
            prev = token
            i += 1
            continue
        if (
            liftable
            and is_sym(token, "-")
            and tokens[i + 1][KIND] == "number"
            and _is_unary_minus(prev)
        ):
            values.append(-_literal_value(tokens[i + 1]))
            out.append("?")
            prev = tokens[i + 1]
            i += 2
            continue

        if kind == "string":
            out.append("'" + value.replace("'", "''") + "'")
        else:
            out.append(value)
        prev = token
        i += 1

    return StatementShape(
        text=" ".join(out),
        values=tuple(values),
        explicit=False,
        param_count=len(values),
        param_names=(),
        tokens=tokens,
    )


def _literal_value(token: Token) -> object:
    kind, value, _ = token
    if kind == "string":
        return value
    return float(value) if "." in value else int(value)
