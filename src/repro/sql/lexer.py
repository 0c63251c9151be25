"""A regex-driven SQL tokenizer.

One compiled pattern scans the text: each match is the whitespace and
comments before a token plus the token itself, and the name of the group
that matched is the token's kind.  A token is a plain ``(kind, value,
position)`` tuple -- every served request lexes its statement once, so a
token costs one tuple, not an object.

Character classes follow ``str``: whitespace is ``str.isspace``, a word
starts with a letter or ``_`` and continues with ``str.isalnum`` or ``_``,
and number digits are decimal digits.  A character that is numeric but not
a decimal digit (``²``, ``½``) cannot start a token and is an unexpected
character.
"""

from __future__ import annotations

import re
from typing import Tuple

from repro.errors import ReproError

KEYWORDS = frozenset({
    "select", "distinct", "from", "where", "group", "by", "having", "order",
    "limit", "as", "and", "or", "not", "like", "in", "between", "case", "when",
    "then", "else", "end", "join", "inner", "on", "asc", "desc", "date", "exists",
    "interval", "year", "month", "day", "extract", "substring", "for", "is",
    "null", "count", "sum", "avg", "min", "max", "true", "false",
})

#: Symbols, longest first where one is a prefix of another.
SYMBOLS = ("<>", "<=", ">=", "!=", "||", "(", ")", ",", "+", "-", "*", "/",
           "=", "<", ">", ".", ";")

#: One lexical token: ``(kind, value, position)``.  ``kind`` is one of
#: ``keyword``, ``ident``, ``number``, ``string``, ``symbol``, ``param``,
#: ``eof``; keywords are lower-cased, identifiers keep case, a string's
#: value is unquoted.  A ``param`` token is a statement placeholder:
#: ``value`` is ``"?"`` for a positional placeholder and the bare name for
#: a ``:name`` placeholder.
Token = Tuple[str, str, int]
KIND, VALUE, POSITION = 0, 1, 2


class SqlLexError(ReproError):
    """Raised on unrecognizable input."""

    code = "E_SQL_LEX"
    phase = "plan"


def is_kw(token: Token, *names: str) -> bool:
    return token[0] == "keyword" and token[1] in names


def is_sym(token: Token, *symbols: str) -> bool:
    return token[0] == "symbol" and token[1] in symbols


# A string closes at the first quote not followed by another: ``''`` inside
# it is an escaped quote.  ``bad`` catches a quote that opens no closed
# string and any character no other group takes; ``eof`` matches at the
# end, so the leading skip never has to backtrack.  Words come first (the
# commonest token); a number must precede the ``.`` symbol.
_SCAN = re.compile(
    r"\s*(?:--[^\n]*\n?\s*)*"
    r"(?:(?P<word>[^\W\d]\w*)"
    r"|(?P<number>\d+(?:\.\d+)?|\.\d+)"
    r"|(?P<symbol>" + "|".join(re.escape(s) for s in SYMBOLS) + r")"
    r"|(?P<string>'[^']*(?:''[^']*)*'(?!'))"
    r"|(?P<param>\?|:\w*)"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))",
    re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; always ends with an ``eof`` token."""
    tokens: list[Token] = []
    append = tokens.append
    for m in _SCAN.finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        position = m.start(kind)
        if kind == "word":
            lowered = value.lower()
            if lowered in KEYWORDS:
                append(("keyword", lowered, position))
                continue
            if not value.isascii() and not (value[0].isalpha() or value[0] == "_"):
                _unexpected(value[0], position)
            kind = "ident"
        elif kind == "string":
            value = value[1:-1].replace("''", "'")
        elif kind == "param":
            if value != "?":
                value = value[1:]
                if not value or value[0].isdigit():
                    raise SqlLexError(
                        f"expected a parameter name after ':' at position {position}"
                    )
        elif kind == "eof":
            append(("eof", "", position))
            break
        elif kind == "bad":
            if value == "'":
                raise SqlLexError(f"unterminated string literal at {position}")
            _unexpected(value, position)
        append((kind, value, position))
    return tokens


def _unexpected(ch: str, position: int) -> None:
    raise SqlLexError(f"unexpected character {ch!r} at position {position}")
