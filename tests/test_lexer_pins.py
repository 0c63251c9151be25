"""Token-stream pins: the lexer's output on every statement the perf ledger
sends, on the TPC-H SQL texts and on edge cases, plus the text and position
of every ``SqlLexError`` case.

``golden/lexer_tokens.json`` was captured from the character-loop lexer
that the regex scan replaced; a statement's pin is the sha256 (first 16 hex
digits) of its ``[[kind, value, position], ...]`` stream as compact JSON.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.sql.lexer import SqlLexError, tokenize
from repro.tpch.sql_queries import SQL_QUERIES

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "tests" / "golden" / "lexer_tokens.json").read_text())


def _literal(value: object) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _statements() -> dict:
    """Pin key -> text: the ledger's mix variants and every pooled point
    binding, then the TPC-H SQL texts."""
    ledger = json.loads((ROOT / "benchmarks" / "ledger" / "statements.json").read_text())
    texts = {}
    for entry in ledger["mix"]:
        for v, text in enumerate(entry.get("sql", [])):
            texts[f"ledger:{entry['key']}.v{v}"] = text
    for entry in ledger["point"]:
        for b, values in enumerate(entry["pool"]):
            text = entry["sql"].format(*(_literal(x) for x in values))
            texts[f"ledger:{entry['key']}.b{b}"] = text
    for number, text in SQL_QUERIES.items():
        texts[f"tpch:q{number}"] = text
    return texts


def _stream(text: str) -> list:
    return [list(token) for token in tokenize(text)]


def _digest(text: str) -> str:
    body = json.dumps(_stream(text), ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def test_statement_token_streams():
    texts = _statements()
    assert set(texts) == set(PINS["statements"])
    changed = [key for key, text in texts.items() if _digest(text) != PINS["statements"][key]]
    assert changed == []


@pytest.mark.parametrize("text,stream", PINS["edge"])
def test_edge_token_stream(text, stream):
    assert _stream(text) == stream


@pytest.mark.parametrize("text,message", PINS["errors"])
def test_lex_error_text_and_position(text, message):
    with pytest.raises(SqlLexError) as info:
        tokenize(text)
    assert str(info.value) == message
