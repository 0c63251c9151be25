"""Strings in batches: the typed (``S{w}``) column layout and its kernels.

* the storage rule -- which string columns get the fixed-width layout --
  and the array dtypes the TPC-H tables load with;
* Hypothesis properties of the kernels over typed batches against the same
  operations on ``str`` values: grouping on single and composite keys of
  several widths, comparisons and ``IN`` against ``str`` parameters, and
  every ``LIKE`` shape -- with no ``bytes`` in any result;
* ``LIKE``'s generic matcher on values with newlines, in every engine;
* the served q1 build never hands a kernel an object batch.
"""

from __future__ import annotations

import contextlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import INT, STRING, Catalog
from repro.catalog.schema import Column, schema
from repro.compiler import runtime as rt
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.engine import execute_push, execute_volcano
from repro.plan import Like, Scan, Select, col
from repro.resilience import Budget, ResilientExecutor
from repro.session import Session
from repro.storage import Database
from repro.storage.buffer import typed_strings
from repro.tpch.sql_queries import SQL_QUERIES

if not rt.have_numpy():
    pytest.skip("the typed string layout needs NumPy", allow_module_level=True)

import numpy as np  # noqa: E402


def _typed(values):
    array = typed_strings(values)
    assert array is not None and array.dtype.kind == "S"
    return array


def _no_bytes(values):
    return not any(isinstance(v, (bytes, np.bytes_)) for v in values)


# -- the storage rule -----------------------------------------------------------


def test_only_ascii_text_without_nul_gets_the_typed_layout():
    db = Database(Catalog())
    db.add_rows(
        schema(
            "T", ("ascii", STRING), ("accent", STRING), ("nul", STRING),
            Column("null", STRING, nullable=True), ("empty", STRING), ("n", INT),
        ),
        [("ab ", "café", "a\0b", "x", "", 1), ("c", "d", "e", None, "", 2)],
    )
    # the longest value (3 bytes) padded to a word width; values unchanged
    assert db.column_vec("T", "ascii").dtype == np.dtype("S4")
    assert db.column_vec("T", "ascii").tolist() == [b"ab ", b"c"]  # spaces kept
    assert rt.v_tolist(db.column_vec("T", "ascii")) == db.column("T", "ascii")
    assert db.column_vec("T", "empty").dtype == np.dtype("S1")
    for name in ("accent", "nul", "null"):
        array = db.column_vec("T", name)
        assert array.dtype == object, name
        assert array.tolist() == db.column("T", name)
    # one array per column: the typed array replaces the object one
    assert set(db.table("T")._arrays) == {"ascii", "accent", "nul", "null", "empty", "n"}


#: ``column_vec`` dtypes of every TPC-H table at the test scale, in schema
#: order: every string column is typed, with its longest value's width
#: rounded up to a word width (1, 2, 4 or a multiple of 8 bytes).
TPCH_DTYPES = {
    "customer": "int64 |S24 |S40 int64 |S16 float64 |S16 |S72",
    "lineitem": "int64 int64 int64 int64 float64 float64 float64 float64 "
                "|S1 |S1 int64 int64 int64 |S24 |S8 |S64",
    "nation": "int64 |S16 int64 |S88",
    "orders": "int64 int64 |S1 float64 int64 |S16 |S16 int64 |S88",
    "part": "int64 |S48 |S16 |S8 |S32 int64 |S16 float64 |S56",
    "partsupp": "int64 int64 int64 float64 |S112",
    "region": "int64 |S16 |S64",
    "supplier": "int64 |S24 |S40 int64 |S16 float64 |S72",
}


def test_tpch_column_arrays_are_typed(tpch_db):
    got = {
        table: " ".join(
            str(tpch_db.column_vec(table, c.name).dtype)
            for c in tpch_db.table(table).schema.columns
        )
        for table in tpch_db.table_names()
    }
    assert got == TPCH_DTYPES
    # the padding changes no value
    for table in tpch_db.table_names():
        for c in tpch_db.table(table).schema.columns:
            array = tpch_db.column_vec(table, c.name)
            if array.dtype.kind == "S":
                assert rt.v_tolist(array) == tpch_db.column(table, c.name), (table, c.name)


# -- kernel properties ------------------------------------------------------------

#: Group-key widths: one word, just under / at / over one 8-byte word, and
#: several words.
WIDTHS = [1, 7, 8, 9, 25]


@st.composite
def string_column(draw, width=None, size=None):
    """Strings over a tiny alphabet (duplicates, trailing spaces, empty
    values), at least one of them exactly ``width`` long."""
    width = width if width is not None else draw(st.sampled_from(WIDTHS))
    text = st.text(alphabet="ab ", max_size=width)
    n = size if size is not None else draw(st.integers(1, 30))
    values = draw(st.lists(text, min_size=n - 1, max_size=n - 1))
    widest = draw(st.text(alphabet="ab ", min_size=width, max_size=width))
    values.insert(draw(st.integers(0, n - 1)), widest)
    return values


@contextlib.contextmanager
def string_coding(path):
    """Pick how typed string keys are coded: hashed in a dict (short
    batches), packed into words, or packed with a hash multiplier of 0 --
    which folds a wide value to its last word, so values differing only
    earlier collide and take the exact fallback."""
    saved = rt._DICT_CODED_ROWS, rt._WORD_MIX
    if path != "dict":
        rt._DICT_CODED_ROWS = 0
    if path == "colliding":
        rt._WORD_MIX = np.uint64(0)
    try:
        yield
    finally:
        rt._DICT_CODED_ROWS, rt._WORD_MIX = saved


@st.composite
def group_case(draw):
    nkeys = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    columns = [draw(string_column(size=n)) for _ in range(nkeys)]
    with_int = draw(st.booleans())
    ints = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)) if with_int else None
    return columns, ints


@settings(max_examples=150, deadline=None)
@given(case=group_case())
@pytest.mark.parametrize("path", ["dict", "packed", "colliding"])
def test_v_group_on_typed_keys_matches_str_grouping(path, case):
    columns, ints = case
    n = len(columns[0])
    keys = [_typed(c) for c in columns] + ([np.asarray(ints)] if ints else [])
    rows = list(zip(*columns, *([ints] if ints else [])))
    with string_coding(path):
        grouped = rt.v_group(n, *keys)
    codes, ngroups = rt.v_tolist(grouped[0]), grouped[1]
    key_lists = [rt.v_tolist(k) for k in grouped[2:]]
    assert ngroups == len(set(rows))
    for i, row in enumerate(rows):
        assert tuple(keys_[codes[i]] for keys_ in key_lists) == row
    assert all(_no_bytes(keys_) for keys_ in key_lists)


@settings(max_examples=60, deadline=None)
@given(chunks=st.lists(string_column(width=9), min_size=1, max_size=4))
def test_group_merge_hands_rows_str_keys(chunks):
    """Keys kept per batch merge into plain ``str`` group keys for a row
    loop, and stay typed for a batch consumer."""
    expected: dict = {}
    for value in (v for values in chunks for v in values):
        expected[value] = expected.get(value, 0) + 1
    for batch in (False, True):
        state = rt.group_state(1, 1)
        for values in chunks:
            ids = rt.v_group_ids(state, len(values), _typed(values))
            rt.v_agg_count(state, 0, ids)
        ngroups, keys, counts = rt.group_merge(state, batch)
        if batch:
            assert keys.dtype.kind == "S"
            keys, counts = rt.v_tolist(keys), rt.v_tolist(counts)
        assert _no_bytes(keys) and dict(zip(keys, counts)) == expected


#: ``str`` parameters: in the batch's alphabet, absent from it, and ones
#: no typed value can equal (non-ASCII, a NUL).
PARAMS = st.one_of(
    st.text(alphabet="ab ", max_size=10), st.sampled_from(["é", "a\0", "ab\0", "\0"])
)
COMPARISONS = {
    "v_eq": lambda x, y: x == y,
    "v_ne": lambda x, y: x != y,
    "v_lt": lambda x, y: x < y,
    "v_le": lambda x, y: x <= y,
    "v_gt": lambda x, y: x > y,
    "v_ge": lambda x, y: x >= y,
}


@settings(max_examples=150, deadline=None)
@given(values=string_column(), param=PARAMS, other=PARAMS)
def test_comparisons_and_in_against_str_params(values, param, other):
    batch = _typed(values)
    for name, op in COMPARISONS.items():
        kernel = getattr(rt, name)
        assert rt.v_tolist(kernel(batch, param)) == [op(v, param) for v in values], name
        assert rt.v_tolist(kernel(param, batch)) == [op(param, v) for v in values], name
    # IN (param, other) stages as an OR of equalities
    hit = rt.v_or(rt.v_eq(batch, param), rt.v_eq(batch, other))
    assert rt.v_tolist(hit) == [v in (param, other) for v in values]


@settings(max_examples=100, deadline=None)
@given(values=string_column(), others=st.lists(PARAMS, min_size=1, max_size=30))
def test_typed_batch_against_an_object_batch(values, others):
    """A typed column meeting text it cannot hold (an object batch of
    ``str``) compares as ``str`` values."""
    others = (others * len(values))[: len(values)]
    other = np.asarray(others, dtype=object)
    batch = _typed(values)
    for name, op in COMPARISONS.items():
        got = rt.v_tolist(getattr(rt, name)(batch, other))
        assert got == [op(x, y) for x, y in zip(values, others)], name


def _like_reference(value: str, pattern: str) -> bool:
    regex = "".join(".*" if c == "%" else "." if c == "_" else re.escape(c) for c in pattern)
    return re.fullmatch(regex, value, re.DOTALL) is not None


#: Patterns over the values' alphabet plus both wildcards: every shape
#: ``_like_shape`` classifies (exact, prefix, suffix, contains, %a%b%,
#: %, %%, and ``_`` or inner ``%`` for the generic matcher).
PATTERNS = st.one_of(
    st.text(alphabet="ab%_\n", max_size=6),
    st.sampled_from(["%", "%%", "a_", "%a%b%", "%ab%", "b%", "%a", "a%b", "é%", "%\0%"]),
)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.text(alphabet="ab \n", max_size=8), min_size=1, max_size=20),
    pattern=PATTERNS,
    negate=st.booleans(),
)
def test_like_on_every_batch_layout_matches_the_reference(values, pattern, negate):
    expected = [_like_reference(v, pattern) != negate for v in values]
    for batch in (_typed(values), np.asarray(values, dtype=object), np.asarray(values)):
        got = rt.v_tolist(rt.v_like(batch, pattern, negate))
        assert got == expected, (batch.dtype, pattern)


@settings(max_examples=60, deadline=None)
@given(values=string_column(), valid=st.lists(st.booleans(), min_size=30, max_size=30))
def test_tolist_decodes_and_null_extends(values, valid):
    batch = _typed(values)
    assert rt.v_tolist(batch) == values
    mask = np.asarray(valid[: len(values)])
    assert rt.v_tolist(batch, mask) == [v if ok else None for v, ok in zip(values, mask)]
    assert rt.v_min(batch, len(values)) == min(values)
    assert rt.v_max(batch, len(values)) == max(values)


# -- LIKE's generic matcher on newlines ----------------------------------------------


def test_generic_like_matches_whole_values_across_newlines():
    """``%`` and ``_`` match newlines and the whole value must match: an
    anchored ``re.match`` without DOTALL let ``'abc\\n' LIKE 'a%c'``
    through (``$`` matches before a final newline) and rejected
    ``'a\\nb' LIKE 'a_b'`` -- in every engine alike."""
    db = Database(Catalog())
    db.add_rows(
        schema("T", ("id", INT), ("s", STRING)),
        [(1, "abc\n"), (2, "a\nb"), (3, "abc"), (4, "a\n\nc")],
    )
    cases = {"a%c": [(3,), (4,)], "a_b": [(2,)], "a%": [(1,), (2,), (3,), (4,)]}
    for pattern, expected in cases.items():
        plan = Select(Scan("T"), Like(col("s"), pattern))
        keep = lambda rows: sorted((row[0],) for row in rows)  # noqa: E731
        assert keep(execute_volcano(plan, db, db.catalog)) == expected, pattern
        assert keep(execute_push(plan, db, db.catalog)) == expected, pattern
        for codegen in ("scalar", "vector"):
            compiled = LB2Compiler(db.catalog, db, Config(codegen=codegen)).compile(plan)
            assert keep(compiled.run(db)) == expected, (pattern, codegen)


# -- the served q1 build ----------------------------------------------------------------


def test_served_q1_runs_no_kernel_on_an_object_batch(tpch_db):
    """q1 groups by two one-character flags: served, every kernel call
    sees typed batches only, and the rows carry ``str`` keys."""
    executor = ResilientExecutor(Session(tpch_db), budget=Budget(wall_clock_seconds=60))
    calls: list = []

    def observe(name, nrows, args):
        calls.append((name, [a.dtype for a in args if isinstance(a, np.ndarray)]))

    previous = rt.set_kernel_observer(observe)
    try:
        result = executor.query(SQL_QUERIES[1])
    finally:
        rt.set_kernel_observer(previous)
    assert result.report.engine == "compiled"
    assert {name for name, _ in calls} >= {"v_group_ids", "v_agg_sum"}
    assert [(name, d) for name, dtypes in calls for d in dtypes if d == object] == []
    assert result.rows and all(
        isinstance(row[0], str) and isinstance(row[1], str) for row in result.rows
    )
