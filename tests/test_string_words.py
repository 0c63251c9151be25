"""Typed strings as integer words.

Storage pads a typed (``S{w}``) column to a word width -- 1, 2, 4 or a
multiple of 8 bytes -- so every batch is also an array of unsigned integer
words, and equality, ``IN``, prefix ``LIKE`` and string group keys run on
those words.  Here:

* a Hypothesis property that those kernels answer as ``str`` values do:
  values of 0-20 characters sharing 8-byte prefixes or prefixes of each
  other; scalars longer than the width, empty, non-ASCII or holding a NUL;
  batch against batch; a non-contiguous batch; group ids and the merge's
  key order at several batch sizes;
* the word-width invariant: every typed column of the TPC-H database and
  every ``S`` batch a served mix round hands a kernel;
* a parity table of string edge cases across the vector and scalar
  lowerings, push and Volcano.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import INT, STRING, Catalog
from repro.catalog.schema import schema
from repro.compiler import runtime as rt
from repro.compiler import vec
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.engine import execute_push, execute_volcano
from repro.serve import QueryService, ServiceConfig, ServiceRequest
from repro.session import Session
from repro.sql import sql_to_plan
from repro.storage import Database
from repro.storage.buffer import typed_strings
from repro.tpch.sql_queries import SQL_QUERIES
from tests.conftest import TINY_SCALE, normalize

if not rt.have_numpy():
    pytest.skip("typed strings need NumPy", allow_module_level=True)

import numpy as np  # noqa: E402


def _word_width(width: int) -> bool:
    return width in (1, 2, 4) or width % 8 == 0


def _typed(values):
    array = typed_strings(values)
    assert array is not None and _word_width(array.dtype.itemsize)
    return array


# -- the kernels against str semantics ------------------------------------------------

#: Values share whole 8-byte words, and short ones are prefixes of long ones.
BASES = ["", "abcdefgh", "abcdefghabcdefgh"]


def values_of(max_len: int):
    value = st.builds(
        lambda base, tail: (base + tail)[:max_len],
        st.sampled_from(BASES),
        st.text(alphabet="ab ", max_size=12),
    )
    return st.lists(value, min_size=1, max_size=40)


#: Scalars a batch may hold, longer than any width here, empty, and ones no
#: typed value can equal (non-ASCII, a NUL).
SCALARS = st.one_of(
    st.builds(lambda b, t: b + t, st.sampled_from(BASES), st.text(alphabet="ab ", max_size=6)),
    st.text(alphabet="ab", min_size=25, max_size=30),
    st.just(""),
    st.sampled_from(["é", "abcdefgé", "a\0", "abcdefgh\0", "\0"]),
)

MAX_LENS = st.sampled_from([1, 2, 4, 8, 20])


def _layouts(batch):
    """The batch, and the same values as a non-contiguous view."""
    strided = np.repeat(batch, 2)[::2]
    assert len(batch) < 2 or not strided.flags.c_contiguous
    return [batch, strided]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), scalar=SCALARS, other=SCALARS, negate=st.booleans())
def test_equality_in_and_prefix_like_match_str(data, scalar, other, negate):
    values = data.draw(values_of(data.draw(MAX_LENS)))
    for batch in _layouts(_typed(values)):
        assert rt.v_tolist(rt.v_eq(batch, scalar)) == [v == scalar for v in values]
        assert rt.v_tolist(rt.v_eq(scalar, batch)) == [v == scalar for v in values]
        assert rt.v_tolist(rt.v_ne(batch, scalar)) == [v != scalar for v in values]
        assert rt.v_tolist(rt.v_ne(scalar, batch)) == [v != scalar for v in values]
        # IN stages as ORed equalities
        hit = rt.v_or(rt.v_eq(batch, scalar), rt.v_eq(batch, other))
        assert rt.v_tolist(hit) == [v in (scalar, other) for v in values]
        # prefix and exact LIKE shapes (the alphabet holds no wildcard)
        for pattern, test in ((scalar + "%", str.startswith), (scalar, str.__eq__)):
            if "\0" in pattern:
                continue  # NumPy's strings cannot hold it; the generic matcher runs
            got = rt.v_tolist(rt.v_like(batch, pattern, negate))
            assert got == [test(v, scalar) != negate for v in values], pattern


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batch_against_batch_matches_str(data):
    values = data.draw(values_of(data.draw(MAX_LENS)))
    others = data.draw(st.permutations(values))
    cut = data.draw(st.integers(0, 9))
    batch = _typed(values)
    same = _typed(others)  # the same longest value: the same dtype
    assert same.dtype == batch.dtype
    narrow = _typed([v[:cut] for v in others])  # another width
    for a in _layouts(batch):
        for b, expected in ((same, others), (narrow, [v[:cut] for v in others])):
            for b_ in _layouts(b):
                got = rt.v_tolist(rt.v_eq(a, b_))
                assert got == [x == y for x, y in zip(values, expected)]
                got = rt.v_tolist(rt.v_ne(b_, a))
                assert got == [x != y for x, y in zip(values, expected)]


def _chunks(values: list, rows: int):
    return [values[i : i + rows] for i in range(0, len(values), rows)]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("batch_rows", [1, 5, 8192, vec.BATCH_ROWS])
def test_group_ids_and_merge_order_match_str(batch_rows, data):
    """Groups by a string key (and a flag beside it) over batches of
    ``batch_rows``: the same groups as ``str`` values, and -- keys of at
    most 8 bytes -- merged in ascending key order."""
    values = data.draw(values_of(data.draw(MAX_LENS)))
    flags = data.draw(st.lists(st.sampled_from("AFNR"), min_size=len(values), max_size=len(values)))
    width = _typed(values).dtype.itemsize
    # one key
    state = rt.group_state(1, 1)
    for chunk in _chunks(values, batch_rows):
        ids = rt.v_group_ids(state, len(chunk), _typed(chunk))
        rt.v_agg_count(state, 0, ids)
    ngroups, keys, counts = rt.group_merge(state)
    assert dict(zip(keys, counts)) == Counter(values) and ngroups == len(keys)
    if width <= 8:
        assert keys == sorted(keys)
    # two keys: a one-byte flag first
    state = rt.group_state(2, 1)
    for lo in range(0, len(values), batch_rows):
        f, v = flags[lo : lo + batch_rows], values[lo : lo + batch_rows]
        ids = rt.v_group_ids(state, len(v), _typed(f), _typed(v))
        rt.v_agg_count(state, 0, ids)
    ngroups, fkeys, vkeys, counts = rt.group_merge(state)
    pairs = list(zip(fkeys, vkeys))
    assert dict(zip(pairs, counts)) == Counter(zip(flags, values))
    if width <= 8:
        assert pairs == sorted(pairs)
    # the stateless factorization
    codes, n, group_keys = rt.v_group(len(values), _typed(values))
    codes, group_keys = rt.v_tolist(codes), rt.v_tolist(group_keys)
    assert n == len(set(values)) and [group_keys[c] for c in codes] == values


# -- the word-width invariant -----------------------------------------------------------


def test_every_tpch_string_column_has_a_word_width(tpch_db):
    for table in tpch_db.table_names():
        for c in tpch_db.table(table).schema.columns:
            array = tpch_db.column_vec(table, c.name)
            if array.dtype.kind == "S":
                assert _word_width(array.dtype.itemsize), (table, c.name, array.dtype)


def test_served_mix_hands_kernels_word_width_batches(tpch_db, monkeypatch):
    """Every ``S`` batch a served mix round passes to an ``rt`` kernel --
    columns, gathers, ``SUBSTRING`` outputs, merged keys -- has a word
    width; the round uses the word kernels."""
    seen: list = []

    def wrap(name, fn):
        def kernel(*args):
            for a in args:
                if isinstance(a, np.ndarray) and a.dtype.kind == "S":
                    seen.append((name, a.dtype.itemsize))
            return fn(*args)

        return kernel

    for name in dir(rt):
        if name.startswith(("v_", "group_", "join_")) and callable(getattr(rt, name)):
            monkeypatch.setattr(rt, name, wrap(name, getattr(rt, name)))
    service = QueryService(Session(tpch_db), ServiceConfig(workers=1, query_scale=TINY_SCALE))
    try:
        for n in range(1, 23):
            doc = {"sql": SQL_QUERIES[n]} if n in SQL_QUERIES else {"tpch": n}
            reply = service.submit(ServiceRequest(**doc))
            assert reply.ok and reply.engine == "compiled", (n, reply.error)
    finally:
        service.close()
    assert {"v_eq", "v_like", "v_group_ids", "v_substr"} <= {name for name, _ in seen}
    assert [(name, w) for name, w in seen if not _word_width(w)] == []


# -- four engines on string edge cases ---------------------------------------------------

#: ``s`` holds 0-20 characters (an ``S24`` column) with shared 8-byte
#: prefixes, a trailing space and wildcard characters; ``k`` has its width
#: and ``t`` (``S4``) a narrower one; ``f`` is a one-byte flag.
ROWS = [
    (1, "", "", "", "A"),
    (2, "a", "a", "a", "N"),
    (3, "ab ", "ab", "ab ", "R"),
    (4, "ab", "ab", "ab", "A"),
    (5, "abc", "abcdefghabcdefghabcd", "abc", "F"),
    (6, "abcdefgh", "abcdefgh", "abc", "N"),
    (7, "abcdefgh ", "abcdefgh", "", "A"),
    (8, "abcdefghi", "abcdefghi", "ab", "R"),
    (9, "abcdefghij", "abcdefghij", "b%c", "F"),
    (10, "abcdefghabcdefgh", "abcdefghabcdefgh", "a_c", "A"),
    (11, "abcdefghabcdefghXYZ", "abcdefghabcdefghXYZ", "a", "N"),
    (12, "CHINA", "CHINA", "CH", "R"),
    (13, "CHXNA", "CHINA", "CHX", "A"),
    (14, "b%c", "b%c", "b%c", "F"),
    (15, "a_c", "abc", "a_c", "N"),
    (16, "Customer#000000001", "Customer#000000002", "Cus", "A"),
    (17, "Customer#000000002", "Customer#000000002", "Cus", "R"),
    (18, "ab", "abcdefgh", "ab", "N"),
]

CASES = {
    "eq_empty": "select id from W where s = ''",
    "ne_empty": "select id from W where s <> ''",
    "eq_trailing_space": "select id from W where s = 'ab '",
    "eq_no_trailing_space": "select id from W where s = 'ab'",
    "eq_trailing_space_narrow": "select id from W where t = 'ab '",
    "eq_one_word": "select id from W where s = 'abcdefgh'",
    "eq_longer_than_width": "select id from W where t = 'abcdefgh'",
    "eq_non_ascii": "select id from W where s = 'café'",
    "ne_non_ascii": "select id from W where s <> 'café'",
    "in_non_ascii": "select id from W where s in ('café', 'abc', 'abcdefgh')",
    "in_shared_prefixes": "select id from W "
                          "where s in ('abcdefgh', 'abcdefghi', 'abcdefghabcdefgh')",
    "lt_name": "select id from W where s < 'abcdefgh'",
    "between_names": "select id from W where s between 'ab' and 'abcdefghi'",
    "like_prefix": "select id from W where s like 'abc%'",
    "like_prefix_one_word": "select id from W where s like 'abcdefgh%'",
    "like_prefix_two_words": "select id from W where s like 'abcdefghab%'",
    "like_prefix_too_long": "select id from W where t like 'abcde%'",
    "like_prefix_non_ascii": "select id from W where s like 'é%'",
    "not_like_prefix": "select id from W where s not like 'ab%'",
    "like_suffix": "select id from W where s like '%gh'",
    "like_contains": "select id from W where s like '%def%'",
    "like_contains2": "select id from W where s like '%ab%gh%'",
    "like_any": "select id from W where s like '%'",
    "like_any2": "select id from W where s like '%%'",
    "like_exact": "select id from W where s like 'abc'",
    "like_underscore": "select id from W where s like 'C_INA'",
    "like_inner_percent": "select id from W where s like 'a%h'",
    "eq_column_same_width": "select id from W where s = k",
    "eq_column_mixed_widths": "select id from W where s = t",
    "ne_column_mixed_widths": "select id from W where s <> t",
    "substring_filter": "select id from W where substring(s from 2 for 2) = 'bc'",
    "substring_key": "select substring(s from 1 for 3) as p, count(*) as c from W "
                     "group by substring(s from 1 for 3)",
    "flag_groups": "select f, count(*) as c from W group by f",
    "flag_and_short_groups": "select f, t, count(*) as c from W group by f, t",
    "wide_groups": "select s, count(*) as c from W group by s",
    "short_groups": "select t, sum(id) as c from W group by t",
    "min_max": "select min(s) as lo, max(t) as hi from W",
    "grouped_min_max": "select f, min(s) as lo, max(k) as hi from W group by f",
}


def _words_db() -> Database:
    db = Database(Catalog())
    db.add_rows(
        schema("W", ("id", INT), ("s", STRING), ("k", STRING), ("t", STRING), ("f", STRING)),
        ROWS,
    )
    return db


def test_the_parity_table_covers_its_layouts():
    db = _words_db()
    dtypes = {c: str(db.column_vec("W", c).dtype) for c in "sktf"}
    assert dtypes == {"s": "|S24", "k": "|S24", "t": "|S4", "f": "|S1"}
    assert len(CASES) == 38


@pytest.mark.parametrize("batch_rows", [5, vec.BATCH_ROWS])
@pytest.mark.parametrize("case", sorted(CASES))
def test_string_edge_cases_agree_on_four_engines(case, batch_rows, monkeypatch):
    monkeypatch.setattr(vec, "BATCH_ROWS", batch_rows)
    db = _words_db()
    plan = sql_to_plan(CASES[case], db)
    expected = normalize(execute_volcano(plan, db, db.catalog))
    assert normalize(execute_push(plan, db, db.catalog)) == expected
    for codegen in ("scalar", "vector"):
        compiled = LB2Compiler(db.catalog, db, Config(codegen=codegen)).compile(plan)
        assert normalize(compiled.run(db)) == expected, codegen
