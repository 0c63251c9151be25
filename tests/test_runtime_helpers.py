"""Tests for the generated-code runtime helpers (rt.*)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import runtime as rt


# -- sort_rows ---------------------------------------------------------------------


def test_sort_rows_all_ascending_fast_path():
    rows = [(3, "c"), (1, "a"), (2, "b")]
    rt.sort_rows(rows, ((0, True),))
    assert rows == [(1, "a"), (2, "b"), (3, "c")]


def test_sort_rows_mixed_directions():
    rows = [(1, "x"), (1, "a"), (2, "m"), (2, "z")]
    rt.sort_rows(rows, ((0, True), (1, False)))
    assert rows == [(1, "x"), (1, "a"), (2, "z"), (2, "m")]


def test_sort_rows_descending_strings():
    rows = [("a",), ("c",), ("b",)]
    rt.sort_rows(rows, ((0, False),))
    assert rows == [("c",), ("b",), ("a",)]


def test_sort_rows_stability_on_ties():
    rows = [(1, "first"), (1, "second"), (0, "zero")]
    rt.sort_rows(rows, ((0, True),))
    assert rows == [(0, "zero"), (1, "first"), (1, "second")]


@given(
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=40),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_sort_rows_matches_python_sorted(rows, asc0, asc1):
    mine = list(rows)
    rt.sort_rows(mine, ((0, asc0), (1, asc1)))
    expected = sorted(
        rows, key=lambda r: (r[0] if asc0 else -r[0], r[1] if asc1 else -r[1])
    )
    assert mine == expected


def _comparator_sorted(items: list, spec, value) -> list:
    """The comparator the mixed-direction sorts used before they sorted by
    stable passes: the oracle for the properties below."""
    import functools

    def compare(a, b) -> int:
        for i, asc in spec:
            av, bv = value(a, i), value(b, i)
            if av == bv:
                continue
            if av < bv:
                return -1 if asc else 1
            return 1 if asc else -1
        return 0

    return sorted(items, key=functools.cmp_to_key(compare))


#: Keys of one column share a kind: ints and floats mix, strings don't.
_KEYS = st.one_of(
    st.lists(st.one_of(st.integers(-3, 3), st.sampled_from([0.5, -1.5, 2.0]))),
    st.lists(st.sampled_from(["", "a", "ab", "b", "B"])),
)


@st.composite
def _table(draw):
    """Rows (each ending in its insertion index, to expose tie order) and
    a spec over their key columns that mixes directions."""
    width = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 30))
    columns = []
    for _ in range(width):
        values = draw(_KEYS.filter(bool)) if nrows else []
        columns.append([values[j % len(values)] for j in range(nrows)])
        draw(st.randoms()).shuffle(columns[-1])
    rows = [tuple(c[r] for c in columns) + (r,) for r in range(nrows)]
    picked = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=4))
    spec = [(i, draw(st.booleans())) for i in picked]
    if all(asc for _, asc in spec):
        spec[0] = (spec[0][0], False)
    return rows, tuple(spec)


@given(_table())
@settings(max_examples=200, deadline=None)
def test_mixed_direction_sorts_match_the_comparator(table):
    rows, spec = table
    expected = _comparator_sorted(rows, spec, lambda row, i: row[i])
    assert rt.sort_rows(list(rows), spec) == expected
    columns = [list(c) for c in zip(*rows)] if rows else [[] for _ in range(5)]
    order = rt.argsort_columns(columns, spec)
    assert [rows[r] for r in order] == expected
    for n in {0, 1, 3, len(rows), len(rows) + 2}:
        assert rt.topk_rows(list(rows), spec, n) == expected[:n]


def test_a_null_in_a_later_key_raises_where_the_comparator_decided_earlier():
    """SQL NULL ordering is not implemented: every pass compares its whole
    column, so a None in a tie-breaking key raises even where the first
    key already decides."""
    rows = [(1, None), (2, 5)]
    assert _comparator_sorted(rows, ((0, False), (1, True)), lambda r, i: r[i])
    with pytest.raises(TypeError):
        rt.sort_rows(list(rows), ((0, False), (1, True)))


# -- like ------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,pattern,expected",
    [
        ("hello", "hello", True),
        ("hello", "h%", True),
        ("hello", "%o", True),
        ("hello", "%ell%", True),
        ("hello", "h%o", True),
        ("hello", "h%x", False),
        ("hello", "_ello", True),
        ("hello", "_____", True),
        ("hello", "____", False),
        ("a.b", "a.b", True),
        ("axb", "a.b", False),  # dot is literal, not regex
        ("greenway", "%green%", True),
        ("special packages requests", "%special%requests%", True),
        ("requests special", "%special%requests%", False),
        ("", "%", True),
        ("", "", True),
        ("x", "", False),
    ],
)
def test_like(value, pattern, expected):
    assert rt.like(value, pattern) is expected


def test_like_contains2():
    assert rt.like_contains2("special packages requests", "special", "requests")
    assert not rt.like_contains2("requests then special", "special", "requests")
    assert not rt.like_contains2("nothing here", "special", "requests")
    # non-overlap: the second match must start after the first ends
    assert not rt.like_contains2("abc", "ab", "bc")
    assert rt.like_contains2("abbc", "ab", "bc")


# -- misc ---------------------------------------------------------------------------------


def test_map_full_raises():
    with pytest.raises(RuntimeError, match="open_map_size"):
        rt.map_full()


def test_timed():
    result, seconds = rt.timed(lambda x: x * 2, 21)
    assert result == 42 and seconds >= 0.0
