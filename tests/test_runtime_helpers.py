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
