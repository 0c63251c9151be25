"""Joins in batches: the join/key-set/count(distinct) kernels and their
lowering.

* kernel properties against dict-based references: match *order* as
  well as the match set (for outer probes, the unmatched probe rows in
  their places too), with duplicates on both sides, empty inputs, absent
  and negative keys, dense and sparse key domains, and composite keys
  whose packed span would overflow int64;
* ``v_group`` keeps distinct groups apart however many keys there are;
* every TPC-H plan with a join answers like the scalar lowering at any
  batch size -- in the same order where it has no Sort -- with the same
  per-operator row counts, and so do left outer joins over an empty build,
  an all-unmatched probe, duplicate build keys and build fields that are
  themselves NULL, feeding a batch count or (devectorized) a sum;
* an INT key that can hold None (from an outer join's null-extended
  side) keeps the scalar join, which answers the same rows, and the join
  index refuses a key that is not an integer or float array, or a probe
  key of the other kind than its build key, with a typed error;
* float keys code through the sorted codebook (``-0.0`` meets ``0.0``,
  duplicates keep build order, an empty build matches nothing), and a
  plan's INT = FLOAT join pair keeps the scalar lowering;
* the served builds of the join-heavy queries really lower their joins to
  batches, q2's float-keyed partsupp probe and all of q22 included.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.catalog import Catalog
from repro.compiler import runtime as rt
from repro.compiler import vec
from repro.compiler.driver import LB2Compiler
from repro.compiler.lb2 import Config
from repro.plan import col, count, count_col, lit, sum_
from repro.plan import physical as phys
from repro.plan.physical import PlanError
from repro.plan.expressions import ExtractYear, IsNotNull, Like, Not
from repro.resilience import Budget, ResilientExecutor
from repro.session import Session
from repro.sql import sql_to_plan
from repro.tpch import query_plan
from repro.tpch.sql_queries import SQL_QUERIES
from repro.storage import Database
from tests.conftest import TINY_SCALE, make_tiny_db, needs_numpy, normalize

pytestmark = needs_numpy

# -- kernel properties --------------------------------------------------------

#: Key domains: a span small next to the rows (direct tables), a wide one
#: (sorted lookups), and one whose composite span overflows int64.
DOMAINS = {
    "dense": st.integers(-8, 24),
    "sparse": st.integers(-(1 << 40), 1 << 40),
    "overflow": st.sampled_from([-(1 << 62), -7, 0, 5, 1 << 62]),
}


@st.composite
def join_case(draw):
    """Build keys, probe keys (some shared with the build, some absent),
    and how the build arrives: in batches (with their sizes) or by row."""
    nkeys = draw(st.integers(1, 3))
    domain = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    key = st.tuples(*[domain] * nkeys)
    build = draw(st.lists(key, max_size=30))
    probe_key = st.one_of(key, st.sampled_from(build)) if build else key
    probe = draw(st.lists(probe_key, max_size=30))
    cuts = draw(st.lists(st.integers(0, len(build)), max_size=4))
    batched = draw(st.booleans())
    return nkeys, build, probe, sorted(cuts), batched


def _batch(values):
    import numpy as np

    return np.asarray(values, dtype=np.int64)


def _columns(rows, nkeys):
    return [_batch([row[j] for row in rows]) for j in range(nkeys)]


def _finish(nkeys, build, cuts, batched, outer=False):
    """``rt.join_finish`` over ``build`` (payload: each row's position)."""
    if not batched:
        return rt.join_finish(
            [(*row, i) for i, row in enumerate(build)], nkeys, 1, False, outer
        )
    state = []
    for lo, hi in zip([0, *cuts], [*cuts, len(build)]):
        chunk = build[lo:hi]
        state.append((len(chunk), *_columns(chunk, nkeys), _batch(range(lo, hi))))
    return rt.join_finish(state, nkeys, 1, True, outer)


def _key(row, nkeys):
    return row if nkeys > 1 else row[0]


@settings(max_examples=150, deadline=None)
@given(case=join_case())
def test_join_probe_matches_a_dict_multimap_in_order(case):
    """Matches come in probe order, each probe row's in build-insertion
    order: exactly a scalar multimap's bucket walk."""
    nkeys, build, probe, cuts, batched = case
    table: dict = {}
    for i, row in enumerate(build):
        table.setdefault(_key(row, nkeys), []).append(i)
    expected = [
        (b, p) for p, row in enumerate(probe) for b in table.get(_key(row, nkeys), ())
    ]
    built = _finish(nkeys, build, cuts, batched)
    build_rows, probe_rows = rt.v_join_probe(built, len(probe), *_columns(probe, nkeys))
    pairs = list(zip(rt.v_tolist(build_rows), rt.v_tolist(probe_rows)))
    assert pairs == expected
    # the payload column gathers through the matches
    assert rt.v_tolist(rt.v_take(built[1], build_rows)) == [b for b, _ in expected]


@settings(max_examples=150, deadline=None)
@given(case=join_case())
def test_outer_probe_keeps_unmatched_rows_in_place(case):
    """A left outer join's probe: the inner matches, plus each probe row
    that matches nothing -- once, in probe order, with build row -1,
    whose payload gather lands on the placeholder row."""
    nkeys, build, probe, cuts, batched = case
    table: dict = {}
    for i, row in enumerate(build):
        table.setdefault(_key(row, nkeys), []).append(i)
    expected = [
        (b, p)
        for p, row in enumerate(probe)
        for b in table.get(_key(row, nkeys), [-1])
    ]
    built = _finish(nkeys, build, cuts, batched, outer=True)
    build_rows, probe_rows = rt.v_join_probe_outer(
        built, len(probe), *_columns(probe, nkeys)
    )
    pairs = list(zip(rt.v_tolist(build_rows), rt.v_tolist(probe_rows)))
    assert pairs == expected
    payload = rt.v_tolist(rt.v_take(built[1], build_rows))
    assert [v for v, (b, _) in zip(payload, expected) if b >= 0] == [
        b for b, _ in expected if b >= 0
    ]


def test_masked_counts_skip_hidden_slots_and_none_values():
    """``count(field)`` of a null-extended field counts the slots its mask
    keeps whose value is not None: a typed column holds no None, an object
    column (a STRING column with NULLs) may."""
    import numpy as np

    codes = _batch([0, 1, 0, 1, 1])
    valid = rt.v_ge(_batch([3, -1, 0, 2, 4]), 0)
    typed = _batch([5, 0, 7, 8, 9])
    text = np.asarray(["a", None, None, "b", None], dtype=object)
    assert rt.v_count_nn(typed, 5, valid) == 4
    assert rt.v_count_nn(text, 5, valid) == 2
    groups = rt.group_state(1, 2)
    ids = rt.v_group_ids(groups, 5, codes)
    rt.v_agg_count_nn(groups, 0, ids, typed, valid)
    rt.v_agg_count_nn(groups, 1, ids, text, valid)
    assert rt.group_merge(groups) == [2, [0, 1], [2, 2], [1, 1]]


@settings(max_examples=150, deadline=None)
@given(case=join_case())
def test_key_set_mask_matches_set_membership(case):
    nkeys, build, probe, cuts, batched = case
    keys = {_key(row, nkeys) for row in build}
    if batched:
        built = _finish(nkeys, build, cuts, True)
    else:
        built = rt.join_finish([tuple(row) for row in build], nkeys, 0, False)
    mask = rt.v_join_contains(built, len(probe), *_columns(probe, nkeys))
    assert [bool(m) for m in rt.v_tolist(mask)] == [
        _key(row, nkeys) in keys for row in probe
    ]


#: int64 extremes: a probe key this far from the build span must neither
#: wrap into it nor overflow the offset.
_EDGE = [-(1 << 63), -(1 << 63) + 1, (1 << 63) - 2, (1 << 63) - 1]


#: First-key domains of :func:`index_case`: a span one table takes, one
#: only the membership table takes (wider than a join table over 30 rows,
#: within its byte budget), one neither takes, and int64's extremes.
_FIRST_KEYS = {
    "dense": st.integers(-8, 24),
    "member": st.integers(-3000, 3000),
    "sparse": st.integers(-(1 << 40), 1 << 40),
    "extreme": st.sampled_from(_EDGE + [-3, 0, 2]),
}

#: Second-key values: integers, or floats with both zeros.
_SECOND_KEYS = {
    "i": st.integers(-2, 2),
    "f": st.sampled_from([-0.0, 0.0, 0.5, 1.5, -2.25, 1e300]),
}


@st.composite
def index_case(draw, big: bool = False):
    """A build (possibly empty, possibly with duplicate keys, one key or
    an integer key plus an integer or float one) and probe keys that
    are a mix, all absent -- below, above and around the build span,
    negative, int64 extremes -- or all present.  ``big`` repeats a drawn
    pattern to a whole ``vec.BATCH_ROWS`` batch."""
    first = _FIRST_KEYS[draw(st.sampled_from(sorted(_FIRST_KEYS)))]
    second = draw(st.sampled_from([None, "i", "f"]))
    key = first if second is None else st.tuples(first, _SECOND_KEYS[second])
    build = draw(st.lists(key, max_size=12 if big else 30))
    if build and draw(st.booleans()):
        build += draw(st.lists(st.sampled_from(build), min_size=1, max_size=8))
    modes = ["mixed", "missing", "hitting"] if build else ["missing"]
    mode = draw(st.sampled_from(modes))
    firsts = [k if second is None else k[0] for k in build] or [0]
    around = [
        k for k in [min(firsts) - 1, max(firsts) + 1, min(firsts) - 4097, *_EDGE]
        if -(1 << 63) <= k < 1 << 63
    ]
    if second is None:
        absent = st.one_of(key, st.sampled_from(around))
    else:
        absent = st.one_of(key, st.tuples(st.sampled_from(around), _SECOND_KEYS[second]))
    if mode == "hitting":
        pool = st.sampled_from(build)
    elif mode == "missing":
        pool = absent.filter(lambda k: k not in build)
    else:
        pool = st.one_of(absent, st.sampled_from(build))
    probe = draw(st.lists(pool, min_size=1 if big else 0, max_size=40))
    if big:
        probe = [probe[i % len(probe)] for i in range(vec.BATCH_ROWS)]
    cuts = sorted(draw(st.lists(st.integers(0, len(build)), max_size=3)))
    return second, build, probe, cuts


def _key_columns(rows, second):
    import numpy as np

    if second is None:
        return [_batch(rows)]
    dtype = np.float64 if second == "f" else np.int64
    return [
        _batch([k for k, _ in rows]),
        np.asarray([v for _, v in rows], dtype=dtype).reshape(len(rows)),
    ]


def _check_index_against_nested_loops(case):
    second, build, probe, cuts = case
    nkeys = 1 if second is None else 2

    def finish(ncols, outer=False):
        state = []
        for lo, hi in zip([0, *cuts], [*cuts, len(build)]):
            chunk = build[lo:hi]
            payload = [_batch(range(lo, hi))] if ncols else []
            state.append((len(chunk), *_key_columns(chunk, second), *payload))
        return rt.join_finish(state, nkeys, ncols, True, outer)

    # the reference: every probe row against every build row, once per
    # distinct probe key (a whole batch repeats a short pattern)
    matches = {k: [b for b, bk in enumerate(build) if bk == k] for k in set(probe)}
    inner = [(b, p) for p, k in enumerate(probe) for b in matches[k]]
    outer = [(b, p) for p, k in enumerate(probe) for b in matches[k] or [-1]]
    columns = _key_columns(probe, second)

    def pairs(result):
        build_rows, probe_rows = result
        return list(zip(build_rows.tolist(), probe_rows.tolist()))

    assert pairs(rt.v_join_probe(finish(1), len(probe), *columns)) == inner
    assert pairs(rt.v_join_probe_outer(finish(1, True), len(probe), *columns)) == outer
    mask = rt.v_join_contains(finish(0), len(probe), *columns)
    assert mask.tolist() == [bool(matches[k]) for k in probe]


@settings(max_examples=300, deadline=None)
@given(case=index_case())
# a duplicate composite key after a row the membership table turns away;
# a single key too wide for one table, duplicated, probed from both
# sides of its span; signed zeros in a float second key; an empty build
@example(case=("i", [(0, 0), (0, 0)], [(1, 0), (0, 0)], []))
@example(case=(None, [-3000, 3000, 3000], [5, 3000, -3001, -3000, 3001], [1]))
@example(case=(
    "f", [(2, 0.0), (2, -0.0), (5, 1.5)], [(3, 0.0), (2, -0.0), (2, 0.5)], []
))
@example(case=(None, [], [1, 2], []))
def test_join_index_answers_like_nested_loops(case):
    """``probe``, ``probe(outer=True)`` and ``contains`` against a nested
    loop over the build rows: the same pairs in the same order -- probe
    order, then build order -- whether the index codes every probe row or
    only those its membership table admits."""
    _check_index_against_nested_loops(case)


@settings(max_examples=25, deadline=None)
@given(case=index_case(big=True))
def test_join_index_answers_like_nested_loops_over_a_whole_batch(case):
    _check_index_against_nested_loops(case)


def test_coded_probes_code_only_the_rows_the_build_can_match(monkeypatch):
    """A composite build keeps a byte per first-key value of its span; a
    probe codes only the rows whose first key the build holds.  A direct
    build with duplicate keys expands only the rows its counts match."""
    import numpy as np

    coded: list[int] = []
    slots = rt.JoinIndex._slots
    monkeypatch.setattr(
        rt.JoinIndex, "_slots",
        lambda self, keys, n: coded.append(n) or slots(self, keys, n),
    )
    index = rt.JoinIndex([_batch([10, 12, 12, 4000]), _batch([1, 2, 3, 4])])
    assert index._member is not None and len(index._member) == 3992
    first = np.arange(1000) % 400
    rows, probes = index.probe([first, _batch([2] * 1000)], 1000)
    assert coded == [np.isin(first, [10, 12, 4000]).sum()] == [6]
    assert rows.tolist() == [1] * 3 and probes.tolist() == [12, 412, 812]
    assert index.contains([first, _batch([2] * 1000)], 1000).sum() == 3
    # a first key no byte table may span: every row is coded
    wide = rt.JoinIndex([_batch([0, 1 << 40]), _batch([1, 2])])
    assert wide._member is None
    direct = rt.JoinIndex([_batch([7, 3, 7])])
    assert direct._lo is not None and not direct._unique
    rows, probes = direct.probe([_batch([1, 7, 2, 3, 7])], 5)
    assert list(zip(rows.tolist(), probes.tolist())) == [
        (0, 1), (2, 1), (1, 3), (0, 4), (2, 4)
    ]


@st.composite
def one_key_case(draw):
    """A single-key build (unique or not, possibly empty or one row) whose
    span sits at the direct-table bound, one slot past it, or anywhere,
    and probe keys below, inside and above it -- as int64, int32, bool or
    date (yyyymmdd) arrays."""
    dtype = draw(st.sampled_from(["int64", "int32", "bool", "date"]))
    bound = rt._direct_bound(30, rt._JOIN_SLOTS_PER_ROW, rt._DIRECT_SLOTS_MIN)
    if dtype == "bool":
        values = st.integers(0, 1)
    elif dtype == "date":
        values = st.integers(19920101, 19981231)
    elif dtype == "int32":
        values = st.integers(-(1 << 31), (1 << 31) - 1 - bound)
    else:
        values = st.one_of(st.integers(-50, 50), st.sampled_from(_EDGE))
    lo = draw(values)
    shape = draw(st.sampled_from(["free", "at bound", "past bound"]))
    width = 40 if shape == "free" else bound - (shape == "at bound")
    if lo + width >= 1 << 63:
        lo -= width
    hi = lo + width
    if dtype == "bool":
        pool = values
    elif shape == "free":
        pool = st.integers(lo, hi)
    else:
        pool = st.sampled_from([lo, hi, (lo + hi) // 2])
    build = draw(st.lists(pool, max_size=30))
    if shape != "free" and dtype != "bool" and len(build) >= 2:
        build[:2] = [lo, hi]
    if draw(st.booleans()):
        build = list(dict.fromkeys(build))  # unique build keys
    extra = [
        k for k in [lo - 2, lo - 1, hi + 1] + (_EDGE if dtype == "int64" else [])
        if -(1 << 63) <= k < 1 << 63
    ]
    probe = draw(st.lists(st.one_of(pool, st.sampled_from(extra)), max_size=30))
    return dtype, build, probe


def _typed(values, dtype):
    import numpy as np

    if dtype == "bool":
        return np.asarray(values, dtype=bool)
    if dtype == "int32":
        return np.asarray(values, dtype=np.int32)
    return np.asarray(values, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(case=one_key_case())
def test_one_key_probe_and_contains_match_a_dict_multimap(case):
    """A single integer key -- the one-table form while its span is within
    the direct bound, codebooks past it -- probes like a dict multimap, in
    order, and its key set answers like a set, wherever the probe keys
    fall in int64."""
    dtype, build, probe = case
    if dtype == "int32":
        probe = [k for k in probe if -(1 << 31) <= k < (1 << 31)]
    if dtype == "bool":
        probe = [k for k in probe if k in (0, 1)]
    table: dict = {}
    for i, key in enumerate(build):
        table.setdefault(key, []).append(i)
    keys = _typed(probe, dtype)
    built = rt.join_finish(
        [(len(build), _typed(build, dtype), _batch(range(len(build))))], 1, 1, True
    )
    build_rows, probe_rows = rt.v_join_probe(built, len(probe), keys)
    assert list(zip(rt.v_tolist(build_rows), rt.v_tolist(probe_rows))) == [
        (b, p) for p, key in enumerate(probe) for b in table.get(key, ())
    ]
    outer = rt.join_finish(
        [(len(build), _typed(build, dtype), _batch(range(len(build))))],
        1, 1, True, True,
    )
    build_rows, probe_rows = rt.v_join_probe_outer(outer, len(probe), keys)
    assert list(zip(rt.v_tolist(build_rows), rt.v_tolist(probe_rows))) == [
        (b, p) for p, key in enumerate(probe) for b in table.get(key, [-1])
    ]
    key_set = rt.join_finish([(len(build), _typed(build, dtype))], 1, 0, True)
    mask = rt.v_join_contains(key_set, len(probe), keys)
    assert [bool(m) for m in rt.v_tolist(mask)] == [key in table for key in probe]


def test_one_table_form_covers_spans_up_to_the_direct_bound():
    """A single key spanning exactly the direct bound takes one table; one
    slot more takes the codebooks; both answer alike."""
    bound = rt._direct_bound(3, rt._JOIN_SLOTS_PER_ROW, rt._DIRECT_SLOTS_MIN)
    for hi, one_table in ((bound - 1, True), (bound, False)):
        index = rt.JoinIndex([_batch([0, hi, 7])])
        assert (index._lo is not None) == one_table
        rows, probes = index.probe([_batch([hi, -1, 7, hi + 1, 0])], 5)
        assert list(zip(rt.v_tolist(rows), rt.v_tolist(probes))) == [
            (1, 0), (2, 2), (0, 4)
        ]


@pytest.mark.parametrize("batched", [True, False])
def test_a_key_set_probed_only_for_membership_never_sorts(batched):
    """``contains`` reads per-slot counts only; the stable build-row order
    is computed on the first ``probe``, which still returns each probe
    row's matches in build-insertion order."""
    keys = [5, 3, 5, 9, 3, 5]
    for wide in (False, True):  # one table, then codebooks
        build = [k * (1 << 40) if wide else k for k in keys]
        if batched:
            built = rt.join_finish([(len(build), _batch(build))], 1, 0, True)
        else:
            built = rt.join_finish([(k,) for k in build], 1, 0, False)
        index = built[0]
        probe = _batch([build[0], 4, build[1]])
        assert rt.v_tolist(rt.v_join_contains(built, 3, probe)) == [True, False, True]
        assert "_order" not in vars(index)
        rows, probes = rt.v_join_probe(built, 3, probe)
        assert list(zip(rt.v_tolist(rows), rt.v_tolist(probes))) == [
            (0, 0), (2, 0), (5, 0), (1, 2), (4, 2)
        ]


def test_probe_keys_broadcast_from_a_scalar():
    """A constant probe key (a lifted literal) matches every probe row."""
    built = _finish(1, [(3,), (1,), (3,)], [], batched=False)
    build_rows, probe_rows = rt.v_join_probe(built, 2, 3)
    assert list(zip(rt.v_tolist(build_rows), rt.v_tolist(probe_rows))) == [
        (0, 0), (2, 0), (0, 1), (2, 1)
    ]
    assert rt.v_tolist(rt.v_join_contains(built, 2, 9)) == [False, False]


#: Float keys with a signed zero pair, a float holding an integer, and
#: values past int64's range, which a truncating cast would fold together.
FLOATS = st.sampled_from([-0.0, 0.0, 1.5, -3.25, 7.0, 1e300, -1e300, 2.0 ** 70])


@settings(max_examples=150, deadline=None)
@given(
    build=st.lists(st.tuples(st.integers(0, 3), FLOATS), max_size=30),
    probe=st.lists(st.tuples(st.integers(0, 3), FLOATS), max_size=30),
    composite=st.booleans(),
)
def test_float_keys_probe_like_a_dict_multimap(build, probe, composite):
    """A float key -- alone, or after an integer one -- codes through the
    sorted codebook (no direct table), and probes, outer probes and key
    sets answer like a dict, where ``-0.0`` equals ``0.0``."""
    import numpy as np

    def columns(rows):
        floats = np.asarray([r[1] for r in rows], dtype=np.float64)
        if not composite:
            return [floats]
        return [_batch([r[0] for r in rows]), floats]

    def key(row):
        return row if composite else row[1]

    table: dict = {}
    for i, row in enumerate(build):
        table.setdefault(key(row), []).append(i)
    state = [(len(build), *columns(build), _batch(range(len(build))))]
    nkeys = len(columns(build))
    built = rt.join_finish(state, nkeys, 1, True)
    index = built[0]
    assert index._kinds[-1] == "f"
    if build:
        assert index._lo is None and index._books[-1].table is None  # floats sort
    rows, probes = rt.v_join_probe(built, len(probe), *columns(probe))
    assert list(zip(rt.v_tolist(rows), rt.v_tolist(probes))) == [
        (b, p) for p, row in enumerate(probe) for b in table.get(key(row), ())
    ]
    outer = rt.join_finish(state, nkeys, 1, True, True)
    rows, probes = rt.v_join_probe_outer(outer, len(probe), *columns(probe))
    assert list(zip(rt.v_tolist(rows), rt.v_tolist(probes))) == [
        (b, p) for p, row in enumerate(probe) for b in table.get(key(row), [-1])
    ]
    mask = rt.v_join_contains(built, len(probe), *columns(probe))
    assert rt.v_tolist(mask) == [key(row) in table for row in probe]


def test_float_keys_with_duplicates_absent_keys_and_signed_zeros():
    import numpy as np

    index = rt.JoinIndex([np.asarray([2.5, -0.0, 2.5, 7.25, 0.0])])
    rows, probes = index.probe([np.asarray([2.5, 0.0, 3.0, -0.0, 7.25, 7.0])], 6)
    assert list(zip(rt.v_tolist(rows), rt.v_tolist(probes))) == [
        (0, 0), (2, 0), (1, 1), (4, 1), (1, 3), (4, 3), (3, 4)
    ]
    # a broadcast float probe key
    rows, probes = index.probe([7.25], 2)
    assert list(zip(rt.v_tolist(rows), rt.v_tolist(probes))) == [(3, 0), (3, 1)]
    assert rt.v_tolist(index.contains([np.asarray([-0.0, 1.0])], 2)) == [True, False]


@pytest.mark.parametrize("batched", [True, False])
def test_an_empty_float_build_matches_nothing(batched):
    import numpy as np

    if batched:
        state = [(0, np.empty(0, dtype=np.float64), _batch([]))]
    else:
        state = []  # a row-built build that saw no row
    probe = np.asarray([0.0, 1.5])
    assert [rt.v_tolist(a) for a in rt.v_join_probe(
        rt.join_finish(state, 1, 1, batched), 2, probe
    )] == [[], []]
    assert [rt.v_tolist(a) for a in rt.v_join_probe_outer(
        rt.join_finish(state, 1, 1, batched, True), 2, probe
    )] == [[-1, -1], [0, 1]]
    assert rt.v_tolist(rt.v_join_contains(
        rt.join_finish(state, 1, 0, batched), 2, probe
    )) == [False, False]


def test_a_key_the_index_cannot_code_is_a_plan_error():
    """The join index's precondition: integer or float key arrays, a
    probe key of its build key's kind.  An object array holding None, or
    an integer key meeting a float one, is a typed ``PlanError`` -- the
    generator keeps such joins in rows (see
    ``test_a_none_bearing_int_build_key_keeps_the_scalar_join`` and
    ``test_float_keyed_joins_run_in_batches_and_mixed_pairs_take_rows``)."""
    import numpy as np

    with pytest.raises(PlanError, match="integer or float"):
        rt.JoinIndex([np.asarray([7, None, 3], dtype=object)])
    for build, probe in (
        (_batch([7, 3, 7]), np.asarray([7.0, 7.5, 3.0])),
        (np.asarray([7.0, 3.0, 7.0]), _batch([7, 8, 3])),
    ):
        index = rt.JoinIndex([build])
        with pytest.raises(PlanError, match="kind"):
            index.probe([probe], 3)
        with pytest.raises(PlanError, match="kind"):
            index.contains([probe], 3)
    with pytest.raises(PlanError, match="integer or float"):
        rt.JoinIndex([_batch([7, 3])]).probe([None], 2)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(-3, 3),
            st.one_of(DOMAINS["dense"], DOMAINS["sparse"]),
        ),
        max_size=40,
    ),
    cuts=st.lists(st.integers(0, 40), max_size=4),
    strings=st.booleans(),
)
def test_grouped_count_distinct_matches_sets(rows, cuts, strings):
    """(group, value) pairs, deduplicated against the pairs every earlier
    batch brought, count like a per-group set -- whichever batch a value
    arrives in."""
    import numpy as np

    expected: dict = {}
    for group, value in rows:
        expected.setdefault(group, set()).add(str(value) if strings else value)
    cuts = sorted(c for c in cuts if c <= len(rows))
    for batch in (False, True):
        state = rt.group_state(1, 1)
        for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
            chunk = rows[lo:hi]
            values = np.asarray(
                [str(v) if strings else v for _, v in chunk],
                dtype=object if strings else np.int64,
            )
            ids = rt.v_group_ids(state, len(chunk), _batch([g for g, _ in chunk]))
            rt.v_agg_distinct(state, 0, ids, values)
        ngroups, *columns = rt.group_merge(state, batch)
        if batch:
            columns = [rt.v_tolist(c) for c in columns]
        assert ngroups == len(expected)
        got = dict(zip(*columns))
        assert got == {g: len(vs) for g, vs in expected.items()}


def test_v_group_keeps_groups_apart_past_int64():
    """Five keys of 10 000 distinct values each: mixed-radix packing would
    need 10**20 codes and wrap int64, landing the extra row on row 0's
    group; re-densifying the combined code keeps all 10 001 groups."""
    extra = (1844, 6744, 737, 955, 1616)
    keys = [_batch([*range(10_000), value]) for value in extra]
    grouped = rt.v_group(10_001, *keys)
    assert grouped[1] == 10_001
    codes = rt.v_tolist(grouped[0])
    assert codes[-1] != codes[0]


# -- the lowering -------------------------------------------------------------


def _has(plan, kinds) -> bool:
    return isinstance(plan, kinds) or any(_has(c, kinds) for c in plan.children())


JOIN_KINDS = (
    phys.HashJoin, phys.SemiJoin, phys.AntiJoin, phys.LeftOuterJoin,
    phys.GroupJoin, phys.IndexJoin, phys.IndexSemiJoin,
)
JOIN_QUERIES = [
    q for q in range(1, 23) if _has(query_plan(q, scale=TINY_SCALE), JOIN_KINDS)
]


def _rounded(rows):
    return [
        tuple(round(v, 4) if isinstance(v, float) else v for v in row) for row in rows
    ]


@pytest.mark.parametrize("batch_rows", [1, 5, 1000, 8192, vec.BATCH_ROWS])
@pytest.mark.parametrize("q", JOIN_QUERIES)
def test_join_plans_match_scalar_at_any_batch_size(q, batch_rows, tpch_db, monkeypatch):
    """Batch joins emit the scalar join's rows: the same rows, in the same
    order when nothing sorts them afterwards, and the same per-operator
    row counts, however the probe side is cut into batches."""
    monkeypatch.setattr(vec, "BATCH_ROWS", batch_rows)
    plan = query_plan(q, scale=TINY_SCALE)
    scalar = LB2Compiler(tpch_db.catalog, tpch_db, Config(instrument=True)).compile(plan)
    vector = LB2Compiler(
        tpch_db.catalog, tpch_db, Config(codegen="vector", instrument=True)
    ).compile(plan)
    rows, expected = vector.run(tpch_db), scalar.run(tpch_db)
    if _has(plan, phys.Sort):
        assert normalize(rows) == normalize(expected)
    else:
        assert _rounded(rows) == _rounded(expected)
    assert vector.last_stats == scalar.last_stats


def _served_build(session: Session, q: int):
    """The program a deadline-carrying request for TPC-H ``q`` runs: the
    statement's auto-lifted shape (the plan, for plan requests) under the
    session's lowering plus batch-granular budget checkpoints."""
    executor = ResilientExecutor(session, budget=Budget(wall_clock_seconds=60))
    config = replace(session.config, budget_checks=True)
    if q not in SQL_QUERIES:
        return LB2Compiler(session.db.catalog, session.db, config).compile(
            query_plan(q, scale=TINY_SCALE)
        )
    resolved = executor.prepare(SQL_QUERIES[q])
    return session.compiled(session.cache_key(resolved.kind, resolved.text, config))


@pytest.mark.parametrize("q", [21, 9, 18, 3, 5, 7])
def test_served_builds_lower_joins_to_batches(q, tpch_db):
    stats = _served_build(Session(tpch_db), q).codegen_stats
    assert stats["backend"] == "vector"
    assert stats["batch_joins"] + stats["batch_key_set_joins"] >= 1, stats


def test_served_q13_runs_its_outer_join_and_like_in_batches(tpch_db):
    """q13's customer probe, its orders build under ``NOT LIKE`` and both
    aggregations all lower to batches; only the Sort takes rows."""
    stats = _served_build(Session(tpch_db), 13).codegen_stats
    assert stats["batch_outer_joins"] >= 1, stats
    assert stats["batch_selects"] >= 1 and stats["vector_aggs"] == 2, stats
    assert stats["scalar_nodes"] == 1, stats


def _count(plan, kind) -> int:
    return isinstance(plan, kind) + sum(_count(c, kind) for c in plan.children())


def test_served_q22_runs_in_batches(tpch_db):
    """``SUBSTRING`` has a kernel, so q22's customer filters, its scalar
    subquery's join, its ``NOT EXISTS`` key set over orders and its
    grouping all run in batches: no scan takes rows and no edge
    devectorizes."""
    stats = _served_build(Session(tpch_db), 22).codegen_stats
    scans = _count(sql_to_plan(SQL_QUERIES[22], tpch_db), phys.Scan)
    assert stats["batch_scans"] == scans == 3, stats
    assert stats["devectorized_edges"] == 0, stats
    assert stats["batch_joins"] == stats["batch_key_set_joins"] == 1, stats
    assert stats["vector_aggs"] == 2, stats


def test_served_q2_probes_partsupp_in_batches(tpch_db):
    """q2's ``(partkey, min(supplycost))`` join has a FLOAT key pair: it
    probes partsupp in batches, like every other join of the plan."""
    plan = query_plan(2, scale=TINY_SCALE)
    stats = _served_build(Session(tpch_db), 2).codegen_stats
    assert stats["batch_joins"] == _count(plan, phys.HashJoin) == 8, stats
    assert stats["batch_scans"] == _count(plan, phys.Scan), stats


def test_float_keyed_joins_run_in_batches_and_mixed_pairs_take_rows(tpch_db):
    """A FLOAT = FLOAT join probes in batches; an INT = FLOAT pair
    (``ps_supplycost = p_size``) keeps the scalar lowering, and both
    answer like it -- a truncated float key would match more rows."""
    part = phys.Project(
        phys.Scan("part"), [("p_partkey", col("p_partkey")), ("p_size", col("p_size"))]
    )
    partsupp = phys.Select(phys.Scan("partsupp"), col("ps_availqty").gt(lit(0)))
    cheap = phys.Project(
        phys.Select(phys.Scan("partsupp"), col("ps_availqty").lt(lit(100))),
        [("c_cost", col("ps_supplycost")), ("c_partkey", col("ps_partkey"))],
    )
    cases = {
        "mixed": (phys.HashJoin(part, partsupp, ["p_size"], ["ps_supplycost"]), 0),
        "float": (phys.HashJoin(cheap, partsupp, ["c_cost"], ["ps_supplycost"]), 1),
    }
    for name, (plan, batch_joins) in cases.items():
        vector = LB2Compiler(
            tpch_db.catalog, tpch_db, Config(codegen="vector")
        ).compile(plan)
        assert vector.codegen_stats["batch_joins"] == batch_joins, name
        rows = vector.run(tpch_db)
        expected = LB2Compiler(tpch_db.catalog, tpch_db).compile(plan).run(tpch_db)
        assert normalize(rows) == normalize(expected), name
        assert rows, name


def test_string_keyed_joins_stay_scalar(tiny_db):
    """Eligibility is structural: a string-keyed join, inner or outer,
    keeps the scalar lowering (the probe side is a batch chain in both)."""
    emp = phys.Select(phys.Scan("Emp"), col("eid").gt(0))
    dep = phys.Scan("Dep")
    for plan in (
        phys.HashJoin(dep, emp, ["dname"], ["edname"]),
        phys.LeftOuterJoin(emp, dep, ["edname"], ["dname"]),
    ):
        compiled = LB2Compiler(
            tiny_db.catalog, tiny_db, Config(codegen="vector")
        ).compile(plan)
        stats = compiled.codegen_stats
        assert stats["batch_joins"] == stats["batch_outer_joins"] == 0
        assert normalize(compiled.run(tiny_db)) == normalize(
            LB2Compiler(tiny_db.catalog, tiny_db).compile(plan).run(tiny_db)
        )


def _emp(offset: int) -> phys.PhysicalPlan:
    """Emp's ids with an integer join key ``k = eid + offset``."""
    return phys.Project(
        phys.Scan("Emp"), [("eid", col("eid")), ("k", col("eid") + lit(offset))]
    )


def _sales(key) -> phys.PhysicalPlan:
    return phys.Project(
        phys.Scan("Sales"),
        [
            ("sid", col("sid")), ("skey", key), ("amount", col("amount")),
            ("sdep", col("sdep")),
        ],
    )


def _null_sdep_db() -> Database:
    """The tiny database with Sales 3's ``sdep`` NULL, so that STRING
    column -- declared nullable -- loads as an object array holding None."""
    tiny = make_tiny_db()
    db = Database(Catalog())
    for name in ("Dep", "Emp", "Sales"):
        schema = tiny.catalog.table(name)
        rows = list(zip(*(tiny.column(name, c.name) for c in schema.columns)))
        if name == "Sales":
            rows = [(s, None if s == 3 else d, *rest) for s, d, *rest in rows]
            schema = replace(schema, columns=[
                replace(c, nullable=True) if c.name == "sdep" else c
                for c in schema.columns
            ])
        db.add_rows(schema, rows)
    return db


#: Left outer joins of Emp (probed) against Sales (built), by the shape of
#: the build side.
OUTER_JOINS = {
    # Sales years: 1994 three times, 1995, 1996, 1997; Emp keys 1994-1999
    "duplicate build keys": phys.LeftOuterJoin(
        _emp(1993), _sales(ExtractYear(col("sold"))), ["k"], ["skey"]
    ),
    "all unmatched": phys.LeftOuterJoin(
        _emp(0), _sales(col("sid") + lit(100)), ["k"], ["skey"]
    ),
    "empty build": phys.LeftOuterJoin(
        _emp(0),
        phys.Select(_sales(col("sid")), col("amount").gt(lit(1e9))),
        ["k"], ["skey"],
    ),
    "filtered both sides": phys.LeftOuterJoin(
        phys.Select(_emp(0), col("eid").gt(1)),
        phys.Select(phys.Scan("Sales"), Not(Like(col("sdep"), "C%"))),
        ["k"], ["sid"],
    ),
    # The build input is a string-keyed (so scalar) outer join: the Sales
    # rows of CS and EE find no Dep ranked above 5, so their ``amount``
    # (Dep's rank here) is None in matched build rows.
    "null build values": phys.LeftOuterJoin(
        _emp(0),
        phys.Project(
            phys.LeftOuterJoin(
                phys.Scan("Sales"),
                phys.Select(phys.Scan("Dep"), col("rank").gt(lit(5))),
                ["sdep"], ["dname"],
            ),
            [("skey", col("sid")), ("amount", col("rank")), ("sdep", col("sdep"))],
        ),
        ["k"], ["skey"],
    ),
    # Run on _null_sdep_db: a stored STRING column holding None.
    "null build strings": phys.LeftOuterJoin(_emp(0), _sales(col("sid")), ["k"], ["skey"]),
}


def _counted(join):
    """count(null-extended field) per probe row: a batch consumer."""
    return phys.Agg(
        join,
        [("eid", col("eid"))],
        [
            ("n", count_col(col("amount"))), ("named", count_col(col("sdep"))),
            ("rows", count()),
        ],
    )


def _summed(join):
    """sum(null-extended field): any use but count devectorizes."""
    return phys.Agg(join, [("eid", col("eid"))], [("s", sum_(col("amount")))])


OUTER_PLANS = [
    (name, consumer)
    for name in OUTER_JOINS
    for consumer in ("join", "count", "global count", "sum")
]


def _outer_plan(name: str, consumer: str) -> phys.PhysicalPlan:
    join = OUTER_JOINS[name]
    if consumer == "count":
        return _counted(join)
    if consumer == "global count":
        return phys.Agg(
            join, [],
            [("n", count_col(col("amount"))), ("named", count_col(col("sdep")))],
        )
    if consumer == "sum":
        return _summed(join)
    return join


@pytest.mark.parametrize("batch_rows", [1, 5, 8192, vec.BATCH_ROWS])
@pytest.mark.parametrize("name,consumer", OUTER_PLANS)
def test_outer_joins_match_scalar_at_any_batch_size(
    name, consumer, batch_rows, tiny_db, monkeypatch
):
    """A batch left outer join emits the scalar join's rows in its order
    -- matches and null-extended unmatched rows -- with the same row
    counts; a count of a null-extended field stays in batches (and skips
    matched build values that are None), a sum takes the rows."""
    monkeypatch.setattr(vec, "BATCH_ROWS", batch_rows)
    db = _null_sdep_db() if name == "null build strings" else tiny_db
    plan = _outer_plan(name, consumer)
    scalar = LB2Compiler(db.catalog, db, Config(instrument=True)).compile(plan)
    vector = LB2Compiler(
        db.catalog, db, Config(codegen="vector", instrument=True)
    ).compile(plan)
    stats = vector.codegen_stats
    assert stats["batch_outer_joins"] == 1, stats
    rows, expected = vector.run(db), scalar.run(db)
    if consumer == "join":
        assert rows == expected
    else:
        assert normalize(rows) == normalize(expected)
    assert vector.last_stats == scalar.last_stats
    # the nested build's Dep filter is a batch chain under a scalar join
    build_edges = 1 if name == "null build values" else 0
    if consumer == "sum":
        assert stats["vector_aggs"] == 0
        assert stats["devectorized_edges"] == build_edges + 1
    elif consumer != "join":
        assert stats["vector_aggs"] == 1
        assert stats["devectorized_edges"] == build_edges


def test_a_none_bearing_int_build_key_keeps_the_scalar_join(tiny_db):
    """An INT key from a left outer join's null-extended side can hold
    None: the plan says so (``PhysicalPlan.nullable``), so an inner and an
    outer join on it keep the scalar lowering, probed side in batches or
    not, and answer the scalar lowering's rows."""
    build = phys.Project(
        phys.LeftOuterJoin(
            phys.Scan("Sales"),
            phys.Select(phys.Scan("Dep"), col("rank").gt(lit(5))),
            ["sdep"], ["dname"],
        ),
        # Dep ranks above 5: ME 20, BIO 7; CS and EE Sales rows get None
        [("skey", col("rank")), ("sid", col("sid"))],
    )
    probe = _emp(1)  # k = eid + 1: 2 .. 7, so Emp 6 meets BIO's rank 7
    assert build.nullable(tiny_db.catalog) == {"skey"}
    plans = {
        "batch_joins": phys.HashJoin(build, probe, ["skey"], ["k"]),
        "batch_outer_joins": phys.LeftOuterJoin(probe, build, ["k"], ["skey"]),
    }
    for stat, plan in plans.items():
        vector = LB2Compiler(
            tiny_db.catalog, tiny_db, Config(codegen="vector")
        ).compile(plan)
        assert vector.codegen_stats[stat] == 0, vector.codegen_stats
        assert "v_join_probe" not in vector.source, stat
        rows = vector.run(tiny_db)
        expected = LB2Compiler(tiny_db.catalog, tiny_db).compile(plan).run(tiny_db)
        assert normalize(rows) == normalize(expected), stat
        assert rows, stat


@pytest.mark.parametrize(
    "pred, batched",
    [
        (col("skey").ne(lit(99)), False),  # None != 99 holds: keeps the Nones
        (IsNotNull(col("skey")), True),
    ],
    ids=["ne", "is_not_null"],
)
def test_a_filtered_null_extended_build_key_joins_only_when_null_free(
    tiny_db, pred, batched
):
    """A Select over a null-extended INT key clears it only when no NULL
    row can pass: ``skey != 99`` keeps the Nones, so the join keeps the
    scalar lowering; ``skey IS NOT NULL`` drops them, so it runs in
    batches.  Either way it answers the scalar lowering's rows."""
    build = phys.Select(
        phys.Project(
            phys.LeftOuterJoin(
                phys.Scan("Sales"),
                phys.Select(phys.Scan("Dep"), col("rank").gt(lit(5))),
                ["sdep"], ["dname"],
            ),
            [("skey", col("rank")), ("sid", col("sid"))],
        ),
        pred,
    )
    plan = phys.HashJoin(build, _emp(1), ["skey"], ["k"])
    assert (build.nullable(tiny_db.catalog) == set()) is batched
    vector = LB2Compiler(tiny_db.catalog, tiny_db, Config(codegen="vector")).compile(plan)
    assert vector.codegen_stats["batch_joins"] == int(batched), vector.codegen_stats
    rows = vector.run(tiny_db)
    expected = LB2Compiler(tiny_db.catalog, tiny_db).compile(plan).run(tiny_db)
    assert normalize(rows) == normalize(expected)
    assert rows


def test_a_subplan_used_twice_keeps_one_lowering(tpch_db):
    """Q15 reads its revenue view twice (one plan node, two consumers).
    Pruning one consumer's batch chain must not demote the shared view
    under the other, which still consumes batches (here with open maps,
    where the view's join consumer stays scalar)."""
    plan = query_plan(15, scale=TINY_SCALE)
    expected = LB2Compiler(tpch_db.catalog, tpch_db).compile(plan).run(tpch_db)
    for hashmap in ("native", "open"):
        config = Config(codegen="vector", hashmap=hashmap)
        compiled = LB2Compiler(tpch_db.catalog, tpch_db, config).compile(plan)
        assert normalize(compiled.run(tpch_db)) == normalize(expected), hashmap
