"""Runtime helpers available to generated code under the name ``rt``.

These mirror LB2's tiny C support layer (timing, printing, sorting): code on
the per-tuple hot path is always emitted inline by the generators; only
per-query, cold operations (sorting a result buffer, building a comparison
key) are routed through here.
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
from time import perf_counter as _perf_counter
from typing import Iterable, Optional, Sequence


def sort_rows(rows: list, spec: Sequence[tuple[int, bool]]) -> list:
    """Sort ``rows`` (tuples) in place by a multi-key ordering spec.

    ``spec`` is a sequence of ``(column_index, ascending)`` pairs.  Mixed
    ascending/descending orderings over non-numeric keys cannot be expressed
    with a single ``key=`` function, so a comparator is used; this runs once
    per query, never per tuple of the hot path.
    """
    if all(asc for _, asc in spec):
        rows.sort(key=lambda row: tuple(row[i] for i, _ in spec))
        return rows

    def compare(a: tuple, b: tuple) -> int:
        for idx, asc in spec:
            av, bv = a[idx], b[idx]
            if av == bv:
                continue
            if av < bv:
                return -1 if asc else 1
            return 1 if asc else -1
        return 0

    rows.sort(key=functools.cmp_to_key(compare))
    return rows


def topk_rows(rows: list, spec: Sequence[tuple[int, bool]], n: int) -> list:
    """The ``n`` smallest rows under the multi-key ordering spec.

    Backs the Limit-over-Sort fusion: a bounded heap selection instead of a
    full sort when only the top of the ordering is needed.
    """
    import heapq

    if n <= 0:
        return []
    if all(asc for _, asc in spec):
        return heapq.nsmallest(n, rows, key=lambda row: tuple(row[i] for i, _ in spec))

    def compare(a: tuple, b: tuple) -> int:
        for idx, asc in spec:
            av, bv = a[idx], b[idx]
            if av == bv:
                continue
            if av < bv:
                return -1 if asc else 1
            return 1 if asc else -1
        return 0

    return heapq.nsmallest(n, rows, key=functools.cmp_to_key(compare))


def argsort_columns(columns: Sequence[list], spec: Sequence[tuple[int, bool]]) -> list[int]:
    """Row-id permutation ordering columnar buffers by a multi-key spec.

    ``columns[i]`` is the i-th field's value list; ``spec`` pairs are
    ``(column index, ascending)``.  The columnar counterpart of
    :func:`sort_rows` -- used when the compiler materializes pipeline
    breakers in column layout (Section 4.1 of the paper).
    """
    size = len(columns[0]) if columns else 0
    order = list(range(size))
    if all(asc for _, asc in spec):
        order.sort(key=lambda rid: tuple(columns[i][rid] for i, _ in spec))
        return order

    def compare(a: int, b: int) -> int:
        for i, asc in spec:
            av, bv = columns[i][a], columns[i][b]
            if av == bv:
                continue
            if av < bv:
                return -1 if asc else 1
            return 1 if asc else -1
        return 0

    order.sort(key=functools.cmp_to_key(compare))
    return order


@functools.lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    return re.compile(
        "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern
        ),
        re.DOTALL,
    )


def like(value: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` wildcards (the general fallback path).

    The compiler specializes the common shapes (``abc%``, ``%abc``,
    ``%abc%``, exact) to direct string operations at generation time; this
    helper handles arbitrary multi-``%`` patterns such as ``%a%b%``.
    ``_`` (single char) is supported for completeness.  The whole value
    must match, newlines included (``%`` and ``_`` match them too); each
    pattern compiles once.
    """
    return _like_regex(pattern).fullmatch(value) is not None


def like_contains2(value: str, first: str, second: str) -> bool:
    """Match ``%first%second%``: ordered, non-overlapping containment."""
    start = value.find(first)
    if start < 0:
        return False
    return value.find(second, start + len(first)) >= 0


def map_full() -> None:
    """Generated open-addressing maps call this when every slot is taken."""
    raise RuntimeError(
        "open-addressing hash map is full; recompile with a larger "
        "open_map_size (Config.open_map_size)"
    )


def round_half_up(value: float, digits: int) -> float:
    """Decimal-style rounding used when formatting numeric results."""
    scale = 10 ** digits
    if value >= 0:
        return int(value * scale + 0.5) / scale
    return -int(-value * scale + 0.5) / scale


def timed(fn, *args, **kwargs):
    """Run ``fn`` and return ``(result, elapsed_seconds)``."""
    import time

    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def obs_now() -> float:
    """Monotonic wall-clock read staged into instrumented programs.

    ``Config(instrument=True)`` brackets each operator's datapath with a
    pair of these calls; the residual program stores the difference under
    an ``@t:``-prefixed stats key.  Only emitted when instrumentation is
    on, so uninstrumented codegen stays byte-identical.
    """
    return _perf_counter()


def first_or_none(seq: Iterable):
    """Return the first element of ``seq`` or None when empty."""
    for item in seq:
        return item
    return None


# -- cooperative budget / fault hooks ----------------------------------------
#
# Residual programs compiled with ``Config(budget_checks=True)`` call
# ``rt.scan_tick(n)`` periodically from their scan loops.  The call fans out
# to whatever hooks the resilience layer has installed (a budget guard, a
# mid-scan fault injector); with no hooks installed it is a no-op, and with
# budget checks disabled (the default) it is never even emitted, so the
# residual source is byte-identical to the unguarded build.
#
# The hook stack is *per thread*: a guard armed by one serve-tier request
# must only see ticks from the residual program running on that request's
# worker thread -- a global list would let thread A's deadline abort
# thread B's scan and would double-count everybody's rows into every
# guard.  Thread-local data survives ``fork`` for the forking thread, so
# the parallel layer's forked workers (which fork from the thread that
# armed the hooks) inherit mid-scan fault hooks exactly as before.

_TICK_LOCAL = threading.local()


def _tick_hooks() -> list:
    hooks = getattr(_TICK_LOCAL, "hooks", None)
    if hooks is None:
        hooks = _TICK_LOCAL.hooks = []
    return hooks


def push_tick_hook(hook) -> None:
    """Install a ``hook(n)`` invoked on this thread's every ``scan_tick``."""
    _tick_hooks().append(hook)


def pop_tick_hook(hook) -> None:
    """Remove a previously installed tick hook (last occurrence).

    Compared with ``==``, not ``is``: callers pass bound methods, and each
    ``obj.method`` access builds a fresh bound-method object.
    """
    hooks = _tick_hooks()
    for i in range(len(hooks) - 1, -1, -1):
        if hooks[i] == hook:
            del hooks[i]
            return


def scan_tick(n: int = 1) -> None:
    """Cooperative checkpoint emitted into guarded scan loops.

    ``n`` is the number of rows processed since the previous tick.  Hooks
    may raise (``BudgetExceeded``, ``InjectedFault``) to abort the residual
    program; the exception propagates out of the generated function to the
    caller, exactly like any other runtime failure.
    """
    for hook in list(_tick_hooks()):
        hook(n)


# -- batch (vector) kernels ---------------------------------------------------
#
# Residual programs compiled with ``Config(codegen="vector")`` call these
# ``v_*`` kernels over whole column arrays instead of emitting per-row
# loops.  With NumPy installed (the ``repro[fast]`` extra) operands are
# ``numpy.ndarray``; without it, storage hands out plain Python lists and
# every kernel falls back to list comprehensions -- same results, scalar
# speed.  Either operand of a binary kernel may also be a plain Python
# scalar (a broadcast constant).  All kernels are pure: they allocate fresh
# outputs and never mutate their inputs.
#
# String columns arrive in the fixed-width ``S{w}`` layout storage gives
# ASCII text (``repro.storage.buffer.typed_strings``), else as object
# arrays.  Kernels work on the bytes: a ``str`` operand is encoded once per
# call, and strings decode back to ``str`` at one boundary -- wherever
# values leave a batch (:func:`v_tolist`, the group keys a merge hands to a
# row loop, a global min/max).  ``bytes`` never reach a result row, a
# scalar hash-map key or a comparison with a ``str``.

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy tests
    _np = None

from repro.storage.buffer import typed_strings

#: NumPy's string functions (``np.strings`` from NumPy 2, ``np.char``
#: before it).
_np_strings = None if _np is None else getattr(_np, "strings", None) or _np.char


def have_numpy() -> bool:
    """True when the optional ``repro[fast]`` acceleration is available."""
    return _np is not None


def _is_ndarray(x) -> bool:
    return _np is not None and isinstance(x, _np.ndarray)


def _is_batch(x) -> bool:
    return isinstance(x, list) or _is_ndarray(x)


def _is_bytes(x) -> bool:
    """An ``S{w}`` batch: ASCII strings in the fixed-width layout."""
    return _is_ndarray(x) and x.dtype.kind == "S"


def _is_numeric(x) -> bool:
    return _is_ndarray(x) and x.dtype.kind in "iubf"


def _to_list(a) -> list:
    """A batch as a list of plain Python values, strings as ``str``.

    Typed strings decode value by value: on 1- to 8 192-row batches that
    beat converting to a ``U`` array first (0.5 against 1.0 ms at 8 192
    rows), and it allocates no 4-byte-per-character temporary.
    """
    if not _is_ndarray(a):
        return a
    if a.dtype.kind == "S":
        return list(map(bytes.decode, a.tolist()))
    return a.tolist()


def _str_objects(a):
    """An ``S{w}`` batch as an object array of ``str``: what it must meet
    text in, since ``U`` arrays, like ``S``, drop trailing NULs."""
    return _np.array(_to_list(a), dtype=object)


def _ascii(value: str) -> Optional[bytes]:
    """``value`` as the bytes an ``S`` batch would hold, or None when no
    value of such a batch can equal it (non-ASCII, or a NUL ``S`` drops)."""
    if value.isascii() and "\0" not in value:
        return value.encode("ascii")
    return None


def _text_pair(a, b):
    """Make an ``S`` batch and its other operand comparable.

    A ``str`` scalar is encoded once; when the other side holds ``str``
    values the bytes cannot meet (a non-ASCII or NUL-bearing scalar, an
    object or unicode batch), the ``S`` batch decodes to ``str`` objects
    instead.
    """
    if _is_bytes(a) == _is_bytes(b):
        return a, b  # both bytes, or no bytes at all
    if _is_bytes(b):
        b, a = _text_pair(b, a)
        return a, b
    if isinstance(b, str):
        encoded = _ascii(b)
        if encoded is not None:
            return a, encoded
        # a 0-d object array, or NumPy would make the scalar a NUL-dropping U
        return _str_objects(a), _np.array(b, dtype=object)
    if _is_ndarray(b) and b.dtype.kind in "OU":
        return _str_objects(a), b
    return a, b


def _pair(a, b):
    """Align two elementwise operands into equal-length Python lists."""
    if _is_batch(a) and _is_batch(b):
        return a, b
    if _is_batch(a):
        return a, [b] * len(a)
    return [a] * len(b), b


def _ew(a, b, op):
    """Elementwise binary kernel body: NumPy fast path or list fallback."""
    if _is_ndarray(a) or _is_ndarray(b):
        if _is_bytes(a) or _is_bytes(b):
            a, b = _text_pair(a, b)
        return op(a, b)
    xs, ys = _pair(a, b)
    return [op(x, y) for x, y in zip(xs, ys)]


def v_add(a, b):
    return _ew(a, b, lambda x, y: x + y)


def v_sub(a, b):
    return _ew(a, b, lambda x, y: x - y)


def v_mul(a, b):
    return _ew(a, b, lambda x, y: x * y)


def v_div(a, b):
    return _ew(a, b, lambda x, y: x / y)


def v_floordiv(a, b):
    return _ew(a, b, lambda x, y: x // y)


def v_mod(a, b):
    return _ew(a, b, lambda x, y: x % y)


def v_eq(a, b):
    return _ew(a, b, lambda x, y: x == y)


def v_ne(a, b):
    return _ew(a, b, lambda x, y: x != y)


def v_lt(a, b):
    return _ew(a, b, lambda x, y: x < y)


def v_le(a, b):
    return _ew(a, b, lambda x, y: x <= y)


def v_gt(a, b):
    return _ew(a, b, lambda x, y: x > y)


def v_ge(a, b):
    return _ew(a, b, lambda x, y: x >= y)


def v_and(a, b):
    if _is_ndarray(a) or _is_ndarray(b):
        return a & b
    xs, ys = _pair(a, b)
    return [bool(x and y) for x, y in zip(xs, ys)]


def v_or(a, b):
    if _is_ndarray(a) or _is_ndarray(b):
        return a | b
    xs, ys = _pair(a, b)
    return [bool(x or y) for x, y in zip(xs, ys)]


def v_not(a):
    if _is_ndarray(a):
        return ~a
    return [not x for x in a]


def v_neg(a):
    if _is_ndarray(a):
        return -a
    return [-x for x in a]


# -- selection ----------------------------------------------------------------


def v_mask_index(mask):
    """Row positions where ``mask`` is true (the selection vector)."""
    if _is_ndarray(mask):
        return _np.nonzero(mask)[0]
    return [i for i, m in enumerate(mask) if m]


def v_take(a, idx):
    """Gather ``a`` at positions ``idx``; scalars broadcast through."""
    if not _is_batch(a):
        return a
    if _is_ndarray(a):
        return a[idx]
    return [a[int(i)] for i in idx]


def v_len(x) -> int:
    return len(x)


def v_tolist(a, valid=None):
    """Materialize a batch as a list of plain Python scalars.

    The vector -> scalar boundary: devectorized loops index this list, and
    downstream scalar code (hashing, sorting, result normalization) must
    see Python ints/floats/strs, never NumPy scalars or bytes.  With
    ``valid`` (a null-extended column of an outer join), the slots it
    marks false are None.
    """
    values = _to_list(a)
    if valid is None:
        return values
    return [v if ok else None for v, ok in zip(values, _to_list(valid))]


# -- LIKE -----------------------------------------------------------------------


def v_like(values, pattern: str, negate: bool):
    """SQL ``[NOT] LIKE`` over a batch of strings, specialized by pattern
    shape exactly as the scalar lowering is (``_like_shape``).

    A typed (``S``) or unicode batch is scanned with NumPy's string
    functions -- ``startswith``, ``endswith``, ``find``; for ``%a%b%``,
    ``b`` is searched after ``a``'s first occurrence only in the rows
    holding ``a``.  On q13's ``o_comment`` (``S85``, 15 000 rows) that
    took 1.5 ms, against 2.8 ms for a Python loop over its ``str`` values
    and 3.0 ms for a second ``find`` over every row.  An object batch, a list
    batch and the generic shape (``_``, or ``%`` inside the text) run the
    interpreters' per-value test, whose generic case is :func:`like` --
    as does a pattern holding a NUL, which NumPy's strings would drop.
    """
    from repro.plan.expressions import _like_shape, like_predicate

    shape, parts = _like_shape(pattern)
    if (
        _is_ndarray(values)
        and values.dtype.kind in "SU"
        and shape != "generic"
        and "\0" not in pattern
    ):
        mask = _like_strings(values, shape, parts)
    else:
        test = like_predicate(pattern)
        mask = _index_list([test(v) for v in _to_list(values)], dtype=bool)
    if not negate:
        return mask
    return ~mask if _is_ndarray(mask) else [not m for m in mask]


def _like_strings(values, shape: str, parts: tuple):
    if values.dtype.kind == "S":
        encoded = tuple(_ascii(p) for p in parts)
        if None in encoded:
            values = values.astype(str)  # a part no ASCII value holds
        else:
            parts = encoded
    if shape == "any":
        return _np.ones(len(values), dtype=bool)
    if shape == "exact":
        return values == parts[0]
    if shape == "prefix":
        return _np_strings.startswith(values, parts[0])
    if shape == "suffix":
        return _np_strings.endswith(values, parts[0])
    first = _np_strings.find(values, parts[0])
    found = first >= 0
    if shape == "contains2":
        rows = _np.flatnonzero(found)
        after = _np_strings.find(values[rows], parts[1], first[rows] + len(parts[0]))
        found[rows] = after >= 0
    return found


# -- grouping -----------------------------------------------------------------


def _as_lists(n: int, keys):
    return [_to_list(k) if _is_batch(k) else [k] * n for k in keys]


#: Odd multiplier folding a wide string's words into one 64-bit hash.
_WORD_MIX = None if _np is None else _np.uint64(0x9E3779B97F4A7C15)


def _string_codes(a):
    """Dense codes of an ``S{w}`` batch: ``(codes, size)``.

    Up to 8 bytes wide, a value (NUL-padded to the column's width) is one
    integer word, its bytes packed big-endian into the word's low bytes:
    words compare in the values' lexicographic order (ASCII keeps them
    below ``2**63``), and short values span few words, so a
    :class:`_Codebook` codes q1's one-character flags by direct table.  A
    wider value, padded to whole 8-byte words, folds its words into one
    64-bit hash, which one codebook codes; checking every value against
    its group's first value makes the codes exact, and on a hash
    collision the values themselves are sorted (``np.unique``).
    Measured on 100- to 8 192-row batches of 14- to 40-byte values,
    feeding the words to ``_group_codes`` as composite keys instead costs
    1.6-4x the hash (a codebook per word); the hash runs 0.9-2.4x as fast
    as the object-array hashing it replaces from 1 000 rows up, and
    ~25 us behind it on 100-row batches.
    """
    n, width = len(a), a.dtype.itemsize
    data = _np.ascontiguousarray(a).view(_np.uint8).reshape(n, width)
    if width <= 8:
        raw = _np.zeros((n, 8), dtype=_np.uint8)
        raw[:, 8 - width:] = data
        book = _Codebook(raw.view(">u8").ravel().astype(_np.int64))
        return book.codes, book.size
    raw = _np.zeros((n, -(-width // 8) * 8), dtype=_np.uint8)
    raw[:, :width] = data
    words = raw.view(_np.uint64)
    mixed = words[:, 0].copy()
    for j in range(1, words.shape[1]):
        mixed *= _WORD_MIX
        mixed += words[:, j]
    book = _Codebook(mixed.view(_np.int64))
    if (a[book.reps][book.codes] == a).all():
        return book.codes, book.size
    values, codes = _np.unique(a, return_inverse=True)
    return codes.ravel(), len(values)


#: Below this many rows a typed string column is coded by hashing its
#: values in a dict, like an object column: :func:`_string_codes` has a
#: fixed cost of ~20 us, which batches of a few rows past a selective
#: join (q5 groups 2- to 32-row batches by ``n_name``) never earn back;
#: measured, the two cross over between 128 and 256 rows.
_DICT_CODED_ROWS = 256


def _dense_codes(column):
    """Dense codes ``0 .. size - 1`` of a NumPy column's distinct values:
    ``(codes, size)``."""
    strings = column.dtype.kind == "S"
    if column.dtype == object or (strings and len(column) < _DICT_CODED_ROWS):
        return _factorize_object(column)
    if strings:
        return _string_codes(column)
    book = _Codebook(column)
    return book.codes, book.size


def _factorize_object(column):
    """Dense integer codes for an object-dtype column (or a short typed
    string one) via one hash pass."""
    mapping: dict = {}
    codes = _np.empty(len(column), dtype=_np.int64)
    for i, value in enumerate(column.tolist()):
        gid = mapping.get(value)
        if gid is None:
            gid = len(mapping)
            mapping[value] = gid
        codes[i] = gid
    return codes, len(mapping)


#: Direct addressing -- one lookup table over a column's whole value span --
#: is used while the span is at most this many slots per row (with a floor
#: for short columns and a ceiling on the table's size); wider spans sort.
#: A slot costs about a twentieth of a sorted row to set up, so one-off
#: factorizations stay well inside that; a join's key index, probed by
#: every probe row, may spend more to save a binary search per probe.
_DIRECT_SLOTS_PER_ROW = 8
_JOIN_SLOTS_PER_ROW = 32
_DIRECT_SLOTS_MIN = 4096
_DIRECT_SLOTS_MAX = 1 << 22


def _direct(span: int, n: int, per_row: int = _DIRECT_SLOTS_PER_ROW) -> bool:
    return span <= min(max(per_row * n, _DIRECT_SLOTS_MIN), _DIRECT_SLOTS_MAX)


class _Codebook:
    """Dense codes ``0 .. size - 1`` for the distinct values of a numeric
    NumPy array, assigned in ascending value order: ``codes`` (one per
    row) and ``reps`` (one row position per code).  :meth:`encode` codes
    another array against the same values.

    Integer (and bool) values whose span is small next to the array get a
    direct lookup table -- a few linear passes, no sort; wider spans and
    floats sort once, and :meth:`encode` binary-searches the sorted
    distinct values.
    """

    def __init__(self, values, per_row: int = _DIRECT_SLOTS_PER_ROW) -> None:
        n = len(values)
        self.table = None
        if values.dtype.kind in "iub":
            values = values.astype(_np.int64, copy=False)
            self.lo = int(values.min()) if n else 0
            span = int(values.max()) - self.lo + 1 if n else 0
            if n and _direct(span, n, per_row):
                offsets = values - self.lo
                table = _np.full(span, -1, dtype=_np.int64)
                table[offsets] = _np.arange(n)
                present = _np.flatnonzero(table >= 0)
                self.reps = table[present]
                table[present] = _np.arange(len(present))
                self.codes = table[offsets]
                self.size = len(present)
                self.table = table
                self.hi = self.lo + span - 1
                return
        order = _np.argsort(values)
        ordered = values[order]
        first = _np.empty(n, dtype=bool)
        first[:1] = True
        _np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        self.codes = _np.empty(n, dtype=_np.int64)
        self.codes[order] = _np.cumsum(first) - 1
        self.sorted = ordered[first]
        self.reps = order[first]
        self.size = len(self.sorted)

    def encode(self, values, valid):
        """``values``' codes (0 where absent) and ``valid`` narrowed to the
        values this codebook holds."""
        if self.size == 0:
            return _np.zeros(len(values), dtype=_np.int64), valid & False
        if self.table is not None:
            values = values.astype(_np.int64, copy=False)
            inside = (values >= self.lo) & (values <= self.hi)
            codes = self.table[_np.where(inside, values - self.lo, 0)]
            valid = valid & inside & (codes >= 0)
        else:
            codes = _np.minimum(_np.searchsorted(self.sorted, values), self.size - 1)
            valid = valid & (self.sorted[codes] == values)
        return _np.where(valid, codes, 0), valid


def _group_codes(n, keys):
    """Dense group ids of the rows of NumPy key columns: ``(codes, ngroups,
    representatives)``, groups in ascending order of their packed code.

    Keys factorize one at a time and combine by mixed-radix packing; after
    each key the combined code is re-densified whenever its radix exceeds
    the row count, so the radix never passes ``n`` and the next packing
    step stays below ``n * n`` -- far inside int64 -- however many keys
    there are.  A typed string column codes through its packed words
    (:func:`_string_codes`); an object column (text the typed layout
    cannot hold) factorizes by one hashing pass, since comparison-sorting
    Python objects costs more.
    """
    combined, radix = None, 1
    for k in keys:
        codes, nuniq = _dense_codes(k)
        if combined is None:
            combined, radix = codes, nuniq
        else:
            combined, radix = combined * nuniq + codes, radix * nuniq
        if radix > n:
            book = _Codebook(combined)
            combined, radix = book.codes, book.size
    book = _Codebook(combined)
    return book.codes, book.size, book.reps


def v_group(n, *keys):
    """Factorize rows by key columns.

    Returns a flat tuple ``(codes, ngroups, keys0, keys1, ...)``:
    ``codes[i]`` is the dense group id of row ``i`` and ``keys_j[g]`` the
    j-th key value of group ``g`` (a batch over the groups).
    """
    if _np is not None and keys and all(_is_ndarray(k) for k in keys):
        codes, ngroups, first = _group_codes(n, keys)
        return (codes, ngroups, *(k[first] for k in keys))
    cols = _as_lists(n, keys)
    mapping: dict = {}
    codes = [0] * n
    keylists: list[list] = [[] for _ in keys]
    for i in range(n):
        kt = tuple(c[i] for c in cols)
        gid = mapping.get(kt)
        if gid is None:
            gid = len(mapping)
            mapping[kt] = gid
            for kl, v in zip(keylists, kt):
                kl.append(v)
        codes[i] = gid
    return (codes, len(mapping), *keylists)


def _broadcast_values(codes, values):
    if _is_batch(values):
        return values
    return [values] * len(codes)


def _plain_pair(codes, values):
    """Force a (codes, values) pair into plain Python lists (slow path)."""
    return _to_list(codes), _to_list(values)


def v_group_sum(codes, ngroups, values):
    """Per-group sum; integer inputs keep integer results."""
    values = _broadcast_values(codes, values)
    if _is_ndarray(codes) and _is_ndarray(values) and values.dtype != object:
        out = _np.bincount(codes, weights=values, minlength=ngroups)
        if values.dtype.kind in "iub":
            return [int(x) for x in out]
        return out.tolist()
    codes, values = _plain_pair(codes, values)
    out = [0] * ngroups
    for c, v in zip(codes, values):
        out[c] += v
    return out


def v_group_fsum(codes, ngroups, values):
    """Per-group float sum (the double slot of ``avg``)."""
    values = _broadcast_values(codes, values)
    if _is_ndarray(codes) and _is_ndarray(values) and values.dtype != object:
        return _np.bincount(codes, weights=values, minlength=ngroups).tolist()
    codes, values = _plain_pair(codes, values)
    out = [0.0] * ngroups
    for c, v in zip(codes, values):
        out[c] += v
    return out


def v_group_count(codes, ngroups):
    if _is_ndarray(codes):
        return _np.bincount(codes, minlength=ngroups).tolist()
    out = [0] * ngroups
    for c in codes:
        out[c] += 1
    return out


def v_group_count_nn(codes, ngroups, values, valid=None):
    """Per-group count of non-None values (``count(expr)``); with ``valid``
    (a null-extended field's mask) only of the slots it marks true."""
    values = _broadcast_values(codes, values)
    if _is_ndarray(values) and values.dtype != object:
        # typed arrays hold no Nones
        if valid is None:
            return v_group_count(codes, ngroups)
        return v_group_sum(codes, ngroups, valid)
    codes, values = _plain_pair(codes, values)
    present = _present(values, valid)
    out = [0] * ngroups
    for c, ok in zip(codes, present):
        if ok:
            out[c] += 1
    return out


def _present(values: list, valid) -> list:
    """Which of ``values`` a ``count`` counts: not None, and -- with
    ``valid`` -- not masked out."""
    if valid is None:
        return [v is not None for v in values]
    return [ok and v is not None for v, ok in zip(values, _to_list(valid))]


def _group_extreme(codes, ngroups, values, op, np_ufunc):
    values = _broadcast_values(codes, values)
    if _is_ndarray(codes) and _is_numeric(values) and np_ufunc is not None:
        _, first_idx = _np.unique(codes, return_index=True)
        out = values[first_idx].copy()
        np_ufunc.at(out, codes, values)
        return out.tolist()
    codes, values = _plain_pair(codes, values)
    out: list = [None] * ngroups
    for c, v in zip(codes, values):
        cur = out[c]
        out[c] = v if cur is None else op(cur, v)
    return out


def v_group_min(codes, ngroups, values):
    return _group_extreme(
        codes, ngroups, values, min, None if _np is None else _np.minimum
    )


def v_group_max(codes, ngroups, values):
    return _group_extreme(
        codes, ngroups, values, max, None if _np is None else _np.maximum
    )


def v_group_distinct(codes, ngroups, values):
    """One batch's ``(group, value)`` pairs, as ``(codes, values)`` -- the
    kept partial of a grouped ``count(distinct)``.  Pairs are deduplicated
    once, when :func:`group_merge` counts them, not per batch: most
    batches' pairs are already distinct, and a per-batch pass would sort
    them twice."""
    if _is_ndarray(codes) and not _is_ndarray(values):
        values = _full(len(codes), values)
    return codes, _broadcast_values(codes, values)


def _count_distinct(pieces, ngroups: int) -> list:
    """Per-group count of distinct values over ``(codes, values)`` pieces.

    Values are coded densely (:func:`_dense_codes`), each pair packs into
    ``code * nvalues + value code``, and one sort with a neighbour
    comparison keeps every distinct pair once.
    """
    if _np is None:
        pairs = {pair for codes, values in pieces for pair in zip(codes, values)}
        out = [0] * ngroups
        for code, _ in pairs:
            out[code] += 1
        return out
    if not pieces:
        return [0] * ngroups
    codes = _np.concatenate([c for c, _ in pieces])
    vcodes, nvalues = _dense_codes(_concat_arrays([v for _, v in pieces]))
    pairs = _np.sort(codes * nvalues + vcodes)
    first = _np.empty(len(pairs), dtype=bool)
    first[:1] = True
    _np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    return _np.bincount(pairs[first] // max(nvalues, 1), minlength=ngroups).tolist()


def group_state(nkeys: int, nslots: int) -> list:
    """The kept batches of a grouped aggregation: one list of per-batch
    chunks per key and per slot (see :func:`group_add`)."""
    return [[] for _ in range(nkeys + nslots)]


def group_add(state: list, grouped, *partials) -> None:
    """Keep one batch's group keys (its :func:`v_group` result) and its
    slot partials (``v_group_*`` results, one per slot)."""
    for chunks, chunk in zip(state, (*grouped[2:], *partials)):
        chunks.append(chunk)


def group_merge(state: list, folds: Sequence[str], batch: bool = False) -> list:
    """Merge the kept batches: ``[ngroups, keys_0.., slot_0..]``, every
    key and slot one column over the groups -- a batch with ``batch``, a
    list of plain Python values (the per-group emit loop's) without.

    One :func:`v_group` over every batch's group keys finds the groups;
    slot ``s`` combines its partials by ``folds[s]`` -- ``"sum"``,
    ``"min"`` or ``"max"`` through the matching ``v_group_*`` kernel, and
    ``"distinct"`` (the ``(group, value)`` pairs of a ``count(distinct)``)
    by mapping each batch's group ids to merged ones, deduplicating once
    and counting per group.
    """
    nkeys = len(state) - len(folds)
    keys = [_concat(chunks) for chunks in state[:nkeys]]
    grouped = v_group(len(keys[0]), *keys)
    codes, ngroups = grouped[0], grouped[1]
    offsets = list(itertools.accumulate((len(c) for c in state[0]), initial=0))
    reduce = {"sum": v_group_sum, "min": v_group_min, "max": v_group_max}
    slots = []
    for fold, chunks in zip(folds, state[nkeys:]):
        if fold == "distinct":
            pieces = [
                (v_take(codes, _shift(local, base)), values)
                for base, (local, values) in zip(offsets, chunks)
            ]
            slots.append(_count_distinct(pieces, ngroups))
        else:
            slots.append(reduce[fold](codes, ngroups, _concat(chunks)))
    convert = _as_batch if batch else _to_list
    return [ngroups, *(convert(c) for c in (*grouped[2:], *slots))]


def _as_batch(values):
    return _column(values) if isinstance(values, list) else values


def _shift(positions, base: int):
    if _is_ndarray(positions):
        return positions + base
    return [p + base for p in positions]


def _concat(chunks: list):
    """Per-batch values (arrays or lists) as one batch."""
    if chunks and all(_is_ndarray(c) for c in chunks):
        return _concat_arrays(chunks)
    return _column(list(itertools.chain.from_iterable(chunks)))


def _concat_arrays(arrays: list):
    """One array from several; when some hold ``str`` objects, the ``S``
    pieces decode first, so bytes and ``str`` never share an array."""
    kinds = {a.dtype.kind for a in arrays}
    if "S" in kinds and kinds & {"O", "U"}:
        arrays = [_str_objects(a) if a.dtype.kind == "S" else a for a in arrays]
    return _np.concatenate(arrays)


def _column(values: list):
    """A list of plain values as a batch; strings get the layout storage
    would give a column of them (:func:`typed_strings`)."""
    if _np is None:
        return values
    if values and isinstance(values[0], str):
        typed = typed_strings(values)
        return typed if typed is not None else _np.asarray(values, dtype=object)
    return _np.asarray(values)


# -- batch hash joins and key sets ---------------------------------------------
#
# A batch hash join (or semi/anti join key set) keeps its build side as
# columns.  The build loop appends one ``(n, key.., col..)`` tuple per batch,
# or one ``(key.., col..)`` tuple per row when the build side runs row at a
# time; :func:`join_finish` runs once, after the loop, and turns them into
# columns plus a :class:`JoinIndex`.  Probing is one kernel per probe batch:
# :func:`v_join_probe` returns the matching (build row, probe row) pairs --
# in probe order, each probe row's matches in build-insertion order, which
# is exactly the order a scalar multimap's bucket walk produces -- and
# :func:`v_join_contains` the key-set membership mask.  A left outer join
# probes with :func:`v_join_probe_outer`, which also keeps every probe row
# that matches nothing, paired with build row -1.

def join_finish(
    state: list, nkeys: int, ncols: int, batched: bool, outer: bool = False
) -> tuple:
    """The build side after its loop: ``(index, col_0, col_1, ...)``.

    An outer join's columns end in one placeholder row: the unmatched
    probe rows gather it through build row -1, and their validity mask
    hides it.
    """
    width = nkeys + ncols
    if batched:
        columns = [
            _concat_batches([(piece[0], piece[1 + j]) for piece in state])
            for j in range(width)
        ]
    else:
        columns = [_column([row[j] for row in state]) for j in range(width)]
    payload = columns[nkeys:]
    if outer:
        payload = [_with_placeholder(column) for column in payload]
    return (JoinIndex(columns[:nkeys]), *payload)


def _with_placeholder(column):
    if _np is None:
        return [*column, None]
    return _np.concatenate([column, _np.zeros(1, dtype=column.dtype)])


def _concat_batches(pieces: list):
    """``(n, batch-or-broadcast-scalar)`` pieces as one column."""
    if _np is None:
        return list(itertools.chain.from_iterable(
            value if _is_batch(value) else [value] * n for n, value in pieces
        ))
    arrays = [value if _is_ndarray(value) else _full(n, value) for n, value in pieces]
    if not arrays:
        return _np.empty(0, dtype=_np.int64)
    return _concat_arrays(arrays)


def _full(n: int, value):
    """A broadcast scalar as an array of ``n`` rows, in the layout a
    column of it would get."""
    if isinstance(value, (bool, int, float)):
        return _np.full(n, value)
    return _np.repeat(_column([value]), n)


def _is_int_array(x) -> bool:
    return _is_ndarray(x) and x.dtype.kind in "iub"


class JoinIndex:
    """Build keys -> build rows, for batch probes.

    Each integer (bool, date) key column is coded densely against its
    distinct build values (:class:`_Codebook`: a direct table for small
    spans, binary search otherwise), and composite keys combine those codes
    by mixed radix -- re-densified whenever the radix outgrows a direct
    table, so no packed key can overflow int64.  The combined code indexes
    dense tables: the build row of each code when build keys are unique,
    else a start/count per code into the build rows sorted stably by code.
    Without NumPy, or for keys that are not integers, a dict from key to
    build rows answers instead; both give the same matches in the same
    order.
    """

    def __init__(self, keys: list) -> None:
        self.keys = keys
        self.size = len(keys[0])
        self._dict: Optional[dict] = None
        self._numeric = _np is not None and all(_is_int_array(k) for k in keys)
        if self._numeric and self.size:
            self._build(keys)

    # -- numeric tables -------------------------------------------------------

    def _build(self, keys: list) -> None:
        n = self.size
        self._books: list = []
        self._steps: list = []  # per key: None, or the re-densifying codebook
        codes, radix = None, 1
        for k in keys:
            book = _Codebook(k, _JOIN_SLOTS_PER_ROW)
            self._books.append(book)
            if codes is None:
                codes, radix = book.codes, book.size
            else:
                codes, radix = codes * book.size + book.codes, radix * book.size
            step = None
            if not _direct(radix, n, _JOIN_SLOTS_PER_ROW):
                step = _Codebook(codes, _JOIN_SLOTS_PER_ROW)
                codes, radix = step.codes, step.size
            self._steps.append(step)
        counts = _np.bincount(codes, minlength=radix)
        self._unique = int(counts.max()) <= 1
        if self._unique:
            self._row_of = _np.full(radix, -1, dtype=_np.int64)
            self._row_of[codes] = _np.arange(n)
        else:
            self._counts = counts
            self._starts = _np.cumsum(counts) - counts
            # stable by code: ties (equal keys) keep build-insertion order
            self._order = _np.argsort(codes * n + _np.arange(n))

    def _slots(self, keys: list, n: int):
        """Each probe row's table slot (0 where absent), and whether its
        key occurs on the build side at all."""
        valid = _np.ones(n, dtype=bool)
        codes = None
        for k, book, step in zip(keys, self._books, self._steps):
            kcodes, valid = book.encode(k, valid)
            codes = kcodes if codes is None else codes * book.size + kcodes
            if step is not None:
                codes, valid = step.encode(codes, valid)
        return codes, valid

    def _probe_keys(self, keys: list, n: int):
        """The probe keys as int64-able arrays, or None (use the dict)."""
        if not self._numeric:
            return None
        out = []
        for k in keys:
            if not _is_batch(k):
                if not isinstance(k, (bool, int)):
                    return None
                k = _np.full(n, k, dtype=_np.int64)
            if not _is_int_array(k):
                return None
            out.append(k)
        return out

    # -- probes ---------------------------------------------------------------

    def probe(self, keys: list, n: int, outer: bool = False):
        """Matching ``(build rows, probe rows)`` in probe order, each probe
        row's matches in build-insertion order.  With ``outer``, a probe
        row that matches nothing appears once, in its place, with build
        row -1."""
        arrays = self._probe_keys(keys, n)
        if arrays is None:
            return self._probe_dict(keys, n, outer)
        if self.size == 0 or n == 0:
            if outer:
                return _np.full(n, -1, dtype=_np.int64), _np.arange(n)
            empty = _np.empty(0, dtype=_np.int64)
            return empty, empty
        slots, valid = self._slots(arrays, n)
        if self._unique:
            rows = _np.where(valid, self._row_of[slots], -1)
            if outer:
                return rows, _np.arange(n)
            probe_rows = _np.flatnonzero(rows >= 0)
            return rows[probe_rows], probe_rows
        counts = _np.where(valid, self._counts[slots], 0)
        starts = self._starts[slots]
        taken = counts
        if outer:
            # an unmatched row takes one output slot, gathering build row 0
            # there (any in-range row) until it is set to -1 below
            taken = _np.maximum(counts, 1)
            starts = _np.where(counts > 0, starts, 0)
        probe_rows = _np.repeat(_np.arange(n), taken)
        run_starts = _np.repeat(_np.cumsum(taken) - taken, taken)
        within = _np.arange(len(probe_rows)) - run_starts
        build_rows = self._order[_np.repeat(starts, taken) + within]
        if outer:
            build_rows[_np.repeat(counts == 0, taken)] = -1
        return build_rows, probe_rows

    def contains(self, keys: list, n: int):
        """Per probe row: does any build row carry its key?"""
        arrays = self._probe_keys(keys, n)
        if arrays is None:
            table = self._lookup()
            return _index_list(
                [key in table for key in _key_rows(keys, n)], dtype=bool
            )
        if self.size == 0:
            return _np.zeros(n, dtype=bool)
        slots, valid = self._slots(arrays, n)
        if self._unique:
            return valid & (self._row_of[slots] >= 0)
        return valid & (self._counts[slots] > 0)

    # -- the dict form ----------------------------------------------------------

    def _lookup(self) -> dict:
        if self._dict is None:
            table: dict = {}
            for row, key in enumerate(_key_rows(self.keys, self.size)):
                table.setdefault(key, []).append(row)
            self._dict = table
        return self._dict

    def _probe_dict(self, keys: list, n: int, outer: bool):
        table = self._lookup()
        build_rows: list = []
        probe_rows: list = []
        unmatched = [-1] if outer else []
        for i, key in enumerate(_key_rows(keys, n)):
            for row in table.get(key, unmatched):
                build_rows.append(row)
                probe_rows.append(i)
        return _index_list(build_rows), _index_list(probe_rows)


def _key_rows(keys: list, n: int) -> list:
    """Per-row keys: the value for one key column, a tuple for several."""
    cols = _as_lists(n, keys)
    if len(cols) == 1:
        return cols[0]
    return list(zip(*cols))


def _index_list(values: list, dtype=None):
    if _np is None:
        return values
    return _np.asarray(values, dtype=dtype or _np.int64)


def v_join_probe(index, n, *keys):
    """One probe batch against a finished build: ``(build_rows,
    probe_rows)``, the gather positions of every match (see
    :meth:`JoinIndex.probe`)."""
    return index[0].probe(list(keys), n)


def v_join_probe_outer(index, n, *keys):
    """:func:`v_join_probe` for a left outer join: each probe row that
    matches nothing is kept, in probe order, with build row -1."""
    return index[0].probe(list(keys), n, outer=True)


def v_join_contains(index, n, *keys):
    """One probe batch against a finished key set: the membership mask."""
    return index[0].contains(list(keys), n)


# -- global (ungrouped) reductions -------------------------------------------
#
# Each takes the row count ``n`` explicitly because ``values`` may be a
# broadcast scalar.  All are empty-safe: the residual program computes them
# unconditionally and gates the *use* of the result on ``n != 0``.


def v_sum(values, n):
    if not _is_batch(values):
        return values * n
    if _is_ndarray(values):
        total = values.sum()
        return int(total) if values.dtype.kind in "iub" else float(total)
    return sum(values)


def v_fsum(values, n):
    if not _is_batch(values):
        return float(values) * n
    if _is_ndarray(values):
        return float(values.sum())
    return float(sum(values))


def v_count_nn(values, n, valid=None):
    """Count of non-None values; with ``valid`` (a null-extended field's
    mask) only of the slots it marks true."""
    if not _is_batch(values):
        return n if values is not None else 0
    if _is_ndarray(values) and values.dtype != object:
        return len(values) if valid is None else v_sum(valid, n)
    return sum(_present(_to_list(values), valid))


def v_min(values, n):
    if not _is_batch(values):
        return values if n else None
    if len(values) == 0:
        return None
    if _is_numeric(values):
        out = values.min()
        return int(out) if values.dtype.kind in "iub" else float(out)
    return min(_to_list(values))


def v_max(values, n):
    if not _is_batch(values):
        return values if n else None
    if len(values) == 0:
        return None
    if _is_numeric(values):
        out = values.max()
        return int(out) if values.dtype.kind in "iub" else float(out)
    return max(_to_list(values))


# -- kernel invocation observer -----------------------------------------------
#
# EXPLAIN ANALYZE on a vector program wants to know which kernels fired and
# over what batch sizes.  Rather than staging counters into the residual
# source (which would break the byte-identity contract between observed and
# unobserved runs), every ``v_*`` kernel is wrapped once at import time; the
# wrapper reports ``(name, batch_len, args)`` to an installable observer.
# With no observer installed the overhead is one ``is None`` check per kernel
# call -- and kernels run once per *batch*, not per row, so it never touches
# the hot path.  Nested kernels (``v_group_count_nn`` delegates to
# ``v_group_count`` or ``v_group_sum`` on the typed-array path) report both
# invocations.

_KERNEL_OBSERVER = None


def set_kernel_observer(observer):
    """Install ``observer(name, batch_len, args)`` -- ``batch_len`` is the
    length of the kernel's first batch argument, ``args`` all of them;
    returns the previous observer."""
    global _KERNEL_OBSERVER
    previous = _KERNEL_OBSERVER
    _KERNEL_OBSERVER = observer
    return previous


def _observed(name, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        result = fn(*args)
        if _KERNEL_OBSERVER is not None:
            batch_len = 0
            for arg in args:
                if _is_batch(arg):
                    batch_len = len(arg)
                    break
            _KERNEL_OBSERVER(name, batch_len, args)
        return result

    return wrapper


for _name in list(globals()):
    if _name.startswith("v_"):
        globals()[_name] = _observed(_name, globals()[_name])
del _name
