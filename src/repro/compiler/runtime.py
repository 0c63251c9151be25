"""Runtime helpers available to generated code under the name ``rt``.

Two kinds live here.  The first mirrors LB2's tiny C support layer
(timing, printing, sorting): scalar programs emit their per-tuple hot path
inline and route only per-query, cold operations (sorting a result buffer,
building a comparison key, a budget checkpoint) through ``rt``.  The
second is the batch lowering's kernels (``v_*``, ``join_finish``,
``group_state`` / ``group_merge``): a batch program's hot path *is* these
calls, one per batch and operation -- predicates, gathers, join probes,
grouping and aggregate folds -- over NumPy arrays.  The batch lowering
requires NumPy; this module still imports without it, since scalar
programs call the helpers of the first kind.
"""

from __future__ import annotations

import functools
import math as _math
import re
import threading
from time import perf_counter as _perf_counter
from typing import Optional, Sequence


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
# loops.  Operands are ``numpy.ndarray`` (the ``repro[fast]`` extra, which
# ``make_backend`` requires for that config); either operand of a binary
# kernel may also be a plain Python scalar (a broadcast constant).  All
# kernels are pure: they allocate fresh outputs and never mutate their
# inputs.
#
# String columns arrive in the fixed-width ``S{w}`` layout storage gives
# ASCII text (``repro.storage.buffer.typed_strings``), else as object
# arrays.  ``w`` is a word width -- 1, 2, 4 or a multiple of 8 -- so a
# typed batch is also, with no copy, an ``(n, k)`` array of unsigned
# integer words (:func:`_word_view`), and every ``S`` batch a kernel makes
# keeps that width.  Equality (and ``IN``, staged as ORed equalities),
# prefix ``LIKE`` and group keys run on the words; a ``str`` operand is
# padded and packed once per call.  Range compares and the other ``LIKE``
# shapes work on the bytes.  Strings decode back to ``str`` at one
# boundary -- wherever values leave a batch (:func:`v_tolist`, the group
# keys a merge hands to a row loop, a global min/max).  ``bytes`` never
# reach a result row, a scalar hash-map key or a comparison with a
# ``str``.

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy tests
    _np = None

from repro.plan.physical import PlanError
from repro.storage.buffer import typed_strings, word_width

#: NumPy's string functions (``np.strings`` from NumPy 2, ``np.char``
#: before it).
_np_strings = None if _np is None else getattr(_np, "strings", None) or _np.char


def have_numpy() -> bool:
    """True when the optional ``repro[fast]`` acceleration is available."""
    return _np is not None


def _is_batch(x) -> bool:
    """An array, as opposed to a broadcast scalar."""
    return isinstance(x, _np.ndarray)


def _is_bytes(x) -> bool:
    """An ``S{w}`` batch: ASCII strings in the fixed-width layout."""
    return _is_batch(x) and x.dtype.kind == "S"


def _is_numeric(x) -> bool:
    return _is_batch(x) and x.dtype.kind in "iubf"


def _to_list(a) -> list:
    """A batch as a list of plain Python values, strings as ``str``.

    Typed strings decode value by value: on 1- to 32 768-row batches that
    takes 0.3-0.6 of the time of converting to a ``U`` array first (5.0
    against 8.0 ms at 32 768 rows of a 7-byte column), and it allocates
    no 4-byte-per-character temporary.
    """
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
    if _is_batch(b) and b.dtype.kind in "OU":
        return _str_objects(a), b
    return a, b


def _word_view(a):
    """An ``S{w}`` batch as an ``(n, k)`` array of little-endian unsigned
    integer words: ``uint8``, ``uint16`` or ``uint32`` when ``w`` is 1, 2
    or 4 (``k = 1``), else ``uint64`` (``k = w / 8``).  No copy
    for a contiguous batch of a word width, the only kind storage and the
    kernels make; any other batch is copied into that form first.  ASCII
    bytes are below 128, so a ``uint64`` word is also a non-negative
    ``int64``."""
    width = a.dtype.itemsize
    if width != word_width(width):
        a = a.astype(f"S{word_width(width)}")
        width = a.dtype.itemsize
    word = _word_dtype(width)
    return _np.ascontiguousarray(a).view(word).reshape(len(a), width // word.itemsize)


#: The unsigned integer a typed string of 1, 2 or 4 bytes is; wider ones
#: split into ``uint64`` words.  Little-endian on every platform, so a
#: value's NUL padding is always its words' high bytes.
_WORDS = None if _np is None else {
    width: _np.dtype(f"<u{width}") for width in (1, 2, 4, 8)
}


def _word_dtype(width: int):
    """The unsigned integer a typed string of ``width`` bytes splits into."""
    return _WORDS.get(width) or _WORDS[8]


def _word_match(a, value: bytes, prefix: bool = False):
    """Rows of the typed batch ``a`` equal to ``value`` -- with ``prefix``,
    starting with it -- compared as words.  ``value`` is padded with NULs
    and packed once; a prefix's last word is masked to its bytes.  A value
    longer than the batch's width matches nothing."""
    words = _word_view(a)
    n, k = words.shape
    size = words.dtype.itemsize
    if len(value) > k * size:
        return _np.zeros(n, dtype=bool)
    used = -(-len(value) // size) if prefix else k  # a prefix is never empty
    key = _np.frombuffer(value.ljust(used * size, b"\0"), dtype=words.dtype)
    mask = None
    for j in range(used):
        column = words[:, j]
        tail = len(value) - j * size
        if prefix and tail < size:
            column = column & _np.frombuffer(
                (b"\xff" * tail).ljust(size, b"\0"), dtype=words.dtype
            )[0]
        if mask is None:
            mask = column == key[j]
        else:
            mask &= column == key[j]
    return mask


def _rows_equal(a, b):
    """Row-wise equality of two typed batches of one dtype, on words."""
    x, y = _word_view(a), _word_view(b)
    mask = x[:, 0] == y[:, 0]
    for j in range(1, x.shape[1]):
        mask &= x[:, j] == y[:, j]
    return mask


def _text_eq(a, b, negate: bool):
    """``a == b`` (``!=`` with ``negate``) where an operand is a typed
    batch: on words when the other is a ``str`` the batch could hold or a
    batch of the same dtype, else through :func:`_text_pair`."""
    if not _is_bytes(a):
        a, b = b, a
    mask = None
    if isinstance(b, str):
        encoded = _ascii(b)
        if encoded is not None:
            mask = _word_match(a, encoded)
    elif _is_bytes(b) and b.dtype == a.dtype:
        mask = _rows_equal(a, b)
    if mask is None:
        a, b = _text_pair(a, b)
        return a != b if negate else a == b
    return ~mask if negate else mask


def _ew(a, b, op):
    """Elementwise binary kernel body; a typed string batch meets its
    other operand through :func:`_text_pair`."""
    if _is_bytes(a) or _is_bytes(b):
        a, b = _text_pair(a, b)
    return op(a, b)


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
    if _is_bytes(a) or _is_bytes(b):
        return _text_eq(a, b, False)
    return a == b


def v_ne(a, b):
    if _is_bytes(a) or _is_bytes(b):
        return _text_eq(a, b, True)
    return a != b


def v_lt(a, b):
    return _ew(a, b, lambda x, y: x < y)


def v_le(a, b):
    return _ew(a, b, lambda x, y: x <= y)


def v_gt(a, b):
    return _ew(a, b, lambda x, y: x > y)


def v_ge(a, b):
    return _ew(a, b, lambda x, y: x >= y)


def v_and(a, b):
    return a & b


def v_or(a, b):
    return a | b


def v_not(a):
    return ~a


def v_neg(a):
    return -a


# -- selection ----------------------------------------------------------------


def v_mask_index(mask):
    """Row positions where ``mask`` is true (the selection vector)."""
    return _np.nonzero(mask)[0]


def v_take(a, idx):
    """Gather ``a`` at positions ``idx``; scalars broadcast through."""
    if not _is_batch(a):
        return a
    return a.take(idx)


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


# -- SUBSTRING ------------------------------------------------------------------


def v_substr(values, lo: int, hi: int):
    """``substring`` over a batch of strings: characters ``lo:hi`` of each
    value, the bounds :func:`repro.plan.expressions.substring_bounds` gives.

    A typed (``S{w}``) batch holds one byte per character, so it copies
    bytes ``lo:hi`` through a ``uint8`` view into a batch of the next word
    width (:func:`repro.storage.buffer.word_width`); a value shorter than
    ``hi`` ends at its last byte, because ``S`` drops the NUL padding.  Any
    other batch slices value by value, as the scalar lowering does.
    """
    if values.dtype.kind != "S":
        return _np.array([v[lo:hi] for v in _to_list(values)], dtype=object)
    n, width = len(values), values.dtype.itemsize
    hi = min(hi, width)
    if hi <= lo:
        return _np.zeros(n, dtype="S1")  # every value empty
    data = _np.ascontiguousarray(values).view(_np.uint8).reshape(n, width)
    out = _np.zeros((n, word_width(hi - lo)), dtype=_np.uint8)
    out[:, : hi - lo] = data[:, lo:hi]
    return out.view(f"S{out.shape[1]}").ravel()


# -- LIKE -----------------------------------------------------------------------


def v_like(values, pattern: str, negate: bool):
    """SQL ``[NOT] LIKE`` over a batch of strings, specialized by pattern
    shape exactly as the scalar lowering is (``_like_shape``).

    On a typed (``S``) batch, an ``exact`` or ``prefix`` pattern compares
    words (:func:`_word_match`; a prefix over the 2 000 rows of ``p_name``
    took 12 us, against 47 us for ``np.strings.startswith``, and 11
    against 16 us on ``p_type``).  The other
    shapes, and a unicode batch, are scanned with NumPy's string
    functions -- ``startswith``, ``endswith``, ``find``; for ``%a%b%``,
    ``b`` is searched after ``a``'s first occurrence only in the rows
    holding ``a``.  On q13's ``o_comment`` (``S85``, 15 000 rows) that
    took 1.5 ms, against 2.8 ms for a Python loop over its ``str`` values
    and 3.0 ms for a second ``find`` over every row.  An object batch and
    the generic shape (``_``, or ``%`` inside the text) run the
    interpreters' per-value test, whose generic case is :func:`like` --
    as does a pattern holding a NUL, which NumPy's strings would drop.
    """
    from repro.plan.expressions import _like_shape, like_predicate

    shape, parts = _like_shape(pattern)
    if values.dtype.kind in "SU" and shape != "generic" and "\0" not in pattern:
        mask = _like_strings(values, shape, parts)
    else:
        test = like_predicate(pattern)
        mask = _np.asarray([test(v) for v in _to_list(values)], dtype=bool)
    return ~mask if negate else mask


def _like_strings(values, shape: str, parts: tuple):
    if values.dtype.kind == "S":
        encoded = tuple(_ascii(p) for p in parts)
        if None in encoded:
            values = values.astype(str)  # a part no ASCII value holds
        elif shape in ("exact", "prefix"):
            return _word_match(values, encoded[0], shape == "prefix")
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


#: Odd multiplier folding a wide string's words into one 64-bit hash.
_WORD_MIX = None if _np is None else _np.uint64(0x9E3779B97F4A7C15)


def _words(a):
    """An ``S{w}`` batch with ``w`` at most 8 as one integer word per value:
    a view (:func:`_word_view`; ``int64`` for 8 bytes, the narrower words
    widen on use like any integer column).  A value's little-endian word
    does not depend on the width it is stored at -- the NUL padding is its
    high bytes -- but only one-byte words order as the values do
    (:func:`_ordered_words`)."""
    words = _word_view(a)[:, 0]
    return words.view("<i8") if words.dtype.itemsize == 8 else words


def _ordered_words(a):
    """An ``S{w}`` batch with ``w`` at most 8 as big-endian ``int64`` words,
    which compare as the values do: a copy, made for the few groups a
    merge orders."""
    return _words(a).byteswap().astype(_np.int64)


def _string_codes(a):
    """Dense codes of an ``S{w}`` batch: ``(codes, size)``.

    Up to 8 bytes wide, a value is one integer word (:func:`_words`), so a
    :class:`_Codebook` codes q1's one-character flags by direct table.  A
    wider value's ``uint64`` words (a view) fold into one 64-bit hash,
    which one codebook codes; checking every value's words against its
    group's first value's makes the codes exact, and on a hash collision
    the values themselves are sorted (``np.unique``).  Measured on 100- to
    32 768-row batches of 18- to 72-byte values, feeding the words to
    ``_group_codes`` as composite keys instead costs 1.5-6x the hash (a
    codebook per word), unless the leading words never vary
    (``Customer#...`` names: 0.7-0.9x).
    """
    if a.dtype.itemsize <= 8:
        book = _Codebook(_words(a))
        return book.codes, book.size
    words = _word_view(a)
    mixed = words[:, 0].copy()
    for j in range(1, words.shape[1]):
        mixed *= _WORD_MIX
        mixed += words[:, j]
    book = _Codebook(mixed.view(_np.int64))
    if (words[book.reps[book.codes]] == words).all():
        return book.codes, book.size
    values, codes = _np.unique(a, return_inverse=True)
    return codes.ravel(), len(values)


#: Below this many rows a typed string column is coded by hashing its
#: values in a dict, like an object column: :func:`_string_codes` has a
#: fixed cost of ~16-22 us, which batches of a few rows past a selective
#: join (q5 groups 2- to 32-row batches by ``n_name``) never earn back;
#: measured, the two cross over between 128 and 256 rows.  Viewing the
#: values as words instead of copying them left that cost where it was:
#: it is the codebook's, not the packing's.
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


def _direct(
    span: int, n: int, per_row: int = _DIRECT_SLOTS_PER_ROW, floor: int = _DIRECT_SLOTS_MIN
) -> bool:
    return span <= _direct_bound(n, per_row, floor)


def _direct_bound(n: int, per_row: int, floor: int) -> int:
    return min(max(per_row * n, floor), _DIRECT_SLOTS_MAX)


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
    codes, ngroups, first = _group_codes(n, keys)
    return (codes, ngroups, *(k[first] for k in keys))


#: Integer sums stay exact in float64 below the first bound, in int64
#: below the second, and in Python ints past it.
_EXACT_FLOAT = 1 << 53
_INT64_LIMIT = 1 << 63


def _int_bound(values) -> int:
    """The largest magnitude in an integer (or bool) array, as a Python
    int (``int64``'s minimum has none in int64)."""
    if not len(values):
        return 0
    return max(int(values.max()), -int(values.min()))


def _batch_of(n: int, value):
    """A key or value operand as an array of ``n`` rows."""
    if _is_batch(value):
        return value
    return _full(n, value)


def v_group_sum(codes, ngroups, values):
    """Per-group sums of one batch over dense ``codes``.  Integer sums are
    exact: float ``bincount`` weights while no sum can reach 2**53, int64
    while none can reach 2**63, and Python ints past that."""
    values = _batch_of(len(codes), values)
    if values.dtype.kind == "f":
        return _np.bincount(codes, weights=values, minlength=ngroups)
    if values.dtype.kind not in "iub":
        dtype = object
    else:
        bound = _int_bound(values) * len(values)
        if bound < _EXACT_FLOAT:
            sums = _np.bincount(codes, weights=values, minlength=ngroups)
            return sums.astype(_np.int64)
        dtype = _np.int64 if bound < _INT64_LIMIT else object
    out = _np.zeros(ngroups, dtype=dtype)
    _np.add.at(out, codes, values.astype(dtype))
    return out


# -- the group table ------------------------------------------------------------
#
# A grouped aggregation over batches keeps one group table
# (:func:`group_state`) from its first batch to its merge.  Per batch,
# :func:`v_group_ids` gives every row the *global* id of its group
# (:class:`GroupTable`), and one ``v_agg_*`` kernel per aggregate slot
# folds the batch straight into that slot's accumulator, an array over all
# groups.  :func:`group_merge` then only orders the groups and hands out
# their keys and slots.  No batch's groups are kept apart, and none is
# grouped twice.
#
# The generator decides the table's form.  When it traces every key to a
# base column it passes each column's load-time bounds (``db.bounds``), and
# the table is *static*: laid out once over their product (:class:`_Span`),
# a group's id is the mixed-radix offset of its keys, with no lookup.  A
# ``count(distinct)`` value with bounds is coded the same way.
#
# Otherwise the table is *coded* from its first batch.  The first key gives
# the ids through a :class:`_Values` codebook; every later key is first
# assumed *dependent*: determined by the keys that tell the groups apart so
# far.  It is checked -- one vectorized compare against the value each
# group stored when it was created -- and not coded.  The first batch where
# the check fails promotes it: it gets its own codebook, and a
# :class:`_Pairs` table combines (group so far, its code) into the group
# id.  Every existing group maps to itself, since the key was constant
# within each of them.  q10's seven keys are ``c_custkey`` plus six
# columns it determines.


class _Grow:
    """A growable array: ``data[:n]`` holds the values, capacity doubles."""

    __slots__ = ("data", "n")

    def __init__(self) -> None:
        self.data = None
        self.n = 0

    def view(self):
        if self.data is None:
            return _EMPTY
        return self.data[: self.n]

    def extend(self, values) -> None:
        if self.data is not None and values.dtype != self.data.dtype:
            # a wider string, or text next to bytes: one array for both
            self.data = _concat_arrays([self.view(), values])
            self.n = len(self.data)
            return
        end = self.n + len(values)
        if self.data is None or end > len(self.data):
            grown = _np.empty(max(2 * end, 16), dtype=values.dtype)
            grown[: self.n] = self.view()
            self.data = grown
        self.data[self.n : end] = values
        self.n = end


#: Multiplier of the open-addressing hash (Fibonacci hashing).
_HASH_MIX = None if _np is None else _np.uint64(0x9E3779B97F4A7C15)


class _IdMap:
    """int64 keys -> dense ids ``0 .. size - 1``, a new key taking the
    next id.

    While the keys' span obeys :func:`_direct` over the rows the owner has
    seen, a direct table maps ``key - lo`` to 1 + its id (0 where absent:
    a fresh table is calloc'ed zeros, so pages no key reaches are never
    written); it grows with as much room again on the side the keys grew
    past, so keys
    arriving in increasing or decreasing order cost amortized linear time.
    Past the bound the map uses open addressing: linear probing at a load
    of at most one half, run as vectorized rounds over the rows still
    unresolved.  It moves (back) to a direct table once the rows seen
    allow the span: the first batches of a selective input are short.
    Either way a batch costs time linear in its rows (plus, when a table
    grows or changes form, the keys it holds).
    """

    def __init__(
        self, per_row: int = _DIRECT_SLOTS_PER_ROW, floor: int = _DIRECT_SLOTS_MIN
    ) -> None:
        self.per_row, self.floor = per_row, floor
        self.size = 0
        self.keys = _Grow()  # the key of each id
        self.table = None  # direct: 1 + id per key - lo, 0 where absent
        self.lo = self.klo = self.khi = 0
        self.slots = None  # open addressing: id per slot, -1 where empty
        self.slot_keys = None
        self.shift = None

    @classmethod
    def of(cls, keys, rows: int, *rule: int) -> "_IdMap":
        """A map whose ``i``-th key (all distinct) has id ``i`` (``rule``:
        the direct table's slots per row and floor)."""
        ids = cls(*rule)
        if len(keys):
            ids.keys.extend(keys)
            ids.size = len(keys)
            ids.klo, ids.khi = int(keys.min()), int(keys.max())
            ids._covers(keys, rows)
        return ids

    def ids(self, keys, rows: int):
        """``(ids, new_rows)``: every key's id, and one row per id this
        call created, in id order."""
        if not len(keys):
            return _EMPTY, _EMPTY
        if self._covers(keys, rows):
            return self._direct_ids(keys)
        return self._probe(keys)

    def _added(self, keys) -> None:
        self.keys.extend(keys)
        self.size += len(keys)

    # -- the direct table -------------------------------------------------------

    def _covers(self, keys, rows: int) -> bool:
        """Does the direct table hold ``keys``' span (grown, or built from
        the open-addressing slots once the rows seen allow it)?  When it
        cannot, the map uses open addressing."""
        lo, hi = int(keys.min()), int(keys.max())
        table = self.table
        if table is not None and self.lo <= lo and hi < self.lo + len(table):
            self.klo, self.khi = min(lo, self.klo), max(hi, self.khi)
            return True
        if self.size:
            lo, hi = min(lo, self.klo), max(hi, self.khi)
        self.klo, self.khi = lo, hi
        span = hi - lo + 1
        bound = _direct_bound(rows, self.per_row, self.floor)
        if span > bound:
            if self.slots is None:
                self._rehash(self.size + len(keys))
            return False
        self.slots = self.slot_keys = None
        room = min(span, bound - span)
        down = table is None or lo < self.lo
        up = table is None or hi >= self.lo + len(table)
        below = room if not up else room // 2 if down else 0
        self.lo = lo - below
        # zeros: the pages no key touches are never written (calloc)
        self.table = _np.zeros(span + room, dtype=_np.int32)
        if self.size:
            self.table[self.keys.view() - self.lo] = _np.arange(1, self.size + 1)
        return True

    def _direct_ids(self, keys):
        table, offsets = self.table, keys - self.lo
        held = table[offsets]
        missing = _np.flatnonzero(held == 0)
        if not len(missing):
            return _np.subtract(held, 1, dtype=_np.int64), _EMPTY
        slots = offsets[missing]
        # one row per new key: of the rows sharing a slot, the last write wins
        marks = _np.arange(1, len(missing) + 1, dtype=_np.int32)
        table[slots] = marks
        first = missing[table[slots] == marks]
        table[offsets[first]] = _np.arange(self.size + 1, self.size + 1 + len(first))
        self._added(keys[first])
        return _np.subtract(table[offsets], 1, dtype=_np.int64), first

    # -- open addressing ----------------------------------------------------------

    def _rehash(self, need: int) -> None:
        capacity = 64
        while capacity < 2 * need:
            capacity *= 2
        self.table = None
        self.slots = _np.full(capacity, -1, dtype=_np.int64)
        self.slot_keys = _np.zeros(capacity, dtype=_np.int64)
        self.shift = _np.uint64(65 - capacity.bit_length())
        if self.size:
            self._place(self.keys.view(), _np.arange(self.size))

    def _slot_of(self, keys):
        return ((keys.view(_np.uint64) * _HASH_MIX) >> self.shift).astype(_np.intp)

    def _claim(self, at, free):
        """Of the rows ``free`` (positions into ``at``) probing empty
        slots, one per slot wins it: the positions of the winners."""
        claimed = at[free]
        marks = -2 - free
        self.slots[claimed] = marks
        return free[self.slots[claimed] == marks]

    def _place(self, keys, ids) -> None:
        """Insert distinct, absent ``keys`` with the given ``ids``."""
        mask = len(self.slots) - 1
        at, todo = self._slot_of(keys), _np.arange(len(keys))
        while len(todo) > _PROBE_TAIL:
            free = _np.flatnonzero(self.slots[at] < 0)
            won = self._claim(at, free) if len(free) else _EMPTY
            self.slots[at[won]] = ids[todo[won]]
            self.slot_keys[at[won]] = keys[todo[won]]
            keep = _np.ones(len(todo), dtype=bool)
            keep[won] = False
            todo, at = todo[keep], (at[keep] + 1) & mask
        slots, slot_keys = self.slots, self.slot_keys
        for at_, key, id_ in zip(at.tolist(), keys[todo].tolist(), ids[todo].tolist()):
            while slots[at_] >= 0:
                at_ = (at_ + 1) & mask
            slots[at_], slot_keys[at_] = id_, key

    def _probe(self, keys):
        n = len(keys)
        if 2 * (self.size + n) > len(self.slots):
            self._rehash(self.size + n)
        mask = len(self.slots) - 1
        ids = _np.empty(n, dtype=_np.int64)
        created = []
        at, todo = self._slot_of(keys), _np.arange(n)
        while len(todo) > _PROBE_TAIL:
            k = keys[todo]
            held = self.slots[at]
            done = held >= 0
            done &= self.slot_keys[at] == k
            ids[todo[done]] = held[done]
            move = ~done
            free = _np.flatnonzero(held < 0)
            if len(free):
                won = self._claim(at, free)
                new = _np.arange(self.size, self.size + len(won))
                self.slots[at[won]] = new
                self.slot_keys[at[won]] = k[won]
                ids[todo[won]] = new
                created.append(todo[won])
                self._added(k[won])
                done[won] = True
                # a row that lost an empty slot looks at it again: its
                # winner may hold the same key
                move[free] = False
            at = _np.where(move, (at + 1) & mask, at)
            keep = ~done
            todo, at = todo[keep], at[keep]
        if len(todo):
            created.append(self._probe_rows(keys, todo, at, ids))
        return ids, _np.concatenate(created) if created else _EMPTY

    def _probe_rows(self, keys, todo, at, ids):
        """The last few rows of :meth:`_probe`, one at a time: the rows
        that made ids, in id order."""
        slots, slot_keys, mask = self.slots, self.slot_keys, len(self.slots) - 1
        added: list = []
        rows: list = []
        for row, at_, key in zip(todo.tolist(), at.tolist(), keys[todo].tolist()):
            while True:
                held = int(slots[at_])
                if held < 0:
                    held = self.size + len(added)
                    slots[at_], slot_keys[at_] = held, key
                    added.append(key)
                    rows.append(row)
                    break
                if slot_keys[at_] == key:
                    break
                at_ = (at_ + 1) & mask
            ids[row] = held
        if added:
            self._added(_np.asarray(added, dtype=_np.int64))
        return _np.asarray(rows, dtype=_np.int64)


#: Open addressing probes in vectorized rounds while more than this many
#: rows are unresolved, then row by row: the rounds a batch takes follow
#: its longest probe sequence, and the last ones move a handful of rows.
_PROBE_TAIL = 64


class _Pairs:
    """(id, code) pairs -> dense ids, through an :class:`_IdMap` of ``id *
    radix + code``.  The radix is a power of two above every code, and ids
    and codes stay below the rows seen, so no pair overflows int64; when
    the codes outgrow the radix, the pairs are re-packed under a wider
    one, keeping their ids.

    A pair table codes every row of its input, as a join's key index is
    probed by every probe row, so it may spend as many direct slots per
    row as one, and its floor is 2**18 slots (1 MB): on a 2-core Xeon VM
    a probe of the open-addressing fallback cost 250-450 ns a row,
    against ~1 ns a slot to set up.  q20's (part, supplier) pairs span 28 slots per
    row, 250 000 slots in all, and arrive in ~1 200-row batches."""

    def __init__(self) -> None:
        self.map = _IdMap(*_PAIR_RULE)
        self.radix = 1

    @classmethod
    def of(cls, left, codes, ncodes: int, rows: int) -> "_Pairs":
        """Pairs whose ``i``-th (all distinct) has id ``i``."""
        pairs = cls()
        pairs.radix = _radix(ncodes)
        pairs.map = _IdMap.of(left * pairs.radix + codes, rows, *_PAIR_RULE)
        return pairs

    def ids(self, left, codes, ncodes: int, rows: int):
        if ncodes > self.radix:
            radix, keys = _radix(ncodes), self.map.keys.view()
            self.map = _IdMap.of(
                keys // self.radix * radix + keys % self.radix, rows, *_PAIR_RULE
            )
            self.radix = radix
        return self.map.ids(left * self.radix + codes, rows)


#: A pair table's direct-table rule: slots per row, floor.
_PAIR_RULE = (_JOIN_SLOTS_PER_ROW, 1 << 18)


def _radix(ncodes: int) -> int:
    """The least power of two no smaller than ``ncodes``."""
    return 1 << max(ncodes - 1, 0).bit_length()


#: Set bits per byte value (where NumPy has no ``bitwise_count``).
_POPCOUNT = None if _np is None else _np.array(
    [bin(b).count("1") for b in range(256)], dtype=_np.uint8
)


#: Each bit of a byte, as a byte.
_BIT = None if _np is None else (1 << _np.arange(8)).astype(_np.uint8)


def _popcounts(rows):
    """Set bits per row of a contiguous 2-d ``uint8`` array whose width is
    a power of two: one popcount per word column (a row-wise ``sum`` over
    two-word rows costs several times as much)."""
    n, width = rows.shape
    words = rows.view(_np.dtype(f"u{min(width, 8)}"))
    count = getattr(_np, "bitwise_count", None)
    total = _np.zeros(n, dtype=_np.int64)
    for j in range(words.shape[1]):
        column = _np.ascontiguousarray(words[:, j])
        if count is not None:
            total += count(column)
        else:
            bytes_ = column.view(_np.uint8).reshape(n, -1)
            total += _POPCOUNT[bytes_].sum(axis=1, dtype=_np.int64)
    return total


class _PairBits:
    """The (group, code) pairs a ``count(distinct)`` has seen, one bit
    each: group ``g``'s row of ``radix`` bits (a power of two, at least 8)
    starts at bit ``g * radix``, so a batch folds in with one
    ``bitwise_or.at`` and a group's count is its row's popcount.  Used
    while the bytes obey a pair table's direct rule over the rows seen
    (:class:`_Pairs`); past it the pairs move to a pair table."""

    def __init__(self) -> None:
        self.radix = 8
        self.bits = _np.zeros(0, dtype=_np.uint8)

    @staticmethod
    def fits(ngroups: int, ncodes: int, rows: int) -> bool:
        return _direct(ngroups * max(_radix(ncodes), 8) // 8, rows, *_PAIR_RULE)

    def add(self, ids, codes, ncodes: int, ngroups: int) -> None:
        radix = max(_radix(ncodes), 8)
        if radix != self.radix:
            rows = _np.unpackbits(
                self.bits.reshape(-1, self.radix // 8), axis=1, bitorder="little"
            )
            wide = _np.zeros((len(rows), radix), dtype=_np.uint8)
            wide[:, : self.radix] = rows
            self.bits = _np.packbits(wide, axis=1, bitorder="little").ravel()
            self.radix = radix
        self._cover(ngroups)
        at = ids * radix + codes
        _np.bitwise_or.at(self.bits, at >> 3, _BIT[at & 7])

    def _cover(self, ngroups: int) -> None:
        need = ngroups * self.radix // 8
        if len(self.bits) < need:
            grown = _np.zeros(2 * need, dtype=_np.uint8)
            grown[: len(self.bits)] = self.bits
            self.bits = grown

    def rows(self, ngroups: int):
        self._cover(ngroups)
        return self.bits[: ngroups * self.radix // 8].reshape(ngroups, self.radix // 8)

    def remap(self, old, new, ngroups: int) -> None:
        width = self.radix // 8
        bits = _np.zeros(ngroups * width, dtype=_np.uint8)
        if len(old):
            row = f"V{width}"  # a row as one item: gathers copy whole rows
            rows = self.rows(int(old.max()) + 1).ravel().view(row)
            bits.view(row)[new] = rows[old]
        self.bits = bits

    def counts(self, ngroups: int, order=None):
        rows = self.rows(ngroups)
        return _popcounts(rows if order is None else rows[order])

    def pairs(self, ngroups: int):
        """Every pair seen: ``(groups, codes)``."""
        at = _np.flatnonzero(_np.unpackbits(self.rows(ngroups).ravel(), bitorder="little"))
        return at // self.radix, at % self.radix


def _value_kind(a) -> str:
    kind = a.dtype.kind
    if kind in "iub":
        return "int"
    if kind == "f":
        return "float"
    if kind == "S":
        return "word" if a.dtype.itemsize <= 8 else "bytes"
    return "object"


class _Values:
    """One column's distinct values -> dense codes ``0 .. size - 1`` in
    arrival order, exact for every batch layout:

    * integers through an :class:`_IdMap` of the values, floats of their
      bit patterns (``-0.0`` folded onto ``0.0``), typed strings of at most
      8 bytes of their words (:func:`_words`, which are the same at every
      such width);
    * wider typed strings (as bytes) and object batches through a dict,
      which compares the values themselves.

    A batch in another layout than the first (text after bytes, a wide
    string after a short one, floats after integers) re-codes the kept
    values once into the dict over plain Python values, keeping every
    code.
    """

    def __init__(self) -> None:
        self.size = 0
        self.kind = None
        self.map = _IdMap()
        self.values = _Grow()  # each code's value (the numeric kinds)
        self.index: dict = {}  # value -> code (the dict kinds)

    def codes(self, a, rows: int):
        """``(codes, new_rows)``, as :meth:`_IdMap.ids`."""
        if not len(a):
            return _EMPTY, _EMPTY
        kind = _value_kind(a)
        if self.kind is None:
            self.kind = kind
        elif self.kind != "object" and kind != self.kind:
            self._recode()
        if self.kind == "object":
            return self._dict_codes(_to_list(a))
        if self.kind == "bytes":
            return self._bytes_codes(a)
        if self.kind == "int":
            keys = a.astype(_np.int64, copy=False)
        elif self.kind == "float":
            keys = (a + 0.0).view(_np.int64)
        else:
            keys = _words(a).astype(_np.int64, copy=False)
        codes, new = self.map.ids(keys, rows)
        if len(new):
            self.values.extend(a[new])
            self.size = self.map.size
        return codes, new

    def _bytes_codes(self, a):
        """Wide typed strings: a short batch through the dict row by row; a
        longer one coded by :func:`_string_codes` first (vectorized, exact),
        so only its distinct values meet the dict (q9 groups thousands of
        rows by 25 nation names)."""
        if len(a) < _DICT_CODED_ROWS:
            return self._dict_codes(a.tolist())
        local, size = _string_codes(a)
        first = _np.empty(size, dtype=_np.int64)
        first[local[::-1]] = _np.arange(len(a) - 1, -1, -1)
        codes, new = self._dict_codes(a[first].tolist())
        return codes[local], first[new]

    def ordered(self):
        """The codes in ascending order of their values, when a direct
        table holds integers; else None (a typed string's little-endian
        word does not order as its value)."""
        table = self.map.table
        if self.kind != "int" or table is None:
            return None
        return table[table > 0].astype(_np.int64) - 1

    def _recode(self) -> None:
        if self.kind == "bytes":
            values = [v.decode() for v in self.index]
        else:
            values = _to_list(self.values.view())
        self.index = {v: code for code, v in enumerate(values)}
        self.kind = "object"

    def _dict_codes(self, values: list):
        index = self.index
        get = index.get
        codes: list = []
        new: list = []
        for v in values:
            code = get(v)
            if code is None:
                code = index[v] = len(index)
                new.append(len(codes))
            codes.append(code)
        self.size = len(index)
        return _np.asarray(codes, dtype=_np.int64), _np.asarray(new, dtype=_np.int64)


def _follows(reps, ids, key) -> bool:
    """Does every row's ``key`` equal its group's stored value?  The first
    rows are checked alone first: a key that does not follow usually
    shows it there, without a compare over the whole batch.  Typed
    strings compare as words: the compare of 5 000 rows of ``S88`` took
    17 us, against 350-440 us as bytes."""
    head = _FOLLOW_HEAD
    if len(ids) > head and not _equal(reps[ids[:head]], key[:head]):
        return False
    return _equal(reps[ids], key)


def _equal(a, b) -> bool:
    if _is_bytes(a) and _is_bytes(b) and a.dtype == b.dtype:
        return bool((_word_view(a) == _word_view(b)).all())
    return bool(_ew(a, b, lambda x, y: x == y).all())


#: Rows a dependent-key check compares before the whole batch.
_FOLLOW_HEAD = 64


class _Slot:
    """One aggregate slot's accumulator over the groups (``data[:n]``),
    plus a sum's magnitude bound and a ``count(distinct)``'s codebook and
    (group, value) pairs.  ``exact``: the groups are a static layout's, so
    the accumulator is allocated once at their number, not grown."""

    __slots__ = ("data", "n", "fill", "bound", "values", "pairs", "exact")

    def __init__(self, exact: bool = False) -> None:
        self.data = None
        self.n = 0
        self.fill = 0
        self.bound = 0  # no |sum| in this slot can be larger
        self.values = None
        self.pairs = None
        self.exact = exact

    def view(self, size: int, dtype, fill=0):
        """The accumulator over ``size`` groups; groups new since the last
        fold hold ``fill``."""
        self.fill = fill
        data = self.data
        if data is not None and data.dtype != dtype:
            data = self.data = data.astype(dtype)
        if data is None or len(data) < size:
            grown = _np.full(size if self.exact else max(2 * size, 16), fill, dtype=dtype)
            if data is not None:
                grown[: self.n] = data[: self.n]
            data = self.data = grown
        self.n = size
        return data[:size]

    def dtype(self, default):
        return default if self.data is None else self.data.dtype

    def remap(self, old, new, size: int, rows: int) -> None:
        """Move the groups at ``old`` to ``new``, over ``size`` groups."""
        if self.data is not None:
            if len(old):  # groups no fold has reached yet hold the fill
                self.view(max(self.n, int(old.max()) + 1), self.data.dtype, self.fill)
            data = _np.full(max(size, 16), self.fill, dtype=self.data.dtype)
            data[new] = self.data[old]
            self.data, self.n = data, size
        if isinstance(self.pairs, _PairBits):
            self.pairs.remap(old, new, size)
        elif self.pairs is not None and self.pairs.map.size:
            keys, radix = self.pairs.map.keys.view(), self.pairs.radix
            moved = _np.zeros(int(old.max()) + 1, dtype=_np.int64)
            moved[old] = new
            self.pairs = _Pairs.of(moved[keys // radix], keys % radix, radix, rows)

    def result(self, size: int, order):
        """The slot's groups ``order`` (of ``size``), as the merge hands
        them out."""
        if isinstance(self.pairs, _PairBits):
            return self.pairs.counts(size, order)
        return self.view(size, self.dtype(_np.int64))[order]


def _add_at(acc, ids, values) -> None:
    """``acc[ids] += values`` with repeated ids: one ``bincount`` when
    the groups are no more than the rows, else unbuffered ``add.at``."""
    if len(acc) <= len(ids):
        sums = _np.bincount(ids, weights=values, minlength=len(acc))
        acc += sums if acc.dtype.kind == "f" else sums.astype(acc.dtype)
    else:
        _np.add.at(acc, ids, values)


def _identity(dtype, pick: str):
    """The value a ``min`` (``max``) fold starts a group from."""
    if dtype.kind == "f":
        return _np.inf if pick == "min" else -_np.inf
    if dtype.kind == "b":
        return pick == "min"
    info = _np.iinfo(dtype)
    return info.max if pick == "min" else info.min


class _Span:
    """A base column's values coded over its load-time bounds ``(lo, hi,
    rows)`` (``Database.bounds``): a value's code is ``v - lo``, one of
    ``0 .. size - 1``, with no lookup; a one-byte typed string's value is
    its byte.  The first non-empty batch pins the dtype and is checked
    against the bounds, once; a batch of another dtype gets no codes."""

    __slots__ = ("lo", "size", "dtype")

    def __init__(self, bounds) -> None:
        self.lo = bounds[0]
        self.size = bounds[1] - bounds[0] + 1
        self.dtype = None

    def codes(self, a):
        """``a``'s codes, or None when its dtype does not match."""
        if not len(a):
            return _EMPTY
        dtype = a.dtype
        if dtype != self.dtype and (
            self.dtype is not None
            or not (dtype.kind in "iub" or dtype.kind == "S" and dtype.itemsize == 1)
        ):
            return None
        codes = _np.subtract(_words(a) if dtype.kind == "S" else a, self.lo, dtype=_np.int64)
        if self.dtype is None:
            if codes.min() < 0 or codes.max() >= self.size:
                return None
            self.dtype = dtype
        return codes

    def values(self, codes):
        """The values of ``codes``, in the pinned dtype (int64 before any)."""
        values = codes + self.lo
        if self.dtype is None:
            return values
        if self.dtype.kind == "S":
            return values.astype(_np.uint8).view(self.dtype)
        return values.astype(self.dtype)

    def coder(self, rows: int) -> "_Values":
        """A :class:`_Values` that gives this span's values the codes they
        have here, and codes any other value after them."""
        coder = _Values()
        coder.codes(self.values(_np.arange(self.size)), rows)
        return coder


def _spans(bounds) -> Optional[list]:
    """A static layout over ``bounds``, one :class:`_Span` per key -- or
    None when a key has no bounds, or the product of the spans passes the
    direct bound over the largest key table's rows.  Each key table is
    scanned in full, so the layout's set-up and merge cost at most a
    constant factor of those scans."""
    if not bounds or None in bounds:
        return None
    spans = [_Span(b) for b in bounds]
    if not _direct(_math.prod(s.size for s in spans), max(b[2] for b in bounds)):
        return None
    return spans


class GroupTable:
    """The state of one grouped aggregation (see the comment above), in
    one of two forms, chosen when it is made.

    *Static*, with ``bounds`` for every key (:func:`_spans`): ``size`` is
    the product of the keys' spans, fixed, a group's id is
    ``sum((k_j - lo_j) * stride_j)`` with the last key's stride 1, and
    ``seen`` marks the ids that are groups.  A batch whose dtype does not
    match its bounds (a guard: the generator passes bounds only for base
    columns, whose dtype is fixed at load) replays the groups seen, one
    row each, into the coded form, and the accumulators move to the ids
    they get.

    *Coded* otherwise: ``size`` groups have ids ``0 .. size - 1``,
    ``reps[j]`` holds each group's value of key ``j``.

    ``slots[s]`` holds each group's accumulator of slot ``s``.
    """

    def __init__(self, nkeys: int, nslots: int, *bounds) -> None:
        self.size = 0
        self.rows = 0
        self.real = [0]  # the keys telling groups apart, in the order combined
        self.coders: list = [_Values()] + [None] * (nkeys - 1)
        self.stages: list = []  # a _Pairs per real key after the first
        self.dependent = list(range(1, nkeys))
        self.reps = [_Grow() for _ in range(nkeys)]
        self.seen = None
        self.spans = _spans(bounds)  # static: one _Span per key
        if self.spans is not None:
            self.size = _math.prod(span.size for span in self.spans)
            self.seen = _np.zeros(self.size, dtype=bool)
        self.slots = [_Slot(self.spans is not None) for _ in range(nslots)]
        # rows a count(distinct)'s pair bits may size by (the key tables')
        self.scanned = 0 if self.spans is None else max(b[2] for b in bounds)

    # -- group ids ----------------------------------------------------------------

    def ids(self, n: int, keys) -> object:
        self.rows += n
        keys = [_batch_of(n, k) for k in keys]
        if self.spans is not None:
            ids = self._static_ids(keys)
            if ids is not None:
                self.seen[ids] = True
                return ids
            self._leave_static()
        return self._coded_ids(keys)

    def _static_ids(self, keys):
        """The static form's ids, or None when a key's dtype does not
        match its bounds."""
        ids = None
        for span, key in zip(self.spans, keys):
            codes = span.codes(key)
            if codes is None:
                return None
            if ids is None:
                ids = codes
            else:
                ids *= span.size
                ids += codes
        return ids

    def _static_keys(self, offsets) -> list:
        """The static form's key values at ``offsets``."""
        keys = []
        for span in reversed(self.spans):
            keys.append(span.values(offsets % span.size))
            offsets = offsets // span.size
        return keys[::-1]

    def _leave_static(self) -> None:
        """Replay the groups seen, one row each, into the coded form and
        move the accumulators to the ids they get."""
        old = _np.flatnonzero(self.seen)
        columns = self._static_keys(old)
        self.spans = self.seen = None
        self.size = self.scanned = 0
        new = self._coded_ids(columns)
        for s in self.slots:
            s.exact = False
            s.remap(old, new, self.size, self.rows)

    def _coded_ids(self, keys):
        """The coded form's ids."""
        first = self.real[0]
        ids, new = self.coders[first].codes(keys[first], self.rows)
        for stage, j in zip(self.stages, self.real[1:]):
            ids, new = self._pair(stage, j, ids, keys)
        self._start(keys, new)
        for j in list(self.dependent):
            if not _follows(self.reps[j].view(), ids, keys[j]):
                self._promote(j)
                ids, new = self._pair(self.stages[-1], j, ids, keys)
                self._start(keys, new)
        return ids

    def _pair(self, stage, j: int, ids, keys):
        """Combine the ids so far with key ``j``'s codes."""
        coder = self.coders[j]
        codes, _ = coder.codes(keys[j], self.rows)
        return stage.ids(ids, codes, coder.size, self.rows)

    def _start(self, keys, new) -> None:
        """Rows ``new`` each start a group: it keeps their key values."""
        if len(new):
            self.size += len(new)
            for rep, key in zip(self.reps, keys):
                rep.extend(key[new])

    def _promote(self, j: int) -> None:
        """Key ``j`` no longer follows from the others: code it, and keep
        each existing group's id for (that id, the group's code)."""
        self.dependent.remove(j)
        coder = self.coders[j] = _Values()
        codes, _ = coder.codes(self.reps[j].view(), self.rows)
        self.stages.append(
            _Pairs.of(_np.arange(self.size), codes, coder.size, self.rows)
        )
        self.real.append(j)

    # -- folds ------------------------------------------------------------------------

    def add(self, slot: int, ids, values, floats: bool = False) -> None:
        """Fold a batch into a sum (``floats``: the float total of an
        ``avg``).  Integer sums stay int64 while the slot's magnitude bound
        is below 2**63, then switch to Python ints: exact either way."""
        values = _batch_of(len(ids), values)
        s = self.slots[slot]
        kind = values.dtype.kind
        if floats and kind != "f":
            kind, values = "f", _np.fromiter(
                (float(v) for v in values.tolist()), _np.float64, len(values)
            )
        if kind == "f":
            _add_at(s.view(self.size, _np.float64), ids, values)
            return
        if kind in "iub":
            batch = _int_bound(values) * len(values)
            s.bound += batch
            if s.bound < _INT64_LIMIT and s.dtype(_np.int64) != object:
                acc = s.view(self.size, _np.int64)
                if batch < _EXACT_FLOAT:
                    _add_at(acc, ids, values)
                else:
                    _np.add.at(acc, ids, values.astype(_np.int64))
                return
        _np.add.at(s.view(self.size, object), ids, values.astype(object))

    def count(self, slot: int, ids, values=None, valid=None) -> None:
        """``count(*)``, or with ``values`` ``count(expr)``: the rows whose
        value is not None -- and, with ``valid`` (a null-extended field's
        mask), that the mask keeps."""
        if values is not None:
            values = _batch_of(len(ids), values)
            if values.dtype == object:
                present = _np.fromiter(
                    (v is not None for v in values.tolist()), bool, len(values)
                )
                valid = present if valid is None else present & valid
        if valid is not None:
            ids = ids[valid]
        acc = self.slots[slot].view(self.size, _np.int64)
        if len(acc) <= len(ids):
            acc += _np.bincount(ids, minlength=len(acc))
        else:
            _np.add.at(acc, ids, 1)

    def extreme(self, slot: int, ids, values, pick: str) -> None:
        """Fold a batch into a ``min`` or ``max``: a new group starts from
        the identity of the fold (its dtype's largest value for ``min``)."""
        values = _batch_of(len(ids), values)
        s = self.slots[slot]
        if _is_numeric(values) and s.dtype(values.dtype) != object:
            dtype = _np.promote_types(s.dtype(values.dtype), values.dtype)
            acc = s.view(self.size, dtype, _identity(dtype, pick))
            (_np.minimum if pick == "min" else _np.maximum).at(acc, ids, values)
            return
        # strings and objects: compared as the Python values of a row loop
        acc = s.view(self.size, object, fill=None)
        for g, v in zip(ids.tolist(), _to_list(values)):
            current = acc[g]
            if current is None or (v < current if pick == "min" else v > current):
                acc[g] = v

    def distinct(self, slot: int, ids, values, bounds=None) -> None:
        """Fold a batch into a ``count(distinct)``: code the values, and
        count a group up once per (group, value) pair it has not seen.
        With ``bounds`` (the value column's) a value's code is its offset
        (:class:`_Span`) while the span obeys the direct bound over that
        column's rows."""
        values = _batch_of(len(ids), values)
        s = self.slots[slot]
        if s.values is None:
            spans = _spans((bounds,))
            s.values, s.pairs = spans[0] if spans else _Values(), _PairBits()
        codes = None
        if isinstance(s.values, _Span):
            codes = s.values.codes(values)
            if codes is None:  # another dtype: code by value from here on
                s.values = s.values.coder(self.rows)
        if codes is None:
            codes, _ = s.values.codes(values, self.rows)
        ncodes = s.values.size
        if isinstance(s.pairs, _PairBits):
            if _PairBits.fits(self.size, ncodes, max(self.rows, self.scanned)):
                s.pairs.add(ids, codes, ncodes, self.size)
                return
            # too many bits for the rows seen: a hash table of the pairs
            s.view(self.size, _np.int64)[:] = s.pairs.counts(self.size)
            s.pairs = _Pairs.of(*s.pairs.pairs(self.size), ncodes, self.rows)
        _, new = s.pairs.ids(ids, codes, ncodes, self.rows)
        acc = s.view(self.size, _np.int64)
        if len(new):
            _np.add.at(acc, ids[new], 1)

    # -- the merge --------------------------------------------------------------------

    def merge(self, batch: bool) -> list:
        if self.spans is not None:  # offsets ascend with (k_0, k_1, ...)
            order = _np.flatnonzero(self.seen)
            keys = self._static_keys(order)
        else:
            order = self._order()
            keys = [rep.view()[order] for rep in self.reps]
        columns = keys + [s.result(self.size, order) for s in self.slots]
        if not batch:
            columns = [_to_list(c) for c in columns]
        return [len(order), *columns]

    def _order(self):
        """The groups in ascending order of their keys -- integers, floats
        and typed strings of at most 8 bytes (by their big-endian words,
        made over the groups) -- up to the first key of
        another kind (wider strings, objects), with ties in arrival order.
        Only keys up to the last one that tells groups apart count: later
        ones follow from those."""
        n = self.size
        if not n:
            return _EMPTY
        if self.real == [0]:
            order = self.coders[0].ordered()  # its codes are the group ids
            if order is not None:
                return order
        keys = []
        for rep in self.reps[: max(self.real) + 1]:
            column = rep.view()
            kind = column.dtype.kind
            if not (kind in "iubf" or kind == "S" and column.dtype.itemsize <= 8):
                break
            keys.append(_ordered_words(column) if kind == "S" else column)
        if not keys:
            return _np.arange(n)
        codes, ngroups, _ = _group_codes(n, keys)
        if ngroups < n:
            return _np.argsort(codes, kind="stable")
        order = _np.empty(n, dtype=_np.int64)
        order[codes] = _np.arange(n)
        return order


def _present(values: list, valid) -> list:
    """Which of ``values`` a ``count`` counts: not None, and -- with
    ``valid`` -- not masked out."""
    if valid is None:
        return [v is not None for v in values]
    return [ok and v is not None for v, ok in zip(values, _to_list(valid))]


def group_state(nkeys: int, nslots: int, *bounds):
    """A grouped aggregation's group table (:class:`GroupTable`),
    allocated ahead of its input loop; ``bounds``, one per key when every
    key is a base column, make it static."""
    return GroupTable(nkeys, nslots, *bounds)


def v_group_ids(groups, n, *keys):
    """One batch's rows' global group ids, by key columns (or broadcast
    scalars); groups the batch starts are added to ``groups``."""
    return groups.ids(n, keys)


def v_agg_sum(groups, slot, ids, values):
    """Fold a batch into a sum slot; integer sums stay exact."""
    groups.add(slot, ids, values)


def v_agg_fsum(groups, slot, ids, values):
    """Fold a batch into a float total (the first slot of ``avg``)."""
    groups.add(slot, ids, values, True)


def v_agg_count(groups, slot, ids):
    """Fold a batch into a row count (``count(*)``, ``avg``'s second slot)."""
    groups.count(slot, ids)


def v_agg_count_nn(groups, slot, ids, values, valid=None):
    """Fold a batch into a ``count(expr)``: non-None values, and with
    ``valid`` (a null-extended field's mask) only the slots it keeps."""
    groups.count(slot, ids, values, valid)


def v_agg_min(groups, slot, ids, values):
    groups.extreme(slot, ids, values, "min")


def v_agg_max(groups, slot, ids, values):
    groups.extreme(slot, ids, values, "max")


def v_agg_distinct(groups, slot, ids, values, bounds=None):
    """Fold a batch into a ``count(distinct)`` (``bounds``: the value's
    base column's, when it is one)."""
    groups.distinct(slot, ids, values, bounds)


def group_merge(groups, batch: bool = False) -> list:
    """The groups after the input loop: ``[ngroups, keys_0.., slot_0..]``,
    every key and slot one column over the groups -- a batch with
    ``batch`` (typed strings stay typed), else a list of plain Python
    values, never NumPy scalars or bytes (the per-group emit loop's).
    The groups come in the key order :meth:`GroupTable._order` gives."""
    return groups.merge(batch)


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
    if values and isinstance(values[0], str):
        typed = typed_strings(values)
        return typed if typed is not None else _np.asarray(values, dtype=object)
    return _np.asarray(values)


#: The empty index array (never written to).
_EMPTY = None if _np is None else _np.empty(0, dtype=_np.int64)


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
    return _np.concatenate([column, _np.zeros(1, dtype=column.dtype)])


def _concat_batches(pieces: list):
    """``(n, batch-or-broadcast-scalar)`` pieces as one column."""
    arrays = [_batch_of(n, value) for n, value in pieces]
    if not arrays:
        return _np.empty(0, dtype=_np.int64)
    return _concat_arrays(arrays)


def _full(n: int, value):
    """A broadcast scalar as an array of ``n`` rows, in the layout a
    column of it would get."""
    if isinstance(value, (bool, int, float)):
        return _np.full(n, value)
    return _np.repeat(_column([value]), n)


def _key_kind(x) -> str:
    """How a join key array codes: ``"i"`` (integer, bool and date keys,
    which direct tables take) or ``"f"`` (floats, which only sort)."""
    if _is_batch(x):
        if x.dtype.kind in "iub":
            return "i"
        if x.dtype.kind == "f":
            return "f"
    raise PlanError(
        f"a batch join key must be an integer or float array, not {x!r:.60}: "
        "the generator keeps a join whose key can be NULL in rows"
    )


class JoinIndex:
    """Build keys -> build rows, for batch probes.

    Its precondition: every key, build and probe, is an integer (bool,
    date) or a float array -- a probe key may be a broadcast scalar of the
    same kind -- and each probe key has its build key's kind.  Anything
    else is a :class:`PlanError`; the generator sees to it, because
    ``VectorBackend._join_ok`` refuses a key pair of two kinds and a key
    the plan says can be NULL.

    Every probe row maps to one *slot* of dense tables: the build row of
    each slot when build keys are unique, else a start/count per slot
    into the build rows sorted stably by slot (sorted on the first
    :meth:`probe` -- a key set that is only asked :meth:`contains` never
    sorts).  One more slot past the end stands for every absent key.

    A single integer (bool, date) key whose span passes the direct-table
    rule is its own slot: ``key - lo``, range-checked as an unsigned
    number, so a probe is one subtraction, one compare and one gather per
    table.  Otherwise each key column is coded densely against its
    distinct build values (:class:`_Codebook`: a direct table for small
    integer spans, binary search plus an equality check otherwise -- the
    only form a float key takes, so ``-0.0`` meets ``0.0`` and no key is
    truncated), and composite keys combine those codes by mixed radix --
    re-densified whenever the radix outgrows a direct table, so no packed
    key can overflow int64.
    """

    def __init__(self, keys: list) -> None:
        self.size = len(keys[0])
        self._kinds = [_key_kind(k) for k in keys]
        if self.size:
            self._build(keys)

    # -- tables ---------------------------------------------------------------

    def _build(self, keys: list) -> None:
        n = self.size
        self._lo = None  # the one-table form's lowest key
        if self._kinds == ["i"]:
            key = keys[0].astype(_np.int64, copy=False)
            lo = int(key.min())
            span = int(key.max()) - lo + 1
            if _direct(span, n, _JOIN_SLOTS_PER_ROW):
                self._lo = _np.uint64(lo % (1 << 64))
                codes, radix = key - _np.int64(lo), span
        if self._lo is None:
            codes, radix = self._code_build(keys, n)
        self._radix = radix
        counts = _np.bincount(codes, minlength=radix + 1)
        self._unique = int(counts.max()) <= 1
        if self._unique:
            self._row_of = _np.full(radix + 1, -1, dtype=_np.int64)
            self._row_of[codes] = _np.arange(n)
        else:
            self._counts = counts
            self._starts = _np.cumsum(counts) - counts
            self._codes = codes

    def _code_build(self, keys: list, n: int):
        """Dense codes of the build keys through per-column codebooks."""
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
        return codes, radix

    @functools.cached_property
    def _order(self):
        """Build rows stably by slot: equal keys keep build-insertion order."""
        n = self.size
        return _np.argsort(self._codes * n + _np.arange(n))

    def _slots(self, keys: list, n: int):
        """Each probe row's table slot; ``self._radix`` where its key occurs
        on no build row."""
        if self._lo is not None:
            offsets = keys[0].astype(_np.int64, copy=False).view(_np.uint64)
            # wraps modulo 2**64: below ``lo`` lands past the span too
            slots = _np.minimum(offsets - self._lo, _np.uint64(self._radix))
            return slots.view(_np.int64)
        valid = _np.ones(n, dtype=bool)
        codes = None
        for k, book, step in zip(keys, self._books, self._steps):
            kcodes, valid = book.encode(k, valid)
            codes = kcodes if codes is None else codes * book.size + kcodes
            if step is not None:
                codes, valid = step.encode(codes, valid)
        return _np.where(valid, codes, self._radix)

    def _probe_keys(self, keys: list, n: int) -> list:
        """The probe keys as arrays, each of its build key's kind."""
        out = []
        for k, kind in zip(keys, self._kinds):
            if isinstance(k, (bool, int, _np.integer)):
                k = _np.full(n, k, dtype=_np.int64)
            elif isinstance(k, float):
                k = _np.full(n, k)
            if _key_kind(k) != kind:
                raise PlanError(
                    f"a batch join probe key of kind {_key_kind(k)!r} meets "
                    f"a build key of kind {kind!r}"
                )
            out.append(k)
        return out

    # -- probes ---------------------------------------------------------------

    def probe(self, keys: list, n: int, outer: bool = False):
        """Matching ``(build rows, probe rows)`` in probe order, each probe
        row's matches in build-insertion order.  With ``outer``, a probe
        row that matches nothing appears once, in its place, with build
        row -1."""
        if self.size == 0 or n == 0:
            if outer:
                return _np.full(n, -1, dtype=_np.int64), _np.arange(n)
            empty = _np.empty(0, dtype=_np.int64)
            return empty, empty
        slots = self._slots(self._probe_keys(keys, n), n)
        if self._unique:
            rows = self._row_of.take(slots)
            if outer:
                return rows, _np.arange(n)
            probe_rows = _np.flatnonzero(rows >= 0)
            return rows.take(probe_rows), probe_rows
        counts = self._counts.take(slots)
        starts = self._starts.take(slots)
        taken = counts
        if outer:
            # an unmatched row takes one output slot, gathering build row 0
            # there (any in-range row) until it is set to -1 below
            taken = _np.maximum(counts, 1)
            starts = _np.where(counts > 0, starts, 0)
        probe_rows = _np.repeat(_np.arange(n), taken)
        run_starts = _np.repeat(_np.cumsum(taken) - taken, taken)
        within = _np.arange(len(probe_rows)) - run_starts
        build_rows = self._order.take(_np.repeat(starts, taken) + within)
        if outer:
            build_rows[_np.repeat(counts == 0, taken)] = -1
        return build_rows, probe_rows

    def contains(self, keys: list, n: int):
        """Per probe row: does any build row carry its key?"""
        if self.size == 0:
            return _np.zeros(n, dtype=bool)
        slots = self._slots(self._probe_keys(keys, n), n)
        if self._unique:
            return self._row_of.take(slots) >= 0
        return self._counts.take(slots) > 0


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
    if values.dtype.kind in "iub":
        if _int_bound(values) * len(values) >= _INT64_LIMIT:
            return sum(values.tolist())  # int64 would wrap: Python ints
        return int(values.sum())
    if values.dtype == object:
        return sum(values.tolist())
    return float(values.sum())


def v_fsum(values, n):
    if not _is_batch(values):
        return float(values) * n
    return float(values.sum())


def v_count_nn(values, n, valid=None):
    """Count of non-None values; with ``valid`` (a null-extended field's
    mask) only of the slots it marks true."""
    if not _is_batch(values):
        return n if values is not None else 0
    if values.dtype != object:
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
# The observer is *per thread*, like the tick hooks: two instrumented runs
# on two serving threads each see only their own kernels.  With no observer
# installed the overhead is one thread-local read per kernel call -- and
# kernels run once per *batch*, not per row, so it never touches the hot
# path.  Nested kernels (``v_count_nn`` sums a validity mask with
# ``v_sum``) report both invocations.

class _Observer(threading.local):
    fn = None  # a class default: no thread pays a failed lookup


_OBSERVER = _Observer()


def set_kernel_observer(observer):
    """Install ``observer(name, batch_len, args)`` for this thread's kernel
    calls -- ``batch_len`` is the length of the kernel's first batch
    argument, ``args`` all of them; returns the thread's previous observer."""
    previous = _OBSERVER.fn
    _OBSERVER.fn = observer
    return previous


def _observed(name, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        result = fn(*args)
        observer = _OBSERVER.fn
        if observer is not None:
            batch_len = 0
            for arg in args:
                if _is_batch(arg):
                    batch_len = len(arg)
                    break
            observer(name, batch_len, args)
        return result

    return wrapper


for _name in list(globals()):
    if _name.startswith("v_"):
        globals()[_name] = _observed(_name, globals()[_name])
del _name
