"""Generation-time records and values (Section 4.1) plus string
dictionaries as a value representation (Section 4.3).

A :class:`StagedRecord` is the compiler's ``Record``: a mapping from field
names to staged values that exists *only while generating code*.  No record
object is ever constructed in the residual program -- field access emits (at
most) one column load, memoized per record, so repeated references share the
generated local.

A :class:`DicValue` is the dictionary-compressed string representation: it
carries the staged integer *code* plus the (present-stage) dictionary.
Operations specialize:

* comparisons against string constants fold the dictionary lookup at
  generation time and emit pure integer comparisons;
* ``startswith`` against a constant becomes one code-range check;
* anything else decodes through the dictionary's string table (one list
  subscript) and falls back to ordinary string code -- the paper's fallback
  rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.catalog.types import ColumnType
from repro.staging import ir
from repro.staging.builder import StagingContext
from repro.staging.rep import Rep, RepBool, RepInt, RepStr, rep_for_ctype
from repro.storage.dictionary import StringDictionary


@dataclass(frozen=True)
class FieldDesc:
    """Static description of one record field.

    ``dictionary``/``strings_sym`` are set for dictionary-compressed string
    fields: the present-stage dictionary (for generation-time constant
    folding) and the staged reference to its decoded-string table.
    """

    name: str
    type: ColumnType
    dictionary: Optional[StringDictionary] = None
    strings_sym: Optional[Rep] = None

    @property
    def compressed(self) -> bool:
        return self.dictionary is not None

    @property
    def ctype(self) -> str:
        """The staged value's C type: codes for compressed fields."""
        return "long" if self.compressed else self.type.ctype


class DicValue:
    """A staged dictionary-compressed string: an integer code + its table."""

    def __init__(
        self,
        code: RepInt,
        dictionary: StringDictionary,
        strings_sym: Rep,
        ctx: StagingContext,
    ) -> None:
        self.code = code
        self.dictionary = dictionary
        self.strings_sym = strings_sym
        self.ctx = ctx

    # -- representation changes -------------------------------------------------

    def decode(self) -> RepStr:
        """Emit one subscript into the dictionary's string table."""
        sym = self.ctx.bind(
            ir.Index(self.strings_sym.expr, self.code.expr), ctype="char*"
        )
        return RepStr(sym, self.ctx)

    def payload(self) -> RepInt:
        """The value to hash/sort/materialize: codes are order-preserving."""
        return self.code

    # -- specialized comparisons ---------------------------------------------------

    @staticmethod
    def _const_str(other: object) -> Optional[str]:
        if isinstance(other, str):
            return other
        if isinstance(other, RepStr) and isinstance(other.expr, ir.Const):
            return str(other.expr.value)
        return None

    def _same_dict(self, other: object) -> bool:
        return isinstance(other, DicValue) and other.dictionary is self.dictionary

    def __eq__(self, other: object) -> RepBool:  # type: ignore[override]
        const = self._const_str(other)
        if const is not None:
            code = self.dictionary.code(const)
            if code is None:
                # Constant absent from the data: the predicate is always false.
                return self.ctx.bool_(False)
            return self.code == code
        if self._same_dict(other):
            return self.code == other.code  # type: ignore[union-attr]
        return self.decode() == _as_str(other, self.ctx)

    def __ne__(self, other: object) -> RepBool:  # type: ignore[override]
        return ~self.__eq__(other)

    __hash__ = None  # type: ignore[assignment]

    def _order_cmp(self, other: object, op: str) -> RepBool:
        """Ordered comparison: codes are assigned in sorted order."""
        const = self._const_str(other)
        if const is not None:
            # Compare against the constant's rank even when it is absent.
            if op == "<":
                return self.code < self.dictionary.code_floor(const)
            if op == "<=":
                return self.code < self.dictionary.code_ceil(const)
            if op == ">":
                return self.code >= self.dictionary.code_ceil(const)
            return self.code >= self.dictionary.code_floor(const)  # >=
        if self._same_dict(other):
            other_code = other.code  # type: ignore[union-attr]
            if op == "<":
                return self.code < other_code
            if op == "<=":
                return self.code <= other_code
            if op == ">":
                return self.code > other_code
            return self.code >= other_code
        decoded = self.decode()
        rhs = _as_str(other, self.ctx)
        if op == "<":
            return decoded < rhs
        if op == "<=":
            return decoded <= rhs
        if op == ">":
            return decoded > rhs
        return decoded >= rhs

    def __lt__(self, other: object) -> RepBool:
        return self._order_cmp(other, "<")

    def __le__(self, other: object) -> RepBool:
        return self._order_cmp(other, "<=")

    def __gt__(self, other: object) -> RepBool:
        return self._order_cmp(other, ">")

    def __ge__(self, other: object) -> RepBool:
        return self._order_cmp(other, ">=")

    # -- string operations -----------------------------------------------------------

    def startswith(self, prefix: object) -> RepBool:
        const = self._const_str(prefix)
        if const is not None:
            lo, hi = self.dictionary.prefix_range(const)
            if lo == hi:
                return self.ctx.bool_(False)
            return (self.code >= lo) & (self.code < hi)
        return self.decode().startswith(_as_str(prefix, self.ctx))

    def endswith(self, suffix: object) -> RepBool:
        return self.decode().endswith(_as_str(suffix, self.ctx))

    def contains(self, needle: object) -> RepBool:
        return self.decode().contains(_as_str(needle, self.ctx))

    def substring(self, start: object, stop: object) -> RepStr:
        return self.decode().substring(start, stop)

    def length(self) -> RepInt:
        return self.decode().length()


def _as_str(value: object, ctx: StagingContext) -> RepStr:
    if isinstance(value, DicValue):
        return value.decode()
    if isinstance(value, RepStr):
        return value
    if isinstance(value, str):
        return ctx.str_(value)
    raise TypeError(f"expected a string value, got {type(value).__name__}")


StagedValue = Union[Rep, DicValue]


def value_payload(value: StagedValue) -> Rep:
    """The Rep to embed in tuples/keys: codes for DicValues, self otherwise."""
    if isinstance(value, DicValue):
        return value.payload()
    return value


def value_output(value: StagedValue) -> Rep:
    """The Rep to emit in final results: decoded strings for DicValues."""
    if isinstance(value, DicValue):
        return value.decode()
    return value


class StagedRecord:
    """The generation-time record: name -> lazily loaded staged value.

    ``loaders`` maps field name to a zero-argument function that emits the
    load and returns the value; results are memoized so a field referenced
    by several expressions is loaded exactly once per record.

    Records are also the *control-flow seam* between operator code and the
    code-generation backend: operators filter through :meth:`guard`, emit
    derived rows through :meth:`derive`, and devectorize through
    :meth:`rows`.  A scalar record lowers these to one branch / one record /
    the identity; a batch record (``repro.compiler.vec.VecRecord``) lowers
    the same calls to mask kernels, column derivations, and a residual loop
    -- without the operator changing a line.
    """

    def __init__(
        self,
        ctx: StagingContext,
        descs: list[FieldDesc],
        loaders: dict[str, Callable[[], StagedValue]],
    ) -> None:
        self.ctx = ctx
        self.descs = descs
        self._by_name = {d.name: d for d in descs}
        self._loaders = loaders
        self._cache: dict[str, StagedValue] = {}

    @property
    def field_names(self) -> list[str]:
        return [d.name for d in self.descs]

    def desc(self, name: str) -> FieldDesc:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"record has no field {name!r}; fields: {self.field_names}"
            ) from None

    def __getitem__(self, name: str) -> StagedValue:
        if name not in self._cache:
            self.desc(name)
            self._cache[name] = self._loaders[name]()
        return self._cache[name]

    def values(self, names: Optional[list[str]] = None) -> list[StagedValue]:
        return [self[n] for n in (names if names is not None else self.field_names)]

    @classmethod
    def from_values(
        cls,
        ctx: StagingContext,
        descs: list[FieldDesc],
        values: dict[str, StagedValue],
    ) -> "StagedRecord":
        """A record whose fields are already-computed staged values."""
        rec = cls(ctx, descs, loaders={n: _raiser(n) for n in values})
        rec._cache = dict(values)
        return rec

    def merged(self, other: "StagedRecord") -> "StagedRecord":
        """Concatenate two records (join output); names must be disjoint."""
        clash = set(self._by_name) & set(other._by_name)
        if clash:
            raise KeyError(f"merged record field clash: {sorted(clash)}")
        rec = StagedRecord(
            self.ctx,
            self.descs + other.descs,
            {**self._loaders, **other._loaders},
        )
        rec._cache = {**self._cache, **other._cache}
        return rec

    # -- the backend seam --------------------------------------------------------

    def guard(self, cond, cb: Callable[["StagedRecord"], None]) -> None:
        """Forward this record downstream only where ``cond`` holds."""
        with self.ctx.if_(cond):
            cb(self)

    def rows(self, cb: Callable[["StagedRecord"], None]) -> None:
        """Deliver this record row-at-a-time (identity for scalar records)."""
        cb(self)

    def field_ref(self, name: str) -> StagedValue:
        """A field a projection passes through unchanged (to :meth:`derive`)."""
        return self[name]

    def derive(
        self,
        descs: list[FieldDesc],
        values: dict[str, StagedValue],
    ) -> "StagedRecord":
        """A new record over already-staged values (projection output)."""
        return StagedRecord.from_values(self.ctx, descs, values)


def _raiser(name: str) -> Callable[[], StagedValue]:
    def load() -> StagedValue:
        raise KeyError(f"field {name!r} has no loader and no cached value")

    return load


# ---------------------------------------------------------------------------
# Materialization helpers (pipeline breakers store payloads, then rebuild)
# ---------------------------------------------------------------------------


def materialize(
    rec: StagedRecord, names: Sequence[str]
) -> tuple[list[Rep], list[FieldDesc]]:
    """Force the fields ``names`` to payload Reps, keeping descriptors for
    rebuild: a pipeline breaker stores only the fields read past it."""
    payloads: list[Rep] = []
    descs: list[FieldDesc] = []
    for name in names:
        value = rec[name]
        payloads.append(value_payload(value))
        descs.append(desc_from_existing(rec.desc(name), value))
    return payloads, descs


def desc_from_existing(desc: FieldDesc, value: StagedValue) -> FieldDesc:
    if isinstance(value, DicValue):
        return FieldDesc(
            desc.name,
            desc.type,
            dictionary=value.dictionary,
            strings_sym=value.strings_sym,
        )
    return FieldDesc(desc.name, desc.type)


def rebuild_record(
    ctx: StagingContext, row: Rep, descs: list[FieldDesc]
) -> StagedRecord:
    """Lazily re-load materialized fields from a row tuple."""
    loaders: dict[str, Callable[[], StagedValue]] = {}
    for i, desc in enumerate(descs):
        loaders[desc.name] = tuple_loader(ctx, row, i, desc)
    return StagedRecord(ctx, list(descs), loaders)


def tuple_loader(
    ctx: StagingContext, row: Rep, i: int, desc: FieldDesc
) -> Callable[[], StagedValue]:
    def load() -> StagedValue:
        sym = ctx.bind(ir.Index(row.expr, ir.Const(i)), ctype=desc.ctype)
        if desc.compressed:
            assert desc.dictionary is not None and desc.strings_sym is not None
            return DicValue(RepInt(sym, ctx), desc.dictionary, desc.strings_sym, ctx)
        return rep_for_ctype(desc.type.ctype)(sym, ctx)

    return load
