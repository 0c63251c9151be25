"""Code-generation backends: the seam below the data-structure abstractions.

The paper's Section 4 argument is that pushing code generation *below* the
engine's data structures lets one operator pass be specialized many ways.
This module is that seam for the reproduction: operator code in
:mod:`repro.compiler.lb2` asks its builder's ``backend`` for scan sources,
hash maps, aggregate state, sort buffers, and child-edge datapaths -- and
never looks at ``Config.codegen`` itself.  The scalar backend lowers
everything to the row-at-a-time loops the compiler always emitted
(byte-identically, guarded by golden tests); the vector backend in
:mod:`repro.compiler.vec` swaps batch-columnar implementations in for the
shapes it supports and falls back to these scalar structures per operator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.compiler.staged_agg import AggLayout, GlobalAggState
from repro.compiler.staged_hashmap import (
    NativeAggMap,
    NativeMultiMap,
    OpenAggMap,
    StagedSet,
)
from repro.compiler.staged_source import (
    ColumnSortBuffer,
    DateIndexSource,
    IndexSource,
    RowSortBuffer,
    TableSource,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.compiler.lb2 import StagedOp, StagedPlanBuilder


class ScalarBackend:
    """Row-at-a-time lowering: today's residual programs, byte for byte."""

    name = "scalar"

    def __init__(self, comp: "StagedPlanBuilder") -> None:
        self.comp = comp
        self.ctx = comp.ctx

    # -- whole-plan analysis --------------------------------------------------

    def prepare(self, root) -> None:
        """Inspect the plan before any operator stages code (no-op here)."""

    def stats(self) -> dict:
        """Codegen counters (which operators got which lowering)."""
        return {"backend": self.name}

    # -- operator edges -------------------------------------------------------

    def edge(self, child: "StagedOp", consumer_node) -> Callable:
        """The datapath a consumer pulls from ``child``.

        The scalar backend hands the child's datapath through untouched;
        the vector backend inserts a devectorizing adapter exactly where a
        batch-producing child feeds a row-at-a-time consumer.
        """
        return child.exec()

    # -- staged data-structure factories --------------------------------------

    def scan_source(self, node) -> TableSource:
        return TableSource(self.comp, node.table, node.rename_map)

    def date_scan_source(self, node) -> DateIndexSource:
        return DateIndexSource(self.comp, node)

    def index_source(
        self,
        table: str,
        table_key: str,
        unique: bool,
        rename: dict[str, str],
        comment: str,
        with_table: bool,
    ) -> IndexSource:
        return IndexSource(
            self.comp, table, table_key, unique, rename, comment, with_table
        )

    def multimap(self, node, label: str) -> NativeMultiMap:
        self.ctx.comment(label)
        return NativeMultiMap(self.ctx)

    def key_set(self, node, label: str) -> StagedSet:
        self.ctx.comment(label)
        return StagedSet(self.ctx)

    def agg_map(self, node, key_ctypes: Sequence[str], slot_ctypes: Sequence[str]):
        config = self.comp.config
        self.ctx.comment(
            f"aggregation hash map ({config.hashmap}); "
            f"keys: {[n for n, _ in node.keys]}"
        )
        if config.hashmap == "open":
            return OpenAggMap(
                self.ctx, key_ctypes, slot_ctypes, config.open_map_size
            )
        return NativeAggMap(self.ctx, key_ctypes, slot_ctypes)

    def global_agg_state(self, node, layout: AggLayout):
        return GlobalAggState(self.ctx, layout)

    def sort_buffer(self, node, field_names: list[str]):
        if self.comp.config.sort_layout == "column":
            return ColumnSortBuffer(self.ctx, field_names)
        return RowSortBuffer(self.ctx, field_names)


def make_backend(comp: "StagedPlanBuilder"):
    """The backend selected by ``Config.codegen``; the vector lowering's
    kernels require NumPy."""
    if comp.config.codegen == "vector":
        from repro.compiler.lb2 import CompileError
        from repro.compiler.runtime import have_numpy
        from repro.compiler.vec import VectorBackend

        if not have_numpy():
            raise CompileError(
                "codegen='vector' requires NumPy: install the 'fast' extra "
                "(pip install repro[fast])"
            )
        return VectorBackend(comp)
    return ScalarBackend(comp)
