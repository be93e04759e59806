"""Out-of-core claim matrix: mapped columns over the column store.

The `web` scale tier never materialises the whole corpus's extraction
records as objects: its window tables fold into one record store, whose
claim view (:class:`~repro.fusion.observations.FusionInput`) builds the
canonical claim columns; this module supplies the storage half:

- :class:`MappedColumnarClaims` is a ``ColumnarClaims`` whose numeric
  columns are read-only ``np.memmap`` views over a published column
  store (:func:`repro.artifacts.save_column_store`), so the parent's
  static columns live in the page cache, not on its heap.  It stays in
  the parent: a pooled round copies the three Stage-I arrays from the
  mapping into its shared-memory segment
  (:func:`repro.fusion.shuffle.install_stage1_state`).
- :func:`persist_columns` publishes an in-memory column set and maps it
  back.

Fusion consumes either kind of column set through
:meth:`FusionInput.from_columns <repro.fusion.observations.FusionInput.from_columns>`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.artifacts import ColumnHandle, save_column_store
from repro.extract.records import ExtractionRecord, RecordTables, records_to_wire
from repro.fusion.observations import ColumnarClaims, FusionInput, ProvKey
from repro.fusion.provenance import Granularity
from repro.kb.triples import DataItem, Triple

__all__ = [
    "ClaimAccumulator",
    "ColumnarFusionInput",
    "MappedColumnarClaims",
    "persist_columns",
]

#: The pre-fold spelling of :meth:`FusionInput.from_columns`, kept
#: importable for ``benchmarks/kfbench``.
ColumnarFusionInput = FusionInput.from_columns


class ClaimAccumulator:
    """The pre-store spelling of a :class:`FusionInput`, kept importable
    for ``benchmarks/kfbench`` only: ``add_records`` appends to the
    input's store, ``build`` reads ``claims``, ``release`` swaps in a
    fresh store."""

    def __init__(self, granularity: Granularity, records: RecordTables | None = None) -> None:
        self.granularity = granularity
        self._input = FusionInput(RecordTables() if records is None else records)

    def add_records(self, records: list[ExtractionRecord]) -> None:
        self._input.records.add_table(records_to_wire(records))

    def build(self, granularity: Granularity | None = None) -> ColumnarClaims:
        return self._input.claims(granularity or self.granularity)

    def unique_triples(self) -> list[Triple]:
        return self._input.unique_triples()

    def release(self) -> None:
        self._input = FusionInput(RecordTables())


#: Numeric CSR columns, persisted one ``.npy`` each (plus the cached
#: canonical rank, so mapped columns never re-sort triples to build it).
NUMERIC_COLUMNS = (
    "row_item",
    "item_ptr",
    "claim_prov",
    "row_ptr",
    "prov_rows",
    "prov_ptr",
)
RANK_COLUMN = "canonical_rank"


class MappedColumnarClaims(ColumnarClaims):
    """A ``ColumnarClaims`` whose numeric columns are memory-mapped.

    Constructed from a :class:`~repro.artifacts.ColumnHandle`; the
    numeric columns and the canonical rank open eagerly as read-only
    memmaps.  The object columns are not on disk: they are the lists
    :func:`persist_columns` adopts from the columns it published.
    """

    def __init__(self, handle: ColumnHandle) -> None:
        self.handle = handle
        self.granularity = Granularity(handle.granularity)
        for name in NUMERIC_COLUMNS:
            setattr(self, name, np.load(handle.path_of(f"{name}.npy"), mmap_mode="r"))
        # Eager: the class-level dataclass default (None) means
        # __getattr__ would never fire for this field, and canonical_rank()
        # must find the mapped cache, not re-sort a million triples.
        self._canonical_rank = np.load(
            handle.path_of(f"{RANK_COLUMN}.npy"), mmap_mode="r"
        )
        self._gold_memo = [None, 0, None]
        self._closed = False

    def adopt_objects(
        self,
        items: Sequence[DataItem],
        texts: list[str],
        triples: Sequence[Triple],
        provenances: Sequence[ProvKey],
    ) -> None:
        """Seed the object columns from lists the caller already holds
        (:func:`persist_columns` hands over the ones it published beside)."""
        self.items = items
        self.texts = texts
        self.triples = triples
        self.provenances = provenances

    def close(self) -> None:
        """Release every mapped view (and its file descriptor).

        The instance must not be used afterwards; a streamed pipeline
        run calls this when it ends, after fusion has unlinked its last
        round's segment.
        """
        if self._closed:
            return
        for name in (*NUMERIC_COLUMNS, "_canonical_rank"):
            array = self.__dict__.get(name)
            mapped = getattr(array, "_mmap", None)
            if mapped is not None:
                try:
                    mapped.close()
                except BufferError:
                    # A live external view pins the buffer; dropping our
                    # reference still lets the GC reclaim the mapping.
                    pass
        self._closed = True


def persist_columns(
    cols: ColumnarClaims, cache_dir
) -> MappedColumnarClaims:
    """Publish ``cols`` to the column store and return the mapped view.

    The numeric arrays are written once (content-addressed, atomic) and
    the returned instance maps them back read-only; the object columns
    are adopted from ``cols`` and never written.
    """
    arrays = {name: np.ascontiguousarray(getattr(cols, name)) for name in NUMERIC_COLUMNS}
    arrays[RANK_COLUMN] = np.ascontiguousarray(cols.canonical_rank())
    handle = save_column_store(cache_dir, cols.granularity.value, arrays)
    mapped = MappedColumnarClaims(handle)
    mapped.adopt_objects(cols.items, cols.texts, cols.triples, cols.provenances)
    return mapped
