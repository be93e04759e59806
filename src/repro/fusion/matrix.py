"""Out-of-core claim matrix: mapped columns over the column store.

The `web` scale tier never materialises the whole corpus's extraction
records.
:class:`~repro.fusion.observations.ClaimAccumulator` folds each extraction
chunk straight into the canonical claim columns; this module supplies the
storage half:

- :class:`MappedColumnarClaims` is a ``ColumnarClaims`` whose numeric
  columns are read-only ``np.memmap`` views over a published column
  store (:func:`repro.artifacts.save_column_store`).  Pickling it ships
  only the ~300-byte :class:`~repro.artifacts.ColumnHandle`; each pool
  worker re-maps the files, so the static columns are shared zero-copy
  through the page cache — the PR 5 shared-memory channel extended from
  per-round vectors to the claim matrix itself.  The object columns
  (``items``/``triples``/``provenances``) load lazily on first touch:
  the hybrid shards never touch them, so hybrid workers stay numeric.
- :func:`persist_columns` publishes an in-memory column set and maps it
  back.

Fusion consumes either kind of column set through
:meth:`FusionInput.from_columns <repro.fusion.observations.FusionInput.from_columns>`.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.artifacts import ColumnHandle, _dumps, save_column_store
from repro.fusion.observations import (
    ClaimAccumulator,
    ColumnarClaims,
    FusionInput,
    ProvKey,
)
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
_OBJECT_COLUMNS = ("items", "triples", "provenances")
_OBJECTS_FILE = "objects.pkl"


class MappedColumnarClaims(ColumnarClaims):
    """A ``ColumnarClaims`` whose numeric columns are memory-mapped.

    Constructed from a :class:`~repro.artifacts.ColumnHandle`; the
    numeric columns and the canonical rank open eagerly as read-only
    memmaps, while the object columns unpickle from ``objects.pkl`` on
    first attribute access (``__getattr__`` fires because the dataclass
    declares no class-level default for them).  ``__reduce__`` ships the
    handle only, so installing an instance as pool-resident state costs
    a few hundred bytes per worker regardless of matrix size.
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
        self._closed = False

    def __getattr__(self, name: str):
        if name in _OBJECT_COLUMNS:
            self._load_objects()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _load_objects(self) -> None:
        with open(self.handle.path_of(_OBJECTS_FILE), "rb") as fh:
            items, triples, provenances = pickle.load(fh)
        self.items = items
        self.triples = triples
        self.provenances = provenances

    def adopt_objects(
        self,
        items: list[DataItem],
        triples: list[Triple],
        provenances: list[ProvKey],
    ) -> None:
        """Seed the object columns from lists the caller already holds.

        Parent-side convenience after :func:`persist_columns`: avoids an
        immediate re-unpickle of what was just written.  Workers are
        unaffected — ``__reduce__`` ships the handle, never the lists.
        """
        self.items = items
        self.triples = triples
        self.provenances = provenances

    def objects_loaded(self) -> bool:
        return "triples" in self.__dict__

    def __reduce__(self):
        return (type(self), (self.handle,))

    def __repr__(self) -> str:  # the dataclass repr would force objects.pkl
        return (
            f"{type(self).__name__}(key={self.handle.key[:12]!r}, "
            f"n_rows={self.n_rows}, n_claims={self.n_claims}, "
            f"closed={self._closed})"
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every mapped view (and its file descriptor).

        The instance must not be used afterwards; the round-state
        lifecycle calls this right after the columns are uninstalled
        from the pool.
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

    The in-memory arrays are written once (content-addressed, atomic)
    and the returned instance maps them back read-only, with the object
    columns adopted from ``cols`` so the parent pays no re-unpickle.
    """
    arrays = {name: np.ascontiguousarray(getattr(cols, name)) for name in NUMERIC_COLUMNS}
    arrays[RANK_COLUMN] = np.ascontiguousarray(cols.canonical_rank())
    objects = _dumps((cols.items, cols.triples, cols.provenances))
    handle = save_column_store(cache_dir, cols.granularity.value, arrays, objects)
    mapped = MappedColumnarClaims(handle)
    mapped.adopt_objects(cols.items, cols.triples, cols.provenances)
    return mapped
