"""Fusion input: unique (triple, provenance) claims.

Raw extraction is many-to-many — the same extractor may extract the same
triple from the same page through two patterns, and certainly from many
pages.  Fusion operates on the deduplicated *claim* matrix: for every data
item, which provenances support which triple.  :class:`FusionInput` builds
and caches that matrix per granularity, so the same extraction run can be
fused under many configurations cheaply (the granularity sweep of
Figure 10 does exactly that).

The matrix has one primary form and one derived form:

- the **columnar form** (:class:`ColumnarClaims`, via
  :meth:`ClaimMatrix.columnar`) is primary: an int-coded CSR layout built
  once, straight from the records, by :class:`ClaimAccumulator` (or handed
  in prebuilt by the streaming pipeline) and cached.  The column-native
  round loop, the shard workers and the vectorized posterior kernels of
  :mod:`repro.fusion.kernels` read nothing else.  A *row* is one unique
  ``(data item, triple)`` pair — and because a triple determines its data
  item, rows are exactly the unique triples; a *claim* is one
  ``(row, provenance)`` support edge.  Rows are grouped contiguously by
  item and claims contiguously by row, so every per-item and per-row
  aggregate is a ``np.add.reduceat`` over a pointer array;
- the **dict views** (``ClaimMatrix.items`` / ``prov_triples``) are
  derived, built on first access and only for the code that wants
  per-item Python logic: the §5 extension fusers and the test suite's
  dict-engine oracle.  No fusion backend builds them; what ``serial``
  keeps of them is their iteration order, carried as one row permutation
  (:meth:`ClaimMatrix.arrival_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.extract.records import ExtractionRecord
from repro.fusion.provenance import Granularity, provenance_key
from repro.kb.triples import DataItem, Triple

__all__ = [
    "ClaimAccumulator",
    "ColumnarClaims",
    "ColumnarSlice",
    "FusionInput",
    "ragged_gather",
]

ProvKey = tuple[str, ...]


@dataclass
class FusionInput:
    """Extraction records plus cached claim matrices per granularity.

    :meth:`from_columns` wraps one prebuilt column set instead (the
    streaming pipeline never holds a record list): ``records`` is then
    None and ``claims()`` serves the one granularity the columns were
    built at — a granularity sweep needs the record path.
    """

    records: list[ExtractionRecord] | None
    _cache: dict[Granularity, "ClaimMatrix"] = field(default_factory=dict, repr=False)

    @staticmethod
    def from_columns(cols: "ColumnarClaims") -> "FusionInput":
        matrix = ClaimMatrix(cols.granularity, columns=cols)
        return FusionInput(None, {cols.granularity: matrix})

    def claims(self, granularity: Granularity) -> "ClaimMatrix":
        matrix = self._cache.get(granularity)
        if matrix is None:
            if self.records is None:
                (held,) = self._cache
                raise ValueError(
                    f"columns were accumulated at granularity {held.value!r}; "
                    f"re-extract to fuse at {granularity.value!r}"
                )
            matrix = ClaimMatrix.build(self.records, granularity)
            self._cache[granularity] = matrix
        return matrix

    def unique_triples(self) -> list[Triple]:
        """All distinct extracted triples (the paper's 1.6B 'unique')."""
        if self.records is None:
            (matrix,) = self._cache.values()
            return sorted(matrix.columnar().triples)
        return sorted({record.triple for record in self.records})

    def __len__(self) -> int:
        """Records held — or, over bare columns, unique claims."""
        if self.records is None:
            (matrix,) = self._cache.values()
            return matrix.n_claims()
        return len(self.records)


def ragged_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[k], starts[k]+counts[k])`` ranges, vectorized.

    The CSR-segment gather shared by :meth:`ColumnarClaims.slice_items`
    and the hybrid Stage-II shard — subtle index arithmetic that must
    live in exactly one place.
    """
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return np.repeat(starts - ptr[:-1], counts) + np.arange(total, dtype=np.int64)


@dataclass(eq=False)  # ndarray fields: generated __eq__ would raise
class ColumnarSlice:
    """A shard-local CSR view over a subset of a :class:`ColumnarClaims`.

    The batched posterior kernels (:mod:`repro.fusion.kernels`) only touch
    the CSR pointer/index arrays, so a *slice* carrying remapped local
    pointers over the selected items' rows and claims lets the same
    kernels score one parallel shard — the ``hybrid`` backend's unit of
    work.  ``rows`` maps each local row back to its global row id (for
    re-emitting posteriors against the full matrix); ``claim_prov`` keeps
    *global* provenance ids so the per-pool accuracy/active buffers index
    directly.
    """

    rows: np.ndarray  # local row -> global row id
    row_item: np.ndarray  # local row -> local item index
    item_ptr: np.ndarray  # local item j rows: [item_ptr[j], item_ptr[j+1])
    claim_prov: np.ndarray  # local claim -> GLOBAL provenance index
    row_ptr: np.ndarray  # local row r claims: [row_ptr[r], row_ptr[r+1])

    @property
    def n_items(self) -> int:
        return len(self.item_ptr) - 1

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_claims(self) -> int:
        return len(self.claim_prov)


@dataclass(eq=False)  # ndarray fields: generated __eq__ would raise
class ColumnarClaims:
    """Int-coded CSR view of a claim matrix for the vectorized kernels.

    Index spaces (all contiguous, all sorted so the layout is canonical):

    - **item** ``j``: ``items[j]`` (sorted :class:`DataItem`);
    - **row** ``r``: one unique triple, ``triples[r]``; rows are grouped by
      item — item ``j`` owns rows ``item_ptr[j]:item_ptr[j+1]`` — and
      sorted canonically within the item;
    - **provenance** ``p``: ``provenances[p]`` (sorted tuples);
    - **claim** ``c``: one ``(row, provenance)`` support edge; claims are
      grouped by row — row ``r`` owns claims ``row_ptr[r]:row_ptr[r+1]``
      and ``claim_prov[c]`` is the supporting provenance.

    ``prov_rows``/``prov_ptr`` is the transposed CSR: provenance ``p``
    supports rows ``prov_rows[prov_ptr[p]:prov_ptr[p+1]]`` (the columnar
    form of ``ClaimMatrix.prov_triples``, feeding Stage II).
    """

    granularity: Granularity
    items: list[DataItem]
    triples: list[Triple]
    provenances: list[ProvKey]
    row_item: np.ndarray  # row -> item index
    item_ptr: np.ndarray  # item j rows: [item_ptr[j], item_ptr[j+1])
    claim_prov: np.ndarray  # claim -> provenance index
    row_ptr: np.ndarray  # row r claims: [row_ptr[r], row_ptr[r+1])
    prov_rows: np.ndarray  # concatenated row ids per provenance
    prov_ptr: np.ndarray  # prov p rows: [prov_ptr[p], prov_ptr[p+1])
    _canonical_rank: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_rows(self) -> int:
        return len(self.triples)

    @property
    def n_claims(self) -> int:
        return len(self.claim_prov)

    def item_claim_counts(self) -> np.ndarray:
        """Claims per item (the Stage-I reducer input sizes)."""
        claims_per_row = np.diff(self.row_ptr)
        if self.n_items == 0:
            return np.zeros(0, dtype=np.int64)
        return np.add.reduceat(claims_per_row, self.item_ptr[:-1])

    def prov_row_counts(self) -> np.ndarray:
        """Unique supported triples per provenance (Stage-II input sizes)."""
        return np.diff(self.prov_ptr)

    def canonical_rank(self) -> np.ndarray:
        """Rank of each row in the *global* canonical-triple ordering.

        Rows are laid out item-major (items sorted field-wise, triples
        sorted within each item), which is *not* the same as sorting all
        triples by canonical string — ``("a", "x") < ("ab", "y")`` as
        tuples but ``"a|x" > "ab|y"`` as strings, because ``"|"`` sorts
        after every alphanumeric.  Reducers that must sum floats in
        ``sorted(triples)`` order (the Stage-II mean, for bit-identity
        with the serial backend) therefore order rows by this rank, built
        once and cached — pool-resident state carries it to workers.
        """
        if self._canonical_rank is None:
            order = sorted(
                range(len(self.triples)), key=lambda r: self.triples[r].canonical()
            )
            rank = np.empty(len(order), dtype=np.int64)
            rank[np.asarray(order, dtype=np.int64)] = np.arange(
                len(order), dtype=np.int64
            )
            self._canonical_rank = rank
        return self._canonical_rank

    def slice_items(self, item_ids) -> ColumnarSlice:
        """A local CSR view over ``item_ids`` for the hybrid shard kernels.

        Pure numpy gathers (no Python loop over rows or claims), so the
        per-shard setup cost stays a handful of array ops.  Items keep the
        order given; rows/claims stay contiguous per item/row, preserving
        the layout invariant the ``reduceat``-based kernels rely on.
        """
        ids = np.asarray(item_ids, dtype=np.int64)
        row_counts = self.item_ptr[ids + 1] - self.item_ptr[ids]
        rows = ragged_gather(self.item_ptr[ids], row_counts)
        item_ptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(row_counts, out=item_ptr[1:])
        row_item = np.repeat(np.arange(len(ids), dtype=np.int64), row_counts)
        claim_counts = self.row_ptr[rows + 1] - self.row_ptr[rows]
        claims = ragged_gather(self.row_ptr[rows], claim_counts)
        row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(claim_counts, out=row_ptr[1:])
        return ColumnarSlice(
            rows=rows,
            row_item=row_item,
            item_ptr=item_ptr,
            claim_prov=self.claim_prov[claims],
            row_ptr=row_ptr,
        )

    @staticmethod
    def from_items(
        items_map: dict[DataItem, dict[Triple, set[ProvKey]]],
        granularity: Granularity = Granularity.EXTRACTOR_URL,
    ) -> "ColumnarClaims":
        """The canonical layout, spelled out from the dict views.

        The executable specification :class:`ClaimAccumulator` is tested
        against — a reference, not a production path (nothing in ``src/``
        calls it).
        """
        items = sorted(items_map)
        provenances = sorted(
            {prov for triple_map in items_map.values() for provs in triple_map.values() for prov in provs}
        )
        prov_index = {prov: p for p, prov in enumerate(provenances)}

        triples: list[Triple] = []
        row_item: list[int] = []
        item_ptr = [0]
        row_ptr = [0]
        claim_prov: list[int] = []
        for j, item in enumerate(items):
            triple_map = items_map[item]
            for triple in sorted(triple_map):
                triples.append(triple)
                row_item.append(j)
                for prov in sorted(triple_map[triple]):
                    claim_prov.append(prov_index[prov])
                row_ptr.append(len(claim_prov))
            item_ptr.append(len(triples))

        claim_prov_arr = np.asarray(claim_prov, dtype=np.int64)
        row_ptr_arr = np.asarray(row_ptr, dtype=np.int64)
        # Transpose: claims sorted by (prov, row) give the per-prov row CSR.
        claim_row = np.repeat(
            np.arange(len(triples), dtype=np.int64), np.diff(row_ptr_arr)
        )
        order = np.argsort(claim_prov_arr, kind="stable")
        prov_rows = claim_row[order]
        prov_counts = np.bincount(claim_prov_arr, minlength=len(provenances))
        prov_ptr = np.zeros(len(provenances) + 1, dtype=np.int64)
        np.cumsum(prov_counts, out=prov_ptr[1:])

        return ColumnarClaims(
            granularity=granularity,
            items=items,
            triples=triples,
            provenances=provenances,
            row_item=np.asarray(row_item, dtype=np.int64),
            item_ptr=np.asarray(item_ptr, dtype=np.int64),
            claim_prov=claim_prov_arr,
            row_ptr=row_ptr_arr,
            prov_rows=prov_rows,
            prov_ptr=prov_ptr,
        )


class ClaimAccumulator:
    """Fold extraction chunks into claim columns without keeping records.

    ``add_records`` interns each record's triple and provenance key and
    appends one integer ``(row, prov)`` pair per record; ``build``
    dedupes the pairs, permutes rows into the canonical item-major
    layout and emits a ``ColumnarClaims`` equal field-for-field to
    ``ColumnarClaims.from_items`` over the same records' dict views, under
    any chunking — the property the accumulator parity tests pin.  Peak
    state is the two vocabularies plus ~16 bytes per raw claim.
    """

    def __init__(self, granularity: Granularity) -> None:
        self.granularity = granularity
        self._row_of: dict[Triple, int] = {}
        self._row_items: list[DataItem] = []
        self._prov_of: dict[ProvKey, int] = {}
        self._pairs: list[np.ndarray] = []
        self.n_records = 0

    def add_records(self, records: list[ExtractionRecord]) -> None:
        if not records:
            return
        row_of = self._row_of
        prov_of = self._prov_of
        pairs = np.empty((len(records), 2), dtype=np.int64)
        for i, record in enumerate(records):
            triple = record.triple
            row = row_of.get(triple)
            if row is None:
                row = len(row_of)
                row_of[triple] = row
                self._row_items.append(triple.data_item)
            key = provenance_key(record, self.granularity)
            prov = prov_of.get(key)
            if prov is None:
                prov = len(prov_of)
                prov_of[key] = prov
            pairs[i, 0] = row
            pairs[i, 1] = prov
        self._pairs.append(pairs)
        self.n_records += len(records)

    @property
    def n_rows(self) -> int:
        return len(self._row_of)

    def unique_triples(self) -> list[Triple]:
        return sorted(self._row_of)

    def build(self) -> ColumnarClaims:
        n_rows = len(self._row_of)
        arrival_triples = list(self._row_of)
        row_items = self._row_items
        # Canonical row order: items sorted field-wise, triples sorted
        # within each item — tuple comparison gives exactly the
        # from_items() nesting order.
        order = sorted(
            range(n_rows), key=lambda r: (row_items[r], arrival_triples[r])
        )
        row_remap = np.empty(n_rows, dtype=np.int64)
        row_remap[np.asarray(order, dtype=np.int64)] = np.arange(
            n_rows, dtype=np.int64
        )
        triples = [arrival_triples[r] for r in order]

        items: list[DataItem] = []
        row_item = np.empty(n_rows, dtype=np.int64)
        for new_row, r in enumerate(order):
            item = row_items[r]
            if not items or item != items[-1]:
                items.append(item)
            row_item[new_row] = len(items) - 1
        item_ptr = np.zeros(len(items) + 1, dtype=np.int64)
        if n_rows:
            counts = np.bincount(row_item, minlength=len(items))
            np.cumsum(counts, out=item_ptr[1:])

        provenances = sorted(self._prov_of)
        prov_remap = np.empty(len(provenances), dtype=np.int64)
        for new_prov, key in enumerate(provenances):
            prov_remap[self._prov_of[key]] = new_prov

        if self._pairs:
            raw = np.concatenate(self._pairs)
            new_rows = row_remap[raw[:, 0]]
            new_provs = prov_remap[raw[:, 1]]
            # Dedup + sort by (row, prov) in one encoded key: claims land
            # grouped by row with provenances ascending — CSR order, and
            # prov-id order is sorted-ProvKey order by construction.
            n_provs = len(provenances)
            combined = np.unique(new_rows * np.int64(n_provs) + new_provs)
            claim_row = combined // n_provs
            claim_prov = combined % n_provs
        else:
            claim_row = np.zeros(0, dtype=np.int64)
            claim_prov = np.zeros(0, dtype=np.int64)

        row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
        if n_rows:
            claim_counts = np.bincount(claim_row, minlength=n_rows)
            np.cumsum(claim_counts, out=row_ptr[1:])

        # Transpose: claims sorted by (prov, row) give the per-prov CSR.
        transpose = np.argsort(claim_prov, kind="stable")
        prov_rows = claim_row[transpose]
        prov_counts = np.bincount(claim_prov, minlength=len(provenances))
        prov_ptr = np.zeros(len(provenances) + 1, dtype=np.int64)
        np.cumsum(prov_counts, out=prov_ptr[1:])

        return ColumnarClaims(
            granularity=self.granularity,
            items=items,
            triples=triples,
            provenances=provenances,
            row_item=row_item,
            item_ptr=item_ptr,
            claim_prov=claim_prov,
            row_ptr=row_ptr,
            prov_rows=prov_rows,
            prov_ptr=prov_ptr,
        )

    def arrival_rows(self, cols: ColumnarClaims) -> np.ndarray:
        """The rows of ``cols`` (this accumulator's :meth:`build`) in
        record-arrival order: data items by first arrival, each item's
        triples by first arrival — the nesting order of the dict views
        over the same records."""
        arrival = np.fromiter(
            map(self._row_of.__getitem__, cols.triples), np.int64, cols.n_rows
        )
        if not cols.n_rows:
            return arrival
        item_arrival = np.minimum.reduceat(arrival, cols.item_ptr[:-1])
        return np.lexsort((arrival, item_arrival[cols.row_item]))

    def release(self) -> None:
        """Drop the accumulation state (vocabularies + pair chunks)."""
        self._row_of = {}
        self._row_items = []
        self._prov_of = {}
        self._pairs = []


class ClaimMatrix:
    """The deduplicated claim structure for one granularity.

    Built from extraction ``records`` or from prebuilt ``columns`` (exactly
    one).  :meth:`columnar` is the primary form; the dict views are
    derived on first access:

    ``items``: data item -> {triple -> set of supporting provenances}.
    ``prov_triples``: provenance -> unique triples it supports.

    Views derived from records keep record *arrival* order, while views
    derived from bare columns come out in the columns' canonical order
    (equal as dicts; sets and dict equality ignore order).
    :meth:`arrival_rows` is that order over the columns' rows: the
    ``serial`` backend emits in it, so order-sensitive sums over its
    output (the calibration metrics) are frozen against it.
    """

    def __init__(
        self,
        granularity: Granularity,
        records: list[ExtractionRecord] | None = None,
        columns: ColumnarClaims | None = None,
    ) -> None:
        if (records is None) == (columns is None):
            raise ValueError("ClaimMatrix takes exactly one of records= / columns=")
        self.granularity = granularity
        self._records = records
        self._columnar = columns
        self._arrival_rows: np.ndarray | None = None
        self._views: tuple[dict, dict] | None = None  # (items, prov_triples)

    @staticmethod
    def build(
        records: list[ExtractionRecord], granularity: Granularity
    ) -> "ClaimMatrix":
        return ClaimMatrix(granularity, records=records)

    def columnar(self) -> ColumnarClaims:
        """The cached int-coded CSR form (built on first use)."""
        if self._columnar is None:
            accumulator = ClaimAccumulator(self.granularity)
            accumulator.add_records(self._records)
            self._columnar = accumulator.build()
            self._arrival_rows = accumulator.arrival_rows(self._columnar)
        return self._columnar

    def arrival_rows(self) -> np.ndarray | None:
        """The columns' rows in the order ``items`` nests them
        (:meth:`ClaimAccumulator.arrival_rows`), or None over bare
        columns, whose views nest in row order already."""
        self.columnar()
        return self._arrival_rows

    def _dict_views(self):
        if self._views is None:
            items: dict[DataItem, dict[Triple, set[ProvKey]]] = {}
            prov_triples: dict[ProvKey, set[Triple]] = {}
            if self._records is not None:
                for record in self._records:
                    key = provenance_key(record, self.granularity)
                    triple_map = items.setdefault(record.triple.data_item, {})
                    triple_map.setdefault(record.triple, set()).add(key)
                    prov_triples.setdefault(key, set()).add(record.triple)
            else:
                cols = self._columnar
                triples, provenances = cols.triples, cols.provenances
                item_ptr, row_ptr = cols.item_ptr.tolist(), cols.row_ptr.tolist()
                prov_ptr = cols.prov_ptr.tolist()
                for j, item in enumerate(cols.items):
                    items[item] = {
                        triples[r]: {
                            provenances[p]
                            for p in cols.claim_prov[row_ptr[r] : row_ptr[r + 1]].tolist()
                        }
                        for r in range(item_ptr[j], item_ptr[j + 1])
                    }
                for p, prov in enumerate(provenances):
                    rows = cols.prov_rows[prov_ptr[p] : prov_ptr[p + 1]].tolist()
                    prov_triples[prov] = {triples[r] for r in rows}
            self._views = (items, prov_triples)
        return self._views

    @property
    def items(self) -> dict[DataItem, dict[Triple, set[ProvKey]]]:
        return self._dict_views()[0]

    @property
    def prov_triples(self) -> dict[ProvKey, set[Triple]]:
        return self._dict_views()[1]

    def n_claims(self) -> int:
        return self.columnar().n_claims

    def provenance_support(self) -> dict[ProvKey, int]:
        """Unique-triple count per provenance (the coverage-filter signal)."""
        return {key: len(triples) for key, triples in self.prov_triples.items()}

    def claims_of_item(self, item: DataItem) -> dict[Triple, set[ProvKey]]:
        return self.items.get(item, {})

    def all_triples(self) -> list[Triple]:
        return sorted(
            triple
            for triple_map in self.items.values()
            for triple in triple_map
        )
