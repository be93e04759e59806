"""Fusion input: unique (triple, provenance) claims.

Raw extraction is many-to-many — the same extractor may extract the same
triple from the same page through two patterns, and certainly from many
pages.  Fusion operates on the deduplicated *claim* matrix: for every data
item, which provenances support which triple.  :class:`FusionInput` builds
and caches that matrix per granularity, so the same extraction run can be
fused under many configurations cheaply (the granularity sweep of
Figure 10 does exactly that).

The matrix has one form, the **columnar** one (:class:`ColumnarClaims`, via
:meth:`ClaimMatrix.columnar`): an int-coded CSR layout built by
:class:`ClaimAccumulator` (or handed in prebuilt by a streamed pipeline
run) and cached.  The accumulator interns each record once — a triple
code and four provenance-string codes — and is shared by all of a
:class:`FusionInput`'s granularities: the row layout is computed once per
vocabulary, and each granularity's provenance ids and claim CSR are array
operations over the code columns.  The column-native round loop, the
shard workers, the vectorized posterior kernels of
:mod:`repro.fusion.kernels` and the §5 extension fusers
(:mod:`repro.fusion.extensions`) read nothing else.  A *row* is one unique
``(data item, triple)`` pair — and because a triple determines its data
item, rows are exactly the unique triples; a *claim* is one
``(row, provenance)`` support edge.  Rows are grouped contiguously by
item and claims contiguously by row, so every per-item and per-row
aggregate is a ``np.add.reduceat`` over a pointer array.

The per-item dict views this layout replaced (data item -> triple -> set
of provenances) exist only in the test suite, as the oracles' input
(``tests/oracle/columns.py``); what ``serial`` keeps of them is their
iteration order, carried as one row permutation
(:meth:`ClaimMatrix.arrival_rows`).
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.extract.records import ExtractionRecord
from repro.fusion.provenance import KEY_FIELDS, Granularity
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

    The records are interned once, into one :class:`ClaimAccumulator`
    every granularity's columns are built from — so the second and later
    ``claims(g).columnar()`` of a granularity sweep cost array operations
    only.  A caller that already folded these records into an accumulator
    (a materialised pipeline run) passes it as ``accumulator``.

    :meth:`from_columns` wraps one prebuilt column set instead (a
    streamed pipeline run never holds a record list): ``records`` is then
    None and ``claims()`` serves the one granularity the columns were
    built at — a granularity sweep needs the record path.
    """

    records: list[ExtractionRecord] | None
    _cache: dict[Granularity, "ClaimMatrix"] = field(default_factory=dict, repr=False)
    accumulator: "ClaimAccumulator | None" = field(default=None, repr=False)

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
            matrix = ClaimMatrix(
                granularity, records=self.records, accumulated=self._accumulated
            )
            self._cache[granularity] = matrix
        return matrix

    def _accumulated(self) -> "ClaimAccumulator":
        if self.accumulator is None:
            self.accumulator = _accumulate(self.records)
        return self.accumulator

    def unique_triples(self) -> list[Triple]:
        """All distinct extracted triples (the paper's 1.6B 'unique')."""
        if self.records is None:
            (matrix,) = self._cache.values()
            cols = matrix.columnar()
            return [cols.triples[r] for r in np.argsort(cols.canonical_rank()).tolist()]
        return self._accumulated().unique_triples()

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


def _inverse(permutation: np.ndarray) -> np.ndarray:
    """The inverse permutation: element -> its position in ``permutation``."""
    inverse = np.empty(len(permutation), dtype=np.int64)
    inverse[permutation] = np.arange(len(permutation), dtype=np.int64)
    return inverse


def _sorted_table(values: list) -> tuple[list, np.ndarray]:
    """The distinct ``values`` sorted, and each value's index in that table.

    Values are strings or tuples of strings, so every comparison the sort
    makes is C-level — never a ``Triple`` / ``DataItem`` ``__lt__``.
    """
    table = sorted(set(values))
    index = {value: i for i, value in enumerate(table)}
    return table, np.fromiter(map(index.__getitem__, values), np.int64, len(values))


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
    supports rows ``prov_rows[prov_ptr[p]:prov_ptr[p+1]]`` (the unique
    triples of each provenance, feeding Stage II).
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
            _, canonical = _sorted_table([triple.canonical() for triple in self.triples])
            self._canonical_rank = _inverse(np.argsort(canonical, kind="stable"))
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


class _Vocabulary(dict):
    """Key -> dense int code in first-arrival order (a miss assigns the next)."""

    __slots__ = ()

    def __missing__(self, key) -> int:
        code = self[key] = len(self)
        return code


@dataclass(eq=False)
class _Layout:
    """What no granularity changes: the row layout and the string order.

    Computed once per vocabulary state and shared — list objects included
    — by every ``ColumnarClaims`` one accumulator builds.
    """

    items: list[DataItem]
    triples: list[Triple]
    row_item: np.ndarray
    item_ptr: np.ndarray
    canonical_rank: np.ndarray
    arrival_rows: np.ndarray
    row_of_arrival: np.ndarray  # arrival row code -> canonical row
    predicates: list[str]  # the distinct predicates, sorted
    row_predicate: np.ndarray  # canonical row -> index into predicates
    strings: list[str]  # the provenance strings, sorted
    string_rank: np.ndarray  # string code -> index into strings


#: Code columns ``add_records`` appends per record, in column order.
_CODE_FIELDS = ("row", "extractor", "url", "site", "pattern")


class ClaimAccumulator:
    """Fold extraction chunks into claim columns without keeping records.

    Accumulation is granularity-free: ``add_records`` interns each
    record's triple and its four provenance strings once, appending five
    int32 codes per record against the accumulator's own vocabularies.
    ``build`` is numpy from there, at any granularity: the row layout
    (canonical item-major order, the arrival permutation, the canonical
    rank) is computed once per vocabulary from precomputed string keys;
    provenance ids are dense string ranks combined one key component at a
    time, and ``ProvKey`` tuples are decoded for the unique keys only.
    The result equals the layout spelled out object by object from the
    same records' dict views (``tests/oracle/columns.py``) field for
    field, under any chunking — the property the accumulator parity
    tests pin.  Peak state is the
    vocabularies plus 20 bytes per record.
    """

    def __init__(self, granularity: Granularity) -> None:
        self.granularity = granularity
        self._row_of = _Vocabulary()  # Triple -> arrival row code
        self._string_of = _Vocabulary()  # extractor / url / site / pattern
        self._codes: list[np.ndarray] = []  # per chunk: int32[5, n]
        self._layout: _Layout | None = None
        self.n_records = 0

    def add_records(self, records: list[ExtractionRecord]) -> None:
        if not records:
            return
        row_of = self._row_of
        string_of = self._string_of
        codes: list[int] = []
        extend = codes.extend
        for record in records:
            extractor = record.extractor
            pattern = record.pattern
            if pattern is None:
                pattern = f"{extractor}:-"  # as provenance_key spells it
            extend(
                (
                    row_of[record.triple],
                    string_of[extractor],
                    string_of[record.url],
                    string_of[record.site],
                    string_of[pattern],
                )
            )
        self._codes.append(
            np.array(codes, dtype=np.int32).reshape(-1, len(_CODE_FIELDS)).T
        )
        self._layout = None
        self.n_records += len(records)

    @property
    def n_rows(self) -> int:
        return len(self._row_of)

    def _laid_out(self) -> _Layout:
        if self._layout is None:
            self._layout = self._lay_out()
        return self._layout

    def _lay_out(self) -> _Layout:
        arrival_triples = list(self._row_of)
        n_rows = len(arrival_triples)
        # Dense ids in sorted-string order, for the two things rows sort by:
        # their data item (field-wise) and their canonical string.
        item_table, row_item = _sorted_table(
            [(triple.subject, triple.predicate) for triple in arrival_triples]
        )
        _, row_canonical = _sorted_table(
            [triple.canonical() for triple in arrival_triples]
        )
        # Canonical row order: items sorted, triples sorted within each item.
        order = np.lexsort((row_canonical, row_item))  # canonical row -> arrival code
        row_of_arrival = _inverse(order)
        triples = [arrival_triples[a] for a in order.tolist()]
        row_item = row_item[order]
        item_ptr = np.zeros(len(item_table) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_item, minlength=len(item_table)), out=item_ptr[1:])

        # Record-arrival order: items by first arrival, each item's
        # triples by first arrival.
        arrival_rows = order
        if n_rows:
            item_arrival = np.minimum.reduceat(order, item_ptr[:-1])
            arrival_rows = np.lexsort((order, item_arrival[row_item]))

        predicates, item_predicate = _sorted_table([item[1] for item in item_table])
        strings, string_rank = _sorted_table(list(self._string_of))
        return _Layout(
            items=[DataItem(*item) for item in item_table],
            triples=triples,
            row_item=row_item,
            item_ptr=item_ptr,
            canonical_rank=_inverse(np.argsort(row_canonical[order], kind="stable")),
            arrival_rows=arrival_rows,
            row_of_arrival=row_of_arrival,
            predicates=predicates,
            row_predicate=item_predicate[row_item],
            strings=strings,
            string_rank=string_rank,
        )

    def unique_triples(self) -> list[Triple]:
        """The distinct triples in sorted (canonical-string) order."""
        layout = self._laid_out()
        return [layout.triples[r] for r in np.argsort(layout.canonical_rank).tolist()]

    def build(self, granularity: Granularity | None = None) -> ColumnarClaims:
        """The claim columns at ``granularity`` (default: the constructor's)."""
        if granularity is None:
            granularity = self.granularity
        layout = self._laid_out()
        n_rows = len(layout.triples)
        codes = np.concatenate(
            [np.zeros((len(_CODE_FIELDS), 0), dtype=np.int32), *self._codes], axis=1
        )
        record_row = layout.row_of_arrival[codes[0]]

        def component(name: str, records) -> tuple[np.ndarray, list[str]]:
            """One key component of ``records``: each one's rank in the
            component's sorted string table, and that table."""
            if name == "predicate":
                return layout.row_predicate[record_row[records]], layout.predicates
            codes_of = codes[_CODE_FIELDS.index(name)]
            return layout.string_rank[codes_of[records]], layout.strings

        # Fold the components left to right into one dense id whose
        # integer order is the tuple order of the strings; re-densifying
        # after every component bounds the radix product by
        # n_records * table size.
        fields = KEY_FIELDS[granularity]
        record_prov = np.zeros(codes.shape[1], dtype=np.int64)
        first = np.zeros(0, dtype=np.int64)  # first record of each provenance
        for name in fields:
            ranks, table = component(name, slice(None))
            _, first, record_prov = np.unique(
                record_prov * len(table) + ranks,
                return_index=True,
                return_inverse=True,
            )
        decoded = (component(name, first) for name in fields)
        provenances: list[ProvKey] = list(
            zip(*([table[rank] for rank in ranks.tolist()] for ranks, table in decoded))
        )
        n_provs = len(provenances)

        # Dedup + sort by (row, prov) in one encoded key: claims land
        # grouped by row with provenances ascending — CSR order.
        claim_row, claim_prov = np.divmod(
            np.unique(record_row * n_provs + record_prov), max(n_provs, 1)
        )
        row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(claim_row, minlength=n_rows), out=row_ptr[1:])
        # Transpose: claims sorted by (prov, row) give the per-prov CSR.
        prov_rows = claim_row[np.argsort(claim_prov, kind="stable")]
        prov_ptr = np.zeros(n_provs + 1, dtype=np.int64)
        np.cumsum(np.bincount(claim_prov, minlength=n_provs), out=prov_ptr[1:])

        return ColumnarClaims(
            granularity=granularity,
            items=layout.items,
            triples=layout.triples,
            provenances=provenances,
            row_item=layout.row_item,
            item_ptr=layout.item_ptr,
            claim_prov=claim_prov,
            row_ptr=row_ptr,
            prov_rows=prov_rows,
            prov_ptr=prov_ptr,
            _canonical_rank=layout.canonical_rank,
        )

    def arrival_rows(self, cols: ColumnarClaims) -> np.ndarray:
        """The rows of ``cols`` (this accumulator's :meth:`build`, at any
        granularity — the rows are the same) in record-arrival order:
        data items by first arrival, each item's triples by first arrival
        — how a dict keyed item -> triple nests over the same records."""
        return self._laid_out().arrival_rows

    def release(self) -> None:
        """Drop the accumulation state (vocabularies, code chunks, layout)."""
        self._row_of = _Vocabulary()
        self._string_of = _Vocabulary()
        self._codes = []
        self._layout = None


def _accumulate(records: list[ExtractionRecord]) -> ClaimAccumulator:
    # The granularity is build()'s default only; every caller names its own.
    accumulator = ClaimAccumulator(Granularity.EXTRACTOR_URL)
    accumulator.add_records(records)
    return accumulator


class ClaimMatrix:
    """The deduplicated claim columns of one granularity, built on demand.

    Built from extraction ``records`` or from prebuilt ``columns`` (exactly
    one); ``accumulated`` supplies the records' accumulator when a
    :class:`FusionInput` shares one between its granularities.
    :meth:`columnar` is the matrix; :meth:`arrival_rows` is the order the
    records first named its rows in — the ``serial`` backend emits in it,
    so order-sensitive sums over its output (the calibration metrics) are
    frozen against it.
    """

    def __init__(
        self,
        granularity: Granularity,
        records: list[ExtractionRecord] | None = None,
        columns: ColumnarClaims | None = None,
        accumulated: Callable[[], ClaimAccumulator] | None = None,
    ) -> None:
        if (records is None) == (columns is None):
            raise ValueError("ClaimMatrix takes exactly one of records= / columns=")
        self.granularity = granularity
        self._columnar = columns
        self._accumulated = accumulated or functools.partial(_accumulate, records)
        self._arrival_rows: np.ndarray | None = None

    @staticmethod
    def build(
        records: list[ExtractionRecord], granularity: Granularity
    ) -> "ClaimMatrix":
        return ClaimMatrix(granularity, records=records)

    def columnar(self) -> ColumnarClaims:
        """The cached int-coded CSR form (built on first use)."""
        if self._columnar is None:
            accumulator = self._accumulated()
            self._columnar = accumulator.build(self.granularity)
            self._arrival_rows = accumulator.arrival_rows(self._columnar)
        return self._columnar

    def arrival_rows(self) -> np.ndarray | None:
        """The columns' rows in record-arrival order
        (:meth:`ClaimAccumulator.arrival_rows`), or None over bare
        columns, which carry no arrival order."""
        self.columnar()
        return self._arrival_rows

    def n_claims(self) -> int:
        return self.columnar().n_claims
