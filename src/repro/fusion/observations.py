"""Fusion input: unique (triple, provenance) claims.

Raw extraction is many-to-many — the same extractor may extract the same
triple from the same page through two patterns, and certainly from many
pages.  Fusion operates on the deduplicated *claim* matrix: for every data
item, which provenances support which triple.

The matrix has one form, :class:`ColumnarClaims`: an int-coded CSR layout
built by :class:`FusionInput`.  Records sit at the information level and
claims at the knowledge level, so the fusion input is the one claim view
of the run's one record store
(:class:`~repro.extract.records.RecordTables`, where each distinct
string and triple is coded once) and builds any granularity from the
store's code columns — a triple code and four provenance-string codes
per record: the row layout is computed once per store state, and each
granularity's provenance ids and claim CSR are array operations over
those columns, cached per granularity (``claims(g)``), so the same
extraction run is fused under many configurations cheaply (the
granularity sweep of Figure 10 does exactly that); a streamed pipeline
run hands it one prebuilt column set instead.  A *row* is one unique
``(data item, triple)`` pair — and because a triple determines its data
item, rows are exactly the unique triples; a *claim* is one
``(row, provenance)`` support edge.  Rows are grouped contiguously by
item and claims contiguously by row, so every per-item and per-row
aggregate is a ``np.add.reduceat`` over a pointer array.

The per-item dict views this layout replaced (data item -> triple -> set
of provenances) exist only in the test suite, as the oracles' input
(``tests/oracle/columns.py``); what ``serial`` keeps of them is their
iteration order, carried as one row permutation
(:meth:`FusionInput.arrival_rows`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.extract.records import ExtractionRecord, RecordColumns, RecordTables
from repro.fusion.provenance import KEY_FIELDS, Granularity
from repro.kb.triples import DataItem, Triple

__all__ = [
    "ColumnarClaims",
    "ColumnarSlice",
    "FusionInput",
    "LazyNames",
    "ragged_gather",
    "slice_csr",
]

ProvKey = tuple[str, ...]


@dataclass
class FusionInput:
    """A record store's one claim view: its claim columns per granularity.

    ``records`` are a :class:`~repro.extract.records.RecordTables`
    store; a record list is encoded once, on construction.  The input
    keeps no vocabulary and no code column of its own: the row layout
    (canonical item-major order, the arrival permutation, the canonical
    rank) is computed from the store's triple texts, each row's data
    item sliced out of its text, never parsed; provenance ids are dense
    string ranks combined one key component at a time, a missing pattern
    reading as ``"<extractor>:-"`` (resolved at layout); names are
    decoded when first read (:class:`LazyNames`).  The layout and every
    ``claims(g)`` are kept under the store size they were computed at,
    so a store that grows is laid out afresh on the next read, and
    CONFACCU's per-record claim ids (:meth:`record_claims`) index the
    rows of ``records.columns`` by construction.  The columns equal the
    layout spelled out object by object from the records' dict views
    (``tests/oracle/columns.py``) field for field, under any chunking.

    :meth:`from_columns` wraps one prebuilt column set instead (a
    streamed pipeline run never holds a record list): ``records`` is then
    None and ``claims()`` serves the one granularity the columns were
    built at — a granularity sweep needs the record path.
    """

    records: RecordTables | list[ExtractionRecord] | None
    _cache: dict[Granularity, "ColumnarClaims"] = field(default_factory=dict, repr=False)
    # The layout and the store size it and ``_cache`` are for: the store only grows.
    _layout: "tuple[int, _Layout] | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.records is not None:
            self.records = RecordTables.of(self.records)

    @staticmethod
    def from_columns(cols: "ColumnarClaims") -> "FusionInput":
        return FusionInput(None, _cache={cols.granularity: cols})

    def _laid_out(self) -> "_Layout":
        n_records = len(self.records)
        if self._layout is None or self._layout[0] != n_records:
            self._layout = (n_records, _lay_out(self.records.columns))
            self._cache.clear()
        return self._layout[1]

    def claims(self, granularity: Granularity) -> "ColumnarClaims":
        """The claim columns at ``granularity`` (built on first use)."""
        if self.records is not None:
            layout = self._laid_out()
            if granularity not in self._cache:
                self._cache[granularity] = self._build(layout, granularity)
        cols = self._cache.get(granularity)
        if cols is None:
            (held,) = self._cache
            raise ValueError(
                f"columns were accumulated at granularity {held.value!r}; "
                f"re-extract to fuse at {granularity.value!r}"
            )
        return cols

    def arrival_rows(self) -> np.ndarray | None:
        """The rows of every ``claims(g)`` (the rows are the same at any
        granularity) in record-arrival order: data items by first
        arrival, each item's triples by first arrival — how a dict keyed
        item -> triple nests over the same records.  None over bare
        columns, which carry no arrival order."""
        if self.records is None:
            return None
        return self._laid_out().arrival_rows

    def unique_texts(self) -> list[str]:
        """The canonical texts of all distinct extracted triples (the
        paper's 1.6B 'unique'), sorted."""
        if self.records is None:
            (cols,) = self._cache.values()
            return [cols.texts[r] for r in np.argsort(cols.canonical_rank()).tolist()]
        return self._laid_out().sorted_texts

    def unique_triples(self) -> list[Triple]:
        """:meth:`unique_texts`, decoded."""
        return list(map(Triple.from_canonical, self.unique_texts()))

    def _record_provenances(
        self, layout: "_Layout", granularity: Granularity
    ) -> tuple[np.ndarray, np.ndarray, LazyNames]:
        """Each record's canonical row and provenance id at
        ``granularity``, and the sorted provenance table the ids index —
        its ``ProvKey`` tuples decoded when first read."""
        codes = self.records.columns.codes
        record_row = layout.row_of_arrival[codes[:, 0]]

        def component(name: str, records) -> tuple[np.ndarray, list[str]]:
            """One key component of ``records``: each one's rank in the
            component's sorted string table, and that table."""
            if name == "predicate":
                return layout.row_predicate[record_row[records]], layout.predicates
            ranks = layout.string_rank[codes[records, _CODE_COLUMN[name]]]
            if name == "pattern":
                missing = codes[records, 5] < 0
                ranks[missing] = layout.implicit_rank[codes[records, 1][missing]]
            return ranks, layout.strings

        # Fold the components left to right into one dense id whose
        # integer order is the tuple order of the strings; re-densifying
        # after every component bounds the radix product by
        # n_records * table size.
        fields = KEY_FIELDS[granularity]
        record_prov = np.zeros(len(codes), dtype=np.int64)
        first = np.zeros(0, dtype=np.int64)  # first record of each provenance
        for name in fields:
            ranks, table = component(name, slice(None))
            _, first, record_prov = np.unique(
                record_prov * len(table) + ranks,
                return_index=True,
                return_inverse=True,
            )
        # The key components' ranks now, their strings on first read.
        ranked = [component(name, first) for name in fields]
        provenances = LazyNames(
            len(first),
            lambda: list(
                zip(*([table[rank] for rank in ranks.tolist()] for ranks, table in ranked))
            ),
        )
        return record_row, record_prov, provenances

    def record_claims(self, cols: "ColumnarClaims") -> np.ndarray:
        """Each record's claim id in ``cols`` (this input's
        ``claims(cols.granularity)``), in record-arrival order: the
        claims are the records' distinct ``(row, provenance)`` keys,
        sorted."""
        record_row, record_prov, provenances = self._record_provenances(
            self._laid_out(), cols.granularity
        )
        keys = record_row * len(provenances) + record_prov
        return np.unique(keys, return_inverse=True)[1]

    def _build(self, layout: "_Layout", granularity: Granularity) -> "ColumnarClaims":
        """The claim columns at ``granularity`` over ``layout``."""
        n_rows = len(layout.texts)
        record_row, record_prov, provenances = self._record_provenances(layout, granularity)
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
            texts=layout.texts,
            triples=layout.triples,
            provenances=provenances,
            row_item=layout.row_item,
            item_ptr=layout.item_ptr,
            claim_prov=claim_prov,
            row_ptr=row_ptr,
            prov_rows=prov_rows,
            prov_ptr=prov_ptr,
            _canonical_rank=layout.canonical_rank,
            _gold_memo=layout.gold_memo,
        )


class LazyNames(Sequence):
    """A name column decoded on first read.

    Its length is known up front, so ``len()`` (every count the round loop
    needs) decodes nothing; the values — ``DataItem`` objects, ``ProvKey``
    tuples — are built by ``decode`` the first time anything reads one,
    then kept.
    """

    __slots__ = ("_n", "_decode", "_values")

    def __init__(self, n: int, decode) -> None:
        self._n = n
        self._decode = decode
        self._values: list | None = None

    def __len__(self) -> int:
        return self._n

    def decoded(self) -> list:
        """The values, decoding them on the first call."""
        if self._values is None:
            self._values = self._decode()
            self._decode = None
        return self._values

    def __getitem__(self, index):
        return self.decoded()[index]

    def __iter__(self):
        return iter(self.decoded())


def ragged_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[k], starts[k]+counts[k])`` ranges, vectorized.

    The CSR-segment gather: rows per item and claims per row
    (:func:`slice_csr`), rows per provenance (the exact
    Stage II), claims per unscored row (the θ fallback of Stage III).
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

    Values are strings, so every comparison the sort makes is C-level —
    never a ``Triple`` / ``DataItem`` ``__lt__`` — and the table holds no
    tuple for the collector to track.
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
    kernels score one pool shard — the ``hybrid`` backend's unit of
    work.  ``rows`` maps each local row back to its global row id (the
    θ-rescue writes its posteriors back through it); ``claim_prov`` keeps
    *global* provenance ids so the per-pool accuracy/active buffers index
    directly, and ``claims`` maps each local claim to its global claim id
    (so a round's claim keep-mask slices with one gather).
    """

    rows: np.ndarray  # local row -> global row id
    row_item: np.ndarray  # local row -> local item index
    item_ptr: np.ndarray  # local item j rows: [item_ptr[j], item_ptr[j+1])
    claim_prov: np.ndarray  # local claim -> GLOBAL provenance index
    row_ptr: np.ndarray  # local row r claims: [row_ptr[r], row_ptr[r+1])
    claims: np.ndarray  # local claim -> global claim id

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def slice_csr(item_ptr, row_ptr, claim_prov, item_ids) -> ColumnarSlice:
    """A local CSR view over ``item_ids`` for the batched shard kernels.

    The body of :meth:`ColumnarClaims.slice_items`, over the three
    Stage-I arrays only, so a pool shard can slice the copies its round's
    shared-memory segment carries.  Pure numpy gathers (no Python loop
    over rows or claims), so the per-shard setup cost stays a handful of
    array ops.  Items keep the order given; rows/claims stay contiguous
    per item/row, preserving the layout invariant the ``reduceat``-based
    kernels rely on.
    """
    ids = np.asarray(item_ids, dtype=np.int64)
    row_counts = item_ptr[ids + 1] - item_ptr[ids]
    rows = ragged_gather(item_ptr[ids], row_counts)
    local_item_ptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(row_counts, out=local_item_ptr[1:])
    row_item = np.repeat(np.arange(len(ids), dtype=np.int64), row_counts)
    claim_counts = row_ptr[rows + 1] - row_ptr[rows]
    claims = ragged_gather(row_ptr[rows], claim_counts)
    local_row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(claim_counts, out=local_row_ptr[1:])
    return ColumnarSlice(
        rows=rows,
        row_item=row_item,
        item_ptr=local_item_ptr,
        claim_prov=claim_prov[claims],
        row_ptr=local_row_ptr,
        claims=claims,
    )


@dataclass(eq=False)  # ndarray fields: generated __eq__ would raise
class ColumnarClaims:
    """Int-coded CSR view of a claim matrix for the vectorized kernels.

    Index spaces (all contiguous, all sorted so the layout is canonical):

    - **item** ``j``: ``items[j]`` (sorted :class:`DataItem`);
    - **row** ``r``: one unique triple, canonical text ``texts[r]``; rows
      are grouped by item — item ``j`` owns rows ``item_ptr[j]:item_ptr[j+1]``
      — and sorted canonically within the item;
    - **provenance** ``p``: ``provenances[p]`` (sorted tuples);
    - **claim** ``c``: one ``(row, provenance)`` support edge; claims are
      grouped by row — row ``r`` owns claims ``row_ptr[r]:row_ptr[r+1]``
      and ``claim_prov[c]`` is the supporting provenance.

    ``prov_rows``/``prov_ptr`` is the transposed CSR: provenance ``p``
    supports rows ``prov_rows[prov_ptr[p]:prov_ptr[p+1]]`` (the unique
    triples of each provenance, feeding Stage II).

    A row's identity is its text: the gold column and the canonical rank
    read ``texts``.  ``items``, ``triples`` (``texts`` parsed) and
    ``provenances`` are sequences: a fusion input's columns hand out
    :class:`LazyNames`, decoded only when something reads a name — the
    result views, the §5 extensions, printed rows.
    """

    granularity: Granularity
    items: Sequence[DataItem]
    texts: list[str]
    triples: Sequence[Triple]
    provenances: Sequence[ProvKey]
    row_item: np.ndarray  # row -> item index
    item_ptr: np.ndarray  # item j rows: [item_ptr[j], item_ptr[j+1])
    claim_prov: np.ndarray  # claim -> provenance index
    row_ptr: np.ndarray  # row r claims: [row_ptr[r], row_ptr[r+1])
    prov_rows: np.ndarray  # concatenated row ids per provenance
    prov_ptr: np.ndarray  # prov p rows: [prov_ptr[p], prov_ptr[p+1])
    _canonical_rank: np.ndarray | None = field(default=None, repr=False)
    _canonical_prov_order: np.ndarray | None = field(default=None, repr=False)
    # One-slot identity memo of gold_rows: [gold dict, its size, column].
    _gold_memo: list = field(default_factory=lambda: [None, 0, None], repr=False)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_rows(self) -> int:
        return len(self.texts)

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
        after every alphanumeric.  Stage II's canonical order (the exact
        mean, and its sampling draw) therefore orders rows by this rank
        (:meth:`canonical_prov_order`), built once and cached.
        """
        if self._canonical_rank is None:
            _, canonical = _sorted_table(self.texts)
            self._canonical_rank = _inverse(np.argsort(canonical, kind="stable"))
        return self._canonical_rank

    def canonical_prov_order(self) -> np.ndarray:
        """Positions into ``prov_rows`` listing each provenance's rows in
        canonical triple order (:meth:`canonical_rank`): a permutation
        within each ``prov_ptr`` span, so ``prov_rows[order]`` keeps the
        spans.

        The exact Stage II sums each provenance's posteriors in this
        order and Stage-II sampling draws over it; built once (one int64
        per claim) and cached.
        """
        if self._canonical_prov_order is None:
            n_provs = len(self.prov_ptr) - 1
            prov_of = np.repeat(np.arange(n_provs), np.diff(self.prov_ptr))
            self._canonical_prov_order = np.lexsort(
                (self.canonical_rank()[self.prov_rows], prov_of)
            )
        return self._canonical_prov_order

    def gold_rows(self, gold: dict[str, bool]) -> np.ndarray:
        """Each row's gold label as int8: 1 true, 0 false, -1 unlabelled.

        One dict probe per row text, kept for the last ``gold`` dict seen (an
        identity memo, shared by every granularity one fusion input
        builds), so the ladder's five metric passes and POPACCU+'s
        initialisation probe the gold standard once.  A gold dict must not
        be mutated in place between reads.
        """
        memo = self._gold_memo
        if memo[0] is not gold or memo[1] != len(gold):
            memo[2] = np.fromiter(map(gold.get, self.texts, repeat(-1)), np.int8, self.n_rows)
            memo[0], memo[1] = gold, len(gold)
        return memo[2]

    def slice_items(self, item_ids) -> ColumnarSlice:
        """A local CSR view over ``item_ids`` (:func:`slice_csr`)."""
        return slice_csr(self.item_ptr, self.row_ptr, self.claim_prov, item_ids)

    def columnar(self) -> "ColumnarClaims":
        """``self``: the pre-fold ``claims(g).columnar()`` spelling, kept
        for ``benchmarks/kfbench`` only."""
        return self


@dataclass(eq=False)
class _Layout:
    """What no granularity changes: the row layout and the string order.

    Computed once per store state and shared — list objects and the
    gold-column memo included — by every ``ColumnarClaims`` one fusion
    input builds.
    """

    items: LazyNames
    texts: list[str]  # canonical row -> its triple's text
    triples: LazyNames  # ``texts`` parsed
    sorted_texts: list[str]  # the texts in canonical-string order
    row_item: np.ndarray
    item_ptr: np.ndarray
    canonical_rank: np.ndarray
    arrival_rows: np.ndarray
    row_of_arrival: np.ndarray  # arrival row code -> canonical row
    predicates: list[str]  # the distinct predicates, sorted
    row_predicate: np.ndarray  # canonical row -> index into predicates
    strings: list[str]  # the provenance strings and "<extractor>:-", sorted
    string_rank: np.ndarray  # string code -> index into strings
    implicit_rank: np.ndarray  # extractor's string code -> "<extractor>:-"'s index
    gold_memo: list = field(default_factory=lambda: [None, 0, None])


#: Provenance key component -> its column of ``RecordColumns.codes``.
_CODE_COLUMN = {"extractor": 1, "url": 2, "site": 3, "pattern": 5}


def _lay_out(cols: RecordColumns) -> _Layout:
    """The row layout and string order of a store's ``cols``."""
    arrival_texts = cols.triples
    n_rows = len(arrival_texts)
    # Dense ids in sorted-string order, for the two things rows sort by:
    # their data item (field-wise: subject rank, then predicate rank,
    # numbered as one pair code) and their canonical string.  Subject
    # and predicate are the text's first two "|"-separated fields,
    # sliced out: no per-row list, tuple or Triple.
    first = list(map(str.index, arrival_texts, repeat("|")))
    subjects, row_subject = _sorted_table([text[:i] for text, i in zip(arrival_texts, first)])
    predicates, row_predicate = _sorted_table(
        [text[i + 1 : text.index("|", i + 1)] for text, i in zip(arrival_texts, first)]
    )
    item_codes, row_item = np.unique(
        row_subject * len(predicates) + row_predicate, return_inverse=True
    )
    item_subject, item_predicate = np.divmod(item_codes, max(len(predicates), 1))
    sorted_texts, row_canonical = _sorted_table(arrival_texts)
    # Canonical row order: items sorted, triples sorted within each item.
    order = np.lexsort((row_canonical, row_item))  # canonical row -> arrival code
    row_of_arrival = _inverse(order)
    texts = [arrival_texts[a] for a in order.tolist()]
    row_item = row_item[order]
    item_ptr = np.zeros(len(item_codes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_item, minlength=len(item_codes)), out=item_ptr[1:])

    # Record-arrival order: items by first arrival, each item's
    # triples by first arrival.
    arrival_rows = order
    if n_rows:
        item_arrival = np.minimum.reduceat(order, item_ptr[:-1])
        arrival_rows = np.lexsort((order, item_arrival[row_item]))

    # A missing pattern reads as "<extractor>:-", as KEY_FIELDS does:
    # those strings join the provenance strings' sort.
    extractor, pattern = cols.codes[:, 1], cols.codes[:, 5]
    implicit = np.unique(extractor[pattern < 0])
    strings, string_rank = _sorted_table(
        [*cols.strings, *(f"{cols.strings[e]}:-" for e in implicit.tolist())]
    )
    implicit_rank = np.zeros(len(cols.strings), dtype=np.int64)
    implicit_rank[implicit] = string_rank[len(cols.strings) :]
    return _Layout(
        items=LazyNames(
            len(item_codes),
            lambda: [
                DataItem(subjects[s], predicates[p])
                for s, p in zip(item_subject.tolist(), item_predicate.tolist())
            ],
        ),
        texts=texts,
        triples=LazyNames(n_rows, lambda: list(map(Triple.from_canonical, texts))),
        sorted_texts=sorted_texts,
        row_item=row_item,
        item_ptr=item_ptr,
        # The texts are distinct, so their sorted-table index is the rank.
        canonical_rank=row_canonical[order],
        arrival_rows=arrival_rows,
        row_of_arrival=row_of_arrival,
        predicates=predicates,
        row_predicate=row_predicate[order],
        strings=strings,
        string_rank=string_rank[: len(cols.strings)],
        implicit_rank=implicit_rank,
    )
