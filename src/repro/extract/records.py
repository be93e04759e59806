"""Extraction records and their debug channel.

An :class:`ExtractionRecord` is one cell of the paper's three-dimensional
input: what one extractor extracted from one URL for one data item —
together with the rich provenance the paper keeps (extractor, URL, pattern,
confidence).

``debug`` is ground truth for *analysis only*: which hidden page assertion
the record came from and what kind of extraction error (if any) it embodies.
The fusion layer works from the record's public fields; the test suite
checks that fusion results are invariant to stripping the debug channel.

Record objects are an input form only (:meth:`RecordTables.of` encodes
a list): extraction writes table rows (:class:`TableBuilder`), a run
appends its tables to one record store (:class:`RecordTables`), and
every reader reads the store's columns.  The decode (:func:`records_from_wire`,
:class:`RecordTables` iteration) serves ``benchmarks/kfbench`` only.
"""

from __future__ import annotations

import enum
import gc
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from repro.kb.triples import Triple
from repro.mapreduce.codec import WireCodec

__all__ = [
    "ErrorKind",
    "ExtractionDebug",
    "ExtractionRecord",
    "RecordColumns",
    "RecordTables",
    "TableBuilder",
    "records_to_wire",
    "records_from_wire",
    "RECORD_WIRE_CODEC",
]


class ErrorKind(enum.Enum):
    """The paper's three extraction-error classes (§3.2.1)."""

    TRIPLE_IDENTIFICATION = "triple_identification"
    ENTITY_LINKAGE = "entity_linkage"
    PREDICATE_LINKAGE = "predicate_linkage"


@dataclass(slots=True)
class ExtractionDebug:
    """Analysis-only ground truth attached to a record.

    ``asserted_index`` points into the source page's hidden assertion list
    (None when the record was fabricated from a non-fact mention, e.g. a
    name cell in a merged DOM row).  ``error_kind`` is None when the record
    faithfully reproduces the page's claim; ``source_error`` is True when
    that claim itself was wrong in the world.

    ``span_corrupted`` (the extractor truncated the mention before linking)
    and ``slot_mismatch`` (the mention was taken from a structural slot
    whose declared predicate differs from the emitted one — merged-row
    flattening) are mechanism flags set at extraction time; the pipeline
    uses them to classify ``error_kind``.
    """

    asserted_index: int | None
    error_kind: ErrorKind | None = None
    source_error: bool = False
    span_corrupted: bool = False
    slot_mismatch: bool = False


@dataclass(slots=True)
class ExtractionRecord:
    """One (triple, provenance) observation.

    ``pattern`` is the extractor-internal pattern id that produced the
    record (None for pattern-free extractors, cf. Table 2); ``confidence``
    is the extractor's self-reported confidence (None for extractors that
    do not emit one).

    Not frozen: the decode builds one per row, and a frozen ``__init__``
    pays an ``object.__setattr__`` per field.  Records are never hashed.
    """

    triple: Triple
    extractor: str
    url: str
    site: str
    content_type: str
    pattern: str | None = None
    confidence: float | None = None
    debug: ExtractionDebug | None = None


@contextmanager
def _gc_paused():
    """Pause the cyclic GC for a batch-allocation burst.

    Decoding allocates tracked objects in bulk and keeps them all live,
    so every generation-0 pass rescans a growing survivor set for cycles
    that these graphs (acyclic) cannot contain.  Pausing collection for
    the batch removes that scan cost; nothing is leaked — allocation
    still happens normally and the GC resumes (and catches up) on exit.
    Nested pauses are no-ops.

    One pause spans a whole extraction shard (its decoded pages stay live
    through synthesis, which allocates no tracked object per row), and
    :func:`records_from_wire` holds one while a table's records are built.
    """
    if gc.isenabled():
        gc.disable()
        try:
            yield
        finally:
            gc.enable()
    else:
        yield


# ---------------------------------------------------------------------------
# The record table: the one form extraction output takes
# ---------------------------------------------------------------------------


class RecordColumns(NamedTuple):
    """One record table (a page window's, or all of a run's merged): the
    wire's flat tuple, its fields by name.  Every distinct string and
    triple (canonical text) appears once, in first-arrival order; a record
    is a row of int32 codes into them plus numeric columns.  The round-trip
    is exact: ``Triple.from_canonical`` inverts ``canonical()``, floats
    keep their bits, and every ``None`` has a presence mask or a -1 code.
    """

    strings: list[str]  # the string table
    triples: list[str]  # distinct triples, canonical text
    codes: np.ndarray  # int32[n, 6]: triple, extractor, url, site, content type, pattern
    confidence: np.ndarray  # float64[n], 0.0 where absent
    has_confidence: np.ndarray  # bool[n]
    has_debug: np.ndarray  # bool[n]
    asserted: np.ndarray  # int32[n], 0 where absent
    has_asserted: np.ndarray  # bool[n]
    error_kind: np.ndarray  # int8[n], index into ErrorKind (-1: None)
    flags: np.ndarray  # bool[n, 3]: source_error, span_corrupted, slot_mismatch


_ERROR_KINDS = (*ErrorKind, None)  # code -1 indexes the trailing None
_ERROR_KIND_CODES = {kind: code for code, kind in enumerate(ErrorKind)} | {None: -1}
_NO_DEBUG = ExtractionDebug(asserted_index=None)


class TableBuilder:
    """One record table under construction, a row at a time.

    The one interning loop of the wire: :meth:`add` gives each string and
    each canonical triple text its code on first arrival, so the tables
    list them in first-row order — the order the fusion input's
    arrival order (and ``serial``'s emission order) follows.  The record
    emitter (:func:`repro.extract.synthesis.make_emitter`) adds a row per
    emission; :func:`records_to_wire` adds one per record.  ``triples``
    stays readable after :meth:`finish`: classification looks assertions
    up in it without inserting.
    """

    __slots__ = ("strings", "triples", "codes", "confidence", "asserted", "debug")

    def __init__(self) -> None:
        self.strings: dict[str, int] = {}
        self.triples: dict[str, int] = {}
        self.codes: list[int] = []  # six per row, as on the wire
        self.confidence: list[float | None] = []
        self.asserted: list[int | None] = []
        # has_debug, error_kind, source_error, span_corrupted, slot_mismatch
        self.debug: list[int | bool] = []

    def __len__(self) -> int:
        return len(self.confidence)

    def add(
        self, triple, extractor, url, site, content_type, pattern, confidence,
        asserted_index, span_corrupted, slot_mismatch, error_kind=-1,
        source_error=False, has_debug=True,
    ) -> None:
        """One row: ``triple`` is the canonical text, ``error_kind`` an
        index into :class:`ErrorKind` (-1: None)."""
        strings = self.strings
        code = strings.setdefault
        triples = self.triples
        self.codes += (
            triples.setdefault(triple, len(triples)),
            code(extractor, len(strings)),
            code(url, len(strings)),
            code(site, len(strings)),
            code(content_type, len(strings)),
            -1 if pattern is None else code(pattern, len(strings)),
        )
        self.confidence.append(confidence)
        self.asserted.append(asserted_index)
        self.debug += (has_debug, error_kind, source_error, span_corrupted, slot_mismatch)

    def add_records(self, records: list[ExtractionRecord]) -> None:
        """One row per record, fed from its fields."""
        add = self.add
        for r in records:
            d = r.debug
            if d is None:
                d = _NO_DEBUG
            add(
                r.triple.canonical(), r.extractor, r.url, r.site, r.content_type,
                r.pattern, r.confidence, d.asserted_index, d.span_corrupted,
                d.slot_mismatch, _ERROR_KIND_CODES[d.error_kind], d.source_error,
                r.debug is not None,
            )

    def finish(self) -> tuple:
        """The rows so far as one wire table."""
        n = len(self)
        confidence, has_confidence = _present(self.confidence, 0.0)
        asserted, has_asserted = _present(self.asserted, 0)
        debug = np.array(self.debug, dtype=np.int8).reshape(n, 5)
        return (
            list(self.strings),
            list(self.triples),
            np.array(self.codes, dtype=np.int32).reshape(n, 6),
            np.array(confidence, dtype=np.float64),
            has_confidence,
            debug[:, 0].astype(np.bool_),
            np.array(asserted, dtype=np.int32),
            has_asserted,
            debug[:, 1].copy(),
            debug[:, 2:].astype(np.bool_),
        )


def _present(values: list, fill) -> tuple[list, np.ndarray]:
    """``values`` with ``fill`` for every ``None``, and the presence mask."""
    present = np.array([value is not None for value in values], dtype=np.bool_)
    if present.all():
        return values, present
    return [fill if value is None else value for value in values], present


def records_to_wire(records: list[ExtractionRecord]) -> tuple:
    """Records as one table: string/triple tables plus columns."""
    builder = TableBuilder()
    builder.add_records(records)
    return builder.finish()


def _masked(values: list, present: np.ndarray) -> list:
    """``values`` with ``None`` wherever ``present`` is False."""
    if present.all():
        return values
    return [value if keep else None for value, keep in zip(values, present.tolist())]


class _Vocabulary(dict):
    """Key -> dense int code in first-arrival order (a miss assigns the next)."""

    __slots__ = ()

    def __missing__(self, key) -> int:
        code = self[key] = len(self)
        return code


def records_from_wire(wire: tuple) -> list[ExtractionRecord]:
    """Inverse of :func:`records_to_wire`.

    Each distinct triple of the table is parsed once, and the records
    share one object per distinct string and triple.  The GC is paused
    while they are built (see :func:`_gc_paused`).
    """
    (
        strings, triple_texts, codes, confidence, has_confidence, has_debug,
        asserted, has_asserted, error_kind, flags,
    ) = wire
    with _gc_paused():
        table = [*strings, None]  # pattern code -1 indexes the trailing None
        lookup = table.__getitem__
        parsed = list(map(Triple.from_canonical, triple_texts))
        triple_col, extractor, url, site, content_type, pattern = codes.T.tolist()
        debug = map(
            ExtractionDebug,
            _masked(asserted.tolist(), has_asserted),
            map(_ERROR_KINDS.__getitem__, error_kind.tolist()),
            *flags.T.tolist(),
        )
        return list(
            map(
                ExtractionRecord,
                map(parsed.__getitem__, triple_col),
                map(lookup, extractor),
                map(lookup, url),
                map(lookup, site),
                map(lookup, content_type),
                map(lookup, pattern),
                _masked(confidence.tolist(), has_confidence),
                _masked(list(debug), has_debug),
            )
        )


class RecordTables:
    """A run's extraction records: one append-only store of record columns.

    :meth:`add_table` re-codes one :func:`records_to_wire` table (a page
    window's) into the store's two
    vocabularies — strings and canonical triple texts, in first-arrival
    order — and appends its columns: the one re-coding loop of the
    records.  Every reader reads :attr:`columns`, where a triple code
    names its triple's canonical text; the store's one claim view
    (:class:`~repro.fusion.observations.FusionInput`) reads the same
    columns.  Iterating decodes the records afresh, for
    ``benchmarks/kfbench`` only.
    """

    def __init__(self, tables: Iterable[tuple] = ()) -> None:
        self._strings = _Vocabulary()
        self._triples = _Vocabulary()
        # Per column, the appended parts; the empty table fixes the dtypes.
        self._parts = [[column] for column in records_to_wire([])[2:]]
        self._n = 0
        for table in tables:
            self.add_table(table)

    @classmethod
    def of(cls, records: RecordTables | list[ExtractionRecord]) -> RecordTables:
        """``records`` as a store: returned as is, or a list encoded once."""
        return records if isinstance(records, cls) else cls([records_to_wire(records)])

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(records_from_wire(self.columns))

    def add_table(self, table: tuple) -> None:
        """Append one wire table's records, re-coded into the store's
        vocabularies, so the store equals one :func:`records_to_wire`
        table over all the records added so far."""
        codes = table[2]
        if not len(codes):
            return
        # The trailing -1 keeps a missing pattern's code.
        string_code = np.array([*map(self._strings.__getitem__, table[0]), -1], dtype=np.int32)
        triple_code = np.array([*map(self._triples.__getitem__, table[1])], dtype=np.int32)
        merged = np.column_stack((triple_code[codes[:, 0]], string_code[codes[:, 1:]]))
        for parts, column in zip(self._parts, (merged, *table[3:]), strict=True):
            parts.append(column)
        self._n += len(codes)
        vars(self).pop("columns", None)
        vars(self).pop("triple_support", None)

    @cached_property
    def columns(self) -> RecordColumns:
        """The store as one table, in record order, built on first read
        after an append and kept.  Each column's parts are replaced by
        their concatenation, one column at a time, so no column is held
        twice."""
        for parts in self._parts:
            if len(parts) > 1:
                parts[:] = [np.concatenate(parts)]
        return RecordColumns(
            list(self._strings), list(self._triples), *(parts[0] for parts in self._parts)
        )

    @cached_property
    def triple_support(self) -> dict[str, dict[str, int]]:
        """Per triple text (in :attr:`columns` order), its support counts:
        #extractors, #urls, #(extractor, url) — the covariates of Figures
        6, 7 and 18, built on first read after an append and kept."""
        cols = self.columns
        triple, extractor, url = cols.codes[:, :3].T
        pair = np.unique(extractor.astype(np.int64) << 32 | url, return_inverse=True)[1]

        def distinct(key: np.ndarray) -> list[int]:
            """Per triple code, its number of distinct ``key`` values."""
            keys = np.unique(triple.astype(np.int64) << 32 | key)
            return np.bincount(keys >> 32, minlength=len(cols.triples)).tolist()

        counts = zip(distinct(extractor), distinct(url), distinct(pair))
        return {
            text: {"extractors": e, "urls": u, "provenances": p}
            for text, (e, u, p) in zip(cols.triples, counts)
        }


#: The record codec: one string table, one triple table, int32 code columns.
RECORD_WIRE_CODEC = WireCodec(encode=records_to_wire, decode=records_from_wire)
