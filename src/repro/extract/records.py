"""Extraction records and their debug channel.

An :class:`ExtractionRecord` is one cell of the paper's three-dimensional
input: what one extractor extracted from one URL for one data item —
together with the rich provenance the paper keeps (extractor, URL, pattern,
confidence).

``debug`` is ground truth for *analysis only*: which hidden page assertion
the record came from and what kind of extraction error (if any) it embodies.
The fusion layer works from the record's public fields; the test suite
checks that fusion results are invariant to stripping the debug channel.
"""

from __future__ import annotations

import enum
import gc
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.kb.triples import Triple
from repro.mapreduce.codec import WireCodec

__all__ = [
    "ErrorKind",
    "ExtractionDebug",
    "ExtractionRecord",
    "ParsedTriples",
    "RecordTables",
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

    Records are deliberately *not* frozen: the synthesis and
    classification kernels construct tens of thousands per run, and
    ``__init__`` on a frozen dataclass pays an ``object.__setattr__``
    call per field.  Identity-bearing state lives in ``triple``
    (frozen, hashable); records themselves are never hashed.
    """

    triple: Triple
    extractor: str
    url: str
    site: str
    content_type: str
    pattern: str | None = None
    confidence: float | None = None
    debug: ExtractionDebug | None = None

    @property
    def is_extraction_error(self) -> bool:
        """Analysis helper; requires the debug channel."""
        return self.debug is not None and self.debug.error_kind is not None


@contextmanager
def _gc_paused():
    """Pause the cyclic GC for a batch-allocation burst.

    Record synthesis and record decoding allocate ~3 tracked objects per
    record and keep them all live, so every generation-0 pass rescans a
    growing survivor set for cycles that record graphs (frozen, acyclic)
    cannot contain.  Pausing collection for the batch removes that
    quadratic-ish scan cost; nothing is leaked — allocation still happens
    normally and the GC resumes (and catches up) on exit.  Nested pauses
    are no-ops.

    Where it sits: one pause spans a whole extraction shard
    (:func:`repro.extract.pipeline._extract_shard`: page decoding,
    synthesis, classification and encoding of every window),
    :func:`~repro.extract.synthesis.synthesize_batch` holds one over
    synthesis and stitching for callers outside a shard,
    and :func:`records_from_wire` holds one while a table's records are
    rebuilt.
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
# The record table: the one form records take outside a shard
# ---------------------------------------------------------------------------
# Each page window of an extraction shard leaves it as one table of
# columns, in-process and pooled alike: every distinct string (extractor,
# url, site, content type, pattern) and every distinct triple (canonical
# text, in first-arrival order) appears once, and each record is a row of
# int32 codes into those tables plus its numeric columns.  The claim
# accumulator folds the tables as they are; :class:`RecordTables` decodes
# them only when a caller reads a record.  The round-trip is exact:
# ``Triple.from_canonical`` inverts ``canonical()``, float columns keep
# their bits, and every ``None`` has a presence mask or a -1 code.
#
# The wire is a flat tuple, in this order:
#   strings        list[str]            the string table
#   triples        list[str]            distinct triples, canonical text
#   codes          int32[n, 6]          triple, extractor, url, site,
#                                       content_type, pattern (-1: None)
#   confidence     float64[n]           0.0 where absent
#   has_confidence bool[n]
#   has_debug      bool[n]
#   asserted_index int32[n]             0 where absent
#   has_asserted   bool[n]
#   error_kind     int8[n]              index into ErrorKind (-1: None)
#   flags          bool[n, 3]           source_error, span_corrupted,
#                                       slot_mismatch
# ``RECORD_WIRE_CODEC`` (at the bottom of this module) packages the pair
# as the shared codec-layer spelling (see repro/mapreduce/codec.py).

_ERROR_KINDS = (*ErrorKind, None)  # code -1 indexes the trailing None
_ERROR_KIND_CODES = {kind: code for code, kind in enumerate(ErrorKind)} | {None: -1}
_NO_DEBUG = ExtractionDebug(asserted_index=None)


def records_to_wire(records: list[ExtractionRecord]) -> tuple:
    """Records as one table: string/triple tables plus columns."""
    strings: dict[str, int] = {}
    triples: dict[Triple, int] = {}
    string_code, triple_code = strings.setdefault, triples.setdefault
    codes: list[int] = []
    confidence: list[float] = []
    has_confidence: list[bool] = []
    has_debug: list[bool] = []
    asserted: list[int] = []
    has_asserted: list[bool] = []
    error_kind: list[int] = []
    flags: list[bool] = []
    for r in records:
        pattern = r.pattern
        codes += (
            triple_code(r.triple, len(triples)),
            string_code(r.extractor, len(strings)),
            string_code(r.url, len(strings)),
            string_code(r.site, len(strings)),
            string_code(r.content_type, len(strings)),
            -1 if pattern is None else string_code(pattern, len(strings)),
        )
        has_confidence.append(r.confidence is not None)
        confidence.append(0.0 if r.confidence is None else r.confidence)
        d = r.debug
        has_debug.append(d is not None)
        if d is None:
            d = _NO_DEBUG
        has_asserted.append(d.asserted_index is not None)
        asserted.append(0 if d.asserted_index is None else d.asserted_index)
        error_kind.append(_ERROR_KIND_CODES[d.error_kind])
        flags += (d.source_error, d.span_corrupted, d.slot_mismatch)
    n = len(records)
    return (
        list(strings),
        [triple.canonical() for triple in triples],
        np.array(codes, dtype=np.int32).reshape(n, 6),
        np.array(confidence, dtype=np.float64),
        np.array(has_confidence, dtype=np.bool_),
        np.array(has_debug, dtype=np.bool_),
        np.array(asserted, dtype=np.int32),
        np.array(has_asserted, dtype=np.bool_),
        np.array(error_kind, dtype=np.int8),
        np.array(flags, dtype=np.bool_).reshape(n, 3),
    )


def _masked(values: list, present: np.ndarray) -> list:
    """``values`` with ``None`` wherever ``present`` is False."""
    if present.all():
        return values
    return [value if keep else None for value, keep in zip(values, present.tolist())]


class ParsedTriples(dict):
    """Canonical triple text -> its :class:`Triple`, parsed on first lookup.

    One per set of record tables, shared by their readers (the decode,
    the claim accumulator, the gold labels), so each reader holds the
    same objects and lookups between them stop at the identity check.
    """

    __slots__ = ()

    def __missing__(self, text: str) -> Triple:
        triple = self[text] = Triple.from_canonical(text)
        return triple


def records_from_wire(
    wire: tuple, triples: ParsedTriples | None = None
) -> list[ExtractionRecord]:
    """Inverse of :func:`records_to_wire`.

    Each distinct triple is parsed once (through ``triples`` when given),
    and the records share one object per distinct string and triple.  The
    GC is paused while they are built (see :func:`_gc_paused`).
    """
    (
        strings, triple_texts, codes, confidence, has_confidence, has_debug,
        asserted, has_asserted, error_kind, flags,
    ) = wire
    if triples is None:
        triples = ParsedTriples()
    with _gc_paused():
        table = [*strings, None]  # pattern code -1 indexes the trailing None
        lookup = table.__getitem__
        parsed = list(map(triples.__getitem__, triple_texts))
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
    """Extraction records held as tables, decoded on first element access.

    ``tables`` are :func:`records_to_wire` tables in record order, one
    per page window; ``len`` reads their code columns, and the first
    iteration decodes them once (through ``triples``) and keeps the
    records.  The claim accumulator and the gold labels read ``tables``.
    """

    def __init__(self, tables: list[tuple], triples: ParsedTriples | None = None) -> None:
        self.tables = tables
        self.triples = ParsedTriples() if triples is None else triples
        self._len = sum(len(table[2]) for table in tables)
        self._records: list[ExtractionRecord] | None = None

    @classmethod
    def of(cls, records: RecordTables | list[ExtractionRecord]) -> RecordTables:
        """``records`` as tables: returned as is, or a list encoded once."""
        return records if isinstance(records, cls) else cls([records_to_wire(records)])

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        if self._records is None:
            records: list[ExtractionRecord] = []
            with _gc_paused():
                for table in self.tables:
                    records += records_from_wire(table, self.triples)
            self._records = records
        return iter(self._records)


#: The record codec: one string table, one triple table, int32 code columns.
RECORD_WIRE_CODEC = WireCodec(encode=records_to_wire, decode=records_from_wire)
