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
from dataclasses import dataclass

from repro.kb.triples import Triple
from repro.mapreduce.codec import WireCodec

__all__ = [
    "ErrorKind",
    "ExtractionDebug",
    "ExtractionRecord",
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


# ---------------------------------------------------------------------------
# Wire format for crossing process boundaries
# ---------------------------------------------------------------------------
# Pickling slotted dataclasses repeats every slot name per object; shuffled
# extraction shards instead cross the worker→parent boundary as flat tuples
# of primitives (triples via their canonical text), roughly halving the
# per-record wire size.  The round-trip is exact: ``Triple.from_canonical``
# inverts ``canonical()`` and value normalisation happens at construction.
# ``RECORD_WIRE_CODEC`` (at the bottom of this module) packages the pair as
# the shared codec-layer spelling (see repro/mapreduce/codec.py).


def records_to_wire(records: list[ExtractionRecord]) -> list[tuple]:
    """Flatten records into compact picklable tuples (worker side)."""
    wire = []
    for r in records:
        d = r.debug
        debug = (
            None
            if d is None
            else (
                d.asserted_index,
                None if d.error_kind is None else d.error_kind.value,
                d.source_error,
                d.span_corrupted,
                d.slot_mismatch,
            )
        )
        wire.append(
            (
                r.triple.canonical(),
                r.extractor,
                r.url,
                r.site,
                r.content_type,
                r.pattern,
                r.confidence,
                debug,
            )
        )
    return wire


def records_from_wire(wire: list[tuple]) -> list[ExtractionRecord]:
    """Inverse of :func:`records_to_wire` (parent side)."""
    records = []
    for triple, extractor, url, site, content_type, pattern, confidence, debug in wire:
        records.append(
            ExtractionRecord(
                triple=Triple.from_canonical(triple),
                extractor=extractor,
                url=url,
                site=site,
                content_type=content_type,
                pattern=pattern,
                confidence=confidence,
                debug=(
                    None
                    if debug is None
                    else ExtractionDebug(
                        asserted_index=debug[0],
                        error_kind=None if debug[1] is None else ErrorKind(debug[1]),
                        source_error=debug[2],
                        span_corrupted=debug[3],
                        slot_mismatch=debug[4],
                    )
                ),
            )
        )
    return records


#: The extraction shard codec: compact tuples on the wire, exact round-trip.
RECORD_WIRE_CODEC = WireCodec(encode=records_to_wire, decode=records_from_wire)
