"""Batched extraction-error classification over a record table's columns.

The five-way branch of the pipeline's injected-error classification —
fabricated mention / span corruption / exact match / slot mismatch /
predicate vs entity linkage — for *every* row of a window's record table
in a handful of array operations; the per-record ``classify_record`` it
replaced is its oracle (``tests/oracle/extract.py``).  Each row compares
against its *one* page-local assertion (elementwise, not a join): the
assertion's triple is looked up in the table's own triple map *without
inserting* (-1: a triple no row carries), and predicates compare through
a transient per-window code.  Equal codes are equal canonical texts,
which are equal triples, so the parity contract is **bitwise**.
:func:`classify_table` returns a new table and writes nothing in place;
:func:`classify_batch` is the same pass over record objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ExtractionError
from repro.extract.records import (
    _ERROR_KIND_CODES,
    _ERROR_KINDS,
    ErrorKind,
    ExtractionRecord,
    TableBuilder,
)

# The synthesis kernels live in their own module
# (:mod:`repro.extract.synthesis`) and are re-exported here so callers
# find both extraction kernels behind one name.
from repro.extract.synthesis import SynthesisCaches, synthesize_batch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.world.webgen import WebPage

__all__ = ["SynthesisCaches", "classify_batch", "classify_table", "synthesize_batch"]

_CLEAN = _ERROR_KIND_CODES[None]
_TRIPLE = _ERROR_KIND_CODES[ErrorKind.TRIPLE_IDENTIFICATION]
_PREDICATE = _ERROR_KIND_CODES[ErrorKind.PREDICATE_LINKAGE]
_ENTITY = _ERROR_KIND_CODES[ErrorKind.ENTITY_LINKAGE]


def classify_table(
    table: tuple,
    triple_codes: dict[str, int],
    pages: Sequence["WebPage"],
    page_ends: Sequence[int],
) -> tuple:
    """``table`` with every row's injected-error classification.
    ``triple_codes`` is its builder's canonical-text → code map, and
    ``page_ends`` the cumulative row count after each of ``pages``."""
    (
        _strings, triple_texts, codes, _confidence, _has_confidence, _has_debug,
        asserted, has_asserted, _error_kind, flags,
    ) = table
    n = len(codes)
    if n == 0:
        return table
    offsets = np.cumsum([0] + [len(page.assertions) for page in pages])
    rows_per_page = np.diff(np.asarray([0, *page_ends], dtype=np.int64))
    assertion_of_row = np.repeat(offsets[:-1], rows_per_page) + asserted
    assertions = [assertion for page in pages for assertion in page.assertions]
    referenced, inverse = np.unique(assertion_of_row[has_asserted], return_inverse=True)
    picked = [assertions[index] for index in referenced.tolist()]
    predicates: dict[str, int] = {}
    code = predicates.setdefault
    row_predicate = np.array(
        [code(text.split("|", 2)[1], len(predicates)) for text in triple_texts], np.int64
    )[codes[:, 0]]
    a_predicate = np.array([code(a.triple.predicate, len(predicates)) for a in picked], np.int64)
    a_triple = np.array([triple_codes.get(a.triple.canonical(), -1) for a in picked], np.int64)
    a_source_error = np.array([a.source_error for a in picked], bool)

    triple_match = np.zeros(n, dtype=bool)
    triple_match[has_asserted] = codes[has_asserted, 0] == a_triple[inverse]
    predicate_match = np.zeros(n, dtype=bool)
    predicate_match[has_asserted] = row_predicate[has_asserted] == a_predicate[inverse]
    source_error = np.zeros(n, dtype=bool)
    source_error[has_asserted] = a_source_error[inverse]
    span_corrupted, slot_mismatch = flags[:, 1], flags[:, 2]

    # The five-way branch, in the module docstring's order: fabricated or
    # span-corrupted or (mismatched slot that is not an exact match) →
    # triple identification; exact match → no extraction error; wrong
    # predicate → predicate linkage; else → entity linkage.
    kinds = np.where(
        ~has_asserted | span_corrupted | (~triple_match & slot_mismatch),
        _TRIPLE,
        np.where(triple_match, _CLEAN, np.where(predicate_match, _ENTITY, _PREDICATE)),
    ).astype(np.int8)
    source_error &= kinds == _CLEAN
    return (*table[:8], kinds, np.column_stack((source_error, span_corrupted, slot_mismatch)))


def classify_batch(
    batches: Sequence[tuple["WebPage", list[ExtractionRecord]]],
) -> int:
    """Classify the records of ``batches`` (each page with its records)
    through :func:`classify_table`: they are encoded as one table, and
    only the debug fields that changed are written back.  Returns the
    number of records whose channel changed."""
    records = [record for _page, page_records in batches for record in page_records]
    if not records:
        return 0
    for record in records:
        if record.debug is None:
            raise ExtractionError(
                f"record from {record.extractor} lacks a debug channel; "
                "was it stripped before classification?"
            )
    builder = TableBuilder()
    builder.add_records(records)
    table = builder.finish()
    page_ends = np.cumsum([len(page_records) for _page, page_records in batches])
    classified = classify_table(
        table, builder.triples, [page for page, _records in batches], page_ends.tolist()
    )
    kinds, source_error = classified[8], classified[9][:, 0]
    changed = np.flatnonzero((kinds != table[8]) | (source_error != table[9][:, 0]))
    for index, code, flag in zip(
        changed.tolist(), kinds[changed].tolist(), source_error[changed].tolist()
    ):
        debug = records[index].debug
        debug.error_kind = _ERROR_KINDS[code]
        debug.source_error = flag
    return int(changed.size)
