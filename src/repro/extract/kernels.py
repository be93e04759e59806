"""Batched extraction-error classification over record columns.

The five-way branch of the pipeline's injected-error classification —
fabricated mention / span corruption / exact match / slot mismatch /
predicate vs entity linkage — computed for *every* record of a shard in
a handful of array operations.  The per-record ``classify_record`` it
replaced is its oracle (``tests/oracle/extract.py``).

Column layout: records are flattened corpus-major across their pages.
Each record only ever compares against *one* assertion (its page-local
``asserted_index``), so the comparison stage is elementwise, not a join:
one pass pairs every record with its assertion and fills four boolean
columns (assertion present, triple equality, predicate equality, source
error) using the exact same ``==`` the oracle tests.  The five-way
branch, the changed-channel detection, and the write-back selection then
run vectorized over those columns.  Every comparison is an exact
equality/bool operation, which makes the kernel's parity contract
**bitwise**, not a float tolerance: the annotated records equal the
oracle's output record-for-record.

Ownership: the kernel annotates records **in place** (writing
``error_kind`` / ``source_error`` into each record's debug channel), so
callers must own the records exclusively — which the extraction pipeline
does, classification runs on records synthesized moments earlier and not
yet visible anywhere else.  Re-running the kernel over already-annotated
records is a no-op: it recomputes the same classification and leaves
correct channels untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ExtractionError
from repro.extract.records import ErrorKind, ExtractionRecord

# The synthesis kernels live in their own module
# (:mod:`repro.extract.synthesis`) and are re-exported here so callers
# find both extraction kernels behind one name.
from repro.extract.synthesis import SynthesisCaches, synthesize_batch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.world.webgen import WebPage

__all__ = ["SynthesisCaches", "classify_batch", "synthesize_batch"]

#: The classification outcomes as integer codes, in branch order: the
#: five-way branch collapses to one nested ``np.where`` over these.
_KIND_OF_CODE: tuple[ErrorKind | None, ...] = (
    None,
    ErrorKind.TRIPLE_IDENTIFICATION,
    ErrorKind.PREDICATE_LINKAGE,
    ErrorKind.ENTITY_LINKAGE,
)
_CODE_OF_KIND = {kind: code for code, kind in enumerate(_KIND_OF_CODE)}


def classify_batch(
    batches: Sequence[tuple["WebPage", list[ExtractionRecord]]],
) -> int:
    """Classify every record of ``batches`` in one kernel invocation.

    ``batches`` pairs each page with the records extracted from it (the
    per-page lists a shard produces).  Annotates the records' debug
    channels in place — see the module docstring for the ownership
    contract — and returns the number of records whose channel changed.
    """
    records: list[ExtractionRecord] = []
    for _page, page_records in batches:
        records.extend(page_records)
    n = len(records)
    if n == 0:
        return 0

    debugs = [record.debug for record in records]
    if any(debug is None for debug in debugs):
        offender = records[debugs.index(None)]
        raise ExtractionError(
            f"record from {offender.extractor} lacks a debug channel; "
            "was it stripped before classification?"
        )

    # The pairing pass: each record against its one claimed assertion.
    # Four boolean columns come out of a single corpus-major sweep; the
    # equality tested is ``record.triple == asserted.triple``.
    has_assertion = np.empty(n, dtype=bool)
    triple_match = np.empty(n, dtype=bool)
    predicate_match = np.empty(n, dtype=bool)
    a_source_error = np.empty(n, dtype=bool)
    index = 0
    for page, page_records in batches:
        assertions = page.assertions
        for record in page_records:
            asserted_index = record.debug.asserted_index
            if asserted_index is None:
                has_assertion[index] = False
                triple_match[index] = False
                predicate_match[index] = False
                a_source_error[index] = False
            else:
                assertion = assertions[asserted_index]
                asserted_triple = assertion.triple
                record_triple = record.triple
                has_assertion[index] = True
                triple_match[index] = record_triple == asserted_triple
                predicate_match[index] = (
                    record_triple.predicate == asserted_triple.predicate
                )
                a_source_error[index] = assertion.source_error
            index += 1

    span_corrupted = np.fromiter(
        (debug.span_corrupted for debug in debugs), bool, count=n
    )
    slot_mismatch = np.fromiter(
        (debug.slot_mismatch for debug in debugs), bool, count=n
    )

    # The five-way branch, in the module docstring's order: fabricated or
    # span-corrupted or (mismatched slot that is not an exact match) →
    # triple identification; exact match → no extraction error; wrong
    # predicate → predicate linkage; else → entity linkage.
    codes = np.where(
        ~has_assertion | span_corrupted | (~triple_match & slot_mismatch),
        1,
        np.where(triple_match, 0, np.where(~predicate_match, 2, 3)),
    )
    source_error = (codes == 0) & a_source_error

    current_codes = np.fromiter(
        (_CODE_OF_KIND[debug.error_kind] for debug in debugs), np.int64, count=n
    )
    current_source_error = np.fromiter(
        (debug.source_error for debug in debugs), bool, count=n
    )
    changed = (codes != current_codes) | (source_error != current_source_error)

    changed_index = np.nonzero(changed)[0]
    write = object.__setattr__
    kinds = _KIND_OF_CODE
    for index, code, flag in zip(
        changed_index.tolist(),
        codes[changed_index].tolist(),
        source_error[changed_index].tolist(),
    ):
        debug = debugs[index]
        write(debug, "error_kind", kinds[code])
        write(debug, "source_error", flag)
    return int(changed_index.size)
