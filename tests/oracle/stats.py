"""The record slices of :mod:`repro.eval.stats` as loops over record objects.

Until the stats helpers read the record tables' columns, each was a
Python loop over decoded ``ExtractionRecord`` objects.  Those loops moved
here verbatim (bodies unchanged from ``src/repro/eval/stats.py`` at
167df80) and are the comparand of
``tests/property/test_prop_record_columns.py``: the column group-bys must
equal them exactly, for any cut of the records into tables.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.errors import EvaluationError
from repro.eval.stats import AccuracyPoint, bucketize_accuracy
from repro.extract.records import ExtractionRecord
from repro.kb.triples import Triple

__all__ = [
    "confidence_accuracy_curve",
    "confidence_coverage_curve",
    "coverage_by_confidence_threshold",
    "triple_support",
]

_CONFIDENCE_BUCKETS = 10


# ---------------------------------------------------------------------------
# Verbatim from src/repro/eval/stats.py at 167df80
# ---------------------------------------------------------------------------


def confidence_accuracy_curve(
    records: Iterable[ExtractionRecord], gold: dict[Triple, bool]
) -> list[AccuracyPoint]:
    """Accuracy by extraction-confidence decile (Figure 21, right panel).

    Records without a confidence are excluded (the paper's no-confidence
    extractors are likewise absent from its Figure 21).
    """
    pairs = [
        (record.confidence, gold[record.triple])
        for record in records
        if record.confidence is not None and record.triple in gold
    ]
    edges = [i / _CONFIDENCE_BUCKETS for i in range(_CONFIDENCE_BUCKETS)]
    return bucketize_accuracy(pairs, edges)


def confidence_coverage_curve(
    records: Iterable[ExtractionRecord],
) -> list[tuple[float, float]]:
    """Cumulative share of records with confidence ≤ x (Figure 21, left)."""
    confidences = sorted(
        record.confidence for record in records if record.confidence is not None
    )
    if not confidences:
        raise EvaluationError("no records carry a confidence")
    total = len(confidences)
    points = []
    for i in range(_CONFIDENCE_BUCKETS + 1):
        x = i / _CONFIDENCE_BUCKETS
        covered = sum(1 for c in confidences if c <= x)
        points.append((x, covered / total))
    return points


def coverage_by_confidence_threshold(
    records: Iterable[ExtractionRecord],
    thresholds: Sequence[float] = tuple(i / 10 for i in range(1, 11)),
) -> list[tuple[float, float]]:
    """Share of unique triples retained when filtering by confidence ≥ t
    (Figure 22).  A triple survives if *any* of its records does; records
    without confidence count as unfiltered support (they cannot be
    filtered by a confidence they don't have)."""
    by_triple: dict[Triple, list[float | None]] = defaultdict(list)
    for record in records:
        by_triple[record.triple].append(record.confidence)
    if not by_triple:
        raise EvaluationError("no records given")
    total = len(by_triple)
    points = []
    for threshold in thresholds:
        kept = sum(
            1
            for confs in by_triple.values()
            if any(c is None or c >= threshold for c in confs)
        )
        points.append((threshold, kept / total))
    return points


def triple_support(
    records: Iterable[ExtractionRecord],
) -> dict[Triple, dict[str, int]]:
    """Per-triple support counts: #extractors, #urls, #(extractor, url).

    The covariates of Figures 6, 7 and 18.
    """
    extractors: dict[Triple, set[str]] = defaultdict(set)
    urls: dict[Triple, set[str]] = defaultdict(set)
    pairs: dict[Triple, set[tuple[str, str]]] = defaultdict(set)
    for record in records:
        extractors[record.triple].add(record.extractor)
        urls[record.triple].add(record.url)
        pairs[record.triple].add((record.extractor, record.url))
    return {
        triple: {
            "extractors": len(extractors[triple]),
            "urls": len(urls[triple]),
            "provenances": len(pairs[triple]),
        }
        for triple in extractors
    }
