"""Distribution statistics behind the paper's tables and figures.

Generic building blocks (skew summaries, accuracy-by-integer-count,
histograms) plus the specific slices used by Figures 4-7, 16, 18, 20-22.
All functions take plain data (triples, gold labels, extraction records)
so they are reusable outside the packaged experiments.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.extract.records import ExtractionRecord
from repro.kb.triples import Triple

__all__ = [
    "skew_summary",
    "accuracy_by_int",
    "bucketize_accuracy",
    "probability_histogram",
    "truth_count_distribution",
    "confidence_accuracy_curve",
    "confidence_coverage_curve",
    "coverage_by_confidence_threshold",
    "triple_support",
]

#: Figure 20 shows truth counts 0-5 exactly and folds the rest into ">5".
_MAX_EXACT_TRUTHS = 5
#: Figure 21 buckets extraction confidence into deciles.
_CONFIDENCE_BUCKETS = 10


def skew_summary(counts: Sequence[int]) -> dict[str, float]:
    """Mean / median / min / max — the Table 1 skew row format."""
    if not counts:
        raise EvaluationError("skew_summary needs at least one count")
    array = np.asarray(counts, dtype=float)
    return {
        "mean": float(array.mean()),
        "median": float(np.median(array)),
        "min": float(array.min()),
        "max": float(array.max()),
    }


@dataclass(frozen=True)
class AccuracyPoint:
    """One x-bucket of an accuracy curve."""

    x: float
    n: int
    accuracy: float


def accuracy_by_int(
    pairs: Iterable[tuple[int, bool]],
    max_exact: int | None = None,
) -> list[AccuracyPoint]:
    """Accuracy grouped by an integer covariate (e.g. #extractors).

    ``max_exact`` folds every count ≥ max_exact into one bucket (Figure 6
    stops at 9 extractors).
    """
    groups: dict[int, list[bool]] = defaultdict(list)
    for count, label in pairs:
        key = count if max_exact is None else min(count, max_exact)
        groups[key].append(label)
    return [
        AccuracyPoint(x=float(k), n=len(v), accuracy=sum(v) / len(v))
        for k, v in sorted(groups.items())
    ]


def bucketize_accuracy(
    pairs: Iterable[tuple[float, bool]],
    edges: Sequence[float],
) -> list[AccuracyPoint]:
    """Accuracy grouped by a float covariate over half-open buckets.

    ``edges`` are ascending bucket starts; a value lands in the last edge
    whose start it reaches.  Bucket x is reported as its start.
    """
    if not edges:
        raise EvaluationError("bucketize_accuracy needs bucket edges")
    sorted_edges = sorted(edges)
    groups: dict[float, list[bool]] = defaultdict(list)
    for value, label in pairs:
        bucket = sorted_edges[0]
        for edge in sorted_edges:
            if value >= edge:
                bucket = edge
            else:
                break
        groups[bucket].append(label)
    return [
        AccuracyPoint(x=float(k), n=len(v), accuracy=sum(v) / len(v))
        for k, v in sorted(groups.items())
    ]


def probability_histogram(
    probabilities: dict[Triple, float], n_buckets: int = 20
) -> list[tuple[float, float]]:
    """Fraction of triples per predicted-probability bucket (Figure 16)."""
    if not probabilities:
        raise EvaluationError("no probabilities to histogram")
    counts = [0] * (n_buckets + 1)
    for probability in probabilities.values():
        index = n_buckets if probability >= 1.0 else int(probability * n_buckets)
        counts[index] += 1
    total = len(probabilities)
    return [(i / n_buckets, c / total) for i, c in enumerate(counts)]


def truth_count_distribution(truth_counts: Iterable[int]) -> list[tuple[str, float]]:
    """Share of data items per #truths (Figure 20); folds >5 into one bin."""
    tail = f">{_MAX_EXACT_TRUTHS}"
    counter: Counter = Counter()
    total = 0
    for count in truth_counts:
        key = str(count) if count <= _MAX_EXACT_TRUTHS else tail
        counter[key] += 1
        total += 1
    if total == 0:
        raise EvaluationError("no truth counts given")
    order = [str(i) for i in range(0, _MAX_EXACT_TRUTHS + 1)] + [tail]
    return [(key, counter.get(key, 0) / total) for key in order]


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
