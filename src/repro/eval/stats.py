"""Distribution statistics behind the paper's tables and figures.

Generic building blocks (skew summaries, accuracy-by-integer-count,
histograms) plus the specific slices used by Figures 4-7, 16, 18, 20-22.
All functions take plain data (triples, gold labels, extraction records
as record tables or a list) so they are reusable outside the packaged
experiments; the record slices read the tables' columns.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.extract.records import ExtractionRecord, RecordTables
from repro.kb.triples import Triple

Records = RecordTables | list[ExtractionRecord]

__all__ = [
    "skew_summary",
    "accuracy_by_int",
    "bucketize_accuracy",
    "probability_histogram",
    "truth_count_distribution",
    "confidence_accuracy_curve",
    "confidence_coverage_curve",
    "coverage_by_confidence_threshold",
    "triple_labels",
    "triple_sets",
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


def triple_labels(records: RecordTables, gold: dict[Triple, bool]) -> np.ndarray:
    """Each triple code's gold label in ``records.columns`` as int8:
    1 true, 0 false, -1 unlabelled."""
    triples = records.triple_objects()
    return np.fromiter(map(gold.get, triples, repeat(-1)), np.int8, len(triples))


def triple_sets(records: RecordTables, field: int) -> dict[str, set[int]]:
    """Each string of code column ``field`` (1: extractor, 4: content
    type) -> the triple codes of its rows."""
    cols = records.columns
    triple, values = cols.codes[:, 0], cols.codes[:, field]
    return {cols.strings[v]: set(triple[values == v].tolist()) for v in np.unique(values).tolist()}


def _scored(records: Records, extractor: str | None) -> tuple[RecordTables, np.ndarray]:
    """``records`` as tables, and the mask of their rows that carry a
    confidence (and, when ``extractor`` is named, come from it)."""
    records = RecordTables.of(records)
    cols = records.columns
    scored = cols.has_confidence
    if extractor is not None:
        code = cols.strings.index(extractor) if extractor in cols.strings else -1
        scored = scored & (cols.codes[:, 1] == code)
    return records, scored


def confidence_accuracy_curve(
    records: Records, gold: dict[Triple, bool], extractor: str | None = None
) -> list[AccuracyPoint]:
    """Accuracy by extraction-confidence decile (Figure 21, right panel),
    over ``extractor``'s records when one is named.

    Records without a confidence are excluded (the paper's no-confidence
    extractors are likewise absent from its Figure 21).
    """
    records, scored = _scored(records, extractor)
    cols = records.columns
    label = triple_labels(records, gold)[cols.codes[:, 0]]
    kept = scored & (label >= 0)
    pairs = zip(cols.confidence[kept].tolist(), (label[kept] == 1).tolist())
    edges = [i / _CONFIDENCE_BUCKETS for i in range(_CONFIDENCE_BUCKETS)]
    return bucketize_accuracy(pairs, edges)


def confidence_coverage_curve(
    records: Records, extractor: str | None = None
) -> list[tuple[float, float]]:
    """Cumulative share of records with confidence ≤ x (Figure 21, left),
    over ``extractor``'s records when one is named."""
    records, scored = _scored(records, extractor)
    confidences = np.sort(records.columns.confidence[scored])
    if not len(confidences):
        raise EvaluationError("no records carry a confidence")
    grid = [i / _CONFIDENCE_BUCKETS for i in range(_CONFIDENCE_BUCKETS + 1)]
    covered = np.searchsorted(confidences, grid, side="right").tolist()
    return [(x, n / len(confidences)) for x, n in zip(grid, covered)]


def coverage_by_confidence_threshold(
    records: Records,
    thresholds: Sequence[float] = tuple(i / 10 for i in range(1, 11)),
) -> list[tuple[float, float]]:
    """Share of unique triples retained when filtering by confidence ≥ t
    (Figure 22).  A triple survives if *any* of its records does; records
    without confidence count as unfiltered support (they cannot be
    filtered by a confidence they don't have)."""
    cols = RecordTables.of(records).columns
    total = len(cols.triples)
    if total == 0:
        raise EvaluationError("no records given")
    # Each triple's best confidence; an unscored record passes every filter.
    best = np.full(total, -np.inf)
    np.maximum.at(best, cols.codes[:, 0], np.where(cols.has_confidence, cols.confidence, np.inf))
    return [(t, int(np.count_nonzero(best >= t)) / total) for t in thresholds]


def triple_support(records: Records) -> dict[Triple, dict[str, int]]:
    """Per-triple support counts: #extractors, #urls, #(extractor, url).

    The covariates of Figures 6, 7 and 18.
    """
    records = RecordTables.of(records)
    triple, extractor, url = records.columns.codes[:, :3].T
    n_triples = len(records.columns.triples)
    pair = np.unique(extractor.astype(np.int64) << 32 | url, return_inverse=True)[1]

    def distinct(key: np.ndarray) -> list[int]:
        """Per triple code, its number of distinct ``key`` values."""
        keys = np.unique(triple.astype(np.int64) << 32 | key)
        return np.bincount(keys >> 32, minlength=n_triples).tolist()

    counts = zip(distinct(extractor), distinct(url), distinct(pair))
    return {
        triple: {"extractors": e, "urls": u, "provenances": p}
        for triple, (e, u, p) in zip(records.triple_objects(), counts)
    }
