"""Unit tests for the distribution statistics helpers."""

import pytest

from repro.errors import EvaluationError
from repro.eval.stats import (
    AccuracyPoint,
    accuracy_by_int,
    bucketize_accuracy,
    confidence_accuracy_curve,
    confidence_coverage_curve,
    coverage_by_confidence_threshold,
    probability_histogram,
    skew_summary,
    truth_count_distribution,
)
from repro.extract.records import ExtractionRecord, RecordTables
from repro.kb.triples import Triple
from repro.kb.values import StringValue


def t(name):
    return Triple("/m/1", "t/t/p", StringValue(name))


def k(name):
    """The gold key of ``t(name)``: its canonical text."""
    return t(name).canonical()


def rec(obj, extractor, url, confidence=None):
    return ExtractionRecord(
        triple=t(obj),
        extractor=extractor,
        url=url,
        site=url.split("/")[2],
        content_type="TXT",
        confidence=confidence,
    )


class TestSkewSummary:
    def test_basic(self):
        summary = skew_summary([1, 1, 1, 1, 96])
        assert summary["mean"] == pytest.approx(20.0)
        assert summary["median"] == pytest.approx(1.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 96.0

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            skew_summary([])


class TestAccuracyByInt:
    def test_grouping(self):
        pairs = [(1, True), (1, False), (2, True), (2, True)]
        points = accuracy_by_int(pairs)
        assert [(p.x, p.accuracy) for p in points] == [(1.0, 0.5), (2.0, 1.0)]

    def test_max_exact_folds_tail(self):
        pairs = [(1, True), (5, False), (9, True), (100, True)]
        points = accuracy_by_int(pairs, max_exact=5)
        xs = [p.x for p in points]
        assert xs == [1.0, 5.0]
        folded = next(p for p in points if p.x == 5.0)
        assert folded.n == 3


class TestBucketize:
    def test_values_land_in_last_reached_edge(self):
        points = bucketize_accuracy(
            [(0.05, True), (0.15, False), (0.95, True)], edges=[0.0, 0.1, 0.9]
        )
        assert [(p.x, p.n) for p in points] == [(0.0, 1), (0.1, 1), (0.9, 1)]

    def test_empty_edges_rejected(self):
        with pytest.raises(EvaluationError):
            bucketize_accuracy([(0.5, True)], edges=[])


class TestHistograms:
    def test_probability_histogram_sums_to_one(self):
        probabilities = {t(f"x{i}"): i / 10 for i in range(11)}
        histogram = probability_histogram(probabilities, n_buckets=10)
        assert sum(share for _x, share in histogram) == pytest.approx(1.0)

    def test_probability_one_in_last_bucket(self):
        histogram = probability_histogram({t("a"): 1.0}, n_buckets=10)
        assert histogram[-1][1] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            probability_histogram({})

    def test_truth_count_distribution(self):
        dist = dict(truth_count_distribution([0, 0, 0, 1, 2, 7]))
        assert dist["0"] == pytest.approx(0.5)
        assert dist["1"] == pytest.approx(1 / 6)
        assert dist[">5"] == pytest.approx(1 / 6)

    def test_truth_count_empty_rejected(self):
        with pytest.raises(EvaluationError):
            truth_count_distribution([])


class TestTripleSupport:
    def test_counts(self):
        records = [
            rec("a", "E1", "http://s.org/p"),
            rec("a", "E1", "http://s.org/q"),
            rec("a", "E2", "http://s.org/p"),
        ]
        support = RecordTables.of(records).triple_support[k("a")]
        assert support == {"extractors": 2, "urls": 2, "provenances": 3}


class TestCoverageByThreshold:
    def test_monotone_decreasing(self):
        records = [
            rec(f"x{i}", "E1", "http://s.org/p", confidence=i / 10) for i in range(11)
        ]
        points = coverage_by_confidence_threshold(records)
        coverages = [c for _t, c in points]
        assert coverages == sorted(coverages, reverse=True)

    def test_triple_survives_via_any_record(self):
        records = [
            rec("a", "E1", "http://s.org/p", confidence=0.05),
            rec("a", "E2", "http://s.org/q", confidence=0.95),
        ]
        points = dict(coverage_by_confidence_threshold(records))
        assert points[0.9] == pytest.approx(1.0)

    def test_no_confidence_counts_as_unfiltered(self):
        records = [rec("a", "E1", "http://s.org/p", confidence=None)]
        points = dict(coverage_by_confidence_threshold(records))
        assert points[1.0] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            coverage_by_confidence_threshold([])


class TestConfidenceCurves:
    def test_accuracy_curve_buckets_by_confidence(self):
        records = [
            rec("a", "E1", "http://s.org/p", confidence=0.05),
            rec("b", "E1", "http://s.org/p", confidence=0.55),
            rec("c", "E1", "http://s.org/p", confidence=0.58),
            rec("d", "E1", "http://s.org/p", confidence=1.0),
        ]
        gold = {k("a"): False, k("b"): True, k("c"): False, k("d"): True}
        points = confidence_accuracy_curve(records, gold)
        assert [(p.x, p.n, p.accuracy) for p in points] == [
            (0.0, 1, 0.0),
            (0.5, 2, 0.5),
            (0.9, 1, 1.0),
        ]

    def test_accuracy_curve_skips_unscored_and_unlabelled_records(self):
        records = [
            rec("a", "E1", "http://s.org/p", confidence=None),
            rec("b", "E1", "http://s.org/p", confidence=0.7),
            rec("c", "E1", "http://s.org/p", confidence=0.7),
        ]
        gold = {k("a"): True, k("b"): True}
        points = confidence_accuracy_curve(records, gold)
        assert points == [AccuracyPoint(x=0.7, n=1, accuracy=1.0)]

    def test_coverage_curve_is_the_cumulative_share(self):
        records = [
            rec(f"x{i}", "E1", "http://s.org/p", confidence=c)
            for i, c in enumerate((0.1, 0.2, 0.2, 0.9))
        ]
        records.append(rec("none", "E1", "http://s.org/p", confidence=None))
        points = dict(confidence_coverage_curve(records))
        assert len(points) == 11
        assert points[0.0] == 0.0
        assert points[0.1] == pytest.approx(0.25)
        assert points[0.5] == pytest.approx(0.75)
        assert points[1.0] == pytest.approx(1.0)

    def test_coverage_curve_needs_a_confidence(self):
        with pytest.raises(EvaluationError):
            confidence_coverage_curve([rec("a", "E1", "http://s.org/p")])
