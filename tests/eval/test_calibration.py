"""Unit tests for calibration curves, deviation, weighted deviation."""

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.eval.calibration import (
    calibration_curve,
    calibration_from_arrays,
    deviation,
    labelled_arrays,
    weighted_deviation,
)
from repro.kb.triples import Triple
from repro.kb.values import StringValue


def t(name):
    return Triple("/m/1", "t/t/p", StringValue(name))


class TestBucketing:
    def test_probability_one_gets_own_bucket(self):
        curve = calibration_curve({t("a"): 1.0}, {t("a"): True})
        assert curve.buckets[-1].count == 1
        assert curve.buckets[-1].low == 1.0

    def test_probability_below_one_in_regular_bucket(self):
        curve = calibration_curve({t("a"): 0.97}, {t("a"): True})
        assert curve.buckets[19].count == 1
        assert curve.buckets[20].count == 0

    def test_unlabelled_triples_ignored(self):
        curve = calibration_curve({t("a"): 0.5, t("b"): 0.5}, {t("a"): True})
        assert curve.n_labelled == 1

    def test_real_probability_is_true_fraction(self):
        probabilities = {t("a"): 0.42, t("b"): 0.44, t("c"): 0.41, t("d"): 0.43}
        gold = {t("a"): True, t("b"): True, t("c"): False, t("d"): False}
        curve = calibration_curve(probabilities, gold)
        bucket = curve.buckets[8]  # [0.40, 0.45)
        assert bucket.count == 4
        assert bucket.real == pytest.approx(0.5)

    def test_predicted_is_mean_probability(self):
        probabilities = {t("a"): 0.42, t("b"): 0.44}
        gold = {t("a"): True, t("b"): False}
        curve = calibration_curve(probabilities, gold)
        assert curve.buckets[8].predicted == pytest.approx(0.43)

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(EvaluationError):
            calibration_curve({t("a"): 1.5}, {t("a"): True})

    def test_bad_bucket_count_rejected(self):
        with pytest.raises(EvaluationError):
            calibration_curve({t("a"): 0.5}, {t("a"): True}, n_buckets=0)

    def test_points_skip_empty_buckets(self):
        curve = calibration_curve({t("a"): 0.5}, {t("a"): True})
        assert len(curve.points()) == 1


class TestDeviation:
    def test_perfect_calibration_zero_deviation(self):
        # 100 triples at p=0.5, half true: bucket real = 0.5 = predicted.
        probabilities = {}
        gold = {}
        for i in range(100):
            triple = t(f"x{i}")
            probabilities[triple] = 0.5
            gold[triple] = i % 2 == 0
        curve = calibration_curve(probabilities, gold)
        assert deviation(curve) == pytest.approx(0.0)
        assert weighted_deviation(curve) == pytest.approx(0.0)

    def test_total_miscalibration(self):
        probabilities = {t("a"): 1.0}
        gold = {t("a"): False}
        curve = calibration_curve(probabilities, gold)
        assert deviation(curve) == pytest.approx(1.0)
        assert weighted_deviation(curve) == pytest.approx(1.0)

    def test_weighting_matters(self):
        # One bucket with 99 well-calibrated triples, one with 1 bad triple:
        # the unweighted deviation averages buckets; the weighted one is
        # dominated by the big bucket.
        probabilities = {}
        gold = {}
        for i in range(98):
            triple = t(f"good{i}")
            probabilities[triple] = 0.5
            gold[triple] = i % 2 == 0
        probabilities[t("bad")] = 0.99
        gold[t("bad")] = False
        curve = calibration_curve(probabilities, gold)
        assert weighted_deviation(curve) < deviation(curve)

    def test_empty_curve_rejected(self):
        curve = calibration_curve({}, {})
        with pytest.raises(EvaluationError):
            deviation(curve)
        with pytest.raises(EvaluationError):
            weighted_deviation(curve)


class TestLabelledArrays:
    def test_keeps_iteration_order_and_drops_unlabelled(self):
        probabilities = {t("c"): 0.3, t("a"): 0.9, t("z"): 0.5, t("b"): 0.1}
        gold = {t("a"): True, t("b"): False, t("c"): True}
        p, y = labelled_arrays(probabilities, gold)
        assert p.tolist() == [0.3, 0.9, 0.1]
        assert y.tolist() == [True, True, False]
        assert p.dtype == np.float64 and y.dtype == bool

    def test_unlabelled_out_of_range_is_ignored(self):
        p, y = labelled_arrays({t("a"): 0.5, t("b"): 7.0}, {t("a"): True})
        assert p.tolist() == [0.5]

    def test_error_names_the_first_bad_triple(self):
        probabilities = {t("ok"): 0.5, t("low"): -0.25, t("high"): 1.5}
        gold = dict.fromkeys(probabilities, True)
        with pytest.raises(EvaluationError, match="low"):
            labelled_arrays(probabilities, gold)


class TestFromArrays:
    def test_dict_entry_point_is_the_array_path(self):
        rng = np.random.default_rng(3)
        probabilities = {t(f"x{i}"): float(rng.random()) for i in range(200)}
        probabilities[t("one")] = 1.0
        gold = {triple: bool(rng.random() < 0.6) for triple in probabilities}
        curve = calibration_curve(probabilities, gold, n_buckets=10)
        assert curve == calibration_from_arrays(
            *labelled_arrays(probabilities, gold), n_buckets=10
        )

    def test_bucket_edges_partition_the_unit_interval(self):
        curve = calibration_from_arrays(np.zeros(0), np.zeros(0, dtype=bool), 4)
        edges = [(b.low, b.high) for b in curve.buckets]
        assert edges == [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0), (1.0, 1.0)]
        assert curve.n_labelled == 0

    def test_empty_bucket_reports_its_centre(self):
        curve = calibration_from_arrays(np.array([0.9]), np.array([True]), 4)
        empty = curve.buckets[1]
        assert empty.count == 0
        assert empty.predicted == pytest.approx(0.375)
        assert empty.real == 0.0

    def test_bucket_sums_follow_input_order(self):
        p = np.array([0.1, 0.2, 0.3, 0.05, 0.15])
        curve = calibration_from_arrays(p, np.ones(5, dtype=bool), 2)
        total = 0.0
        for value in p.tolist():
            total += value
        assert curve.buckets[0].predicted == total / 5
