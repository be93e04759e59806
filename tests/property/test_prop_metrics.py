"""Property-based tests for the evaluation metrics.

The metrics run on one array core (``labelled_arrays`` and the
``*_from_arrays`` functions); the dict loops it replaced are
``tests/oracle/eval.py``, and the core must equal them exactly.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.eval.calibration import calibration_curve, deviation, weighted_deviation
from repro.eval.kappa import kappa
from repro.eval.pr import auc_pr, pr_curve
from repro.experiments.common import metrics_for
from repro.kb.triples import Triple
from repro.kb.values import StringValue
from tests.oracle import eval as oracle


def t(index: int) -> Triple:
    return Triple("/m/1", "t/t/p", StringValue(f"v{index}"))


@st.composite
def predictions(draw, min_size=1, require_true=False):
    n = draw(st.integers(min_value=min_size, max_value=60))
    probabilities = {}
    gold = {}
    any_true = False
    for i in range(n):
        probabilities[t(i)] = draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        )
        label = draw(st.booleans())
        gold[t(i).canonical()] = label
        any_true = any_true or label
    if require_true and not any_true:
        gold[t(0).canonical()] = True
    return probabilities, gold


class TestCalibrationProperties:
    @given(predictions())
    @settings(max_examples=150, deadline=None)
    def test_deviations_bounded(self, prediction):
        probabilities, gold = prediction
        curve = calibration_curve(probabilities, gold)
        assert 0.0 <= deviation(curve) <= 1.0
        assert 0.0 <= weighted_deviation(curve) <= 1.0

    @given(predictions())
    @settings(max_examples=150, deadline=None)
    def test_bucket_counts_add_up(self, prediction):
        probabilities, gold = prediction
        curve = calibration_curve(probabilities, gold)
        assert sum(b.count for b in curve.buckets) == curve.n_labelled == len(gold)

    @given(predictions())
    @settings(max_examples=150, deadline=None)
    def test_bucket_reals_are_probabilities(self, prediction):
        probabilities, gold = prediction
        curve = calibration_curve(probabilities, gold)
        for bucket in curve.buckets:
            assert 0.0 <= bucket.real <= 1.0
            assert 0.0 <= bucket.predicted <= 1.0

    @given(predictions())
    @settings(max_examples=100, deadline=None)
    def test_perfectly_labelled_prediction_has_zero_wdev(self, prediction):
        """Predicting exactly 0/1 matching the gold labels is perfectly
        calibrated."""
        _probabilities, gold = prediction
        oracle = {Triple.from_canonical(text): float(label) for text, label in gold.items()}
        curve = calibration_curve(oracle, gold)
        assert weighted_deviation(curve) == pytest.approx(0.0)


class TestPRProperties:
    @given(predictions(require_true=True))
    @settings(max_examples=150, deadline=None)
    def test_auc_bounded(self, prediction):
        probabilities, gold = prediction
        area = auc_pr(pr_curve(probabilities, gold))
        assert 0.0 <= area <= 1.0

    @given(predictions(require_true=True))
    @settings(max_examples=150, deadline=None)
    def test_recall_monotone(self, prediction):
        probabilities, gold = prediction
        curve = pr_curve(probabilities, gold)
        assert list(curve.recalls) == sorted(curve.recalls)
        assert curve.recalls[-1] == pytest.approx(1.0)

    @given(predictions(require_true=True))
    @settings(max_examples=100, deadline=None)
    def test_oracle_ranking_auc_is_one(self, prediction):
        _probabilities, gold = prediction
        oracle = {Triple.from_canonical(text): float(label) for text, label in gold.items()}
        assert auc_pr(pr_curve(oracle, gold)) == pytest.approx(1.0)

    @given(predictions(require_true=True))
    @settings(max_examples=100, deadline=None)
    def test_precision_in_unit_interval(self, prediction):
        probabilities, gold = prediction
        curve = pr_curve(probabilities, gold)
        for precision in curve.precisions:
            assert 0.0 <= precision <= 1.0


@st.composite
def tied_predictions(draw):
    """Probabilities drawn from a few values (so tie blocks form), 0.0 and
    1.0 among them, labels True / False / absent, and gold keys that have
    no probability."""
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 0.5, 0.05, 0.95]),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    n = draw(st.integers(min_value=0, max_value=60))
    probabilities = {}
    gold = {}
    for i in range(n):
        probabilities[t(i)] = draw(st.sampled_from(values))
        label = draw(st.sampled_from([True, False, None]))
        if label is not None:
            gold[t(i).canonical()] = label
    for i in range(n, n + draw(st.integers(min_value=0, max_value=5))):
        gold[t(i).canonical()] = draw(st.booleans())
    return probabilities, gold


def outcome(metric, *args):
    """``metric(*args)``, or the message of the EvaluationError it raised."""
    try:
        return metric(*args)
    except EvaluationError as error:
        return ("raised", str(error))


class TestArrayCoreEqualsTheDictLoops:
    @given(tied_predictions())
    @settings(max_examples=300, deadline=None)
    def test_calibration_curve(self, prediction):
        probabilities, gold = prediction
        assert calibration_curve(probabilities, gold) == oracle.calibration_curve(
            probabilities, gold
        )

    @given(tied_predictions())
    @settings(max_examples=300, deadline=None)
    def test_pr_curve_and_auc(self, prediction):
        probabilities, gold = prediction
        ours = outcome(pr_curve, probabilities, gold)
        assert ours == outcome(oracle.pr_curve, probabilities, gold)
        if not isinstance(ours, tuple):
            assert auc_pr(ours) == oracle.auc_pr(ours)

    @given(tied_predictions())
    @settings(max_examples=200, deadline=None)
    def test_headline_measures(self, prediction):
        probabilities, gold = prediction
        ours = outcome(metrics_for, probabilities, gold)
        try:
            curve = oracle.calibration_curve(probabilities, gold)
            area = oracle.auc_pr(oracle.pr_curve(probabilities, gold))
        except EvaluationError as error:
            assert ours == ("raised", str(error))
            return
        assert ours.row() == (deviation(curve), weighted_deviation(curve), area)


class TestEvaluationErrors:
    def test_no_labelled_triples(self):
        with pytest.raises(EvaluationError, match="no labelled triples"):
            metrics_for({t(0): 0.5}, {t(1).canonical(): True})

    def test_no_true_triples(self):
        with pytest.raises(EvaluationError, match="no true triples"):
            metrics_for({t(0): 0.5, t(1): 0.7}, {t(0).canonical(): False, t(1).canonical(): False})

    def test_out_of_range_probability_names_the_triple(self):
        probabilities = {t(0): 0.5, t(1): 1.5, t(2): -0.5}
        gold = {t(i).canonical(): True for i in range(3)}
        message = f"probability out of range for {t(1).canonical()}: 1.5"
        for metric in (metrics_for, calibration_curve, oracle.calibration_curve):
            with pytest.raises(EvaluationError, match=re.escape(message)):
                metric(probabilities, gold)

    def test_unlabelled_out_of_range_probability_is_ignored(self):
        probabilities = {t(0): 0.5, t(1): 1.5}
        gold = {t(0).canonical(): True}
        assert calibration_curve(probabilities, gold) == oracle.calibration_curve(
            probabilities, gold
        )


class TestKappaProperties:
    @given(
        st.sets(st.integers(min_value=0, max_value=60), min_size=0, max_size=40),
        st.sets(st.integers(min_value=0, max_value=60), min_size=0, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_kappa_symmetric_and_bounded(self, t1, t2):
        universe = set(range(61))
        value = kappa(t1, t2, universe)
        assert value == kappa(t2, t1, universe)
        assert -1.0 <= value <= 1.0

    @given(st.sets(st.integers(min_value=0, max_value=60), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_self_kappa_positive(self, t1):
        universe = set(range(61))
        assert kappa(t1, t1, universe) > 0

    @given(st.sets(st.integers(min_value=0, max_value=29), min_size=1, max_size=29))
    @settings(max_examples=100, deadline=None)
    def test_complement_kappa_negative(self, t1):
        universe = set(range(30))
        complement = universe - t1
        if not complement:
            return
        assert kappa(t1, complement, universe) < 0
