"""Unit tests for PR curves and AUC-PR."""

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.eval.calibration import labelled_arrays
from repro.eval.pr import auc_pr, pr_curve, pr_from_arrays
from repro.kb.triples import Triple
from repro.kb.values import StringValue
from tests.oracle import eval as oracle


def t(name):
    return Triple("/m/1", "t/t/p", StringValue(name))


def k(name):
    """The gold key of ``t(name)``: its canonical text."""
    return t(name).canonical()


class TestCurve:
    def test_perfect_ranking(self):
        probabilities = {t("a"): 0.9, t("b"): 0.8, t("c"): 0.2, t("d"): 0.1}
        gold = {k("a"): True, k("b"): True, k("c"): False, k("d"): False}
        curve = pr_curve(probabilities, gold)
        assert auc_pr(curve) == pytest.approx(1.0)

    def test_inverted_ranking_is_poor(self):
        probabilities = {t("a"): 0.1, t("b"): 0.2, t("c"): 0.8, t("d"): 0.9}
        gold = {k("a"): True, k("b"): True, k("c"): False, k("d"): False}
        assert auc_pr(pr_curve(probabilities, gold)) < 0.6

    def test_recall_reaches_one(self):
        probabilities = {t("a"): 0.9, t("b"): 0.3}
        gold = {k("a"): True, k("b"): True}
        curve = pr_curve(probabilities, gold)
        assert curve.recalls[-1] == pytest.approx(1.0)

    def test_ties_consumed_as_block(self):
        probabilities = {t("a"): 0.5, t("b"): 0.5, t("c"): 0.5}
        gold = {k("a"): True, k("b"): False, k("c"): False}
        curve = pr_curve(probabilities, gold)
        assert len(curve.recalls) == 1
        assert curve.precisions[0] == pytest.approx(1 / 3)

    def test_unlabelled_excluded(self):
        probabilities = {t("a"): 0.9, t("zz"): 0.99}
        gold = {k("a"): True}
        curve = pr_curve(probabilities, gold)
        assert curve.n_labelled == 1

    def test_no_labels_rejected(self):
        with pytest.raises(EvaluationError):
            pr_curve({t("a"): 0.5}, {})

    def test_no_true_triples_rejected(self):
        with pytest.raises(EvaluationError):
            pr_curve({t("a"): 0.5}, {k("a"): False})


class TestAUC:
    def test_random_scores_give_middling_auc(self):
        import numpy as np

        rng = np.random.default_rng(0)
        probabilities = {}
        gold = {}
        for i in range(2000):
            triple = t(f"x{i}")
            probabilities[triple] = float(rng.random())
            gold[triple.canonical()] = bool(rng.random() < 0.3)
        area = auc_pr(pr_curve(probabilities, gold))
        # Random ranking's AUC-PR ~= base rate.
        assert area == pytest.approx(0.3, abs=0.07)

    def test_better_ranking_higher_auc(self):
        gold = {k(f"x{i}"): i < 10 for i in range(100)}
        good = {t(f"x{i}"): 1.0 - i / 100 for i in range(100)}
        flat = {t(f"x{i}"): 0.5 for i in range(100)}
        assert auc_pr(pr_curve(good, gold)) > auc_pr(pr_curve(flat, gold))

    def test_single_block_auc_is_the_base_rate(self):
        curve = pr_from_arrays(np.full(8, 0.5), np.array([True] * 2 + [False] * 6))
        assert curve.points() == [(1.0, 0.25)]
        assert auc_pr(curve) == pytest.approx(0.25)


    @pytest.mark.parametrize("seed", range(20))
    def test_cumsum_area_is_the_loop_area_bitwise(self, seed):
        """The trapezoids summed by one ``cumsum`` equal the left-to-right
        loop float for float, on curves of a few to thousands of points
        built from probabilities with tie blocks."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5000))
        levels = rng.uniform(0.0, 1.0, int(rng.integers(1, 50)))
        p = np.concatenate((rng.choice(levels, n), rng.uniform(0.0, 1.0, n)))
        y = rng.random(2 * n) < rng.uniform(0.05, 0.95)
        y[0] = True
        curve = pr_from_arrays(p, y)
        assert len(curve.recalls) < 2 * n  # tie blocks formed
        assert auc_pr(curve).hex() == oracle.auc_pr(curve).hex()


class TestFromArrays:
    def test_dict_entry_point_is_the_array_path(self):
        rng = np.random.default_rng(5)
        probabilities = {t(f"x{i}"): float(rng.integers(0, 10)) / 10 for i in range(150)}
        gold = {triple.canonical(): bool(rng.random() < 0.4) for triple in probabilities}
        assert pr_curve(probabilities, gold) == pr_from_arrays(
            *labelled_arrays(probabilities, gold)
        )

    def test_tie_blocks_end_at_value_changes(self):
        p = np.array([0.5, 0.9, 0.1, 0.5])
        y = np.array([True, True, False, False])
        curve = pr_from_arrays(p, y)
        assert curve.recalls == (0.5, 1.0, 1.0)
        assert curve.precisions == (1.0, 2 / 3, 0.5)
        assert (curve.n_true, curve.n_labelled) == (2, 4)

    def test_empty_arrays_rejected(self):
        with pytest.raises(EvaluationError, match="no labelled"):
            pr_from_arrays(np.zeros(0), np.zeros(0, dtype=bool))
