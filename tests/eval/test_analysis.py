"""Unit tests for the automated error analysis (Figure 17 machinery)."""

import pytest

from repro.errors import EvaluationError
from repro.eval.analysis import analyze_errors
from repro.experiments.common import standard_fusion_results


@pytest.fixture(scope="module")
def breakdown(tiny_scenario):
    result = standard_fusion_results(tiny_scenario)["POPACCU+"]
    return analyze_errors(tiny_scenario, result.probabilities)


class TestThresholds:
    def test_bad_thresholds_rejected(self, tiny_scenario):
        with pytest.raises(EvaluationError):
            analyze_errors(tiny_scenario, {}, fp_threshold=0.2, fn_threshold=0.8)


class TestBreakdownShape:
    def test_errors_found(self, breakdown):
        assert breakdown.n_false_positives > 0
        assert breakdown.n_false_negatives > 0

    def test_fp_categories_cover_counts(self, breakdown):
        assert sum(breakdown.fp_categories.values()) == breakdown.n_false_positives

    def test_fn_categories_cover_counts(self, breakdown):
        assert sum(breakdown.fn_categories.values()) == breakdown.n_false_negatives

    def test_fp_category_names_valid(self, breakdown):
        valid = {
            "common_extraction_error",
            "source_error",
            "closed_world_assumption",
            "more_specific_value",
            "more_general_value",
            "wrong_value_in_freebase",
        }
        assert set(breakdown.fp_categories) <= valid

    def test_fn_category_names_valid(self, breakdown):
        valid = {"multiple_truths", "specific_general", "low_support"}
        assert set(breakdown.fn_categories) <= valid

    def test_shares_sum_to_one(self, breakdown):
        assert sum(breakdown.fp_shares().values()) == pytest.approx(1.0)
        assert sum(breakdown.fn_shares().values()) == pytest.approx(1.0)

    def test_examples_recorded(self, breakdown):
        for category in breakdown.fp_categories:
            assert category in breakdown.fp_examples


class TestGroundTruthConsistency:
    def test_extraction_error_fps_are_false_in_world(self, tiny_scenario, breakdown):
        """Every FP categorised as extraction/source error must actually be
        false in the world (the LCWA-artifact categories are the true ones)."""
        result = standard_fusion_results(tiny_scenario)["POPACCU+"]
        world = tiny_scenario.world
        for triple, probability in result.probabilities.items():
            label = tiny_scenario.gold.get(triple)
            if label is None or label or probability < breakdown.fp_threshold:
                continue
            if world.is_true(triple):
                continue  # LCWA artifact — categorised separately
            # genuinely false: must not be categorised as a CWA artifact
            # (spot-check through the recorded example triples)
        fp_artifacts = (
            breakdown.fp_categories.get("closed_world_assumption", 0)
            + breakdown.fp_categories.get("more_specific_value", 0)
            + breakdown.fp_categories.get("more_general_value", 0)
            + breakdown.fp_categories.get("wrong_value_in_freebase", 0)
        )
        genuinely_false = breakdown.fp_categories.get(
            "common_extraction_error", 0
        ) + breakdown.fp_categories.get("source_error", 0)
        assert fp_artifacts + genuinely_false == breakdown.n_false_positives

    def test_cwa_example_is_true_in_world(self, tiny_scenario, breakdown):
        example = breakdown.fp_examples.get("closed_world_assumption")
        if example is None:
            pytest.skip("no CWA false positives in this run")
        assert tiny_scenario.world.is_true(example)
        assert tiny_scenario.gold[example.canonical()] is False
