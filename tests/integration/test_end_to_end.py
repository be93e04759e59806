"""End-to-end integration tests: determinism and isolation guarantees."""

from dataclasses import replace

import pytest

from repro.datasets import ScenarioConfig, build_scenario
from repro.fusion import FusionInput, popaccu, popaccu_plus, vote
from repro.world.config import WebConfig, WorldConfig


class TestDeterminism:
    def test_scenario_fully_deterministic(self):
        config = ScenarioConfig(
            seed=31,
            world=WorldConfig(n_types=6, n_entities=100),
            web=WebConfig(n_sites=10, n_pages=60),
        )
        a = build_scenario(config, use_cache=False)
        b = build_scenario(config, use_cache=False)
        assert a.records == b.records
        assert a.gold == b.gold
        assert a.freebase == b.freebase

    def test_fusion_deterministic(self, tiny_scenario):
        first = popaccu().fuse(tiny_scenario.fusion_input())
        second = popaccu().fuse(tiny_scenario.fusion_input())
        assert first.probabilities == second.probabilities
        assert first.accuracies == second.accuracies

    def test_fusion_independent_of_record_order(self, tiny_scenario):
        records = list(tiny_scenario.records)
        forward = popaccu().fuse(FusionInput(records))
        backward = popaccu().fuse(FusionInput(list(reversed(records))))
        for triple, probability in forward.probabilities.items():
            assert backward.probabilities[triple] == pytest.approx(probability)


class TestDebugChannelIsolation:
    """Fusion must be blind to the injected-error ground truth."""

    def test_fusion_invariant_to_debug_stripping(self, tiny_scenario):
        stripped = [replace(record, debug=None) for record in tiny_scenario.records]
        with_debug = popaccu_plus(tiny_scenario.gold).fuse(
            tiny_scenario.fusion_input()
        )
        without_debug = popaccu_plus(tiny_scenario.gold).fuse(FusionInput(stripped))
        assert with_debug.probabilities == without_debug.probabilities
        assert with_debug.unpredicted == without_debug.unpredicted

    def test_vote_invariant_to_debug_stripping(self, tiny_scenario):
        stripped = [replace(record, debug=None) for record in tiny_scenario.records]
        a = vote().fuse(tiny_scenario.fusion_input())
        b = vote().fuse(FusionInput(stripped))
        assert a.probabilities == b.probabilities


class TestScaleInvariance:
    """Headline shapes should agree between micro and tiny scales."""

    def test_gold_accuracy_same_regime(self, micro_scenario, tiny_scenario):
        micro = micro_scenario.extraction_stats()["gold_accuracy"]
        tiny = tiny_scenario.extraction_stats()["gold_accuracy"]
        assert abs(micro - tiny) < 0.3

    def test_popaccu_plus_beats_vote_at_both_scales(
        self, micro_scenario, tiny_scenario
    ):
        from repro.experiments.common import metrics_for, standard_fusion_results

        for scenario in (micro_scenario, tiny_scenario):
            results = standard_fusion_results(scenario)
            plus = metrics_for(
                results["POPACCU+"].probabilities, scenario.gold
            )
            base = metrics_for(results["VOTE"].probabilities, scenario.gold)
            assert plus.auc_pr > base.auc_pr


class TestPipelineHelpers:
    def test_timed_stage_clocks_the_body(self, monkeypatch):
        import itertools
        import time

        from repro.endtoend import timed_stage

        clock = itertools.count(10, 5)
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(clock)))
        timings = {"setup": 1.0}
        with timed_stage(timings, "fusion"):
            pass
        assert timings == {"setup": 1.0, "fusion": 5.0}

    def test_timed_stage_records_nothing_when_the_body_raises(self):
        from repro.endtoend import timed_stage

        timings = {}
        with pytest.raises(RuntimeError):
            with timed_stage(timings, "fusion"):
                raise RuntimeError("boom")
        assert timings == {}

    def test_make_fuser_rejects_an_unknown_method(self):
        from repro.endtoend import make_fuser
        from repro.errors import ConfigError
        from repro.fusion.base import FusionConfig

        with pytest.raises(ConfigError, match="bayes"):
            make_fuser("bayes", FusionConfig())

    def test_only_popaccu_plus_takes_the_gold_labels(self, tiny_scenario):
        from repro.endtoend import PIPELINE_METHODS, make_fuser
        from repro.fusion.base import FusionConfig

        gold = tiny_scenario.gold
        for method in PIPELINE_METHODS:
            fuser = make_fuser(method, FusionConfig(), gold)
            expected = gold if method == "popaccu+" else None
            assert fuser.gold_labels is expected, method

    def test_headline_metrics_summarise_the_labelled_predictions(self, tiny_scenario):
        from repro.endtoend import headline_metrics

        result = vote().fuse(tiny_scenario.fusion_input())
        metrics = headline_metrics(result, tiny_scenario.gold)
        labelled = [t for t in result.probabilities if t in tiny_scenario.gold]
        assert metrics["n_labelled"] == len(labelled) > 0
        assert metrics["coverage"] == result.coverage()
        right = sum(
            (result.probabilities[t] >= 0.5) == tiny_scenario.gold[t] for t in labelled
        )
        assert metrics["gold_accuracy"] == right / len(labelled)
        assert 0.0 <= metrics["weighted_deviation"] <= 1.0
        assert 0.0 < metrics["auc_pr"] <= 1.0
