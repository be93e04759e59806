"""Unit tests for the named fusion presets."""

import pytest

from repro.errors import ConfigError
from repro.fusion import (
    FusionConfig,
    Granularity,
    accu,
    popaccu,
    popaccu_plus,
    popaccu_plus_unsup,
    vote,
)
from repro.fusion.base import DEFAULT_ACCURACY, N_FALSE_VALUES
from repro.fusion.presets import PLUS_THETA


class TestNames:
    def test_method_names(self):
        assert vote().name == "VOTE"
        assert accu().name == "ACCU"
        assert popaccu().name == "POPACCU"
        assert popaccu_plus_unsup().name == "POPACCU+(unsup)"
        assert popaccu_plus({}).name == "POPACCU+"


class TestPlusConfiguration:
    def test_plus_unsup_turns_on_refinements(self):
        fuser = popaccu_plus_unsup()
        assert fuser.config.filter_by_coverage
        assert fuser.config.min_accuracy == pytest.approx(0.5)
        assert (
            fuser.config.granularity
            is Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN
        )
        assert fuser.gold_labels is None

    def test_plus_keeps_gold(self, tiny_scenario):
        fuser = popaccu_plus(tiny_scenario.gold)
        assert fuser.gold_labels is tiny_scenario.gold

    def test_plus_rejects_non_dict_gold(self):
        with pytest.raises(ConfigError):
            popaccu_plus(gold_labels=[("not", "a dict")])

    def test_plus_presets_replace_a_callers_min_accuracy(self):
        base = FusionConfig(min_accuracy=0.3)
        assert PLUS_THETA == 0.5
        assert popaccu_plus_unsup(base).config.min_accuracy == PLUS_THETA
        assert popaccu_plus({}, base).config.min_accuracy == PLUS_THETA

    def test_base_config_preserved(self):
        base = FusionConfig(max_rounds=9, seed=42)
        fuser = popaccu_plus_unsup(base)
        assert fuser.config.max_rounds == 9
        assert fuser.config.seed == 42


class TestDefaults:
    def test_paper_defaults(self):
        config = vote().config
        assert N_FALSE_VALUES == 100
        assert DEFAULT_ACCURACY == pytest.approx(0.8)
        assert config.max_rounds == 5
        assert config.sample_limit == 1_000_000
