"""Unit tests for world/web configuration validation."""

import pytest

from repro.errors import ConfigError
from repro.world.config import WebConfig, WorldConfig


class TestWorldConfig:
    def test_defaults_valid(self):
        WorldConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_types": 1},
            {"n_entities": 5},
            {"wrong_pool_size": 0},
            {"fact_fill_rate": 1.5},
            {"fact_fill_rate": -0.1},
            {"freebase_item_coverage": 2.0},
            {"confusable_rate": -1.0},
            {"multi_truth_geometric": 1.01},
            {"alias_rate": -0.01},
            {"freebase_value_recall": 1.1},
            {"freebase_generalization_rate": -0.5},
            {"freebase_error_rate": 2.0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            WorldConfig(**kwargs)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_probability_bounds_are_inclusive(self, value):
        config = WorldConfig(fact_fill_rate=value, freebase_error_rate=value)
        assert config.fact_fill_rate == value

    def test_error_names_the_field(self):
        with pytest.raises(ConfigError, match="alias_rate"):
            WorldConfig(alias_rate=3.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            WorldConfig().n_types = 99


class TestWebConfig:
    def test_defaults_valid(self):
        WebConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_sites": 0},
            {"n_sites": 50, "n_pages": 10},
            {"facts_per_page_mean": 0},
            {"site_error_alpha": 0},
            {"site_error_beta": -1.0},
            {"copy_rate": 1.2},
            {"popular_wrong_rate": -0.1},
            {"generalization_rate": 1.5},
            {"content_mix": {}},
            {"content_mix": {"VIDEO": 1.0}},
            {"content_mix": {"DOM": -1.0}},
            {"content_mix": {"DOM": 0.0}},
            {"max_entities_per_page": 0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            WebConfig(**kwargs)

    def test_custom_mix_accepted(self):
        config = WebConfig(content_mix={"DOM": 0.5, "TXT": 0.5})
        assert set(dict(config.content_mix)) == {"DOM", "TXT"}
