"""Unit tests for world/web configuration validation."""

from dataclasses import fields
from pathlib import Path

import pytest

from repro import artifacts
from repro.errors import ConfigError
from repro.world import facts, webgen, worldgen
from repro.world.config import WebConfig, WorldConfig


def test_only_the_four_sizes_are_fields():
    assert [f.name for f in fields(WorldConfig)] == ["n_types", "n_entities"]
    assert [f.name for f in fields(WebConfig)] == ["n_sites", "n_pages"]


def test_shape_constants_live_where_code_version_hashes():
    """The artifact key sees a shape constant only through
    ``code_version()``, which hashes ``repro/world/``."""
    world_dir = Path(artifacts.__file__).parent / "world"
    for module in (worldgen, facts, webgen):
        assert Path(module.__file__).parent == world_dir


# The range checks the configs ran on these values when they were fields,
# now run on the constants that replaced them.


@pytest.mark.parametrize(
    "module, name",
    [
        (worldgen, "FACT_FILL_RATE"),
        (worldgen, "MULTI_TRUTH_GEOMETRIC"),
        (worldgen, "ALIAS_RATE"),
        (worldgen, "CONFUSABLE_RATE"),
        (facts, "FREEBASE_ITEM_COVERAGE"),
        (facts, "FREEBASE_VALUE_RECALL"),
        (facts, "FREEBASE_GENERALIZATION_RATE"),
        (facts, "FREEBASE_ERROR_RATE"),
        (webgen, "POPULAR_WRONG_RATE"),
        (webgen, "COPY_RATE"),
        (webgen, "GENERALIZATION_RATE"),
    ],
)
def test_probability_constant_in_unit_interval(module, name):
    assert 0.0 <= getattr(module, name) <= 1.0


@pytest.mark.parametrize(
    "module, name",
    [
        (worldgen, "ENTITY_ZIPF"),
        (facts, "WRONG_POOL_SIZE"),
        (webgen, "FACTS_PER_PAGE_MEAN"),
        (webgen, "SITE_ERROR_ALPHA"),
        (webgen, "SITE_ERROR_BETA"),
        (webgen, "MAX_ENTITIES_PER_PAGE"),
    ],
)
def test_shape_constant_positive(module, name):
    assert getattr(module, name) > 0


def test_content_mix_constant_is_valid():
    mix = webgen.CONTENT_MIX
    assert mix and set(mix) <= {"TXT", "DOM", "TBL", "ANO"}
    assert all(w >= 0 for w in mix.values())
    assert sum(mix.values()) > 0


class TestWorldConfig:
    def test_defaults_valid(self):
        WorldConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_types": 1},
            {"n_entities": 5},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            WorldConfig(**kwargs)

    def test_size_bounds_are_inclusive(self):
        config = WorldConfig(n_types=2, n_entities=10)
        assert (config.n_types, config.n_entities) == (2, 10)

    def test_error_names_the_field(self):
        with pytest.raises(ConfigError, match="n_entities"):
            WorldConfig(n_entities=3)

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
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            WebConfig(**kwargs)

    def test_size_bounds_are_inclusive(self):
        config = WebConfig(n_sites=1, n_pages=1)
        assert (config.n_sites, config.n_pages) == (1, 1)
