"""Unit tests for ground-truth world generation."""

import pytest

from repro.kb.values import EntityRef
from repro.world.config import WorldConfig
from repro.world.worldgen import generate_world

LOCATION = "location/location"


class TestDeterminism:
    def test_same_seed_same_world(self):
        config = WorldConfig(n_types=6, n_entities=100)
        a = generate_world(config, seed=1)
        b = generate_world(config, seed=1)
        assert a.truths == b.truths
        assert [e.entity_id for e in a.entities] == [e.entity_id for e in b.entities]

    def test_different_seed_different_world(self):
        config = WorldConfig(n_types=6, n_entities=100)
        a = generate_world(config, seed=1)
        b = generate_world(config, seed=2)
        assert a.truths != b.truths


class TestStructure:
    def test_entity_budget_roughly_met(self, small_world):
        assert len(small_world.entities) == pytest.approx(200, rel=0.2)

    def test_every_truth_subject_exists(self, small_world):
        for item in small_world.truths:
            assert small_world.entities.get(item.subject).entity_id == item.subject

    def test_every_truth_predicate_in_schema(self, small_world):
        for item in small_world.truths:
            assert item.predicate in small_world.schema.predicates

    def test_functional_items_have_single_truth(self, small_world):
        for item, values in small_world.truths.items():
            predicate = small_world.schema.predicate(item.predicate)
            if predicate.functional:
                assert len(values) == 1

    def test_non_functional_respect_max_truths(self, small_world):
        for item, values in small_world.truths.items():
            predicate = small_world.schema.predicate(item.predicate)
            assert len(values) <= predicate.max_truths

    def test_multi_truth_items_exist(self, small_world):
        assert any(len(values) > 1 for values in small_world.truths.values())

    def test_popularity_covers_all_entities(self, small_world):
        for entity in small_world.entities:
            assert small_world.popularity.get(entity.entity_id, 0) > 0


class TestLocations:
    def test_hierarchy_is_populated(self, small_world):
        locations = small_world.entities.of_type(LOCATION)
        hierarchy = small_world.hierarchy
        in_hierarchy = [
            e
            for e in locations
            if hierarchy.ancestors(e.entity_id) or hierarchy.children(e.entity_id)
        ]
        assert len(in_hierarchy) > len(locations) * 0.8

    def test_hierarchical_truths_point_at_leaves(self, small_world):
        hierarchy = small_world.hierarchy
        for item, values in small_world.truths.items():
            predicate = small_world.schema.predicate(item.predicate)
            if not predicate.hierarchical:
                continue
            for value in values:
                assert isinstance(value, EntityRef)
                assert hierarchy.children(value.entity_id) == []

    def test_chains_have_depth(self, small_world):
        depths = [
            len(small_world.hierarchy.ancestors(e.entity_id))
            for e in small_world.entities.of_type(LOCATION)
        ]
        assert max(depths) >= 3  # continent > country > region > city


class TestAmbiguity:
    def test_alias_sharing_creates_multi_candidate_surfaces(self, small_world):
        registry = small_world.entities
        assert any(
            len(registry.candidates_for(surface)) >= 2
            for entity in registry
            for surface in entity.surface_forms()
        )
