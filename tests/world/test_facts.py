"""Unit tests for the World truth API, wrong pools and Freebase snapshot."""

import pytest

from repro.kb.triples import Triple
from repro.kb.values import EntityRef
from repro.world import facts
from repro.world.config import WorldConfig
from repro.world.facts import build_freebase_snapshot
from repro.world.worldgen import generate_world


class TestTruthQueries:
    def test_exact_truth(self, small_world):
        item = next(iter(small_world.truths))
        value = small_world.truths[item][0]
        assert small_world.is_true_exact(Triple(item.subject, item.predicate, value))

    def test_wrong_value_not_true(self, small_world):
        item = next(iter(small_world.truths))
        values, _ = small_world.wrong_pool(item)
        if values:
            triple = Triple(item.subject, item.predicate, values[0])
            assert not small_world.is_true_exact(triple)

    def test_generalization_is_true(self, small_world):
        # Find a hierarchical truth and generalise it.
        for item, values in small_world.truths.items():
            predicate = small_world.schema.predicate(item.predicate)
            if not predicate.hierarchical:
                continue
            value = values[0]
            ancestors = small_world.hierarchy.ancestors(value.entity_id)
            if not ancestors:
                continue
            general = Triple(item.subject, item.predicate, EntityRef(ancestors[0]))
            assert small_world.is_generalization(general)
            assert small_world.is_true(general)
            assert not small_world.is_true_exact(general)
            return
        pytest.skip("no hierarchical truth with ancestors in this world")

    def test_truth_count(self, small_world):
        item = next(iter(small_world.truths))
        assert small_world.truth_count(item) == len(small_world.truths[item])


class TestWrongPools:
    def test_pool_excludes_truths(self, small_world):
        for item in list(small_world.truths)[:50]:
            values, _weights = small_world.wrong_pool(item)
            truths = set(small_world.truths[item])
            assert not (set(values) & truths)

    def test_pool_deterministic_and_cached(self, small_world):
        item = next(iter(small_world.truths))
        first = small_world.wrong_pool(item)
        second = small_world.wrong_pool(item)
        assert first is second  # cached

    def test_pool_weights_normalised(self, small_world):
        item = next(iter(small_world.truths))
        values, weights = small_world.wrong_pool(item)
        if values:
            assert weights.sum() == pytest.approx(1.0)
            assert len(weights) == len(values)

    def test_draw_wrong_value_comes_from_pool(self, small_world):
        import numpy as np

        item = next(iter(small_world.truths))
        values, _ = small_world.wrong_pool(item)
        if not values:
            pytest.skip("empty pool")
        rng = np.random.default_rng(0)
        for popular in (True, False):
            drawn = small_world.draw_wrong_value(item, rng, popular=popular)
            assert drawn in values


class TestFreebaseSnapshot:
    def test_snapshot_deterministic(self, small_world):
        a = build_freebase_snapshot(small_world)
        b = build_freebase_snapshot(small_world)
        assert a == b

    def test_snapshot_covers_subset_of_items(self, small_world):
        snapshot = build_freebase_snapshot(small_world)
        coverage = sum(map(snapshot.has_item, small_world.truths)) / len(small_world.truths)
        assert coverage == pytest.approx(facts.FREEBASE_ITEM_COVERAGE, abs=0.12)

    def test_snapshot_mostly_true(self, small_world):
        snapshot = build_freebase_snapshot(small_world)
        truths = sum(1 for t in snapshot._triples if small_world.is_true(t))
        assert truths / len(snapshot._triples) > 0.9

    def test_snapshot_contains_some_errors(self, monkeypatch):
        monkeypatch.setattr(facts, "FREEBASE_ERROR_RATE", 0.2)
        world = generate_world(WorldConfig(n_types=6, n_entities=300), seed=9)
        snapshot = build_freebase_snapshot(world)
        wrong = sum(1 for t in snapshot._triples if not world.is_true(t))
        assert wrong > 0
