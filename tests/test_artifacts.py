"""Tests for the content-addressed scenario artifact cache.

The correctness contract of :mod:`repro.artifacts` is *bit identity*: a
cache hit must reconstruct the world, Freebase snapshot and corpus so
exactly that everything downstream (records, gold labels, fused
probabilities) equals a fresh build.  Invalidation is by construction —
the key covers seed, configs, artifact format and a code-version hash —
and a loader that finds anything off (key, sizes, checksums) must miss,
never guess.
"""

import json

import pytest

from repro import artifacts
from repro.datasets import ScenarioConfig
from repro.world.config import WebConfig, WorldConfig

CONFIG = ScenarioConfig(
    seed=11,
    world=WorldConfig(n_types=5, n_entities=60),
    web=WebConfig(n_sites=6, n_pages=30),
)


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A populated cache plus the cold (freshly generated) bundle."""
    cache_dir = tmp_path_factory.mktemp("artifact-cache")
    world, freebase, corpus, status = artifacts.setup_worldgen(
        CONFIG.seed, CONFIG.world, CONFIG.web, cache_dir
    )
    assert status == "miss"
    return cache_dir, world, freebase, corpus


class TestSetupWorldgen:
    def test_off_without_cache_dir(self):
        *_bundle, status = artifacts.setup_worldgen(
            CONFIG.seed, CONFIG.world, CONFIG.web, None
        )
        assert status == "off"

    def test_hit_is_bit_identical(self, warm_cache):
        cache_dir, world, freebase, corpus = warm_cache
        world2, freebase2, corpus2, status = artifacts.setup_worldgen(
            CONFIG.seed, CONFIG.world, CONFIG.web, cache_dir
        )
        assert status == "hit"
        assert world2.truths == world.truths
        assert world2.popularity == world.popularity
        assert freebase2.stats() == freebase.stats()
        assert list(freebase2.data_items()) == list(freebase.data_items())
        assert corpus2.sites == corpus.sites
        assert list(corpus2.pages) == list(corpus.pages)

    def test_lazy_pages_support_sequence_protocol(self, warm_cache):
        cache_dir, _world, _freebase, corpus = warm_cache
        _w, _f, corpus2, status = artifacts.setup_worldgen(
            CONFIG.seed, CONFIG.world, CONFIG.web, cache_dir
        )
        assert status == "hit"
        assert isinstance(corpus2.pages, artifacts.LazyPageList)
        assert len(corpus2.pages) == len(corpus.pages)
        assert corpus2.pages[0] == corpus.pages[0]
        assert corpus2.pages[-1] == corpus.pages[-1]
        assert corpus2.pages[1:3] == list(corpus.pages)[1:3]

    def test_different_seed_misses(self, warm_cache):
        cache_dir, *_ = warm_cache
        *_bundle, status = artifacts.setup_worldgen(
            CONFIG.seed + 1, CONFIG.world, CONFIG.web, cache_dir
        )
        assert status == "miss"

    def test_different_config_misses(self, warm_cache):
        cache_dir, *_ = warm_cache
        *_bundle, status = artifacts.setup_worldgen(
            CONFIG.seed,
            CONFIG.world,
            WebConfig(n_sites=6, n_pages=31),
            cache_dir,
        )
        assert status == "miss"


class TestKeying:
    def test_key_covers_seed_and_configs(self):
        base = artifacts.scenario_artifact_key(1, CONFIG.world, CONFIG.web)
        assert artifacts.scenario_artifact_key(2, CONFIG.world, CONFIG.web) != base
        assert (
            artifacts.scenario_artifact_key(
                1, WorldConfig(n_types=6, n_entities=60), CONFIG.web
            )
            != base
        )

    def test_code_version_change_invalidates(self, warm_cache, monkeypatch):
        cache_dir, *_ = warm_cache
        monkeypatch.setattr(artifacts, "_code_version_cache", "deadbeef")
        loaded = artifacts.load_scenario_artifact(
            cache_dir, CONFIG.seed, CONFIG.world, CONFIG.web
        )
        assert loaded is None


class TestCorruptionHandling:
    def load(self, cache_dir, **kwargs):
        return artifacts.load_scenario_artifact(
            cache_dir, CONFIG.seed, CONFIG.world, CONFIG.web, **kwargs
        )

    def artifact_dir(self, cache_dir):
        key = artifacts.scenario_artifact_key(CONFIG.seed, CONFIG.world, CONFIG.web)
        return artifacts.artifact_dir_for(cache_dir, key)

    def test_verified_load_succeeds(self, warm_cache):
        cache_dir, *_ = warm_cache
        assert self.load(cache_dir, verify=True) is not None

    def test_size_drift_misses(self, warm_cache, tmp_path):
        cache_dir, *_ = warm_cache
        clone = tmp_path / "clone"
        clone.mkdir()
        source = self.artifact_dir(cache_dir)
        target = artifacts.artifact_dir_for(
            clone,
            artifacts.scenario_artifact_key(CONFIG.seed, CONFIG.world, CONFIG.web),
        )
        target.mkdir()
        for entry in source.iterdir():
            (target / entry.name).write_bytes(entry.read_bytes())
        payload = target / "payload.bin"
        payload.write_bytes(payload.read_bytes() + b"x")
        assert self.load(clone) is None

    def test_checksum_corruption_detected_by_verify(self, warm_cache, tmp_path):
        cache_dir, *_ = warm_cache
        clone = tmp_path / "clone"
        clone.mkdir()
        source = self.artifact_dir(cache_dir)
        target = artifacts.artifact_dir_for(
            clone,
            artifacts.scenario_artifact_key(CONFIG.seed, CONFIG.world, CONFIG.web),
        )
        target.mkdir()
        for entry in source.iterdir():
            (target / entry.name).write_bytes(entry.read_bytes())
        payload = target / "payload.bin"
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0xFF  # same size, different bytes
        payload.write_bytes(bytes(data))
        assert self.load(clone, verify=True) is None

    def test_missing_meta_misses(self, tmp_path):
        assert self.load(tmp_path / "empty") is None

    def test_wrong_key_in_meta_misses(self, warm_cache, tmp_path):
        cache_dir, *_ = warm_cache
        clone = tmp_path / "clone"
        clone.mkdir()
        source = self.artifact_dir(cache_dir)
        target = artifacts.artifact_dir_for(
            clone,
            artifacts.scenario_artifact_key(CONFIG.seed, CONFIG.world, CONFIG.web),
        )
        target.mkdir()
        for entry in source.iterdir():
            (target / entry.name).write_bytes(entry.read_bytes())
        meta = json.loads((target / "meta.json").read_text())
        meta["key"] = "0" * 64
        (target / "meta.json").write_text(json.dumps(meta))
        assert self.load(clone) is None


class TestRepair:
    """A damaged artifact is republished, not missed on forever."""

    def worldgen(self, cache_dir):
        return artifacts.setup_worldgen(CONFIG.seed, CONFIG.world, CONFIG.web, cache_dir)

    def test_truncated_payload_is_republished(self, warm_cache, tmp_path):
        corpus = warm_cache[3]
        assert self.worldgen(tmp_path)[3] == "miss"
        key = artifacts.scenario_artifact_key(CONFIG.seed, CONFIG.world, CONFIG.web)
        payload = artifacts.artifact_dir_for(tmp_path, key) / "payload.bin"
        payload.write_bytes(payload.read_bytes()[:-1])

        assert self.worldgen(tmp_path)[3] == "miss"
        *_bundle, repaired, status = self.worldgen(tmp_path)
        assert status == "hit"
        assert list(repaired.pages) == list(corpus.pages)
        assert [p.name for p in tmp_path.iterdir()] == [payload.parent.name]

    def test_lost_race_keeps_an_intact_publish(self, tmp_path):
        final_dir = tmp_path / "scenario-x"
        files, meta = {"a.bin": b"abc"}, {"key": "x"}
        artifacts._publish_atomically(final_dir, files, meta)
        inode = (final_dir / "a.bin").stat().st_ino
        artifacts._publish_atomically(final_dir, files, meta)
        assert (final_dir / "a.bin").stat().st_ino == inode
        assert [p.name for p in tmp_path.iterdir()] == ["scenario-x"]


class TestDownstreamBitIdentity:
    def test_records_and_gold_match_fresh_build(self, warm_cache):
        from repro.datasets.scenario import build_extraction_pipeline, label_gold

        cache_dir, world, freebase, corpus = warm_cache
        config = CONFIG
        fresh_records = build_extraction_pipeline(config, world).run(
            corpus, backend="serial"
        )

        world2, freebase2, corpus2, status = artifacts.setup_worldgen(
            config.seed, config.world, config.web, cache_dir
        )
        assert status == "hit"
        cached_records = build_extraction_pipeline(config, world2).run(
            corpus2, backend="serial"
        )
        assert cached_records == fresh_records
        assert label_gold(freebase2, cached_records) == label_gold(
            freebase, fresh_records
        )

    def test_build_scenario_uses_the_cache(self, tmp_path):
        from repro.datasets import build_scenario

        cold = build_scenario(CONFIG, use_cache=False, cache_dir=tmp_path)
        warm = build_scenario(CONFIG, use_cache=False, cache_dir=tmp_path)
        assert isinstance(warm.corpus.pages, artifacts.LazyPageList)
        assert warm.records == cold.records
        assert warm.gold == cold.gold
