"""Tests for the content-addressed scenario artifact cache.

The correctness contract of :mod:`repro.artifacts` is *bit identity*: a
cache hit must reconstruct the world, Freebase snapshot and corpus so
exactly that everything downstream (records, gold labels, fused
probabilities) equals a fresh build.  Invalidation is by construction —
the key covers seed, configs, artifact format and a code-version hash —
and a loader that finds anything off (key, sizes, checksums) must miss,
never guess.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
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
        assert freebase2 == freebase
        assert list(freebase2._by_item) == list(freebase._by_item)
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


class TestStoredPages:
    @pytest.fixture
    def lazy(self, warm_cache):
        cache_dir, *_ = warm_cache
        _world, _freebase, corpus, status = artifacts.setup_worldgen(
            CONFIG.seed, CONFIG.world, CONFIG.web, cache_dir
        )
        assert status == "hit"
        return corpus.pages

    def test_stored_pages_decode_to_the_generated_pages(self, lazy, warm_cache):
        corpus = warm_cache[3]
        stored = lazy.stored_pages()
        assert [page.url for page in stored] == [page.url for page in corpus.pages]
        assert [artifacts.decode_page(page) for page in stored] == list(corpus.pages)

    def test_stored_pages_decode_and_memoize_nothing(self, lazy):
        lazy.stored_pages()
        assert lazy._pages == [None] * len(lazy)

    def test_pages_decode_once(self, lazy):
        assert lazy[0] is lazy[0]
        assert lazy[-1] is lazy[len(lazy) - 1]

    @pytest.mark.parametrize("offset", [0, 1])
    def test_out_of_range_index_raises(self, lazy, offset):
        index = len(lazy) + offset if offset else -len(lazy) - 1
        with pytest.raises(IndexError):
            lazy[index]


class TestColumnStore:
    ARRAYS = {"row_ptr": np.array([0, 2, 3]), "claim_prov": np.array([1, 0, 1])}

    def publish(self, cache_dir, granularity="extractor_site", arrays=None):
        return artifacts.save_column_store(cache_dir, granularity, arrays or self.ARRAYS)

    def test_publish_is_content_addressed(self, tmp_path):
        handle = self.publish(tmp_path)
        assert Path(handle.directory) == artifacts.column_store_dir_for(tmp_path, handle.key)
        assert self.publish(tmp_path) == handle
        changed = dict(self.ARRAYS, row_ptr=np.array([0, 1, 3]))
        assert self.publish(tmp_path, arrays=changed).key != handle.key

    def test_granularity_is_part_of_the_key(self, tmp_path):
        site = self.publish(tmp_path, granularity="extractor_site")
        url = self.publish(tmp_path, granularity="extractor_url")
        assert site.key != url.key and site.directory != url.directory

    def test_manifest_matches_the_published_files(self, tmp_path):
        handle = self.publish(tmp_path)
        names = [name for name, _size, _digest in handle.files]
        assert names == ["claim_prov.npy", "row_ptr.npy"]
        assert sorted(p.name for p in Path(handle.directory).iterdir()) == [
            "claim_prov.npy", "meta.json", "row_ptr.npy"
        ]
        for name, size, digest in handle.files:
            blob = handle.path_of(name).read_bytes()
            assert len(blob) == size
            assert hashlib.sha256(blob).hexdigest() == digest
        assert np.array_equal(np.load(handle.path_of("row_ptr.npy")), self.ARRAYS["row_ptr"])
        meta = json.loads(handle.path_of("meta.json").read_text())
        assert meta["kind"] == "columns" and meta["key"] == handle.key

    def test_republish_keeps_the_existing_store(self, tmp_path):
        handle = self.publish(tmp_path)
        inode = handle.path_of("row_ptr.npy").stat().st_ino
        self.publish(tmp_path)
        assert handle.path_of("row_ptr.npy").stat().st_ino == inode
        assert [p.name for p in tmp_path.iterdir()] == [Path(handle.directory).name]

    def test_current_store_is_not_stale(self, tmp_path, monkeypatch):
        self.publish(tmp_path)
        assert artifacts.prune_cache(tmp_path) == []
        monkeypatch.setattr(artifacts, "_code_version_cache", "deadbeef")
        assert len(artifacts.prune_cache(tmp_path)) == 1

    def test_store_of_an_old_format_is_stale(self, tmp_path):
        """A store republished as ``format: 1`` after the bump to 2 is
        never loaded again, so prune must retire it."""
        handle = self.publish(tmp_path)
        meta_path = handle.path_of("meta.json")
        meta = json.loads(meta_path.read_text())
        assert meta["format"] == artifacts.COLUMN_FORMAT == 2
        meta_path.write_text(json.dumps(dict(meta, format=1)))
        assert artifacts.prune_cache(tmp_path) == [Path(handle.directory)]

    def test_scenario_artifact_of_an_old_format_is_stale(self, tmp_path, monkeypatch):
        artifacts.setup_worldgen(CONFIG.seed, CONFIG.world, CONFIG.web, tmp_path)
        assert artifacts.prune_cache(tmp_path) == []
        monkeypatch.setattr(artifacts, "ARTIFACT_FORMAT", artifacts.ARTIFACT_FORMAT + 1)
        (stale,) = artifacts.prune_cache(tmp_path)
        assert stale.name.startswith("scenario-")
