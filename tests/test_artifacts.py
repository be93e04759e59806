"""Tests for the content-addressed scenario artifact cache.

The correctness contract of :mod:`repro.artifacts` is *bit identity*: a
cache hit must reconstruct the world, Freebase snapshot and corpus so
exactly that everything downstream (records, gold labels, fused
probabilities) equals a fresh build.  Invalidation is by construction —
the key covers seed, configs, artifact format and a code-version hash —
and a loader that finds anything off (key, sizes, checksums) must miss,
never guess.
"""

import errno
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import artifacts
from repro.datasets import ScenarioConfig
from repro.world.config import WebConfig, WorldConfig
from repro.world.webgen import WebCorpus, WebPage

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


KEY = artifacts.scenario_artifact_key(CONFIG.seed, CONFIG.world, CONFIG.web)


def worldgen(cache_dir):
    return artifacts.setup_worldgen(CONFIG.seed, CONFIG.world, CONFIG.web, cache_dir)


class TestCorruptionHandling:
    def load(self, cache_dir):
        return artifacts.load_scenario_artifact(
            cache_dir, CONFIG.seed, CONFIG.world, CONFIG.web
        )

    def clone(self, warm_cache, tmp_path):
        """A copy of the warm artifact under ``tmp_path/clone``; its dir."""
        source = artifacts.artifact_dir_for(warm_cache[0], "scenario", KEY)
        target = artifacts.artifact_dir_for(tmp_path / "clone", "scenario", KEY)
        target.mkdir(parents=True)
        for entry in source.iterdir():
            (target / entry.name).write_bytes(entry.read_bytes())
        return target

    def test_intact_load_succeeds(self, warm_cache):
        assert self.load(warm_cache[0]) is not None

    def test_manifest_records_every_file(self, warm_cache):
        directory = artifacts.artifact_dir_for(warm_cache[0], "scenario", KEY)
        meta = json.loads((directory / "meta.json").read_text())
        assert (meta["format"], meta["kind"], meta["key"], meta["seed"]) == (
            artifacts.STORE_FORMAT, "scenario", KEY, CONFIG.seed
        )
        for path in directory.iterdir():
            if path.name != "meta.json":
                blob = path.read_bytes()
                assert meta["files"][path.name] == {
                    "bytes": len(blob), "sha256": hashlib.sha256(blob).hexdigest()
                }
        assert len(meta["files"]) == len(list(directory.iterdir())) - 1

    def test_size_drift_misses(self, warm_cache, tmp_path):
        payload = self.clone(warm_cache, tmp_path) / "payload.bin"
        payload.write_bytes(payload.read_bytes() + b"x")
        assert self.load(tmp_path / "clone") is None

    def test_flipped_byte_is_a_miss_then_a_republish(self, warm_cache, tmp_path):
        """A same-size bit flip in ``world.pkl`` misses on every load (no
        flag), and ``setup_worldgen`` regenerates and republishes it."""
        world_pkl = self.clone(warm_cache, tmp_path) / "world.pkl"
        data = bytearray(world_pkl.read_bytes())
        data[len(data) // 2] ^= 0xFF  # same size, different bytes
        world_pkl.write_bytes(bytes(data))
        assert self.load(tmp_path / "clone") is None
        assert worldgen(tmp_path / "clone")[3] == "miss"
        world, _freebase, _corpus, status = worldgen(tmp_path / "clone")
        assert status == "hit"
        assert world.truths == warm_cache[1].truths

    def test_missing_meta_misses(self, tmp_path):
        assert self.load(tmp_path / "empty") is None

    def test_wrong_key_in_meta_misses(self, warm_cache, tmp_path):
        meta_path = self.clone(warm_cache, tmp_path) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["key"] = "0" * 64
        meta_path.write_text(json.dumps(meta))
        assert self.load(tmp_path / "clone") is None


class TestRepair:
    """A damaged artifact is republished, not missed on forever."""

    def test_truncated_payload_is_republished(self, warm_cache, tmp_path):
        corpus = warm_cache[3]
        assert worldgen(tmp_path)[3] == "miss"
        payload = artifacts.artifact_dir_for(tmp_path, "scenario", KEY) / "payload.bin"
        payload.write_bytes(payload.read_bytes()[:-1])

        assert worldgen(tmp_path)[3] == "miss"
        *_bundle, repaired, status = worldgen(tmp_path)
        assert status == "hit"
        assert list(repaired.pages) == list(corpus.pages)
        assert [p.name for p in tmp_path.iterdir()] == [payload.parent.name]

    FILES = {"a.bin": b"abc", "b.bin": b"defg"}

    def published(self, cache_dir):
        """A ``columns`` entry put once, plus the manifest it carries."""
        directory = artifacts._put(cache_dir, "columns", "x" * 64, self.FILES, granularity="g")
        return directory, json.loads((directory / "meta.json").read_text())

    def test_lost_race_keeps_an_intact_publish(self, tmp_path):
        final_dir, manifest = self.published(tmp_path)
        inode = (final_dir / "a.bin").stat().st_ino
        artifacts._publish_atomically(final_dir, self.FILES, manifest)
        assert (final_dir / "a.bin").stat().st_ino == inode
        assert [p.name for p in tmp_path.iterdir()] == [final_dir.name]

    def test_lost_race_replaces_a_damaged_winner(self, tmp_path):
        final_dir, manifest = self.published(tmp_path)
        (final_dir / "b.bin").write_bytes(b"de")  # truncated winner
        inode = (final_dir / "a.bin").stat().st_ino
        artifacts._publish_atomically(final_dir, self.FILES, manifest)
        assert (final_dir / "a.bin").stat().st_ino != inode
        assert (final_dir / "b.bin").read_bytes() == b"defg"
        assert artifacts._get(tmp_path, "columns", "x" * 64) == manifest
        assert [p.name for p in tmp_path.iterdir()] == [final_dir.name]


class TestFailedPublish:
    """A publish that cannot write leaves nothing behind and re-raises;
    ``setup_worldgen`` carries on with the bundle it generated."""

    @pytest.fixture
    def disk_full(self, monkeypatch):
        real_write = Path.write_bytes
        calls = []

        def write_bytes(path, blob):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return real_write(path, blob)

        monkeypatch.setattr(Path, "write_bytes", write_bytes)
        return calls

    def test_enospc_mid_publish_leaves_no_tmp_dir(self, tmp_path, disk_full):
        with pytest.raises(OSError) as raised:
            artifacts._put(tmp_path, "columns", "k" * 64, TestRepair.FILES, granularity="g")
        assert raised.value.errno == errno.ENOSPC
        assert len(disk_full) == 2
        assert list(tmp_path.iterdir()) == []

    def test_setup_worldgen_falls_back_to_the_generated_bundle(
        self, warm_cache, tmp_path, disk_full
    ):
        world, _freebase, corpus, status = worldgen(tmp_path)
        assert status == "miss (publish fallback)"
        assert list(tmp_path.iterdir()) == []
        assert world.truths == warm_cache[1].truths
        assert list(corpus.pages) == list(warm_cache[3].pages)

    def test_unwritable_cache_dir_falls_back(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("")  # a *file*: mkdir under it raises OSError
        *_bundle, status = worldgen(blocker / "cache")
        assert status == "miss (publish fallback)"


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
        assert list(cached_records) == list(fresh_records)
        assert label_gold(freebase2, cached_records) == label_gold(
            freebase, fresh_records
        )

    def test_build_scenario_uses_the_cache(self, tmp_path):
        from repro.datasets import build_scenario

        cold = build_scenario(CONFIG, use_cache=False, cache_dir=tmp_path)
        warm = build_scenario(CONFIG, use_cache=False, cache_dir=tmp_path)
        assert isinstance(warm.corpus.pages, artifacts.LazyPageList)
        assert list(warm.records) == list(cold.records)
        assert warm.gold == cold.gold


class TestSavePeak:
    def test_save_holds_the_payload_once(self, warm_cache, tmp_path):
        """The page bodies go into one growing buffer, so the save's
        traced peak is about one payload, not a body list plus its join."""
        _cache_dir, world, freebase, corpus = warm_cache
        pages = [
            WebPage(
                url=f"http://s{i}.org/p",
                site=f"s{i}.org",
                category="news",
                assertions=(),
                elements=(bytes([i]) * 200_000,),
            )
            for i in range(40)
        ]
        big = WebCorpus(config=corpus.config, sites=corpus.sites, pages=pages)
        tracemalloc.start()
        try:
            directory = artifacts.save_scenario_artifact(
                tmp_path, CONFIG.seed, world, freebase, big
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (directory / "payload.bin").stat().st_size < 1.5
        loaded = artifacts.load_scenario_artifact(
            tmp_path, CONFIG.seed, CONFIG.world, CONFIG.web
        )
        assert list(loaded[2].pages) == pages


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
        assert Path(handle.directory) == artifacts.artifact_dir_for(
            tmp_path, "columns", handle.key
        )
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
        """A store written as ``format: 2`` (the column format before the
        one store) is never loaded again, so prune must retire it."""
        handle = self.publish(tmp_path)
        meta_path = handle.path_of("meta.json")
        meta = json.loads(meta_path.read_text())
        assert meta["format"] == artifacts.STORE_FORMAT == 3
        meta_path.write_text(json.dumps(dict(meta, format=2)))
        assert artifacts.prune_cache(tmp_path) == [Path(handle.directory)]

    def test_scenario_artifact_of_an_old_format_is_stale(self, tmp_path, monkeypatch):
        worldgen(tmp_path)
        assert artifacts.prune_cache(tmp_path) == []
        monkeypatch.setattr(artifacts, "STORE_FORMAT", artifacts.STORE_FORMAT + 1)
        (stale,) = artifacts.prune_cache(tmp_path)
        assert stale.name.startswith("scenario-")

    def test_truncated_npy_is_republished(self, tmp_path):
        """The damage a ``meta.json``-exists check used to reuse."""
        handle = self.publish(tmp_path)
        path = handle.path_of("row_ptr.npy")
        inode = path.stat().st_ino
        path.write_bytes(path.read_bytes()[:-8])
        assert artifacts.prune_cache(tmp_path) == [Path(handle.directory)]
        assert self.publish(tmp_path) == handle
        assert path.stat().st_ino != inode
        assert path.stat().st_size == dict((n, s) for n, s, _ in handle.files)["row_ptr.npy"]
        assert np.array_equal(np.load(path), self.ARRAYS["row_ptr"])
        assert artifacts.prune_cache(tmp_path) == []

    def test_prune_lists_a_damaged_entry_of_each_kind(self, tmp_path):
        worldgen(tmp_path)
        handle = self.publish(tmp_path)
        scenario = artifacts.artifact_dir_for(tmp_path, "scenario", KEY)
        assert artifacts.prune_cache(tmp_path) == []
        (scenario / "offsets.npy").write_bytes(b"")
        blob = bytearray(handle.path_of("claim_prov.npy").read_bytes())
        blob[-1] ^= 0x01  # same size, different bytes
        handle.path_of("claim_prov.npy").write_bytes(bytes(blob))
        assert artifacts.prune_cache(tmp_path) == sorted([Path(handle.directory), scenario])

    def test_a_complete_tmp_dir_beside_its_entry_is_stale(self, tmp_path):
        """A writer that crashed after its last write, before the rename,
        leaves a full manifest in a ``.tmp-*`` dir; the intact entry that
        manifest names is elsewhere, so the leftover is still stale."""
        handle = self.publish(tmp_path)
        leftover = Path(handle.directory + ".tmp-999")
        leftover.mkdir()
        for path in Path(handle.directory).iterdir():
            (leftover / path.name).write_bytes(path.read_bytes())
        assert artifacts.prune_cache(tmp_path) == [leftover]
