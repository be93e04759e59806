"""The page stream is frozen: bits, parity anchor, and what it may cost.

Page generation consumes one sequential ``named_rng(seed, "webgen")``
stream, so every committed envelope (``expected.json``, the golden
``small`` test) depends on each draw landing exactly where it does today.
The fingerprints below were computed before :class:`repro.world.facts.World`
got its lookup tables and must never need re-blessing for a change that
only makes generation cheaper.  The naive scan the tables replaced lives
on here, as the oracle of the differential test.
"""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro import artifacts
from repro.datasets import small_config, tiny_config
from repro.errors import ConfigError
from repro.kb.entities import EntityRegistry
from repro.kb.schema import Predicate, ValueKind
from repro.kb.triples import DataItem
from repro.kb.values import NumberValue, StringValue
from repro.world import webgen
from repro.world.facts import build_freebase_snapshot
from repro.world.webgen import generate_corpus, stream_corpus
from repro.world.worldgen import generate_world

#: (preset, seed) -> sha256 of ``generate_corpus`` pages, of
#: ``stream_corpus(..., 512, 1024)`` pages, and of the Freebase snapshot.
FINGERPRINTS = {
    ("tiny", 0): (
        "bcc68960ad5fef69954bc627dd23bc976573b1b3b256c3cef2b277fc05cd3eeb",
        "bcc68960ad5fef69954bc627dd23bc976573b1b3b256c3cef2b277fc05cd3eeb",
        "ebb655269f34dea54000b882016b2f7c5b5ef90a3d90ff59ae2d7153fc33ceff",
    ),
    ("tiny", 1): (
        "9ddf096390ee54fbb993caa07e54d6af1be67e784dc0974a6768c5639712cfa8",
        "9ddf096390ee54fbb993caa07e54d6af1be67e784dc0974a6768c5639712cfa8",
        "55089614c5cd8fc0069391fda8b6741f9f1278ab07e005c269a204c4adef0109",
    ),
    ("tiny", 2): (
        "d3340a973d852cb7cd175e150337ef05420346ff0a7bb702f2ce1036146bf192",
        "d3340a973d852cb7cd175e150337ef05420346ff0a7bb702f2ce1036146bf192",
        "b40599b6498018590c927da19e2b3f0e1b3b82681d2b6d9fd0f9f4840f63e484",
    ),
    ("small", 0): (
        "21d77f0722f49f725467a663218e99006405b9823b4d6d07958ff37703c8b7c2",
        "483448b80a13ccaf6893ed12dfde4567aed79e49e84ca8f285e8259a38ed0142",
        "19d21d3bcce937a71a89aa2da8b4cd4a1a50684fdc1d5032c0d1871f39b01f8b",
    ),
}
_PRESETS = {"tiny": tiny_config, "small": small_config}


def pages_fingerprint(pages) -> str:
    digest = hashlib.sha256()
    for page in pages:
        digest.update(repr(page).encode())
    return digest.hexdigest()


def snapshot_fingerprint(snapshot) -> str:
    digest = hashlib.sha256()
    for line in sorted(triple.canonical() for triple in snapshot):
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def streamed(world, config, chunk_pages, copy_window):
    chunks = stream_corpus(world, config.web, config.seed, chunk_pages, copy_window)
    return [page for chunk in chunks for page in chunk]


@pytest.fixture(scope="module")
def tiny():
    config = tiny_config(0)
    world = generate_world(config.world, config.seed)
    return config, world, generate_corpus(world, config.web, config.seed).pages


class TestFrozenBits:
    @pytest.mark.parametrize(("preset", "seed"), sorted(FINGERPRINTS))
    def test_fingerprints_are_the_committed_ones(self, preset, seed):
        config = _PRESETS[preset](seed)
        world = generate_world(config.world, config.seed)
        materialised = generate_corpus(world, config.web, config.seed).pages
        assert (
            pages_fingerprint(materialised),
            pages_fingerprint(streamed(world, config, 512, 1024)),
            snapshot_fingerprint(build_freebase_snapshot(world)),
        ) == FINGERPRINTS[preset, seed]
        # The streaming parity anchor at this preset, page for page.
        assert streamed(world, config, 512, None) == materialised


class TestStreamingParity:
    @pytest.mark.parametrize("chunk_pages", [1, 7, 512])
    def test_unbounded_window_equals_the_materialised_corpus(self, tiny, chunk_pages):
        config, world, materialised = tiny
        chunks = list(
            stream_corpus(world, config.web, config.seed, chunk_pages, None)
        )
        assert [page for chunk in chunks for page in chunk] == materialised
        assert all(len(chunk) == chunk_pages for chunk in chunks[:-1])
        assert 1 <= len(chunks[-1]) <= chunk_pages

    def test_bounded_window_is_its_own_deterministic_corpus(self, tiny):
        config, world, materialised = tiny
        windowed = streamed(world, config, 7, 4)
        assert windowed == streamed(world, config, 7, 4)
        assert windowed == streamed(world, config, 512, 4)
        assert windowed != materialised
        assert streamed(world, config, 7, 0) != materialised  # no copying at all

    @pytest.mark.parametrize(
        "sizes", [{"chunk_pages": 0}, {"chunk_pages": -3}, {"copy_window": -1}]
    )
    def test_sizes_are_checked_at_the_call(self, tiny, sizes):
        config, world, _ = tiny
        with pytest.raises(ConfigError, match="must be >="):
            stream_corpus(world, config.web, config.seed, **sizes)


def naive_string_peer(world, text, rng):
    """What the STRING branch did before the tables: list every peer, index it."""
    peers = [
        v
        for vs in world.truths.values()
        for v in vs
        if isinstance(v, StringValue) and v.text != text
    ]
    if peers:
        return peers[int(rng.integers(len(peers)))]
    return StringValue(text + "s")


_STRING = Predicate("t/thing/label", "t/thing", ValueKind.STRING)


def hand_built(tiny_world, texts):
    """``tiny_world`` with one truth set per entry of ``texts``.

    A string entry is one ``StringValue``; a tuple is a multi-valued item;
    ``None`` is a number item, which the string table must not see.
    """
    truths = {}
    for index, entry in enumerate(texts):
        entries = entry if isinstance(entry, tuple) else (entry,)
        truths[DataItem(f"/m/{index}", _STRING.pid)] = tuple(
            NumberValue(float(index)) if text is None else StringValue(text)
            for text in entries
        )
    return dataclasses.replace(tiny_world, truths=truths)


class TestStringPeerDraw:
    @pytest.mark.parametrize(
        "texts",
        [
            ["solo"],  # no peers at all: the suffix fallback, no draw
            ["same", "same", ("same", "same")],  # still no peers
            ["a", "b", "c", "d"],
            ["x", "a", "b", "x"],  # excluded first and last
            ["x", "x", "x", "a", "x", "b", "x", "x"],  # one text, many positions
            [None, "a", None, ("b", "a", "c"), "a", None, "b"],
            ["a", "b"] * 40,
        ],
    )
    def test_same_value_and_same_rng_state_as_the_naive_scan(self, tiny, texts):
        world = hand_built(tiny[1], texts)
        for item, values in world.truths.items():
            if not isinstance(values[0], StringValue):
                continue
            # Enough seeds to hit every peer position of the small cases.
            for seed in range(40):
                fast_rng = np.random.default_rng(seed)
                slow_rng = np.random.default_rng(seed)
                fast = world._plausible_wrong_value(_STRING, item, fast_rng)
                slow = naive_string_peer(world, values[0].text, slow_rng)
                assert fast == slow
                assert fast.text != values[0].text
                assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_every_peer_is_reachable(self, tiny):
        world = hand_built(tiny[1], ["x", "a", "x", "b", "c", "x"])
        item = next(iter(world.truths))
        drawn = {
            world._plausible_wrong_value(_STRING, item, np.random.default_rng(s)).text
            for s in range(60)
        }
        assert drawn == {"a", "b", "c"}


class _CountingTruths(dict):
    """``World.truths`` that counts every full walk over it."""

    walks = 0

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestCostIsPerPage:
    """Counts, not timings: what generation may touch per page and per draw."""

    @pytest.mark.parametrize("n_pages", [20, 80])
    def test_truths_are_walked_once_per_world(self, tiny, n_pages):
        config, world, _ = tiny
        counted = dataclasses.replace(
            world, truths=_CountingTruths(world.truths), _wrong_pools={}
        )
        web = dataclasses.replace(config.web, n_pages=n_pages)
        assert generate_corpus(counted, web, config.seed).pages
        string_draws = sum(
            counted.schema.predicate(item.predicate).value_kind is ValueKind.STRING
            for item in counted._wrong_pools
        )
        assert string_draws >= 2  # each of these was a full walk before
        assert counted.truths.walks == 1

    def test_entity_pools_are_built_per_topic_set(self, tiny, monkeypatch):
        config, world, _ = tiny
        sites = generate_corpus(world, config.web, config.seed).sites.values()
        calls = []
        of_type = EntityRegistry.of_type
        monkeypatch.setattr(
            EntityRegistry,
            "of_type",
            lambda self, type_id: calls.append(type_id) or of_type(self, type_id),
        )
        world = dataclasses.replace(world)  # a world that has no tables yet
        rng = np.random.default_rng(0)
        for _ in range(5):
            for site in sites:
                assert webgen._pick_entities(world, site, rng, 3)
        topic_sets = {site.topic_types for site in sites}
        assert len(calls) == sum(len(topics) for topics in topic_sets)


class TestTablesAreDerivedState:
    def test_world_pkl_does_not_depend_on_what_was_generated(self):
        config = tiny_config(1)
        world = generate_world(config.world, config.seed)
        cold = artifacts._dump_world(world)
        assert generate_corpus(world, config.web, config.seed).pages
        build_freebase_snapshot(world)
        assert "_tables" in vars(world)
        assert artifacts._dump_world(world) == cold

    def test_tables_take_no_part_in_eq_repr_or_pickle(self):
        config = tiny_config(1)
        world = generate_world(config.world, config.seed)
        twin = generate_world(config.world, config.seed)
        entity = next(iter(world.entities))
        assert world.items_of(entity) == world.items_of(entity)
        assert world.topic_pool(entity.type_ids)[0]
        assert world._tables.strings
        assert world == twin
        assert repr(world) == repr(twin)
        assert "_tables" not in vars(pickle.loads(pickle.dumps(world)))
