"""Unit tests for the extraction pipeline and error classification."""

import hashlib
from dataclasses import replace

import pytest

from repro.artifacts import LazyPageList, StoredPage, setup_worldgen
from repro.datasets import small_config, tiny_config
from repro.datasets.scenario import build_extraction_pipeline
from repro.errors import ConfigError, ExtractionError
from repro.extract.kernels import classify_batch
from repro.extract.pipeline import EXTRACTION_BACKENDS
from repro.extract.records import ErrorKind, ExtractionDebug, ExtractionRecord
from repro.kb.triples import Triple
from repro.kb.values import EntityRef, StringValue
from repro.mapreduce import executors
from repro.mapreduce.codec import scan_payload_types
from repro.mapreduce.executors import ParallelExecutor, SerialExecutor
from repro.world.facts import SourceAssertion
from repro.world.webgen import WebPage, generate_corpus
from repro.world.worldgen import generate_world
from tests.oracle import extract as oracle

ASSERTED = Triple("/m/1", "t/t/p", EntityRef("/m/2"))


def make_page(source_error=False):
    return WebPage(
        url="http://s.org/p",
        site="s.org",
        category="general",
        assertions=(
            SourceAssertion(
                triple=ASSERTED, true_in_world=not source_error, exact=True
            ),
        ),
        elements=(),
    )


def make_record(triple, **debug_kwargs):
    return ExtractionRecord(
        triple=triple,
        extractor="X",
        url="http://s.org/p",
        site="s.org",
        content_type="DOM",
        debug=ExtractionDebug(**debug_kwargs),
    )


def classify_record(record, page):
    """``record`` classified by the kernel, which must agree with the oracle."""
    expected = oracle.classify_record(record, page)
    classify_batch([(page, [record])])
    assert record == expected
    return record


class TestClassification:
    def test_exact_match_is_clean(self):
        record = classify_record(make_record(ASSERTED, asserted_index=0), make_page())
        assert record.debug.error_kind is None
        assert record.debug.source_error is False

    def test_exact_match_carries_source_error(self):
        record = classify_record(
            make_record(ASSERTED, asserted_index=0), make_page(source_error=True)
        )
        assert record.debug.error_kind is None
        assert record.debug.source_error is True

    def test_fabricated_mention_is_triple_identification(self):
        record = classify_record(
            make_record(ASSERTED, asserted_index=None), make_page()
        )
        assert record.debug.error_kind is ErrorKind.TRIPLE_IDENTIFICATION

    def test_span_corruption_is_triple_identification(self):
        wrong = Triple("/m/1", "t/t/p", StringValue("Mapother"))
        record = classify_record(
            make_record(wrong, asserted_index=0, span_corrupted=True), make_page()
        )
        assert record.debug.error_kind is ErrorKind.TRIPLE_IDENTIFICATION

    def test_slot_mismatch_is_triple_identification(self):
        wrong = Triple("/m/1", "t/t/q", EntityRef("/m/2"))
        record = classify_record(
            make_record(wrong, asserted_index=0, slot_mismatch=True), make_page()
        )
        assert record.debug.error_kind is ErrorKind.TRIPLE_IDENTIFICATION

    def test_predicate_change_is_predicate_linkage(self):
        wrong = Triple("/m/1", "t/t/other", EntityRef("/m/2"))
        record = classify_record(make_record(wrong, asserted_index=0), make_page())
        assert record.debug.error_kind is ErrorKind.PREDICATE_LINKAGE

    def test_wrong_entity_is_entity_linkage(self):
        wrong = Triple("/m/1", "t/t/p", EntityRef("/m/999"))
        record = classify_record(make_record(wrong, asserted_index=0), make_page())
        assert record.debug.error_kind is ErrorKind.ENTITY_LINKAGE

    def test_string_fallback_is_entity_linkage(self):
        wrong = Triple("/m/1", "t/t/p", StringValue("Some Surface"))
        record = classify_record(make_record(wrong, asserted_index=0), make_page())
        assert record.debug.error_kind is ErrorKind.ENTITY_LINKAGE

    def test_wrong_subject_is_entity_linkage(self):
        wrong = Triple("/m/777", "t/t/p", EntityRef("/m/2"))
        record = classify_record(make_record(wrong, asserted_index=0), make_page())
        assert record.debug.error_kind is ErrorKind.ENTITY_LINKAGE

    def test_error_implies_no_source_error_attribution(self):
        wrong = Triple("/m/1", "t/t/p", EntityRef("/m/999"))
        record = classify_record(
            make_record(wrong, asserted_index=0), make_page(source_error=True)
        )
        assert record.debug.source_error is False

    def test_stripped_debug_rejected(self):
        record = replace(make_record(ASSERTED, asserted_index=0), debug=None)
        with pytest.raises(ExtractionError):
            oracle.classify_record(record, make_page())

    # The oracle's copy discipline, which the parity tests lean on: it
    # never mutates its input, so a kernel run over the same records
    # cannot alias the expectation.
    def test_already_correct_returns_same_object(self):
        # Fresh exact-match records carry the right channel already
        # (error_kind=None, source_error=False): no copies on this path.
        fresh = make_record(ASSERTED, asserted_index=0)
        assert oracle.classify_record(fresh, make_page()) is fresh
        # Re-classifying an annotated record is also copy-free.
        annotated = oracle.classify_record(
            make_record(ASSERTED, asserted_index=None), make_page()
        )
        assert annotated.debug.error_kind is ErrorKind.TRIPLE_IDENTIFICATION
        assert oracle.classify_record(annotated, make_page()) is annotated

    def test_changed_classification_returns_new_record(self):
        record = make_record(ASSERTED, asserted_index=None)
        classified = oracle.classify_record(record, make_page())
        assert classified is not record
        assert record.debug.error_kind is None  # the input is untouched


class TestPipeline:
    def test_runs_all_extractors(self, tiny_scenario):
        names = {r.extractor for r in tiny_scenario.records}
        # Wiki-only extractors may be absent if the tiny corpus rendered no
        # wiki TXT pages, but the main families must be present.
        assert {"DOM1", "DOM2", "TXT1"} <= names

    def test_all_records_classified(self, tiny_scenario):
        for record in tiny_scenario.records:
            assert record.debug is not None
            # either clean or a concrete error kind
            assert record.debug.error_kind is None or isinstance(
                record.debug.error_kind, ErrorKind
            )

    def test_by_name(self, tiny_scenario):
        extractor = tiny_scenario.pipeline.by_name("TXT1")
        assert extractor.name == "TXT1"
        with pytest.raises(ExtractionError):
            tiny_scenario.pipeline.by_name("TXT99")

    def test_deterministic_rerun(self, tiny_scenario):
        records = tiny_scenario.pipeline.run(tiny_scenario.corpus)
        assert records == tiny_scenario.records

    def test_matches_the_scalar_oracle(self, tiny_scenario):
        per_page = oracle.extract_records(
            tiny_scenario.pipeline.extractors, tiny_scenario.corpus.pages
        )
        assert [r for records in per_page for r in records] == tiny_scenario.records

    @pytest.mark.parametrize(
        "kwargs", [{"backend": "bogus"}, {"backend": "hybrid", "n_workers": 0}]
    )
    def test_run_stream_validates_at_the_call(self, tiny_scenario, kwargs):
        # Not at the first next(): nothing below iterates the stream.
        with pytest.raises(ConfigError):
            tiny_scenario.pipeline.run_stream([tiny_scenario.corpus.pages], **kwargs)


#: (preset, seed) -> sha256 over ``repr(record)`` of the classified record
#: stream, computed at 50498c8 — the last commit whose ``serial`` backend
#: walked pages through the scalar ``extract_page`` bodies that now live in
#: ``tests/oracle/extract.py``.  They pin the kernels to those bytes
#: independently of the oracle module; never re-bless them to make a change
#: pass.
RECORD_FINGERPRINTS = {
    ("tiny", 0): "ff63dd09f65c5d707c0ac9ab9aaff31451573563ba4cc6c6f018b3b9b1c548eb",
    ("tiny", 1): "063c212ba84ddf00156e70623d8ca7c15a3a5f69580db576764588dde9d00d7c",
    ("tiny", 2): "cfc9402e137dcea18b39e18aa5a4684fe418f96a06d400de569c52db403d6af9",
    ("small", 0): "ca729c80d8bbfdfffa63b04ee5ce14dc9d22d3b131c8fd7dd220beac6adbb6b3",
}
_PRESETS = {"tiny": tiny_config, "small": small_config}


def records_fingerprint(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
    return digest.hexdigest()


@pytest.mark.parallel_backend
class TestFrozenRecordStream:
    @pytest.mark.parametrize("preset,seed", sorted(RECORD_FINGERPRINTS))
    def test_fingerprints_are_the_committed_ones(self, preset, seed):
        config = _PRESETS[preset](seed)
        world = generate_world(config.world, config.seed)
        corpus = generate_corpus(world, config.web, config.seed)
        pipeline = build_extraction_pipeline(config, world)
        expected = RECORD_FINGERPRINTS[preset, seed]
        for backend in EXTRACTION_BACKENDS:
            records = pipeline.run(corpus, backend=backend, n_workers=2)
            assert records_fingerprint(records) == expected, backend


@pytest.mark.parallel_backend
class TestBackends:
    """Serial/parallel parity for the sharded extraction stage."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_parallel_bit_identical_under_both_start_methods(
        self, tiny_scenario, start_method
    ):
        """The resident fleet crosses via the pool initializer, so spawn
        workers (fresh interpreters) must reproduce the serial stream
        exactly, like fork workers do."""
        with ParallelExecutor(max_workers=2, start_method=start_method) as executor:
            records = tiny_scenario.pipeline.run(
                tiny_scenario.corpus, executor=executor
            )
        assert records == tiny_scenario.records

    def test_unknown_backend_rejected(self, tiny_scenario):
        with pytest.raises(ConfigError):
            tiny_scenario.pipeline.run(tiny_scenario.corpus, backend="gpu")

    def test_batched_bit_identical_to_serial(self, tiny_scenario):
        # The other in-process spelling: same executor, same kernels.
        batched = tiny_scenario.pipeline.run(tiny_scenario.corpus, backend="batched")
        assert batched == tiny_scenario.records

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_hybrid_bit_identical_at_any_worker_count(
        self, tiny_scenario, n_workers, start_method
    ):
        """Synthesis inside parallel shards: bitwise-identical to the
        serial stream at every worker count under both start methods
        (the kernels reseed per page, so sharding cannot shift draws)."""
        with ParallelExecutor(
            max_workers=n_workers, start_method=start_method
        ) as executor:
            records = tiny_scenario.pipeline.run(
                tiny_scenario.corpus, backend="hybrid", executor=executor
            )
        assert records == tiny_scenario.records

    def test_caller_managed_executor_reused_and_counted(self, tiny_scenario):
        with ParallelExecutor(max_workers=2) as executor:
            first = tiny_scenario.pipeline.run(
                tiny_scenario.corpus, executor=executor
            )
            second = tiny_scenario.pipeline.run(
                tiny_scenario.corpus, executor=executor
            )
            assert first == second == tiny_scenario.records

    @pytest.mark.parametrize("backend", ["serial", "hybrid"])
    def test_page_order_shuffle_invariance(self, tiny_scenario, backend):
        """Per-page output is insensitive to corpus page order: every noisy
        draw derives from (seed, extractor, url), so shuffling pages only
        permutes whole per-page record blocks."""
        import copy

        import numpy as np

        corpus = tiny_scenario.corpus
        shuffled = copy.copy(corpus)
        order = np.random.default_rng(99).permutation(len(corpus.pages))
        shuffled.pages = [corpus.pages[i] for i in order]

        kwargs = {"n_workers": 2} if backend == "hybrid" else {}
        records = tiny_scenario.pipeline.run(shuffled, backend=backend, **kwargs)

        def by_page(record_list):
            grouped = {}
            for record in record_list:
                grouped.setdefault(record.url, []).append(record)
            return grouped

        grouped = by_page(tiny_scenario.records)
        assert by_page(records) == grouped
        # ...and the stream is the shuffled page order, page-major.
        expected = [
            record
            for page in shuffled.pages
            for record in grouped.get(page.url, [])
        ]
        assert records == expected


@pytest.fixture(scope="module")
def scenario_cache(tmp_path_factory, tiny_scenario):
    """A scenario artifact cache holding ``tiny_scenario``'s worldgen bundle."""
    config = tiny_scenario.config
    cache_dir = tmp_path_factory.mktemp("scenario-cache")
    *_bundle, status = setup_worldgen(config.seed, config.world, config.web, cache_dir)
    assert status == "miss"
    return cache_dir


def _cache_hit_pages(tiny_scenario, cache_dir) -> LazyPageList:
    config = tiny_scenario.config
    _world, _freebase, corpus, status = setup_worldgen(
        config.seed, config.world, config.web, cache_dir
    )
    assert status == "hit"
    assert isinstance(corpus.pages, LazyPageList)
    return corpus


@pytest.mark.parallel_backend
class TestStoredPages:
    """An artifact-backed chunk crosses as its stored page bytes: each shard
    decodes its own pages and the parent's ``LazyPageList`` decodes none."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pooled_hit_ships_stored_pages_and_decodes_none(
        self, tiny_scenario, scenario_cache, start_method, monkeypatch
    ):
        corpus = _cache_hit_pages(tiny_scenario, scenario_cache)
        submitted = []
        submit = executors.ProcessPoolExecutor.submit

        def spy(pool, fn, *args, **kwargs):
            submitted.append(args)
            return submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(executors.ProcessPoolExecutor, "submit", spy)
        with ParallelExecutor(max_workers=2, start_method=start_method) as executor:
            records = tiny_scenario.pipeline.run(corpus, executor=executor)
        assert records == tiny_scenario.records
        assert corpus.pages._pages == [None] * len(corpus.pages)
        assert submitted, "no shard tasks were dispatched"
        for _spec_bytes, shard in submitted:
            types = scan_payload_types(shard)
            assert StoredPage in types
            assert WebPage not in types

    def test_in_process_hit_decodes_in_the_shard_too(
        self, tiny_scenario, scenario_cache
    ):
        corpus = _cache_hit_pages(tiny_scenario, scenario_cache)
        records = tiny_scenario.pipeline.run(corpus, executor=SerialExecutor())
        assert records == tiny_scenario.records
        assert corpus.pages._pages == [None] * len(corpus.pages)
