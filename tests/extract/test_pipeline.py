"""Unit tests for the extraction pipeline and error classification."""

import gc
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts import LazyPageList, StoredPage, setup_worldgen
from repro.datasets import small_config, tiny_config
from repro.datasets.scenario import build_extraction_pipeline
from repro.errors import ConfigError, ExtractionError
from repro.extract.kernels import classify_batch
from repro.endtoend import run_end_to_end
from repro.extract import pipeline as extract_pipeline
from repro.extract import records as records_module
from repro.extract.records import (
    ErrorKind,
    ExtractionDebug,
    ExtractionRecord,
    RecordTables,
    records_to_wire,
)
from repro.kb.triples import Triple
from repro.kb.values import EntityRef, StringValue
from repro.mapreduce import executors
from repro.mapreduce.codec import scan_payload_types
from repro.mapreduce.executors import PIPELINE_MODES
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
        assert list(records) == list(tiny_scenario.records)

    def test_matches_the_scalar_oracle(self, tiny_scenario):
        per_page = oracle.extract_records(
            tiny_scenario.pipeline.extractors, tiny_scenario.corpus.pages
        )
        assert [r for records in per_page for r in records] == list(tiny_scenario.records)

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
        for backend in PIPELINE_MODES:
            records = pipeline.run(corpus, backend=backend, n_workers=2)
            assert records_fingerprint(records) == expected, backend


def _live_records() -> int:
    return sum(isinstance(obj, ExtractionRecord) for obj in gc.get_objects())


class TestRecordTables:
    """A pipeline run hands on record tables: the parent builds no record
    until the scenario's records are iterated, and then decodes the
    committed stream."""

    @pytest.mark.parametrize(
        "backend", ["serial", pytest.param("hybrid", marks=pytest.mark.parallel_backend)]
    )
    def test_records_are_decoded_only_when_iterated(self, backend, monkeypatch):
        decoded = []
        records_from_wire = records_module.records_from_wire

        def spy(table):
            decoded.append(len(table[2]))
            return records_from_wire(table)

        monkeypatch.setattr(records_module, "records_from_wire", spy)
        gc.collect()
        before = _live_records()
        result = run_end_to_end(tiny_config(0), backend=backend, n_workers=2)
        gc.collect()
        assert _live_records() == before
        assert decoded == []
        assert len(result.scenario.records) == result.n_records
        records = list(result.scenario.records)
        assert sum(decoded) == len(records) == result.n_records
        assert records_fingerprint(records) == RECORD_FINGERPRINTS["tiny", 0]

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_extraction_builds_no_record_object(
        self, tiny_scenario, backend, monkeypatch
    ):
        # Synthesis writes rows and classification reads columns, so no
        # record, debug channel or triple exists until the tables are
        # iterated.  The corpus is in memory: a decoded stored page
        # builds its assertions' triples.
        calls = dict.fromkeys(("ExtractionRecord", "ExtractionDebug", "Triple"), 0)
        for cls in (ExtractionRecord, ExtractionDebug, Triple):
            def spy(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                calls[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", spy)
        records = tiny_scenario.pipeline.run(tiny_scenario.corpus, backend=backend)
        assert len(records) > 0
        assert calls == dict.fromkeys(calls, 0)
        decoded = list(records)
        assert calls["ExtractionRecord"] == calls["ExtractionDebug"] == len(decoded)
        assert calls["Triple"] == len({record.triple for record in decoded})
        assert decoded == list(tiny_scenario.records)

    def test_window_tables_are_the_oracle_records_encoded(self, tiny_scenario):
        # The extraction job's per-window output, array for array, so the
        # string and triple tables' first-arrival order is pinned too,
        # not just the decoded stream.
        window = 7
        pages = list(tiny_scenario.corpus.pages)
        extractors = tiny_scenario.pipeline.extractors
        windows = [pages[start : start + window] for start in range(0, len(pages), window)]
        executor = SerialExecutor()
        executor.install_state(extract_pipeline.EXTRACT_FLEET_KEY, tuple(extractors))
        try:
            tables = extract_pipeline._extract_shard(windows)
        finally:
            executor.close()
        assert len(tables) == len(windows) > 1
        for table, pages_of in zip(tables, windows):
            per_page = oracle.extract_records(extractors, pages_of)
            expected = records_to_wire([r for records in per_page for r in records])
            for column, want in zip(table, expected, strict=True):
                if isinstance(want, list):
                    assert column == want
                else:
                    assert column.dtype == want.dtype
                    assert np.array_equal(column, want)
        # The store those windows make equals them appended in order.
        store = RecordTables(tables)
        assert list(store) == list(tiny_scenario.records)

    def test_of_keeps_a_store_and_encodes_a_list_once(self, tiny_scenario, monkeypatch):
        store = tiny_scenario.records
        assert RecordTables.of(store) is store
        records = list(store)
        appended = []
        add_table = RecordTables.add_table

        def spy(self, table):
            appended.append(len(table[2]))
            add_table(self, table)

        monkeypatch.setattr(RecordTables, "add_table", spy)
        encoded = RecordTables.of(records)
        assert appended == [len(records)] and len(encoded) == len(records)
        assert list(encoded) == records


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
        assert list(records) == list(tiny_scenario.records)

    def test_unknown_backend_rejected(self, tiny_scenario):
        with pytest.raises(ConfigError):
            tiny_scenario.pipeline.run(tiny_scenario.corpus, backend="gpu")

    def test_batched_bit_identical_to_serial(self, tiny_scenario):
        # The other in-process spelling: same executor, same kernels.
        batched = tiny_scenario.pipeline.run(tiny_scenario.corpus, backend="batched")
        assert list(batched) == list(tiny_scenario.records)

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
        assert list(records) == list(tiny_scenario.records)

    def test_caller_managed_executor_reused_and_counted(self, tiny_scenario):
        with ParallelExecutor(max_workers=2) as executor:
            first = tiny_scenario.pipeline.run(
                tiny_scenario.corpus, executor=executor
            )
            second = tiny_scenario.pipeline.run(
                tiny_scenario.corpus, executor=executor
            )
            assert list(first) == list(second) == list(tiny_scenario.records)

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
        assert list(records) == expected


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
        assert list(records) == list(tiny_scenario.records)
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
        assert list(records) == list(tiny_scenario.records)
        assert corpus.pages._pages == [None] * len(corpus.pages)


class TestWindowedShard:
    """The shard body decodes, synthesises and classifies its items one
    window of ``_WINDOW_PAGES`` pages at a time (patched to 7 here, so the
    80-page ``tiny`` corpus ends in a 3-page window), under one GC pause."""

    WINDOW = 7

    @pytest.fixture
    def hit_corpus(self, tiny_scenario, scenario_cache, monkeypatch):
        monkeypatch.setattr(extract_pipeline, "_WINDOW_PAGES", self.WINDOW)
        corpus = _cache_hit_pages(tiny_scenario, scenario_cache)
        assert len(corpus.pages) == 80
        return corpus

    def test_synthesis_sees_one_window_at_a_time(
        self, tiny_scenario, hit_corpus, monkeypatch
    ):
        windows = []
        synthesize = extract_pipeline.synthesize_window

        def spy(extractors, pages, *args):
            windows.append([page.url for page in pages])
            return synthesize(extractors, pages, *args)

        monkeypatch.setattr(extract_pipeline, "synthesize_window", spy)
        records = tiny_scenario.pipeline.run(hit_corpus, executor=SerialExecutor())
        assert list(records) == list(tiny_scenario.records)
        assert [len(urls) for urls in windows] == [self.WINDOW] * 11 + [3]
        assert [url for urls in windows for url in urls] == [
            page.url for page in hit_corpus.pages.stored_pages()
        ]

    @pytest.mark.parallel_backend
    def test_pooled_windows_match_the_serial_stream(self, tiny_scenario, hit_corpus):
        with ParallelExecutor(max_workers=2, start_method="fork") as executor:
            records = tiny_scenario.pipeline.run(hit_corpus, executor=executor)
        assert list(records) == list(tiny_scenario.records)

    @pytest.mark.parallel_backend
    def test_pooled_windows_spread_evenly_over_contiguous_shards(
        self, tiny_scenario, hit_corpus, monkeypatch
    ):
        """Ten windows over 2 workers' 8 shards: ``[2, 2, 1, 1, 1, 1, 1, 1]``
        windows per shard, in window order (the ``small`` chunk's shape)."""
        monkeypatch.setattr(extract_pipeline, "_WINDOW_PAGES", 8)
        shards = []
        submit = executors.ProcessPoolExecutor.submit

        def spy(pool, fn, *args):
            if fn is executors._map_shard_worker:
                shards.append([window[0].url for window in args[1]])
            return submit(pool, fn, *args)

        monkeypatch.setattr(executors.ProcessPoolExecutor, "submit", spy)
        with ParallelExecutor(max_workers=2, start_method="fork") as executor:
            records = tiny_scenario.pipeline.run(hit_corpus, executor=executor)
        assert list(records) == list(tiny_scenario.records)
        assert [len(windows) for windows in shards] == [2, 2, 1, 1, 1, 1, 1, 1]
        urls = [page.url for page in hit_corpus.pages.stored_pages()]
        assert [url for windows in shards for url in windows] == urls[::8]

    def test_page_decoding_runs_with_the_collector_paused(
        self, tiny_scenario, hit_corpus, monkeypatch
    ):
        collector_enabled = []
        decode = extract_pipeline.decode_page

        def spy(stored):
            collector_enabled.append(gc.isenabled())
            return decode(stored)

        monkeypatch.setattr(extract_pipeline, "decode_page", spy)
        assert gc.isenabled()
        records = tiny_scenario.pipeline.run(hit_corpus, executor=SerialExecutor())
        assert list(records) == list(tiny_scenario.records)
        assert collector_enabled == [False] * 80
        assert gc.isenabled()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coverage_mask_reads_stored_pages_undecoded(tmp_path, seed):
    """``coverage_mask`` reads only ``url`` / ``category``, so a shard can
    mask its stored pages before decoding any of them."""
    config = tiny_config(seed)
    for expected_status in ("miss", "hit"):
        world, _freebase, corpus, status = setup_worldgen(
            config.seed, config.world, config.web, tmp_path
        )
        assert status == expected_status
    pipeline = build_extraction_pipeline(config, world)
    stored = corpus.pages.stored_pages()
    decoded = list(corpus.pages)
    for extractor in pipeline.extractors:
        assert (
            extractor.coverage_mask(stored) == extractor.coverage_mask(decoded)
        ).all(), extractor.name
