"""Out-of-core claim matrix: claim-view parity and the column store.

Two contracts pin the whole `web` tier to the record-path semantics:

1. **Claim-view parity** — ``FusionInput`` (the only production code
   that lays claims out) over a store fed any chunking of the records
   builds a ``ColumnarClaims`` equal field-for-field to the reference layout
   ``tests.oracle.columns.columns_from_items`` spells out from the dict
   views.  Every downstream backend-parity guarantee rides on this.
2. **Mapped == in-memory** — a ``MappedColumnarClaims`` re-opened from
   the published store is numerically identical to the arrays it was
   built from; the mmap layer is a storage format, never a numeric
   change.  Plus the lifecycle half: ``close()`` releases the file
   descriptors.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.artifacts import prune_cache
from repro.datasets.scenario import label_gold
from repro.endtoend import PIPELINE_METHODS, make_fuser
from repro.extract.records import ExtractionRecord, RecordTables, records_to_wire
from repro.fusion.base import FusionConfig
from repro.fusion.matrix import ClaimAccumulator, MappedColumnarClaims, persist_columns
from repro.fusion.observations import FusionInput
from repro.fusion.provenance import Granularity
from repro.kb.triples import DataItem, Triple
from repro.kb.values import StringValue
from tests.oracle.columns import (
    DictClaims,
    assert_columns_equal,
    record_claim_ids,
    reference_columns,
)

GRANULARITIES = (
    Granularity.EXTRACTOR_SITE,
    Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN,
)


def _chunks(records, size):
    return [records[i : i + size] for i in range(0, len(records), size)]


def _accumulate(records, chunk_size):
    """The claim view of a store the records were appended to in chunks."""
    return FusionInput(RecordTables(map(records_to_wire, _chunks(records, chunk_size))))


class TestClaimView:
    @pytest.mark.parametrize("chunk_size", [1, 13, None])
    def test_one_input_builds_every_granularity(self, tiny_scenario, chunk_size):
        """The layout is granularity-free: one store of the records, any
        chunking, serves all six flattenings, each built once."""
        records = list(tiny_scenario.records)
        fusion_input = _accumulate(records, chunk_size or len(records))
        assert len(fusion_input.records) == len(records)
        assert fusion_input.unique_triples() == sorted(
            {record.triple for record in records}
        )
        for granularity in Granularity:
            matrix, expected = reference_columns(records, granularity)
            built = fusion_input.claims(granularity)
            assert_columns_equal(built, expected)
            # Row-level outputs, by their definitions: the views' nesting
            # order and the rank in the global canonical-string order.
            assert [
                built.triples[r] for r in fusion_input.arrival_rows().tolist()
            ] == [triple for triple_map in matrix.items.values() for triple in triple_map]
            assert [
                built.triples[r] for r in np.argsort(built.canonical_rank()).tolist()
            ] == sorted(built.triples, key=lambda triple: triple.canonical())
            assert fusion_input.claims(granularity) is built

    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_record_claims_is_the_per_record_claim_lookup(self, tiny_scenario, granularity):
        """Each record's claim id comes off the store's codes, equal to
        looking its row and provenance key up in the built columns."""
        records = list(tiny_scenario.records)
        fusion_input = _accumulate(records, 97)
        cols = fusion_input.claims(granularity)
        assert fusion_input.record_claims(cols).tolist() == record_claim_ids(records, cols)

    def test_chunks_added_after_a_build_are_folded_in(self, tiny_scenario):
        """The store grows after a read: its columns, its triple support
        and the input's layout and claims all reflect the later table."""
        records = list(tiny_scenario.records)
        granularity = Granularity.EXTRACTOR_SITE
        store = RecordTables([records_to_wire(records[:100])])
        fusion_input = FusionInput(store)
        partial = fusion_input.claims(granularity)
        read = store.columns, store.triple_support, fusion_input.unique_texts()
        store.add_table(records_to_wire(records[100:]))
        assert partial.n_rows < fusion_input.claims(granularity).n_rows
        assert_columns_equal(
            fusion_input.claims(granularity), reference_columns(records, granularity)[1]
        )
        whole = RecordTables.of(records)
        assert len(read[0].codes) == 100 < len(store.columns.codes) == len(records)
        assert store.columns.strings == whole.columns.strings
        assert store.columns.triples == whole.columns.triples
        for column, want in zip(store.columns[2:], whole.columns[2:], strict=True):
            assert column.dtype == want.dtype and np.array_equal(column, want)
        assert len(read[1]) < len(store.triple_support)
        assert list(store.triple_support.items()) == list(whole.triple_support.items())
        assert len(read[2]) < len(fusion_input.unique_texts())
        assert fusion_input.unique_texts() == sorted(whole.columns.triples)

    def test_claims_follow_a_growing_store(self, tiny_scenario, tiny_scenario_alt_seed):
        """A ``claims(g)`` read before the store grows is not served
        after it: the columns, the texts and a fresh view agree."""
        first, second = tiny_scenario.records.columns, tiny_scenario_alt_seed.records.columns
        granularity = Granularity.EXTRACTOR_URL
        store = RecordTables([first])
        fusion_input = FusionInput(store)
        before = fusion_input.claims(granularity)
        store.add_table(second)
        fresh = FusionInput(RecordTables([first, second]))
        grown = fusion_input.claims(granularity)
        assert grown.n_claims > before.n_claims
        assert_columns_equal(grown, fresh.claims(granularity))
        assert fusion_input.unique_texts() == fresh.unique_texts()
        assert fusion_input.claims(granularity) is grown

    def test_fusion_input_folds_its_records_once(self, tiny_scenario):
        """A granularity sweep (Fig. 10, the method ladder) re-fuses the
        same extractions: every granularity after the first must come out
        of the shared layout, not a second pass over the records."""

        class CountingList(list):
            iterations = 0

            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        records = CountingList(tiny_scenario.records)
        fusion_input = FusionInput(records)
        fusion_input.unique_triples()
        for granularity in (
            Granularity.EXTRACTOR_URL,
            Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN,
        ):
            cols = fusion_input.claims(granularity)
            assert_columns_equal(
                cols, reference_columns(tiny_scenario.records, granularity)[1]
            )
        assert records.iterations == 1

    def test_record_tables_fold_like_their_records(self, tiny_scenario):
        """A scenario's record tables fold, undecoded, to the columns and
        arrival order of the decoded record list."""
        from_tables = FusionInput(tiny_scenario.records)
        from_list = FusionInput(list(tiny_scenario.records))
        for granularity in GRANULARITIES:
            assert_columns_equal(from_tables.claims(granularity), from_list.claims(granularity))
        assert np.array_equal(from_tables.arrival_rows(), from_list.arrival_rows())
        assert from_tables.unique_triples() == from_list.unique_triples()

    def test_gold_is_keyed_by_the_folds_texts(self, tiny_scenario):
        """The gold labels key each triple by its canonical text, in the
        fold's sorted text order; a fresh fold's texts are the decoded
        records' triples, and its triples are those texts parsed."""
        unique = FusionInput(tiny_scenario.records).unique_texts()
        assert list(tiny_scenario.gold) == [text for text in unique if text in tiny_scenario.gold]
        decoded = {record.triple for record in tiny_scenario.records}
        assert unique == sorted(triple.canonical() for triple in decoded)
        assert FusionInput(tiny_scenario.records).unique_triples() == sorted(decoded)

    def test_gold_labels_read_the_record_tables(self, tiny_scenario):
        freebase, records = tiny_scenario.freebase, tiny_scenario.records
        from_tables = label_gold(freebase, records)
        assert list(from_tables.items()) == list(label_gold(freebase, list(records)).items())
        assert list(from_tables.items()) == list(tiny_scenario.gold.items())

    def test_build_never_compares_triples_or_items(self, tiny_scenario, monkeypatch):
        """Every sort on the build / labelling path keys on precomputed
        strings; a Python-level ``__lt__`` per comparison is what made the
        build cost more than the fuses."""
        calls = []
        for cls in (Triple, DataItem):
            original = cls.__lt__
            monkeypatch.setattr(
                cls,
                "__lt__",
                lambda self, other, original=original: (
                    calls.append(type(self).__name__) or original(self, other)
                ),
            )
        assert Triple("a", "p", StringValue("x")) < Triple("b", "p", StringValue("x"))
        assert calls == ["Triple"]  # the counter counts
        del calls[:]

        # The record tables as a scenario holds them, and a decoded list.
        for records in (tiny_scenario.records, list(tiny_scenario.records)):
            fusion_input = FusionInput(records)
            cols = fusion_input.claims(Granularity.EXTRACTOR_SITE_PREDICATE)
            fusion_input.arrival_rows()
            cols.canonical_rank()
            fusion_input.unique_triples()
            FusionInput.from_columns(cols).unique_triples()
            label_gold(tiny_scenario.freebase, records)
        assert calls == []

    def test_layout_orders_items_field_wise_across_string_prefixes(self):
        """Item order is field-wise — subject, then predicate — where one
        subject (and one predicate) is a string prefix of another, so the
        canonical-string order disagrees (``"|"`` sorts after ``"2"``)."""
        texts = [
            ("/m/12", "p2", "x"),
            ("/m/1", "p2", "y"),
            ("/m/12", "p", "x"),
            ("/m/1", "p", "x"),
            ("/m/1", "p2", "x"),
        ]
        records = [
            ExtractionRecord(
                Triple(subject, predicate, StringValue(obj)),
                extractor="E",
                url=f"http://s/{n}",
                site="s",
                content_type="TXT",
            )
            for n, (subject, predicate, obj) in enumerate(texts)
        ]
        for granularity in Granularity:
            built = _accumulate(records, 2).claims(granularity)
            _, expected = reference_columns(records, granularity)
            assert_columns_equal(built, expected)
        assert list(built.items) == [
            DataItem("/m/1", "p"),
            DataItem("/m/1", "p2"),
            DataItem("/m/12", "p"),
            DataItem("/m/12", "p2"),
        ]
        assert [t.canonical() for t in built.triples] == [
            "/m/1|p|string:x",
            "/m/1|p2|string:x",
            "/m/1|p2|string:y",
            "/m/12|p|string:x",
            "/m/12|p2|string:x",
        ]

    def test_empty_chunks_are_noops(self):
        store = RecordTables([records_to_wire([])])
        cols = FusionInput(store).claims(Granularity.EXTRACTOR_SITE)
        assert len(store) == 0 and cols.n_rows == 0 and cols.n_claims == 0

    def test_the_kfbench_shim_keeps_its_names(self, tiny_scenario):
        """``benchmarks/kfbench`` spells a claim view
        ``ClaimAccumulator(g, records=None)`` + ``add_records`` /
        ``build(g=None)`` / ``unique_triples`` / ``release``: the same
        columns as the fusion input over the same records."""
        records = list(tiny_scenario.records)
        granularity = Granularity.EXTRACTOR_SITE
        accumulator = ClaimAccumulator(granularity)
        for chunk in _chunks(records, 50):
            accumulator.add_records(chunk)
        expected = FusionInput(tiny_scenario.records)
        assert_columns_equal(accumulator.build(), expected.claims(granularity))
        assert_columns_equal(
            accumulator.build(Granularity.URL_ONLY), expected.claims(Granularity.URL_ONLY)
        )
        assert accumulator.unique_triples() == expected.unique_triples()
        over = ClaimAccumulator(granularity, tiny_scenario.records)
        assert_columns_equal(over.build(), expected.claims(granularity))
        accumulator.release()
        assert accumulator.build().n_rows == accumulator.build().n_claims == 0


@pytest.fixture
def tiny_columns(tiny_scenario):
    return FusionInput(tiny_scenario.records).claims(Granularity.EXTRACTOR_SITE)


class TestMappedColumns:
    def test_persist_roundtrip_is_bitwise(self, tiny_columns, tmp_path):
        mapped = persist_columns(tiny_columns, tmp_path)
        try:
            assert_columns_equal(mapped, tiny_columns)
        finally:
            mapped.close()

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/proc/self/fd is Linux-only"
    )
    def test_close_releases_file_descriptors(self, tiny_columns, tmp_path):
        before = len(os.listdir("/proc/self/fd"))
        mapped = MappedColumnarClaims(persist_columns(tiny_columns, tmp_path).handle)
        assert len(os.listdir("/proc/self/fd")) > before
        mapped.close()
        assert len(os.listdir("/proc/self/fd")) == before
        mapped.close()  # idempotent

    def test_publish_leaves_no_tmp_dirs(self, tiny_columns, tmp_path):
        persist_columns(tiny_columns, tmp_path).close()
        leftovers = [p for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert leftovers == []

    def test_publish_is_idempotent(self, tiny_columns, tmp_path):
        first = persist_columns(tiny_columns, tmp_path)
        second = persist_columns(tiny_columns, tmp_path)
        try:
            assert first.handle == second.handle
            stores = [p for p in tmp_path.iterdir() if p.name.startswith("columns-")]
            assert len(stores) == 1
        finally:
            first.close()
            second.close()


class TestPruneCache:
    def test_dry_run_reports_and_keeps(self, tiny_columns, tmp_path):
        handle = persist_columns(tiny_columns, tmp_path).handle
        tmp_leftover = tmp_path / "columns-deadbeef.tmp-123"
        tmp_leftover.mkdir()
        broken = tmp_path / "columns-0000000000000000000000ff"
        broken.mkdir()  # no meta.json at all
        stale = prune_cache(tmp_path)
        assert stale == sorted([broken, tmp_leftover])
        assert tmp_leftover.exists() and broken.exists()  # dry run
        assert handle.path_of("meta.json").exists()

    def test_apply_removes_only_stale(self, tiny_columns, tmp_path):
        handle = persist_columns(tiny_columns, tmp_path).handle
        tmp_leftover = tmp_path / "scenario-cafe.tmp-9"
        tmp_leftover.mkdir()
        removed = prune_cache(tmp_path, apply=True)
        assert removed == [tmp_leftover]
        assert not tmp_leftover.exists()
        assert handle.path_of("meta.json").exists()

    def test_stale_code_version(self, tiny_columns, tmp_path, monkeypatch):
        import repro.artifacts as artifacts

        handle = persist_columns(tiny_columns, tmp_path).handle
        monkeypatch.setattr(artifacts, "code_version", lambda: "different")
        assert prune_cache(tmp_path) == [handle.path_of("meta.json").parent]

    def test_missing_dir_is_empty(self, tmp_path):
        assert prune_cache(tmp_path / "nope") == []


class TestColumnarAdapters:
    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_column_built_matrix_equals_record_built(self, tiny_scenario, granularity):
        reference, expected = reference_columns(tiny_scenario.records, granularity)
        cols = FusionInput(tiny_scenario.records).claims(granularity)
        assert_columns_equal(cols, expected)
        assert FusionInput.from_columns(cols).claims(granularity) is cols
        assert reference.n_claims() == cols.n_claims
        # The dict views read back out of the columns are the records' own.
        views = DictClaims(granularity, columns=cols)
        assert views.items == reference.items
        assert views.prov_triples == reference.prov_triples

    def test_record_views_keep_arrival_order(self, tiny_scenario):
        """The ``serial`` backend (like the oracle) emits in ``items``
        order, so views derived from records must not come out
        canonically sorted."""
        records = list(tiny_scenario.records)
        views = DictClaims(Granularity.EXTRACTOR_SITE, records=records)
        arrival = list(dict.fromkeys(record.triple.data_item for record in records))
        assert list(views.items) == arrival
        assert arrival != sorted(arrival)

    def test_arrival_rows_is_the_view_nesting_order(self, tiny_scenario, tiny_columns):
        """The one row permutation ``serial`` carries instead of the dict
        views: item first arrival, then triple first arrival."""
        fusion_input = FusionInput(tiny_scenario.records)
        rows = fusion_input.arrival_rows()
        cols = fusion_input.claims(Granularity.EXTRACTOR_SITE)
        assert sorted(rows.tolist()) == list(range(cols.n_rows))
        views = DictClaims(Granularity.EXTRACTOR_SITE, records=tiny_scenario.records)
        assert [cols.triples[r] for r in rows.tolist()] == [
            triple for triple_map in views.items.values() for triple in triple_map
        ]
        # Bare columns nest in row order already: no permutation to carry.
        assert FusionInput.from_columns(tiny_columns).arrival_rows() is None
        assert FusionInput([]).arrival_rows().tolist() == []

    def test_fusion_input_serves_one_granularity(self, tiny_columns):
        fusion_input = FusionInput.from_columns(tiny_columns)
        assert fusion_input.claims(Granularity.EXTRACTOR_SITE) is tiny_columns
        with pytest.raises(ValueError, match="re-extract"):
            fusion_input.claims(Granularity.URL_ONLY)
        assert fusion_input.unique_triples() == sorted(tiny_columns.triples)

    @pytest.mark.parametrize("method", PIPELINE_METHODS)
    def test_serial_over_columns_equals_serial_over_records(
        self, tiny_scenario, method
    ):
        """``serial`` over bare columns equals ``serial`` over the records
        they were built from as dicts (only the emission order differs:
        canonical rows vs record arrival)."""
        gold = tiny_scenario.gold
        fuser = make_fuser(method, FusionConfig(backend="serial"), gold)
        from_records = FusionInput(tiny_scenario.records)
        cols = from_records.claims(fuser.config.granularity)
        expected = fuser.fuse(from_records)
        actual = fuser.fuse(FusionInput.from_columns(cols))
        assert actual.probabilities == expected.probabilities
        assert actual.accuracies == expected.accuracies
        assert actual.unpredicted == expected.unpredicted
        assert actual.rounds == expected.rounds
        assert actual.diagnostics == expected.diagnostics
