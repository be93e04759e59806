"""Out-of-core claim matrix: accumulator parity and the column store.

Two contracts pin the whole `web` tier to the record-path semantics:

1. **Accumulator parity** — ``ClaimAccumulator`` (the one production
   column builder) fed any chunking of the records builds a
   ``ColumnarClaims`` equal field-for-field to the reference layout
   ``tests.oracle.columns.columns_from_items`` spells out from the dict
   views.  Every downstream backend-parity guarantee rides on this.
2. **Mapped == in-memory** — a ``MappedColumnarClaims`` re-opened from
   the published store is numerically identical to the arrays it was
   built from; the mmap layer is a storage format, never a numeric
   change.  Plus the lifecycle half: pickling ships only the handle,
   ``close()`` releases the file descriptors, and a store whose files
   drifted is a loader *miss*, not a wrong answer.
"""

from __future__ import annotations

import os
import pickle
import sys

import numpy as np
import pytest

from repro.artifacts import (
    ColumnHandle,
    open_column_store,
    prune_cache,
    save_column_store,
)
from repro.datasets.scenario import label_gold
from repro.endtoend import PIPELINE_METHODS, make_fuser
from repro.fusion.base import FusionConfig
from repro.fusion.matrix import MappedColumnarClaims, persist_columns
from repro.fusion.observations import (
    ClaimAccumulator,
    ClaimMatrix,
    FusionInput,
)
from repro.fusion.provenance import Granularity
from repro.kb.triples import DataItem, Triple
from repro.kb.values import StringValue
from tests.oracle.columns import DictClaims, assert_columns_equal, reference_columns

GRANULARITIES = (
    Granularity.EXTRACTOR_SITE,
    Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN,
)


def _chunks(records, size):
    return [records[i : i + size] for i in range(0, len(records), size)]


def _accumulate(records, granularity, chunk_size):
    accumulator = ClaimAccumulator(granularity)
    for chunk in _chunks(records, chunk_size):
        accumulator.add_records(chunk)
    return accumulator


class TestClaimAccumulator:
    @pytest.mark.parametrize("chunk_size", [1, 13, None])
    def test_one_accumulator_builds_every_granularity(self, tiny_scenario, chunk_size):
        """Accumulation is granularity-free: one fold of the records, any
        chunking, serves all six flattenings."""
        records = tiny_scenario.records
        accumulator = _accumulate(
            records, Granularity.EXTRACTOR_SITE, chunk_size or len(records)
        )
        assert accumulator.n_records == len(records)
        assert accumulator.unique_triples() == sorted(
            {record.triple for record in records}
        )
        for granularity in Granularity:
            matrix, expected = reference_columns(records, granularity)
            built = accumulator.build(granularity)
            assert_columns_equal(built, expected)
            # Row-level outputs, by their definitions: the views' nesting
            # order and the rank in the global canonical-string order.
            assert [
                built.triples[r] for r in accumulator.arrival_rows(built).tolist()
            ] == [triple for triple_map in matrix.items.values() for triple in triple_map]
            assert [
                built.triples[r] for r in np.argsort(built.canonical_rank()).tolist()
            ] == sorted(built.triples, key=lambda triple: triple.canonical())
        assert_columns_equal(
            accumulator.build(), accumulator.build(Granularity.EXTRACTOR_SITE)
        )

    def test_chunks_added_after_a_build_are_folded_in(self, tiny_scenario):
        records = tiny_scenario.records
        granularity = Granularity.EXTRACTOR_SITE
        accumulator = ClaimAccumulator(granularity)
        accumulator.add_records(records[:100])
        partial = accumulator.build()
        accumulator.add_records(records[100:])
        assert partial.n_rows < accumulator.n_rows
        assert_columns_equal(accumulator.build(), reference_columns(records, granularity)[1])

    def test_fusion_input_folds_its_records_once(self, tiny_scenario):
        """A granularity sweep (Fig. 10, the method ladder) re-fuses the
        same extractions: every granularity after the first must come out
        of the shared accumulator, not a second pass over the records."""

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
            cols = fusion_input.claims(granularity).columnar()
            assert_columns_equal(
                cols, reference_columns(tiny_scenario.records, granularity)[1]
            )
        assert records.iterations == 1

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

        records = tiny_scenario.records
        fusion_input = FusionInput(records)
        matrix = fusion_input.claims(Granularity.EXTRACTOR_SITE_PREDICATE)
        cols = matrix.columnar()
        matrix.arrival_rows()
        cols.canonical_rank()
        fusion_input.unique_triples()
        FusionInput.from_columns(cols).unique_triples()
        label_gold(tiny_scenario.freebase, records)
        assert calls == []

    def test_pickle_leaves_out_the_parent_side_caches(self, tiny_scenario):
        """Workers read neither canonical-order cache, so the pickled
        columns (what a pool install ships) are the same bytes before and
        after the parent builds them — reinstalling stays a no-op — and
        an unpickled copy rebuilds them to equal arrays."""
        cols = FusionInput(tiny_scenario.records).claims(Granularity.EXTRACTOR_SITE).columnar()
        before = pickle.dumps(cols)
        order = cols.canonical_prov_order()
        assert pickle.dumps(cols) == before
        copy = pickle.loads(before)
        assert copy._canonical_rank is None and copy._canonical_prov_order is None
        assert np.array_equal(copy.canonical_rank(), cols.canonical_rank())
        assert np.array_equal(copy.canonical_prov_order(), order)
        assert_columns_equal(copy, cols)

    def test_release_drops_state(self, tiny_scenario):
        accumulator = _accumulate(
            tiny_scenario.records, Granularity.EXTRACTOR_SITE, 50
        )
        accumulator.release()
        assert accumulator.n_rows == 0
        assert accumulator.build().n_claims == 0

    def test_empty_chunks_are_noops(self):
        accumulator = ClaimAccumulator(Granularity.EXTRACTOR_SITE)
        accumulator.add_records([])
        cols = accumulator.build()
        assert cols.n_rows == 0 and cols.n_claims == 0


@pytest.fixture
def tiny_columns(tiny_scenario):
    return ClaimMatrix.build(
        tiny_scenario.records, Granularity.EXTRACTOR_SITE
    ).columnar()


class TestMappedColumns:
    def test_persist_roundtrip_is_bitwise(self, tiny_columns, tmp_path):
        mapped = persist_columns(tiny_columns, tmp_path)
        try:
            assert_columns_equal(mapped, tiny_columns)
            assert mapped.objects_loaded()  # adopted, no re-unpickle
        finally:
            mapped.close()

    def test_reopened_store_loads_objects_lazily(self, tiny_columns, tmp_path):
        handle = persist_columns(tiny_columns, tmp_path).handle
        reopened = MappedColumnarClaims(handle)
        try:
            assert not reopened.objects_loaded()
            # Numeric access must not force objects.pkl...
            assert reopened.n_claims == tiny_columns.n_claims
            assert not reopened.objects_loaded()
            # ...while object access loads them, once, equal.
            assert list(reopened.triples) == list(tiny_columns.triples)
            assert reopened.objects_loaded()
        finally:
            reopened.close()

    def test_pickle_ships_only_the_handle(self, tiny_columns, tmp_path):
        mapped = persist_columns(tiny_columns, tmp_path)
        try:
            blob = pickle.dumps(mapped)
            assert len(blob) < 2048
            clone = pickle.loads(blob)
            try:
                assert not clone.objects_loaded()
                assert_columns_equal(clone, tiny_columns)
            finally:
                clone.close()
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
        assert mapped.closed
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


class TestColumnStoreLoader:
    def _publish(self, tiny_columns, tmp_path) -> ColumnHandle:
        mapped = persist_columns(tiny_columns, tmp_path)
        mapped.close()
        return mapped.handle

    def test_open_hit(self, tiny_columns, tmp_path):
        handle = self._publish(tiny_columns, tmp_path)
        reopened = open_column_store(handle.directory, verify=True)
        assert reopened == handle

    def test_miss_on_size_drift(self, tiny_columns, tmp_path):
        handle = self._publish(tiny_columns, tmp_path)
        path = handle.path_of("row_ptr.npy")
        path.write_bytes(path.read_bytes() + b"\0")
        assert open_column_store(handle.directory) is None

    def test_miss_on_checksum_drift_only_with_verify(self, tiny_columns, tmp_path):
        handle = self._publish(tiny_columns, tmp_path)
        path = handle.path_of("objects.pkl")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # same size, different content
        path.write_bytes(bytes(blob))
        assert open_column_store(handle.directory) is not None
        assert open_column_store(handle.directory, verify=True) is None

    def test_miss_on_unreadable_meta(self, tiny_columns, tmp_path):
        handle = self._publish(tiny_columns, tmp_path)
        handle.path_of("meta.json").write_text("not json")
        assert open_column_store(handle.directory) is None


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
        assert open_column_store(handle.directory) is not None

    def test_apply_removes_only_stale(self, tiny_columns, tmp_path):
        handle = persist_columns(tiny_columns, tmp_path).handle
        tmp_leftover = tmp_path / "scenario-cafe.tmp-9"
        tmp_leftover.mkdir()
        removed = prune_cache(tmp_path, apply=True)
        assert removed == [tmp_leftover]
        assert not tmp_leftover.exists()
        assert open_column_store(handle.directory) is not None

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
        cols = ClaimMatrix.build(tiny_scenario.records, granularity).columnar()
        assert_columns_equal(cols, expected)
        from_columns = ClaimMatrix(granularity, columns=cols)
        assert from_columns.columnar() is cols
        assert from_columns.n_claims() == reference.n_claims() == cols.n_claims
        # The dict views read back out of the columns are the records' own.
        views = DictClaims(granularity, columns=cols)
        assert views.items == reference.items
        assert views.prov_triples == reference.prov_triples

    def test_matrix_takes_exactly_one_source(self, tiny_scenario, tiny_columns):
        with pytest.raises(ValueError, match="exactly one"):
            ClaimMatrix(Granularity.EXTRACTOR_SITE)
        with pytest.raises(ValueError, match="exactly one"):
            ClaimMatrix(
                Granularity.EXTRACTOR_SITE,
                records=tiny_scenario.records,
                columns=tiny_columns,
            )

    def test_record_views_keep_arrival_order(self, tiny_scenario):
        """The ``serial`` backend (like the oracle) emits in ``items``
        order, so views derived from records must not come out
        canonically sorted."""
        records = tiny_scenario.records
        views = DictClaims(Granularity.EXTRACTOR_SITE, records=records)
        arrival = list(dict.fromkeys(record.triple.data_item for record in records))
        assert list(views.items) == arrival
        assert arrival != sorted(arrival)

    def test_arrival_rows_is_the_view_nesting_order(self, tiny_scenario, tiny_columns):
        """The one row permutation ``serial`` carries instead of the dict
        views: item first arrival, then triple first arrival."""
        matrix = ClaimMatrix.build(tiny_scenario.records, Granularity.EXTRACTOR_SITE)
        rows = matrix.arrival_rows()
        cols = matrix.columnar()
        assert sorted(rows.tolist()) == list(range(cols.n_rows))
        views = DictClaims(Granularity.EXTRACTOR_SITE, records=tiny_scenario.records)
        assert [cols.triples[r] for r in rows.tolist()] == [
            triple for triple_map in views.items.values() for triple in triple_map
        ]
        # Bare columns nest in row order already: no permutation to carry.
        from_columns = ClaimMatrix(Granularity.EXTRACTOR_SITE, columns=tiny_columns)
        assert from_columns.arrival_rows() is None
        empty = ClaimMatrix.build([], Granularity.EXTRACTOR_SITE)
        assert empty.arrival_rows().tolist() == []

    def test_fusion_input_serves_one_granularity(self, tiny_columns):
        fusion_input = FusionInput.from_columns(tiny_columns)
        assert (
            fusion_input.claims(Granularity.EXTRACTOR_SITE).columnar()
            is tiny_columns
        )
        with pytest.raises(ValueError, match="re-extract"):
            fusion_input.claims(Granularity.URL_ONLY)
        assert len(fusion_input) == tiny_columns.n_claims
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
        cols = from_records.claims(fuser.config.granularity).columnar()
        expected = fuser.fuse(from_records)
        actual = fuser.fuse(FusionInput.from_columns(cols))
        assert actual.probabilities == expected.probabilities
        assert actual.accuracies == expected.accuracies
        assert actual.unpredicted == expected.unpredicted
        assert actual.rounds == expected.rounds
        assert actual.diagnostics == expected.diagnostics
