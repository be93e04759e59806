"""Unit tests for claim-matrix construction and its CSR layout."""

import numpy as np
import pytest

from repro.extract.records import ExtractionRecord
from repro.fusion.kernels import popaccu_round
from repro.fusion.observations import FusionInput, ragged_gather
from repro.fusion.provenance import Granularity
from repro.kb.triples import DataItem, Triple
from repro.kb.values import StringValue


def rec(obj, extractor, url, pattern=None):
    return ExtractionRecord(
        triple=Triple("/m/1", "t/t/p", StringValue(obj)),
        extractor=extractor,
        url=url,
        site=url.split("/")[2],
        content_type="TXT",
        pattern=pattern,
    )


class TestClaimMatrix:
    def test_dedup_same_cell(self):
        # Same extractor+url claiming the same triple twice is one claim.
        records = [rec("a", "E1", "http://s.org/p"), rec("a", "E1", "http://s.org/p")]
        matrix = FusionInput(records).claims(Granularity.EXTRACTOR_URL)
        assert matrix.n_claims == 1

    def test_distinct_extractors_distinct_claims(self):
        records = [rec("a", "E1", "http://s.org/p"), rec("a", "E2", "http://s.org/p")]
        matrix = FusionInput(records).claims(Granularity.EXTRACTOR_URL)
        assert matrix.n_claims == 2

    def test_items_grouping(self):
        records = [
            rec("a", "E1", "http://s.org/p"),
            rec("b", "E1", "http://s.org/q"),
        ]
        cols = FusionInput(records).claims(Granularity.EXTRACTOR_URL)
        assert list(cols.items) == [DataItem("/m/1", "t/t/p")]
        assert cols.item_ptr.tolist() == [0, 2]

    def test_prov_triples_unique(self):
        records = [
            rec("a", "E1", "http://s.org/p"),
            rec("a", "E1", "http://s.org/p", pattern="x"),
            rec("b", "E1", "http://s.org/p"),
        ]
        cols = FusionInput(records).claims(Granularity.EXTRACTOR_URL)
        assert list(cols.provenances) == [("E1", "http://s.org/p")]
        assert cols.prov_row_counts().tolist() == [2]

    def test_all_triples_sorted_unique(self):
        records = [
            rec("b", "E1", "http://s.org/p"),
            rec("a", "E1", "http://s.org/q"),
            rec("a", "E2", "http://s.org/p"),
        ]
        triples = list(FusionInput(records).claims(Granularity.EXTRACTOR_URL).triples)
        assert len(triples) == 2
        assert triples == sorted(triples)


class TestFusionInput:
    def test_cache_returns_same_matrix(self):
        fusion_input = FusionInput([rec("a", "E1", "http://s.org/p")])
        a = fusion_input.claims(Granularity.EXTRACTOR_URL)
        b = fusion_input.claims(Granularity.EXTRACTOR_URL)
        assert a is b

    def test_different_granularities_cached_separately(self):
        fusion_input = FusionInput([rec("a", "E1", "http://s.org/p")])
        a = fusion_input.claims(Granularity.EXTRACTOR_URL)
        b = fusion_input.claims(Granularity.EXTRACTOR_SITE)
        assert a is not b

    def test_unique_triples(self):
        fusion_input = FusionInput(
            [rec("a", "E1", "http://s.org/p"), rec("a", "E2", "http://s.org/q")]
        )
        assert len(fusion_input.unique_triples()) == 1


def spread_records():
    """Claims over three data items, some rows backed by two provenances."""
    records = []
    for subject, objects in (("/m/2", "xy"), ("/m/1", "abc"), ("/m/3", "z")):
        for k, obj in enumerate(objects):
            for extractor in ("E1", "E2")[: 1 + k % 2]:
                records.append(
                    ExtractionRecord(
                        triple=Triple(subject, "t/t/p", StringValue(obj)),
                        extractor=extractor,
                        url=f"http://s{k}.org/p",
                        site=f"s{k}.org",
                        content_type="TXT",
                    )
                )
    return records


class TestRaggedGather:
    def test_concatenates_the_ranges(self):
        starts = np.array([5, 0, 9], dtype=np.int64)
        counts = np.array([2, 3, 1], dtype=np.int64)
        assert ragged_gather(starts, counts).tolist() == [5, 6, 0, 1, 2, 9]

    def test_skips_empty_ranges(self):
        starts = np.array([4, 7, 1], dtype=np.int64)
        counts = np.array([0, 2, 0], dtype=np.int64)
        assert ragged_gather(starts, counts).tolist() == [7, 8]

    def test_all_empty_is_an_empty_int64_array(self):
        gathered = ragged_gather(np.array([3]), np.array([0]))
        assert gathered.dtype == np.int64 and gathered.size == 0


class TestColumnarLayout:
    @pytest.fixture
    def cols(self):
        return FusionInput(spread_records()).claims(Granularity.EXTRACTOR_URL)

    def test_item_claim_counts_partition_the_claims(self, cols):
        counts = cols.item_claim_counts()
        assert len(counts) == cols.n_items == 3
        assert counts.sum() == cols.n_claims
        assert counts.tolist() == [
            int(cols.row_ptr[cols.item_ptr[j + 1]] - cols.row_ptr[cols.item_ptr[j]])
            for j in range(cols.n_items)
        ]

    def test_canonical_rank_orders_rows_by_canonical_string(self, cols):
        by_rank = sorted(range(cols.n_rows), key=lambda r: cols.canonical_rank()[r])
        canonical = [cols.triples[r].canonical() for r in by_rank]
        assert canonical == sorted(canonical)

    def test_canonical_prov_order_permutes_within_each_span(self, cols):
        order = cols.canonical_prov_order()
        rank = cols.canonical_rank()
        for p in range(len(cols.provenances)):
            lo, hi = cols.prov_ptr[p], cols.prov_ptr[p + 1]
            span = order[lo:hi]
            assert sorted(span.tolist()) == list(range(lo, hi))
            ranks = rank[cols.prov_rows[span]].tolist()
            assert ranks == sorted(ranks)

    def test_slice_keeps_the_given_item_order(self, cols):
        piece = cols.slice_items([2, 0])
        expected_rows = [
            *range(cols.item_ptr[2], cols.item_ptr[3]),
            *range(cols.item_ptr[0], cols.item_ptr[1]),
        ]
        assert piece.rows.tolist() == expected_rows
        assert len(piece.item_ptr) == 3 and piece.n_rows == len(expected_rows)
        local_items = [0] * (cols.item_ptr[3] - cols.item_ptr[2])
        local_items += [1] * (cols.item_ptr[1] - cols.item_ptr[0])
        assert piece.row_item.tolist() == local_items

    def test_slice_claims_map_to_global_provenances(self, cols):
        piece = cols.slice_items([1])
        assert piece.claim_prov.tolist() == cols.claim_prov[piece.claims].tolist()
        for local, row in enumerate(piece.rows.tolist()):
            lo, hi = piece.row_ptr[local], piece.row_ptr[local + 1]
            assert piece.claims[lo:hi].tolist() == list(
                range(cols.row_ptr[row], cols.row_ptr[row + 1])
            )

    def test_kernel_on_a_slice_scores_its_rows_as_the_full_matrix(self, cols):
        accuracies = np.linspace(0.6, 0.9, len(cols.provenances))
        active = np.ones(len(cols.provenances), dtype=bool)
        full = popaccu_round(cols, accuracies, active)
        piece = cols.slice_items([2, 1])
        local = popaccu_round(piece, accuracies, active)
        assert local.posteriors.tolist() == full.posteriors[piece.rows].tolist()
        assert local.scored.tolist() == full.scored[piece.rows].tolist()
