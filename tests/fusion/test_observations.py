"""Unit tests for claim-matrix construction."""

from repro.extract.records import ExtractionRecord
from repro.fusion.observations import ClaimMatrix, FusionInput
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
        matrix = ClaimMatrix.build(records, Granularity.EXTRACTOR_URL)
        assert matrix.n_claims() == 1

    def test_distinct_extractors_distinct_claims(self):
        records = [rec("a", "E1", "http://s.org/p"), rec("a", "E2", "http://s.org/p")]
        matrix = ClaimMatrix.build(records, Granularity.EXTRACTOR_URL)
        assert matrix.n_claims() == 2

    def test_items_grouping(self):
        records = [
            rec("a", "E1", "http://s.org/p"),
            rec("b", "E1", "http://s.org/q"),
        ]
        cols = ClaimMatrix.build(records, Granularity.EXTRACTOR_URL).columnar()
        assert cols.items == [DataItem("/m/1", "t/t/p")]
        assert cols.item_ptr.tolist() == [0, 2]

    def test_prov_triples_unique(self):
        records = [
            rec("a", "E1", "http://s.org/p"),
            rec("a", "E1", "http://s.org/p", pattern="x"),
            rec("b", "E1", "http://s.org/p"),
        ]
        cols = ClaimMatrix.build(records, Granularity.EXTRACTOR_URL).columnar()
        assert cols.provenances == [("E1", "http://s.org/p")]
        assert cols.prov_row_counts().tolist() == [2]

    def test_all_triples_sorted_unique(self):
        records = [
            rec("b", "E1", "http://s.org/p"),
            rec("a", "E1", "http://s.org/q"),
            rec("a", "E2", "http://s.org/p"),
        ]
        triples = ClaimMatrix.build(records, Granularity.EXTRACTOR_URL).columnar().triples
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

    def test_len_counts_records(self):
        fusion_input = FusionInput(
            [rec("a", "E1", "http://s.org/p"), rec("a", "E2", "http://s.org/q")]
        )
        assert len(fusion_input) == 2
