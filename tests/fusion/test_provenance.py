"""Unit tests for provenance keys and granularities."""

import pytest

from repro.extract.records import ExtractionRecord
from repro.fusion.provenance import Granularity
from repro.kb.triples import Triple
from repro.kb.values import StringValue
from tests.oracle.columns import provenance_key


@pytest.fixture
def record():
    return ExtractionRecord(
        triple=Triple("/m/1", "people/person/profession", StringValue("actor")),
        extractor="TXT1",
        url="http://en.site.org/page1",
        site="en.site.org",
        content_type="TXT",
        pattern="TXT1:t.people.person.profession.0",
    )


class TestKeys:
    def test_extractor_url(self, record):
        assert provenance_key(record, Granularity.EXTRACTOR_URL) == (
            "TXT1",
            "http://en.site.org/page1",
        )

    def test_extractor_site(self, record):
        assert provenance_key(record, Granularity.EXTRACTOR_SITE) == (
            "TXT1",
            "en.site.org",
        )

    def test_extractor_site_predicate(self, record):
        assert provenance_key(record, Granularity.EXTRACTOR_SITE_PREDICATE) == (
            "TXT1",
            "en.site.org",
            "people/person/profession",
        )

    def test_finest_granularity_includes_pattern(self, record):
        key = provenance_key(
            record, Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN
        )
        assert key == (
            "TXT1",
            "en.site.org",
            "people/person/profession",
            "TXT1:t.people.person.profession.0",
        )

    def test_only_ext(self, record):
        assert provenance_key(record, Granularity.EXTRACTOR_PATTERN_ONLY) == (
            "TXT1:t.people.person.profession.0",
        )

    def test_only_src(self, record):
        assert provenance_key(record, Granularity.URL_ONLY) == (
            "http://en.site.org/page1",
        )

    def test_patternless_record_gets_stable_placeholder(self, record):
        from dataclasses import replace

        bare = replace(record, pattern=None)
        key = provenance_key(bare, Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN)
        assert key[-1] == "TXT1:-"

    def test_granularity_is_coarsening(self, tiny_scenario):
        """Coarser granularities can only merge provenances, never split."""
        fusion_input = tiny_scenario.fusion_input()
        fine = fusion_input.claims(Granularity.EXTRACTOR_URL)
        coarse = fusion_input.claims(Granularity.EXTRACTOR_SITE)
        assert len(coarse.provenances) <= len(fine.provenances)
