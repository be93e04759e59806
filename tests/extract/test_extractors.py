"""Behavioural tests for the four extractor families.

The key invariant: a *perfect-knob* extractor run over a corpus whose
entities have unambiguous names reproduces the pages' assertions exactly —
every error downstream is therefore attributable to a deliberately-enabled
noise mechanism.
"""

import numpy as np
import pytest

from repro.extract.annotation import AnnotationExtractor
from repro.extract.base import ExtractorProfile
from repro.extract.dom import DomExtractor
from repro.extract.linkage import EntityLinker
from repro.extract.pipeline import ExtractionPipeline
from repro.extract.table import TableExtractor
from repro.extract.text import TextExtractor
from repro.world.config import WebConfig, WorldConfig
from repro.world import webgen, worldgen
from repro.world.labels import build_templates
from repro.world.webgen import generate_corpus
from repro.world.worldgen import generate_world

PERFECT = dict(
    page_coverage=1.0,
    use_type_hints=True,
    kind_checking=True,
    handles_merged=True,
    naive_dates=False,
    string_fallback=False,
    pattern_coverage=1.0,
    wrong_predicate_rate=0.0,
    reliability_mean=0.95,
    reliability_concentration=50.0,
    mangle_rate=0.0,
    misgrab_rate=0.0,
    confidence="calibrated",
)


@pytest.fixture(scope="module")
def clean_world():
    """A world with no aliases at all: every surface is unambiguous.

    ``ALIAS_RATE = 0`` matters too — even honest aliases collide ("Acme
    Industries" and "Zork Industries" both answer to "Industries").
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(worldgen, "CONFUSABLE_RATE", 0.0)
        patch.setattr(worldgen, "ALIAS_RATE", 0.0)
        return generate_world(WorldConfig(n_types=12, n_entities=180), seed=13)


@pytest.fixture(scope="module")
def clean_corpus(clean_world):
    # A table-heavy mix so the table extractors get real work; the default
    # mix renders almost no tables (matching the paper's tiny TBL share)
    # which would starve the faithfulness checks.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            webgen, "CONTENT_MIX", {"DOM": 0.4, "TXT": 0.3, "TBL": 0.2, "ANO": 0.1}
        )
        return generate_corpus(clean_world, WebConfig(n_sites=15, n_pages=120), seed=13)


@pytest.fixture(scope="module")
def linker(clean_world):
    return EntityLinker("EL-A", clean_world.entities, clean_world.popularity, seed=13)


def perfect_extractor(family, name, content, clean_world, linker, **extra):
    profile = ExtractorProfile(
        name=name, content_types=content, **{**PERFECT, **extra}
    )
    if family is TextExtractor:
        templates = build_templates(clean_world.schema)
        return TextExtractor(profile, clean_world.schema, linker, templates, seed=13)
    return family(profile, clean_world.schema, linker, seed=13)


def extract_page(extractor, page):
    """Every record ``extractor`` draws from ``page``, covered or not."""
    return extractor.extract_pages_batch([page], mask=np.ones(1, dtype=bool))[0]


def assert_faithful(extractor, corpus):
    """Every record of a perfect extractor equals its source assertion."""
    total = 0
    for page in corpus.pages:
        for record in extract_page(extractor, page):
            total += 1
            assert record.debug is not None
            index = record.debug.asserted_index
            assert index is not None
            assert record.triple == page.assertions[index].triple, (
                record.triple.canonical(),
                page.assertions[index].triple.canonical(),
            )
    assert total > 20  # the extractor actually extracted things


class TestPerfectExtractorsAreFaithful:
    def test_text(self, clean_world, clean_corpus, linker):
        extractor = perfect_extractor(
            TextExtractor, "TXTP", ("TXT",), clean_world, linker
        )
        assert_faithful(extractor, clean_corpus)

    def test_dom(self, clean_world, clean_corpus, linker):
        extractor = perfect_extractor(
            DomExtractor, "DOMP", ("DOM",), clean_world, linker
        )
        assert_faithful(extractor, clean_corpus)

    def test_table(self, clean_world, clean_corpus, linker):
        extractor = perfect_extractor(
            TableExtractor,
            "TBLP",
            ("TBL",),
            clean_world,
            linker,
            detect_subject_col=True,
            type_aware_headers=True,
        )
        assert_faithful(extractor, clean_corpus)

    def test_annotation(self, clean_world, clean_corpus, linker):
        """ANO is faithful *except* for cross-type itemprop collisions:
        ``releaseYear`` names both the film and the album predicate, and
        the ontology map — global by design, like schema.org's namespace —
        can keep only one."""
        extractor = perfect_extractor(
            AnnotationExtractor, "ANOP", ("ANO",), clean_world, linker
        )
        total = 0
        for page in clean_corpus.pages:
            for record in extract_page(extractor, page):
                total += 1
                asserted = page.assertions[record.debug.asserted_index].triple
                if record.triple == asserted:
                    continue
                # The only tolerated divergence: same predicate *name*,
                # different type (the itemprop collision).
                assert record.triple.subject == asserted.subject
                assert record.triple.obj == asserted.obj
                assert (
                    record.triple.predicate.rsplit("/", 1)[-1]
                    == asserted.predicate.rsplit("/", 1)[-1]
                )
        assert total > 20


class TestNoiseMechanisms:
    def test_misgrab_produces_mismatches(self, clean_world, clean_corpus, linker):
        extractor = perfect_extractor(
            DomExtractor,
            "DOMN",
            ("DOM",),
            clean_world,
            linker,
            kind_checking=False,
            misgrab_rate=1.0,
            reliability_mean=0.2,
            reliability_concentration=30.0,
        )
        mismatches = 0
        for page in clean_corpus.pages:
            for record in extract_page(extractor, page):
                index = record.debug.asserted_index
                if index is None or record.triple != page.assertions[index].triple:
                    mismatches += 1
        assert mismatches > 0

    def test_wrong_predicate_rate_changes_patterns(self, clean_world, linker):
        templates = build_templates(clean_world.schema)
        wrong = ExtractorProfile(
            name="TXTW",
            content_types=("TXT",),
            **{**PERFECT, "wrong_predicate_rate": 1.0},
        )
        extractor = TextExtractor(
            wrong, clean_world.schema, linker, templates, seed=13
        )
        flipped = [
            p
            for tid, p in extractor.patterns.items()
            if p.predicate != templates[tid].slots[0]
        ]
        assert flipped  # with rate 1.0 every confusable pattern flips

    def test_pattern_coverage_limits_library(self, clean_world, linker):
        templates = build_templates(clean_world.schema)
        half = ExtractorProfile(
            name="TXTH",
            content_types=("TXT",),
            **{**PERFECT, "pattern_coverage": 0.5},
        )
        extractor = TextExtractor(half, clean_world.schema, linker, templates, seed=13)
        assert 0 < extractor.n_patterns < len(templates)

    def test_no_confidence_model_emits_none(self, clean_world, clean_corpus, linker):
        extractor = perfect_extractor(
            DomExtractor, "DOMC", ("DOM",), clean_world, linker, confidence="none"
        )
        records = ExtractionPipeline([extractor]).run(clean_corpus)
        assert records
        assert all(r.confidence is None for r in records)
        # A perfect extractor on a clean corpus carries only clean debug
        # channels once the pipeline has classified its records.
        assert all(r.debug is not None and r.debug.error_kind is None for r in records)

    def test_value_kind_restriction(self, clean_world, clean_corpus, linker):
        from repro.kb.values import EntityRef

        extractor = perfect_extractor(
            DomExtractor,
            "DOME",
            ("DOM",),
            clean_world,
            linker,
            value_kinds=("entity",),
        )
        records = ExtractionPipeline([extractor]).run(clean_corpus)
        assert records
        assert all(isinstance(r.triple.obj, EntityRef) for r in records)
        assert all(r.debug is not None and r.debug.error_kind is None for r in records)

    def test_single_extractor_pipeline_classifies_its_records(
        self, clean_world, clean_corpus, linker
    ):
        """A one-extractor pipeline classifies like the oracle does, so a
        misgrab-heavy extractor surfaces concrete error kinds."""
        from tests.oracle.extract import classify_record

        extractor = perfect_extractor(
            DomExtractor,
            "DOMM",
            ("DOM",),
            clean_world,
            linker,
            kind_checking=False,
            misgrab_rate=1.0,
            reliability_mean=0.2,
            reliability_concentration=30.0,
        )
        records = ExtractionPipeline([extractor]).run(clean_corpus)
        assert records
        pages = {page.url: page for page in clean_corpus.pages}
        reclassified = [classify_record(r, pages[r.url]) for r in records]
        assert records == reclassified  # classification is idempotent
        # A misgrab-heavy extractor must surface concrete error kinds.
        assert any(r.debug.error_kind is not None for r in records)


class TestDomSpecifics:
    def test_global_label_map_confuses_publisher(self, clean_world, linker):
        schema = clean_world.schema
        if (
            "games/game/game_publisher" not in schema.predicates
            or "book/book/publisher" not in schema.predicates
        ):
            pytest.skip("needs both publisher predicates")
        extractor = perfect_extractor(
            DomExtractor, "DOMG", ("DOM",), clean_world, linker, global_label_map=True
        )
        # The global map can hold only one "Publisher" entry.
        pid = extractor._resolve_label("Publisher", "games/game")
        assert pid == "book/book/publisher"

    def test_typed_label_map_disambiguates(self, clean_world, linker):
        schema = clean_world.schema
        if "games/game/game_publisher" not in schema.predicates:
            pytest.skip("needs games type")
        extractor = perfect_extractor(
            DomExtractor, "DOMT", ("DOM",), clean_world, linker
        )
        pid = extractor._resolve_label("Publisher", "games/game")
        assert pid == "games/game/game_publisher"


class TestTableSpecifics:
    def test_naive_misses_offset_subject_tables(self, clean_world, clean_corpus, linker):
        from repro.world.content import WebTable

        naive = perfect_extractor(
            TableExtractor,
            "TBLN",
            ("TBL",),
            clean_world,
            linker,
            detect_subject_col=False,
            type_aware_headers=False,
            kind_checking=False,
        )
        smart = perfect_extractor(
            TableExtractor,
            "TBLS",
            ("TBL",),
            clean_world,
            linker,
            detect_subject_col=True,
            type_aware_headers=True,
        )
        offset_pages = [
            page
            for page in clean_corpus.pages
            if any(
                isinstance(e, WebTable) and e.subject_col == 1 for e in page.elements
            )
        ]
        if not offset_pages:
            pytest.skip("no offset-subject tables rendered in this corpus")
        naive_records = [r for p in offset_pages for r in extract_page(naive, p)]
        smart_records = [r for p in offset_pages for r in extract_page(smart, p)]
        assert len(smart_records) > len(naive_records)
