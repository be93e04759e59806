"""Unit tests for web corpus generation."""

import pytest

from repro.world.config import WebConfig, WorldConfig
from repro.world.content import (
    AnnotationBlock,
    DomTree,
    TextDocument,
    WebTable,
)
from repro.world import webgen
from repro.world.webgen import generate_corpus
from repro.world.worldgen import generate_world

CONTENT_TYPES = {TextDocument: "TXT", DomTree: "DOM", WebTable: "TBL", AnnotationBlock: "ANO"}


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(n_types=8, n_entities=200), seed=3)


@pytest.fixture(scope="module")
def corpus(world):
    return generate_corpus(world, WebConfig(n_sites=20, n_pages=150), seed=3)


class TestDeterminism:
    def test_same_seed_same_corpus(self, world):
        config = WebConfig(n_sites=10, n_pages=60)
        a = generate_corpus(world, config, seed=5)
        b = generate_corpus(world, config, seed=5)
        assert [p.url for p in a.pages] == [p.url for p in b.pages]
        assert [p.assertions for p in a.pages] == [p.assertions for p in b.pages]

    def test_different_seed_differs(self, world):
        config = WebConfig(n_sites=10, n_pages=60)
        a = generate_corpus(world, config, seed=5)
        b = generate_corpus(world, config, seed=6)
        assert [p.assertions for p in a.pages] != [p.assertions for p in b.pages]


class TestSites:
    def test_site_count(self, corpus):
        assert len(corpus.sites) == 20

    def test_wiki_sites_exist_and_are_clean(self, corpus):
        wikis = [s for s in corpus.sites.values() if s.category == "wiki"]
        assert wikis
        general = [s for s in corpus.sites.values() if s.category == "general"]
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean([s.error_rate for s in wikis]) < mean(
            [s.error_rate for s in general]
        )

    def test_every_page_belongs_to_a_site(self, corpus):
        for page in corpus.pages:
            assert page.site in corpus.sites


class TestAssertions:
    def test_assertions_reference_world_items(self, corpus, world):
        for page in corpus.pages[:50]:
            for assertion in page.assertions:
                item = assertion.triple.data_item
                # Every asserted item exists in the world (wrong *values*
                # are injected, not wrong items).
                assert world.truth_values(item)

    def test_truth_flags_consistent(self, corpus, world):
        for page in corpus.pages[:50]:
            for assertion in page.assertions:
                assert assertion.true_in_world == world.is_true(assertion.triple)
                if assertion.exact:
                    assert world.is_true_exact(assertion.triple)

    def test_source_errors_present_but_minority(self, corpus):
        total = sum(len(p.assertions) for p in corpus.pages)
        errors = sum(a.source_error for p in corpus.pages for a in p.assertions)
        assert 0 < errors < total * 0.5

    def test_copying_produces_copied_from(self, world, monkeypatch):
        monkeypatch.setattr(webgen, "COPY_RATE", 0.5)
        corpus = generate_corpus(world, WebConfig(n_sites=10, n_pages=200), seed=4)
        copied = [
            a for p in corpus.pages for a in p.assertions if a.copied_from is not None
        ]
        assert copied
        urls = {p.url for p in corpus.pages}
        for assertion in copied:
            assert assertion.copied_from in urls


class TestRendering:
    def test_fact_refs_point_into_assertions(self, corpus):
        for page in corpus.pages:
            n = len(page.assertions)
            for element in page.elements:
                mentions = _mentions_of(element)
                for mention in mentions:
                    if mention.fact_ref is not None:
                        assert 0 <= mention.fact_ref < n

    def test_all_content_types_rendered(self, corpus):
        kinds = {
            CONTENT_TYPES[type(e)] for p in corpus.pages for e in p.elements
        }
        assert kinds == {"TXT", "DOM", "TBL", "ANO"}

    def test_dom_dominates_content_mix(self, corpus):
        from collections import Counter

        counts = Counter(
            CONTENT_TYPES[type(e)] for p in corpus.pages for e in p.elements
        )
        assert counts["DOM"] == max(counts.values())

    def test_merged_born_rows_rendered_somewhere(self, corpus):
        merged = [
            row
            for p in corpus.pages
            for e in p.elements
            if isinstance(e, DomTree)
            for row in e.rows
            if row.merged
        ]
        assert merged
        for row in merged:
            assert len(row.cells) == 3  # name, date, place

    def test_tables_have_consistent_width(self, corpus):
        for page in corpus.pages:
            for element in page.elements:
                if isinstance(element, WebTable):
                    for row in element.rows:
                        assert len(row) == len(element.headers)

    def test_sentences_have_text_with_surfaces(self, corpus):
        for page in corpus.pages:
            for element in page.elements:
                if isinstance(element, TextDocument):
                    for sentence in element.sentences:
                        for obj in sentence.objects:
                            assert obj.surface in sentence.text

    def test_annotation_props_reference_assertions(self, corpus):
        for page in corpus.pages:
            for element in page.elements:
                if isinstance(element, AnnotationBlock):
                    for _prop, mention in element.props:
                        assert mention.fact_ref is not None


def _mentions_of(element):
    if isinstance(element, TextDocument):
        return [m for s in element.sentences for m in (s.subject, *s.objects)]
    if isinstance(element, DomTree):
        return [element.subject, *[c for r in element.rows for c in r.cells]]
    if isinstance(element, WebTable):
        return [c for row in element.rows for c in row]
    if isinstance(element, AnnotationBlock):
        return [element.subject, *[m for _p, m in element.props]]
    raise AssertionError(f"unknown element {element!r}")
