"""Coverage-mask ↔ per-page ``covers`` parity, property-based.

:meth:`~repro.extract.base.Extractor.coverage_mask` must agree with the
scalar oracle's per-page ``covers`` (``tests/oracle/extract.py``); the
extraction pipeline decides which pages an extractor sees through the mask, so any
divergence silently changes the record stream.  The properties here run
arbitrary page selections (duplicates, reorderings, empty lists) through
the full 12-extractor fleet — deterministic-coverage and
site-restricted profiles included — plus purpose-built restricted and
full-coverage profiles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extract.base import ExtractorProfile
from repro.extract.linkage import EntityLinker
from repro.extract.text import TextExtractor
from repro.world.labels import build_templates
from repro.world.webgen import WebPage
from tests.oracle.extract import covers


def select_pages(pages, indices):
    return [pages[index % len(pages)] for index in indices]


class TestFleetCoverageMaskParity:
    @settings(max_examples=50, deadline=None)
    @given(indices=st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
    def test_mask_matches_covers_across_the_fleet(self, tiny_scenario, indices):
        corpus_pages = list(tiny_scenario.corpus.pages)
        pages = select_pages(corpus_pages, indices)
        for extractor in tiny_scenario.pipeline.extractors:
            mask = extractor.coverage_mask(pages)
            assert mask.dtype == np.bool_
            assert mask.shape == (len(pages),)
            assert list(mask) == [covers(extractor, page) for page in pages]

    def test_fleet_has_both_profile_shapes(self, tiny_scenario):
        # The property above only means something if the fleet really
        # exercises both code paths: at least one extractor restricted by
        # site category, and at least one covering every page.
        profiles = [e.profile for e in tiny_scenario.pipeline.extractors]
        assert any(p.site_categories is not None for p in profiles)
        assert any(p.site_categories is None for p in profiles)
        assert any(p.page_coverage == 1.0 for p in profiles)


def make_extractor(world, **profile_kwargs):
    defaults = dict(name="P", content_types=("TXT",))
    defaults.update(profile_kwargs)
    profile = ExtractorProfile(**defaults)
    linker = EntityLinker("EL-A", world.entities, world.popularity, seed=1)
    return TextExtractor(profile, world.schema, linker, build_templates(world.schema), seed=1)


def make_page(index, category):
    return WebPage(
        url=f"http://s{index % 7}.org/p{index}",
        site=f"s{index % 7}.org",
        category=category,
        assertions=(),
        elements=(),
    )


CATEGORIES = ("wiki", "news", "general", "forum")


class TestConstructedProfiles:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),
                st.sampled_from(CATEGORIES),
            ),
            max_size=50,
        ),
        restriction=st.sets(st.sampled_from(CATEGORIES), min_size=1, max_size=3),
        coverage=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    def test_restricted_profile_parity(self, small_world, spec, restriction, coverage):
        extractor = make_extractor(
            small_world,
            site_categories=tuple(sorted(restriction)),
            page_coverage=coverage,
        )
        pages = [make_page(index, category) for index, category in spec]
        mask = extractor.coverage_mask(pages)
        assert list(mask) == [covers(extractor, page) for page in pages]
        uncovered_categories = {
            page.category for page, hit in zip(pages, mask) if not hit
        }
        assert all(
            category in restriction
            for page, hit in zip(pages, mask)
            if hit
            for category in [page.category]
        )
        if coverage == 1.0:
            # Full coverage: the restriction is the *only* filter.
            assert list(mask) == [page.category in restriction for page in pages]
        del uncovered_categories

    @settings(max_examples=40, deadline=None)
    @given(
        indices=st.lists(st.integers(min_value=0, max_value=500), max_size=50),
    )
    def test_full_coverage_unrestricted_covers_everything(self, small_world, indices):
        extractor = make_extractor(small_world, page_coverage=1.0)
        pages = [make_page(index, CATEGORIES[index % 4]) for index in indices]
        mask = extractor.coverage_mask(pages)
        assert mask.all()
        assert list(mask) == [covers(extractor, page) for page in pages]
