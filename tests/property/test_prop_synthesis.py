"""Synthesis kernels ↔ the scalar oracle's ``extract_page``, property-based.

The fleet-level :func:`~repro.extract.synthesis.synthesize_batch`
driver — over the whole fleet, and over a one-extractor fleet with an
explicit mask (the per-extractor cases) — must reproduce the scalar walk of ``tests/oracle/extract.py`` — the same convention as
``classify_record``/``classify_batch`` (see ``test_prop_kernels``), and
the contract is **bitwise**: record lists must compare equal
field-for-field, confidence floats and debug payloads included.  The
kernels reseed per page from a vectorised seed array keyed on
``(seed, "extract", name, url)``, so any drift — a generator consumed
out of turn, a cache returning a near-equal object, a seed derived
differently from numpy's ``SeedSequence`` — shows up as a record mismatch.

The properties run the full 12-extractor fleet (confidence models on
and off, all four content families) over page selections with
duplicates and reorderings, arbitrary coverage masks, synthetic
zero-mention pages, and unicode-mangled surfaces and URLs; the seeding
layer is additionally checked against ``numpy.random.default_rng``
stream-for-stream.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extract.synthesis import (
    PageRNGBank,
    SynthesisCaches,
    seed_array,
    synthesize_batch,
)
from repro.rng import split_seed
from repro.world.content import (
    AnnotationBlock,
    DomTree,
    Mention,
    TextDocument,
    WebTable,
)
from repro.world.webgen import WebPage
from tests.oracle.extract import covers, extract_page

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def select_pages(pages, indices):
    return [pages[index % len(pages)] for index in indices]


def one_extractor(extractor, pages, mask=None, caches=None):
    """``extractor``'s records per page: a one-extractor fleet through the
    synthesis driver, under ``mask`` (default its coverage mask)."""
    if mask is None:
        mask = extractor.coverage_mask(pages)
    return synthesize_batch([extractor], pages, masks=[mask], caches=caches)


def scalar_reference(extractor, pages, mask):
    """The frozen scalar loop a one-extractor fleet must reproduce."""
    return [
        extract_page(extractor, page) if covered else []
        for page, covered in zip(pages, mask)
    ]


def fleet_scalar_reference(extractors, pages):
    """Page-major, extractor-major scalar synthesis — the pipeline order."""
    per_page = []
    for page in pages:
        records = []
        for extractor in extractors:
            if covers(extractor, page):
                records.extend(extract_page(extractor, page))
        per_page.append(records)
    return per_page


def decorate_mention(mention, suffix):
    return replace(mention, surface=mention.surface + suffix)


def decorate_element(element, suffix):
    """Append ``suffix`` to every mention surface inside ``element``."""
    if isinstance(element, TextDocument):
        return TextDocument(
            tuple(
                replace(
                    sentence,
                    subject=decorate_mention(sentence.subject, suffix),
                    objects=tuple(
                        decorate_mention(obj, suffix) for obj in sentence.objects
                    ),
                )
                for sentence in element.sentences
            )
        )
    if isinstance(element, DomTree):
        return DomTree(
            subject=decorate_mention(element.subject, suffix),
            rows=tuple(
                replace(
                    row,
                    cells=tuple(decorate_mention(cell, suffix) for cell in row.cells),
                )
                for row in element.rows
            ),
        )
    if isinstance(element, WebTable):
        return WebTable(
            caption=element.caption,
            headers=element.headers,
            rows=tuple(
                tuple(decorate_mention(cell, suffix) for cell in row)
                for row in element.rows
            ),
            subject_col=element.subject_col,
        )
    if isinstance(element, AnnotationBlock):
        return AnnotationBlock(
            subject=decorate_mention(element.subject, suffix),
            props=tuple(
                (prop, decorate_mention(value, suffix)) for prop, value in element.props
            ),
        )
    raise TypeError(f"not a content element: {element!r}")


def decorate_page(page, suffix):
    return replace(
        page, elements=tuple(decorate_element(el, suffix) for el in page.elements)
    )


@st.composite
def pages_with_mask(draw, max_pages=10):
    """Arbitrary page picks plus an equally long boolean mask."""
    indices = draw(st.lists(st.integers(0, 10_000), min_size=0, max_size=max_pages))
    bits = draw(
        st.lists(st.booleans(), min_size=len(indices), max_size=len(indices))
    )
    return indices, bits


# ---------------------------------------------------------------------------
# Fleet-wide parity
# ---------------------------------------------------------------------------


class TestFleetBatchParity:
    def test_fleet_exercises_every_kernel_and_both_confidence_modes(
        self, tiny_scenario
    ):
        # The parity properties only mean something if the fleet really
        # spans the contract surface: all four family kernels present,
        # confidence models both on and off, several model families.
        extractors = tiny_scenario.pipeline.extractors
        assert len(extractors) == 12
        assert {type(e).__name__ for e in extractors} == {
            "TextExtractor",
            "DomExtractor",
            "TableExtractor",
            "AnnotationExtractor",
        }
        models = [e.confidence_model for e in extractors]
        assert any(model is None for model in models)
        names = {model.name for model in models if model is not None}
        assert len(names) >= 3

    @settings(max_examples=25, deadline=None)
    @given(indices=st.lists(st.integers(0, 10_000), max_size=10))
    def test_batch_matches_scalar_per_extractor(self, tiny_scenario, indices):
        pages = select_pages(list(tiny_scenario.corpus.pages), indices)
        for extractor in tiny_scenario.pipeline.extractors:
            mask = extractor.coverage_mask(pages)
            batch = one_extractor(extractor, pages)
            assert batch == scalar_reference(extractor, pages, mask)

    @settings(max_examples=25, deadline=None)
    @given(indices=st.lists(st.integers(0, 10_000), max_size=10))
    def test_synthesize_batch_matches_fleet_scalar(self, tiny_scenario, indices):
        pages = select_pages(list(tiny_scenario.corpus.pages), indices)
        extractors = tiny_scenario.pipeline.extractors
        batch = synthesize_batch(extractors, pages)
        assert batch == fleet_scalar_reference(extractors, pages)

    def test_full_corpus_parity(self, tiny_scenario):
        pages = list(tiny_scenario.corpus.pages)
        extractors = tiny_scenario.pipeline.extractors
        batch = synthesize_batch(extractors, pages)
        assert batch == fleet_scalar_reference(extractors, pages)
        assert sum(len(records) for records in batch) > 0
        # ... and so does the one-page case, covered or not.
        for extractor in extractors:
            for page in pages:
                one_page = one_extractor(extractor, [page], mask=np.ones(1, dtype=bool))
                assert one_page[0] == extract_page(extractor, page)

    def test_record_equality_is_field_sensitive(self, tiny_scenario):
        # The ``==`` the parity assertions lean on must compare every
        # field — otherwise "bitwise" would be an empty claim.
        pages = list(tiny_scenario.corpus.pages)
        extractors = tiny_scenario.pipeline.extractors
        records = [
            record
            for page_records in synthesize_batch(extractors, pages[:20])
            for record in page_records
        ]
        record = next(r for r in records if r.confidence is not None)
        assert record == replace(record)
        assert record != replace(record, confidence=record.confidence + 1e-12)
        assert record != replace(record, pattern="__other__")

    def test_empty_page_list(self, tiny_scenario):
        extractors = tiny_scenario.pipeline.extractors
        assert synthesize_batch(extractors, []) == []
        for extractor in extractors:
            assert one_extractor(extractor, []) == []

    def test_empty_fleet(self, tiny_scenario):
        pages = list(tiny_scenario.corpus.pages)[:5]
        assert synthesize_batch([], pages) == [[] for _ in pages]


# ---------------------------------------------------------------------------
# Page-order shuffles
# ---------------------------------------------------------------------------


class TestPageOrderShuffles:
    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(list(range(8))))
    def test_records_attach_to_pages_not_positions(self, tiny_scenario, order):
        # Per-page draws key on (seed, extractor, url) only, so a page
        # must synthesise the same records wherever it sits in the batch.
        pages = list(tiny_scenario.corpus.pages)[:8]
        extractors = tiny_scenario.pipeline.extractors
        straight = synthesize_batch(extractors, pages)
        shuffled = synthesize_batch(extractors, [pages[i] for i in order])
        for position, original_index in enumerate(order):
            assert shuffled[position] == straight[original_index]

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(0, 12))
    def test_prefix_batch_is_a_batch_prefix(self, tiny_scenario, k):
        pages = list(tiny_scenario.corpus.pages)[:12]
        extractors = tiny_scenario.pipeline.extractors
        assert synthesize_batch(extractors, pages[:k]) == (
            synthesize_batch(extractors, pages)[:k]
        )

    @settings(max_examples=20, deadline=None)
    @given(indices=st.lists(st.integers(0, 3), min_size=2, max_size=8))
    def test_duplicate_pages_synthesise_identically(self, tiny_scenario, indices):
        pages = select_pages(list(tiny_scenario.corpus.pages), indices)
        extractors = tiny_scenario.pipeline.extractors
        batch = synthesize_batch(extractors, pages)
        by_url = {}
        for page, records in zip(pages, batch):
            assert by_url.setdefault(page.url, records) == records


# ---------------------------------------------------------------------------
# Coverage masks
# ---------------------------------------------------------------------------


class TestCoverageMasks:
    def test_all_false_mask_yields_empty_lists(self, tiny_scenario):
        pages = list(tiny_scenario.corpus.pages)[:10]
        empty = np.zeros(len(pages), dtype=bool)
        for extractor in tiny_scenario.pipeline.extractors:
            assert one_extractor(extractor, pages, mask=empty) == [
                [] for _ in pages
            ]

    @settings(max_examples=30, deadline=None)
    @given(spec=pages_with_mask(), pick=st.integers(0, 11))
    def test_arbitrary_mask_parity(self, tiny_scenario, spec, pick):
        # The mask is ground truth, not a hint: parity must hold even
        # for masks that disagree with the extractor's own coverage.
        indices, bits = spec
        pages = select_pages(list(tiny_scenario.corpus.pages), indices)
        mask = np.array(bits, dtype=bool)
        extractor = tiny_scenario.pipeline.extractors[pick]
        batch = one_extractor(extractor, pages, mask=mask)
        assert batch == scalar_reference(extractor, pages, mask)

    @settings(max_examples=25, deadline=None)
    @given(target=st.integers(0, 9), pick=st.integers(0, 11))
    def test_masking_neighbours_leaves_a_page_untouched(
        self, tiny_scenario, target, pick
    ):
        # Uncovered pages consume no seeds, so dropping every other page
        # from the mask must not change what the surviving page emits.
        pages = list(tiny_scenario.corpus.pages)[:10]
        extractor = tiny_scenario.pipeline.extractors[pick]
        alone = np.zeros(len(pages), dtype=bool)
        alone[target] = True
        full = np.ones(len(pages), dtype=bool)
        assert (
            one_extractor(extractor, pages, mask=alone)[target]
            == one_extractor(extractor, pages, mask=full)[target]
        )

    def test_default_mask_is_the_coverage_mask(self, tiny_scenario):
        pages = list(tiny_scenario.corpus.pages)[:15]
        for extractor in tiny_scenario.pipeline.extractors:
            assert synthesize_batch([extractor], pages) == (
                one_extractor(extractor, pages, mask=extractor.coverage_mask(pages))
            )


# ---------------------------------------------------------------------------
# Synthetic pages: zero mentions and unicode surfaces
# ---------------------------------------------------------------------------

_SUBJECT = Mention(surface="Subject", kind="entity")

ZERO_MENTION_ELEMENTS = {
    "no-elements": (),
    "empty-text": (TextDocument(sentences=()),),
    "empty-dom": (DomTree(subject=_SUBJECT, rows=()),),
    "empty-table": (WebTable(caption="t", headers=(), rows=()),),
    "empty-annotation": (AnnotationBlock(subject=_SUBJECT, props=()),),
}


class TestSyntheticPages:
    @pytest.mark.parametrize("shape", sorted(ZERO_MENTION_ELEMENTS))
    def test_zero_mention_pages_parity(self, tiny_scenario, shape):
        pages = [
            WebPage(
                url=f"http://zero{index}.org/{shape}",
                site=f"zero{index}.org",
                category=category,
                assertions=(),
                elements=ZERO_MENTION_ELEMENTS[shape],
            )
            for index, category in enumerate(("wiki", "news", "general"))
        ]
        extractors = tiny_scenario.pipeline.extractors
        assert synthesize_batch(extractors, pages) == fleet_scalar_reference(
            extractors, pages
        )

    @settings(max_examples=20, deadline=None)
    @given(suffix=st.text(min_size=1, max_size=6), start=st.integers(0, 70))
    def test_unicode_surfaces_parity(self, tiny_scenario, suffix, start):
        # Mangled surfaces change linkage, parsing, and the memo keys in
        # SynthesisCaches — parity must survive all of it.
        pages = [
            decorate_page(page, suffix)
            for page in list(tiny_scenario.corpus.pages)[start : start + 4]
        ]
        extractors = tiny_scenario.pipeline.extractors
        assert synthesize_batch(extractors, pages) == fleet_scalar_reference(
            extractors, pages
        )

    @settings(max_examples=25, deadline=None)
    @given(tag=st.text(min_size=1, max_size=8), pick=st.integers(0, 11))
    def test_unicode_urls_parity(self, tiny_scenario, tag, pick):
        # URLs are the seed-array leaves; non-ASCII URLs must hash to
        # the same per-page stream on both paths.
        pages = [
            replace(page, url=page.url + "/" + tag)
            for page in list(tiny_scenario.corpus.pages)[:4]
        ]
        extractor = tiny_scenario.pipeline.extractors[pick]
        mask = extractor.coverage_mask(pages)
        assert one_extractor(extractor, pages, mask=mask) == scalar_reference(
            extractor, pages, mask
        )


# ---------------------------------------------------------------------------
# Seed derivation: the vectorised SeedSequence/PCG64 path
# ---------------------------------------------------------------------------

EDGE_SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestSeedDerivation:
    @settings(max_examples=50, deadline=None)
    @given(
        master=st.integers(0, 2**63 - 1),
        leaves=st.lists(st.text(max_size=12), max_size=6),
    )
    def test_seed_array_matches_split_seed(self, master, leaves):
        array = seed_array(master, ("extract", "X"), leaves)
        assert array.dtype == np.uint64
        assert [int(value) for value in array] == [
            split_seed(master, "extract", "X", leaf) for leaf in leaves
        ]

    def test_bank_state_matches_default_rng_on_edge_seeds(self):
        bank = PageRNGBank(np.array(EDGE_SEEDS, dtype=np.uint64))
        for slot, seed in enumerate(EDGE_SEEDS):
            state = bank.reset(slot).bit_generator.state
            assert state == np.random.default_rng(seed).bit_generator.state

    @settings(max_examples=50, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    def test_bank_state_matches_default_rng(self, seeds):
        bank = PageRNGBank(np.array(seeds, dtype=np.uint64))
        for slot, seed in enumerate(seeds):
            state = bank.reset(slot).bit_generator.state
            assert state == np.random.default_rng(seed).bit_generator.state

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    def test_bank_draws_match_default_rng(self, seed):
        bank = PageRNGBank(np.array([seed], dtype=np.uint64))
        generator = bank.reset(0)
        reference = np.random.default_rng(seed)
        assert generator.random() == reference.random()
        assert float(generator.standard_normal()) == float(reference.standard_normal())
        assert int(generator.integers(1000)) == int(reference.integers(1000))

    @settings(max_examples=20, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
    def test_reset_replays_the_stream(self, seeds):
        bank = PageRNGBank(np.array(seeds, dtype=np.uint64))
        slot = len(seeds) - 1
        generator = bank.reset(slot)
        first = [generator.random() for _ in range(3)]
        bank.reset(slot)
        assert [generator.random() for _ in range(3)] == first


# ---------------------------------------------------------------------------
# Cache sharing
# ---------------------------------------------------------------------------


class TestCachesSharing:
    def test_one_shared_cache_equals_fresh_caches(self, tiny_scenario):
        pages = list(tiny_scenario.corpus.pages)[:15]
        extractors = tiny_scenario.pipeline.extractors
        shared = SynthesisCaches()
        with_shared = synthesize_batch(extractors, pages, caches=shared)
        assert with_shared == synthesize_batch(extractors, pages)
        for extractor in extractors:
            assert one_extractor(
                extractor, pages, caches=SynthesisCaches()
            ) == one_extractor(extractor, pages, caches=shared)

    def test_warm_caches_replay_identically(self, tiny_scenario):
        # Second call reuses the warm SynthesisCaches — exactly how the
        # pipeline runs shard after shard.
        pages = list(tiny_scenario.corpus.pages)[:15]
        extractors = tiny_scenario.pipeline.extractors
        caches = SynthesisCaches()
        first = synthesize_batch(extractors, pages, caches=caches)
        second = synthesize_batch(extractors, pages, caches=caches)
        assert first == second
        assert second == fleet_scalar_reference(extractors, pages)
