"""Unit tests for the extractor base class and profile validation."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.extract.base import ExtractorProfile
from repro.extract.linkage import EntityLinker
from repro.extract.records import TableBuilder, records_from_wire
from repro.extract.synthesis import SynthesisCaches, emit_plan, make_emitter
from repro.extract.text import TextExtractor
from repro.kb.schema import Predicate, ValueKind
from repro.kb.values import StringValue
from repro.world.content import Mention
from repro.world.labels import build_templates
from repro.world.webgen import WebPage
from tests.oracle import extract as oracle


def make_profile(**kwargs):
    defaults = dict(name="X", content_types=("TXT",))
    defaults.update(kwargs)
    return ExtractorProfile(**defaults)


class TestProfileValidation:
    def test_defaults_valid(self):
        make_profile()

    def test_no_content_types_rejected(self):
        with pytest.raises(ConfigError):
            make_profile(content_types=())

    def test_unknown_content_type_rejected(self):
        with pytest.raises(ConfigError):
            make_profile(content_types=("VIDEO",))

    @pytest.mark.parametrize(
        "field", ["page_coverage", "pattern_coverage", "wrong_predicate_rate",
                  "reliability_mean", "mangle_rate", "misgrab_rate"],
    )
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ConfigError):
            make_profile(**{field: 1.5})


@pytest.fixture
def text_extractor(small_world):
    profile = make_profile(name="T", page_coverage=0.5, site_categories=("wiki",))
    linker = EntityLinker("EL-A", small_world.entities, small_world.popularity, seed=1)
    templates = build_templates(small_world.schema)
    return TextExtractor(profile, small_world.schema, linker, templates, seed=1)


def page(url="http://wiki0.example.org/p1", category="wiki"):
    return WebPage(
        url=url,
        site=url.split("/")[2],
        category=category,
        assertions=(),
        elements=(),
    )


def covers(extractor, p):
    return bool(extractor.coverage_mask([p])[0])


class TestCoverage:
    def test_category_restriction(self, text_extractor):
        assert not covers(text_extractor, page(category="general"))

    def test_coverage_deterministic(self, text_extractor):
        p = page()
        assert covers(text_extractor, p) == covers(text_extractor, p)

    def test_coverage_rate_respected(self, small_world):
        linker = EntityLinker(
            "EL-A", small_world.entities, small_world.popularity, seed=1
        )
        templates = build_templates(small_world.schema)
        profile = make_profile(name="half", page_coverage=0.5)
        extractor = TextExtractor(
            profile, small_world.schema, linker, templates, seed=1
        )
        covered = sum(
            covers(extractor, page(url=f"http://s.org/p{i}", category="general"))
            for i in range(400)
        )
        assert 120 <= covered <= 280  # ~50% with deterministic hash draws

    def test_full_coverage(self, small_world):
        linker = EntityLinker(
            "EL-A", small_world.entities, small_world.popularity, seed=1
        )
        templates = build_templates(small_world.schema)
        extractor = TextExtractor(
            make_profile(name="full"), small_world.schema, linker, templates, seed=1
        )
        assert all(
            covers(extractor, page(url=f"http://s.org/p{i}", category="general"))
            for i in range(50)
        )


class TestCoverageMask:
    def test_matches_per_page_covers(self, small_world):
        linker = EntityLinker(
            "EL-A", small_world.entities, small_world.popularity, seed=1
        )
        templates = build_templates(small_world.schema)
        profile = make_profile(
            name="half", page_coverage=0.5, site_categories=("wiki", "news")
        )
        extractor = TextExtractor(
            profile, small_world.schema, linker, templates, seed=1
        )
        categories = ["wiki", "news", "general"]
        pages = [
            page(url=f"http://s.org/p{i}", category=categories[i % 3])
            for i in range(300)
        ]
        mask = extractor.coverage_mask(pages)
        assert mask.dtype == np.bool_
        assert list(mask) == [oracle.covers(extractor, p) for p in pages]

    def test_full_coverage_no_category_filter(self, small_world):
        linker = EntityLinker(
            "EL-A", small_world.entities, small_world.popularity, seed=1
        )
        templates = build_templates(small_world.schema)
        extractor = TextExtractor(
            make_profile(name="full"), small_world.schema, linker, templates, seed=1
        )
        pages = [page(url=f"http://s.org/p{i}", category="general") for i in range(20)]
        assert extractor.coverage_mask(pages).all()

    def test_empty_page_list(self, text_extractor):
        mask = text_extractor.coverage_mask([])
        assert mask.dtype == np.bool_
        assert mask.shape == (0,)


def emit_extractor(small_world, **profile_kwargs):
    linker = EntityLinker("EL-A", small_world.entities, small_world.popularity, seed=1)
    templates = build_templates(small_world.schema)
    profile = make_profile(**profile_kwargs)
    return TextExtractor(profile, small_world.schema, linker, templates, seed=1)


def emit(extractor, predicate, mention, reliability, alternates=()):
    """One record through the emitter (as the row it adds, decoded), which
    must agree with the oracle's scalar ``emit`` on the same draw stream."""
    builder = TableBuilder()
    make_emitter(extractor, np.random.default_rng(0), SynthesisCaches(), builder)(
        page(),
        "/m/1",
        emit_plan(extractor, predicate, None, reliability),
        mention,
        alternates=alternates,
    )
    rows = records_from_wire(builder.finish())
    assert len(rows) <= 1
    record = rows[0] if rows else None
    assert record == oracle.emit(
        extractor,
        page=page(),
        subject_id="/m/1",
        predicate=predicate,
        mention=mention,
        rng=np.random.default_rng(0),
        pattern=None,
        reliability=reliability,
        alternates=alternates,
    )
    return record


STRING_PREDICATE = Predicate(
    pid="t/thing/motto", type_id="t/thing", value_kind=ValueKind.STRING
)
ENTITY_PREDICATE = Predicate(
    pid="t/thing/maker",
    type_id="t/thing",
    value_kind=ValueKind.ENTITY,
    object_type_id="t/thing",
)


class TestEmitStringFallback:
    """A kind-checking extractor with a string-valued predicate must emit
    an entity mention's raw surface as the fallback (regression: the
    fallback arm was unreachable — the kind check fired first)."""

    def emit(self, small_world, predicate, **profile_kwargs):
        return emit(
            emit_extractor(small_world, **profile_kwargs),
            predicate,
            Mention(surface="No Such Entity Anywhere", kind="entity", fact_ref=0),
            reliability=1.0,
        )

    def test_kind_checked_string_predicate_takes_fallback(self, small_world):
        record = self.emit(
            small_world,
            STRING_PREDICATE,
            kind_checking=True,
            string_fallback=True,
        )
        assert record is not None
        assert record.triple.obj == StringValue("No Such Entity Anywhere")

    def test_kind_checked_string_predicate_without_fallback_skips(self, small_world):
        record = self.emit(
            small_world,
            STRING_PREDICATE,
            kind_checking=True,
            string_fallback=False,
        )
        assert record is None

    def test_kind_checker_never_downgrades_entity_predicate(self, small_world):
        record = self.emit(
            small_world,
            ENTITY_PREDICATE,
            kind_checking=True,
            string_fallback=True,
        )
        assert record is None

    def test_unchecked_extractor_still_falls_back(self, small_world):
        record = self.emit(
            small_world,
            ENTITY_PREDICATE,
            kind_checking=False,
            string_fallback=True,
        )
        assert record is not None
        assert record.triple.obj == StringValue("No Such Entity Anywhere")


class TestEmitMisgrabPool:
    """The misgrab pool must exclude value-equal duplicates of the grabbed
    mention (regression: identity filtering let a duplicate re-render of
    the same fact be 'misgrabbed', flagging slot_mismatch on a correct
    extraction)."""

    def emit(self, small_world, mention, alternates):
        extractor = emit_extractor(
            small_world, kind_checking=False, misgrab_rate=1.0
        )
        return emit(
            extractor,
            STRING_PREDICATE,
            mention,
            reliability=0.0,  # misgrab probability = rate * (1 - reliability) = 1
            alternates=alternates,
        )

    def test_value_equal_duplicate_not_misgrabbed(self, small_world):
        mention = Mention(surface="Twice Rendered", kind="string", fact_ref=3)
        duplicate = Mention(surface="Twice Rendered", kind="string", fact_ref=3)
        assert duplicate is not mention and duplicate == mention
        record = self.emit(small_world, mention, alternates=(duplicate,))
        assert record is not None
        assert record.debug.slot_mismatch is False
        assert record.debug.asserted_index == 3

    def test_same_surface_other_fact_not_misgrabbed(self, small_world):
        # A *different* fact sharing the surface (birth and death city both
        # "Paris") would also reproduce the correct triple — grabbing it
        # must not flag slot_mismatch either.
        mention = Mention(surface="Paris", kind="string", fact_ref=3)
        other_fact = Mention(surface="Paris", kind="string", fact_ref=7)
        record = self.emit(small_world, mention, alternates=(other_fact,))
        assert record is not None
        assert record.debug.slot_mismatch is False
        assert record.debug.asserted_index == 3

    def test_distinct_mention_still_misgrabbed(self, small_world):
        mention = Mention(surface="Right Value", kind="string", fact_ref=3)
        other = Mention(surface="Wrong Value", kind="string", fact_ref=4)
        record = self.emit(small_world, mention, alternates=(other,))
        assert record is not None
        assert record.debug.slot_mismatch is True
        assert record.debug.asserted_index == 4


class TestReliability:
    def test_reliability_deterministic(self, text_extractor):
        assert text_extractor.reliability_for("k") == text_extractor.reliability_for(
            "k"
        )

    def test_reliability_varies_by_key(self, text_extractor):
        values = {text_extractor.reliability_for(f"k{i}") for i in range(20)}
        assert len(values) > 10

    def test_reliability_in_unit_interval(self, text_extractor):
        for i in range(50):
            assert 0.0 <= text_extractor.reliability_for(f"k{i}") <= 1.0
