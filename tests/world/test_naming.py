"""Unit tests for the deterministic name forge."""

import numpy as np
import pytest

from repro.world.naming import NameForge


@pytest.fixture
def forge():
    return NameForge(rng=np.random.default_rng(42))


class TestUniqueness:
    def test_person_names_unique(self, forge):
        names = [forge.person_name() for _ in range(200)]
        assert len(set(names)) == 200

    def test_uniqueness_spans_kinds(self, forge):
        names = [forge.person_name() for _ in range(50)]
        names += [forge.place_name() for _ in range(50)]
        names += [forge.org_name() for _ in range(50)]
        names += [forge.work_title() for _ in range(50)]
        assert len(set(names)) == 200


class TestDeterminism:
    def test_same_seed_same_names(self):
        a = NameForge(rng=np.random.default_rng(7))
        b = NameForge(rng=np.random.default_rng(7))
        assert [a.person_name() for _ in range(10)] == [
            b.person_name() for _ in range(10)
        ]

    def test_different_seed_different_names(self):
        a = NameForge(rng=np.random.default_rng(7))
        b = NameForge(rng=np.random.default_rng(8))
        assert [a.person_name() for _ in range(10)] != [
            b.person_name() for _ in range(10)
        ]


class TestShapes:
    def test_person_name_has_multiple_words(self, forge):
        assert len(forge.person_name().split()) >= 2

    def test_mountain_prefix(self, forge):
        assert forge.mountain_name().startswith("Mount ")

    def test_team_name_pluralised(self, forge):
        assert forge.team_name().endswith("s")

    def test_alias_differs_from_name(self, forge):
        name = forge.person_name()
        alias = forge.alias_for(name)
        assert alias != name
        assert alias  # non-empty

    def test_date_in_range(self, forge):
        for _ in range(50):
            iso = forge.date()
            year, month, day = (int(x) for x in iso.split("-"))
            assert 1900 <= year <= 2010
            assert 1 <= month <= 12
            assert 1 <= day <= 28

    def test_species_name_is_a_binomial(self, forge):
        genus, epithet = forge.species_name().split()
        assert genus[0].isupper() and epithet.islower()

    def test_award_and_landmark_shapes(self, forge):
        assert forge.award().endswith(" Prize")
        landmark = forge.landmark().split()
        assert landmark[0] == "The" and len(landmark) == 3

    def test_closed_vocabularies_draw_from_their_pools(self, forge):
        from repro.world import naming

        for method, pool in (
            ("color", naming._COLORS),
            ("habitat", naming._HABITATS),
            ("platform", naming._PLATFORMS),
        ):
            draws = {getattr(forge, method)() for _ in range(200)}
            assert draws == set(pool)

    def test_exhausted_draws_get_a_numbered_name(self, forge):
        assert forge._unique(lambda: "Echo") == "Echo"
        assert forge._unique(lambda: "Echo") == "Echo 1"
        assert "Echo 1" in forge._used

    def test_literal_vocabularies_nonempty(self, forge):
        for method in (
            "profession",
            "genre",
            "industry",
            "sport",
            "species_class",
            "language",
        ):
            assert getattr(forge, method)()
