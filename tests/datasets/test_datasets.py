"""Unit tests for profiles, presets and the scenario builder."""

import pytest

from repro.datasets import (
    EXTRACTOR_PROFILES,
    build_scenario,
    medium_config,
    small_config,
    tiny_config,
)


class TestProfiles:
    def test_twelve_extractors(self):
        assert len(EXTRACTOR_PROFILES) == 12

    def test_paper_names(self):
        names = [p.name for p in EXTRACTOR_PROFILES]
        assert names == [
            "TXT1", "TXT2", "TXT3", "TXT4",
            "DOM1", "DOM2", "DOM3", "DOM4", "DOM5",
            "TBL1", "TBL2", "ANO",
        ]

    def test_content_type_split(self):
        by_primary = {}
        for profile in EXTRACTOR_PROFILES:
            by_primary.setdefault(profile.content_types[0], []).append(profile.name)
        assert len(by_primary["TXT"]) == 4
        assert len(by_primary["DOM"]) == 5
        assert len(by_primary["TBL"]) == 2
        assert len(by_primary["ANO"]) == 1

    def test_two_shared_linkers(self):
        linkers = {p.linker for p in EXTRACTOR_PROFILES}
        assert linkers == {"EL-A", "EL-B"}

    def test_no_confidence_extractors_match_table2(self):
        no_conf = {p.name for p in EXTRACTOR_PROFILES if p.confidence == "none"}
        assert no_conf == {"DOM5", "TBL2"}

    def test_site_restrictions_match_paper(self):
        profiles = {p.name: p for p in EXTRACTOR_PROFILES}
        assert profiles["TXT4"].site_categories == ("wiki",)
        assert profiles["DOM5"].site_categories == ("wiki",)
        assert profiles["TXT3"].site_categories == ("news",)
        assert profiles["DOM1"].site_categories is None


class TestPresets:
    def test_sizes_ordered(self):
        tiny, small, medium = tiny_config(), small_config(), medium_config()
        assert (
            tiny.world.n_entities < small.world.n_entities < medium.world.n_entities
        )
        assert tiny.web.n_pages < small.web.n_pages < medium.web.n_pages

    def test_seed_passed_through(self):
        assert tiny_config(seed=42).seed == 42


class TestScenario:
    def test_cache_returns_same_object(self):
        a = build_scenario(tiny_config(seed=21))
        b = build_scenario(tiny_config(seed=21))
        assert a is b

    def test_cache_bypass(self):
        a = build_scenario(tiny_config(seed=22))
        b = build_scenario(tiny_config(seed=22), use_cache=False)
        assert a is not b
        assert list(a.records) == list(b.records)

    def test_gold_labels_subset_of_unique_triples(self, tiny_scenario):
        unique = {triple.canonical() for triple in tiny_scenario.unique_triples()}
        assert set(tiny_scenario.gold) <= unique

    def test_gold_coverage_in_paper_ballpark(self, tiny_scenario):
        stats = tiny_scenario.extraction_stats()
        # The paper: 40% of triples labelled; we aim for the same regime.
        assert 0.25 <= stats["gold_coverage"] <= 0.75

    def test_overall_accuracy_in_paper_ballpark(self, tiny_scenario):
        stats = tiny_scenario.extraction_stats()
        # The paper: ~30% of labelled triples are true.
        assert 0.1 <= stats["gold_accuracy"] <= 0.5

    def test_fusion_input_cached(self, tiny_scenario):
        assert tiny_scenario.fusion_input() is tiny_scenario.fusion_input()

    def test_different_seeds_differ(self, tiny_scenario, tiny_scenario_alt_seed):
        assert list(tiny_scenario.records) != list(tiny_scenario_alt_seed.records)

    @pytest.mark.parallel_backend
    def test_build_scenario_on_caller_managed_executor(self, tiny_scenario):
        """A shared worker pool can drive scenario extraction; the records
        are bit-identical to the cached serial build."""
        from repro.datasets import tiny_config
        from repro.mapreduce.executors import ParallelExecutor

        with ParallelExecutor(max_workers=2) as executor:
            scenario = build_scenario(
                tiny_config(seed=7), use_cache=False, executor=executor
            )
        assert list(scenario.records) == list(tiny_scenario.records)
        assert scenario.gold == tiny_scenario.gold
