"""Unit tests for the POPACCU posterior math and the iterative fuser."""

import pytest

from repro.extract.records import ExtractionRecord
from repro.fusion import FusionConfig, popaccu
from repro.fusion.accu import AccuKernel
from repro.fusion.popaccu import PopAccuKernel
from repro.kb.triples import Triple
from repro.kb.values import StringValue
from tests.oracle.posteriors import kernel_posteriors


def t(obj):
    return Triple("/m/1", "t/t/p", StringValue(obj))


def popaccu_posteriors(claims, accuracies):
    return kernel_posteriors(PopAccuKernel(), claims, accuracies)


def rec(obj, extractor, url):
    return ExtractionRecord(
        triple=t(obj),
        extractor=extractor,
        url=url,
        site=url.split("/")[2],
        content_type="TXT",
    )


class TestPosteriorMath:
    """The paper's §4.2 'sticking' behaviours are exact predictions."""

    def test_empty_claims(self):
        assert popaccu_posteriors({}, {}) == {}

    def test_single_default_provenance_sticks_to_08(self):
        posteriors = popaccu_posteriors({t("a"): {("S",)}}, {("S",): 0.8})
        assert posteriors[t("a")] == pytest.approx(0.8)

    def test_two_agreeing_defaults(self):
        accuracy = {("S1",): 0.8, ("S2",): 0.8}
        posteriors = popaccu_posteriors({t("a"): {("S1",), ("S2",)}}, accuracy)
        # L(a) = 0.64, L(OTHER) = 0.04 -> 0.9412...
        assert posteriors[t("a")] == pytest.approx(0.64 / 0.68)

    def test_two_conflicting_defaults_near_half(self):
        accuracy = {("S1",): 0.8, ("S2",): 0.8}
        posteriors = popaccu_posteriors(
            {t("a"): {("S1",)}, t("b"): {("S2",)}}, accuracy
        )
        assert posteriors[t("a")] == pytest.approx(posteriors[t("b")])
        assert 0.4 < posteriors[t("a")] < 0.5  # the Figure 9 valley at ~0.5

    def test_posterior_mass_leq_one(self):
        accuracy = {(f"S{i}",): 0.7 for i in range(6)}
        claims = {
            t("a"): {("S0",), ("S1",), ("S2",)},
            t("b"): {("S3",), ("S4",)},
            t("c"): {("S5",)},
        }
        posteriors = popaccu_posteriors(claims, accuracy)
        assert sum(posteriors.values()) <= 1.0 + 1e-9

    def test_popular_false_value_discounted_vs_accu(self):
        """POPACCU's raison d'etre: a value repeated by many provenances is
        partially explained as a *popular false value*, so its posterior is
        lower than ACCU's for the same observations."""
        accuracy = {(f"S{i}",): 0.8 for i in range(12)}
        claims = {
            t("copied"): {(f"S{i}",) for i in range(9)},
            t("minority"): {("S9",), ("S10",), ("S11",)},
        }
        pop = popaccu_posteriors(claims, accuracy)
        acc = kernel_posteriors(AccuKernel(100), claims, accuracy)
        assert pop[t("copied")] < acc[t("copied")]

    def test_extreme_accuracy_clamped(self):
        posteriors = popaccu_posteriors({t("a"): {("S",)}}, {("S",): 1.0})
        assert 0.0 <= posteriors[t("a")] <= 1.0


class TestPopAccuFuser:
    def test_all_probabilities_valid(self, tiny_scenario):
        result = popaccu().fuse(tiny_scenario.fusion_input())
        for probability in result.probabilities.values():
            assert 0.0 <= probability <= 1.0

    def test_item_mass_at_most_one(self, tiny_scenario):
        from collections import defaultdict

        result = popaccu().fuse(tiny_scenario.fusion_input())
        by_item = defaultdict(float)
        for triple, probability in result.probabilities.items():
            by_item[triple.data_item] += probability
        for total in by_item.values():
            assert total <= 1.0 + 1e-6

    def test_round_cap(self, tiny_scenario):
        config = FusionConfig(max_rounds=1)
        result = popaccu(config).fuse(tiny_scenario.fusion_input())
        assert result.rounds == 1

    def test_covers_every_unique_triple(self, tiny_scenario):
        result = popaccu().fuse(tiny_scenario.fusion_input())
        predicted = set(result.probabilities) | result.unpredicted
        assert predicted == set(tiny_scenario.unique_triples())
