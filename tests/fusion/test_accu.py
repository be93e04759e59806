"""Unit tests for the ACCU posterior math and the iterative fuser."""

import math

import pytest

from repro.extract.records import ExtractionRecord
from repro.fusion import FusionConfig, FusionInput, accu
from repro.fusion.accu import AccuKernel
from repro.kb.triples import Triple
from repro.kb.values import StringValue
from tests.oracle.posteriors import kernel_posteriors


def t(obj):
    return Triple("/m/1", "t/t/p", StringValue(obj))


def accu_posteriors(claims, accuracies, n_false):
    return kernel_posteriors(AccuKernel(n_false), claims, accuracies)


def rec(obj, extractor, url):
    return ExtractionRecord(
        triple=t(obj),
        extractor=extractor,
        url=url,
        site=url.split("/")[2],
        content_type="TXT",
    )


class TestPosteriorMath:
    def test_empty_claims(self):
        assert accu_posteriors({}, {}, 100) == {}

    def test_single_default_source_sticks_to_a(self):
        """One source at accuracy A=0.8 with N=100 false values: the
        posterior is exactly A (τ=ln(400); 400/(400+100) = 0.8)."""
        posteriors = accu_posteriors({t("a"): {("S",)}}, {("S",): 0.8}, 100)
        assert posteriors[t("a")] == pytest.approx(0.8)

    def test_vote_count_formula(self):
        # τ(S) = ln(N·A/(1−A)); check via a two-source agreement.
        accuracy = {("S1",): 0.8, ("S2",): 0.8}
        posteriors = accu_posteriors({t("a"): {("S1",), ("S2",)}}, accuracy, 100)
        tau = math.log(100 * 0.8 / 0.2)
        expected = math.exp(2 * tau) / (math.exp(2 * tau) + 100)
        assert posteriors[t("a")] == pytest.approx(expected)

    def test_higher_accuracy_source_wins_conflict(self):
        accuracy = {("good",): 0.95, ("bad",): 0.55}
        posteriors = accu_posteriors(
            {t("a"): {("good",)}, t("b"): {("bad",)}}, accuracy, 100
        )
        assert posteriors[t("a")] > posteriors[t("b")]

    def test_posteriors_never_exceed_one(self):
        accuracy = {(f"S{i}",): 0.99 for i in range(20)}
        claims = {t("a"): set(accuracy)}
        posteriors = accu_posteriors(claims, accuracy, 100)
        assert 0.0 <= posteriors[t("a")] <= 1.0

    def test_low_accuracy_source_votes_against(self):
        """A source with accuracy below 1/(N+1) has negative vote count, so
        its value gets less mass than an unobserved one."""
        posteriors = accu_posteriors({t("a"): {("S",)}}, {("S",): 0.001}, 100)
        assert posteriors[t("a")] < 1.0 / 101

    def test_extreme_accuracy_clamped(self):
        posteriors = accu_posteriors({t("a"): {("S",)}}, {("S",): 1.0}, 100)
        assert 0.0 <= posteriors[t("a")] <= 1.0


class TestAccuFuser:
    def test_agreement_beats_lone_dissent(self):
        records = [rec("a", "E1", "http://s1.org/p"), rec("a", "E2", "http://s2.org/p"),
                   rec("b", "E3", "http://s3.org/p")]
        result = accu().fuse(FusionInput(records))
        probs = {tr.obj.text: p for tr, p in result.probabilities.items()}
        assert probs["a"] > probs["b"]

    def test_respects_max_rounds(self, tiny_scenario):
        config = FusionConfig(max_rounds=2, convergence_tol=0.0)
        result = accu(config).fuse(tiny_scenario.fusion_input())
        assert result.rounds == 2

    def test_unanimous_input_converges_quickly(self):
        """Convergence on real corpora is slow (hence the forced R=5); on a
        conflict-free input the accuracies saturate within a few rounds."""
        records = [rec("a", f"E{i}", f"http://s{i}.org/p") for i in range(4)]
        config = FusionConfig(max_rounds=30, convergence_tol=1e-4)
        result = accu(config).fuse(FusionInput(records))
        assert result.converged
        assert result.rounds < 30

    def test_forced_termination_on_real_corpus(self, tiny_scenario):
        """The paper's motivation for R: the EM loop keeps moving for many
        rounds on real data, so termination must be forced."""
        config = FusionConfig(max_rounds=5, convergence_tol=1e-4)
        result = accu(config).fuse(tiny_scenario.fusion_input())
        assert result.rounds == 5
        assert not result.converged

    def test_all_probabilities_valid(self, tiny_scenario):
        result = accu().fuse(tiny_scenario.fusion_input())
        for probability in result.probabilities.values():
            assert 0.0 <= probability <= 1.0

    def test_accuracies_estimated_per_provenance(self, tiny_scenario):
        result = accu().fuse(tiny_scenario.fusion_input())
        assert result.accuracies
        for accuracy in result.accuracies.values():
            assert 0.0 <= accuracy <= 1.0
