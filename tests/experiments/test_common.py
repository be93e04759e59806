"""Unit tests for the shared experiment helpers."""

import pytest

from repro.experiments.common import (
    Metrics,
    metrics_for,
    standard_fusion_results,
    unique_triple_accuracy,
)
from repro.kb.triples import Triple
from repro.kb.values import StringValue


def t(name):
    return Triple("/m/1", "t/t/p", StringValue(name))


def k(name):
    """The gold key of ``t(name)``: its canonical text."""
    return t(name).canonical()


class TestStandardResults:
    def test_five_methods(self, tiny_scenario):
        results = standard_fusion_results(tiny_scenario)
        assert set(results) == {
            "VOTE",
            "ACCU",
            "POPACCU",
            "POPACCU+(unsup)",
            "POPACCU+",
        }

    def test_cached_on_scenario(self, tiny_scenario):
        first = standard_fusion_results(tiny_scenario)
        second = standard_fusion_results(tiny_scenario)
        assert first is second


class TestMetricsFor:
    def test_rows(self):
        gold = {k("a"): True, k("b"): False}
        metrics = metrics_for({t("a"): 0.9, t("b"): 0.1}, gold)
        assert isinstance(metrics, Metrics)
        dev, wdev, auc = metrics.row()
        assert 0 <= dev <= 1 and 0 <= wdev <= 1 and 0 <= auc <= 1

    def test_oracle_scores_perfectly(self):
        gold = {k(f"x{i}"): i % 2 == 0 for i in range(20)}
        oracle = {Triple.from_canonical(text): float(label) for text, label in gold.items()}
        metrics = metrics_for(oracle, gold)
        assert metrics.wdev == pytest.approx(0.0)
        assert metrics.auc_pr == pytest.approx(1.0)


class TestUniqueTripleAccuracy:
    def test_counts_only_labelled(self):
        gold = {k("a"): True}
        n, accuracy = unique_triple_accuracy([k("a"), k("b")], gold)
        assert n == 1
        assert accuracy == pytest.approx(1.0)

    def test_no_labels(self):
        n, accuracy = unique_triple_accuracy([k("zz")], {})
        assert n == 0
        assert accuracy is None

    def test_mixed(self):
        gold = {k("a"): True, k("b"): False}
        _n, accuracy = unique_triple_accuracy([k("a"), k("b")], gold)
        assert accuracy == pytest.approx(0.5)
