"""Unit tests for the iterative runner: filters, gold init, fallbacks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.extract.records import ExtractionRecord
from repro.fusion import FusionConfig, FusionInput
from repro.fusion.popaccu import PopAccu, PopAccuKernel
from repro.fusion.runner import _gold_subsample, run_bayesian_fusion
from repro.kb.triples import Triple
from repro.kb.values import StringValue


def t(subject, obj):
    return Triple(subject, "t/t/p", StringValue(obj))


def rec(subject, obj, extractor, url):
    return ExtractionRecord(
        triple=t(subject, obj),
        extractor=extractor,
        url=url,
        site=url.split("/")[2],
        content_type="TXT",
    )


def lonely_plus_supported():
    """One item with a twice-claimed triple, one single-claim-singleton item."""
    records = [
        rec("/m/1", "a", "E1", "http://s1.org/p"),
        rec("/m/1", "a", "E2", "http://s2.org/p"),
        rec("/m/2", "x", "E3", "http://s3.org/p"),  # singleton provenance
    ]
    return FusionInput(records)


class TestCoverageFilter:
    def test_singleton_items_unpredicted(self):
        config = FusionConfig(filter_by_coverage=True)
        result = PopAccu(config).fuse(lonely_plus_supported())
        assert t("/m/2", "x") in result.unpredicted
        assert t("/m/1", "a") in result.probabilities

    def test_without_filter_everything_predicted(self):
        result = PopAccu(FusionConfig()).fuse(lonely_plus_supported())
        assert not result.unpredicted
        assert len(result.probabilities) == 2


class TestAccuracyFilter:
    def test_fallback_probability_is_mean_accuracy(self):
        # θ=0.99 filters every provenance; fallback = mean accuracy of the
        # triple's own provenances (all still at default 0.8).
        config = FusionConfig(min_accuracy=0.99, max_rounds=1)
        result = PopAccu(config).fuse(lonely_plus_supported())
        assert result.probabilities[t("/m/2", "x")] == pytest.approx(0.8)
        assert not result.unpredicted

    def test_moderate_theta_keeps_good_provenances(self, tiny_scenario):
        config = FusionConfig(min_accuracy=0.1)
        result = PopAccu(config).fuse(tiny_scenario.fusion_input())
        assert result.probabilities
        for probability in result.probabilities.values():
            assert 0.0 <= probability <= 1.0


class TestGoldInitialization:
    def test_gold_sets_initial_accuracy(self):
        fusion_input = lonely_plus_supported()
        gold = {t("/m/1", "a").canonical(): True, t("/m/2", "x").canonical(): False}
        config = FusionConfig(max_rounds=1)
        result = PopAccu(config, gold_labels=gold).fuse(fusion_input)
        assert result.diagnostics["gold_initialized"] == 3
        # E3's only triple is gold-false: accuracy starts at 0 -> its lone
        # claim gets a very low probability.
        assert result.probabilities[t("/m/2", "x")] < 0.1

    def test_gold_subsample_deterministic(self):
        gold = {t("/m/1", str(i)).canonical(): bool(i % 2) for i in range(200)}
        a = _gold_subsample(gold, 0.5, seed=3)
        b = _gold_subsample(gold, 0.5, seed=3)
        assert a == b
        assert 40 <= len(a) <= 160

    def test_gold_subsample_full_rate_is_identity(self):
        gold = {t("/m/1", "a").canonical(): True}
        assert _gold_subsample(gold, 1.0, seed=3) is gold

    def test_gold_subsample_rate_scales(self):
        gold = {t("/m/1", str(i)).canonical(): True for i in range(1000)}
        small = _gold_subsample(gold, 0.1, seed=3)
        large = _gold_subsample(gold, 0.9, seed=3)
        assert len(small) < len(large)


class TestTrackRounds:
    def test_round_probabilities_recorded(self, tiny_scenario):
        config = FusionConfig(max_rounds=3, convergence_tol=0.0)
        result = run_bayesian_fusion(
            fusion_input=tiny_scenario.fusion_input(),
            config=config,
            item_posterior_fn=PopAccuKernel(),
            method_name="POPACCU",
            track_rounds=True,
        )
        snapshots = result.diagnostics["round_probabilities"]
        assert len(snapshots) == 3
        # Round 1 differs from round 2 (accuracies moved).
        assert snapshots[0] != snapshots[1]


class TestDiagnostics:
    def test_diagnostics_populated(self, tiny_scenario):
        result = PopAccu(FusionConfig()).fuse(tiny_scenario.fusion_input())
        diagnostics = result.diagnostics
        assert diagnostics["n_items"] > 0
        assert diagnostics["n_provenances"] > 0
        assert diagnostics["n_claims"] >= diagnostics["n_items"]


#: Prints, for ``tiny`` seed 0 fused POPACCU+ and POPACCU+ without the θ
#: fallback (which leaves the coverage filter's rows unpredicted): a
#: sha256 over the probabilities and accuracies in result order, then the
#: unpredicted triples in ``set`` iteration order.
_HASH_SEED_SCRIPT = """
import hashlib
from dataclasses import replace
from repro.datasets import build_scenario, tiny_config
from repro.fusion import FusionConfig
from repro.fusion.presets import PopAccuPlus, popaccu_plus

scenario = build_scenario(tiny_config(seed=0))
plus = popaccu_plus(scenario.gold, FusionConfig(seed=0))
no_theta = PopAccuPlus(replace(plus.config, min_accuracy=None), gold_labels=scenario.gold)
for fuser in (plus, no_theta):
    result = fuser.fuse(scenario.fusion_input())
    digest = hashlib.sha256()
    digest.update(repr(list(result.probabilities.items())).encode())
    digest.update(repr(list(result.accuracies.items())).encode())
    print(digest.hexdigest())
    print(len(result.unpredicted), *(t.canonical() for t in result.unpredicted), sep="\\n")
"""


class TestHashSeedIndependence:
    def test_result_and_unpredicted_order_are_the_same_in_every_process(self):
        """Triples hash by their canonical text, so two processes with
        different ``PYTHONHASHSEED`` give the same result digest and
        iterate ``result.unpredicted`` in the same order."""
        root = Path(__file__).resolve().parents[2]
        outputs = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_SCRIPT],
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": str(root / "src"),
                },
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.splitlines())
        assert outputs[0] == outputs[1]
        _, plus_unpredicted, _, n_unpredicted, *unpredicted = outputs[0]
        assert plus_unpredicted == "0"  # θ scores every row
        assert int(n_unpredicted) == len(unpredicted) > 1
