"""Tests for the §5 future-direction fusers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import FusionError
from repro.experiments.common import metrics_for
from repro.extract.records import ExtractionRecord
from repro.fusion import FusionConfig, FusionInput, Granularity, popaccu
from repro.fusion.extensions import (
    ConfidenceWeightedFuser,
    HierarchicalFuser,
    MultiTruthFuser,
    SplitQualityFuser,
)
from repro.kb.triples import Triple
from repro.kb.values import EntityRef, StringValue
from repro.mapreduce.executors import ExecutionPlan, ParallelExecutor


def rec(subject, obj, extractor, url, predicate="t/t/p", confidence=None):
    return ExtractionRecord(
        triple=Triple(subject, predicate, StringValue(obj)),
        extractor=extractor,
        url=url,
        site=url.split("/")[2],
        content_type="TXT",
        confidence=confidence,
    )


class TestSplitQuality:
    def test_probabilities_valid(self, tiny_scenario):
        result = SplitQualityFuser(FusionConfig()).fuse(tiny_scenario.fusion_input())
        for probability in result.probabilities.values():
            assert 0.0 <= probability <= 1.0

    def test_factors_exposed(self, tiny_scenario):
        result = SplitQualityFuser(FusionConfig()).fuse(tiny_scenario.fusion_input())
        assert result.diagnostics["extractor_quality"]
        assert result.diagnostics["site_accuracy"]

    def test_bad_extractor_gets_low_quality(self, tiny_scenario):
        """DOM2 (the sloppy extractor) must score below TXT4/DOM3."""
        result = SplitQualityFuser(FusionConfig()).fuse(tiny_scenario.fusion_input())
        quality = result.diagnostics["extractor_quality"]
        if "DOM2" in quality and "DOM3" in quality:
            assert quality["DOM2"] < quality["DOM3"]

    def test_correlated_extractor_error_discounted(self):
        """The same wrong value pushed by ONE consistently-bad extractor
        across many sites should lose to a value confirmed by several good
        extractors on fewer sites — the Figure 18 signal that the
        (Extractor, URL) cross-product buries.  Plain ACCU, for contrast,
        follows the site majority and keeps the wrong value."""
        from repro.fusion import accu

        good = ["G1", "G2", "G3", "G4"]
        records = []
        # Extractor BAD claims "wrong" on 6 different sites for item A.
        for i in range(6):
            records.append(rec("/m/a", "wrong", "BAD", f"http://s{i}.org/p"))
        # Four good extractors claim "right" on 4 sites.
        for i, extractor in enumerate(good):
            records.append(rec("/m/a", "right", extractor, f"http://t{i}.org/p"))
        # Ground the extractor qualities: on many other items, BAD
        # contradicts the consensus of the good extractors.
        for j in range(20):
            for i, extractor in enumerate(good):
                records.append(
                    rec(f"/m/x{j}", "consensus", extractor, f"http://u{i}{j}.org/p")
                )
            records.append(rec(f"/m/x{j}", "lone", "BAD", f"http://v{j}.org/p"))
        fusion_input = FusionInput(records)
        split = SplitQualityFuser(FusionConfig(max_rounds=8)).fuse(fusion_input)
        probabilities = {
            (t.subject, t.obj.text): p for t, p in split.probabilities.items()
        }
        assert probabilities[("/m/a", "right")] > probabilities[("/m/a", "wrong")]
        assert (
            split.diagnostics["extractor_quality"]["BAD"]
            < split.diagnostics["extractor_quality"]["G1"]
        )
        plain = accu().fuse(fusion_input)
        plain_probabilities = {
            (t.subject, t.obj.text): p for t, p in plain.probabilities.items()
        }
        assert plain_probabilities[("/m/a", "wrong")] > plain_probabilities[
            ("/m/a", "right")
        ]


class TestMultiTruth:
    def test_probabilities_valid(self, tiny_scenario):
        result = MultiTruthFuser(FusionConfig(max_rounds=3)).fuse(
            tiny_scenario.fusion_input()
        )
        for probability in result.probabilities.values():
            assert 0.0 <= probability <= 1.0

    def test_functionality_learned_per_predicate(self, tiny_scenario):
        fuser = MultiTruthFuser(FusionConfig(max_rounds=2))
        functionality = fuser.learned_functionality(tiny_scenario.fusion_input())
        assert functionality
        for value in functionality.values():
            assert value > 0

    def test_two_truths_can_both_score_high(self):
        """The defining capability: two well-supported values of one item
        both get probability > 0.5 (single-truth methods cap the pair)."""
        records = []
        for i in range(5):
            records.append(rec("/m/a", "truth1", f"E{i}", f"http://s{i}.org/p"))
            records.append(rec("/m/a", "truth2", f"E{i}", f"http://s{i}.org/q"))
        result = MultiTruthFuser(FusionConfig(max_rounds=4)).fuse(
            FusionInput(records)
        )
        values = {t.obj.text: p for t, p in result.probabilities.items()}
        assert values["truth1"] > 0.5
        assert values["truth2"] > 0.5
        single = popaccu().fuse(FusionInput(records))
        single_values = {t.obj.text: p for t, p in single.probabilities.items()}
        assert single_values["truth1"] + single_values["truth2"] <= 1.0 + 1e-9

    def test_improves_recall_of_non_functional_truths(self, tiny_scenario):
        """Against the world's own truth (not LCWA), multi-truth fusion
        should recover more true values of non-functional predicates at
        p > 0.5 than POPACCU."""
        fusion_input = tiny_scenario.fusion_input()
        world = tiny_scenario.world
        base = popaccu().fuse(fusion_input).probabilities
        multi = MultiTruthFuser(FusionConfig(max_rounds=3)).fuse(
            fusion_input
        ).probabilities

        def recovered(probabilities):
            count = 0
            for triple, probability in probabilities.items():
                predicate = world.schema.predicates.get(triple.predicate)
                if predicate is None or predicate.functional:
                    continue
                if probability > 0.5 and world.is_true_exact(triple):
                    count += 1
            return count

        assert recovered(multi) >= recovered(base)


class TestHierarchical:
    def test_probabilities_valid(self, tiny_scenario):
        fuser = HierarchicalFuser(
            tiny_scenario.world.schema,
            tiny_scenario.world.hierarchy,
            FusionConfig(max_rounds=3),
        )
        result = fuser.fuse(tiny_scenario.fusion_input())
        for probability in result.probabilities.values():
            assert 0.0 <= probability <= 1.0

    def test_cities_in_one_state_support_the_state(self, tiny_scenario):
        """§5.4's example: conflicting cities within one state lift the
        state's probability above any single city's."""
        world = tiny_scenario.world
        hierarchy = world.hierarchy
        # Find a region with >= 2 leaf children.
        region = next(
            (
                r
                for r in (entity.entity_id for entity in world.entities)
                if len(hierarchy.children(r)) >= 2
                and all(not hierarchy.children(c) for c in hierarchy.children(r))
            ),
            None,
        )
        if region is None:
            pytest.skip("no suitable region in this world")
        cities = hierarchy.children(region)[:2]
        pid = "people/person/birth_place"
        records = []
        for i, city in enumerate(cities):
            for j in range(2):
                records.append(
                    ExtractionRecord(
                        triple=Triple("/m/subject", pid, EntityRef(city)),
                        extractor=f"E{i}{j}",
                        url=f"http://s{i}{j}.org/p",
                        site=f"s{i}{j}.org",
                        content_type="TXT",
                    )
                )
        records.append(
            ExtractionRecord(
                triple=Triple("/m/subject", pid, EntityRef(region)),
                extractor="ER",
                url="http://r.org/p",
                site="r.org",
                content_type="TXT",
            )
        )
        fuser = HierarchicalFuser(
            world.schema, hierarchy, FusionConfig(max_rounds=2)
        )
        result = fuser.fuse(FusionInput(records))
        by_entity = {
            t.obj.entity_id: p for t, p in result.probabilities.items()
        }
        assert by_entity[region] > max(by_entity[c] for c in cities)


class TestConfidenceWeighted:
    def test_probabilities_valid(self, tiny_scenario):
        result = ConfidenceWeightedFuser(FusionConfig(max_rounds=3)).fuse(
            tiny_scenario.fusion_input()
        )
        for probability in result.probabilities.values():
            assert 0.0 <= probability <= 1.0

    def test_confident_claim_outweighs_diffident_claim(self):
        records = [
            rec("/m/a", "sure", "E1", "http://s1.org/p", confidence=0.95),
            rec("/m/a", "unsure", "E1", "http://s2.org/p", confidence=0.05),
            # Spread E1's confidence distribution so ranks differ.
            rec("/m/z", "pad1", "E1", "http://s3.org/p", confidence=0.5),
            rec("/m/z2", "pad2", "E1", "http://s4.org/p", confidence=0.6),
        ]
        result = ConfidenceWeightedFuser(FusionConfig(max_rounds=1)).fuse(
            FusionInput(records)
        )
        values = {
            (t.subject, t.obj.text): p for t, p in result.probabilities.items()
        }
        assert values[("/m/a", "sure")] > values[("/m/a", "unsure")]

    def test_rank_normalisation_is_per_extractor(self):
        """A 0.6 from a hug-the-middle extractor can outrank a 0.6 from an
        extreme extractor: weights depend on each extractor's own
        distribution, not the raw value."""
        fuser = ConfidenceWeightedFuser(FusionConfig())
        records = [
            # Extractor MID emits confidences in [0.4, 0.6]: 0.6 is its max.
            rec("/m/1", "a", "MID", "http://m1.org/p", confidence=0.6),
            rec("/m/2", "b", "MID", "http://m2.org/p", confidence=0.4),
            rec("/m/3", "c", "MID", "http://m3.org/p", confidence=0.5),
            # Extractor EXT emits extremes: 0.6 is its *lowest*.
            rec("/m/4", "d", "EXT", "http://e1.org/p", confidence=0.6),
            rec("/m/5", "e", "EXT", "http://e2.org/p", confidence=0.95),
            rec("/m/6", "f", "EXT", "http://e3.org/p", confidence=0.99),
        ]
        fusion_input = FusionInput(records)
        cols = fusion_input.claims(fuser.config.granularity)
        weights = fuser.claim_weights(fusion_input, cols)
        # One claim per row here, so the weight column is indexed by row.
        by_subject = {
            triple.subject: weight
            for triple, weight in zip(cols.triples, weights.tolist(), strict=True)
        }
        assert by_subject["/m/1"] == 1.0  # MID's own maximum
        assert by_subject["/m/4"] == pytest.approx(1 / 3)  # EXT's own minimum

    def test_claim_keeps_its_best_record_weight(self):
        """Two records of one claim (two patterns): the weight column holds
        the larger rank; a confidence-less record weighs 0.5."""
        records = [
            rec("/m/a", "v", "E1", "http://s1.org/p", confidence=0.1),
            rec("/m/a", "v", "E1", "http://s1.org/p", confidence=0.9),
            rec("/m/b", "w", "E1", "http://s2.org/p", confidence=0.5),
            rec("/m/c", "x", "E2", "http://s3.org/p"),
        ]
        fusion_input = FusionInput(records)
        cols = fusion_input.claims(Granularity.EXTRACTOR_URL)
        weights = ConfidenceWeightedFuser().claim_weights(fusion_input, cols)
        assert weights.tolist() == [1.0, pytest.approx(2 / 3), 0.5]

    def test_bare_columns_are_rejected(self, tiny_scenario):
        """Confidences live on the records; columns alone cannot carry them."""
        cols = tiny_scenario.fusion_input().claims(Granularity.EXTRACTOR_URL)
        with pytest.raises(FusionError, match="confidences"):
            ConfidenceWeightedFuser().fuse(FusionInput.from_columns(cols))

    def test_better_auc_than_unweighted_accu_on_scenario(self, tiny_scenario):
        """The ablation claim: confidence weighting should not hurt AUC-PR
        (it usually helps — confidences carry real signal)."""
        from repro.fusion import accu

        fusion_input = tiny_scenario.fusion_input()
        weighted = ConfidenceWeightedFuser(FusionConfig()).fuse(fusion_input)
        plain = accu().fuse(fusion_input)
        weighted_metrics = metrics_for(weighted.probabilities, tiny_scenario.gold)
        plain_metrics = metrics_for(plain.probabilities, tiny_scenario.gold)
        assert weighted_metrics.auc_pr > plain_metrics.auc_pr - 0.05


def _fusers(world):
    """The four fusers as every caller configures them."""
    return (
        SplitQualityFuser(FusionConfig()),
        MultiTruthFuser(FusionConfig(max_rounds=3)),
        HierarchicalFuser(world.schema, world.hierarchy, FusionConfig(max_rounds=3)),
        ConfidenceWeightedFuser(FusionConfig()),
    )


class TestReadTheClaimColumns:
    def test_bare_columns_fuse_like_the_records(self, tiny_scenario):
        """The three fusers that need nothing but the claims fuse a
        record-less input, and equal the record-built run exactly."""
        from_records = tiny_scenario.fusion_input()
        for fuser in _fusers(tiny_scenario.world)[:3]:
            granularity = (
                Granularity.EXTRACTOR_SITE
                if isinstance(fuser, SplitQualityFuser)
                else fuser.config.granularity
            )
            cols = from_records.claims(granularity)
            ours = fuser.fuse(FusionInput.from_columns(cols))
            theirs = fuser.fuse(from_records)
            assert list(ours.probabilities.items()) == list(theirs.probabilities.items())
            assert ours.accuracies == theirs.accuracies
            assert ours.diagnostics == theirs.diagnostics
            assert (ours.rounds, ours.converged) == (theirs.rounds, theirs.converged)

    @pytest.mark.parallel_backend
    def test_multitruth_bootstrap_shares_the_callers_executor(
        self, tiny_scenario, monkeypatch
    ):
        """A pooled ``config.backend`` with a caller-managed pool: the
        bootstrap POPACCU pass must run on it, not start a second pool."""
        monkeypatch.setattr(ExecutionPlan, "executor", pytest.fail)
        fuser = MultiTruthFuser(FusionConfig(max_rounds=2, backend="hybrid"))
        with ParallelExecutor(max_workers=2) as executor:
            pooled = fuser.fuse(tiny_scenario.fusion_input(), executor=executor)
            assert executor._pool is not None
        serial = MultiTruthFuser(FusionConfig(max_rounds=2)).fuse(
            tiny_scenario.fusion_input()
        )
        assert pooled.probabilities == pytest.approx(serial.probabilities, abs=1e-9)

    def test_output_is_independent_of_the_hash_seed(self):
        """No float is summed in ``set`` order: a digest over every output,
        in result order, is the same under two ``PYTHONHASHSEED`` values."""
        root = Path(__file__).resolve().parents[2]
        digests = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
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
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 4
        assert digests[0] == digests[1]


#: Prints one sha256 per extension fuser at ``tiny``: over
#: ``(triple.canonical(), repr(p))`` in result order, then the ``repr`` of
#: the accuracies and of every learned factor (dict order included).
_DIGEST_SCRIPT = """
import hashlib
from repro.datasets import build_scenario, tiny_config
from repro.fusion import FusionConfig
from repro.fusion.extensions import (
    ConfidenceWeightedFuser, HierarchicalFuser, MultiTruthFuser, SplitQualityFuser,
)

scenario = build_scenario(tiny_config(seed=7))
world = scenario.world
for fuser in (
    SplitQualityFuser(FusionConfig()),
    MultiTruthFuser(FusionConfig(max_rounds=3)),
    HierarchicalFuser(world.schema, world.hierarchy, FusionConfig(max_rounds=3)),
    ConfidenceWeightedFuser(FusionConfig()),
):
    result = fuser.fuse(scenario.fusion_input())
    digest = hashlib.sha256()
    for triple, probability in result.probabilities.items():
        digest.update(repr((triple.canonical(), repr(probability))).encode())
    digest.update(repr(result.accuracies).encode())
    for key in ("extractor_quality", "site_accuracy", "functionality"):
        digest.update(repr(result.diagnostics.get(key)).encode())
    print(digest.hexdigest())
"""
