"""``serial`` against the dict/MapReduce-engine oracle, and against itself
at the parent commit.

``serial`` is the in-process scalar point of the one column-native round
loop; the dataflow it used to be lives on under ``tests/oracle`` and
shares no stage code with ``src/``.  Everything a fuse returns must be
``==`` between the two — *including iteration order*, which is not
cosmetic: the calibration metrics sum over ``result.probabilities`` in
that order, so a different order moves ``deviation`` by an ulp (the one
thing kfbench's ``mem-batched`` workload pins bitwise).

The frozen fingerprints at the bottom pin the same thing across commits:
they were computed at the parent commit (e382de4), when ``serial`` still
*was* the dict engine.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.datasets import build_scenario, small_config
from repro.endtoend import PIPELINE_METHODS, make_fuser
from repro.fusion import FusionConfig, FusionInput
from repro.fusion.runner import run_bayesian_fusion
from repro.fusion.vote import Vote
from tests.oracle.columns import dict_claims
from tests.oracle.fusion import assert_equal_in_order, kernel_of, oracle_fuse

#: Config overrides applied on top of each method preset (the POPACCU+
#: presets pin coverage + θ themselves, so for them the first three
#: variants coincide — kept for a uniform grid).
VARIANTS = {
    "default": {},
    "coverage": {"filter_by_coverage": True},
    "coverage+theta": {"filter_by_coverage": True, "min_accuracy": 0.5},
    "gold-init": {"gold_sample_rate": 0.5},
    "sampled": {"sample_limit": 5},
}
BAYESIAN_METHODS = tuple(m for m in PIPELINE_METHODS if m != "vote")


def _fuser(method, variant, gold):
    fuser = make_fuser(method, FusionConfig(seed=7), gold)
    fuser.config = replace(fuser.config, **VARIANTS[variant])
    if variant == "gold-init":
        fuser.gold_labels = gold
    return fuser


def _inputs(scenario, fuser, source):
    """One fresh input per side, so neither run sees the other's caches."""
    if source == "records":
        return FusionInput(scenario.records), FusionInput(scenario.records)
    cols = FusionInput(scenario.records).claims(fuser.config.granularity).columnar()
    return FusionInput.from_columns(cols), FusionInput.from_columns(cols)


class TestSerialEqualsOracle:
    @pytest.mark.parametrize("source", ["records", "columns"])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("method", PIPELINE_METHODS)
    def test_fuse(self, tiny_scenario, method, variant, source):
        fuser = _fuser(method, variant, tiny_scenario.gold)
        ours, theirs = _inputs(tiny_scenario, fuser, source)
        assert_equal_in_order(fuser.fuse(ours), oracle_fuse(fuser, theirs))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("method", BAYESIAN_METHODS)
    def test_round_snapshots(self, tiny_scenario, method, variant):
        fuser = _fuser(method, variant, tiny_scenario.gold)
        ours, theirs = _inputs(tiny_scenario, fuser, "records")
        serial = run_bayesian_fusion(
            ours, fuser.config, kernel_of(fuser), fuser.name, fuser.gold_labels,
            track_rounds=True,
        )
        assert_equal_in_order(serial, oracle_fuse(fuser, theirs, track_rounds=True))
        snapshots = serial.diagnostics["round_probabilities"]
        assert len(snapshots) == serial.rounds
        # Their own order is Stage III's: record arrival, scored rows only.
        emitted = [
            triple
            for triple_map in dict_claims(theirs, fuser.config.granularity).items.values()
            for triple in triple_map
        ]
        for snapshot in snapshots:
            assert list(snapshot) == [t for t in emitted if t in snapshot]

    def test_emission_orders_differ_by_source(self, tiny_scenario):
        """What the grid above would miss if both orders were the same."""
        fuser = _fuser("popaccu", "default", None)
        from_records, _ = _inputs(tiny_scenario, fuser, "records")
        from_columns, _ = _inputs(tiny_scenario, fuser, "columns")
        arrival = list(fuser.fuse(from_records).probabilities)
        canonical = list(fuser.fuse(from_columns).probabilities)
        assert arrival != canonical and sorted(arrival) == sorted(canonical)
        # VOTE's Stage III keys by triple: canonical triple order, always.
        vote = Vote(FusionConfig(seed=7))
        by_key = list(vote.fuse(from_records).probabilities)
        assert by_key == list(vote.fuse(from_columns).probabilities)
        assert by_key == sorted(by_key, key=lambda triple: triple.canonical())


#: sha256 of ``repr(list(probabilities.items())) + repr(list(accuracies.items()))``
#: for ``small_config(0)`` fused ``serial``, computed at the parent commit.
SERIAL_FINGERPRINTS = {
    "vote": "0ccef7ef54f216e635b6d754823f644e4d1dbd949291daf6955479e958507ea9",
    "accu": "50681a5629be55f6c4f7aadf1764ad033158b8f4890acdd6a688624179ca2fb9",
    "popaccu": "a975b52dab25977f4b4bb864ccf75c94cbcb1d5870a6655272b6dba5214d329c",
    "popaccu+unsup": "9b4f73b616ad7e8893b2ed1b7a898cdb97ce61f06e81a82e700f1910a921dfea",
    "popaccu+": "a83b3140c87dad2655bb7e326c3f8e71ee57dbfe84edea2e38ee6b5eadf7f781",
}


@pytest.fixture(scope="module")
def small_scenario():
    return build_scenario(small_config(seed=0))


class TestSerialFingerprints:
    @pytest.mark.parametrize("method", PIPELINE_METHODS)
    def test_order_sensitive_fingerprint_frozen(self, small_scenario, method):
        fuser = make_fuser(method, FusionConfig(seed=0), small_scenario.gold)
        result = fuser.fuse(FusionInput(small_scenario.records))
        digest = hashlib.sha256()
        digest.update(repr(list(result.probabilities.items())).encode())
        digest.update(repr(list(result.accuracies.items())).encode())
        assert digest.hexdigest() == SERIAL_FINGERPRINTS[method]
