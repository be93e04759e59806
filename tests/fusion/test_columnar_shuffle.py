"""The columnar-shuffle contract for fusion's parallel backend.

Three properties, each load-bearing:

1. **Parity**: parallel fused output is *bit-identical* to serial — at
   1, 2 and 4 workers, under both the fork and spawn start methods (the
   scalar kernels sum in canonical order, so worker hash randomization
   cannot leak into the floats).
2. **Shuffle invariance**: permuting the extraction-record stream does
   not change the parallel fused output (the columnar layout is
   canonical, not insertion-ordered).
3. **Payload purity**: no ``Triple``/``DataItem``/
   ``ExtractionRecord`` object — and, since the shared-memory round-state
   channel, *no numpy buffer either* — ever rides in a fusion shard task
   payload: only integer ids, primitives, and the tiny round-state handle
   cross per shard.  The heavyweight columns cross once through the pool
   initializer; the per-round accuracy/posterior/active buffers cross
   once per round through shared memory.
"""

import pickle
import random

import numpy as np
import pytest

from repro.extract.records import ExtractionRecord
from repro.fusion import FusionConfig, popaccu, popaccu_plus, vote
from repro.fusion.observations import FusionInput
from repro.fusion.popaccu import popaccu_item_posteriors
from repro.fusion.runner import run_bayesian_fusion
from repro.kb.triples import DataItem, Triple
from repro.mapreduce import executors
from repro.mapreduce.codec import scan_payload_types
from repro.mapreduce.executors import ParallelExecutor

pytestmark = pytest.mark.parallel_backend

#: Types that must never appear in a shard task payload.
FORBIDDEN = (Triple, DataItem, ExtractionRecord)

WORKER_COUNTS = (1, 2, 4)
START_METHODS = ("fork", "spawn")


def assert_bit_identical(serial, parallel):
    assert parallel.probabilities == serial.probabilities
    assert parallel.accuracies == serial.accuracies
    assert parallel.unpredicted == serial.unpredicted
    assert parallel.rounds == serial.rounds
    assert parallel.converged == serial.converged


class TestParity:
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_popaccu_plus_bit_identical_everywhere(
        self, micro_scenario, n_workers, start_method
    ):
        """The flagship (filters + gold init) across the full matrix."""
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu_plus(micro_scenario.gold, backend="serial").fuse(
            fusion_input
        )
        with ParallelExecutor(
            max_workers=n_workers, start_method=start_method
        ) as executor:
            parallel = popaccu_plus(micro_scenario.gold, backend="parallel").fuse(
                fusion_input, executor=executor
            )
            assert executor.fallbacks_unpicklable == 0
        assert parallel.diagnostics["backend_used"] == "parallel"
        assert_bit_identical(serial, parallel)

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_vote_bit_identical(self, micro_scenario, start_method):
        fusion_input = micro_scenario.fusion_input()
        serial = vote(backend="serial").fuse(fusion_input)
        with ParallelExecutor(
            max_workers=2, start_method=start_method
        ) as executor:
            parallel = vote(backend="parallel").fuse(
                fusion_input, executor=executor
            )
        assert parallel.diagnostics["backend_used"] == "parallel"
        assert parallel.probabilities == serial.probabilities

    def test_track_rounds_matches_serial(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()

        def run(backend):
            from repro.fusion.popaccu import PopAccuKernel

            return run_bayesian_fusion(
                fusion_input=fusion_input,
                config=FusionConfig(backend=backend, max_rounds=2),
                item_posterior_fn=PopAccuKernel(),
                method_name="POPACCU",
                track_rounds=True,
            )

        serial, parallel = run("serial"), run("parallel")
        assert (
            serial.diagnostics["round_probabilities"]
            == parallel.diagnostics["round_probabilities"]
        )

    def test_diagnostics_match_serial(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu(backend="serial").fuse(fusion_input)
        parallel = popaccu(backend="parallel").fuse(fusion_input)
        for key in ("n_items", "n_provenances", "n_claims", "n_active_final",
                    "gold_initialized"):
            assert parallel.diagnostics[key] == serial.diagnostics[key], key


class TestShuffleInvariance:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_record_order_does_not_change_parallel_output(
        self, micro_scenario, seed
    ):
        serial = popaccu(backend="serial").fuse(micro_scenario.fusion_input())
        shuffled = list(micro_scenario.records)
        random.Random(seed).shuffle(shuffled)
        parallel = popaccu(backend="parallel").fuse(FusionInput(shuffled))
        assert_bit_identical(serial, parallel)


class TestFallbacks:
    def test_closure_posterior_runs_in_process_but_identical(
        self, micro_scenario
    ):
        """An unpicklable kernel cannot ship to workers: the job runs
        in-process over the same columnar shards (the parent registry
        resolves the resident columns), is counted, and stays exact."""
        fusion_input = micro_scenario.fusion_input()
        config = FusionConfig(backend="parallel", max_rounds=2)
        with ParallelExecutor(max_workers=2) as executor:
            result = run_bayesian_fusion(
                fusion_input=fusion_input,
                config=config,
                item_posterior_fn=lambda claims, acc: popaccu_item_posteriors(
                    claims, acc
                ),
                method_name="POPACCU-closure",
                executor=executor,
            )
            assert executor.fallbacks_unpicklable > 0
        assert result.diagnostics["backend_used"] == "parallel"
        assert result.diagnostics["fallbacks_unpicklable"] > 0
        reference = popaccu(FusionConfig(backend="serial", max_rounds=2)).fuse(
            fusion_input
        )
        assert result.probabilities == reference.probabilities

    def test_sampling_no_longer_falls_back_to_serial(self, micro_scenario):
        """Canonical-order sampling: the shard workers re-draw the same
        sampled subsets against the resident columns, so sampling no
        longer degrades the parallel backend to the serial reference."""
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu(FusionConfig(sample_limit=2, backend="serial")).fuse(
            fusion_input
        )
        parallel = popaccu(FusionConfig(sample_limit=2, backend="parallel")).fuse(
            fusion_input
        )
        assert parallel.diagnostics["backend_used"] == "parallel"
        assert parallel.diagnostics["sampling"] == "canonical-order"
        assert_bit_identical(serial, parallel)

    def test_vote_sampling_no_longer_falls_back(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        serial = vote(FusionConfig(sample_limit=2, backend="serial")).fuse(
            fusion_input
        )
        parallel = vote(FusionConfig(sample_limit=2, backend="parallel")).fuse(
            fusion_input
        )
        assert parallel.diagnostics["backend_used"] == "parallel"
        assert parallel.diagnostics["sampling"] == "canonical-order"
        assert parallel.probabilities == serial.probabilities


class TestPayloadPurity:
    def _record_submissions(self, monkeypatch):
        """Spy on every shard task submitted to the process pool."""
        recorded = []
        original = executors.ProcessPoolExecutor.submit

        def spy(pool_self, fn, *args, **kwargs):
            recorded.append(args)
            return original(pool_self, fn, *args, **kwargs)

        monkeypatch.setattr(executors.ProcessPoolExecutor, "submit", spy)
        return recorded

    def _assert_payloads_clean(self, recorded, forbid_arrays=False):
        assert recorded, "no shard tasks were dispatched"
        for args in recorded:
            spec_bytes, shard = args
            # The job spec crosses pre-pickled; audit its contents too.
            spec = pickle.loads(spec_bytes)
            for payload in (spec, shard):
                types = scan_payload_types(payload)
                offenders = [
                    t.__name__
                    for t in types
                    if issubclass(t, FORBIDDEN)
                ]
                assert not offenders, (
                    f"shard payload carries domain objects: {offenders}"
                )
                if forbid_arrays:
                    assert not any(
                        issubclass(t, np.ndarray) for t in types
                    ), (
                        "shard payload carries a numpy buffer — per-round "
                        "state must cross on the round-state channel, not "
                        "in the spec"
                    )

    def test_fusion_shards_carry_no_claim_objects(
        self, micro_scenario, monkeypatch
    ):
        recorded = self._record_submissions(monkeypatch)
        result = popaccu_plus(micro_scenario.gold, backend="parallel").fuse(
            micro_scenario.fusion_input()
        )
        assert result.diagnostics["backend_used"] == "parallel"
        self._assert_payloads_clean(recorded, forbid_arrays=True)

    def test_hybrid_shards_carry_no_buffers(self, micro_scenario, monkeypatch):
        recorded = self._record_submissions(monkeypatch)
        result = popaccu(backend="hybrid").fuse(micro_scenario.fusion_input())
        assert result.diagnostics["backend_used"] == "hybrid"
        self._assert_payloads_clean(recorded, forbid_arrays=True)

    def test_vote_shards_carry_no_claim_objects(self, micro_scenario, monkeypatch):
        recorded = self._record_submissions(monkeypatch)
        vote(backend="parallel").fuse(micro_scenario.fusion_input())
        self._assert_payloads_clean(recorded, forbid_arrays=True)

    def test_extraction_shards_carry_no_extractor_objects(
        self, micro_scenario, monkeypatch
    ):
        """The fleet is pool-resident: shard payloads hold pages only."""
        from repro.extract.base import Extractor

        recorded = self._record_submissions(monkeypatch)
        with ParallelExecutor(max_workers=2) as executor:
            micro_scenario.pipeline.run(
                micro_scenario.corpus, backend="parallel", executor=executor
            )
        assert recorded, "no shard tasks were dispatched"
        for args in recorded:
            spec_bytes, _shard = args
            types = scan_payload_types(pickle.loads(spec_bytes))
            offenders = [
                t.__name__ for t in types if issubclass(t, Extractor)
            ]
            assert not offenders, (
                f"extraction spec still ships the fleet: {offenders}"
            )
