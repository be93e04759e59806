"""The hybrid backend contract: batched kernels inside parallel shards.

What ``backend="hybrid"`` promises, tested on real seeded scenarios:

1. **Tolerance parity**: hybrid fused output matches the serial scalar
   reference (and therefore the bit-identical scalar-parallel backend)
   within 1e-9 absolute — on the ``small`` scenario, at 1, 2 and 4
   workers, under both fork and spawn start methods.  Bitwise equality is
   *not* promised: the in-shard kernels sum in array order.
2. **Payload purity**: hybrid shard payloads are integer ids plus
   contiguous buffers and the picklable kernel — no ``Triple``/
   ``DataItem``/``ExtractionRecord`` objects cross per shard.
3. **Graceful degradation**: kernels without a batched form, and runs
   where reducer-input sampling engages, degrade to the scalar parallel
   shards (``"parallel (hybrid fallback)"``, bitwise) — never to the
   in-process serial reference.
"""

import pickle

import pytest

from repro.datasets import build_scenario, small_config
from repro.endtoend import PIPELINE_METHODS, make_fuser
from repro.extract.records import ExtractionRecord
from repro.fusion import (
    FusionConfig,
    PARITY_TOLERANCE_ABS,
    popaccu,
    popaccu_plus,
    vote,
)
from repro.fusion.popaccu import popaccu_item_posteriors
from repro.fusion.runner import run_bayesian_fusion
from repro.kb.triples import DataItem, Triple
from repro.mapreduce import executors
from repro.mapreduce.codec import scan_payload_types
from repro.mapreduce.executors import ParallelExecutor

pytestmark = pytest.mark.parallel_backend

FORBIDDEN = (Triple, DataItem, ExtractionRecord)

WORKER_COUNTS = (1, 2, 4)
START_METHODS = ("fork", "spawn")


@pytest.fixture(scope="module")
def small_scenario():
    """The ``small`` scale the acceptance criteria name (module-scoped:
    generation dominates, the fusion runs under test are cheap)."""
    return build_scenario(small_config(seed=0))


@pytest.fixture(scope="module")
def small_serial_reference(small_scenario):
    return popaccu_plus(small_scenario.gold, backend="serial").fuse(
        small_scenario.fusion_input()
    )


def assert_tolerance_parity(serial, other, tol=PARITY_TOLERANCE_ABS):
    assert set(other.probabilities) == set(serial.probabilities)
    for triple, probability in serial.probabilities.items():
        assert other.probabilities[triple] == pytest.approx(probability, abs=tol)
    assert set(other.accuracies) == set(serial.accuracies)
    for prov, accuracy in serial.accuracies.items():
        assert other.accuracies[prov] == pytest.approx(accuracy, abs=tol)
    assert other.unpredicted == serial.unpredicted
    assert other.rounds == serial.rounds
    assert other.converged == serial.converged


class TestHybridParity:
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_popaccu_plus_small_within_tolerance(
        self, small_scenario, small_serial_reference, n_workers, start_method
    ):
        """The flagship preset across the full worker/start-method matrix
        on the ``small`` scenario (36.8K records)."""
        with ParallelExecutor(
            max_workers=n_workers, start_method=start_method
        ) as executor:
            hybrid = popaccu_plus(small_scenario.gold, backend="hybrid").fuse(
                small_scenario.fusion_input(), executor=executor
            )
            assert executor.fallbacks_unpicklable == 0
        assert hybrid.diagnostics["backend_used"] == "hybrid"
        assert hybrid.diagnostics["parity"] == "tolerance"
        assert_tolerance_parity(small_serial_reference, hybrid)

    def test_matches_scalar_parallel_within_tolerance(
        self, small_scenario, small_serial_reference
    ):
        """Hybrid vs the bit-identical scalar-parallel backend directly."""
        parallel = popaccu_plus(small_scenario.gold, backend="parallel").fuse(
            small_scenario.fusion_input()
        )
        assert parallel.diagnostics["parity"] == "bitwise"
        assert parallel.probabilities == small_serial_reference.probabilities
        hybrid = popaccu_plus(small_scenario.gold, backend="hybrid").fuse(
            small_scenario.fusion_input()
        )
        assert_tolerance_parity(parallel, hybrid)

    def test_vote_hybrid(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        serial = vote(backend="serial").fuse(fusion_input)
        hybrid = vote(backend="hybrid").fuse(fusion_input)
        assert hybrid.diagnostics["backend_used"] == "hybrid"
        assert hybrid.diagnostics["parity"] == "tolerance"
        assert set(hybrid.probabilities) == set(serial.probabilities)
        for triple, probability in serial.probabilities.items():
            assert hybrid.probabilities[triple] == pytest.approx(
                probability, abs=PARITY_TOLERANCE_ABS
            )

    def test_diagnostics_match_serial(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu(backend="serial").fuse(fusion_input)
        hybrid = popaccu(backend="hybrid").fuse(fusion_input)
        for key in ("n_items", "n_provenances", "n_claims", "n_active_final",
                    "gold_initialized"):
            assert hybrid.diagnostics[key] == serial.diagnostics[key], key
        assert serial.diagnostics["parity"] == "bitwise"
        assert hybrid.diagnostics["parity"] == "tolerance"


class TestOneColumnLoop:
    @pytest.mark.parametrize("method", PIPELINE_METHODS)
    def test_vectorized_equals_hybrid(self, small_scenario, method):
        """``vectorized`` and ``hybrid`` are the same round loop and the
        same kernels, in-process vs sharded: their results are equal as
        dicts — bit for bit — for every method, θ-fallback rows included."""
        vectorized, hybrid = [
            make_fuser(
                method,
                FusionConfig(seed=0, backend=backend, n_workers=2),
                small_scenario.gold,
            ).fuse(small_scenario.fusion_input())
            for backend in ("vectorized", "hybrid")
        ]
        assert hybrid.diagnostics["backend_used"] == "hybrid"
        assert vectorized.probabilities == hybrid.probabilities
        assert vectorized.accuracies == hybrid.accuracies
        assert vectorized.unpredicted == hybrid.unpredicted


class TestThetaBoundaryRescue:
    def test_vectorized_small_within_tolerance(
        self, small_scenario, small_serial_reference
    ):
        """Regression for the latent θ-flip divergence: before the
        boundary rescue, batched Stage-II drift flipped ``A(S) >= θ``
        decisions on the ``small`` scenario (POPACCU valleys park many
        accuracies exactly at θ = 0.5) and the vectorized backend drifted
        to O(1) probability differences.  With the rescue, every active
        set matches serial and tolerance parity holds at scale."""
        vectorized = popaccu_plus(small_scenario.gold, backend="vectorized").fuse(
            small_scenario.fusion_input()
        )
        assert vectorized.diagnostics["backend_used"] == "vectorized"
        assert (
            vectorized.diagnostics["n_active_final"]
            == small_serial_reference.diagnostics["n_active_final"]
        )
        assert_tolerance_parity(small_serial_reference, vectorized)


class TestHybridFallbacks:
    def test_closure_kernel_degrades_to_scalar_parallel(self, micro_scenario):
        """No ``batch_round`` → the scalar parallel shards, not serial."""
        fusion_input = micro_scenario.fusion_input()
        result = run_bayesian_fusion(
            fusion_input=fusion_input,
            config=FusionConfig(backend="hybrid", max_rounds=2),
            item_posterior_fn=lambda claims, acc: popaccu_item_posteriors(
                claims, acc
            ),
            method_name="POPACCU-closure",
        )
        assert result.diagnostics["backend_used"] == "parallel (hybrid fallback)"
        assert result.diagnostics["parity"] == "bitwise"
        reference = popaccu(FusionConfig(backend="serial", max_rounds=2)).fuse(
            fusion_input
        )
        assert result.probabilities == reference.probabilities

    def test_sampling_degrades_to_scalar_parallel_bitwise(self, micro_scenario):
        """Batched kernels cannot subset per item, so sampling pressure
        swaps in the scalar shards — which stay bit-identical to serial
        via the canonical-order sampling contract."""
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu(FusionConfig(sample_limit=2, backend="serial")).fuse(
            fusion_input
        )
        hybrid = popaccu(FusionConfig(sample_limit=2, backend="hybrid")).fuse(
            fusion_input
        )
        assert hybrid.diagnostics["backend_used"] == "parallel (hybrid fallback)"
        assert hybrid.diagnostics["parity"] == "bitwise"
        assert hybrid.diagnostics["sampling"] == "canonical-order"
        assert hybrid.probabilities == serial.probabilities
        assert hybrid.accuracies == serial.accuracies

    def test_vote_sampling_degrades_to_scalar_parallel(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        serial = vote(FusionConfig(sample_limit=2, backend="serial")).fuse(
            fusion_input
        )
        hybrid = vote(FusionConfig(sample_limit=2, backend="hybrid")).fuse(
            fusion_input
        )
        assert hybrid.diagnostics["backend_used"] == "parallel (hybrid fallback)"
        assert hybrid.probabilities == serial.probabilities


class TestHybridPayloadPurity:
    def _record_submissions(self, monkeypatch):
        recorded = []
        original = executors.ProcessPoolExecutor.submit

        def spy(pool_self, fn, *args, **kwargs):
            recorded.append(args)
            return original(pool_self, fn, *args, **kwargs)

        monkeypatch.setattr(executors.ProcessPoolExecutor, "submit", spy)
        return recorded

    def test_hybrid_shards_carry_no_claim_objects(
        self, micro_scenario, monkeypatch
    ):
        recorded = self._record_submissions(monkeypatch)
        result = popaccu_plus(micro_scenario.gold, backend="hybrid").fuse(
            micro_scenario.fusion_input()
        )
        assert result.diagnostics["backend_used"] == "hybrid"
        assert recorded, "no hybrid shard tasks were dispatched"
        for args in recorded:
            spec_bytes, shard = args
            spec = pickle.loads(spec_bytes)
            for payload in (spec, shard):
                types = scan_payload_types(payload)
                offenders = [
                    t.__name__ for t in types if issubclass(t, FORBIDDEN)
                ]
                assert not offenders, (
                    f"hybrid shard payload carries domain objects: {offenders}"
                )
