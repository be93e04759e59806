"""The hybrid backend contract: batched kernels inside parallel shards.

What ``backend="hybrid"`` promises, tested on real seeded scenarios:

1. **Tolerance parity**: hybrid fused output matches the serial scalar
   reference within 1e-9 absolute — on the ``small`` scenario, at 1, 2
   and 4 workers, under both fork and spawn start methods.  Bitwise
   equality with serial is *not* promised: the in-shard kernels sum in
   array order.  Bitwise equality with in-process ``vectorized`` is.
2. **Sampling keeps the kernel**: with the reducer-input bound engaged
   (``small``, L=5) every method still runs batched, pooled or not,
   within tolerance of sampled serial and with the same θ-filter outcome.
3. **Payload purity**: hybrid shard payloads are integer ids plus
   contiguous buffers and the picklable kernel — no ``Triple``/
   ``DataItem``/``ExtractionRecord`` objects cross per shard.
4. **One pool, nothing resident**: fusion installs no pool-resident
   state, so a pipeline run forks its workers once and a fuse on a fresh
   pool ships no state bytes.
"""

import multiprocessing
import pickle

import pytest

from repro.datasets import build_scenario, small_config, tiny_config
from repro.endtoend import PIPELINE_METHODS, make_fuser, run_end_to_end
from repro.extract.records import ExtractionRecord
from repro.fusion import (
    FusionConfig,
    PARITY_TOLERANCE_ABS,
    popaccu,
    popaccu_plus,
    vote,
)
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
    return popaccu_plus(small_scenario.gold, FusionConfig(backend="serial")).fuse(
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
            hybrid = popaccu_plus(small_scenario.gold, FusionConfig(backend="hybrid")).fuse(
                small_scenario.fusion_input(), executor=executor
            )
        assert hybrid.diagnostics["backend_used"] == "hybrid"
        assert hybrid.diagnostics["parity"] == "tolerance"
        assert_tolerance_parity(small_serial_reference, hybrid)

    def test_vote_hybrid(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        serial = vote(FusionConfig(backend="serial")).fuse(fusion_input)
        hybrid = vote(FusionConfig(backend="hybrid")).fuse(fusion_input)
        assert hybrid.diagnostics["backend_used"] == "hybrid"
        assert hybrid.diagnostics["parity"] == "tolerance"
        assert set(hybrid.probabilities) == set(serial.probabilities)
        for triple, probability in serial.probabilities.items():
            assert hybrid.probabilities[triple] == pytest.approx(
                probability, abs=PARITY_TOLERANCE_ABS
            )

    def test_diagnostics_match_serial(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu(FusionConfig(backend="serial")).fuse(fusion_input)
        hybrid = popaccu(FusionConfig(backend="hybrid")).fuse(fusion_input)
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
        vectorized = popaccu_plus(small_scenario.gold, FusionConfig(backend="vectorized")).fuse(
            small_scenario.fusion_input()
        )
        assert vectorized.diagnostics["backend_used"] == "vectorized"
        assert (
            vectorized.diagnostics["n_active_final"]
            == small_serial_reference.diagnostics["n_active_final"]
        )
        assert_tolerance_parity(small_serial_reference, vectorized)


#: The sampling bound of the ``small`` sampled checks: engaged on a
#: meaningful fraction of items (the largest carry ~40 claims).
SMALL_L = 5


class TestSampledSmall:
    @pytest.mark.parametrize("method", ["vote", "accu", "popaccu", "popaccu+"])
    def test_batched_modes_stay_batched_under_sampling(self, small_scenario, method):
        results = {
            backend: make_fuser(
                method,
                FusionConfig(seed=0, backend=backend, n_workers=2, sample_limit=SMALL_L),
                small_scenario.gold,
            ).fuse(small_scenario.fusion_input())
            for backend in ("serial", "vectorized", "hybrid")
        }
        serial = results["serial"]
        for backend in ("vectorized", "hybrid"):
            result = results[backend]
            assert result.diagnostics["backend_used"] == backend
            assert result.diagnostics["parity"] == "tolerance"
            assert_tolerance_parity(serial, result)
            assert result.diagnostics.get("n_active_final") == serial.diagnostics.get(
                "n_active_final"
            )
        assert list(results["hybrid"].probabilities.items()) == list(
            results["vectorized"].probabilities.items()
        )
        assert results["hybrid"].accuracies == results["vectorized"].accuracies


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
        result = popaccu_plus(micro_scenario.gold, FusionConfig(backend="hybrid")).fuse(
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


@pytest.mark.parametrize("start_method", START_METHODS)
class TestOnePool:
    def test_pipeline_starts_one_pool(self, monkeypatch, start_method):
        """Extraction and every fusion round share one set of workers:
        the fusion stage installs nothing, so the pool is never restarted
        at the stage boundary."""
        pools = []

        class CountingPool(executors.ProcessPoolExecutor):
            def __init__(self, *args, mp_context=None, **kwargs):
                pools.append(self)
                super().__init__(
                    *args, mp_context=multiprocessing.get_context(start_method), **kwargs
                )

        monkeypatch.setattr(executors, "ProcessPoolExecutor", CountingPool)
        result = run_end_to_end(tiny_config(seed=0), backend="hybrid", n_workers=2)
        assert result.fusion.diagnostics["backend_used"] == "hybrid"
        assert len(pools) == 1

    def test_fuse_ships_no_installed_state(self, micro_scenario, start_method):
        with ParallelExecutor(max_workers=2, start_method=start_method) as executor:
            result = popaccu_plus(micro_scenario.gold, FusionConfig(backend="hybrid")).fuse(
                micro_scenario.fusion_input(), executor=executor
            )
            assert executor.state_bytes_shipped == 0
        assert result.diagnostics["state_bytes_shipped"] == 0
