"""The canonical-order reducer-input sampling contract (the paper's L).

Sampling used to be defined positionally over each key's value *arrival
order* — a property of the scalar dataflow no sharded backend could
reproduce, so any ``L`` that engaged silently degraded the parallel
backend to the in-process serial reference.  The contract now: when
sampling engages, a key's values are put in canonical (sorted) order
before the deterministic positional draw (``sample_positions`` in the
executors; the oracle engine's ``MapReduceJob.sample_key``).  Consequences, each tested here:

1. Sampled subsets are a function of the value *set* — serial output is
   invariant under extraction-record shuffling even when L engages.
2. The columnar shard workers re-draw identical subsets against the
   pool-resident columns, so ``L``-sampled parallel runs are
   **bit-identical** to serial at every worker count and start method —
   and the old ``"serial (parallel fallback)"`` diagnostic never fires.
3. The contract is tagged in ``diagnostics["sampling"]``
   (``"canonical-order"`` whenever L is configured).
"""

import random

import pytest

from repro.fusion import FusionConfig, FusionInput, accu, popaccu, popaccu_plus
from repro.mapreduce.executors import ParallelExecutor, sample_positions
from tests.oracle.engine import MapReduceEngine, MapReduceJob

WORKER_COUNTS = (1, 2, 4)
START_METHODS = ("fork", "spawn")

#: Small enough that both Stage-I items and Stage-II provenances exceed it
#: on the micro scenario, so sampling genuinely engages in both stages.
TINY_L = 2


def assert_bit_identical(serial, other):
    assert other.probabilities == serial.probabilities
    assert other.accuracies == serial.accuracies
    assert other.unpredicted == serial.unpredicted
    assert other.rounds == serial.rounds
    assert other.converged == serial.converged


class TestSamplePositions:
    def test_none_when_not_engaged(self):
        assert sample_positions(5, "k", "job", None, 0) is None
        assert sample_positions(5, "k", "job", 5, 0) is None

    def test_deterministic_and_ascending(self):
        a = sample_positions(100, "k", "job", 10, 7)
        b = sample_positions(100, "k", "job", 10, 7)
        assert a == b
        assert a == sorted(a)
        assert len(a) == len(set(a)) == 10
        assert all(0 <= i < 100 for i in a)

    def test_depends_on_key_name_and_seed(self):
        base = sample_positions(100, "k", "job", 10, 7)
        assert sample_positions(100, "k2", "job", 10, 7) != base
        assert sample_positions(100, "k", "job2", 10, 7) != base
        assert sample_positions(100, "k", "job", 10, 8) != base


class TestEngineCanonicalSampling:
    @staticmethod
    def _pick_job(sample_key):
        return MapReduceJob(
            name="pick",
            mapper=lambda r: [("k", r)],
            reducer=lambda _k, values: [tuple(values)],
            sample_limit=5,
            seed=3,
            sample_key=sample_key,
        )

    def test_sample_key_makes_sample_order_invariant(self):
        engine = MapReduceEngine()
        data = list(range(100))
        shuffled = list(data)
        random.Random(1).shuffle(shuffled)
        job = self._pick_job(sample_key=lambda v: v)
        assert engine.run(data, job) == engine.run(shuffled, job)

    def test_without_sample_key_order_still_matters(self):
        """The legacy value-order draw is preserved for jobs that do not
        opt in (their sampled subsets were never a cross-backend
        contract)."""
        engine = MapReduceEngine()
        data = list(range(100))
        shuffled = list(data)
        random.Random(1).shuffle(shuffled)
        job = self._pick_job(sample_key=None)
        assert engine.run(data, job) != engine.run(shuffled, job)


@pytest.mark.parallel_backend
class TestSampledParallelParity:
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_popaccu_plus_sampled_bit_identical_everywhere(
        self, micro_scenario, n_workers, start_method
    ):
        """The flagship preset, L engaged, across the full matrix."""
        fusion_input = micro_scenario.fusion_input()
        config = FusionConfig(sample_limit=TINY_L)
        serial = popaccu_plus(
            micro_scenario.gold, config, backend="serial"
        ).fuse(fusion_input)
        with ParallelExecutor(
            max_workers=n_workers, start_method=start_method
        ) as executor:
            parallel = popaccu_plus(
                micro_scenario.gold, config, backend="parallel"
            ).fuse(fusion_input, executor=executor)
            assert executor.fallbacks_unpicklable == 0
        assert parallel.diagnostics["backend_used"] == "parallel"
        assert parallel.diagnostics["parity"] == "bitwise"
        assert_bit_identical(serial, parallel)

    def test_accu_sampled_bit_identical(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        config = FusionConfig(sample_limit=TINY_L)
        serial = accu(config, backend="serial").fuse(fusion_input)
        parallel = accu(config, backend="parallel").fuse(fusion_input)
        assert parallel.diagnostics["backend_used"] == "parallel"
        assert_bit_identical(serial, parallel)

    def test_fallback_diagnostic_never_fires_under_sampling(
        self, micro_scenario
    ):
        """The acceptance criterion verbatim: no ``"serial (parallel
        fallback)"`` tag on a sampled parallel run."""
        fusion_input = micro_scenario.fusion_input()
        result = popaccu(
            FusionConfig(sample_limit=TINY_L, backend="parallel")
        ).fuse(fusion_input)
        assert "fallback" not in result.diagnostics["backend_used"]
        assert result.diagnostics["backend_used"] == "parallel"
        assert result.diagnostics["sampling"] == "canonical-order"

    def test_sampling_tag_reflects_config(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        unbounded = popaccu(FusionConfig(sample_limit=None)).fuse(fusion_input)
        assert unbounded.diagnostics["sampling"] == "unbounded"
        bounded = popaccu(FusionConfig(sample_limit=TINY_L)).fuse(fusion_input)
        assert bounded.diagnostics["sampling"] == "canonical-order"


@pytest.mark.parallel_backend
class TestSampledShuffleInvariance:
    def test_sampled_serial_is_record_order_invariant(self, micro_scenario):
        """Canonical-order sampling makes even the *serial* sampled run a
        function of the claim set, not the record stream order."""
        config = FusionConfig(sample_limit=TINY_L, backend="serial")
        baseline = popaccu(config).fuse(micro_scenario.fusion_input())
        shuffled = list(micro_scenario.records)
        random.Random(2).shuffle(shuffled)
        reshuffled = popaccu(config).fuse(FusionInput(shuffled))
        assert_bit_identical(baseline, reshuffled)

    def test_sampled_parallel_on_shuffled_records_matches_serial(
        self, micro_scenario
    ):
        serial = popaccu(
            FusionConfig(sample_limit=TINY_L, backend="serial")
        ).fuse(micro_scenario.fusion_input())
        shuffled = list(micro_scenario.records)
        random.Random(3).shuffle(shuffled)
        parallel = popaccu(
            FusionConfig(sample_limit=TINY_L, backend="parallel")
        ).fuse(FusionInput(shuffled))
        assert_bit_identical(serial, parallel)
