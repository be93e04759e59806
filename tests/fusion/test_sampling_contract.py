"""The canonical-order reducer-input sampling contract (the paper's L).

Sampling used to be defined positionally over each key's value *arrival
order* — a property of the scalar dataflow no sharded backend could
reproduce.  The contract now: when sampling engages, a key's values are
put in canonical (sorted) order before the deterministic positional draw
(``sample_positions`` in ``repro.fusion.shuffle``; the oracle engine's
``MapReduceJob.sample_key``), made once per round in the parent into the
claim keep-masks every kernel reads.  Consequences, each tested here:

1. Sampled subsets are a function of the value *set* — serial and
   vectorized output is invariant under extraction-record shuffling even
   when L engages.
2. Pooled shards read the same masks from the round-state channel, so
   ``L``-sampled ``hybrid`` runs are **bit-identical** to sampled
   ``vectorized`` at every worker count and start method, and both stay
   within the tolerance contract of sampled ``serial`` — no mode swaps
   its kernel under sampling.
3. The contract is tagged in ``diagnostics["sampling"]``
   (``"canonical-order"`` whenever L is configured).
"""

import random

import numpy as np
import pytest

from repro.fusion import (
    PARITY_TOLERANCE_ABS,
    FusionConfig,
    FusionInput,
    accu,
    popaccu,
    popaccu_plus,
)
from repro.fusion.shuffle import sample_positions, stage1_keep, stage2_keep
from repro.kb.triples import Triple
from repro.kb.values import StringValue
from repro.mapreduce.executors import ParallelExecutor
from tests.oracle.columns import columns_from_items
from tests.oracle.engine import MapReduceEngine, MapReduceJob

WORKER_COUNTS = (1, 2, 4)
START_METHODS = ("fork", "spawn")

#: Small enough that both Stage-I items and Stage-II provenances exceed it
#: on the micro scenario, so sampling genuinely engages in both stages.
TINY_L = 2


def assert_bit_identical(expected, other):
    assert list(other.probabilities.items()) == list(expected.probabilities.items())
    assert other.accuracies == expected.accuracies
    assert other.unpredicted == expected.unpredicted
    assert other.rounds == expected.rounds
    assert other.converged == expected.converged


def assert_within_tolerance(serial, other):
    assert set(other.probabilities) == set(serial.probabilities)
    for triple, probability in serial.probabilities.items():
        assert abs(other.probabilities[triple] - probability) <= PARITY_TOLERANCE_ABS
    for prov, accuracy in serial.accuracies.items():
        assert abs(other.accuracies[prov] - accuracy) <= PARITY_TOLERANCE_ABS
    assert other.unpredicted == serial.unpredicted
    assert other.rounds == serial.rounds
    assert other.diagnostics["n_active_final"] == serial.diagnostics["n_active_final"]


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


class TestMaskBuilder:
    """The one place sampling happens: a claim keep-mask per stage per
    round, drawn over each oversized group in canonical order."""

    @pytest.fixture(params=["micro", "prefix-subjects"])
    def cols(self, request, micro_scenario):
        if request.param == "micro":
            return micro_scenario.fusion_input().claims(FusionConfig().granularity)
        # Subjects that prefix each other sort one way as fields and the
        # other way as canonical strings ("/m/a" < "/m/aa", but
        # "/m/aa|..." < "/m/a|..."), so every provenance's rows are out of
        # canonical order in the columns and Stage II's draw must map back.
        items: dict = {}
        for i in range(1, 7):
            for v in range(3):
                triple = Triple("/m/" + "a" * i, "t/t/p", StringValue(f"v{v}"))
                items.setdefault(triple.data_item, {})[triple] = {
                    (f"S{s}",) for s in range(v, 6, 3 - v % 2)
                }
        cols = columns_from_items(items, FusionConfig().granularity)
        assert not np.array_equal(cols.canonical_prov_order(), np.arange(cols.n_claims))
        return cols

    def test_none_unless_some_group_exceeds_L(self, cols):
        active = np.ones(len(cols.provenances), dtype=bool)
        scored = np.ones(cols.n_rows, dtype=bool)
        largest_item = int(cols.item_claim_counts().max())
        largest_prov = int(cols.prov_row_counts().max())
        assert stage1_keep(cols, active, "fusion.stage1", None, 0) is None
        assert stage1_keep(cols, active, "fusion.stage1", largest_item, 0) is None
        assert stage2_keep(cols, scored, active, None, 0) is None
        assert stage2_keep(cols, scored, active, largest_prov, 0) is None
        assert stage1_keep(cols, active, "fusion.stage1", largest_item - 1, 0) is not None
        assert stage2_keep(cols, scored, active, largest_prov - 1, 0) is not None

    def test_stage1_draws_over_each_items_active_claims(self, cols):
        active = np.arange(len(cols.provenances)) % 3 != 0
        keep = stage1_keep(cols, active, "fusion.stage1", TINY_L, 7)
        claim_ptr = cols.row_ptr[cols.item_ptr]
        for j in range(cols.n_items):
            claims = np.arange(claim_ptr[j], claim_ptr[j + 1])
            eligible = claims[active[cols.claim_prov[claims]]]
            positions = sample_positions(
                len(eligible), cols.items[j].canonical(), "fusion.stage1", TINY_L, 7
            )
            expected = eligible if positions is None else eligible[positions]
            assert np.array_equal(claims[keep[claims] & active[cols.claim_prov[claims]]], expected)

    def test_stage2_draws_over_each_provenances_scored_rows_in_canonical_order(
        self, cols
    ):
        active = np.ones(len(cols.provenances), dtype=bool)
        scored = np.arange(cols.n_rows) % 4 != 0
        keep = stage2_keep(cols, scored, active, TINY_L, 7)
        rank = cols.canonical_rank()
        for p, prov in enumerate(cols.provenances):
            span = np.arange(cols.prov_ptr[p], cols.prov_ptr[p + 1])
            rows = cols.prov_rows[span]
            canonical = sorted(rows[scored[rows]].tolist(), key=rank.__getitem__)
            positions = sample_positions(len(canonical), prov, "fusion.stage2", TINY_L, 7)
            expected = canonical if positions is None else [canonical[k] for k in positions]
            kept = rows[keep[span] & scored[rows]]
            assert sorted(kept.tolist()) == sorted(expected)


@pytest.mark.parallel_backend
class TestSampledPooledParity:
    @pytest.fixture(scope="class")
    def references(self, micro_scenario):
        config = FusionConfig(sample_limit=TINY_L)
        return {
            backend: popaccu_plus(micro_scenario.gold, config, backend=backend).fuse(
                micro_scenario.fusion_input()
            )
            for backend in ("serial", "vectorized")
        }

    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_popaccu_plus_sampled_hybrid_equals_vectorized_everywhere(
        self, micro_scenario, references, n_workers, start_method
    ):
        """The flagship preset, L engaged, across the full matrix."""
        config = FusionConfig(sample_limit=TINY_L)
        with ParallelExecutor(
            max_workers=n_workers, start_method=start_method
        ) as executor:
            hybrid = popaccu_plus(
                micro_scenario.gold, config, backend="hybrid"
            ).fuse(micro_scenario.fusion_input(), executor=executor)
        assert hybrid.diagnostics["backend_used"] == "hybrid"
        assert hybrid.diagnostics["parity"] == "tolerance"
        assert_bit_identical(references["vectorized"], hybrid)
        assert_within_tolerance(references["serial"], hybrid)

    def test_accu_sampled(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        config = FusionConfig(sample_limit=TINY_L)
        serial, vectorized, hybrid = (
            accu(config, backend=backend).fuse(fusion_input)
            for backend in ("serial", "vectorized", "hybrid")
        )
        assert_bit_identical(vectorized, hybrid)
        assert_within_tolerance(serial, vectorized)

    @pytest.mark.parametrize("backend", ["serial", "vectorized", "hybrid"])
    def test_sampling_never_swaps_the_kernel(self, micro_scenario, backend):
        result = popaccu(FusionConfig(sample_limit=TINY_L, backend=backend)).fuse(
            micro_scenario.fusion_input()
        )
        assert result.diagnostics["backend_used"] == backend
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
        # Dict equality: serial writes probabilities in record-arrival order.
        assert baseline.probabilities == reshuffled.probabilities
        assert baseline.accuracies == reshuffled.accuracies
        assert baseline.unpredicted == reshuffled.unpredicted

    def test_sampled_hybrid_on_shuffled_records_matches_vectorized(
        self, micro_scenario
    ):
        vectorized = popaccu(
            FusionConfig(sample_limit=TINY_L, backend="vectorized")
        ).fuse(micro_scenario.fusion_input())
        shuffled = list(micro_scenario.records)
        random.Random(3).shuffle(shuffled)
        hybrid = popaccu(
            FusionConfig(sample_limit=TINY_L, backend="hybrid")
        ).fuse(FusionInput(shuffled))
        assert_bit_identical(vectorized, hybrid)
