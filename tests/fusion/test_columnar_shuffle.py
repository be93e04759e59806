"""The columnar-shuffle contract for fusion's pooled backend (``hybrid``).

Four properties, each load-bearing:

1. **Parity**: hybrid fused output is *bit-identical* to in-process
   ``vectorized`` — at 1, 2 and 4 workers, under both the fork and spawn
   start methods (every batched aggregate is per item or per row, so a
   shard's slice scores exactly as the whole matrix does).
2. **Shuffle invariance**: permuting the extraction-record stream does
   not change the pooled fused output (the columnar layout is
   canonical, not insertion-ordered).
3. **Payload purity**: no ``Triple``/``DataItem``/
   ``ExtractionRecord`` object — and, since the shared-memory round-state
   channel, *no numpy buffer either* — ever rides in a fusion shard task
   payload: only integer ids, primitives, and the tiny round-state handle
   cross per shard.  The heavyweight columns cross once through the pool
   initializer; the per-round accuracy/active buffers (and, under
   sampling, the claim keep-mask) cross once per round through shared
   memory.
4. **One map stage per round**: a pooled round dispatches Stage I and
   nothing else (Stage II runs in the parent), and outputs are pinned to
   fingerprints computed while Stage II was still a map job.
"""

import hashlib
import pickle
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.datasets import build_scenario, tiny_config
from repro.endtoend import make_fuser
from repro.errors import ConfigError
from repro.extract.records import ExtractionRecord
from repro.fusion import (
    PARITY_TOLERANCE_ABS,
    FusionConfig,
    popaccu,
    popaccu_plus,
    vote,
)
from repro.fusion.observations import FusionInput
from repro.fusion.popaccu import PopAccuKernel
from repro.fusion.runner import run_bayesian_fusion
from repro.fusion.shuffle import stage1_blocks
from repro.kb.triples import DataItem, Triple
from repro.mapreduce import executors
from repro.mapreduce.codec import scan_payload_types
from repro.mapreduce.executors import ParallelExecutor, SerialExecutor

pytestmark = pytest.mark.parallel_backend

#: Types that must never appear in a shard task payload.
FORBIDDEN = (Triple, DataItem, ExtractionRecord)

WORKER_COUNTS = (1, 2, 4)
START_METHODS = ("fork", "spawn")


def assert_bit_identical(expected, actual):
    assert list(actual.probabilities.items()) == list(expected.probabilities.items())
    assert actual.accuracies == expected.accuracies
    assert actual.unpredicted == expected.unpredicted
    assert actual.rounds == expected.rounds
    assert actual.converged == expected.converged


class TestParity:
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_popaccu_plus_bit_identical_everywhere(
        self, micro_scenario, n_workers, start_method
    ):
        """The flagship (filters + gold init) across the full matrix."""
        fusion_input = micro_scenario.fusion_input()
        vectorized = popaccu_plus(micro_scenario.gold, FusionConfig(backend="vectorized")).fuse(
            fusion_input
        )
        with ParallelExecutor(
            max_workers=n_workers, start_method=start_method
        ) as executor:
            hybrid = popaccu_plus(micro_scenario.gold, FusionConfig(backend="hybrid")).fuse(
                fusion_input, executor=executor
            )
        assert hybrid.diagnostics["backend_used"] == "hybrid"
        assert_bit_identical(vectorized, hybrid)

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_vote_bit_identical(self, micro_scenario, start_method):
        fusion_input = micro_scenario.fusion_input()
        vectorized = vote(FusionConfig(backend="vectorized")).fuse(fusion_input)
        with ParallelExecutor(
            max_workers=2, start_method=start_method
        ) as executor:
            hybrid = vote(FusionConfig(backend="hybrid")).fuse(fusion_input, executor=executor)
        assert hybrid.diagnostics["backend_used"] == "hybrid"
        assert_bit_identical(vectorized, hybrid)

    def test_track_rounds_matches_vectorized(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()

        def run(backend):
            return run_bayesian_fusion(
                fusion_input=fusion_input,
                config=FusionConfig(backend=backend, max_rounds=2),
                item_posterior_fn=PopAccuKernel(),
                method_name="POPACCU",
                track_rounds=True,
            )

        vectorized, hybrid = run("vectorized"), run("hybrid")
        assert (
            vectorized.diagnostics["round_probabilities"]
            == hybrid.diagnostics["round_probabilities"]
        )

    def test_diagnostics_match_serial(self, micro_scenario):
        fusion_input = micro_scenario.fusion_input()
        serial = popaccu(FusionConfig(backend="serial")).fuse(fusion_input)
        hybrid = popaccu(FusionConfig(backend="hybrid")).fuse(fusion_input)
        for key in ("n_items", "n_provenances", "n_claims", "n_active_final",
                    "gold_initialized"):
            assert hybrid.diagnostics[key] == serial.diagnostics[key], key


class TestShuffleInvariance:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_record_order_does_not_change_pooled_output(
        self, micro_scenario, seed
    ):
        vectorized = popaccu(FusionConfig(backend="vectorized")).fuse(
            micro_scenario.fusion_input()
        )
        shuffled = list(micro_scenario.records)
        random.Random(seed).shuffle(shuffled)
        hybrid = popaccu(FusionConfig(backend="hybrid")).fuse(FusionInput(shuffled))
        assert_bit_identical(vectorized, hybrid)


class TestInProcessDegrades:
    """A pooled fuse has no in-process path to degrade to: what used to
    run in the parent under a ``hybrid`` label now raises instead."""

    def test_unpicklable_kernel_is_a_config_error(self, micro_scenario):
        """A kernel that cannot ship to workers fails the first round's
        job, naming it, and leaves no segment registered."""

        class LocalKernel(PopAccuKernel):  # local classes do not pickle
            pass

        with ParallelExecutor(max_workers=2) as executor:
            with pytest.raises(ConfigError, match="job 'fusion.stage1' cannot be pickled"):
                run_bayesian_fusion(
                    fusion_input=micro_scenario.fusion_input(),
                    config=FusionConfig(backend="hybrid", max_rounds=2),
                    item_posterior_fn=LocalKernel(),
                    method_name="POPACCU",
                    executor=executor,
                )
            assert executor._round_segments == {}
            assert executor._pool is None

    @pytest.mark.parametrize("method", ["vote", "popaccu"])
    def test_pooled_fuse_handed_an_in_process_executor_is_a_config_error(
        self, micro_scenario, method
    ):
        """``hybrid`` on a caller's ``SerialExecutor`` raises before any
        work instead of running in the parent."""
        fuser = make_fuser(method, FusionConfig(backend="hybrid"))
        with SerialExecutor() as executor:
            with pytest.raises(ConfigError, match="handed a SerialExecutor"):
                fuser.fuse(micro_scenario.fusion_input(), executor=executor)

    def test_vote_sampling_keeps_the_pooled_batched_kernel(self, micro_scenario):
        """Sampling is a per-round claim mask every kernel reads: a sampled
        pooled VOTE stays ``hybrid`` and equals sampled ``vectorized``."""
        fusion_input = micro_scenario.fusion_input()
        vectorized = vote(FusionConfig(sample_limit=2, backend="vectorized")).fuse(
            fusion_input
        )
        hybrid = vote(FusionConfig(sample_limit=2, backend="hybrid")).fuse(
            fusion_input
        )
        assert hybrid.diagnostics["backend_used"] == "hybrid"
        assert hybrid.diagnostics["sampling"] == "canonical-order"
        assert_bit_identical(vectorized, hybrid)


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

    def _assert_payloads_clean(self, recorded):
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
                assert not any(issubclass(t, np.ndarray) for t in types), (
                    "shard payload carries a numpy buffer — per-round "
                    "state must cross on the round-state channel, not "
                    "in the spec"
                )

    @pytest.mark.parametrize("sample_limit", [1_000_000, 2])
    def test_fusion_shards_carry_no_claim_objects_or_buffers(
        self, micro_scenario, monkeypatch, sample_limit
    ):
        """Sampled runs included: the claim keep-mask rides the round-state
        channel, never the spec."""
        recorded = self._record_submissions(monkeypatch)
        result = popaccu_plus(
            micro_scenario.gold, FusionConfig(sample_limit=sample_limit, backend="hybrid")
        ).fuse(micro_scenario.fusion_input())
        assert result.diagnostics["backend_used"] == "hybrid"
        self._assert_payloads_clean(recorded)

    def test_vote_shards_carry_no_claim_objects(self, micro_scenario, monkeypatch):
        recorded = self._record_submissions(monkeypatch)
        vote(FusionConfig(backend="hybrid")).fuse(micro_scenario.fusion_input())
        self._assert_payloads_clean(recorded)

    def test_extraction_shards_carry_no_extractor_objects(
        self, micro_scenario, monkeypatch
    ):
        """The fleet is pool-resident: shard payloads hold pages only."""
        from repro.extract.base import Extractor

        recorded = self._record_submissions(monkeypatch)
        with ParallelExecutor(max_workers=2) as executor:
            micro_scenario.pipeline.run(
                micro_scenario.corpus, backend="hybrid", executor=executor
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


#: sha256 of fused output at ``tiny`` seed 0, per (backend, method, L).
#: Computed with 2 workers at the commit where both stages were still map
#: jobs — never re-bless them to make a change pass.  The ``serial``
#: hashes were computed by a pooled scalar mode the mode table used to
#: have, which was bit-identical to ``serial``; :func:`pooled_fingerprint`
#: reads probabilities in canonical row order, the order that mode wrote.
POOLED_FUSION_FINGERPRINTS = {
    ("serial", "popaccu", 1_000_000): "b188620c8840bf129196109f3e59018ee2d9dae2c011798e4c3618facc4f2b6e",
    ("serial", "popaccu", 2): "bf957c0180475dc4c7b704cb8d38c7ff8345b40186064b7028e920bd17d0fac5",
    ("serial", "popaccu+", 1_000_000): "2dd842baf9d3ec9b34f0249e4b457700986671ad721be5d4d4aae875139da2ff",
    ("serial", "popaccu+", 2): "9d4872dced7691f6b48d65f245f173cd0b60188e4d8f7fc3bef5b9b32bad657e",
    ("serial", "accu", 1_000_000): "44ff2237e72cc73d5ed4779f996fd200d02e0eedc6c85fb0ef67d09dd619edab",
    ("serial", "accu", 2): "4eec66eb3c80a3387bce51ed06ee303f7176d038f82975cd9f227f0d8e861264",
    ("hybrid", "popaccu", 1_000_000): "80aef266b695b911dea2e741218b9a74c3fb17150092565efd8bc79bf41bee29",
    ("hybrid", "popaccu+", 1_000_000): "ec463d56822ce3cd09c6b150e36e94bfe0ac6fd0bfac0acd9bb4c70c6826386a",
    ("hybrid", "accu", 1_000_000): "d0c06f485d5cfb19350f6ebd25ddff186721657eba8aafedd1bec9d0261009ab",
}


def pooled_fingerprint(result, cols) -> str:
    """sha256 over the probabilities (canonical row order of ``cols``,
    ``float.hex``), the accuracies (dict order), and the sorted
    unpredicted set."""
    digest = hashlib.sha256()
    for triple in cols.triples:
        if triple in result.probabilities:
            p = result.probabilities[triple]
            digest.update(repr((triple.canonical(), p.hex())).encode())
    for prov, a in result.accuracies.items():
        digest.update(repr((prov, a.hex())).encode())
    for canonical in sorted(t.canonical() for t in result.unpredicted):
        digest.update(canonical.encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def tiny_seed0():
    return build_scenario(tiny_config(seed=0))


def _fuse(scenario, method, backend, sample_limit):
    config = FusionConfig(backend=backend, n_workers=2, sample_limit=sample_limit)
    fuser = make_fuser(method, config, scenario.gold)
    fusion_input = scenario.fusion_input()
    result = fuser.fuse(fusion_input)
    return result, fusion_input.claims(fuser.config.granularity)


class TestOneMapStagePerRound:
    @pytest.mark.parametrize(
        "backend, method, sample_limit", sorted(POOLED_FUSION_FINGERPRINTS)
    )
    def test_fingerprints_are_the_committed_ones(
        self, tiny_seed0, backend, method, sample_limit
    ):
        result, cols = _fuse(tiny_seed0, method, backend, sample_limit)
        expected = POOLED_FUSION_FINGERPRINTS[backend, method, sample_limit]
        assert pooled_fingerprint(result, cols) == expected

    @pytest.mark.parametrize("method", ["popaccu", "popaccu+", "accu"])
    def test_sampled_hybrid_contract(self, tiny_seed0, method):
        """Sampled ``hybrid`` equals sampled ``vectorized`` bit for bit and
        sampled ``serial`` within the tolerance contract, with the same
        rounds and θ-filter outcome."""
        results = {
            backend: _fuse(tiny_seed0, method, backend, 2)[0]
            for backend in ("serial", "vectorized", "hybrid")
        }
        serial, hybrid = results["serial"], results["hybrid"]
        assert hybrid.diagnostics["backend_used"] == "hybrid"
        assert hybrid.diagnostics["parity"] == "tolerance"
        assert_bit_identical(results["vectorized"], hybrid)
        assert set(hybrid.probabilities) == set(serial.probabilities)
        for triple, probability in serial.probabilities.items():
            assert abs(hybrid.probabilities[triple] - probability) <= PARITY_TOLERANCE_ABS
        for prov, accuracy in serial.accuracies.items():
            assert abs(hybrid.accuracies[prov] - accuracy) <= PARITY_TOLERANCE_ABS
        assert hybrid.rounds == serial.rounds
        assert hybrid.diagnostics["n_active_final"] == serial.diagnostics["n_active_final"]

    @pytest.mark.parametrize(
        "method, sample_limit, job_name",
        [
            ("popaccu", 1_000_000, "fusion.stage1"),
            ("popaccu", 2, "fusion.stage1"),
            ("vote", 1_000_000, "vote.stage1"),
        ],
    )
    def test_one_job_and_one_install_per_round(
        self, micro_scenario, monkeypatch, method, sample_limit, job_name
    ):
        jobs: list[str] = []
        installs: list[tuple[str, ...]] = []
        run_map = ParallelExecutor.run_map
        install_round_state = ParallelExecutor.install_round_state

        def spy_run_map(self, items, job):
            jobs.append(job.name)
            return run_map(self, items, job)

        def spy_install(self, key, arrays):
            installs.append(tuple(arrays))
            return install_round_state(self, key, arrays)

        monkeypatch.setattr(ParallelExecutor, "run_map", spy_run_map)
        monkeypatch.setattr(ParallelExecutor, "install_round_state", spy_install)
        config = FusionConfig(backend="hybrid", sample_limit=sample_limit)
        result = make_fuser(method, config).fuse(micro_scenario.fusion_input())
        assert result.diagnostics["backend_used"] == "hybrid"
        assert set(jobs) == {job_name}
        rounds = 1 if method == "vote" else result.rounds  # VOTE: rounds == 0
        assert len(jobs) == len(installs) == rounds
        # The keep-mask crosses only when sampling engages.
        assert all(("keep" in arrays) == (sample_limit == 2) for arrays in installs)


def _one_row_per_item(claims_per_item):
    """The CSR arrays :func:`stage1_blocks` reads, one row per item."""
    counts = np.asarray(claims_per_item, dtype=np.int64)
    return SimpleNamespace(
        n_items=len(counts),
        item_ptr=np.arange(len(counts) + 1, dtype=np.int64),
        row_ptr=np.concatenate(([0], np.cumsum(counts))),
    )


def assert_blocks_cover_and_balance(cols, n_blocks):
    blocks = stage1_blocks(cols, n_blocks)
    assert len(blocks) == min(n_blocks, cols.n_items)
    bounds = [start for start, _end in blocks] + [cols.n_items]
    assert blocks == list(zip(bounds[:-1], bounds[1:]))  # every item once, in order
    assert all(end > start for start, end in blocks)
    offsets = cols.row_ptr[cols.item_ptr]
    largest_item = int(np.diff(offsets).max())
    mean = offsets[-1] / len(blocks)
    assert all(offsets[end] - offsets[start] <= mean + largest_item for start, end in blocks)


class TestItemBlocks:
    """Pooled Stage I's items are contiguous item blocks of about equal
    claim counts, one per shard."""

    @pytest.mark.parametrize(
        "claims, n_blocks",
        [
            ([3] * 20, 1),
            ([3] * 20, 8),
            ([3] * 20, 20),
            ([3] * 20, 25),
            ([1] * 10 + [500] + [1] * 10, 8),
            (list(range(1, 41)), 4),  # equal item counts would overfill the last
            ([1000, 1, 1, 1], 4),  # the first cut must be pushed right
            ([1, 1, 1, 1000], 4),  # the last cuts must be pulled left
            ([7], 8),
        ],
    )
    def test_blocks_on_synthetic_claim_counts(self, claims, n_blocks):
        assert_blocks_cover_and_balance(_one_row_per_item(claims), n_blocks)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_blocks", [2, 8, 16])
    def test_blocks_on_random_claim_counts(self, seed, n_blocks):
        rng = np.random.default_rng(seed)
        claims = rng.integers(1, 60, size=int(rng.integers(1, 120)))
        assert_blocks_cover_and_balance(_one_row_per_item(claims), n_blocks)

    @pytest.mark.parametrize("n_blocks", [1, 8, 16])
    def test_blocks_on_scenario_claims(self, tiny_seed0, n_blocks):
        cols = tiny_seed0.fusion_input().claims(popaccu().config.granularity)
        assert_blocks_cover_and_balance(cols, n_blocks)

    def test_no_items_no_blocks(self):
        assert stage1_blocks(_one_row_per_item([]), 8) == []

    @pytest.mark.parametrize("n_items", [1, 3])
    def test_more_shards_than_items_equals_vectorized(
        self, micro_scenario, monkeypatch, n_items
    ):
        """Fewer items than shards: one single-item block per item, and
        ``hybrid`` still equals ``vectorized`` bit for bit."""
        records = list(micro_scenario.records)
        kept = sorted({record.triple.data_item for record in records})[:n_items]
        fusion_input = FusionInput([r for r in records if r.triple.data_item in kept])
        submitted = []
        run_map = ParallelExecutor.run_map

        def spy(self, items, job):
            submitted.append(list(items))
            return run_map(self, items, job)

        monkeypatch.setattr(ParallelExecutor, "run_map", spy)
        vectorized = popaccu(FusionConfig(backend="vectorized")).fuse(fusion_input)
        with ParallelExecutor(max_workers=2) as executor:
            hybrid = popaccu(FusionConfig(backend="hybrid")).fuse(fusion_input, executor=executor)
        assert hybrid.diagnostics["n_items"] == n_items
        assert submitted and all(
            blocks == [(j, j + 1) for j in range(n_items)] for blocks in submitted
        )
        assert_bit_identical(vectorized, hybrid)
