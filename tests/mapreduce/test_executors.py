"""Unit tests for the executors: the pooled, map-only job protocol."""

import pytest

from repro.mapreduce.codec import WireCodec, scan_payload_types
from repro.mapreduce.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    ShardedMapJob,
    shard_for_key,
    worker_state,
)

pytestmark = pytest.mark.parallel_backend


@pytest.fixture(scope="module")
def parallel():
    with ParallelExecutor(max_workers=2) as executor:
        yield executor


PROTOCOL = (
    "run_map",
    "install_state",
    "uninstall_state",
    "install_round_state",
    "uninstall_round_state",
    "diagnostics",
    "close",
)


class TestProtocol:
    @pytest.mark.parametrize("executor_type", [SerialExecutor, ParallelExecutor])
    def test_executors_satisfy_protocol(self, executor_type):
        executor = executor_type()
        assert isinstance(executor, Executor)
        for method in PROTOCOL:
            assert callable(getattr(executor, method)), method

    def test_protocol_is_exactly_these_methods(self):
        """One job protocol: no keyed-reduce ``run`` beside ``run_map``."""
        declared = {
            name for name in vars(Executor) if not name.startswith("_")
        }
        assert declared == set(PROTOCOL)
        assert not hasattr(SerialExecutor, "run")
        assert not hasattr(ParallelExecutor, "run")

    @pytest.mark.parametrize("backend, sample_limit", [("serial", None), ("vectorized", 2)])
    @pytest.mark.parametrize("method", ["vote", "popaccu"])
    def test_serial_fuse_handed_a_pool_starts_no_worker(
        self, micro_scenario, method, backend, sample_limit
    ):
        """The in-process scalar mode — asked for, or fallen back to under
        sampling pressure — never consults a caller's executor: nothing is
        installed on the pool, no job is run, no worker is started."""
        from repro.endtoend import make_fuser
        from repro.fusion import FusionConfig

        fusion_input = micro_scenario.fusion_input()
        fuser = make_fuser(
            method,
            FusionConfig(backend=backend, sample_limit=sample_limit, max_rounds=2),
        )
        plain = fuser.fuse(fusion_input)
        assert plain.diagnostics["backend_used"].split()[0] == "serial"
        with ParallelExecutor(max_workers=2) as executor:
            pooled = fuser.fuse(fusion_input, executor=executor)
            assert executor._pool is None
            assert executor.fallbacks == 0
            assert executor.state_bytes_shipped == 0
            assert not executor._installed and not executor._round_installed
        assert pooled.probabilities == plain.probabilities
        assert list(pooled.probabilities) == list(plain.probabilities)
        assert pooled.accuracies == plain.accuracies
        assert pooled.diagnostics == plain.diagnostics
        assert not any(key.startswith("fallbacks_") for key in pooled.diagnostics)


class TestFallbacks:
    def test_fallbacks_sums_all_counters(self):
        executor = ParallelExecutor(max_workers=2)
        executor.fallbacks_tiny = 2
        executor.fallbacks_unpicklable = 3
        executor.fallbacks_shm = 4
        assert executor.fallbacks == 9


def _square_shard(items):
    return [item * item for item in items]


def _identity_key(item):
    return item


def _encode_out(value):
    return ("wire", value)


def _decode_out(wire):
    tag, value = wire
    assert tag == "wire"
    return value


def square_map_job(codec=None):
    return ShardedMapJob(
        name="square", map_shard=_square_shard, key_fn=_identity_key, codec=codec
    )


class TestShardedMap:
    ITEMS = list(range(37))

    def test_serial_preserves_input_order(self):
        assert SerialExecutor().run_map(self.ITEMS, square_map_job()) == [
            i * i for i in self.ITEMS
        ]

    def test_parallel_identical_to_serial(self, parallel):
        job = square_map_job()
        assert parallel.run_map(self.ITEMS, job) == SerialExecutor().run_map(
            self.ITEMS, job
        )
        assert parallel.fallbacks_tiny == 0

    def test_wire_codec_round_trips(self, parallel):
        job = square_map_job(WireCodec(encode=_encode_out, decode=_decode_out))
        assert parallel.run_map(self.ITEMS, job) == [i * i for i in self.ITEMS]

    def test_serial_path_skips_wire_codec(self):
        # In-process there is no boundary to cross; encode/decode must not run.
        def boom(_value):
            raise AssertionError("codec ran in-process")

        job = square_map_job(WireCodec(encode=boom, decode=boom))
        assert SerialExecutor().run_map(self.ITEMS, job) == [
            i * i for i in self.ITEMS
        ]

    def test_tiny_item_count_falls_back(self):
        with ParallelExecutor(max_workers=2, min_keys=100) as executor:
            out = executor.run_map(self.ITEMS, square_map_job())
            assert out == [i * i for i in self.ITEMS]
            assert executor.fallbacks_tiny == 1

    def test_unpicklable_map_falls_back(self, parallel):
        job = ShardedMapJob(
            name="closure",
            map_shard=lambda items: [i * i for i in items],  # not picklable
            key_fn=_identity_key,
        )
        before = parallel.fallbacks_unpicklable
        assert parallel.run_map(self.ITEMS, job) == [i * i for i in self.ITEMS]
        assert parallel.fallbacks_unpicklable == before + 1

    def test_wrong_output_arity_rejected(self):
        job = ShardedMapJob(
            name="dropper",
            map_shard=lambda items: items[:-1],
            key_fn=_identity_key,
        )
        with pytest.raises(ValueError):
            SerialExecutor().run_map(self.ITEMS, job)


def _offset_shard(items):
    """A shard body that depends on pool-resident state."""
    offset = worker_state("test.offset")
    return [item + offset for item in items]


def offset_map_job():
    return ShardedMapJob(
        name="offset", map_shard=_offset_shard, key_fn=_identity_key
    )


class TestWorkerState:
    ITEMS = list(range(23))

    def test_serial_install_and_cleanup(self):
        executor = SerialExecutor()
        executor.install_state("test.offset", 100)
        assert executor.run_map(self.ITEMS, offset_map_job()) == [
            i + 100 for i in self.ITEMS
        ]
        executor.close()
        with pytest.raises(RuntimeError, match="test.offset"):
            worker_state("test.offset")

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_parallel_state_reaches_workers(self, start_method):
        with ParallelExecutor(max_workers=2, start_method=start_method) as executor:
            executor.install_state("test.offset", 1000)
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 1000 for i in self.ITEMS
            ]
            assert executor.fallbacks == 0

    def test_missing_state_raises_with_hint(self):
        with pytest.raises(RuntimeError, match="install_state"):
            worker_state("test.never-installed")

    def test_reinstalling_identical_state_keeps_pool(self):
        with ParallelExecutor(max_workers=2) as executor:
            executor.install_state("test.offset", 7)
            executor.run_map(self.ITEMS, offset_map_job())
            pool = executor._pool
            assert pool is not None
            executor.install_state("test.offset", 7)
            assert executor._pool is pool

    def test_new_state_restarts_pool_once(self):
        with ParallelExecutor(max_workers=2) as executor:
            executor.install_state("test.offset", 7)
            executor.run_map(self.ITEMS, offset_map_job())
            first_pool = executor._pool
            executor.install_state("test.offset", 8)
            assert executor._pool is None  # restarted lazily
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 8 for i in self.ITEMS
            ]
            assert executor._pool is not first_pool

    def test_state_resolves_on_in_process_fallback(self):
        # min_keys forces the tiny fallback: the shard body must still
        # find the state through the parent-side registry.
        with ParallelExecutor(max_workers=2, min_keys=100) as executor:
            executor.install_state("test.offset", 5)
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 5 for i in self.ITEMS
            ]
            assert executor.fallbacks_tiny == 1

    def test_close_uninstalls_parallel_state(self):
        executor = ParallelExecutor(max_workers=2)
        executor.install_state("test.offset", 7)
        executor.close()
        with pytest.raises(RuntimeError):
            worker_state("test.offset")

    def test_unpicklable_state_degrades_to_in_process(self):
        """State that will not pickle never reaches workers; jobs run
        in-process against the parent registry and are counted, exactly
        like an unpicklable work unit."""
        with ParallelExecutor(max_workers=2) as executor:
            executor.install_state("test.offset", 10)  # lambda-free baseline
            unpicklable = {"offset": 10, "hook": lambda: None}
            executor.install_state("test.unpicklable", unpicklable)
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 10 for i in self.ITEMS
            ]
            assert executor.fallbacks_unpicklable == 1
            # Replacing the bad state restores real dispatch.
            executor.install_state("test.unpicklable", {"offset": 10})
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 10 for i in self.ITEMS
            ]
            assert executor.fallbacks_unpicklable == 1

    def test_uninstall_state_drops_key_from_future_pools(self):
        with ParallelExecutor(max_workers=2) as executor:
            executor.install_state("test.offset", 3)
            executor.install_state("test.extra", "heavy")
            executor.uninstall_state("test.extra")
            assert "test.extra" not in executor._state_blobs
            with pytest.raises(RuntimeError):
                worker_state("test.extra")
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 3 for i in self.ITEMS
            ]

    def test_close_leaves_another_executors_state_alone(self):
        """Later installs win; an earlier executor's close must not tear
        down the value a live executor has since installed."""
        first = SerialExecutor()
        second = SerialExecutor()
        try:
            first.install_state("test.offset", 1)
            second.install_state("test.offset", 2)
            first.close()
            assert worker_state("test.offset") == 2
        finally:
            second.close()


class TestWireCodecLayer:
    def test_job_accepts_codec_object(self, parallel):
        codec = WireCodec(encode=_encode_out, decode=_decode_out)
        job = ShardedMapJob(
            name="square", map_shard=_square_shard, key_fn=_identity_key,
            codec=codec,
        )
        assert parallel.run_map(TestShardedMap.ITEMS, job) == [
            i * i for i in TestShardedMap.ITEMS
        ]

    def test_scan_payload_types_sees_through_containers(self):
        import numpy as np

        class Marker:
            pass

        payload = {"a": [(1, Marker()), np.arange(3)], ("k",): {2.0}}
        types = scan_payload_types(payload)
        assert Marker in types
        assert int in types and float in types

    def test_scan_payload_types_descends_into_dataclasses(self):
        from dataclasses import dataclass

        class Marker:
            pass

        @dataclass(frozen=True)
        class Spec:
            inner: object

        assert Marker in scan_payload_types(Spec(inner=(Marker(),)))


class TestSharding:
    def test_shard_assignment_is_stable(self):
        keys = ["alpha", ("a", "b"), ("a", "b", "c"), "omega"]
        assignments = [shard_for_key(key, 8) for key in keys]
        assert assignments == [shard_for_key(key, 8) for key in keys]
        assert all(0 <= shard < 8 for shard in assignments)
