"""Unit tests for the executors: the pooled, map-only job protocol."""

import gc
import os

import pytest

from repro.errors import ConfigError
from repro.mapreduce.codec import scan_payload_types
from repro.mapreduce.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    ShardedMapJob,
    worker_state,
)

pytestmark = pytest.mark.parallel_backend


@pytest.fixture(scope="module")
def parallel():
    with ParallelExecutor(max_workers=2) as executor:
        yield executor


PROTOCOL = ("run_map", "install_state", "uninstall_state", "diagnostics", "close")


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
        # Round state is a pool-only channel: nothing resolves it in-process.
        assert not hasattr(SerialExecutor, "install_round_state")
        assert SerialExecutor().diagnostics() == {}

    @pytest.mark.parametrize("backend, sample_limit", [("serial", None), ("vectorized", 2)])
    @pytest.mark.parametrize("method", ["vote", "popaccu"])
    def test_in_process_fuse_handed_a_pool_starts_no_worker(
        self, micro_scenario, method, backend, sample_limit
    ):
        """An in-process mode — scalar, or batched under sampling — never
        consults a caller's executor: nothing is installed on the pool, no
        job is run, no worker is started."""
        from repro.endtoend import make_fuser
        from repro.fusion import FusionConfig

        fusion_input = micro_scenario.fusion_input()
        fuser = make_fuser(
            method,
            FusionConfig(backend=backend, sample_limit=sample_limit, max_rounds=2),
        )
        plain = fuser.fuse(fusion_input)
        assert plain.diagnostics["backend_used"] == backend
        with ParallelExecutor(max_workers=2) as executor:
            pooled = fuser.fuse(fusion_input, executor=executor)
            assert executor._pool is None
            assert executor.state_bytes_shipped == 0
            assert not executor._state_blobs and not executor._round_segments
        assert pooled.probabilities == plain.probabilities
        assert list(pooled.probabilities) == list(plain.probabilities)
        assert pooled.accuracies == plain.accuracies
        assert pooled.diagnostics == plain.diagnostics
        assert not any(key.startswith("fallbacks_") for key in pooled.diagnostics)


class TestConstruction:
    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_invalid_max_workers_rejected(self, max_workers):
        with pytest.raises(ConfigError, match="max_workers must be >= 1"):
            ParallelExecutor(max_workers=max_workers)


def _square_shard(items):
    return [item * item for item in items]


def _pid_shard(items):
    return [os.getpid() for _item in items]


def _drop_one_shard(items):
    return _square_shard(items)[1:]


def square_map_job():
    return ShardedMapJob(name="square", map_shard=_square_shard)


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

    def test_one_item_job_runs_in_the_pool(self):
        """No job is too small for the pool: one item is one shard in a
        worker, never a run in the parent."""
        job = ShardedMapJob(name="pid", map_shard=_pid_shard)
        with ParallelExecutor(max_workers=2) as executor:
            [pid] = executor.run_map([7], job)
            assert pid != os.getpid()

    def test_empty_job_starts_no_worker(self):
        with ParallelExecutor(max_workers=2) as executor:
            assert executor.run_map([], square_map_job()) == []
            assert executor._pool is None

    def test_unpicklable_map_is_a_config_error(self, parallel):
        """A work unit that cannot reach a worker raises, naming the job —
        it is not run in the parent instead."""
        job = ShardedMapJob(
            name="closure",
            map_shard=lambda items: [i * i for i in items],  # not picklable
        )
        with pytest.raises(ConfigError, match="job 'closure' cannot be pickled"):
            parallel.run_map(self.ITEMS, job)

    def test_wrong_output_arity_rejected(self, parallel):
        job = ShardedMapJob(name="dropper", map_shard=_drop_one_shard)
        for executor in (SerialExecutor(), parallel):
            with pytest.raises(ValueError, match="the contract is one per item"):
                executor.run_map(self.ITEMS, job)


def _collector_shard(items):
    """A shard body reporting, per item, whether the worker collects."""
    return [gc.isenabled() for _item in items]


def _collector_at_unpickle():
    return gc.isenabled()


class _CollectorAtUnpickle:
    """Installed state that unpickles to whether the collector was on."""

    def __reduce__(self):
        return (_collector_at_unpickle, ())


def _installed_collector_shard(items):
    return [worker_state("test.collector") for _item in items]


class TestWorkersNeverCollect:
    """A pool worker never runs the cyclic GC: the initializer, installed
    on every pool, disables it before it unpickles the installed state.
    The caller's collector is left as it was found."""

    ITEMS = list(range(17))

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_a_worker_runs_with_the_collector_off(self, start_method):
        assert gc.isenabled()
        with ParallelExecutor(max_workers=2, start_method=start_method) as executor:
            job = ShardedMapJob(name="collector", map_shard=_collector_shard)
            assert executor.run_map(self.ITEMS, job) == [False] * len(self.ITEMS)
            assert gc.isenabled()
        assert gc.isenabled()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_installed_state_is_unpickled_with_the_collector_off(self, start_method):
        with ParallelExecutor(max_workers=2, start_method=start_method) as executor:
            executor.install_state("test.collector", _CollectorAtUnpickle())
            job = ShardedMapJob(name="state", map_shard=_installed_collector_shard)
            assert executor.run_map(self.ITEMS, job) == [False] * len(self.ITEMS)

    def test_a_restarted_pool_runs_with_the_collector_off(self):
        job = ShardedMapJob(name="collector", map_shard=_collector_shard)
        with ParallelExecutor(max_workers=2) as executor:
            executor.run_map(self.ITEMS, job)
            first_pool = executor._pool
            executor.install_state("test.offset", 1)  # restarts the pool
            assert executor.run_map(self.ITEMS, job) == [False] * len(self.ITEMS)
            assert executor._pool is not first_pool

    def test_a_callers_paused_collector_stays_paused(self):
        gc.disable()
        try:
            with ParallelExecutor(max_workers=2) as executor:
                assert executor.run_map(self.ITEMS, square_map_job()) == [
                    i * i for i in self.ITEMS
                ]
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()


def _offset_shard(items):
    """A shard body that depends on pool-resident state."""
    offset = worker_state("test.offset")
    return [item + offset for item in items]


def offset_map_job():
    return ShardedMapJob(name="offset", map_shard=_offset_shard)


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

    def test_parallel_install_stays_out_of_the_parent_registry(self):
        """Pool-resident state lives in the workers only: no job runs in
        the parent, so the parent registry is never filled."""
        with ParallelExecutor(max_workers=2) as executor:
            executor.install_state("test.offset", 5)
            with pytest.raises(RuntimeError, match="test.offset"):
                worker_state("test.offset")
            assert executor.run_map([3], offset_map_job()) == [8]

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

    def test_close_uninstalls_parallel_state(self):
        executor = ParallelExecutor(max_workers=2)
        executor.install_state("test.offset", 7)
        executor.close()
        assert executor._state_blobs == {}

    def test_unpicklable_state_is_a_config_error(self):
        """State that will not pickle cannot reach a worker: the install
        raises, naming the key, and leaves the installed state as it was."""
        with ParallelExecutor(max_workers=2) as executor:
            executor.install_state("test.offset", 10)
            unpicklable = {"offset": 10, "hook": lambda: None}
            with pytest.raises(ConfigError, match="'test.unpicklable' cannot be pickled"):
                executor.install_state("test.unpicklable", unpicklable)
            assert set(executor._state_blobs) == {"test.offset"}
            assert executor.run_map(self.ITEMS, offset_map_job()) == [
                i + 10 for i in self.ITEMS
            ]

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


def _shard_span(items):
    """Each item's output names its shard: ``(item, first item, size)``."""
    return [(item, items[0], len(items)) for item in items]


class TestContiguousShards:
    """Pooled ``run_map`` cuts its items by position into ``min(4 ×
    workers, n)`` contiguous runs whose sizes differ by at most one (the
    longer first) and concatenates their outputs in input order."""

    @pytest.mark.parametrize(
        "n_items, sizes",
        [
            (5, [1] * 5),  # n < 4 × workers
            (8, [1] * 8),  # n == 4 × workers
            (10, [2, 2, 1, 1, 1, 1, 1, 1]),  # the 10-window ``small`` chunk
            (37, [5, 5, 5, 5, 5, 4, 4, 4]),  # n > 4 × workers
        ],
    )
    def test_shards_are_contiguous_runs_in_input_order(self, parallel, n_items, sizes):
        items = list(range(n_items))
        outputs = parallel.run_map(items, ShardedMapJob(name="span", map_shard=_shard_span))
        assert [item for item, _start, _size in outputs] == items
        spans = list(dict.fromkeys((start, size) for _item, start, size in outputs))
        assert [size for _start, size in spans] == sizes
        assert [start for start, _size in spans] == [sum(sizes[:k]) for k in range(len(sizes))]
        assert all(start <= item < start + size for item, start, size in outputs)
        assert parallel.n_shards(n_items) == len(sizes)

    def test_a_web_chunk_is_one_window_per_shard(self):
        """A 2,048-page ``web`` chunk is 8 windows: at 4 workers each is
        its own shard.  ``n_shards`` starts no pool."""
        executor = ParallelExecutor(max_workers=4)
        assert executor.n_shards(8) == 8
        assert executor.n_shards(100) == 16
        assert executor._pool is None
