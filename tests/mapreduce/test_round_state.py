"""The per-round shared-memory state channel.

Four properties, each load-bearing:

1. **Resolution everywhere**: a handle resolves in-process (serial
   executor, parent-side fallback paths) and inside pool workers, on
   fork and spawn alike, to the exact arrays that were installed.
2. **Generations**: a new install under the same key supersedes the old
   one — workers never serve a stale round's buffers — and two executors
   sharing a key cannot collide (generations are globally unique).
3. **Degraded fallback**: when shared memory is unavailable (segment
   creation fails) the channel degrades to inline pickled
   payloads — counted in ``fallbacks_shm``, tagged in the
   ``round_state_channel``, and numerically indistinguishable.
4. **No leaks**: every segment an executor created is unlinked by the
   next install under its key, by ``uninstall_round_state``, and by
   ``close()`` — nothing survives in ``/dev/shm`` after a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.mapreduce import executors
from repro.mapreduce.executors import (
    ParallelExecutor,
    RoundStateHandle,
    SerialExecutor,
    ShardedMapJob,
)


@dataclass(frozen=True)
class _HandleReader:
    """Picklable shard body: read round-state values for the shard ids."""

    state: RoundStateHandle

    def __call__(self, items: list[int]) -> list[float]:
        arrays = self.state.load()
        return [float(arrays["values"][i]) for i in items]


def _reader_job(handle: RoundStateHandle) -> ShardedMapJob:
    return ShardedMapJob(
        name="round-state-reader", map_shard=_HandleReader(handle), key_fn=str
    )


class TestInProcessResolution:
    def test_serial_install_and_load(self):
        with SerialExecutor() as executor:
            values = np.arange(8, dtype=np.float64)
            handle = executor.install_round_state("test.round", {"values": values})
            assert handle.segment is None and handle.inline is None
            arrays = handle.load()
            assert arrays["values"].base is values  # zero copy in-process
            # Same read-only contract as the shared-memory views.
            assert not arrays["values"].flags.writeable
            with pytest.raises(ValueError):
                arrays["values"][0] = 99.0
            assert executor.run_map([3, 1], _reader_job(handle)) == [3.0, 1.0]

    def test_uninstalled_handle_raises(self):
        executor = SerialExecutor()
        handle = executor.install_round_state(
            "test.round", {"values": np.zeros(1)}
        )
        executor.uninstall_round_state("test.round")
        with pytest.raises(RuntimeError, match="parent-resident"):
            handle.load()

    def test_new_generation_supersedes(self):
        with SerialExecutor() as executor:
            first = executor.install_round_state(
                "test.round", {"values": np.zeros(4)}
            )
            second = executor.install_round_state(
                "test.round", {"values": np.ones(4)}
            )
            assert second.generation > first.generation
            assert second.load()["values"][0] == 1.0

    def test_parallel_parent_side_resolution(self):
        """Tiny jobs fall back in-process; the handle must resolve there."""
        with ParallelExecutor(max_workers=2) as executor:
            handle = executor.install_round_state(
                "test.round", {"values": np.arange(4, dtype=np.float64)}
            )
            assert executor.run_map([2], _reader_job(handle)) == [2.0]
            assert executor.fallbacks_tiny == 1


@pytest.mark.parallel_backend
class TestWorkerResolution:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_read_shared_memory(self, start_method):
        with ParallelExecutor(
            max_workers=2, start_method=start_method
        ) as executor:
            values = np.arange(64, dtype=np.float64) * 0.5
            handle = executor.install_round_state("test.round", {"values": values})
            assert handle.segment is not None
            out = executor.run_map(list(range(64)), _reader_job(handle))
            assert out == values.tolist()
            assert executor.fallbacks == 0 and executor.fallbacks_shm == 0
            assert executor.round_state_channel == "shared-memory"

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_track_generations(self, start_method):
        """A warm pool must serve the *new* round's buffers after a
        reinstall, not its cached attachment of the old segment."""
        with ParallelExecutor(
            max_workers=2, start_method=start_method
        ) as executor:
            first = executor.install_round_state(
                "test.round", {"values": np.zeros(32)}
            )
            assert executor.run_map(list(range(32)), _reader_job(first)) == [0.0] * 32
            second = executor.install_round_state(
                "test.round", {"values": np.ones(32)}
            )
            assert executor.run_map(list(range(32)), _reader_job(second)) == [1.0] * 32

    def test_mixed_dtypes_round_trip(self):
        """float64 + bool layouts share one segment, offsets aligned."""

        @dataclass(frozen=True)
        class _Probe:
            state: RoundStateHandle

            def __call__(self, items):
                arrays = self.state.load()
                return [
                    (float(arrays["acc"][i]), bool(arrays["mask"][i]))
                    for i in items
                ]

        acc = np.linspace(0.0, 1.0, 33)
        mask = np.arange(33) % 3 == 0
        with ParallelExecutor(max_workers=2) as executor:
            handle = executor.install_round_state(
                "test.round", {"mask": mask, "acc": acc}
            )
            job = ShardedMapJob(name="probe", map_shard=_Probe(handle), key_fn=str)
            out = executor.run_map(list(range(33)), job)
        assert out == [(float(a), bool(m)) for a, m in zip(acc, mask)]


def _without_shared_memory(monkeypatch) -> list[int]:
    """Make every segment creation fail, as on a host with no /dev/shm;
    returns the list the failed attempts are recorded in."""
    attempts: list[int] = []
    real = shared_memory.SharedMemory

    def exploding(*args, **kwargs):
        if kwargs.get("create"):
            attempts.append(kwargs.get("size", 0))
            raise OSError("no /dev/shm here")
        return real(*args, **kwargs)

    monkeypatch.setattr(executors.shared_memory, "SharedMemory", exploding)
    return attempts


class TestDegradedFallback:
    def test_failing_shared_memory_goes_inline(self, monkeypatch):
        _without_shared_memory(monkeypatch)
        with ParallelExecutor(max_workers=2) as executor:
            handle = executor.install_round_state(
                "test.round", {"values": np.arange(16, dtype=np.float64)}
            )
            assert handle.segment is None and handle.inline is not None
            assert executor.fallbacks_shm == 1
            assert executor.round_state_channel == "inline (shm fallback)"
            out = executor.run_map(list(range(16)), _reader_job(handle))
            assert out == list(np.arange(16, dtype=np.float64))

    def test_segment_creation_failure_degrades_permanently(self, monkeypatch):
        """A failing shared_memory module must not take the run down —
        the executor degrades to the inline channel and stays there."""
        attempts = _without_shared_memory(monkeypatch)
        with ParallelExecutor(max_workers=2) as executor:
            handle = executor.install_round_state(
                "test.round", {"values": np.ones(8)}
            )
            assert handle.inline is not None
            assert executor.fallbacks_shm == 1
            again = executor.install_round_state(
                "test.round", {"values": np.ones(8)}
            )
            assert again.inline is not None
            assert executor.fallbacks_shm == 2
            assert len(attempts) == 1  # degraded for good: no second probe

    def test_inline_fusion_still_bit_identical(self, micro_scenario, monkeypatch):
        """The fallback channel is a wire format, not a semantic: fused
        output equals the shared-memory (and in-process vectorized)
        reference exactly, sampled runs included, and the degrade is
        tagged in the run's diagnostics."""
        from repro.fusion import FusionConfig, popaccu

        fusion_input = micro_scenario.fusion_input()
        config = FusionConfig(sample_limit=2)
        vectorized = popaccu(config, backend="vectorized").fuse(fusion_input)
        _without_shared_memory(monkeypatch)
        with ParallelExecutor(max_workers=2) as executor:
            inline = popaccu(config, backend="hybrid").fuse(
                fusion_input, executor=executor
            )
        assert inline.probabilities == vectorized.probabilities
        assert inline.accuracies == vectorized.accuracies
        assert inline.diagnostics["round_state"] == "inline (shm fallback)"
        assert inline.diagnostics["fallbacks_shm"] > 0


class TestNoLeaks:
    def _assert_unlinked(self, segment_names):
        assert segment_names, "no segments were created"
        for name in segment_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_reinstall_unlinks_previous_segment(self):
        executor = ParallelExecutor(max_workers=2)
        first = executor.install_round_state("test.round", {"values": np.zeros(4)})
        executor.install_round_state("test.round", {"values": np.ones(4)})
        self._assert_unlinked([first.segment])
        executor.close()

    def test_uninstall_and_close_unlink(self):
        executor = ParallelExecutor(max_workers=2)
        a = executor.install_round_state("test.a", {"values": np.zeros(4)})
        b = executor.install_round_state("test.b", {"values": np.ones(4)})
        executor.uninstall_round_state("test.a")
        self._assert_unlinked([a.segment])
        executor.close()
        self._assert_unlinked([b.segment])
        assert executor._round_segments == {}

    @pytest.mark.parallel_backend
    def test_fusion_run_leaves_no_segments(self, micro_scenario, monkeypatch):
        """Every segment a full multi-round fusion run creates is gone
        once the run returns — on a caller-managed executor, *before*
        close() (the stage uninstalls its round state on exit)."""
        created: list[str] = []
        real = shared_memory.SharedMemory

        def recording(*args, **kwargs):
            segment = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        monkeypatch.setattr(executors.shared_memory, "SharedMemory", recording)
        from repro.fusion import popaccu

        with ParallelExecutor(max_workers=2) as executor:
            result = popaccu(backend="hybrid").fuse(
                micro_scenario.fusion_input(), executor=executor
            )
            assert result.diagnostics["round_state"] == "shared-memory"
            # One install per round (Stage I only), every one already
            # unlinked by the time fuse() returned.
            assert len(created) == result.rounds
            self._assert_unlinked(created)
