"""The per-round shared-memory state channel.

Four properties, each load-bearing:

1. **Resolution in workers**: a handle resolves inside pool workers, on
   fork and spawn alike, to the exact arrays that were installed — for
   every job, a one-item job included; nothing resolves it in the parent.
2. **Generations**: a new install under the same key supersedes the old
   one — workers never serve a stale round's buffers — and two executors
   sharing a key cannot collide (generations are globally unique).
3. **Loud failure**: when shared memory is unavailable (segment creation
   fails) the install raises — there is no second channel — and a pooled
   fuse propagates the error with every segment it made unlinked.
4. **No leaks**: every segment an executor created is unlinked by the
   next install under its key, by ``uninstall_round_state``, and by
   ``close()`` — nothing survives in ``/dev/shm`` after a run, and no
   resource tracker reports one as leaked.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.mapreduce import executors
from repro.mapreduce.executors import (
    ParallelExecutor,
    RoundStateHandle,
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
    return ShardedMapJob(name="round-state-reader", map_shard=_HandleReader(handle))


@dataclass(frozen=True)
class _Probe:
    """Picklable shard body: read a float64 and a bool array out of one
    segment, and say which process read them."""

    state: RoundStateHandle

    def __call__(self, items):
        arrays = self.state.load()
        return [
            (float(arrays["acc"][i]), bool(arrays["mask"][i]), os.getpid())
            for i in items
        ]


def _probe(executor: ParallelExecutor, items, acc, mask) -> list:
    handle = executor.install_round_state("test.round", {"mask": mask, "acc": acc})
    job = ShardedMapJob(name="probe", map_shard=_Probe(handle))
    return executor.run_map(items, job)


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
            assert second.generation > first.generation
            assert executor.run_map(list(range(32)), _reader_job(second)) == [1.0] * 32

    def test_mixed_dtypes_round_trip(self):
        """float64 + bool layouts share one segment, offsets aligned — read
        back in the workers."""
        acc = np.linspace(0.0, 1.0, 33)
        mask = np.arange(33) % 3 == 0
        with ParallelExecutor(max_workers=2) as executor:
            out = _probe(executor, list(range(33)), acc, mask)
        assert [(a, m) for a, m, _pid in out] == [
            (float(a), bool(m)) for a, m in zip(acc, mask)
        ]
        assert os.getpid() not in {pid for _a, _m, pid in out}

    def test_one_item_job_resolves_in_a_worker(self):
        """No job is too small for the pool: a one-item job reads the round
        state in a worker, not in the parent."""
        acc, mask = np.linspace(0.0, 1.0, 8), np.arange(8) % 2 == 0
        with ParallelExecutor(max_workers=2) as executor:
            [(a, m, pid)] = _probe(executor, [5], acc, mask)
        assert (a, m) == (float(acc[5]), bool(mask[5]))
        assert pid != os.getpid()

    def test_installer_may_mutate_its_arrays(self):
        """The install copies into the segment: the caller's arrays stay
        its own (the fusion runner updates its accuracy vector in place)."""
        values = np.arange(16, dtype=np.float64)
        with ParallelExecutor(max_workers=2) as executor:
            handle = executor.install_round_state("test.round", {"values": values})
            values[:] = -1.0
            out = executor.run_map(list(range(16)), _reader_job(handle))
        assert out == [float(i) for i in range(16)]


def _failing_shared_memory(monkeypatch, allowed: int = 0) -> list[str]:
    """Make every segment creation after the first ``allowed`` fail, as on
    a host with no /dev/shm; returns the names of the segments created."""
    created: list[str] = []
    real = shared_memory.SharedMemory

    def failing(*args, **kwargs):
        if kwargs.get("create"):
            if len(created) >= allowed:
                raise OSError("no /dev/shm here")
            segment = real(*args, **kwargs)
            created.append(segment.name)
            return segment
        return real(*args, **kwargs)

    monkeypatch.setattr(executors.shared_memory, "SharedMemory", failing)
    return created


def _assert_unlinked(segment_names):
    assert segment_names, "no segments were created"
    for name in segment_names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestLoudFailure:
    def test_failing_shared_memory_raises(self, monkeypatch):
        """The segment error propagates from the install; the previous
        round's segment under the key is already unlinked, and nothing is
        left registered."""
        created = _failing_shared_memory(monkeypatch, allowed=1)
        with ParallelExecutor(max_workers=2) as executor:
            executor.install_round_state("test.round", {"values": np.zeros(8)})
            with pytest.raises(OSError, match="no /dev/shm here"):
                executor.install_round_state("test.round", {"values": np.ones(8)})
            assert executor._round_segments == {}
            _assert_unlinked(created)

    @pytest.mark.parallel_backend
    def test_hybrid_fuse_raises_and_leaks_no_segment(self, micro_scenario, monkeypatch):
        """A pooled fuse whose second round cannot get a segment fails with
        that error — no silent switch to another channel — and the first
        round's segment is unlinked on the way out."""
        from repro.fusion import FusionConfig, popaccu

        created = _failing_shared_memory(monkeypatch, allowed=1)
        with ParallelExecutor(max_workers=2) as executor:
            with pytest.raises(OSError, match="no /dev/shm here"):
                popaccu(FusionConfig(backend="hybrid")).fuse(
                    micro_scenario.fusion_input(), executor=executor
                )
            assert executor._round_segments == {}
        assert len(created) == 1
        _assert_unlinked(created)


class TestNoLeaks:
    def test_reinstall_unlinks_previous_segment(self):
        executor = ParallelExecutor(max_workers=2)
        first = executor.install_round_state("test.round", {"values": np.zeros(4)})
        executor.install_round_state("test.round", {"values": np.ones(4)})
        _assert_unlinked([first.segment])
        executor.close()

    def test_uninstall_and_close_unlink(self):
        executor = ParallelExecutor(max_workers=2)
        a = executor.install_round_state("test.a", {"values": np.zeros(4)})
        b = executor.install_round_state("test.b", {"values": np.ones(4)})
        executor.uninstall_round_state("test.a")
        _assert_unlinked([a.segment])
        executor.close()
        _assert_unlinked([b.segment])
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
        from repro.fusion import FusionConfig, popaccu

        with ParallelExecutor(max_workers=2) as executor:
            result = popaccu(FusionConfig(backend="hybrid")).fuse(
                micro_scenario.fusion_input(), executor=executor
            )
            assert result.diagnostics["round_state"] == "shared-memory"
            # One install per round (Stage I only), every one already
            # unlinked by the time fuse() returned.
            assert len(created) == result.rounds
            _assert_unlinked(created)

    @pytest.mark.parallel_backend
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_pool_forked_before_any_segment_reports_no_leak(self):
        """A shared executor's pool is forked by extraction, before fusion
        creates its first segment.  Its workers must still share the
        parent's resource tracker: a tracker of their own would, when the
        worker exits, report every segment it attached as leaked and try
        to unlink it."""
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.mapreduce.executors import ParallelExecutor, ShardedMapJob
            from tests.mapreduce.test_round_state import _reader_job

            def identity(items):
                return items

            with ParallelExecutor(max_workers=2, start_method="fork") as executor:
                executor.run_map(
                    list(range(4)),
                    ShardedMapJob(name="warm", map_shard=identity),
                )
                handle = executor.install_round_state(
                    "test.round", {"values": np.arange(4.0)}
                )
                print(executor.run_map(list(range(4)), _reader_job(handle)))
            """
        )
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root), str(root / "src")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, cwd=root, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[0.0, 1.0, 2.0, 3.0]"
        assert "resource_tracker" not in done.stderr
