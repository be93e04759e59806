"""Pluggable execution backends: one pooled job protocol, map-only.

Every job an executor runs is a :class:`ShardedMapJob` — an
order-insensitive map over a list of items, cut into contiguous shards by
position, with outputs concatenated in shard order (so in input order) —
and *where* its shards run is an :class:`Executor` policy:

- :class:`SerialExecutor` — one in-process pass.  The default, and the
  reference behaviour.
- :class:`ParallelExecutor` — every non-empty job runs in a
  ``concurrent.futures.ProcessPoolExecutor``: the items are cut into
  ``min(4 × workers, n)`` contiguous runs whose lengths differ by at most
  one (:meth:`ParallelExecutor.n_shards`), each run is one task, and
  the parent concatenates the runs' outputs in order, so the output
  sequence is bit-identical to the serial backend.  A pooled job never
  runs in the parent.

This is the protocol the extraction stage runs on — each shard of page
windows is extracted in a worker and the parent concatenates the
corpus-order record tables — and fusion's Stage I as well, one job per
round (items are contiguous item blocks of the claim CSR the round's
shared-memory segment carries, one block per shard; see
:mod:`repro.fusion.shuffle`; Stage II runs in the parent).  The
in-process fusion modes do not go through an executor at all.

Bit-identity across start methods requires shard bodies whose float
summation order does not depend on hash randomization: a body that sums a
set in iteration order gives ``PYTHONHASHSEED``-dependent last-ulp
results, and a ``spawn`` worker draws its own hash seed.  The shard
bodies (extraction's, fusion's batched Stage I) only ever iterate arrays
and lists in a fixed order, which makes in-process, ``fork``-pooled and
``spawn``-pooled output bit-identical; pools default to ``fork`` where
available (cheapest state inheritance) and accept an explicit
``start_method`` otherwise.  A pool worker never runs the cyclic GC
(:func:`_init_worker`).

Work units shipped to workers must be picklable (module-level functions
or dataclasses; the extraction and fusion shards satisfy this).  A work
unit or an installed state value that will not pickle is a
:class:`~repro.errors.ConfigError` naming the job or the key.

**Per-round state.**  State that changes once per *round* but is read by
every shard of that round (fusion's accuracy vector and active mask)
gets its own channel: :meth:`ParallelExecutor.install_round_state` places
the round's arrays in one ``multiprocessing.shared_memory`` segment and
returns a tiny :class:`RoundStateHandle` — shard callables carry only the
handle (segment name + array layout, a few hundred bytes) and resolve the
arrays with ``handle.load()`` in the worker, attaching the segment at
most once per worker per round.  The buffers therefore cross the process
boundary **zero** times (the parent writes them straight into shared
memory once per round) instead of once per shard dispatch.  Fusion puts
its Stage-I claim CSR in the same segment, so its shards need no
pool-resident state.  A segment that cannot be created raises from the
install.

**Pool-resident worker state.**  Heavyweight invariant objects (the
extraction stage's 12-extractor fleet) are *installed* on an executor
via :meth:`~Executor.install_state` and cross the process boundary
exactly once per pool — through the pool initializer, on both ``fork``
and ``spawn`` — instead of once per shard task.  Shard callables fetch
them back with :func:`worker_state`, which resolves in a worker and,
under :class:`SerialExecutor`, in the parent.  Installing new state
after the pool has started restarts the pool; fusion installs none, so
a pipeline run's one pool serves both stages.  See
``mapreduce/README.md`` for the full protocol.

**Execution modes.**  Which executor a backend name means — and which
kernel its shards run — is the :data:`EXECUTION_MODES` table at the end
of this module (name → :class:`ExecutionPlan`); it is the only place in
``src/`` that knows a backend name.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigError, WorkerPoolError

__all__ = [
    "EXECUTION_MODES",
    "FUSION_MODES",
    "PIPELINE_MODES",
    "ExecutionPlan",
    "fusion_mode_name",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "RoundStateHandle",
    "ShardedMapJob",
    "worker_state",
]


# ---------------------------------------------------------------------------
# Pool-resident worker state
# ---------------------------------------------------------------------------
# One process-wide registry.  In a worker it is filled exactly once, by the
# pool initializer; in the parent, by SerialExecutor.install_state, so the
# same shard callables run in-process.  Keys are namespaced by producer
# ("extract.fleet"); later installs win.

_WORKER_STATE: dict[str, Any] = {}


def _init_worker(blobs: dict[str, bytes]) -> None:
    """Pool initializer: disable the cyclic GC for the worker's life (its
    heap is the installed state plus one shard's acyclic work, which
    reference counting frees), then unpickle each installed state once."""
    gc.disable()
    for key, blob in blobs.items():
        _WORKER_STATE[key] = pickle.loads(blob)


def worker_state(key: str) -> Any:
    """Fetch pool-resident state installed under ``key``.

    Works in workers (filled by the pool initializer) and in the parent
    (filled by :meth:`SerialExecutor.install_state`), so shard callables
    are agnostic to where they run.
    """
    try:
        return _WORKER_STATE[key]
    except KeyError:
        raise RuntimeError(
            f"no pool-resident state installed under {key!r}; call "
            "executor.install_state(key, value) before running the job"
        ) from None


def _pickled(value: Any, what: str) -> bytes:
    """``pickle.dumps(value)``, or a :class:`ConfigError` naming ``what``:
    a pooled executor has no in-process path to fall back on."""
    try:
        return pickle.dumps(value)
    except (pickle.PicklingError, AttributeError, TypeError) as err:
        raise ConfigError(
            f"{what} cannot be pickled for the process pool: {err}"
        ) from err


# ---------------------------------------------------------------------------
# Per-round state: shared-memory buffers behind a tiny picklable handle
# ---------------------------------------------------------------------------
# Round state (fusion's per-round accuracy vector and active mask) changes
# too often for the pool initializer (restarting the pool every round would
# dwarf the work) but is identical across every shard of a round — so it
# crosses through named shared-memory segments instead.  The parent writes
# the arrays into a segment once per install; shard payloads carry only a
# RoundStateHandle (segment name + array layout), and each worker attaches
# the segment at most once per generation.  Generations are globally unique
# (one process-wide counter), so caches never confuse two executors reusing
# the same key.

_ROUND_GENERATIONS = itertools.count(1)

#: Per-worker cache of attached round state: key -> (generation, arrays,
#: attached SharedMemory), filled lazily by :meth:`RoundStateHandle.load`.
_ROUND_CACHE: dict[str, tuple[int, dict[str, np.ndarray], Any]] = {}

#: Segment offsets are padded to this alignment so every array view is
#: safely aligned for its dtype.
_SHM_ALIGN = 16


def _evict_round_cache(key: str) -> None:
    """Drop one cached round state, unmapping its segment."""
    cached = _ROUND_CACHE.pop(key, None)
    if cached is None:
        return
    _generation, arrays, shm = cached
    arrays.clear()  # release the buffer views before unmapping
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a view escaped; GC will unmap
        pass


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment; the parent owns its lifecycle.

    The parent unlinks every segment it created (on the next install and
    on ``close()``).  Python 3.13+ exposes ``track=False`` so the attach
    leaves no tracker registration at all; on older versions the
    attach-side registration lands in the process tree's *shared*
    resource tracker (the pool starts it before any worker), where it is
    an idempotent duplicate of the parent's create-side registration and
    is removed by the parent's ``unlink()``.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: track= does not exist yet
        return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class _ShmArraySpec:
    """Where one named array lives inside a round-state segment."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


def _segment_views(buf, layout: tuple[_ShmArraySpec, ...]) -> dict[str, np.ndarray]:
    """One array view per spec over a segment's buffer."""
    return {
        spec.key: np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=buf, offset=spec.offset
        )
        for spec in layout
    }


@dataclass(frozen=True)
class RoundStateHandle:
    """A tiny picklable reference to one round's arrays in shared memory.

    ``segment`` names the segment :meth:`ParallelExecutor.install_round_state`
    wrote the arrays into and ``layout`` says where each one lives.  A
    shard body calls ``load()`` in its worker: the segment is attached at
    most once per worker per generation, and the arrays come back as
    read-only zero-copy views.
    """

    key: str
    generation: int
    segment: str
    layout: tuple[_ShmArraySpec, ...]

    def load(self) -> dict[str, np.ndarray]:
        """Resolve the round's arrays, attaching at most once."""
        cached = _ROUND_CACHE.get(self.key)
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        _evict_round_cache(self.key)
        shm = _attach_segment(self.segment)
        arrays = _segment_views(shm.buf, self.layout)
        for view in arrays.values():
            view.setflags(write=False)
        _ROUND_CACHE[self.key] = (self.generation, arrays, shm)
        return arrays


def _round_segment_layout(
    arrays: dict[str, np.ndarray]
) -> tuple[tuple[_ShmArraySpec, ...], int]:
    """Aligned per-array offsets plus total segment size, computed once.

    The single source of truth for both the segment allocation and the
    write loop, so the two can never disagree about where an array lives.
    """
    layout: list[_ShmArraySpec] = []
    offset = 0
    for key, array in arrays.items():
        offset = -(-offset // _SHM_ALIGN) * _SHM_ALIGN
        layout.append(_ShmArraySpec(key, array.dtype.str, array.shape, offset))
        offset += array.nbytes
    return tuple(layout), max(offset, 1)


@dataclass(frozen=True)
class ShardedMapJob:
    """A map-only job: order-insensitive work over a list of items.

    ``map_shard(items)`` processes one shard's items (a contiguous run of
    the input, in the order given) and returns exactly one output per
    item; the executor concatenates the shards' outputs in order, so
    serial and parallel execution are indistinguishable.  The map must be
    *order-insensitive*: an item's output may depend only on the item
    itself (the extraction stage satisfies this — every noisy draw
    derives from the page URL).

    ``map_shard`` must be picklable for the parallel backend, and its
    outputs cross back as they are, so a job whose natural output is
    object-shaped returns flat columns instead (the extraction job's
    record tables, :class:`repro.extract.records.TableBuilder`).

    ``key_fn`` is read by nothing: shards are cut by position.  A stub
    for ``benchmarks/kfbench``, which still passes one; it goes with the
    ``[benchmark]`` PR of ROADMAP item 9(a).
    """

    name: str
    map_shard: Callable[[list], list]
    key_fn: Callable[[Any], Any] | None = None


def _checked_outputs(name: str, n_items: int, outputs) -> list:
    """``outputs`` as a list, or a ValueError unless there is one per item."""
    outputs = list(outputs)
    if len(outputs) != n_items:
        raise ValueError(
            f"job {name}: map_shard returned {len(outputs)} outputs "
            f"for {n_items} items; the contract is one per item"
        )
    return outputs


def _map_shard_worker(spec_bytes: bytes, items: list) -> list:
    """Worker body for one :class:`ShardedMapJob` shard: its outputs, in
    its items' order."""
    return pickle.loads(spec_bytes)(items)


@runtime_checkable
class Executor(Protocol):
    """Execution policy: where the shards of a map-only job run.

    ``run_map`` executes a :class:`ShardedMapJob` (outputs in input
    order) — the only job protocol.  ``install_state``
    makes a heavyweight invariant object available to shard callables via
    :func:`worker_state` (crossing the process boundary once per pool, or
    not at all for in-process execution).  ``diagnostics()`` reports how
    a pool ran what it was given (its size and shipped state bytes) under
    the keys run ``diagnostics`` dicts publish.  ``close()`` releases any
    held resources (worker pools, installed state, shared-memory
    segments); it must be safe to call repeatedly and on executors that
    never ran a job.  Per-round state is a pool-only channel
    (:meth:`ParallelExecutor.install_round_state`).
    """

    def run_map(self, items: Iterable[Any], job: ShardedMapJob) -> list[Any]: ...

    def install_state(self, key: str, value: Any) -> None: ...

    def uninstall_state(self, key: str) -> None: ...

    def diagnostics(self) -> dict: ...

    def close(self) -> None: ...


class SerialExecutor:
    """One in-process pass per job (reference behaviour)."""

    def __init__(self) -> None:
        self._installed: dict[str, Any] = {}

    def run_map(self, items: Iterable[Any], job: ShardedMapJob) -> list[Any]:
        items = list(items)
        return _checked_outputs(job.name, len(items), job.map_shard(items))

    def install_state(self, key: str, value: Any) -> None:
        """Register ``value`` for :func:`worker_state` lookup (in-process)."""
        _WORKER_STATE[key] = value
        self._installed[key] = value

    def uninstall_state(self, key: str) -> None:
        """Drop ``key`` from the registry (no-op if absent).

        Guarded by identity: if another executor has since installed its
        own value under the same key (later installs win), that live value
        is left untouched — only our own is withdrawn.
        """
        if key not in self._installed:
            return
        value = self._installed.pop(key)
        if key in _WORKER_STATE and _WORKER_STATE[key] is value:
            del _WORKER_STATE[key]

    def diagnostics(self) -> dict:
        """Nothing to report: nothing crosses a process boundary."""
        return {}

    def close(self) -> None:
        for key in list(self._installed):
            self.uninstall_state(key)

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class ParallelExecutor:
    """Process-pool map over contiguous shards.

    ``max_workers`` defaults to the CPU count (minimum 2, so the backend is
    exercised even on single-core hosts); a value below 1 is a
    :class:`~repro.errors.ConfigError`.  ``start_method`` pins the
    multiprocessing start method (``"fork"``/``"spawn"``/``"forkserver"``;
    None prefers fork where available — cheapest pool start, and
    installed state is inherited by memory copy).  The pool is created
    lazily and reused across jobs (fusion runs many rounds through one
    executor); call :meth:`close` or use the executor as a context manager
    to release it.

    Every non-empty job runs in the pool; nothing runs in the parent.
    State installed with :meth:`install_state` reaches workers through the
    pool initializer; installing *after* the pool has started restarts it
    so new workers see the full registry — never per shard.  Per-round
    state (:meth:`install_round_state`) never restarts the pool: it
    crosses through shared-memory segments workers attach lazily.
    A worker never runs the cyclic GC (:func:`_init_worker`, installed on
    every pool); the caller's collector is left as found.
    """

    #: Always 0: every job runs in the pool, on one round-state channel.
    #: A stub for ``benchmarks/kfbench``, which counts it (like the
    #: constant ``fallbacks_*`` / ``round_state`` keys of
    #: :meth:`diagnostics`); it goes with the ``[benchmark]`` PR of
    #: ROADMAP item 9(a).
    fallbacks = 0

    def __init__(
        self, max_workers: int | None = None, start_method: str | None = None
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1 or None, got {max_workers}")
        self.max_workers = max_workers or max(2, os.cpu_count() or 1)
        self.start_method = start_method
        self.state_bytes_shipped = 0  # cumulative pickled install payloads
        self._pool: ProcessPoolExecutor | None = None
        self._state_blobs: dict[str, bytes] = {}
        self._round_segments: dict[str, shared_memory.SharedMemory] = {}

    def diagnostics(self) -> dict:
        """The pool's size and shipped state bytes.

        ``round_state`` and the three ``fallbacks_*`` keys are constants
        kept for ``benchmarks/kfbench``, which pins them (see
        :attr:`fallbacks`).
        """
        return {
            "round_state": "shared-memory",
            "fallbacks_tiny": 0,
            "fallbacks_unpicklable": 0,
            "fallbacks_shm": 0,
            "n_workers": self.max_workers,
            "state_bytes_shipped": self.state_bytes_shipped,
        }

    def install_state(self, key: str, value: Any) -> None:
        """Make ``value`` pool-resident under ``key``.

        The value is pickled once, here; workers unpickle it once each, in
        the pool initializer.  Reinstalling an identical value is a no-op;
        new state after the pool has started triggers one pool restart.  A
        value that will not pickle is a :class:`ConfigError` naming the key.
        """
        blob = _pickled(value, f"installed state {key!r}")
        if self._state_blobs.get(key) == blob:
            return
        self._state_blobs[key] = blob
        self.state_bytes_shipped += len(blob)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def uninstall_state(self, key: str) -> None:
        """Drop ``key``: future pools will not carry it (no-op if absent).

        Already-running workers keep their copy — harmless dead weight —
        but the next pool (re)start omits it, so a later stage's
        ``install_state`` does not re-ship state only an earlier stage
        needed.
        """
        self._state_blobs.pop(key, None)

    def install_round_state(
        self, key: str, arrays: dict[str, np.ndarray]
    ) -> RoundStateHandle:
        """Publish one round's arrays; returns the handle shards carry.

        The arrays are written into a fresh shared-memory segment (the
        previous round's segment under ``key`` is unlinked first, so at
        most one segment per key is ever live) and the returned handle
        names it — shard payloads stay a few hundred bytes no matter how
        many provenances the round tracks.  The arrays are copied, so the
        caller may mutate its own between rounds.  A segment that cannot
        be created raises here.
        """
        self.uninstall_round_state(key)
        layout, size = _round_segment_layout(arrays)
        segment = shared_memory.SharedMemory(create=True, size=size)
        self._round_segments[key] = segment
        for name, view in _segment_views(segment.buf, layout).items():
            view[...] = arrays[name]
        return RoundStateHandle(
            key=key,
            generation=next(_ROUND_GENERATIONS),
            segment=segment.name,
            layout=layout,
        )

    def uninstall_round_state(self, key: str) -> None:
        """Unlink ``key``'s segment (no-op if absent)."""
        segment = self._round_segments.pop(key, None)
        if segment is None:
            return
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a parent view escaped
            pass
        segment.unlink()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Workers forked before the parent's resource tracker runs
            # would start trackers of their own, which report every
            # round-state segment a worker attached (Python < 3.13) as
            # leaked, and unlink it, when the worker exits.  Started
            # first, the parent's is the one every worker shares.
            resource_tracker.ensure_running()
            method = self.start_method
            if method is None:
                method = (
                    "fork"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else None
                )
            mp_context = (
                multiprocessing.get_context(method) if method is not None else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=mp_context,
                initializer=_init_worker,
                initargs=(dict(self._state_blobs),),
            )
        return self._pool

    def n_shards(self, n_items: int) -> int:
        """How many contiguous shards :meth:`run_map` cuts ``n_items``
        items into: ``min(4 × workers, n_items)``.  A job that wants one
        shard per item (fusion's Stage-I item blocks) makes this many."""
        return min(self.max_workers * 4, n_items)

    def run_map(self, items: Iterable[Any], job: ShardedMapJob) -> list[Any]:
        """Run a map-only job over the process pool, outputs in input order.

        An empty job returns ``[]`` without touching the pool; a work unit
        that will not pickle is a :class:`ConfigError` naming the job.
        A worker that dies mid-job breaks the pool: that is a
        :class:`~repro.errors.WorkerPoolError` naming the job, raised from
        the pool's ``BrokenProcessPool``; nothing is retried.
        """
        items = list(items)
        if not items:
            return []
        spec_bytes = _pickled(job.map_shard, f"job {job.name!r}")

        # Contiguous runs whose lengths differ by at most one, longer first.
        runs = self.n_shards(len(items))
        size, extra = divmod(len(items), runs)
        bounds = [k * size + min(k, extra) for k in range(runs + 1)]
        outputs: list[Any] = []
        try:
            pool = self._ensure_pool()
            futures = [
                pool.submit(_map_shard_worker, spec_bytes, items[start:end])
                for start, end in zip(bounds[:-1], bounds[1:])
            ]
            for future, start, end in zip(futures, bounds[:-1], bounds[1:]):
                outputs.extend(_checked_outputs(job.name, end - start, future.result()))
        except BrokenProcessPool as err:
            raise WorkerPoolError(
                f"job {job.name!r}: a process-pool worker died; the pool is "
                "broken and the job was not retried"
            ) from err
        return outputs

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for key in list(self._round_segments):
            self.uninstall_round_state(key)
        self._state_blobs.clear()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Execution modes: the one table that knows a backend name
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionPlan:
    """The two execution choices a stage has (arXiv 1503.00302 §4, Fig. 8).

    ``pooled`` is *where* it runs — sharded over a process pool, or
    in-process; ``batched`` is *which kernel* scores a fusion round —
    batched numpy, or the exact reference (extraction has one kernel and
    reads only ``pooled``).  The pool runs only the batched kernel: the
    exact one is the in-process reference.  Every contract a run reports (the executor,
    ``backend_used``, ``parity``) is derived from these two fields; the
    README's "Execution backends" table states them.
    """

    pooled: bool
    batched: bool

    @property
    def reference(self) -> bool:
        """True for the exact in-process mode every parity contract is
        stated against."""
        return not (self.pooled or self.batched)

    def executor(self, n_workers: int | None = None) -> Executor:
        """A fresh executor for this mode (the caller closes it): the one
        place a mode picks between the in-process and the pooled executor."""
        if n_workers is not None and n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1 or None, got {n_workers}")
        if self.pooled:
            return ParallelExecutor(max_workers=n_workers)
        return SerialExecutor()

    def check_executor(self, backend: str, executor: Executor | None) -> None:
        """Reject a caller's ``executor`` that cannot run this mode (spelled
        ``backend``): a pooled mode runs only on a ParallelExecutor."""
        handed = self.pooled and executor is not None
        if handed and not isinstance(executor, ParallelExecutor):
            raise ConfigError(
                f"backend {backend!r} runs on a process pool, but was "
                f"handed a {type(executor).__name__}; pass a ParallelExecutor or none"
            )


#: Every public backend spelling and what it means.  The in-process
#: batched mode has two: the extraction stage and the pipelines call it
#: ``batched``, the fusion stage ``vectorized``.  Insertion order is the
#: order of the public backend tuples (and so of the CLI ``choices=``).
#: DET006 keeps this a module-level literal; nothing else in ``src/``
#: compares backend names.
EXECUTION_MODES = {
    "serial": ExecutionPlan(pooled=False, batched=False),
    "batched": ExecutionPlan(pooled=False, batched=True),
    "vectorized": ExecutionPlan(pooled=False, batched=True),
    "hybrid": ExecutionPlan(pooled=True, batched=True),
}

#: The fusion stage's vocabulary (``FusionConfig.backend``, ``backend_used``).
FUSION_MODES = tuple(name for name in EXECUTION_MODES if name != "batched")

#: The extraction stage's and the pipelines' vocabulary.
PIPELINE_MODES = tuple(name for name in EXECUTION_MODES if name != "vectorized")


def fusion_mode_name(plan: ExecutionPlan) -> str:
    """The fusion-stage spelling of ``plan``."""
    return next(name for name in FUSION_MODES if EXECUTION_MODES[name] == plan)
