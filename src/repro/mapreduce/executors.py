"""Pluggable execution backends: one pooled job protocol, map-only.

Every job an executor runs is a :class:`ShardedMapJob` — an
order-insensitive map over keyed items, sharded by a *stable* hash (crc32
of ``repr(key)``, immune to ``PYTHONHASHSEED``), with outputs re-emitted
in the input order — and *where* its shards run is an :class:`Executor`
policy:

- :class:`SerialExecutor` — one in-process pass.  The default, and the
  reference behaviour.
- :class:`ParallelExecutor` — each shard runs in a
  ``concurrent.futures.ProcessPoolExecutor`` worker and the parent slots
  every output back at its input index, so the output sequence is
  bit-identical to the serial backend.

This is the protocol the extraction stage runs on — each shard of pages
is extracted in a worker and the parent reassembles the corpus-order
record stream — and the fusion stages as well (items are integer
item/provenance ids into pool-resident columns; see
:mod:`repro.fusion.shuffle`).  The in-process fusion modes do not go
through an executor at all.

Bit-identity across start methods requires shard bodies whose float
summation order does not depend on hash randomization: a body that sums a
set in iteration order gives ``PYTHONHASHSEED``-dependent last-ulp
results, and a ``spawn`` worker draws its own hash seed.  The fusion
shards therefore sum in canonical (sorted) order, which makes serial,
``fork``-parallel and ``spawn``-parallel output bit-identical; pools
default to ``fork`` where available (cheapest state inheritance) and
accept an explicit ``start_method`` otherwise.

Work units shipped to workers must be picklable (module-level functions
or dataclasses; the extraction and fusion shards satisfy this).  When one
cannot be pickled — e.g. a closure posterior a third-party extension
passes — the parallel executor transparently runs the job in-process and
counts the event in ``fallbacks_unpicklable``; jobs too small for
dispatch overhead to pay off are counted in ``fallbacks_tiny``;
round-state installs that had to cross inline instead of through shared
memory are counted in ``fallbacks_shm`` (``fallbacks`` sums all three).

**Per-round state.**  State that changes once per *round* but is read by
every shard of that round (fusion's accuracy/posterior/active-mask
vectors) gets its own channel: :meth:`install_round_state` places the
round's arrays in ``multiprocessing.shared_memory`` segments and returns a
tiny :class:`RoundStateHandle` — shard callables carry only the handle
(segment name + array layout, a few hundred bytes) and resolve the arrays
with ``handle.load()``, attaching each segment at most once per worker per
round.  The buffers therefore cross the process boundary **zero** times
(the parent writes them straight into shared memory once per round)
instead of once per shard dispatch.  Where shared memory is unavailable
the channel degrades to an inline pickled payload (counted in
``fallbacks_shm``); in-process executors and fallback paths resolve the
handle from the parent-side registry without any copy at all.

**Pool-resident worker state.**  Heavyweight invariant objects (the
extraction stage's 12-extractor fleet, fusion's columnar claim index) are
*installed* on an executor via :meth:`install_state` and cross the process
boundary exactly once per pool — through the pool initializer, on both
``fork`` and ``spawn`` — instead of once per shard task.  Shard callables
fetch them back with :func:`worker_state`, which also resolves in-process
(serial execution and fallback paths) because installs mirror into the
parent's registry.  Installing new state after the pool has started
restarts the pool (once per pipeline stage, not per job); see
``mapreduce/README.md`` for the full protocol.

**Execution modes.**  Which executor a backend name means — and which
kernel its shards run — is the :data:`EXECUTION_MODES` table at the end
of this module (name → :class:`ExecutionPlan`); it is the only place in
``src/`` that knows a backend name.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigError
from repro.mapreduce.codec import WireCodec
from repro.rng import split_seed

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
    "shard_for_key",
    "map_serial",
    "sample_positions",
    "worker_state",
]


# ---------------------------------------------------------------------------
# Pool-resident worker state
# ---------------------------------------------------------------------------
# One process-wide registry.  In a worker it is filled exactly once, by the
# pool initializer; in the parent it mirrors whatever the executors running
# in this process have installed, so the same shard callables work on the
# serial path and on the parallel fallback paths.  Keys are namespaced by
# producer ("extract.fleet", "fusion.columns"); later installs win.

_WORKER_STATE: dict[str, Any] = {}


def _init_worker_state(blobs: dict[str, bytes]) -> None:
    """Pool initializer: unpickle each installed state once per worker."""
    for key, blob in blobs.items():
        _WORKER_STATE[key] = pickle.loads(blob)


def worker_state(key: str) -> Any:
    """Fetch pool-resident state installed under ``key``.

    Works in workers (filled by the pool initializer) and in the parent
    (filled directly by :meth:`SerialExecutor.install_state` /
    :meth:`ParallelExecutor.install_state`), so shard callables are
    agnostic to where they run.
    """
    try:
        return _WORKER_STATE[key]
    except KeyError:
        raise RuntimeError(
            f"no pool-resident state installed under {key!r}; call "
            "executor.install_state(key, value) before running the job"
        ) from None


def _release_parent_state(installed: dict[str, Any], key: str) -> None:
    """Remove one executor's parent-side registry entry for ``key``.

    Guarded by identity: if another executor has since installed its own
    value under the same key (later installs win), that live value is
    left untouched — only our own is withdrawn.
    """
    if key not in installed:
        return
    value = installed.pop(key)
    if key in _WORKER_STATE and _WORKER_STATE[key] is value:
        del _WORKER_STATE[key]


# ---------------------------------------------------------------------------
# Per-round state: shared-memory buffers behind a tiny picklable handle
# ---------------------------------------------------------------------------
# Round state (fusion's per-round accuracy/posterior/active vectors) changes
# too often for the pool initializer (restarting the pool every round would
# dwarf the work) but is identical across every shard of a round — so it
# crosses through named shared-memory segments instead.  The parent writes
# the arrays into a segment once per install; shard payloads carry only a
# RoundStateHandle (segment name + array layout), and each worker attaches
# the segment at most once per generation.  Generations are globally unique
# (one process-wide counter), so caches never confuse two executors reusing
# the same key.

_ROUND_GENERATIONS = itertools.count(1)

#: Per-process cache of resolved round state: key -> (generation, arrays,
#: attached SharedMemory or None).  In the parent it is filled directly by
#: ``install_round_state`` (zero-copy); in a worker, lazily by
#: :meth:`RoundStateHandle.load`.
_ROUND_CACHE: dict[str, tuple[int, dict[str, np.ndarray], Any]] = {}

#: Segment offsets are padded to this alignment so every array view is
#: safely aligned for its dtype.
_SHM_ALIGN = 16


def _evict_round_cache(key: str) -> None:
    """Drop one cached round state, unmapping its segment if attached."""
    cached = _ROUND_CACHE.pop(key, None)
    if cached is None:
        return
    _generation, arrays, shm = cached
    if shm is not None:
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
    resource tracker, where it is an idempotent duplicate of the parent's
    create-side registration and is removed by the parent's ``unlink()``.
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


@dataclass(frozen=True)
class RoundStateHandle:
    """A tiny picklable reference to one round's array state.

    Exactly one of three channels backs it:

    - ``segment`` — the arrays live in a named shared-memory segment;
      ``load()`` attaches it (once per worker per generation) and returns
      read-only zero-copy views.
    - ``inline`` — the pickled-fallback path: the arrays ride pickled
      inside the handle itself (so inside the job spec, as before shared
      memory existed); still decoded at most once per worker per
      generation.
    - neither — parent-resident only (``SerialExecutor``, and the
      in-process resolution every handle also supports): ``load()`` hits
      the parent-side cache without any copy.
    """

    key: str
    generation: int
    segment: str | None = None
    layout: tuple[_ShmArraySpec, ...] = ()
    inline: bytes | None = None

    def load(self) -> dict[str, np.ndarray]:
        """Resolve the round's arrays, attaching/decoding at most once."""
        cached = _ROUND_CACHE.get(self.key)
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        _evict_round_cache(self.key)
        if self.segment is not None:
            shm = _attach_segment(self.segment)
            arrays: dict[str, np.ndarray] = {}
            for spec in self.layout:
                view = np.ndarray(
                    spec.shape,
                    dtype=np.dtype(spec.dtype),
                    buffer=shm.buf,
                    offset=spec.offset,
                )
                view.setflags(write=False)
                arrays[spec.key] = view
            _ROUND_CACHE[self.key] = (self.generation, arrays, shm)
        elif self.inline is not None:
            # Same read-only contract as the shared-memory views, so a
            # shard that writes into round state fails identically on
            # every channel instead of only on multi-core hosts.
            arrays = _readonly_views(pickle.loads(self.inline))
            _ROUND_CACHE[self.key] = (self.generation, arrays, None)
        else:
            raise RuntimeError(
                f"round state {self.key!r} (generation {self.generation}) is "
                "parent-resident only and cannot be resolved in this process"
            )
        return arrays


def _readonly_views(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Read-only views sharing each array's memory (originals untouched).

    Every channel hands shards the same contract: writing into round
    state raises, whether the arrays came from shared memory, the inline
    fallback, or the parent-side registry — while the installer's own
    arrays stay writable (the fusion runner updates its accuracy vector
    in place between rounds).
    """
    views: dict[str, np.ndarray] = {}
    for key, array in arrays.items():
        view = array.view()
        view.setflags(write=False)
        views[key] = view
    return views


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


def sample_positions(
    n_values: int, key: Any, name: str, sample_limit: int | None, seed: int
) -> list[int] | None:
    """The deterministic position draw behind reducer-input sampling (L).

    Returns the ascending positions to keep out of ``n_values`` ordered
    values, or None when sampling does not engage.  The draw depends only
    on ``(seed, name, repr(key))`` and ``n_values`` — never on where the
    values live — so any backend that can enumerate a key's values *in the
    same order* reproduces the same subset bit-for-bit.  The fusion stages
    pin that order to the canonical (sorted) one, which is the claim
    columns' layout order: the scalar stage bodies draw these positions
    against the columns in-process and in pool workers alike.
    """
    if sample_limit is None or n_values <= sample_limit:
        return None
    rng = np.random.default_rng(split_seed(seed, name, repr(key)))
    picked = rng.choice(n_values, size=sample_limit, replace=False)
    return sorted(int(x) for x in picked)


def shard_for_key(key: Any, n_shards: int) -> int:
    """Stable shard assignment: crc32 of ``repr(key)``, not ``hash()``."""
    return zlib.crc32(repr(key).encode("utf-8")) % n_shards


@dataclass(frozen=True)
class ShardedMapJob:
    """A map-only job: order-insensitive work over keyed items.

    ``map_shard(items)`` processes one shard's items (in the order given)
    and returns exactly one output per item; the executor re-emits outputs
    in the original input order, so serial and parallel execution are
    indistinguishable.  The map must be *order-insensitive*: an item's
    output may depend only on the item itself (the extraction stage
    satisfies this — every noisy draw derives from the page URL).

    ``key_fn`` yields the stable shard key for an item (hashed with
    :func:`shard_for_key`; it runs only in the parent and need not
    pickle).  ``map_shard`` and the optional wire ``codec``'s ``encode``
    must be picklable for the parallel backend: ``encode`` compacts each
    output in the worker before it crosses the process boundary and
    ``decode`` restores it in the parent — the extraction stage uses this
    to ship records as compact tuples instead of full pickled dataclass
    lists.
    """

    name: str
    map_shard: Callable[[list], list]
    key_fn: Callable[[Any], Any]
    codec: WireCodec | None = None


def _map_shard_worker(
    spec_bytes: bytes, indexed_items: list[tuple[int, Any]]
) -> list[tuple[int, Any]]:
    """Worker body for one :class:`ShardedMapJob` shard.

    Returns ``(input_index, encoded_output)`` pairs; the parent slots each
    output back at its input index, restoring the serial emission order.
    """
    map_shard, encode = pickle.loads(spec_bytes)
    outputs = map_shard([item for _index, item in indexed_items])
    if len(outputs) != len(indexed_items):
        raise ValueError(
            f"map_shard returned {len(outputs)} outputs for "
            f"{len(indexed_items)} items; the contract is one per item"
        )
    if encode is not None:
        outputs = [encode(output) for output in outputs]
    return [(index, output) for (index, _item), output in zip(indexed_items, outputs)]


def map_serial(items: list, job: ShardedMapJob) -> list:
    """The reference map-only path: one in-process pass, no wire codec."""
    outputs = list(job.map_shard(items))
    if len(outputs) != len(items):
        raise ValueError(
            f"job {job.name}: map_shard returned {len(outputs)} outputs "
            f"for {len(items)} items; the contract is one per item"
        )
    return outputs


@runtime_checkable
class Executor(Protocol):
    """Execution policy: where the shards of a map-only job run.

    ``run_map`` executes a :class:`ShardedMapJob` (outputs in input
    order) — the only job protocol.  ``install_state``
    makes a heavyweight invariant object available to shard callables via
    :func:`worker_state` (crossing the process boundary once per pool, or
    not at all for in-process execution).  ``install_round_state`` is the
    faster-changing channel: it publishes one round's numpy arrays (via
    shared memory where available) and returns the
    :class:`RoundStateHandle` shard callables resolve them with — the
    arrays cross once per round, never per shard.  ``diagnostics()``
    reports how the executor ran what it was given (round-state channel,
    and for a pool its size, fallback counters and shipped state bytes)
    under the keys run ``diagnostics`` dicts publish.  ``close()`` releases
    any held resources (worker pools, installed state, shared-memory
    segments); it must be safe to call repeatedly and on executors that
    never ran a job.
    """

    def run_map(self, items: Iterable[Any], job: ShardedMapJob) -> list[Any]: ...

    def install_state(self, key: str, value: Any) -> None: ...

    def uninstall_state(self, key: str) -> None: ...

    def install_round_state(
        self, key: str, arrays: dict[str, np.ndarray]
    ) -> RoundStateHandle: ...

    def uninstall_round_state(self, key: str) -> None: ...

    def diagnostics(self) -> dict: ...

    def close(self) -> None: ...


class SerialExecutor:
    """One in-process pass per job, no wire codec (reference behaviour)."""

    def __init__(self) -> None:
        self._installed: dict[str, Any] = {}
        self._round_installed: dict[str, int] = {}

    def run_map(self, items: Iterable[Any], job: ShardedMapJob) -> list[Any]:
        return map_serial(list(items), job)

    def install_state(self, key: str, value: Any) -> None:
        """Register ``value`` for :func:`worker_state` lookup (in-process)."""
        _WORKER_STATE[key] = value
        self._installed[key] = value

    def uninstall_state(self, key: str) -> None:
        """Drop ``key`` from the registry (no-op if absent)."""
        _release_parent_state(self._installed, key)

    def install_round_state(
        self, key: str, arrays: dict[str, np.ndarray]
    ) -> RoundStateHandle:
        """Register one round's arrays parent-side (zero copy, no segment)."""
        generation = next(_ROUND_GENERATIONS)
        _evict_round_cache(key)
        _ROUND_CACHE[key] = (generation, _readonly_views(arrays), None)
        self._round_installed[key] = generation
        return RoundStateHandle(key=key, generation=generation)

    def uninstall_round_state(self, key: str) -> None:
        """Drop this executor's round state under ``key`` (no-op if absent)."""
        generation = self._round_installed.pop(key, None)
        cached = _ROUND_CACHE.get(key)
        if generation is not None and cached is not None and cached[0] == generation:
            _evict_round_cache(key)

    def diagnostics(self) -> dict:
        """Round state resolves straight from the parent registry; nothing
        ever crosses a process boundary."""
        return {"round_state": "in-process"}

    def close(self) -> None:
        for key in list(self._installed):
            _release_parent_state(self._installed, key)
        for key in list(self._round_installed):
            self.uninstall_round_state(key)

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class ParallelExecutor:
    """Process-pool map, sharded by stable key hash.

    ``max_workers`` defaults to the CPU count (minimum 2, so the backend is
    exercised even on single-core hosts); ``min_keys`` is the item-count
    threshold below which dispatch overhead cannot pay off and the job
    runs in-process.  ``start_method`` pins the multiprocessing start
    method (``"fork"``/``"spawn"``/``"forkserver"``; None prefers fork
    where available — cheapest pool start, and installed state is
    inherited by memory copy).  The pool is created lazily and reused
    across jobs (fusion runs many rounds through one executor); call
    :meth:`close` or use the executor as a context manager to release it.

    State installed with :meth:`install_state` reaches workers through the
    pool initializer; installing *after* the pool has started restarts it
    so new workers see the full registry — once per pipeline stage, never
    per shard.  Per-round state (:meth:`install_round_state`) never
    restarts the pool: it crosses through shared-memory segments workers
    attach lazily (``use_shared_memory=False``, or a failing
    ``multiprocessing.shared_memory``, degrades it to an inline pickled
    payload, counted per install in ``fallbacks_shm``).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        min_keys: int = 2,
        start_method: str | None = None,
        use_shared_memory: bool = True,
    ) -> None:
        self.max_workers = max_workers or max(2, os.cpu_count() or 1)
        self.min_keys = min_keys
        self.start_method = start_method
        self.use_shared_memory = use_shared_memory
        self.fallbacks_tiny = 0  # jobs too small for dispatch to pay off
        self.fallbacks_unpicklable = 0  # jobs whose work unit cannot pickle
        self.fallbacks_shm = 0  # round-state installs that crossed inline
        self.state_bytes_shipped = 0  # cumulative pickled install payloads
        self._pool: ProcessPoolExecutor | None = None
        self._state_blobs: dict[str, bytes] = {}
        self._installed: dict[str, Any] = {}
        self._unpicklable_state: set[str] = set()
        self._round_segments: dict[str, shared_memory.SharedMemory] = {}
        self._round_installed: dict[str, int] = {}

    @property
    def fallbacks(self) -> int:
        """Total degraded events despite the parallel backend: jobs that
        ran in-process (tiny or unpicklable) plus round-state installs
        that crossed inline rather than through shared memory."""
        return (
            self.fallbacks_tiny
            + self.fallbacks_unpicklable
            + self.fallbacks_shm
        )

    @property
    def state_bytes(self) -> int:
        """Pickled bytes of the currently installed pool-resident state.

        What a pool (re)start ships to *each* worker.  The out-of-core
        tier's headline: memory-mapped claim columns install as a
        ~kilobyte :class:`~repro.artifacts.ColumnHandle` here where the
        in-memory columns would ship megabytes per worker
        (``state_bytes_shipped`` accumulates the same quantity across
        the executor's whole life).
        """
        return sum(len(blob) for blob in self._state_blobs.values())

    @property
    def round_state_channel(self) -> str:
        """How this executor's round state crosses to workers.

        ``"shared-memory"`` when every install so far went through a
        segment; ``"inline (shm fallback)"`` once any install had to ride
        pickled inside the shard specs instead.
        """
        if self.fallbacks_shm > 0 or not self.use_shared_memory:
            return "inline (shm fallback)"
        return "shared-memory"

    def diagnostics(self) -> dict:
        """The pool's size, round-state channel and degradation counters."""
        return {
            "round_state": self.round_state_channel,
            "fallbacks_tiny": self.fallbacks_tiny,
            "fallbacks_unpicklable": self.fallbacks_unpicklable,
            "fallbacks_shm": self.fallbacks_shm,
            "n_workers": self.max_workers,
            "state_bytes_shipped": self.state_bytes_shipped,
        }

    def install_state(self, key: str, value: Any) -> None:
        """Make ``value`` pool-resident under ``key``.

        The value is pickled once, here; workers unpickle it once each, in
        the pool initializer.  It is also registered in the parent so
        :func:`worker_state` resolves on the in-process fallback paths.
        Reinstalling an identical value is a no-op; new state after the
        pool has started triggers one pool restart.

        A value that cannot pickle is registered parent-side only and the
        executor degrades to in-process execution (counted per job in
        ``fallbacks_unpicklable``) until the key is replaced or
        uninstalled — the same graceful path an unpicklable work unit
        takes.
        """
        self._installed[key] = value
        _WORKER_STATE[key] = value
        try:
            blob = pickle.dumps(value)
        except Exception:
            self._unpicklable_state.add(key)
            self._state_blobs.pop(key, None)
            return
        self._unpicklable_state.discard(key)
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
        _release_parent_state(self._installed, key)
        self._state_blobs.pop(key, None)
        self._unpicklable_state.discard(key)

    def install_round_state(
        self, key: str, arrays: dict[str, np.ndarray]
    ) -> RoundStateHandle:
        """Publish one round's arrays; returns the handle shards carry.

        The arrays are written into a fresh shared-memory segment (the
        previous round's segment under ``key`` is unlinked first, so at
        most one segment per key is ever live) and the returned handle
        names it — shard payloads stay a few hundred bytes no matter how
        many provenances the round tracks.  The live arrays are also
        cached parent-side so the in-process fallback paths resolve the
        handle with zero copies.  Arrays must not be mutated between the
        install and the last job that reads the handle (the next install
        snapshots them afresh).

        When shared memory is unavailable the handle carries the arrays
        pickled inline instead — they ride in the job spec as they did
        before this channel existed — and the degrade is counted in
        ``fallbacks_shm``.
        """
        arrays = {k: np.ascontiguousarray(v) for k, v in arrays.items()}
        generation = next(_ROUND_GENERATIONS)
        self._release_round_segment(key)
        handle: RoundStateHandle | None = None
        if self.use_shared_memory:
            layout, size = _round_segment_layout(arrays)
            try:
                segment = shared_memory.SharedMemory(create=True, size=size)
            except Exception:
                # No usable /dev/shm (or equivalent): degrade for the rest
                # of this executor's life rather than probing every round.
                self.use_shared_memory = False
            else:
                for spec in layout:
                    np.ndarray(
                        spec.shape,
                        dtype=np.dtype(spec.dtype),
                        buffer=segment.buf,
                        offset=spec.offset,
                    )[...] = arrays[spec.key]
                self._round_segments[key] = segment
                handle = RoundStateHandle(
                    key=key,
                    generation=generation,
                    segment=segment.name,
                    layout=layout,
                )
        if handle is None:
            self.fallbacks_shm += 1
            handle = RoundStateHandle(
                key=key, generation=generation, inline=pickle.dumps(arrays)
            )
        _evict_round_cache(key)
        _ROUND_CACHE[key] = (generation, _readonly_views(arrays), None)
        self._round_installed[key] = generation
        return handle

    def uninstall_round_state(self, key: str) -> None:
        """Unlink ``key``'s segment and drop its parent cache entry."""
        self._release_round_segment(key)
        generation = self._round_installed.pop(key, None)
        cached = _ROUND_CACHE.get(key)
        if generation is not None and cached is not None and cached[0] == generation:
            _evict_round_cache(key)

    def _release_round_segment(self, key: str) -> None:
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
                initializer=_init_worker_state if self._state_blobs else None,
                initargs=(dict(self._state_blobs),) if self._state_blobs else (),
            )
        return self._pool

    def run_map(self, items: Iterable[Any], job: ShardedMapJob) -> list[Any]:
        """Run a map-only job over a process pool, outputs in input order."""
        items = list(items)
        if len(items) < self.min_keys:
            self.fallbacks_tiny += 1
            return map_serial(items, job)
        if self._unpicklable_state:
            # Installed state never reached the workers; the parent-side
            # registry still resolves, so run the job in-process.
            self.fallbacks_unpicklable += 1
            return map_serial(items, job)
        try:
            spec_bytes = pickle.dumps(
                (job.map_shard, job.codec.encode if job.codec else None)
            )
        except Exception:
            self.fallbacks_unpicklable += 1
            return map_serial(items, job)

        n_shards = min(self.max_workers * 4, len(items))
        shards: list[list[tuple[int, Any]]] = [[] for _ in range(n_shards)]
        for index, item in enumerate(items):
            shards[shard_for_key(job.key_fn(item), n_shards)].append((index, item))

        pool = self._ensure_pool()
        futures = [
            pool.submit(_map_shard_worker, spec_bytes, shard)
            for shard in shards
            if shard
        ]
        outputs: list[Any] = [None] * len(items)
        for future in futures:
            for index, output in future.result():
                outputs[index] = job.codec.decode(output) if job.codec else output
        return outputs

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for key in list(self._installed):
            _release_parent_state(self._installed, key)
        for key in list(self._round_installed) + list(self._round_segments):
            self.uninstall_round_state(key)
        self._state_blobs.clear()
        self._unpicklable_state.clear()

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
    batched numpy, or the scalar reference (extraction has one kernel and
    reads only ``pooled``).  Every contract a run reports (the executor,
    ``backend_used``, ``parity``) is derived from these two fields; the
    README's "Execution backends" table states them.
    """

    pooled: bool
    batched: bool

    @property
    def reference(self) -> bool:
        """True for the scalar in-process mode every parity contract is
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


#: Every public backend spelling and what it means.  The in-process
#: batched mode has two: the extraction stage and the pipelines call it
#: ``batched``, the fusion stage ``vectorized``.  Insertion order is the
#: order of the public backend tuples (and so of the CLI ``choices=``).
#: DET006 keeps this a module-level literal; nothing else in ``src/``
#: compares backend names.
EXECUTION_MODES = {
    "serial": ExecutionPlan(pooled=False, batched=False),
    "batched": ExecutionPlan(pooled=False, batched=True),
    "parallel": ExecutionPlan(pooled=True, batched=False),
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
