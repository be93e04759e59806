"""Local MapReduce engine.

The paper scales fusion with a three-stage MapReduce pipeline (Figure 8).
This package provides the same dataflow semantics — map, shuffle (grouped,
deterministically ordered), reduce, with per-reducer input *sampling*
(the paper's ``L``) — as an in-process engine suitable for laptop scale
(the round loop and its forced termination ``R`` live in
:mod:`repro.fusion.runner`).
That keyed dataflow (:class:`MapReduceEngine`) is the reference the
``serial`` fusion backend runs on.  Pooled execution is a separate,
map-only protocol: an :class:`~repro.mapreduce.executors.Executor` runs
:class:`~repro.mapreduce.executors.ShardedMapJob` jobs (key-hash-sharded,
outputs in input order) — serial in-process by default, or across a
process pool by :class:`~repro.mapreduce.executors.ParallelExecutor` with
bit-identical output — which both the extraction stage and the columnar
fusion stages scale on.
"""

from repro.mapreduce.codec import WireCodec
from repro.mapreduce.engine import MapReduceEngine, MapReduceJob
from repro.mapreduce.executors import (
    Executor,
    ParallelExecutor,
    RoundStateHandle,
    SerialExecutor,
    ShardedMapJob,
    worker_state,
)

__all__ = [
    "MapReduceEngine",
    "MapReduceJob",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "RoundStateHandle",
    "ShardedMapJob",
    "WireCodec",
    "worker_state",
]
