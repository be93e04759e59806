"""Local MapReduce execution.

The paper scales fusion with a three-stage MapReduce pipeline (Figure 8).
This package provides the execution half at laptop scale: one map-only
protocol — an :class:`~repro.mapreduce.executors.Executor` runs
:class:`~repro.mapreduce.executors.ShardedMapJob` jobs (key-hash-sharded,
outputs in input order), serial in-process by default or across a process
pool by :class:`~repro.mapreduce.executors.ParallelExecutor` with
bit-identical output — which both the extraction stage and the columnar
fusion stages scale on, plus the deterministic per-reducer input
*sampling* draw (the paper's ``L``,
:func:`~repro.mapreduce.executors.sample_positions`).  The round loop, its
forced termination ``R`` and the two stage bodies live in
:mod:`repro.fusion.runner` / :mod:`repro.fusion.shuffle`; the keyed map →
shuffle → sorted-key reduce engine the fusion reference oracle runs on
lives with that oracle, under ``tests/oracle/``.
"""

from repro.mapreduce.codec import WireCodec
from repro.mapreduce.executors import (
    Executor,
    ParallelExecutor,
    RoundStateHandle,
    SerialExecutor,
    ShardedMapJob,
    worker_state,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "RoundStateHandle",
    "ShardedMapJob",
    "WireCodec",
    "worker_state",
]
