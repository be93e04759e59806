"""The scalar stage bodies, and fusion's Stage-I shard over pool-resident columns.

**The scalar stage bodies.**  :func:`scalar_stage1` (one kernel call per
data item, on lists of its rows' provenance accuracies) and
:func:`scalar_stage2` (one canonical-order mean per provenance) are the
only scalar Stage I / Stage II in ``src/``.  They are plain functions of
the claim columns (:class:`~repro.fusion.observations.ColumnarClaims` —
int-coded CSR over sorted items/triples/provenances) and one round's
arrays, and work on ids throughout: no ``Triple`` is hashed or compared
in a round.  The runner calls them in-process over every id (Stage I only
in the in-process ``serial`` mode, Stage II in every scalar-kernel mode),
the shard below calls :func:`scalar_stage1` in pool workers over a shard
of item ids, and the runner's θ-rescue calls both for the boundary ids.

**The columnar shuffle.**  The paper's Figure 8 shuffles both fusion
stages; here only Stage I — the per-item posteriors, where the work is —
is a map job.  Stage II (one mean per provenance) always runs in the
parent, on the call the in-process modes make.  Pooled, one round is:

- the **columns themselves** (triples, provenances, pointer arrays, the
  canonical row ranking and provenance CSR) are installed
  *pool-resident* once per pool via
  :meth:`~repro.mapreduce.executors.ParallelExecutor.install_state`
  (:func:`install_fusion_columns`), on fork and spawn alike;
- the **round state** (the accuracy vector and active mask, which change
  every round) crosses once per round through the executors' round-state
  channel
  (:meth:`~repro.mapreduce.executors.ParallelExecutor.install_round_state`,
  shared-memory segments with a pickled-inline fallback, installed under
  :data:`FUSION_ROUND_KEY`) — each **shard task payload** is therefore a
  list of integer item ids plus, inside the per-job spec, only the tiny
  :class:`~repro.mapreduce.executors.RoundStateHandle`: no ``Triple``,
  ``DataItem``, ``ExtractionRecord``, *or numpy buffer* ever rides in a
  shard payload (the test suite audits this with
  :func:`~repro.mapreduce.codec.scan_payload_types`);
- Stage I runs as one :class:`Stage1Shard` job on the executors' shared
  map-only protocol (:class:`~repro.mapreduce.executors.ShardedMapJob` /
  ``run_map``), the same codec layer extraction shards use.  The shard
  either calls :func:`scalar_stage1` (the ``parallel`` backend) or slices
  the resident columns
  (:meth:`~repro.fusion.observations.ColumnarClaims.slice_items`) and
  runs the *batched* numpy kernel of :mod:`repro.fusion.kernels` — one
  vectorized call per shard instead of N scalar per-item updates (the
  ``hybrid`` backend).

**Contracts** (stated in full in :mod:`repro.fusion.runner`).  ``serial``
and the scalar shard run the same bodies, which sum floats and draw
reducer-input samples (the paper's ``L``,
:func:`~repro.mapreduce.executors.sample_positions`) in canonical (sorted)
order — the columnar CSR layout's own order, never set-iteration order —
so serial, fork-parallel and spawn-parallel output is **bit-identical** at
any worker count, independent of ``PYTHONHASHSEED``.  The batched shard
honours the **tolerance** contract instead
(:data:`repro.fusion.base.PARITY_TOLERANCE_ABS`): ``reduceat`` visits the
same addends in a different order.  It cannot subset per item, so under
sampling pressure the runner runs the scalar kernel instead
(``backend_used == "parallel (hybrid fallback)"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable

import numpy as np

from repro.fusion.kernels import RoundPosteriors
from repro.fusion.observations import ColumnarClaims, ragged_gather
from repro.mapreduce.executors import (
    Executor,
    RoundStateHandle,
    ShardedMapJob,
    sample_positions,
    worker_state,
)

__all__ = [
    "FUSION_COLUMNS_KEY",
    "FUSION_ROUND_KEY",
    "install_fusion_columns",
    "install_stage1_state",
    "uninstall_fusion_round_state",
    "scalar_stage1",
    "scalar_stage2",
    "Stage1Shard",
    "stage1_job",
    "merge_stage1_outputs",
]

#: Registry key the fusion columns are installed under (see
#: :func:`repro.mapreduce.executors.worker_state`).
FUSION_COLUMNS_KEY = "fusion.columns"

#: Round-state key the per-round Stage-I buffers are installed under.  One
#: install per round; each supersedes (and unlinks) the last, so at most
#: one shared-memory segment per fusion run is ever live.
FUSION_ROUND_KEY = "fusion.round"


def install_fusion_columns(executor: Executor, cols: ColumnarClaims) -> None:
    """Make ``cols`` pool-resident for the Stage-I shards.

    The canonical-order provenance CSR (and row ranking) is materialised
    first, so the pickled value is the same before and after the parent's
    Stage II caches it — a shared executor's next fuse over the same
    columns then reinstalls an identical value, which is a no-op instead
    of a pool restart.  Crosses
    the process boundary once per pool; in-process executors just register
    the object.  The columns are not withdrawn when a fusion run ends.
    """
    cols.canonical_prov_rows()
    executor.install_state(FUSION_COLUMNS_KEY, cols)  # det: ignore[DET004] -- kept resident across fuses on a shared executor; its close() releases it


def uninstall_fusion_round_state(executor: Executor) -> None:
    """Release the round-state channel :func:`install_stage1_state`
    publishes on: one call per run, unlinking the last round's segment."""
    executor.uninstall_round_state(FUSION_ROUND_KEY)


def install_stage1_state(
    executor: Executor, accuracies: np.ndarray, active: np.ndarray
) -> RoundStateHandle:
    """Publish one round's Stage-I inputs on the round-state channel."""
    return executor.install_round_state(
        FUSION_ROUND_KEY,
        {
            "accuracies": np.asarray(accuracies, dtype=np.float64),
            "active": np.asarray(active, dtype=bool),
        },
    )


def scalar_stage1(
    cols: ColumnarClaims,
    kernel: Callable[[list[list[float]]], list[float]],
    accuracies: np.ndarray,
    active: np.ndarray,
    require_repeated: bool,
    item_ids,
    name: str = "fusion.stage1",
    sample_limit: int | None = None,
    seed: int = 0,
) -> list[list[tuple[int, float]]]:
    """Scalar Stage I: score ``item_ids``, one kernel call each.

    The one scalar Stage-I body in ``src/``: the ``serial`` mode calls it
    in-process over every item, :class:`Stage1Shard` calls it in each pool
    worker, and the θ-rescue calls it for the boundary items.  The kernel
    gets one list of active provenance accuracies per kept row, rows and
    provenances in the columns' canonical order, and returns one posterior
    per row.  Each item's output is a list of ``(row_id, posterior)``
    pairs (empty when the item is filtered).

    When the sampling bound engages for an item, its active claims are
    subset by the canonical-order draw: the columnar claim order (rows
    canonically sorted within the item, provenances sorted within each
    row) is the sorted value order the contract is defined over, and the
    positional draw depends only on ``(seed, name, item key)`` — so the
    sampled subset, and therefore the posterior floats, are the same
    wherever this runs.
    """
    part = cols.slice_items(item_ids)
    accuracy_of = accuracies.tolist()
    is_active = active.tolist()
    global_row = part.rows.tolist()
    item_ptr, row_ptr = part.item_ptr.tolist(), part.row_ptr.tolist()
    claim_prov = part.claim_prov.tolist()
    outputs: list[list[tuple[int, float]]] = []
    for i, j in enumerate(item_ids):
        kept_rows: list[int] = []
        row_provs: list[list[int]] = []
        for r in range(item_ptr[i], item_ptr[i + 1]):
            provs = [p for p in claim_prov[row_ptr[r] : row_ptr[r + 1]] if is_active[p]]
            if provs:
                kept_rows.append(global_row[r])
                row_provs.append(provs)
        if not kept_rows:
            outputs.append([])
            continue
        n_active = sum(map(len, row_provs))
        if sample_limit is not None and n_active > sample_limit:
            positions = sample_positions(
                n_active, cols.items[j].canonical(), name, sample_limit, seed
            )
            # Enumerate the item's active claims in canonical order — the
            # columnar layout order — and regroup the drawn (ascending)
            # positions by row.
            pairs = [(r, p) for r, provs in zip(kept_rows, row_provs) for p in provs]
            kept_rows, row_provs = [], []
            for position in positions:
                r, p = pairs[position]
                if not kept_rows or kept_rows[-1] != r:
                    kept_rows.append(r)
                    row_provs.append([])
                row_provs[-1].append(p)
        if require_repeated and not any(len(provs) >= 2 for provs in row_provs):
            outputs.append([])
            continue
        posteriors = kernel([[accuracy_of[p] for p in provs] for provs in row_provs])
        outputs.append(list(zip(kept_rows, posteriors)))
    return outputs


def scalar_stage2(
    cols: ColumnarClaims,
    posteriors: np.ndarray,
    scored: np.ndarray,
    active: np.ndarray,
    prov_ids,
    name: str = "fusion.stage2",
    sample_limit: int | None = None,
    seed: int = 0,
) -> list[float | None]:
    """Scalar Stage II: re-estimate the accuracies of ``prov_ids``.

    The one scalar Stage-II body in ``src/``, always run in the parent:
    the runner calls it over every provenance in each scalar-kernel round,
    pooled or not, and the θ-rescue calls it for the boundary provenances.
    Output per provenance is the mean posterior of its scored triples,
    summed in canonical triple order (``cols.canonical_prov_rows()``), or
    None when the provenance is inactive or scored nothing this round.

    Sampling follows the same canonical-order contract as Stage I: the
    positional draw runs over the provenance's scored rows in that order.
    """
    ids = np.asarray(prov_ids, dtype=np.int64)
    counts = cols.prov_ptr[ids + 1] - cols.prov_ptr[ids]
    rows = cols.canonical_prov_rows()[ragged_gather(cols.prov_ptr[ids], counts)]
    kept = scored[rows].tolist()
    values = posteriors[rows].tolist()
    is_active = active.tolist()
    outputs: list[float | None] = []
    end = 0
    for p, count in zip(ids.tolist(), counts.tolist()):
        start, end = end, end + count
        if not is_active[p]:
            outputs.append(None)
            continue
        ordered = list(compress(values[start:end], kept[start:end]))
        if not ordered:
            outputs.append(None)
            continue
        positions = sample_positions(
            len(ordered), cols.provenances[p], name, sample_limit, seed
        )
        if positions is not None:
            ordered = [ordered[position] for position in positions]
        total = 0.0
        for value in ordered:
            total += value
        outputs.append(total / len(ordered))
    return outputs


@dataclass(frozen=True)
class Stage1Shard:
    """One Stage-I dispatch over a shard of item ids.

    Pickled once per job; carries the picklable posterior kernel plus the
    :class:`~repro.mapreduce.executors.RoundStateHandle` naming the
    round's accuracy vector and active mask (the buffers themselves live
    in shared memory, crossing once per round — see
    :func:`install_stage1_state`).  ``batched`` picks the kernel: one
    ``kernel.batch_round`` call over a
    :class:`~repro.fusion.observations.ColumnarSlice` of the pool-resident
    columns (tolerance parity: only the float summation order differs),
    or :func:`scalar_stage1` per item, which also honours the sampling
    bound (bitwise parity).  Either way the output is one list of
    ``(row_id, posterior)`` pairs per item, so the parent-side merge is
    shared.
    """

    kernel: Callable  # scalar: row accuracies -> posteriors; batched: .batch_round
    state: RoundStateHandle  # names the round's accuracies + active mask
    require_repeated: bool
    batched: bool
    name: str = "fusion.stage1"
    sample_limit: int | None = None
    seed: int = 0

    def __call__(self, item_ids: list[int]) -> list[list[tuple[int, float]]]:
        cols: ColumnarClaims = worker_state(FUSION_COLUMNS_KEY)
        round_state = self.state.load()
        accuracies, active = round_state["accuracies"], round_state["active"]
        if not self.batched:
            return scalar_stage1(
                cols, self.kernel, accuracies, active, self.require_repeated,
                item_ids, self.name, self.sample_limit, self.seed,
            )
        part = cols.slice_items(item_ids)
        round_result = self.kernel.batch_round(
            part, accuracies, active, self.require_repeated
        )
        scored = round_result.scored
        posteriors = round_result.posteriors
        return [
            [
                (int(part.rows[r]), float(posteriors[r]))
                for r in range(part.item_ptr[i], part.item_ptr[i + 1])
                if scored[r]
            ]
            for i in range(part.n_items)
        ]


def stage1_job(
    name: str,
    cols: ColumnarClaims,
    kernel: Callable,
    state: RoundStateHandle,
    require_repeated: bool,
    batched: bool,
    sample_limit: int | None = None,
    seed: int = 0,
) -> ShardedMapJob:
    """One Stage-I round as a map-only job over item ids.

    ``state`` is the handle :func:`install_stage1_state` returned for this
    round.  ``key_fn`` resolves the item's canonical key in the parent (it
    never pickles), so shard assignment matches the stable crc32
    partitioning every other sharded stage uses.
    """
    return ShardedMapJob(
        name=name,
        map_shard=Stage1Shard(
            kernel=kernel,
            state=state,
            require_repeated=require_repeated,
            batched=batched,
            name=name,
            sample_limit=sample_limit,
            seed=seed,
        ),
        key_fn=lambda j: cols.items[j].canonical(),
    )


def merge_stage1_outputs(
    cols: ColumnarClaims, per_item: list[list[tuple[int, float]]]
) -> RoundPosteriors:
    """Collect the shards' ``(row_id, posterior)`` pairs into row arrays."""
    pairs = list(chain.from_iterable(per_item))
    rows = np.array([r for r, _value in pairs], dtype=np.int64)
    posteriors = np.zeros(cols.n_rows, dtype=np.float64)
    posteriors[rows] = [value for _r, value in pairs]
    scored = np.zeros(cols.n_rows, dtype=bool)
    scored[rows] = True
    return RoundPosteriors(posteriors=posteriors, scored=scored)
