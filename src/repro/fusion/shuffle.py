"""The round's sampling masks, the scalar stage bodies, and fusion's Stage-I shard.

**Sampling** (the paper's ``L``) is one draw, :func:`stage1_keep` /
:func:`stage2_keep`, run in the parent once per stage per round: each
group larger than ``L`` keeps ``L`` of its values, drawn by
:func:`~repro.mapreduce.executors.sample_positions` in canonical (sorted)
order — the columns' own layout order — so the subset depends only on
the claim *set*.  The result is a claim keep-mask (None when no group
exceeds ``L``) that every kernel of the round reads: the scalar bodies
below, the batched kernels, the pooled shard, the θ-rescue.

**The scalar stage bodies.**  :func:`scalar_stage1` (one kernel call per
data item, on lists of its rows' provenance accuracies) and
:func:`scalar_stage2` (one canonical-order mean per provenance) are the
only scalar Stage I / Stage II in ``src/``: plain functions of the claim
columns (:class:`~repro.fusion.observations.ColumnarClaims`) and one
round's arrays, working on ids — no ``Triple`` is hashed in a round.
They run in-process only: over every id in ``serial``, over the
θ-boundary ids in the runner's rescue.

**The columnar shuffle.**  Figure 8 shuffles both fusion stages; here
only Stage I — the per-item posteriors, where the work is — is a map job,
pooled by ``hybrid``.  Stage II always runs in the parent, on the call
the in-process modes make.  Pooled, one round is:

- the **columns** are installed *pool-resident* once per pool
  (:func:`install_fusion_columns`, via
  :meth:`~repro.mapreduce.executors.ParallelExecutor.install_state`);
- the **round state** (accuracy vector, active mask, and the Stage-I
  keep-mask when sampling engages) crosses once per round on the
  round-state channel under :data:`FUSION_ROUND_KEY` — so a **shard task
  payload** is a list of integer item ids plus the tiny
  :class:`~repro.mapreduce.executors.RoundStateHandle`: no ``Triple``,
  ``DataItem``, ``ExtractionRecord`` *or numpy buffer* (the test suite
  audits this with :func:`~repro.mapreduce.codec.scan_payload_types`);
- Stage I runs as one :class:`Stage1Shard` job on the executors' map-only
  protocol: each shard slices the resident columns
  (:meth:`~repro.fusion.observations.ColumnarClaims.slice_items`) and
  runs the batched kernel once.

Every batched aggregate is per item or per row, so a shard's slice
scores exactly as the whole matrix does: ``hybrid`` equals in-process
``vectorized`` bit for bit, sampled or not (the contracts are stated in
full in :mod:`repro.fusion.runner`).
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
    "stage1_keep",
    "stage2_keep",
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

    Crosses the process boundary once per pool; in-process executors just
    register the object.  The pickled value leaves out the parent-side
    canonical-order caches, so a shared executor's next fuse over the same
    columns reinstalls an identical value — a no-op, not a pool restart.
    The columns are not withdrawn when a fusion run ends.
    """
    executor.install_state(FUSION_COLUMNS_KEY, cols)  # det: ignore[DET004] -- kept resident across fuses on a shared executor; its close() releases it


def uninstall_fusion_round_state(executor: Executor) -> None:
    """Release the round-state channel :func:`install_stage1_state`
    publishes on: one call per run, unlinking the last round's segment."""
    executor.uninstall_round_state(FUSION_ROUND_KEY)


def install_stage1_state(
    executor: Executor,
    accuracies: np.ndarray,
    active: np.ndarray,
    keep: np.ndarray | None = None,
) -> RoundStateHandle:
    """Publish one round's Stage-I inputs on the round-state channel (the
    claim keep-mask only when sampling engaged)."""
    arrays = {
        "accuracies": np.asarray(accuracies, dtype=np.float64),
        "active": np.asarray(active, dtype=bool),
    }
    if keep is not None:
        arrays["keep"] = keep
    return executor.install_round_state(FUSION_ROUND_KEY, arrays)


def _sampled_keep(ptr, eligible, key_of, name, sample_limit, seed) -> np.ndarray | None:
    """The one sampling draw.  Group ``g`` owns canonical positions
    ``ptr[g]:ptr[g+1]``, the ``eligible`` ones being its reducer input;
    each group with more than ``sample_limit`` of them keeps only the
    drawn ones.  A mask over canonical positions, None if nothing drew."""
    counts = np.diff(np.concatenate(([0], np.cumsum(eligible)))[ptr])
    keep = None
    for group in np.flatnonzero(counts > sample_limit).tolist():
        start, end = int(ptr[group]), int(ptr[group + 1])
        values = start + np.flatnonzero(eligible[start:end])
        if keep is None:
            keep = np.ones(len(eligible), dtype=bool)
        keep[start:end] = False
        keep[values[sample_positions(len(values), key_of(group), name, sample_limit, seed)]] = True
    return keep


def stage1_keep(cols: ColumnarClaims, active, name: str, sample_limit, seed) -> np.ndarray | None:
    """Stage I's claim keep-mask for one round (None: nothing sampled).

    An item's reducer input is its active claims in claim order — rows
    canonically sorted within the item, provenances within each row — the
    canonical ``(triple, provenance)`` order; ``name`` is the Stage-I job
    name (``fusion.stage1`` / ``vote.stage1``) seeding the draw.
    """
    if sample_limit is None or cols.item_claim_counts().max(initial=0) <= sample_limit:
        return None
    return _sampled_keep(
        cols.row_ptr[cols.item_ptr], active[cols.claim_prov],
        lambda j: cols.items[j].canonical(), name, sample_limit, seed,
    )


def stage2_keep(cols: ColumnarClaims, scored, active, sample_limit, seed) -> np.ndarray | None:
    """Stage II's keep-mask over ``prov_rows`` for one round (None:
    nothing sampled).  An active provenance's reducer input is its scored
    rows in canonical triple order (``cols.canonical_prov_order()``)."""
    if sample_limit is None or cols.prov_row_counts().max(initial=0) <= sample_limit:
        return None
    order = cols.canonical_prov_order()
    eligible = scored[cols.prov_rows[order]] & np.repeat(active, cols.prov_row_counts())
    drawn = _sampled_keep(
        cols.prov_ptr, eligible, cols.provenances.__getitem__, "fusion.stage2",
        sample_limit, seed,
    )
    if drawn is None:
        return None
    keep = np.empty_like(drawn)
    keep[order] = drawn
    return keep


def scalar_stage1(
    cols: ColumnarClaims,
    kernel: Callable[[list[list[float]]], list[float]],
    accuracies: np.ndarray,
    active: np.ndarray,
    require_repeated: bool,
    item_ids,
    keep: np.ndarray | None = None,
) -> list[list[tuple[int, float]]]:
    """Scalar Stage I: score ``item_ids``, one kernel call each.

    The one scalar Stage-I body in ``src/``: the ``serial`` mode calls it
    over every item, and the θ-rescue for the boundary items.  The kernel
    gets one list of active (and, under sampling, kept — :func:`stage1_keep`)
    provenance accuracies per row that has any, rows and provenances in
    the columns' canonical order, and returns one posterior per row.  Each
    item's output is a list of ``(row_id, posterior)`` pairs (empty when
    the item is filtered).
    """
    part = cols.slice_items(item_ids)
    accuracy_of = accuracies.tolist()
    is_active = active.tolist()
    global_row = part.rows.tolist()
    item_ptr, row_ptr = part.item_ptr.tolist(), part.row_ptr.tolist()
    claim_prov = part.claim_prov.tolist()
    claim_kept = [True] * len(claim_prov) if keep is None else keep[part.claims].tolist()
    outputs: list[list[tuple[int, float]]] = []
    for i in range(len(item_ptr) - 1):
        kept_rows: list[int] = []
        row_provs: list[list[int]] = []
        for r in range(item_ptr[i], item_ptr[i + 1]):
            start, end = row_ptr[r], row_ptr[r + 1]
            provs = [
                p
                for p, kept in zip(claim_prov[start:end], claim_kept[start:end])
                if kept and is_active[p]
            ]
            if provs:
                kept_rows.append(global_row[r])
                row_provs.append(provs)
        if not kept_rows or (
            require_repeated and not any(len(provs) >= 2 for provs in row_provs)
        ):
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
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar Stage II: re-estimate the accuracies of ``prov_ids``.

    The one scalar Stage-II body in ``src/``, always run in the parent:
    the ``serial`` mode calls it over every provenance, the θ-rescue for
    the boundary provenances.  Returns ``(new_acc, updated)`` per id, as
    :func:`repro.fusion.kernels.stage2_accuracies` does: the mean
    posterior of each active provenance's scored (and, under sampling,
    kept — :func:`stage2_keep`) triples, summed in canonical triple order;
    ``updated`` is False where there is none.
    """
    ids = np.asarray(prov_ids, dtype=np.int64)
    counts = cols.prov_ptr[ids + 1] - cols.prov_ptr[ids]
    entries = cols.canonical_prov_order()[ragged_gather(cols.prov_ptr[ids], counts)]
    rows = cols.prov_rows[entries]
    kept = scored[rows] if keep is None else scored[rows] & keep[entries]
    kept, values = kept.tolist(), posteriors[rows].tolist()
    new_acc = np.zeros(len(ids), dtype=np.float64)
    updated = active[ids].copy()
    end = 0
    for i, count in enumerate(counts.tolist()):
        start, end = end, end + count
        ordered = list(compress(values[start:end], kept[start:end]))
        if not (updated[i] and ordered):
            updated[i] = False
            continue
        total = 0.0
        for value in ordered:
            total += value
        new_acc[i] = total / len(ordered)
    return new_acc, updated


@dataclass(frozen=True)
class Stage1Shard:
    """One Stage-I dispatch over a shard of item ids.

    Pickled once per job; carries the picklable posterior kernel plus the
    :class:`~repro.mapreduce.executors.RoundStateHandle` naming the
    round's accuracy vector, active mask and (when sampling engaged) claim
    keep-mask — the buffers themselves live in shared memory, crossing
    once per round (:func:`install_stage1_state`).  The shard runs one
    ``kernel.batch_round`` call over a
    :class:`~repro.fusion.observations.ColumnarSlice` of the pool-resident
    columns and returns one list of ``(row_id, posterior)`` pairs per
    item.
    """

    kernel: Callable  # carries .batch_round
    state: RoundStateHandle  # names the round's accuracies, active (+ keep) masks
    require_repeated: bool

    def __call__(self, item_ids: list[int]) -> list[list[tuple[int, float]]]:
        cols: ColumnarClaims = worker_state(FUSION_COLUMNS_KEY)
        round_state = self.state.load()
        part = cols.slice_items(item_ids)
        keep = round_state.get("keep")
        round_result = self.kernel.batch_round(
            part,
            round_state["accuracies"],
            round_state["active"],
            self.require_repeated,
            None if keep is None else keep[part.claims],
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
) -> ShardedMapJob:
    """One Stage-I round as a map-only job over item ids.

    ``state`` is the handle :func:`install_stage1_state` returned for this
    round.  ``key_fn`` resolves the item's canonical key in the parent (it
    never pickles), so shard assignment matches the stable crc32
    partitioning every other sharded stage uses.
    """
    return ShardedMapJob(
        name=name,
        map_shard=Stage1Shard(kernel=kernel, state=state, require_repeated=require_repeated),
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
