"""The round's sampling masks and fusion's Stage-I shard.

**Sampling** (the paper's ``L``) is one draw, :func:`stage1_keep` /
:func:`stage2_keep`, run in the parent once per stage per round: each
group larger than ``L`` keeps ``L`` of its values, drawn by
:func:`~repro.mapreduce.executors.sample_positions` in canonical (sorted)
order — the columns' own layout order — so the subset depends only on
the claim *set*.  The result is a claim keep-mask (None when no group
exceeds ``L``) that every kernel of the round reads: the exact and the
batched kernels (:mod:`repro.fusion.kernels`), the pooled shard, the
θ-rescue.

**The columnar shuffle.**  Figure 8 shuffles both fusion stages; here
only Stage I — the per-item posteriors, where the work is — is a map job,
pooled by ``hybrid``.  Stage II always runs in the parent, on the call
the in-process modes make.  Pooled, one round is:

- the **round state** — Stage I's CSR (``item_ptr``, ``row_ptr``,
  ``claim_prov``), the accuracy vector, the active mask, and the Stage-I
  keep-mask when sampling engages — crosses once per round, in one
  shared-memory segment on the round-state channel under
  :data:`FUSION_ROUND_KEY` (:func:`install_stage1_state`) — so a **shard
  task payload** is a list of integer item ids plus the tiny
  :class:`~repro.mapreduce.executors.RoundStateHandle`: no ``Triple``,
  ``DataItem``, ``ExtractionRecord`` *or numpy buffer* (the test suite
  audits this with :func:`~repro.mapreduce.codec.scan_payload_types`);
  fusion installs no pool-resident state, so a pool shared with
  extraction is never restarted;
- Stage I runs as one :class:`Stage1Shard` job on the executors' map-only
  protocol: each shard slices the segment's CSR views
  (:func:`~repro.fusion.observations.slice_csr`) and runs the batched
  kernel once.

Every batched aggregate is per item or per row, so a shard's slice
scores exactly as the whole matrix does: ``hybrid`` equals in-process
``vectorized`` bit for bit, sampled or not (the contracts are stated in
full in :mod:`repro.fusion.runner`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from repro.fusion.kernels import RoundPosteriors
from repro.fusion.observations import ColumnarClaims, slice_csr
from repro.mapreduce.executors import (
    ParallelExecutor,
    RoundStateHandle,
    ShardedMapJob,
    sample_positions,
)

__all__ = [
    "FUSION_ROUND_KEY",
    "install_stage1_state",
    "uninstall_fusion_round_state",
    "stage1_keep",
    "stage2_keep",
    "Stage1Shard",
    "stage1_job",
    "merge_stage1_outputs",
]

#: Round-state key the per-round Stage-I buffers are installed under.  One
#: install per round; each supersedes (and unlinks) the last, so at most
#: one shared-memory segment per fusion run is ever live.
FUSION_ROUND_KEY = "fusion.round"


def uninstall_fusion_round_state(executor: ParallelExecutor) -> None:
    """Release the round-state channel :func:`install_stage1_state`
    publishes on: one call per run, unlinking the last round's segment."""
    executor.uninstall_round_state(FUSION_ROUND_KEY)


def install_stage1_state(
    executor: ParallelExecutor,
    cols: ColumnarClaims,
    accuracies: np.ndarray,
    active: np.ndarray,
    keep: np.ndarray | None = None,
) -> RoundStateHandle:
    """Publish one round's Stage-I inputs on the round-state channel: the
    CSR :class:`Stage1Shard` slices, the accuracies and active mask, and
    the claim keep-mask only when sampling engaged.  Mapped columns are
    copied from their column store into the segment."""
    arrays = {
        "item_ptr": cols.item_ptr,
        "row_ptr": cols.row_ptr,
        "claim_prov": cols.claim_prov,
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


@dataclass(frozen=True)
class Stage1Shard:
    """One Stage-I dispatch over a shard of item ids.

    Pickled once per job; carries the picklable posterior kernel plus the
    :class:`~repro.mapreduce.executors.RoundStateHandle` naming the
    round's segment — Stage I's CSR, accuracy vector, active mask and
    (when sampling engaged) claim keep-mask, crossing once per round
    (:func:`install_stage1_state`).  The shard runs one
    ``kernel.batch_round`` call over a
    :class:`~repro.fusion.observations.ColumnarSlice` of those views and
    returns one list of ``(row_id, posterior)`` pairs per item.
    """

    kernel: Callable  # carries .batch_round
    state: RoundStateHandle  # names the round's CSR, accuracies, active (+ keep)
    require_repeated: bool

    def __call__(self, item_ids: list[int]) -> list[list[tuple[int, float]]]:
        round_state = self.state.load()
        part = slice_csr(
            round_state["item_ptr"], round_state["row_ptr"],
            round_state["claim_prov"], item_ids,
        )
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
