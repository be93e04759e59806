"""The scalar stage bodies, and fusion's shards over pool-resident columns.

**The scalar stage bodies.**  :func:`scalar_stage1` (one posterior call
per data item) and :func:`scalar_stage2` (one canonical-order mean per
provenance) are the only scalar Stage I / Stage II in ``src/``.  They are
plain functions of the claim columns
(:class:`~repro.fusion.observations.ColumnarClaims` — int-coded CSR over
sorted items/triples/provenances) and one round's arrays: the ``serial``
mode calls them in-process over every id, the scalar shards below call
them in pool workers over a shard of ids, and the runner's θ-rescue calls
them for the boundary ids.

**The columnar shuffle.**  The paper runs every fusion stage as sharded
MapReduce over compact key-partitioned records.  Pooled, that is:

- the **columns themselves** (triples, provenances, pointer arrays, the
  canonical row ranking) are installed *pool-resident* once per pool via
  :meth:`~repro.mapreduce.executors.ParallelExecutor.install_state`
  (:func:`install_fusion_columns`), on fork and spawn alike;
- the **round state** (the accuracy/posterior/active-mask vectors that
  change every round) crosses once per round through the executors'
  round-state channel
  (:meth:`~repro.mapreduce.executors.ParallelExecutor.install_round_state`,
  shared-memory segments with a pickled-inline fallback, installed under
  :data:`FUSION_ROUND_KEY`) — each **shard task payload** is therefore a
  list of integer item/provenance ids plus, inside the per-job spec, only
  the tiny :class:`~repro.mapreduce.executors.RoundStateHandle`: no
  ``Triple``, ``DataItem``, ``ExtractionRecord``, *or numpy
  buffer* ever rides in a shard payload (the test suite audits this with
  :func:`~repro.mapreduce.codec.scan_payload_types`);
- both stages run on the executors' shared map-only protocol
  (:class:`~repro.mapreduce.executors.ShardedMapJob` / ``run_map``), the
  same codec layer extraction shards use.

Two shard families share that wire format:

- the **scalar shards** (:class:`Stage1ColumnarShard` /
  :class:`Stage2ColumnarShard`) resolve the resident columns and the
  round's arrays and call the scalar stage bodies — the ``parallel``
  backend;
- the **hybrid shards** (:class:`HybridStage1Shard` /
  :class:`HybridStage2Shard`) slice the resident columns
  (:meth:`~repro.fusion.observations.ColumnarClaims.slice_items`) and run
  the *batched* numpy kernels of :mod:`repro.fusion.kernels` — one
  vectorized kernel call per shard instead of N scalar per-item updates.

**Contracts** (stated in full in :mod:`repro.fusion.runner`).  ``serial``
and the scalar shards run the same bodies, which sum floats and draw
reducer-input samples (the paper's ``L``,
:func:`~repro.mapreduce.executors.sample_positions`) in canonical (sorted)
order — the columnar CSR layout's own order, never set-iteration order —
so serial, fork-parallel and spawn-parallel output is **bit-identical** at
any worker count, independent of ``PYTHONHASHSEED``.  The hybrid shards
honour the **tolerance** contract instead
(:data:`repro.fusion.base.PARITY_TOLERANCE_ABS`): ``reduceat`` visits the
same addends in a different order.  They cannot subset per item, so under
sampling pressure the runner swaps them for the scalar shards
(``backend_used == "parallel (hybrid fallback)"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.fusion.kernels import RoundPosteriors
from repro.fusion.observations import ColumnarClaims, ProvKey, ragged_gather
from repro.kb.triples import Triple
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
    "install_stage2_state",
    "uninstall_fusion_round_state",
    "scalar_stage1",
    "scalar_stage2",
    "Stage1ColumnarShard",
    "Stage2ColumnarShard",
    "HybridStage1Shard",
    "HybridStage2Shard",
    "stage1_job",
    "stage2_job",
    "merge_stage1_outputs",
]

#: Registry key the fusion columns are installed under (see
#: :func:`repro.mapreduce.executors.worker_state`).
FUSION_COLUMNS_KEY = "fusion.columns"

#: Round-state key the per-round buffers are installed under.  Both stages
#: share it: Stage II's install supersedes Stage I's within a round, so at
#: most one shared-memory segment per fusion run is ever live.
FUSION_ROUND_KEY = "fusion.round"


def install_fusion_columns(executor: Executor, cols: ColumnarClaims) -> None:
    """Make ``cols`` pool-resident for the stage shards.

    The canonical row ranking is materialised first so workers receive it
    prebuilt instead of each re-sorting the triple column.  Crosses the
    process boundary once per pool; in-process executors just register the
    object.  The columns are not withdrawn when a fusion run ends: a
    shared executor's next fuse over the same columns reinstalls an
    identical value, which is a no-op instead of a pool restart.
    """
    cols.canonical_rank()
    executor.install_state(FUSION_COLUMNS_KEY, cols)  # det: ignore[DET004] -- kept resident across fuses on a shared executor; its close() releases it


def uninstall_fusion_round_state(executor: Executor) -> None:
    """Release the round-state channel both stage installers publish on.

    One call per round regardless of which stage installed last: the
    stages share :data:`FUSION_ROUND_KEY`, so this unlinks whatever
    segment is currently live.
    """
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


def install_stage2_state(
    executor: Executor,
    posteriors: np.ndarray,
    scored: np.ndarray,
    active: np.ndarray,
) -> RoundStateHandle:
    """Publish one round's Stage-II inputs on the round-state channel."""
    return executor.install_round_state(
        FUSION_ROUND_KEY,
        {
            "posteriors": np.asarray(posteriors, dtype=np.float64),
            "scored": np.asarray(scored, dtype=bool),
            "active": np.asarray(active, dtype=bool),
        },
    )


def scalar_stage1(
    cols: ColumnarClaims,
    posterior_fn: Callable,
    accuracies: np.ndarray,
    active: np.ndarray,
    require_repeated: bool,
    item_ids,
    name: str = "fusion.stage1",
    sample_limit: int | None = None,
    seed: int = 0,
) -> list[list[tuple[int, float]]]:
    """Scalar Stage I: score ``item_ids``, one per-item posterior call each.

    The one scalar Stage-I body in ``src/``: the ``serial`` mode calls it
    in-process over every item, :class:`Stage1ColumnarShard` calls it in
    each pool worker, and the θ-rescue calls it for the boundary items.
    Each item's output is a list of ``(row_id, posterior)`` pairs (empty
    when the item is filtered).

    When the sampling bound engages for an item, its active claims are
    subset by the canonical-order draw: the columnar claim order (rows
    canonically sorted within the item, provenances sorted within each
    row) is the sorted value order the contract is defined over, and the
    positional draw depends only on ``(seed, name, item key)`` — so the
    sampled subset, and therefore the posterior floats, are the same
    wherever this runs.
    """
    items = cols.items
    provenances = cols.provenances
    triples = cols.triples
    item_ptr, row_ptr = cols.item_ptr, cols.row_ptr
    claim_prov = cols.claim_prov
    accuracy_of: dict[ProvKey, float] = dict(zip(provenances, accuracies.tolist()))
    outputs: list[list[tuple[int, float]]] = []
    for j in item_ids:
        claims: dict[Triple, set[ProvKey]] = {}
        kept_rows: list[int] = []
        n_active = 0
        for r in range(item_ptr[j], item_ptr[j + 1]):
            provs = {
                provenances[p]
                for p in claim_prov[row_ptr[r] : row_ptr[r + 1]]
                if active[p]
            }
            if provs:
                claims[triples[r]] = provs
                kept_rows.append(int(r))
                n_active += len(provs)
        if not claims:
            outputs.append([])
            continue
        if sample_limit is not None and n_active > sample_limit:
            positions = sample_positions(
                n_active, items[j].canonical(), name, sample_limit, seed
            )
            # Enumerate the item's active claims in canonical order —
            # the columnar layout order — and keep the drawn subset.
            pairs = [
                (r, prov)
                for r in kept_rows
                for prov in sorted(claims[triples[r]])
            ]
            claims, kept_rows = {}, []
            for i in positions:
                r, prov = pairs[i]
                if triples[r] not in claims:
                    claims[triples[r]] = set()
                    kept_rows.append(r)
                claims[triples[r]].add(prov)
        if require_repeated and not any(
            len(provs) >= 2 for provs in claims.values()
        ):
            outputs.append([])
            continue
        posteriors = posterior_fn(claims, accuracy_of)
        outputs.append([(r, posteriors[triples[r]]) for r in kept_rows])
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

    The one scalar Stage-II body in ``src/`` (same three callers as
    :func:`scalar_stage1`).  Output per provenance is the mean posterior
    of its scored triples, summed in canonical triple order (not row or
    hash order, so the float is the same in every process), or None when
    the provenance is inactive or scored nothing this round.

    Sampling follows the same canonical-order contract as Stage I: the
    provenance's scored rows are ordered by the canonical triple ranking
    before the positional draw.
    """
    rank = cols.canonical_rank()
    outputs: list[float | None] = []
    for p in prov_ids:
        if not active[p]:
            outputs.append(None)
            continue
        rows = cols.prov_rows[cols.prov_ptr[p] : cols.prov_ptr[p + 1]]
        rows = rows[scored[rows]]
        if rows.size == 0:
            outputs.append(None)
            continue
        ordered = rows[np.argsort(rank[rows], kind="stable")]
        positions = sample_positions(
            int(ordered.size), cols.provenances[p], name, sample_limit, seed
        )
        if positions is not None:
            ordered = ordered[np.asarray(positions, dtype=np.int64)]
        total = 0.0
        for value in posteriors[ordered].tolist():
            total += value
        outputs.append(total / int(ordered.size))
    return outputs


@dataclass(frozen=True)
class Stage1ColumnarShard:
    """One scalar Stage-I dispatch: :func:`scalar_stage1` over a shard.

    Pickled once per job; carries only the picklable posterior kernel
    plus the :class:`~repro.mapreduce.executors.RoundStateHandle` naming
    the round's accuracy vector and active mask (the buffers themselves
    live in shared memory, crossing once per round — see
    :func:`install_stage1_state`).  Shard items are integer item ids into
    the pool-resident columns; one output per item satisfies the
    ``run_map`` contract.
    """

    posterior_fn: Callable
    state: RoundStateHandle  # names the round's accuracies + active mask
    require_repeated: bool
    name: str = "fusion.stage1"
    sample_limit: int | None = None
    seed: int = 0

    def __call__(self, item_ids: list[int]) -> list[list[tuple[int, float]]]:
        round_state = self.state.load()
        return scalar_stage1(
            worker_state(FUSION_COLUMNS_KEY),
            self.posterior_fn,
            round_state["accuracies"],
            round_state["active"],
            self.require_repeated,
            item_ids,
            self.name,
            self.sample_limit,
            self.seed,
        )


@dataclass(frozen=True)
class Stage2ColumnarShard:
    """One scalar Stage-II dispatch: :func:`scalar_stage2` over a shard.

    Shard items are integer provenance ids; the round's posteriors and
    scored/active masks cross once per round on the round-state channel
    (:func:`install_stage2_state`) — the spec carries only the handle.
    """

    state: RoundStateHandle  # names the round's posteriors/scored/active
    name: str = "fusion.stage2"
    sample_limit: int | None = None
    seed: int = 0

    def __call__(self, prov_ids: list[int]) -> list[float | None]:
        round_state = self.state.load()
        return scalar_stage2(
            worker_state(FUSION_COLUMNS_KEY),
            round_state["posteriors"],
            round_state["scored"],
            round_state["active"],
            prov_ids,
            self.name,
            self.sample_limit,
            self.seed,
        )


@dataclass(frozen=True)
class HybridStage1Shard:
    """One hybrid Stage-I dispatch: one batched kernel call per shard.

    The kernel must expose ``batch_round`` (the built-in
    ``AccuKernel``/``PopAccuKernel``/``VoteKernel`` do); it runs over a
    :class:`~repro.fusion.observations.ColumnarSlice` of the
    pool-resident columns, replacing the shard's per-item Python loop
    with a fixed number of array operations.  Wire format is identical to
    the scalar shard — ``(row_id, posterior)`` pairs per item — so the
    parent-side merge is shared; only the float summation order differs
    (tolerance parity, not bitwise).
    """

    kernel: Callable  # must expose batch_round(cols, acc, active, repeated)
    state: RoundStateHandle  # names the round's accuracies + active mask
    require_repeated: bool

    def __call__(self, item_ids: list[int]) -> list[list[tuple[int, float]]]:
        cols: ColumnarClaims = worker_state(FUSION_COLUMNS_KEY)
        round_state = self.state.load()
        part = cols.slice_items(item_ids)
        round_result = self.kernel.batch_round(
            part, round_state["accuracies"], round_state["active"],
            self.require_repeated,
        )
        scored = round_result.scored
        posteriors = round_result.posteriors
        outputs: list[list[tuple[int, float]]] = []
        for i in range(part.n_items):
            begin, end = part.item_ptr[i], part.item_ptr[i + 1]
            outputs.append(
                [
                    (int(part.rows[r]), float(posteriors[r]))
                    for r in range(begin, end)
                    if scored[r]
                ]
            )
        return outputs


@dataclass(frozen=True)
class HybridStage2Shard:
    """One hybrid Stage-II dispatch: batched accuracy re-estimation.

    Gathers the shard provenances' supported rows from the transposed CSR
    in one set of array operations and reduces mean scored-triple
    posteriors with ``np.add.reduceat`` — the shard-local equivalent of
    :func:`repro.fusion.kernels.stage2_accuracies`.  Summation runs in
    row-id order rather than canonical triple order, hence tolerance (not
    bitwise) parity.
    """

    state: RoundStateHandle  # names the round's posteriors/scored/active

    def __call__(self, prov_ids: list[int]) -> list[float | None]:
        cols: ColumnarClaims = worker_state(FUSION_COLUMNS_KEY)
        round_state = self.state.load()
        active = round_state["active"]
        ids = np.asarray(prov_ids, dtype=np.int64)
        counts = cols.prov_ptr[ids + 1] - cols.prov_ptr[ids]
        ptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        # Every provenance supports >= 1 row by construction, so no
        # reduceat segment is empty.
        rows = cols.prov_rows[ragged_gather(cols.prov_ptr[ids], counts)]
        scored_here = round_state["scored"][rows]
        contrib = np.where(scored_here, round_state["posteriors"][rows], 0.0)
        sums = np.add.reduceat(contrib, ptr[:-1])
        ns = np.add.reduceat(scored_here.astype(np.float64), ptr[:-1])
        return [
            float(sums[i] / ns[i]) if active[p] and ns[i] > 0 else None
            for i, p in enumerate(ids)
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

    ``batched`` picks the shard family: one batched ``kernel.batch_round``
    call per shard (:class:`HybridStage1Shard`) or the scalar kernel per
    item (:class:`Stage1ColumnarShard`, which also honours the sampling
    bound).  ``state`` is the handle :func:`install_stage1_state` returned
    for this round.  ``key_fn`` resolves the item's canonical key in the
    parent (it never pickles), so shard assignment matches the stable
    crc32 partitioning every other sharded stage uses.
    """
    if batched:
        map_shard = HybridStage1Shard(
            kernel=kernel, state=state, require_repeated=require_repeated
        )
    else:
        map_shard = Stage1ColumnarShard(
            posterior_fn=kernel,
            state=state,
            require_repeated=require_repeated,
            name=name,
            sample_limit=sample_limit,
            seed=seed,
        )
    return ShardedMapJob(
        name=name,
        map_shard=map_shard,
        key_fn=lambda j: cols.items[j].canonical(),
    )


def stage2_job(
    name: str,
    cols: ColumnarClaims,
    state: RoundStateHandle,
    batched: bool,
    sample_limit: int | None = None,
    seed: int = 0,
) -> ShardedMapJob:
    """One Stage-II round as a map-only job over provenance ids.

    ``batched`` picks :class:`HybridStage2Shard` over the scalar
    :class:`Stage2ColumnarShard`; ``state`` is the handle
    :func:`install_stage2_state` returned for this round.
    """
    if batched:
        map_shard = HybridStage2Shard(state=state)
    else:
        map_shard = Stage2ColumnarShard(
            state=state, name=name, sample_limit=sample_limit, seed=seed
        )
    return ShardedMapJob(
        name=name,
        map_shard=map_shard,
        key_fn=lambda p: cols.provenances[p],
    )


def merge_stage1_outputs(
    cols: ColumnarClaims, per_item: list[list[tuple[int, float]]]
) -> RoundPosteriors:
    """Collect the shards' ``(row_id, posterior)`` pairs into row arrays."""
    posteriors = np.zeros(cols.n_rows, dtype=np.float64)
    scored = np.zeros(cols.n_rows, dtype=bool)
    for pairs in per_item:
        for r, value in pairs:
            posteriors[r] = value
            scored[r] = True
    return RoundPosteriors(posteriors=posteriors, scored=scored)
