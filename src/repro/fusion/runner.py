"""The iterative fusion pipeline of Figure 8.

Stage I maps claims by data item and computes per-item posteriors given
current provenance accuracies; Stage II maps scored claims by provenance
and re-estimates each provenance's accuracy as the mean posterior of its
unique triples; the two stages alternate until the accuracies move less
than the tolerance or the round budget ``R`` is spent; Stage III
deduplicates by triple and emits the result.  Both reducers honour the
sampling bound ``L``.

The §4.3 refinements plug in here:

- **coverage filter** (refinement I): in round 1 only data items where
  some triple has ≥2 provenances are scored; provenances that never
  receive a re-evaluated accuracy keep the default and are ignored from
  round 2 on.  Triples whose items never get scored end up *unpredicted*.
- **accuracy filter** (refinement III, θ): provenances with accuracy < θ
  are ignored; a triple whose item loses every provenance falls back to
  the mean accuracy of its own provenances.
- **gold initialisation** (refinement IV): provenance accuracies start at
  the fraction of their LCWA-labelled triples that are true (for a
  deterministic ``gold_sample_rate`` subsample), instead of the default.

Execution modes (``FusionConfig.backend``; the README's "Execution
backends" table has every spelling and its contract).  Every mode runs
**one column-native round loop** (:func:`_run_columnar`: round state is
arrays over the columnar claim index, dicts are built once in Stage III)
under an :class:`~repro.mapreduce.executors.ExecutionPlan` whose two
fields are the only thing that differs between them:

- **pooled** — the *columnar shuffle* (:mod:`repro.fusion.shuffle`): the
  claim columns are installed pool-resident once per pool, each round
  dispatches both stages as :class:`~repro.mapreduce.executors.ShardedMapJob`
  map-only jobs over integer item/provenance ids, and round state crosses
  as contiguous float64/bool buffers — no ``Triple``/``DataItem`` objects
  in shard payloads.  Not pooled, each stage is one in-process call over
  every item / provenance id;
- **scalar kernel** — one posterior call per data item and one
  canonical-order mean per provenance
  (:func:`~repro.fusion.shuffle.scalar_stage1` /
  :func:`~repro.fusion.shuffle.scalar_stage2`, the only scalar stage
  bodies in ``src/``).  In-process that is ``serial``, the mode every
  parity contract is stated against; pool workers run the identical
  bodies, bit-identical to it on fork *and* spawn, at any worker count.
  Reducer-input sampling (``L``) is part of these bodies: sampled subsets
  are defined in canonical order (see below), which is the order the
  columns enumerate values in;
- **batched kernel** — each stage is a fixed number of numpy array
  operations (:mod:`repro.fusion.kernels`) over the whole matrix or over
  each shard's slice of it (:class:`~repro.fusion.shuffle.HybridStage1Shard`),
  skipping the per-item Python loop.  Requires ``item_posterior_fn`` to
  carry a ``batch_round`` method (the built-in kernels do) and no
  sampling pressure (the batched kernels score whole rounds and cannot
  subset per item); otherwise the scalar kernel runs *in the same place*
  (:func:`_runnable_plan`) — in-process that is ``serial``, pooled it is
  the scalar shards.

The dict/MapReduce-engine transcription of the same dataflow that used to
be ``serial`` is the test suite's reference oracle
(``tests/oracle/fusion.py``): ``serial`` must equal it on every output,
iteration order included.

**Parity.**  Scalar-kernel runs honour the ``bitwise`` contract
(identical floats, any worker count/start method); runs where a batched
kernel actually ran honour the ``tolerance`` contract (1e-9 absolute,
:data:`repro.fusion.base.PARITY_TOLERANCE_ABS`) because batched
summation order differs.  Tolerance parity through an *iterated* θ-filter
needs one extra guarantee: the discrete ``A(S) >= θ`` decisions must not
flip on last-ulp drift (POPACCU parks many accuracies exactly at θ), so
the loop recomputes θ-boundary accuracies with the scalar stage bodies
whenever the batched kernels ran (:data:`THETA_RESCUE_BAND`).
Every run records the contract it honoured in
``result.diagnostics["parity"]``.

**Canonical-order sampling.**  Stage-I samples a data item's claims in
``(triple, provenance)`` canonical order; Stage-II samples a provenance's
scored triples in canonical triple order.  The sampled subset is
therefore a property of the key's value *set*, not of the order records
arrived in — and the columnar layout enumerates values in exactly that
order, so the draw is positional over the columns wherever the scalar
bodies run.  ``result.diagnostics["sampling"]`` records
``"canonical-order"`` whenever ``L`` is configured.

**Output order.**  ``result.probabilities`` is written in canonical row
order, except that ``serial`` over a records-built matrix writes it in
record-arrival order (:func:`_emission_order`) — the order it has always
had, which order-sensitive float sums downstream (the calibration
metrics) are frozen against.

``result.diagnostics["backend"]`` records what was requested and
``["backend_used"]`` what actually ran
(:func:`repro.fusion.base.backend_contract`); pooled runs also carry the
executor's own ``diagnostics()`` (round-state channel, worker count,
``fallbacks_*`` counters — jobs that ran in-process because dispatch could
not pay off, or because the posterior kernel would not pickle).

A caller-managed executor can be threaded through ``run_bayesian_fusion``
(and ``Fuser.fuse``) so extraction and fusion share one worker pool — the
``repro-kf pipeline`` subcommand / :func:`repro.endtoend.run_end_to_end`
do exactly that.  Caller-managed executors are not closed here, and only
pooled modes consult one (an in-process mode starts no worker on a pool
it is handed).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Callable

import numpy as np

from repro.fusion import kernels, shuffle
from repro.fusion.base import (
    FusionConfig,
    FusionResult,
    backend_contract,
    sampling_contract_of,
)
from repro.fusion.observations import (
    ClaimMatrix,
    ColumnarClaims,
    FusionInput,
    ProvKey,
)
from repro.kb.triples import Triple
from repro.mapreduce.executors import EXECUTION_MODES, ExecutionPlan, Executor
from repro.rng import split_seed

__all__ = ["run_bayesian_fusion", "sampling_would_engage"]

ItemPosteriorFn = Callable[
    [dict[Triple, set[ProvKey]], dict[ProvKey, float]], dict[Triple, float]
]


def _gold_subsample(
    gold_labels: dict[Triple, bool], rate: float, seed: int
) -> dict[Triple, bool]:
    """Deterministic per-triple subsample of the gold standard."""
    if rate >= 1.0:
        return gold_labels
    sampled: dict[Triple, bool] = {}
    threshold = int(rate * 1_000_000)
    for triple, label in gold_labels.items():
        if split_seed(seed, "goldsample", triple.canonical()) % 1_000_000 < threshold:
            sampled[triple] = label
    return sampled


#: Half-width of the θ-boundary rescue band used by the tolerance-parity
#: backends (vectorized / hybrid).  The accuracy filter ``A(S) >= θ`` is a
#: *discrete* decision over a continuous estimate, and the POPACCU valleys
#: park many provenance accuracies exactly at θ = 0.5 — so a last-ulp
#: summation difference would flip filter membership and snowball into
#: O(1) output divergence over the rounds.  Any provenance whose batched
#: Stage-II estimate lands within this band of θ therefore has its
#: accuracy *recomputed with the scalar stage bodies* (canonical-order
#: sums over scalar per-item posteriors), making every θ-decision
#: bit-identical to serial while the continuous mass of the computation
#: stays batched.  The band must dwarf the batched-vs-scalar
#: numeric drift (~1e-12) and be dwarfed by any meaningful accuracy
#: difference; 1e-6 sits comfortably between.
THETA_RESCUE_BAND = 1e-6


def _rescued_accuracies(
    cols: ColumnarClaims,
    kernel: ItemPosteriorFn,
    round_accuracies: np.ndarray,
    active: np.ndarray,
    scored: np.ndarray,
    boundary: np.ndarray,
) -> list[float | None]:
    """Scalar-kernel Stage-II accuracies for the θ-boundary provenances.

    ``round_accuracies`` must be the accuracies the round's Stage I ran
    with (pre-update); ``scored`` the round's scored-row mask, which is
    pure boolean logic and therefore already bitwise across kernels.
    Runs the scalar mode's own two stage bodies — Stage I over just the
    data items behind the boundary provenances' scored rows, Stage II
    over just those provenances — so each value is the float the scalar
    mode would have produced.  (Sampling cannot be engaged here: the
    batched kernels never run under sampling pressure.)
    """
    rows = np.concatenate(
        [cols.prov_rows[cols.prov_ptr[p] : cols.prov_ptr[p + 1]] for p in boundary]
    )
    items = np.unique(cols.row_item[rows[scored[rows]]])
    exact = shuffle.merge_stage1_outputs(
        cols,
        shuffle.scalar_stage1(cols, kernel, round_accuracies, active, False, items),
    )
    return shuffle.scalar_stage2(cols, exact.posteriors, scored, active, boundary)


def sampling_would_engage(
    cols: ColumnarClaims, config: FusionConfig, include_stage2: bool = True
) -> bool:
    """True when some reducer group could exceed the sampling bound L.

    ``include_stage2=False`` restricts the check to the item-keyed Stage-I
    groups, for dataflows (VOTE) whose only sampled job groups by item.
    """
    if config.sample_limit is None:
        return False
    if cols.n_rows == 0:
        return False
    if cols.item_claim_counts().max(initial=0) > config.sample_limit:
        return True
    return include_stage2 and bool(
        cols.prov_row_counts().max(initial=0) > config.sample_limit
    )


def run_bayesian_fusion(
    fusion_input: FusionInput,
    config: FusionConfig,
    item_posterior_fn: ItemPosteriorFn,
    method_name: str,
    gold_labels: dict[Triple, bool] | None = None,
    track_rounds: bool = False,
    executor: Executor | None = None,
) -> FusionResult:
    """Run the full iterative pipeline and return a :class:`FusionResult`.

    ``track_rounds=True`` stores the per-round probability snapshots in
    ``result.diagnostics["round_probabilities"]`` (used by the Figure 14
    experiment).  ``executor`` supplies a caller-managed executor — shared
    with other pipeline stages and *not* closed here (the caller closes
    it); only pooled modes consult it.
    """
    matrix = fusion_input.claims(config.granularity)
    plan, cols = _runnable_plan(config, matrix, item_posterior_fn)
    return _run_columnar(
        cols, config, item_posterior_fn, method_name, gold_labels,
        track_rounds, plan, executor, _emission_order(matrix, plan),
    )


def _runnable_plan(
    config: FusionConfig, matrix: ClaimMatrix, kernel, include_stage2: bool = True
) -> tuple[ExecutionPlan, ColumnarClaims]:
    """The mode that will actually run, and the claim columns it runs over.

    That is ``config.backend``'s plan, minus the batched kernel when it
    cannot engage (no ``batch_round`` form, or sampling pressure —
    ``include_stage2`` is forwarded to :func:`sampling_would_engage`): the
    scalar kernel then runs in the same place.
    """
    plan = EXECUTION_MODES[config.backend]
    cols = matrix.columnar()
    batched = (
        plan.batched
        and hasattr(kernel, "batch_round")
        and not sampling_would_engage(cols, config, include_stage2)
    )
    return replace(plan, batched=batched), cols


def _emission_order(matrix: ClaimMatrix, plan: ExecutionPlan) -> np.ndarray | None:
    """The row order Stage III and the round snapshots emit in, as a
    permutation of row ids — None for the columns' canonical row order.

    Output order is part of the bitwise contract: order-sensitive sums
    over ``result.probabilities`` (the calibration deviation) move by an
    ulp with it.  The scalar in-process mode emits a records-built matrix
    in record-arrival order; every other mode, and any matrix over bare
    columns, emits canonical rows.
    """
    return matrix.arrival_rows() if plan.reference else None


@contextmanager
def _column_executor(
    cols: ColumnarClaims,
    config: FusionConfig,
    plan: ExecutionPlan,
    executor: Executor | None,
):
    """Where a column-native stage runs.

    Yields None for the in-process modes (a caller's executor is then
    never touched: a pool handed to one stays unstarted); otherwise the
    caller's executor — or one owned (and closed) here — with the claim
    columns installed pool-resident.
    """
    if not plan.pooled:
        yield None
        return
    owns_executor = executor is None
    if owns_executor:
        executor = plan.executor(config.n_workers)
    try:
        shuffle.install_fusion_columns(executor, cols)
        yield executor
    finally:
        # Release the round's shared-memory segment even on a
        # caller-managed executor (its close() would also do this, but a
        # shared executor may outlive the fusion stage by a long time).
        shuffle.uninstall_fusion_round_state(executor)
        if owns_executor:
            executor.close()


def _column_stage1(
    cols: ColumnarClaims,
    kernel,
    accuracies: np.ndarray,
    active: np.ndarray,
    require_repeated: bool,
    config: FusionConfig,
    executor: Executor | None,
    batched: bool,
    name: str = "fusion.stage1",
) -> kernels.RoundPosteriors:
    """Stage I of one round: a posterior and a scored flag per row.

    In-process (``executor`` None) the batched kernel scores the whole
    matrix in one call and the scalar kernel walks every item id.
    Sharded, the round's accuracies and active mask cross once on the
    round-state channel (shared-memory segments where available; the
    shard specs carry only the tiny handle) and each shard of item ids
    runs the batched or the scalar kernel.  ``name`` seeds the scalar
    kernel's canonical-order sampling draw, so a method must use one name
    in every mode for sampled subsets to stay bitwise.
    """
    if executor is None and batched:
        return kernel.batch_round(cols, accuracies, active, require_repeated)
    if executor is None:
        per_item = shuffle.scalar_stage1(
            cols, kernel, accuracies, active, require_repeated,
            range(cols.n_items), name, config.sample_limit, config.seed,
        )
    else:
        state = shuffle.install_stage1_state(executor, accuracies, active)
        job = shuffle.stage1_job(
            name,
            cols,
            kernel,
            state,
            require_repeated,
            batched,
            sample_limit=config.sample_limit,
            seed=config.seed,
        )
        per_item = executor.run_map(range(cols.n_items), job)
    return shuffle.merge_stage1_outputs(cols, per_item)


def _column_stage2(
    cols: ColumnarClaims,
    round_result: kernels.RoundPosteriors,
    active: np.ndarray,
    config: FusionConfig,
    executor: Executor | None,
    batched: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage II of one round: ``(new_acc, updated)`` per provenance id.

    ``updated`` marks the provenances that received an estimate (active
    and supporting at least one scored row); ``new_acc`` is meaningful
    only there.
    """
    if executor is None and batched:
        return kernels.stage2_accuracies(cols, round_result, active)
    prov_ids = range(len(cols.provenances))
    if executor is None:
        outputs = shuffle.scalar_stage2(
            cols, round_result.posteriors, round_result.scored, active,
            prov_ids, "fusion.stage2", config.sample_limit, config.seed,
        )
    else:
        state = shuffle.install_stage2_state(
            executor, round_result.posteriors, round_result.scored, active
        )
        job = shuffle.stage2_job(
            "fusion.stage2",
            cols,
            state,
            batched,
            sample_limit=config.sample_limit,
            seed=config.seed,
        )
        outputs = executor.run_map(prov_ids, job)
    updated = np.array([value is not None for value in outputs], dtype=bool)
    new_acc = np.array(
        [0.0 if value is None else value for value in outputs], dtype=np.float64
    )
    return new_acc, updated


def _scored_posteriors(
    cols: ColumnarClaims,
    round_result: kernels.RoundPosteriors,
    order: np.ndarray | None = None,
) -> dict[Triple, float]:
    """The scored rows of one Stage-I result as ``{triple: posterior}``,
    in ``order`` (:func:`_emission_order`)."""
    if order is None:
        rows = np.flatnonzero(round_result.scored)
    else:
        rows = order[round_result.scored[order]]
    return {
        cols.triples[r]: posterior
        for r, posterior in zip(rows.tolist(), round_result.posteriors[rows].tolist())
    }


def _run_columnar(
    cols: ColumnarClaims,
    config: FusionConfig,
    kernel: ItemPosteriorFn,
    method_name: str,
    gold_labels: dict[Triple, bool] | None,
    track_rounds: bool,
    plan: ExecutionPlan,
    executor: Executor | None,
    order: np.ndarray | None,
) -> FusionResult:
    """The column-native round loop behind every mode.

    Round state is arrays only: accuracies in a float64 array indexed by
    provenance id, posteriors and the scored mask indexed by row (= unique
    triple).  The Python dict outputs are materialised once at the end
    (Stage III), so no dict claim view is ever required — which is what
    lets the out-of-core path fuse straight from mapped columns.  ``plan``
    (:func:`_runnable_plan`) fixes where the two per-round stage calls run
    and which kernel scores them, ``order`` (:func:`_emission_order`) the
    order the dict outputs are written in; nothing else differs between
    backends.
    """
    n_provs = len(cols.provenances)
    accuracies = np.full(n_provs, config.default_accuracy, dtype=np.float64)
    evaluated = np.zeros(n_provs, dtype=bool)

    gold_initialized = 0
    if gold_labels:
        sampled = _gold_subsample(gold_labels, config.gold_sample_rate, config.seed)
        # One dict probe per row, then integer counts per provenance over
        # the transposed CSR (n_true / n_labelled is the labels' mean).
        row_label = np.fromiter(
            (-1 if label is None else label for label in map(sampled.get, cols.triples)),
            np.int8,
            cols.n_rows,
        )
        claim_label = row_label[cols.prov_rows]
        claim_prov = np.repeat(np.arange(n_provs), np.diff(cols.prov_ptr))
        n_labelled = np.bincount(claim_prov[claim_label >= 0], minlength=n_provs)
        n_true = np.bincount(claim_prov[claim_label == 1], minlength=n_provs)
        evaluated = n_labelled > 0
        accuracies[evaluated] = n_true[evaluated] / n_labelled[evaluated]
        gold_initialized = int(evaluated.sum())

    def active_mask(round_index: int) -> np.ndarray:
        active = np.ones(n_provs, dtype=bool)
        if config.filter_by_coverage and round_index > 0:
            active &= evaluated
        if config.min_accuracy is not None:
            active &= accuracies >= config.min_accuracy
        return active

    round_result = kernels.RoundPosteriors(
        posteriors=np.zeros(cols.n_rows, dtype=np.float64),
        scored=np.zeros(cols.n_rows, dtype=bool),
    )
    round_probabilities: list[dict[Triple, float]] = []
    rounds_run = 0
    converged = False
    with _column_executor(cols, config, plan, executor) as where:
        for round_index in range(config.max_rounds):
            active = active_mask(round_index)
            require_repeated = config.filter_by_coverage and round_index == 0
            round_result = _column_stage1(
                cols, kernel, accuracies, active, require_repeated, config, where,
                plan.batched,
            )
            new_acc, updated = _column_stage2(
                cols, round_result, active, config, where, plan.batched
            )
            if plan.batched and config.min_accuracy is not None:
                # Keep every θ-filter decision bitwise: see THETA_RESCUE_BAND.
                # (The scalar kernel is already exact, and may have sampled.)
                boundary = np.flatnonzero(
                    updated
                    & (np.abs(new_acc - config.min_accuracy) <= THETA_RESCUE_BAND)
                )
                if boundary.size:
                    new_acc[boundary] = _rescued_accuracies(
                        cols, kernel, accuracies, active, round_result.scored, boundary
                    )
            delta = (
                float(np.max(np.abs(new_acc - accuracies)[updated]))
                if updated.any()
                else 0.0
            )
            accuracies = np.where(updated, new_acc, accuracies)
            evaluated |= updated
            rounds_run = round_index + 1
            if track_rounds:
                round_probabilities.append(
                    _scored_posteriors(cols, round_result, order)
                )
            if delta < config.convergence_tol:
                converged = True
                break
        executor_diagnostics = where.diagnostics() if plan.pooled else {}

    # Stage III: rows are already unique triples.  Scored rows keep their
    # posterior; under the θ-filter an unscored row falls back to the mean
    # accuracy of its own provenances — a row's claim span lists provenance
    # ids ascending, which *is* ``sorted(provs)`` order because the
    # provenance vocabulary is sorted, so the mean is a canonical-order
    # sum; otherwise the row is *unpredicted*.
    probabilities: dict[Triple, float] = {}
    unpredicted: set[Triple] = set()
    final_accuracies = accuracies.tolist()
    posteriors = round_result.posteriors.tolist()
    scored = round_result.scored.tolist()
    triples, claim_prov, row_ptr = cols.triples, cols.claim_prov, cols.row_ptr
    for r in range(cols.n_rows) if order is None else order.tolist():
        triple = triples[r]
        if scored[r]:
            probabilities[triple] = posteriors[r]
        elif config.min_accuracy is not None:
            prov_ids = claim_prov[row_ptr[r] : row_ptr[r + 1]].tolist()
            probabilities[triple] = sum(
                final_accuracies[p] for p in prov_ids
            ) / len(prov_ids)
        else:
            unpredicted.add(triple)

    result = FusionResult(
        method=method_name,
        probabilities=probabilities,
        unpredicted=unpredicted,
        accuracies=dict(zip(cols.provenances, final_accuracies)),
        rounds=rounds_run,
        converged=converged,
        diagnostics={
            "n_items": cols.n_items,
            "n_provenances": n_provs,
            "n_claims": cols.n_claims,
            "gold_initialized": gold_initialized,
            "n_active_final": int(active_mask(rounds_run).sum()),
            **backend_contract(config.backend, plan),
            "sampling": sampling_contract_of(config),
            **executor_diagnostics,
        },
    )
    if track_rounds:
        result.diagnostics["round_probabilities"] = round_probabilities
    result.validate()
    return result
