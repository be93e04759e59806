"""The iterative fusion pipeline of Figure 8.

Stage I maps claims by data item and computes per-item posteriors given
current provenance accuracies; Stage II maps scored claims by provenance
and re-estimates each provenance's accuracy as the mean posterior of its
unique triples; the two stages alternate until the accuracies move less
than the tolerance or the round budget ``R`` is spent; Stage III
deduplicates by triple and emits the result.  Both reducers honour the
sampling bound ``L`` through one per-round claim mask (see below).

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

- **exact kernel** (``serial``) — the posterior's ``exact_round`` and
  :func:`~repro.fusion.kernels.exact_stage2_accuracies`, in-process:
  array kernels over the whole matrix that keep the per-item formulas'
  summation order and libm transcendentals, so every float is the one a
  per-item loop in canonical order would give — the mode every parity
  contract is stated against;
- **batched kernel** (``vectorized``, ``hybrid``) — ``batch_round`` and
  :func:`~repro.fusion.kernels.stage2_accuracies`: a fixed number of
  ``reduceat`` passes (:mod:`repro.fusion.kernels`).  A posterior without
  the forms its mode scores with is a :class:`ConfigError` before any
  work;
- **pooled** (``hybrid``) — the *columnar shuffle*
  (:mod:`repro.fusion.shuffle`): each round publishes Stage I's claim
  CSR and round state as contiguous buffers in one shared-memory
  segment and dispatches Stage I as one
  :class:`~repro.mapreduce.executors.ShardedMapJob` map-only job over
  contiguous item blocks, one per shard, each scoring its slice of the
  CSR with the batched kernel — no ``Triple``/``DataItem`` objects in shard payloads,
  and nothing installed pool-resident.  Stage II is one
  in-process call over every provenance id in every mode — the same
  call, pooled or not.

The dict/MapReduce-engine transcription of the same dataflow that used to
be ``serial`` is the test suite's reference oracle
(``tests/oracle/fusion.py``): ``serial`` must equal it on every output,
iteration order included.

**Parity.**  ``serial`` honours the ``bitwise`` contract; the batched
modes honour the ``tolerance`` contract (1e-9 absolute,
:data:`repro.fusion.base.PARITY_TOLERANCE_ABS`) because batched
summation order differs — and equal each other bit for bit.  Tolerance
parity through an *iterated* θ-filter needs one extra guarantee: the
discrete ``A(S) >= θ`` decisions must not flip on last-ulp drift (POPACCU
parks many accuracies exactly at θ), so the loop recomputes θ-boundary
accuracies with the exact kernels whenever the batched kernels ran
(:data:`THETA_RESCUE_BAND`).  Every run records the contract it honoured
in ``result.diagnostics["parity"]``.

**Sampling lives in one mask builder.**  Each round the parent builds
Stage I's claim keep-mask (:func:`~repro.fusion.shuffle.stage1_keep`:
items with more than ``L`` active claims keep ``L`` drawn in canonical
``(triple, provenance)`` order) and, after Stage I, Stage II's
(:func:`~repro.fusion.shuffle.stage2_keep`: provenances with more than
``L`` scored rows keep ``L`` drawn in canonical triple order); each is
None when no group exceeds ``L``.  Every kernel of the round — exact,
batched, pooled shard, θ-rescue — reads the same masks, so the sampled
subset is a property of the claim *set*, identical in every mode, and
sampling never swaps a kernel.  ``result.diagnostics["sampling"]``
records ``"canonical-order"`` whenever ``L`` is configured.

**Output order.**  ``result.probabilities`` is written in canonical row
order, except that ``serial`` over a records-built matrix writes it in
record-arrival order (:func:`_emission_order`) — the order it has always
had, which order-sensitive float sums downstream (the calibration
metrics) are frozen against.

``result.diagnostics["backend"]`` / ``["backend_used"]`` name the mode
that ran — no mode swaps in another
(:func:`repro.fusion.base.backend_contract`); pooled runs also carry the
executor's own ``diagnostics()`` (worker count, shipped state bytes).

A caller-managed executor can be threaded through ``run_bayesian_fusion``
(and ``Fuser.fuse``) so extraction and fusion share one worker pool — the
``repro-kf pipeline`` subcommand / :func:`repro.endtoend.run_end_to_end`
do exactly that.  Caller-managed executors are not closed here, and only
pooled modes consult one (an in-process mode starts no worker on a pool
it is handed); a pooled mode handed an executor that is not a
:class:`~repro.mapreduce.executors.ParallelExecutor` is a
:class:`ConfigError`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.errors import ConfigError
from repro.fusion import kernels, shuffle
from repro.fusion.base import (
    DEFAULT_ACCURACY,
    FusionConfig,
    FusionResult,
    backend_contract,
    sampling_contract_of,
)
from repro.fusion.observations import ColumnarClaims, FusionInput, ragged_gather
from repro.kb.triples import Triple
from repro.mapreduce.executors import (
    EXECUTION_MODES,
    ExecutionPlan,
    Executor,
    ParallelExecutor,
)
from repro.rng import split_seed

__all__ = ["run_bayesian_fusion"]


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
#: accuracy *recomputed with the exact kernels* (``serial``'s own two
#: stages, over just the items and provenances involved), making every
#: θ-decision bit-identical to serial while the continuous mass of the
#: computation stays batched.  The band must dwarf the batched-vs-exact
#: numeric drift (~1e-12) and be dwarfed by any meaningful accuracy
#: difference; 1e-6 sits comfortably between.
THETA_RESCUE_BAND = 1e-6


def _rescued_accuracies(
    cols: ColumnarClaims,
    kernel,
    round_accuracies: np.ndarray,
    active: np.ndarray,
    scored: np.ndarray,
    boundary: np.ndarray,
    keep1: np.ndarray | None,
    keep2: np.ndarray | None,
) -> np.ndarray:
    """Exact-kernel Stage-II accuracies for the θ-boundary provenances.

    ``round_accuracies`` must be the accuracies the round's Stage I ran
    with (pre-update); ``scored`` the round's scored-row mask and
    ``keep1`` / ``keep2`` its two sampling masks, all pure boolean logic
    and therefore already bitwise across kernels.  Runs the ``serial``
    mode's own two exact stages — Stage I over a slice of just the data
    items behind the boundary provenances' scored rows, Stage II over just
    those provenances — so each value is the float ``serial`` would have
    produced.
    """
    spans = ragged_gather(cols.prov_ptr[boundary], cols.prov_row_counts()[boundary])
    rows = cols.prov_rows[spans]
    part = cols.slice_items(np.unique(cols.row_item[rows[scored[rows]]]))
    exact = kernel.exact_round(
        part, round_accuracies, active, False,
        None if keep1 is None else keep1[part.claims],
    )
    posteriors = np.zeros(cols.n_rows, dtype=np.float64)
    posteriors[part.rows] = exact.posteriors
    return kernels.exact_stage2_accuracies(
        cols, kernels.RoundPosteriors(posteriors, scored), active, keep2, boundary
    )[0]


def run_bayesian_fusion(
    fusion_input: FusionInput,
    config: FusionConfig,
    item_posterior_fn,
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
    it); only pooled modes consult it.  ``item_posterior_fn`` is a kernel
    object (``AccuKernel`` etc.) with an ``exact_round`` form, which
    ``serial`` and the θ-rescue score with; the batched modes also need
    its ``batch_round``.  A missing form raises before any work.
    """
    plan = EXECUTION_MODES[config.backend]
    needed = ("batch_round", "exact_round") if plan.batched else ("exact_round",)
    missing = [form for form in needed if not hasattr(item_posterior_fn, form)]
    if missing:
        raise ConfigError(
            f"backend {config.backend!r} needs a posterior with "
            f"{' and '.join(needed)}; {method_name}'s has no {' or '.join(missing)}"
        )
    return _run_columnar(
        fusion_input.claims(config.granularity), config, item_posterior_fn,
        method_name, gold_labels, track_rounds, plan, executor,
        _emission_order(fusion_input, plan),
    )


def _emission_order(fusion_input: FusionInput, plan: ExecutionPlan) -> np.ndarray | None:
    """The row order Stage III and the round snapshots emit in, as a
    permutation of row ids — None for the columns' canonical row order.

    Output order is part of the bitwise contract: order-sensitive sums
    over ``result.probabilities`` (the calibration deviation) move by an
    ulp with it.  The exact in-process mode emits a records-built matrix
    in record-arrival order; every other mode, and any matrix over bare
    columns, emits canonical rows.
    """
    return fusion_input.arrival_rows() if plan.reference else None


@contextmanager
def _column_executor(
    config: FusionConfig,
    plan: ExecutionPlan,
    executor: Executor | None,
):
    """Where a column-native stage runs.

    Yields None for the in-process modes (a caller's executor is then
    never touched: a pool handed to one stays unstarted); otherwise the
    caller's pool — or one owned (and closed) here.  Nothing is installed
    pool-resident (each round's segment carries Stage I's CSR), so a pool
    the extraction stage started runs fusion without a restart.  A pooled
    mode handed any other executor raises before any work.
    """
    if not plan.pooled:
        yield None
        return
    plan.check_executor(config.backend, executor)
    owns_executor = executor is None
    if owns_executor:
        executor = plan.executor(config.n_workers)
    try:
        yield executor
    finally:
        # Release the last round's shared-memory segment even on a
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
    keep: np.ndarray | None,
    executor: ParallelExecutor | None,
    batched: bool,
    name: str = "fusion.stage1",
) -> kernels.RoundPosteriors:
    """Stage I of one round: a posterior and a scored flag per row.

    In-process (``executor`` None) one kernel call scores the whole
    matrix — ``batch_round`` if ``batched``, else ``exact_round``.
    Sharded, the round's CSR, accuracies, active mask and claim
    keep-mask (:func:`~repro.fusion.shuffle.stage1_keep`) cross once on
    the round-state channel (one shared-memory segment; the shard specs
    carry only the tiny handle) and each shard runs the batched kernel
    over one contiguous item block — the round's one map job, named
    ``name``.
    """
    if executor is not None:
        state = shuffle.install_stage1_state(executor, cols, accuracies, active, keep)
        job = shuffle.stage1_job(name, kernel, state, require_repeated)
        blocks = shuffle.stage1_blocks(cols, executor.n_shards(cols.n_items))
        return shuffle.merge_stage1_outputs(executor.run_map(blocks, job))
    score = kernel.batch_round if batched else kernel.exact_round
    return score(cols, accuracies, active, require_repeated, keep)


def _column_stage2(
    cols: ColumnarClaims,
    round_result: kernels.RoundPosteriors,
    active: np.ndarray,
    keep: np.ndarray | None,
    batched: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage II of one round, in-process in every mode: ``(new_acc,
    updated)`` per provenance id.

    ``updated`` marks the provenances that received an estimate (active
    and supporting at least one scored, kept row); ``new_acc`` is
    meaningful only there.
    """
    update = kernels.stage2_accuracies if batched else kernels.exact_stage2_accuracies
    return update(cols, round_result, active, keep)


def _scored_posteriors(
    cols: ColumnarClaims,
    round_result: kernels.RoundPosteriors,
    order: np.ndarray | None = None,
) -> dict[Triple, float]:
    """The scored rows of one Stage-I result as ``{triple: posterior}``,
    in ``order`` (:func:`_emission_order`); a posterior outside [0, 1]
    raises, naming its triple."""
    if order is None:
        rows = np.flatnonzero(round_result.scored)
    else:
        rows = order[round_result.scored[order]]
    values = round_result.posteriors[rows]
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
    if bad.size:
        raise ConfigError(
            f"probability out of range for "
            f"{cols.triples[rows[bad[0]]].canonical()}: {float(values[bad[0]])}"
        )
    return dict(zip(map(cols.triples.__getitem__, rows.tolist()), values.tolist()))


def _run_columnar(
    cols: ColumnarClaims,
    config: FusionConfig,
    kernel,
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
    (Stage III, one ``dict(zip(...))`` over the emitted rows), so no dict
    claim view is ever required — which is what
    lets the out-of-core path fuse straight from mapped columns.  ``plan``
    fixes where Stage I runs and which kernel scores both stages,
    ``order`` (:func:`_emission_order`) the order the dict outputs are
    written in; nothing else differs between backends.
    """
    n_provs = len(cols.provenances)
    accuracies = np.full(n_provs, DEFAULT_ACCURACY, dtype=np.float64)
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
    with _column_executor(config, plan, executor) as where:
        for round_index in range(config.max_rounds):
            active = active_mask(round_index)
            require_repeated = config.filter_by_coverage and round_index == 0
            keep1 = shuffle.stage1_keep(
                cols, active, "fusion.stage1", config.sample_limit, config.seed
            )
            round_result = _column_stage1(
                cols, kernel, accuracies, active, require_repeated, keep1, where,
                plan.batched,
            )
            keep2 = shuffle.stage2_keep(
                cols, round_result.scored, active, config.sample_limit, config.seed
            )
            new_acc, updated = _column_stage2(
                cols, round_result, active, keep2, plan.batched
            )
            if plan.batched and config.min_accuracy is not None:
                # Keep every θ-filter decision bitwise: see THETA_RESCUE_BAND.
                boundary = np.flatnonzero(
                    updated
                    & (np.abs(new_acc - config.min_accuracy) <= THETA_RESCUE_BAND)
                )
                if boundary.size:
                    new_acc[boundary] = _rescued_accuracies(
                        cols, kernel, accuracies, active, round_result.scored,
                        boundary, keep1, keep2,
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
    # accuracy of its own provenances, summed left to right over its claim
    # span — provenance ids ascending, which *is* ``sorted(provs)`` order
    # because the provenance vocabulary is sorted; otherwise the row is
    # *unpredicted*.
    final = round_result
    if config.min_accuracy is not None:
        final = kernels.RoundPosteriors(
            posteriors=round_result.posteriors.copy(),
            scored=np.ones(cols.n_rows, dtype=bool),
        )
        rows = np.flatnonzero(~round_result.scored)
        counts = cols.row_ptr[rows + 1] - cols.row_ptr[rows]
        claims = ragged_gather(cols.row_ptr[rows], counts)
        final.posteriors[rows] = (
            kernels.ordered_segment_sums(accuracies[cols.claim_prov[claims]], counts)
            / counts
        )

    result = FusionResult(
        method=method_name,
        probabilities=_scored_posteriors(cols, final, order),
        unpredicted=set(
            map(cols.triples.__getitem__, np.flatnonzero(~final.scored).tolist())
        ),
        accuracies=dict(zip(cols.provenances, accuracies.tolist())),
        rounds=rounds_run,
        converged=converged,
        diagnostics={
            "n_items": cols.n_items,
            "n_provenances": n_provs,
            "n_claims": cols.n_claims,
            "gold_initialized": gold_initialized,
            "n_active_final": int(active_mask(rounds_run).sum()),
            **backend_contract(config.backend),
            "sampling": sampling_contract_of(config),
            **executor_diagnostics,
        },
    )
    if track_rounds:
        result.diagnostics["round_probabilities"] = round_probabilities
    return result
