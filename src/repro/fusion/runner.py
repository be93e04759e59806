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
backends" table has every spelling and its contract).  The scalar
in-process mode is the reference every parity contract is stated against:
per-item posteriors over the dict claim views, through the in-process
MapReduce engine (:func:`_run_mapreduce`).  Every other mode runs **one
column-native round loop** (:func:`_run_columnar`: round state is arrays
over the columnar claim index, dicts are built once in Stage III) under an
:class:`~repro.mapreduce.executors.ExecutionPlan` whose two fields are the
only thing that differs between them:

- **pooled** — the *columnar shuffle* (:mod:`repro.fusion.shuffle`): the
  claim columns are installed pool-resident once per pool, each round
  dispatches both stages as :class:`~repro.mapreduce.executors.ShardedMapJob`
  map-only jobs over integer item/provenance ids, and round state crosses
  as contiguous float64/bool buffers — no ``Triple``/``DataItem`` objects
  in shard payloads.  Not pooled, each stage is one call over the whole
  matrix;
- **scalar kernel** — workers run the identical scalar kernels,
  bit-identical to the reference on fork *and* spawn, at any worker count.
  Reducer-input sampling (``L``) does not degrade this path: sampled
  subsets are defined in canonical order (see below) and the shard
  workers re-draw them identically against the resident columns;
- **batched kernel** — each stage is a fixed number of numpy array
  operations (:mod:`repro.fusion.kernels`) over the whole matrix or over
  each shard's slice of it (:class:`~repro.fusion.shuffle.HybridStage1Shard`),
  skipping the per-item Python loop.  Requires ``item_posterior_fn`` to
  carry a ``batch_round`` method (the built-in kernels do) and no
  sampling pressure (the batched kernels score whole rounds and cannot
  subset per item); otherwise the scalar kernel runs *in the same place*
  (:func:`_runnable_plan`) — in-process that is the reference itself,
  pooled it is the scalar shards, never the reference.

**Parity.**  Scalar-kernel runs honour the ``bitwise`` contract
(identical floats, any worker count/start method); runs where a batched
kernel actually ran honour the ``tolerance`` contract (1e-9 absolute,
:data:`repro.fusion.base.PARITY_TOLERANCE_ABS`) because batched
summation order differs.  Tolerance parity through an *iterated* θ-filter
needs one extra guarantee: the discrete ``A(S) >= θ`` decisions must not
flip on last-ulp drift (POPACCU parks many accuracies exactly at θ), so
the loop recomputes θ-boundary accuracies through the exact serial
dataflow whenever the batched kernels ran (:data:`THETA_RESCUE_BAND`).
Every run records the contract it honoured in
``result.diagnostics["parity"]``.

**Canonical-order sampling.**  Stage-I samples a data item's claims in
``(triple, provenance)`` canonical order; Stage-II samples a provenance's
scored triples in canonical triple order (the jobs' ``sample_key``).  The
sampled subset is therefore a property of the key's value *set*, not the
scalar dataflow's arrival order — which is what lets the parallel shards
(whose columnar layout enumerates values in exactly that order) reproduce
it bit-for-bit.  ``result.diagnostics["sampling"]`` records
``"canonical-order"`` whenever ``L`` is configured.

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
pooled modes consult one (the reference's keyed engine is in-process: no
worker is started on its behalf).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.fusion import kernels, shuffle
from repro.fusion.base import (
    FusionConfig,
    FusionResult,
    backend_contract,
    sampling_contract_of,
)
from repro.fusion.observations import ColumnarClaims, FusionInput, ProvKey
from repro.kb.triples import Triple
from repro.mapreduce.engine import MapReduceEngine, MapReduceJob
from repro.mapreduce.executors import EXECUTION_MODES, ExecutionPlan, Executor
from repro.rng import split_seed

__all__ = [
    "run_bayesian_fusion",
    "sampling_would_engage",
    "stage1_mapper",
    "stage1_sample_key",
    "stage2_sample_key",
    "Stage1Reducer",
]

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


def stage1_mapper(claim):
    """Fan one ``(item, triple, prov)`` claim out under its item key.

    Shared by the Bayesian runner and VOTE — the Stage-I dataflow keys
    claims identically everywhere.
    """
    item, triple, prov = claim
    return [(item.canonical(), (triple, prov))]


def stage1_sample_key(value):
    """Canonical order of one Stage-I value: ``(triple, provenance)``.

    Matches the columnar claim layout (triples canonically sorted within
    the item, provenances sorted within each row), so shard workers
    re-draw identical sampled subsets against the resident columns.
    """
    triple, prov = value
    return (triple.canonical(), prov)


def stage2_sample_key(value):
    """Canonical order of one Stage-II value: the triple.

    The same order the Stage-II reducer sums in (``sorted(seen)``), and
    the resident columns' ``canonical_rank`` — sampling and summation
    stay aligned across backends.
    """
    return value[0].canonical()


@dataclass(frozen=True, eq=False)
class Stage1Reducer:
    """Per-item posterior reducer of the serial reference (and of VOTE's)."""

    posterior_fn: ItemPosteriorFn
    accuracies: dict[ProvKey, float]
    require_repeated: bool

    def __call__(self, _item_key, values):
        claims: dict[Triple, set[ProvKey]] = {}
        for triple, prov in values:
            claims.setdefault(triple, set()).add(prov)
        if self.require_repeated and not any(len(p) >= 2 for p in claims.values()):
            return []
        return list(self.posterior_fn(claims, self.accuracies).items())


def _stage2_reducer(prov, values):
    """Mean posterior of a provenance's (deduplicated) scored triples.

    Summed in canonical triple order (not insertion order) so the result
    is hash-seed independent and matches the columnar shard workers
    bit-for-bit.
    """
    seen: dict[Triple, float] = {}
    for triple, probability in values:
        seen[triple] = probability
    if not seen:
        return []
    return [(prov, sum(seen[t] for t in sorted(seen)) / len(seen))]


def _stage1(
    engine: MapReduceEngine,
    matrix,
    active: set[ProvKey],
    accuracies: dict[ProvKey, float],
    item_posterior_fn: ItemPosteriorFn,
    config: FusionConfig,
    require_repeated: bool,
) -> dict[Triple, float]:
    """Map claims by data item; reduce to per-triple posteriors."""
    claim_stream = [
        (item, triple, prov)
        for item, triple_map in matrix.items.items()
        for triple, provs in triple_map.items()
        for prov in sorted(provs)
        if prov in active
    ]
    job = MapReduceJob(
        name="fusion.stage1",
        mapper=stage1_mapper,
        reducer=Stage1Reducer(item_posterior_fn, accuracies, require_repeated),
        sample_limit=config.sample_limit,
        seed=config.seed,
        sample_key=stage1_sample_key,
    )
    return dict(engine.run(claim_stream, job))


def _stage2(
    engine: MapReduceEngine,
    matrix,
    active: set[ProvKey],
    posteriors: dict[Triple, float],
    config: FusionConfig,
) -> dict[ProvKey, float]:
    """Map scored triples by provenance; reduce to accuracy estimates."""

    def mapper(pair):
        prov, triple = pair
        return [(prov, (triple, posteriors[triple]))]

    pairs = [
        (prov, triple)
        for prov, triples in matrix.prov_triples.items()
        if prov in active
        for triple in triples
        if triple in posteriors
    ]
    job = MapReduceJob(
        name="fusion.stage2",
        mapper=mapper,
        reducer=_stage2_reducer,
        sample_limit=config.sample_limit,
        seed=config.seed,
        sample_key=stage2_sample_key,
    )
    return dict(engine.run(pairs, job))


#: Half-width of the θ-boundary rescue band used by the tolerance-parity
#: backends (vectorized / hybrid).  The accuracy filter ``A(S) >= θ`` is a
#: *discrete* decision over a continuous estimate, and the POPACCU valleys
#: park many provenance accuracies exactly at θ = 0.5 — so a last-ulp
#: summation difference would flip filter membership and snowball into
#: O(1) output divergence over the rounds.  Any provenance whose batched
#: Stage-II estimate lands within this band of θ therefore has its
#: accuracy *recomputed through the exact serial scalar dataflow*
#: (canonical-order sums over scalar per-item posteriors), making every
#: θ-decision bit-identical to serial while the continuous mass of the
#: computation stays batched.  The band must dwarf the batched-vs-scalar
#: numeric drift (~1e-12) and be dwarfed by any meaningful accuracy
#: difference; 1e-6 sits comfortably between.
THETA_RESCUE_BAND = 1e-6


def _scalar_item_posteriors(
    cols: ColumnarClaims,
    posterior_fn: ItemPosteriorFn,
    accuracy_of: dict[ProvKey, float],
    active: np.ndarray,
    item: int,
) -> dict[Triple, float]:
    """One item's posteriors through the exact serial scalar dataflow."""
    claims: dict[Triple, set[ProvKey]] = {}
    for r in range(cols.item_ptr[item], cols.item_ptr[item + 1]):
        provs = {
            cols.provenances[p]
            for p in cols.claim_prov[cols.row_ptr[r] : cols.row_ptr[r + 1]]
            if active[p]
        }
        if provs:
            claims[cols.triples[r]] = provs
    return posterior_fn(claims, accuracy_of) if claims else {}


def _exact_boundary_accuracies(
    cols: ColumnarClaims,
    posterior_fn: ItemPosteriorFn,
    round_accuracies: np.ndarray,
    active: np.ndarray,
    scored: np.ndarray,
    boundary_provs,
) -> dict[int, float]:
    """Serial-exact Stage-II accuracies for the θ-boundary provenances.

    ``round_accuracies`` must be the accuracies the round's Stage I ran
    with (pre-update); ``scored`` the round's scored-row mask, which is
    pure boolean logic and therefore already bitwise across backends.
    Reproduces the serial reducer exactly: scalar per-item posteriors,
    deduplicated per triple, summed in canonical order.
    """
    accuracy_of: dict[ProvKey, float] = dict(
        zip(cols.provenances, round_accuracies.tolist())
    )
    rank = cols.canonical_rank()
    item_cache: dict[int, dict[Triple, float]] = {}
    exact: dict[int, float] = {}
    for p in boundary_provs:
        rows = cols.prov_rows[cols.prov_ptr[p] : cols.prov_ptr[p + 1]]
        rows = rows[scored[rows]]
        if rows.size == 0:
            continue
        ordered = rows[np.argsort(rank[rows], kind="stable")]
        total = 0.0
        for r in ordered.tolist():
            item = int(cols.row_item[r])
            posteriors = item_cache.get(item)
            if posteriors is None:
                posteriors = _scalar_item_posteriors(
                    cols, posterior_fn, accuracy_of, active, item
                )
                item_cache[item] = posteriors
            total += posteriors[cols.triples[r]]
        exact[int(p)] = total / int(ordered.size)
    return exact


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
    if plan.reference:
        return _run_mapreduce(
            matrix, config, item_posterior_fn, method_name, gold_labels,
            track_rounds, plan,
        )
    return _run_columnar(
        cols, config, item_posterior_fn, method_name, gold_labels,
        track_rounds, plan, executor,
    )


def _run_mapreduce(
    matrix,
    config: FusionConfig,
    item_posterior_fn: ItemPosteriorFn,
    method_name: str,
    gold_labels: dict[Triple, bool] | None,
    track_rounds: bool,
    ran: ExecutionPlan,
) -> FusionResult:
    """The scalar engine path (the serial reference)."""
    engine = MapReduceEngine()
    default = config.default_accuracy

    all_provs = set(matrix.prov_triples)
    accuracies: dict[ProvKey, float] = {prov: default for prov in sorted(all_provs)}
    evaluated: set[ProvKey] = set()

    gold_initialized = 0
    if gold_labels:
        sampled = _gold_subsample(gold_labels, config.gold_sample_rate, config.seed)
        for prov, triples in matrix.prov_triples.items():
            labels = [sampled[t] for t in triples if t in sampled]
            if labels:
                accuracies[prov] = sum(labels) / len(labels)
                evaluated.add(prov)
                gold_initialized += 1

    def active_set(round_index: int) -> set[ProvKey]:
        active = set(all_provs)
        if config.filter_by_coverage and round_index > 0:
            active &= evaluated
        if config.min_accuracy is not None:
            active = {p for p in active if accuracies[p] >= config.min_accuracy}
        return active

    posteriors: dict[Triple, float] = {}
    round_probabilities: list[dict[Triple, float]] = []
    rounds_run = 0
    converged = False
    for round_index in range(config.max_rounds):
        active = active_set(round_index)
        require_repeated = config.filter_by_coverage and round_index == 0
        posteriors = _stage1(
            engine,
            matrix,
            active,
            accuracies,
            item_posterior_fn,
            config,
            require_repeated,
        )
        new_accuracies = _stage2(engine, matrix, active, posteriors, config)
        delta = 0.0
        for prov, accuracy in new_accuracies.items():
            delta = max(delta, abs(accuracy - accuracies[prov]))
            accuracies[prov] = accuracy
            evaluated.add(prov)
        rounds_run = round_index + 1
        if track_rounds:
            round_probabilities.append(dict(posteriors))
        if delta < config.convergence_tol:
            converged = True
            break

    return _finalize_scalar_result(
        matrix=matrix,
        posteriors=posteriors,
        accuracies=accuracies,
        config=config,
        method_name=method_name,
        rounds_run=rounds_run,
        converged=converged,
        round_probabilities=round_probabilities if track_rounds else None,
        diagnostics={
            "n_items": len(matrix.items),
            "n_provenances": len(all_provs),
            "n_claims": matrix.n_claims(),
            "gold_initialized": gold_initialized,
            "n_active_final": len(active_set(rounds_run)),
            **backend_contract(config.backend, ran),
            "sampling": sampling_contract_of(config),
        },
    )


def _finalize_scalar_result(
    matrix,
    posteriors: dict[Triple, float],
    accuracies: dict[ProvKey, float],
    config: FusionConfig,
    method_name: str,
    rounds_run: int,
    converged: bool,
    round_probabilities: list[dict[Triple, float]] | None,
    diagnostics: dict,
) -> FusionResult:
    """Stage III + result assembly of the serial reference.

    Dedup by triple, applying the fallbacks for filtered items: scored
    triples keep their posterior; under the θ-filter an unscored triple
    falls back to the mean accuracy of its own provenances (summed in
    canonical order for hash-seed independence); otherwise it is
    *unpredicted*.
    """
    probabilities: dict[Triple, float] = {}
    unpredicted: set[Triple] = set()
    for item, triple_map in matrix.items.items():
        for triple, provs in triple_map.items():
            if triple in posteriors:
                probabilities[triple] = posteriors[triple]
            elif config.min_accuracy is not None:
                probabilities[triple] = sum(
                    accuracies[p] for p in sorted(provs)
                ) / len(provs)
            else:
                unpredicted.add(triple)

    result = FusionResult(
        method=method_name,
        probabilities=probabilities,
        unpredicted=unpredicted,
        accuracies=accuracies,
        rounds=rounds_run,
        converged=converged,
        diagnostics=diagnostics,
    )
    if round_probabilities is not None:
        result.diagnostics["round_probabilities"] = round_probabilities
    result.validate()
    return result


def _runnable_plan(
    config: FusionConfig, matrix, kernel, include_stage2: bool = True
) -> tuple[ExecutionPlan, ColumnarClaims | None]:
    """The mode that will actually run, and the claim columns it runs over.

    That is ``config.backend``'s plan, minus the batched kernel when it
    cannot engage (no ``batch_round`` form, or sampling pressure —
    ``include_stage2`` is forwarded to :func:`sampling_would_engage`): the
    scalar kernel then runs in the same place, which for an in-process
    plan is the serial reference.  The reference takes the matrix's dict
    views, so no columns are built on its behalf when it was asked for.
    """
    plan = EXECUTION_MODES[config.backend]
    if plan.reference:
        return plan, None
    cols = matrix.columnar()
    batched = (
        plan.batched
        and hasattr(kernel, "batch_round")
        and not sampling_would_engage(cols, config, include_stage2)
    )
    return replace(plan, batched=batched), cols


@contextmanager
def _column_executor(
    cols: ColumnarClaims,
    config: FusionConfig,
    plan: ExecutionPlan,
    executor: Executor | None,
):
    """Where a column-native stage runs.

    Yields None for the in-process whole-matrix variant; otherwise the
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
    matrix in one call.  Sharded, the round's accuracies and active mask
    cross once on the round-state channel (shared-memory segments where
    available; the shard specs carry only the tiny handle) and each shard
    of item ids runs the batched or the scalar kernel.  ``name`` seeds the
    scalar shards' canonical-order sampling draw: it must be the serial
    job's name for sampled subsets to stay bitwise.
    """
    if executor is None:
        return kernel.batch_round(cols, accuracies, active, require_repeated)
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
    return shuffle.merge_stage1_outputs(
        cols, executor.run_map(range(cols.n_items), job)
    )


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
    and supporting at least one scored row) — exactly the keys the serial
    Stage-II reducer emits; ``new_acc`` is meaningful only there.
    """
    if executor is None:
        return kernels.stage2_accuracies(cols, round_result, active)
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
    outputs = executor.run_map(range(len(cols.provenances)), job)
    updated = np.array([value is not None for value in outputs], dtype=bool)
    new_acc = np.array(
        [0.0 if value is None else value for value in outputs], dtype=np.float64
    )
    return new_acc, updated


def _scored_posteriors(
    cols: ColumnarClaims, round_result: kernels.RoundPosteriors
) -> dict[Triple, float]:
    """The scored rows of one Stage-I result as ``{triple: posterior}``."""
    rows = np.flatnonzero(round_result.scored)
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
) -> FusionResult:
    """The column-native round loop behind every mode but the reference.

    Round state is arrays only: accuracies in a float64 array indexed by
    provenance id, posteriors and the scored mask indexed by row (= unique
    triple).  The Python dict outputs are materialised once at the end
    (Stage III), so no dict claim view is ever required — which is what
    lets the out-of-core path fuse straight from mapped columns.  ``plan``
    (:func:`_runnable_plan`) fixes where the two per-round stage calls run
    and which kernel scores them; nothing else differs between backends.
    """
    n_provs = len(cols.provenances)
    accuracies = np.full(n_provs, config.default_accuracy, dtype=np.float64)
    evaluated = np.zeros(n_provs, dtype=bool)

    gold_initialized = 0
    if gold_labels:
        sampled = _gold_subsample(gold_labels, config.gold_sample_rate, config.seed)
        for p in range(n_provs):
            rows = cols.prov_rows[cols.prov_ptr[p] : cols.prov_ptr[p + 1]]
            labels = [
                sampled[cols.triples[r]] for r in rows if cols.triples[r] in sampled
            ]
            if labels:
                accuracies[p] = sum(labels) / len(labels)
                evaluated[p] = True
                gold_initialized += 1

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
                # (The scalar shards are already exact, and may have sampled.)
                boundary = np.flatnonzero(
                    updated
                    & (np.abs(new_acc - config.min_accuracy) <= THETA_RESCUE_BAND)
                )
                if boundary.size:
                    rescued = _exact_boundary_accuracies(
                        cols, kernel, accuracies, active, round_result.scored, boundary
                    )
                    for p, value in rescued.items():
                        new_acc[p] = value
            delta = (
                float(np.max(np.abs(new_acc - accuracies)[updated]))
                if updated.any()
                else 0.0
            )
            accuracies = np.where(updated, new_acc, accuracies)
            evaluated |= updated
            rounds_run = round_index + 1
            if track_rounds:
                round_probabilities.append(_scored_posteriors(cols, round_result))
            if delta < config.convergence_tol:
                converged = True
                break
        executor_diagnostics = where.diagnostics() if plan.pooled else {}

    # Stage III: rows are already unique triples.  Scored rows keep their
    # posterior; under the θ-filter an unscored row falls back to the mean
    # accuracy of its own provenances — a row's claim span lists provenance
    # ids ascending, which *is* ``sorted(provs)`` order because the
    # provenance vocabulary is sorted, so the mean sums in exactly the
    # serial reference's order; otherwise the row is *unpredicted*.
    probabilities: dict[Triple, float] = {}
    unpredicted: set[Triple] = set()
    final_accuracies = accuracies.tolist()
    posteriors = round_result.posteriors.tolist()
    scored = round_result.scored.tolist()
    claim_prov, row_ptr = cols.claim_prov, cols.row_ptr
    for r, triple in enumerate(cols.triples):
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
