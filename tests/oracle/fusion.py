"""The dict/MapReduce-engine fusion dataflow: the reference oracle.

This is the code that *was* the ``serial`` backend until ``serial`` became
the in-process scalar point of the column-native round loop
(``repro.fusion.runner._run_columnar``): Figure 8 of the paper transcribed
literally — claims fanned out under their data-item key, grouped, reduced
per key in sorted key order by the keyed engine of :mod:`tests.oracle.engine`,
over the ``ClaimMatrix`` dict views.  It moved here verbatim (function
bodies unchanged, but for the two float ``sum()`` calls spelled as the
``total += v`` loops they were on CPython 3.11; the two ``Vote`` methods
became functions of the fuser),
so it shares no stage code with ``src/``, and no posterior math either:
items are scored by the dict posterior functions ``src/``'s per-item
kernels replaced (:mod:`tests.oracle.posteriors`).  From ``src/`` it
takes ``FusionConfig`` / ``FusionResult``, the fuser classes (only to
read their configuration) and the contract tags; the claim matrix's dict
views live beside it (:mod:`tests.oracle.columns`).

``tests/fusion/test_oracle.py`` holds ``serial`` equal to it on every
output — probabilities and accuracies *including iteration order*,
unpredicted set, rounds, convergence, diagnostics, round snapshots.

Entry points mirror the production ones: :func:`oracle_bayesian_fusion`
(``run_bayesian_fusion`` minus the executor), :func:`oracle_vote`, and
:func:`oracle_fuse`, which dispatches on a built-in fuser.  To run the
differential by hand::

    PYTHONPATH=src python -m pytest -q tests/fusion/test_oracle.py
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.fusion.accu import Accu
from repro.fusion.base import (
    DEFAULT_ACCURACY,
    N_FALSE_VALUES,
    Fuser,
    FusionConfig,
    FusionResult,
    backend_contract,
    sampling_contract_of,
)
from repro.fusion.observations import FusionInput, ProvKey
from repro.fusion.popaccu import PopAccu
from repro.fusion.vote import Vote
from repro.kb.triples import Triple
from repro.rng import split_seed
from tests.oracle.columns import dict_claims
from tests.oracle.engine import MapReduceEngine, MapReduceJob
from tests.oracle.posteriors import (
    accu_item_posteriors,
    popaccu_item_posteriors,
    vote_item_posteriors,
)

__all__ = [
    "assert_equal_in_order",
    "kernel_of",
    "oracle_bayesian_fusion",
    "oracle_fuse",
    "oracle_vote",
]

ItemPosteriorFn = Callable[
    [dict[Triple, set[ProvKey]], dict[ProvKey, float]], dict[Triple, float]
]

def oracle_bayesian_fusion(
    fusion_input: FusionInput,
    config: FusionConfig,
    item_posterior_fn: ItemPosteriorFn,
    method_name: str,
    gold_labels: dict[Triple, bool] | None = None,
    track_rounds: bool = False,
) -> FusionResult:
    """``run_bayesian_fusion`` through the dict engine."""
    return _run_mapreduce(
        dict_claims(fusion_input, config.granularity), config, item_posterior_fn,
        method_name, gold_labels, track_rounds,
    )


def oracle_vote(fusion_input: FusionInput, config: FusionConfig) -> FusionResult:
    """``Vote(config).fuse`` through the dict engine."""
    return _fuse_mapreduce(Vote(config), dict_claims(fusion_input, config.granularity))


def assert_equal_in_order(serial: FusionResult, oracle: FusionResult) -> None:
    """Every output of a ``serial`` fuse ``==`` the oracle's, dict iteration
    order included; ``diagnostics ==`` covers the round snapshots."""
    assert list(serial.probabilities.items()) == list(oracle.probabilities.items())
    assert list(serial.accuracies.items()) == list(oracle.accuracies.items())
    assert serial.unpredicted == oracle.unpredicted
    assert serial.rounds == oracle.rounds
    assert serial.converged == oracle.converged
    assert serial.method == oracle.method
    assert serial.diagnostics == oracle.diagnostics
    assert serial.diagnostics["backend_used"] == "serial"
    assert not {"round_state", "n_workers"} & set(serial.diagnostics)
    assert not any(key.startswith("fallbacks_") for key in serial.diagnostics)


def kernel_of(fuser: Fuser) -> ItemPosteriorFn:
    """The dict form of the per-item posterior a built-in Bayesian fuser
    scores with."""
    if isinstance(fuser, Accu):
        return partial(accu_item_posteriors, n_false=N_FALSE_VALUES)
    if isinstance(fuser, PopAccu):
        return popaccu_item_posteriors
    raise TypeError(f"no oracle for {type(fuser).__name__}")


def oracle_fuse(
    fuser: Fuser, fusion_input: FusionInput, track_rounds: bool = False
) -> FusionResult:
    """``fuser.fuse(fusion_input)`` through the dict engine, for the
    built-in fusers (VOTE, ACCU, POPACCU and the POPACCU+ presets)."""
    if isinstance(fuser, Vote):
        return oracle_vote(fusion_input, fuser.config)
    return oracle_bayesian_fusion(
        fusion_input, fuser.config, kernel_of(fuser), fuser.name,
        fuser.gold_labels, track_rounds,
    )


# ---------------------------------------------------------------------------
# Verbatim from src/repro/fusion/runner.py at e382de4
# ---------------------------------------------------------------------------


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
    total = 0.0  # a plain loop: 3.12's builtin sum() compensates
    for t in sorted(seen):
        total += seen[t]
    return [(prov, total / len(seen))]


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


def _run_mapreduce(
    matrix,
    config: FusionConfig,
    item_posterior_fn: ItemPosteriorFn,
    method_name: str,
    gold_labels: dict[Triple, bool] | None,
    track_rounds: bool,
) -> FusionResult:
    """The scalar engine path (the serial reference)."""
    engine = MapReduceEngine()
    default = DEFAULT_ACCURACY

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
            **backend_contract(config.backend),
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
                total = 0.0  # a plain loop: 3.12's builtin sum() compensates
                for p in sorted(provs):
                    total += accuracies[p]
                probabilities[triple] = total / len(provs)
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


# ---------------------------------------------------------------------------
# Verbatim from src/repro/fusion/vote.py at e382de4 (Vote methods -> functions)
# ---------------------------------------------------------------------------


def _vote_stage3_mapper(pair):
    return [(pair[0].canonical(), pair)]


def _vote_stage3_reducer(_key, values):
    return [values[0]]


def _result(self: Vote, probabilities: dict[Triple, float], extra: dict) -> FusionResult:
    result = FusionResult(
        method=self.name,
        probabilities=probabilities,
        rounds=0,
        converged=True,
        diagnostics={
            **backend_contract(self.config.backend),
            "sampling": sampling_contract_of(self.config),
            **extra,
        },
    )
    result.validate()
    return result


def _fuse_mapreduce(self: Vote, matrix) -> FusionResult:
    engine = MapReduceEngine()

    claims = [
        (item, triple, prov)
        for item, triple_map in matrix.items.items()
        for triple, provs in triple_map.items()
        for prov in provs
    ]
    stage1 = MapReduceJob(
        name="vote.stage1",
        mapper=stage1_mapper,
        reducer=Stage1Reducer(vote_item_posteriors, {}, require_repeated=False),
        sample_limit=self.config.sample_limit,
        seed=self.config.seed,
        sample_key=stage1_sample_key,
    )
    scored = engine.run(claims, stage1)

    # Stage III: dedup by triple (probabilities agree per item already).
    stage3 = MapReduceJob(
        name="vote.stage3",
        mapper=_vote_stage3_mapper,
        reducer=_vote_stage3_reducer,
    )
    deduped = engine.run(scored, stage3)
    return _result(self, {triple: float(p) for triple, p in deduped}, {})
