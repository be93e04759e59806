"""VOTE: the baseline fuser.

§4.1: "if a data item D = (s, p) has n provenances in total and a triple
T = (s, p, o) has m provenances, the probability of T is p(T) = m/n."
No source-quality estimation, no iteration — only Stage I and Stage III of
the Figure 8 pipeline, which is exactly how it is implemented here (through
the MapReduce engine, so VOTE exercises the same dataflow as the Bayesian
methods).

Execution modes: the reference runs the scalar reducers in-process; every
other mode runs Stage I once through the runner's column-native Stage-I
helper under the same :class:`~repro.mapreduce.executors.ExecutionPlan`
derivation as the Bayesian methods (:mod:`repro.fusion.runner`) — pooled
over the columnar shuffle (bit-identical on fork and spawn, including
under canonical-order reducer-input sampling), batched as one numpy pass
of ``m/n`` ratios, scalar in the same place when sampling would engage
(batched kernels score whole rounds and cannot subset per item).
"""

from __future__ import annotations

import numpy as np

from repro.fusion import kernels
from repro.fusion.base import (
    Fuser,
    FusionResult,
    backend_contract,
    sampling_contract_of,
)
from repro.fusion.observations import ColumnarClaims, FusionInput, ProvKey
from repro.fusion.runner import (
    Stage1Reducer,
    _column_executor,
    _column_stage1,
    _runnable_plan,
    _scored_posteriors,
    stage1_mapper,
    stage1_sample_key,
)
from repro.kb.triples import Triple
from repro.mapreduce.engine import MapReduceEngine, MapReduceJob
from repro.mapreduce.executors import ExecutionPlan

__all__ = ["vote_item_posteriors", "VoteKernel", "Vote"]


def vote_item_posteriors(
    claims: dict[Triple, set[ProvKey]],
    accuracies: dict[ProvKey, float] | None = None,
) -> dict[Triple, float]:
    """Scalar reference: ``p(T) = m/n`` for one data item.

    ``accuracies`` is accepted (and ignored) so VOTE matches the posterior
    signature of the Bayesian kernels.
    """
    total = sum(len(provs) for provs in claims.values())
    if total == 0:
        return {}
    return {triple: len(provs) / total for triple, provs in claims.items()}


class VoteKernel:
    """The VOTE posterior as a pluggable kernel (scalar + batched)."""

    def __call__(
        self,
        claims: dict[Triple, set[ProvKey]],
        accuracies: dict[ProvKey, float] | None = None,
    ) -> dict[Triple, float]:
        return vote_item_posteriors(claims, accuracies)

    def batch_round(
        self, cols: ColumnarClaims, accuracies=None, active=None, require_repeated=False
    ) -> kernels.RoundPosteriors:
        return kernels.vote_round(cols, active, require_repeated)


def _vote_stage3_mapper(pair):
    return [(pair[0].canonical(), pair)]


def _vote_stage3_reducer(_key, values):
    return [values[0]]


class Vote(Fuser):
    """Provenance counting."""

    @property
    def name(self) -> str:
        return "VOTE"

    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        matrix = fusion_input.claims(self.config.granularity)
        plan, cols = _runnable_plan(
            self.config, matrix, VoteKernel(), include_stage2=False
        )
        if plan.reference:
            return self._fuse_mapreduce(matrix, plan)
        n_provs = len(cols.provenances)
        with _column_executor(cols, self.config, plan, executor) as where:
            round_result = _column_stage1(
                cols,
                VoteKernel(),
                np.zeros(n_provs, dtype=np.float64),
                np.ones(n_provs, dtype=bool),
                False,
                self.config,
                where,
                plan.batched,
                name="vote.stage1",
            )
            executor_diagnostics = where.diagnostics() if plan.pooled else {}
        # Rows are already unique triples, so the serial path's Stage-III
        # dedup is structurally a no-op here: the scored rows' ``m/n``
        # ratios are the final probabilities.  Unscored rows (possible
        # only under sampling) stay absent, as in the serial reference.
        return self._result(
            _scored_posteriors(cols, round_result), plan, executor_diagnostics
        )

    def _result(
        self, probabilities: dict[Triple, float], ran: ExecutionPlan, extra: dict
    ) -> FusionResult:
        result = FusionResult(
            method=self.name,
            probabilities=probabilities,
            rounds=0,
            converged=True,
            diagnostics={
                **backend_contract(self.config.backend, ran),
                "sampling": sampling_contract_of(self.config),
                **extra,
            },
        )
        result.validate()
        return result

    def _fuse_mapreduce(self, matrix, ran: ExecutionPlan) -> FusionResult:
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
            reducer=Stage1Reducer(VoteKernel(), {}, require_repeated=False),
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
        return self._result(
            {triple: float(p) for triple, p in deduped}, ran, {}
        )
