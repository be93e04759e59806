"""VOTE: the baseline fuser.

§4.1: "if a data item D = (s, p) has n provenances in total and a triple
T = (s, p, o) has m provenances, the probability of T is p(T) = m/n."
No source-quality estimation, no iteration — only Stage I and Stage III of
the Figure 8 pipeline, which is exactly how it is implemented here: one
call of the runner's column-native Stage-I helper, so VOTE exercises the
same dataflow as the Bayesian methods.

Execution modes follow the same
:class:`~repro.mapreduce.executors.ExecutionPlan` derivation as the
Bayesian methods (:mod:`repro.fusion.runner`) — scalar per-item ratios
in-process (``serial``) or pooled over the columnar shuffle (bit-identical
on fork and spawn, including under canonical-order reducer-input
sampling), batched as one numpy pass of ``m/n`` ratios, scalar in the same
place when sampling would engage (batched kernels score whole rounds and
cannot subset per item).
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
    _column_executor,
    _column_stage1,
    _runnable_plan,
    _scored_posteriors,
)
from repro.kb.triples import Triple
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


def _emission_order(cols: ColumnarClaims, plan: ExecutionPlan) -> np.ndarray | None:
    """The row order probabilities are written in (None: canonical rows).

    Stage III keys by triple, and the scalar in-process mode emits in that
    key order — canonical triple order — for every input; see
    :func:`repro.fusion.runner._emission_order` for why the order is kept.
    """
    return np.argsort(cols.canonical_rank()) if plan.reference else None


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
        # Rows are already unique triples, so Stage III's dedup by triple
        # is structurally a no-op: the scored rows' ``m/n`` ratios are the
        # final probabilities.  Unscored rows (possible only under
        # sampling) stay absent.
        result = FusionResult(
            method=self.name,
            probabilities=_scored_posteriors(
                cols, round_result, _emission_order(cols, plan)
            ),
            rounds=0,
            converged=True,
            diagnostics={
                **backend_contract(self.config.backend, plan),
                "sampling": sampling_contract_of(self.config),
                **executor_diagnostics,
            },
        )
        result.validate()
        return result
