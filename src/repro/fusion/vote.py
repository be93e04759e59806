"""VOTE: the baseline fuser.

§4.1: "if a data item D = (s, p) has n provenances in total and a triple
T = (s, p, o) has m provenances, the probability of T is p(T) = m/n."
No source-quality estimation, no iteration — only Stage I and Stage III of
the Figure 8 pipeline, which is exactly how it is implemented here: one
call of the runner's column-native Stage-I helper, so VOTE exercises the
same dataflow as the Bayesian methods.

Execution modes follow the same
:class:`~repro.mapreduce.executors.ExecutionPlan` derivation as the
Bayesian methods (:mod:`repro.fusion.runner`) — one numpy pass of
``m/n`` ratios, in-process (``serial``, ``vectorized``) or per shard of
the columnar shuffle (``hybrid``).
Reducer-input sampling is the same Stage-I claim keep-mask the Bayesian
methods build (:func:`repro.fusion.shuffle.stage1_keep`, job name
``vote.stage1``), read by whichever kernel runs.
"""

from __future__ import annotations

import numpy as np

from repro.fusion import kernels, shuffle
from repro.fusion.base import (
    Fuser,
    FusionResult,
    backend_contract,
    sampling_contract_of,
)
from repro.fusion.observations import ColumnarClaims, FusionInput
from repro.fusion.runner import _column_executor, _column_stage1, _scored_posteriors
from repro.mapreduce.executors import EXECUTION_MODES, ExecutionPlan

__all__ = ["VoteKernel", "Vote"]


class VoteKernel:
    """The VOTE posterior as a pluggable kernel: ``p(T) = m/n`` per row.

    Its one kernel is both forms: ``m/n`` on integer counts is correctly
    rounded however the counts were summed.
    """

    def batch_round(
        self,
        cols: ColumnarClaims,
        accuracies=None,
        active=None,
        require_repeated=False,
        keep=None,
    ) -> kernels.RoundPosteriors:
        return kernels.vote_round(cols, active, require_repeated, keep)

    exact_round = batch_round


def _emission_order(cols: ColumnarClaims, plan: ExecutionPlan) -> np.ndarray | None:
    """The row order probabilities are written in (None: canonical rows).

    Stage III keys by triple, and the exact in-process mode emits in that
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
        plan = EXECUTION_MODES[self.config.backend]
        cols = fusion_input.claims(self.config.granularity)
        n_provs = len(cols.provenances)
        active = np.ones(n_provs, dtype=bool)
        keep = shuffle.stage1_keep(
            cols, active, "vote.stage1", self.config.sample_limit, self.config.seed
        )
        with _column_executor(self.config, plan, executor) as where:
            round_result = _column_stage1(
                cols,
                VoteKernel(),
                np.zeros(n_provs, dtype=np.float64),
                active,
                False,
                keep,
                where,
                plan.batched,
                name="vote.stage1",
            )
            executor_diagnostics = where.diagnostics() if plan.pooled else {}
        # Rows are already unique triples, so Stage III's dedup by triple
        # is structurally a no-op: the scored rows' ``m/n`` ratios are the
        # final probabilities.  Unscored rows (possible only under
        # sampling) stay absent.
        return FusionResult(
            method=self.name,
            probabilities=_scored_posteriors(
                cols, round_result, _emission_order(cols, plan)
            ),
            rounds=0,
            converged=True,
            diagnostics={
                **backend_contract(self.config.backend),
                "sampling": sampling_contract_of(self.config),
                **executor_diagnostics,
            },
        )
