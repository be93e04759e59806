"""ACCU: Bayesian fusion with uniformly-distributed false values.

The model of Dong et al. (PVLDB 2009), as summarised in §4.1 of the paper:
each data item has one true value and ``N`` uniformly-distributed false
values; provenances are independent, each with accuracy ``A(S)``.

- vote count of a provenance: ``τ(S) = ln(N·A(S) / (1 − A(S)))``;
- vote count of a value: ``C(v) = Σ_{S claims v} τ(S)``;
- posterior: softmax over the *full domain* — the observed values plus the
  ``N + 1 − k`` unobserved values, each at vote count 0.  Keeping the
  unobserved mass is what stops ACCU's probabilities "sticking" to the
  default accuracy the way POPACCU's do (§4.2), and it is why a single
  default-accuracy provenance yields exactly p = A.

Iteration (accuracy re-estimation) lives in :mod:`repro.fusion.runner`.

Two cross-backend contracts anchor here.  *Canonical-order summation*:
the scalar posterior (:meth:`AccuKernel.__call__`) sums floats in the
order its row accuracies arrive, which is the claim columns' canonical
(sorted) order — what makes serial runs independent of
``PYTHONHASHSEED``.  *Canonical-order sampling*: when the reducer-input
bound ``L`` engages, a data item's claims are sampled against their
``(triple, provenance)`` canonical order — the columnar claim layout's
native order — once per round, into the claim keep-mask every kernel
reads (:func:`repro.fusion.shuffle.stage1_keep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.fusion import kernels
from repro.fusion.base import Fuser, FusionResult
from repro.fusion.observations import ColumnarClaims, FusionInput
from repro.fusion.runner import run_bayesian_fusion

__all__ = ["AccuKernel", "Accu"]


@dataclass(frozen=True)
class AccuKernel:
    """The ACCU posterior as a pluggable, picklable kernel.

    Calling it scores one data item on the scalar path; :meth:`batch_round`
    scores every item of a round at once through the numpy kernel
    (:func:`repro.fusion.kernels.accu_round`).  Being a frozen dataclass —
    not a closure — it survives pickling into the ``hybrid`` backend's
    worker processes.
    """

    n_false: int = 100

    def __call__(self, row_accuracies: list[list[float]]) -> list[float]:
        """Posterior of each row (observed value) of one data item, from
        each row's provenance accuracies in canonical order — the order
        every float is summed in."""
        if not row_accuracies:
            return []
        n_false, floor, ceil = self.n_false, kernels.ACC_FLOOR, kernels.ACC_CEIL
        log = math.log
        vote_counts: list[float] = []
        for accuracies in row_accuracies:
            count = 0.0
            for accuracy in accuracies:
                accuracy = min(max(accuracy, floor), ceil)
                count += log(n_false * accuracy / (1.0 - accuracy))
            vote_counts.append(count)
        k = len(vote_counts)
        peak = max(max(vote_counts), 0.0)  # unobserved values sit at vote count 0
        denominator = sum(math.exp(c - peak) for c in vote_counts)
        denominator += max(n_false + 1 - k, 0) * math.exp(-peak)
        return [math.exp(count - peak) / denominator for count in vote_counts]

    def batch_round(
        self, cols: ColumnarClaims, accuracies, active, require_repeated: bool, keep=None
    ) -> kernels.RoundPosteriors:
        return kernels.accu_round(
            cols, accuracies, active, self.n_false, require_repeated, keep
        )


class Accu(Fuser):
    """Iterative ACCU (default N=100, A=0.8, R=5, L=1M)."""

    @property
    def name(self) -> str:
        return "ACCU"

    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        return run_bayesian_fusion(
            fusion_input=fusion_input,
            config=self.config,
            item_posterior_fn=AccuKernel(self.config.n_false_values),
            method_name=self.name,
            gold_labels=self.gold_labels,
            executor=executor,
        )
