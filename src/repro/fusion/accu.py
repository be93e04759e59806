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
the exact posterior (:meth:`AccuKernel.exact_round`) sums each row's
``τ(S)`` left to right over its provenances, and the softmax denominator
over the item's rows, in the claim columns' canonical (sorted) order, then
adds the unobserved mass — what makes serial runs independent of
``PYTHONHASHSEED``.  *Canonical-order sampling*: when the reducer-input
bound ``L`` engages, a data item's claims are sampled against their
``(triple, provenance)`` canonical order — the columnar claim layout's
native order — once per round, into the claim keep-mask every kernel
reads (:func:`repro.fusion.shuffle.stage1_keep`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fusion import kernels
from repro.fusion.base import Fuser, FusionResult
from repro.fusion.observations import ColumnarClaims, FusionInput
from repro.fusion.runner import run_bayesian_fusion

__all__ = ["AccuKernel", "Accu"]


@dataclass(frozen=True)
class AccuKernel:
    """The ACCU posterior as a pluggable, picklable kernel.

    :meth:`exact_round` scores every item of a round in the order the
    formulas above spell out (:func:`repro.fusion.kernels.accu_exact_round`,
    ``serial``); :meth:`batch_round` through the batched numpy kernel
    (:func:`repro.fusion.kernels.accu_round`).  Being a frozen dataclass —
    not a closure — it survives pickling into the ``hybrid`` backend's
    worker processes.
    """

    n_false: int = 100

    def exact_round(
        self, cols: ColumnarClaims, accuracies, active, require_repeated: bool, keep=None
    ) -> kernels.RoundPosteriors:
        return kernels.accu_exact_round(
            cols, accuracies, active, self.n_false, require_repeated, keep
        )

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
