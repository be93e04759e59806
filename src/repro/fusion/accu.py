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
the scalar posterior sums floats in sorted order (see
:func:`accu_item_posteriors`), which is what makes serial and parallel
runs bit-identical.  *Canonical-order sampling*: when the reducer-input
bound ``L`` engages, a data item's claims are sampled against their
``(triple, provenance)`` canonical order — the columnar claim layout's
native order — so sampled subsets are identical whether drawn in-process
or inside a parallel shard (:func:`repro.fusion.shuffle.scalar_stage1`
either way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.fusion import kernels
from repro.fusion.base import Fuser, FusionResult
from repro.fusion.observations import ColumnarClaims, FusionInput, ProvKey
from repro.fusion.runner import run_bayesian_fusion
from repro.kb.triples import Triple

__all__ = ["accu_item_posteriors", "AccuKernel", "Accu"]


def _clamped(accuracy: float) -> float:
    return min(max(accuracy, kernels.ACC_FLOOR), kernels.ACC_CEIL)


def accu_item_posteriors(
    claims: dict[Triple, set[ProvKey]],
    accuracies: dict[ProvKey, float],
    n_false: int,
) -> dict[Triple, float]:
    """Posterior probability of each observed value of one data item.

    ``claims`` maps each observed triple to its supporting provenances;
    ``n_false`` is the paper's ``N`` (default 100).

    Floats are summed in canonical (sorted) order, never in set/dict
    iteration order, so the result is independent of ``PYTHONHASHSEED``
    and of how the claims dict was assembled — the bit-identity contract
    between the serial backend and process-pool workers (including
    ``spawn`` workers, which draw their own hash seed) rests on this.
    """
    if not claims:
        return {}
    vote_counts: dict[Triple, float] = {}
    for triple in sorted(claims):
        count = 0.0
        for prov in sorted(claims[triple]):
            accuracy = _clamped(accuracies[prov])
            count += math.log(n_false * accuracy / (1.0 - accuracy))
        vote_counts[triple] = count
    k = len(vote_counts)
    peak = max(vote_counts.values())
    peak = max(peak, 0.0)  # unobserved values sit at vote count 0
    denominator = sum(math.exp(c - peak) for c in vote_counts.values())
    denominator += max(n_false + 1 - k, 0) * math.exp(-peak)
    return {
        triple: math.exp(count - peak) / denominator
        for triple, count in vote_counts.items()
    }


@dataclass(frozen=True)
class AccuKernel:
    """The ACCU posterior as a pluggable, picklable kernel.

    Calling it scores one item through the scalar reference
    (:func:`accu_item_posteriors`); :meth:`batch_round` scores every item
    of a round at once through the numpy kernel
    (:func:`repro.fusion.kernels.accu_round`).  Being a frozen dataclass —
    not a closure — it survives pickling into the parallel backend's
    worker processes.
    """

    n_false: int = 100

    def __call__(
        self,
        claims: dict[Triple, set[ProvKey]],
        accuracies: dict[ProvKey, float],
    ) -> dict[Triple, float]:
        return accu_item_posteriors(claims, accuracies, self.n_false)

    def batch_round(
        self, cols: ColumnarClaims, accuracies, active, require_repeated: bool
    ) -> kernels.RoundPosteriors:
        return kernels.accu_round(
            cols, accuracies, active, self.n_false, require_repeated
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
