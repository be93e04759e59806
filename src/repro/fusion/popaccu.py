"""POPACCU: Bayesian fusion with empirical false-value popularity.

POPACCU (Dong, Saha, Srivastava, PVLDB 2013) drops ACCU's assumption that
wrong values are uniformly distributed and instead "computes the
distribution from real data and plugs it in to the Bayesian analysis" —
making it robust to *popular* false values (copied errors): a wrong value
repeated by many provenances is explained as a popular false value rather
than forced toward truth.

POPACCU honours the same cross-backend contracts as ACCU: canonical-order
float summation (see :meth:`PopAccuKernel.__call__`) and canonical-order
reducer-input sampling (`L`-sampled subsets are drawn against sorted
``(triple, provenance)`` order into one per-round claim mask; see
:mod:`repro.fusion.runner` and :mod:`repro.fusion.shuffle`).

Formulation (this docstring is its one written statement): candidates
are the observed values plus an explicit OTHER ("the truth is none of
the observed values").  With ``m(v)`` = #provenances claiming ``v`` and ``m(D)`` the
item total, the log-likelihood of the observations if ``v`` is true is

    L(v) = Σ_{S∈S(v)} ln A(S)
         + Σ_{v0≠v} Σ_{S∈S(v0)} [ ln(1−A(S)) + ln( m(v0) / (m(D)−m(v)) ) ]

and for OTHER every observed value is false with popularity
``m(v0)/m(D)``.  Posteriors are the normalised likelihoods; the OTHER mass
is simply unassigned probability.  This reproduces the paper's observed
"sticking" behaviour: one default-accuracy provenance → p = 0.8 exactly;
two agreeing → ≈0.94; two conflicting → ≈0.5 (the Figure 9 valleys).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.fusion import kernels
from repro.fusion.base import Fuser, FusionResult
from repro.fusion.observations import ColumnarClaims, FusionInput
from repro.fusion.runner import run_bayesian_fusion

__all__ = ["PopAccuKernel", "PopAccu"]


@dataclass(frozen=True)
class PopAccuKernel:
    """The POPACCU posterior as a pluggable, picklable kernel.

    Scalar per data item by calling it; batched per round via
    :func:`repro.fusion.kernels.popaccu_round`.  A frozen dataclass so the
    ``hybrid`` backend can pickle it into workers.
    """

    def __call__(self, row_accuracies: list[list[float]]) -> list[float]:
        """Posterior of each row of one data item; input and summation
        order as :meth:`repro.fusion.accu.AccuKernel.__call__`."""
        if not row_accuracies:
            return []
        floor, ceil, log = kernels.ACC_FLOOR, kernels.ACC_CEIL, math.log
        support = [len(accuracies) for accuracies in row_accuracies]
        total = sum(support)
        log_true: list[float] = []
        log_false: list[float] = []
        for accuracies in row_accuracies:
            lt = 0.0
            lf = 0.0
            for accuracy in accuracies:
                accuracy = min(max(accuracy, floor), ceil)
                lt += log(accuracy)
                lf += log(1.0 - accuracy)
            log_true.append(lt)
            log_false.append(lf)

        rows = range(len(support))
        scores: list[float] = []
        for candidate in rows:
            rest = total - support[candidate]
            score = log_true[candidate]
            for other in rows:
                if other == candidate:
                    continue
                # All of `other`'s provenances provided a false value whose
                # empirical popularity (given `candidate` is true) is
                # m(other)/rest.
                score += log_false[other]
                score += support[other] * log(support[other] / rest)
            scores.append(score)
        # OTHER: every observed value is false, popularity m(v)/m(D).
        other_score = 0.0
        for row in rows:
            other_score += log_false[row]
            other_score += support[row] * log(support[row] / total)

        peak = max(max(scores), other_score)
        denominator = math.exp(other_score - peak) + sum(
            math.exp(s - peak) for s in scores
        )
        return [math.exp(score - peak) / denominator for score in scores]

    def batch_round(
        self, cols: ColumnarClaims, accuracies, active, require_repeated: bool, keep=None
    ) -> kernels.RoundPosteriors:
        return kernels.popaccu_round(cols, accuracies, active, require_repeated, keep)


class PopAccu(Fuser):
    """Iterative POPACCU (default A=0.8, R=5, L=1M)."""

    @property
    def name(self) -> str:
        return "POPACCU"

    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        return run_bayesian_fusion(
            fusion_input=fusion_input,
            config=self.config,
            item_posterior_fn=PopAccuKernel(),
            method_name=self.name,
            gold_labels=self.gold_labels,
            executor=executor,
        )
