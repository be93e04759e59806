"""POPACCU: Bayesian fusion with empirical false-value popularity.

POPACCU (Dong, Saha, Srivastava, PVLDB 2013) drops ACCU's assumption that
wrong values are uniformly distributed and instead "computes the
distribution from real data and plugs it in to the Bayesian analysis" —
making it robust to *popular* false values (copied errors): a wrong value
repeated by many provenances is explained as a popular false value rather
than forced toward truth.

POPACCU honours the same cross-backend contracts as ACCU: canonical-order
float summation (bitwise serial/parallel parity — see
:func:`popaccu_item_posteriors`) and canonical-order reducer-input
sampling (`L`-sampled subsets are drawn against sorted ``(triple,
provenance)`` order, reproducible inside parallel shards; see
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
from repro.fusion.observations import ColumnarClaims, FusionInput, ProvKey
from repro.fusion.runner import run_bayesian_fusion
from repro.kb.triples import Triple

__all__ = ["popaccu_item_posteriors", "PopAccuKernel", "PopAccu"]


def _clamped(accuracy: float) -> float:
    return min(max(accuracy, kernels.ACC_FLOOR), kernels.ACC_CEIL)


def popaccu_item_posteriors(
    claims: dict[Triple, set[ProvKey]],
    accuracies: dict[ProvKey, float],
) -> dict[Triple, float]:
    """Posterior probability of each observed value of one data item.

    Floats are summed in canonical (sorted) order, never in set iteration
    order, so the result is independent of ``PYTHONHASHSEED`` — see
    :func:`repro.fusion.accu.accu_item_posteriors` for why the
    serial/parallel bit-identity contract needs this.
    """
    if not claims:
        return {}
    triples = sorted(claims)
    support = {t: len(claims[t]) for t in triples}
    total = sum(support.values())
    log_true: dict[Triple, float] = {}
    log_false: dict[Triple, float] = {}
    for triple in triples:
        lt = 0.0
        lf = 0.0
        for prov in sorted(claims[triple]):
            accuracy = _clamped(accuracies[prov])
            lt += math.log(accuracy)
            lf += math.log(1.0 - accuracy)
        log_true[triple] = lt
        log_false[triple] = lf

    scores: dict[Triple, float] = {}
    for candidate in triples:
        rest = total - support[candidate]
        score = log_true[candidate]
        for other in triples:
            if other is candidate:
                continue
            # All of `other`'s provenances provided a false value whose
            # empirical popularity (given `candidate` is true) is
            # m(other)/rest.
            score += log_false[other]
            score += support[other] * math.log(support[other] / rest)
        scores[candidate] = score
    # OTHER: every observed value is false, popularity m(v)/m(D).
    other_score = 0.0
    for triple in triples:
        other_score += log_false[triple]
        other_score += support[triple] * math.log(support[triple] / total)

    peak = max(max(scores.values()), other_score)
    denominator = math.exp(other_score - peak) + sum(
        math.exp(s - peak) for s in scores.values()
    )
    return {
        triple: math.exp(score - peak) / denominator
        for triple, score in scores.items()
    }


@dataclass(frozen=True)
class PopAccuKernel:
    """The POPACCU posterior as a pluggable, picklable kernel.

    Scalar reference per item via :func:`popaccu_item_posteriors`; batched
    per round via :func:`repro.fusion.kernels.popaccu_round`.  A frozen
    dataclass so the parallel backend can pickle it into workers.
    """

    def __call__(
        self,
        claims: dict[Triple, set[ProvKey]],
        accuracies: dict[ProvKey, float],
    ) -> dict[Triple, float]:
        return popaccu_item_posteriors(claims, accuracies)

    def batch_round(
        self, cols: ColumnarClaims, accuracies, active, require_repeated: bool
    ) -> kernels.RoundPosteriors:
        return kernels.popaccu_round(cols, accuracies, active, require_repeated)


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
