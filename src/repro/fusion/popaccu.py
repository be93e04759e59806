"""POPACCU: Bayesian fusion with empirical false-value popularity.

POPACCU (Dong, Saha, Srivastava, PVLDB 2013) drops ACCU's assumption that
wrong values are uniformly distributed and instead "computes the
distribution from real data and plugs it in to the Bayesian analysis" —
making it robust to *popular* false values (copied errors): a wrong value
repeated by many provenances is explained as a popular false value rather
than forced toward truth.

POPACCU honours the same cross-backend contracts as ACCU: canonical-order
float summation (see :meth:`PopAccuKernel.exact_round`) and canonical-order
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

from dataclasses import dataclass

from repro.fusion import kernels
from repro.fusion.base import Fuser, FusionResult
from repro.fusion.observations import ColumnarClaims, FusionInput
from repro.fusion.runner import run_bayesian_fusion

__all__ = ["PopAccuKernel", "PopAccu"]


@dataclass(frozen=True)
class PopAccuKernel:
    """The POPACCU posterior as a pluggable, picklable kernel.

    Exact per round via :func:`repro.fusion.kernels.popaccu_exact_round`
    (``serial``), batched via :func:`repro.fusion.kernels.popaccu_round`.
    A frozen dataclass so the ``hybrid`` backend can pickle it into workers.
    """

    def exact_round(
        self, cols: ColumnarClaims, accuracies, active, require_repeated: bool, keep=None
    ) -> kernels.RoundPosteriors:
        return kernels.popaccu_exact_round(cols, accuracies, active, require_repeated, keep)

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
