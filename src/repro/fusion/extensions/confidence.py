"""Direction 5: leveraging extraction confidence.

§5.5: "We need a principled way that can incorporate confidence to other
types of models and can apply even when confidence assignments from
different extractors are of different qualities."

The key obstacle (Figure 21) is that raw confidences are incomparable
across extractors — DOM2 reports extremes, TXT1 hugs 0.5, TBL1 peaks in
the middle.  This fuser therefore **rank-normalises** each record's
confidence within its extractor's own confidence distribution (an
extractor's 90th-percentile confidence means "among its most confident
extractions" regardless of the raw scale), and uses the normalised weight
to scale the claim's vote count in an ACCU-style posterior:

    C(v) = Σ_claims  w(claim) · τ(S)

Records without a confidence get weight 0.5.  Accuracy re-estimation is
likewise weighted, so a provenance is judged mostly by the claims it was
confident about.

Confidences live in the extraction records' columns, so this fuser —
alone among the fusers — cannot fuse bare claim columns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FusionError
from repro.fusion import kernels
from repro.fusion.base import DEFAULT_ACCURACY, N_FALSE_VALUES, Fuser, FusionResult
from repro.fusion.extensions.rounds import claim_rows, fuse_rounds
from repro.fusion.observations import ColumnarClaims, FusionInput

__all__ = ["ConfidenceWeightedFuser"]


class ConfidenceWeightedFuser(Fuser):
    """ACCU with per-extractor rank-normalised confidence weights."""

    @property
    def name(self) -> str:
        return "CONFACCU"

    def claim_weights(
        self, fusion_input: FusionInput, cols: ColumnarClaims
    ) -> np.ndarray:
        """Weight in [0.05, 1.0] of each claim of ``cols`` (aligned with
        ``cols.claim_prov``), from the confidences of ``fusion_input``'s
        records at ``cols.granularity``."""
        records = fusion_input.records
        if records is None:
            raise FusionError(
                f"{self.name} weights claims by the extraction records' "
                "confidences; this fusion input holds bare claim columns"
            )
        record_claim = fusion_input.record_claims(cols)

        confident, confidence = records.columns.has_confidence, records.columns.confidence
        record_extractor = records.columns.codes[:, 1]
        weight = np.full(len(records), 0.5)
        for e in np.unique(record_extractor).tolist():
            # Rank within the extractor's own confidence distribution.
            mine = np.flatnonzero(confident & (record_extractor == e))
            ranks = np.sort(confidence[mine])
            position = np.searchsorted(ranks, confidence[mine], side="right")
            weight[mine] = np.maximum(0.05, position / len(mine))
        # A claim backed by several records keeps its best weight.
        claim_weight = np.zeros(cols.n_claims)
        np.maximum.at(claim_weight, record_claim, weight)
        return claim_weight

    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        # executor accepted per the Fuser contract; this fuser runs in-process.
        config = self.config
        cols = fusion_input.claims(config.granularity)
        weight = self.claim_weights(fusion_input, cols)
        claim_row = claim_rows(cols)
        n_provs = len(cols.provenances)
        weight_total = np.bincount(cols.claim_prov, weight, n_provs)
        observed = np.ones(cols.n_rows, dtype=bool)

        def step(state):
            (accuracies,) = state
            votes = weight * kernels.accu_claim_votes(cols, accuracies, N_FALSE_VALUES)
            posteriors = kernels.accu_softmax(
                cols,
                kernels._segment_sum(votes, cols.row_ptr),
                observed,
                N_FALSE_VALUES,
            )
            weighted = np.bincount(
                cols.claim_prov, weight * posteriors[claim_row], n_provs
            )
            return posteriors, (weighted / weight_total,)

        result, (accuracies,) = fuse_rounds(
            self.name, cols, config,
            (np.full(n_provs, DEFAULT_ACCURACY),), step,
        )
        result.accuracies = dict(zip(cols.provenances, accuracies.tolist()))
        return result
