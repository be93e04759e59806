"""Direction 3: multi-truth fusion with learned predicate functionality.

§5.3: the single-truth assumption caused 65% of POPACCU+'s false
negatives.  The paper points at Zhao et al.'s latent-truth model ([37]) —
per-source *sensitivity* (recall) and *specificity* instead of one
accuracy — and suggests learning "the degree of functionality for each
predicate (i.e., the expected number of values)".

This fuser implements both ideas at laptop scale:

1. a bootstrap POPACCU pass estimates per-item posteriors, from which the
   *functionality* of each predicate is learned as the expected number of
   true values per data item;
2. an EM over a simplified latent-truth model scores every triple
   *independently* (no per-item normalisation):

       P(t true | obs) ∝ π_p · Π_{S claims t} sens_S · Π_{S silent} (1−sens_S)
       P(t false | obs) ∝ (1−π_p) · Π_{S claims t} (1−spec_S) · Π_{S silent} spec_S

   where "silent" runs over the item's other provenances, and the prior
   ``π_p`` comes from the learned functionality (more expected truths →
   higher prior that any given claimed value is true).

Multiple triples of one item can now all get high probabilities, which is
exactly what the single-truth methods cannot do.
"""

from __future__ import annotations

import numpy as np

from repro.fusion import kernels
from repro.fusion.base import Fuser, FusionResult
from repro.fusion.extensions.rounds import claim_rows, fuse_rounds
from repro.fusion.observations import FusionInput, _sorted_table
from repro.fusion.popaccu import PopAccu

__all__ = ["MultiTruthFuser"]


def _clamp(x: np.ndarray) -> np.ndarray:
    return np.clip(x, kernels.ACC_FLOOR, kernels.ACC_CEIL)


class MultiTruthFuser(Fuser):
    """Latent-truth fusion with learned per-predicate functionality."""

    @property
    def name(self) -> str:
        return "MULTITRUTH"

    def learned_functionality(
        self, fusion_input: FusionInput, executor=None
    ) -> dict[str, float]:
        """Expected #true values per data item, per predicate.

        Estimated from the bootstrap POPACCU posteriors: the sum of value
        posteriors of an item is its expected truth count; predicates
        average over their items ("most people only have a single spouse,
        but most actors participate in many movies").
        """
        bootstrap = PopAccu(self.config, gold_labels=self.gold_labels).fuse(
            fusion_input, executor
        )
        cols = fusion_input.claims(self.config.granularity).columnar()
        probability = np.array(
            [bootstrap.probabilities.get(triple, np.nan) for triple in cols.triples],
            dtype=np.float64,
        )
        scored = np.flatnonzero(~np.isnan(probability))
        expected = np.bincount(cols.row_item[scored], probability[scored], cols.n_items)
        # Items the bootstrap scored no value of say nothing about their predicate.
        seen = np.bincount(cols.row_item[scored], minlength=cols.n_items) > 0
        predicates, item_predicate = _sorted_table([item.predicate for item in cols.items])
        n_items = np.bincount(item_predicate[seen], minlength=len(predicates))
        total = np.bincount(item_predicate[seen], expected[seen], len(predicates))
        return {
            predicate: max(t / n, 0.05)
            for predicate, t, n in zip(predicates, total.tolist(), n_items.tolist())
            if n
        }

    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        # The bootstrap pass honours config.backend (and so the executor);
        # the EM itself runs in-process.
        config = self.config
        functionality = self.learned_functionality(fusion_input, executor)
        cols = fusion_input.claims(config.granularity).columnar()
        n_provs = len(cols.provenances)
        row_item, claim_prov = cols.row_item, cols.claim_prov
        claim_row = claim_rows(cols)

        # Priors: an item with k observed values and expected f truths has
        # per-value prior ~ f/k (clamped into (0,1)).
        item_functionality = np.array(
            [functionality.get(item.predicate, 1.0) for item in cols.items]
        )
        prior = _clamp(item_functionality / np.diff(cols.item_ptr))[row_item]

        # The distinct (item, provenance) pairs: who could have claimed
        # each of an item's values.
        pair_item, pair_prov = np.divmod(
            np.unique(row_item[claim_row] * n_provs + claim_prov), max(n_provs, 1)
        )

        # Smoothing: sens/spec shrink toward their priors (0.7 / 0.9) with
        # pseudo-count 2.  A flat 0.5-mean smoothing would be fatal here:
        # items whose values are *all* true leave the specificity estimate
        # dataless, and a 0.5 specificity makes claims uninformative.
        sens_prior, spec_prior, strength = 0.7, 0.9, 2.0

        def log_likelihood(log_prior, claiming, silent):
            """Per row: every provenance of its item silent, then the row's
            claimers switched from their silent term to their claiming one."""
            return (
                log_prior
                + np.bincount(pair_item, silent[pair_prov], cols.n_items)[row_item]
                + kernels._segment_sum((claiming - silent)[claim_prov], cols.row_ptr)
            )

        def expected(values):
            """Per provenance: ``values`` summed over the rows it claims, and
            over every row of the items it claims anything of."""
            item_values = kernels._segment_sum(values, cols.item_ptr)
            return (
                np.bincount(claim_prov, values[claim_row], n_provs),
                np.bincount(pair_prov, item_values[pair_item], n_provs),
            )

        def step(state):
            sens, spec = _clamp(state[0]), _clamp(state[1])
            log_true = log_likelihood(np.log(prior), np.log(sens), np.log(1.0 - sens))
            log_false = log_likelihood(
                np.log(1.0 - prior), np.log(1.0 - spec), np.log(spec)
            )
            peak = np.maximum(log_true, log_false)
            numerator = np.exp(log_true - peak)
            posteriors = numerator / (numerator + np.exp(log_false - peak))
            # M-step: sensitivity = P(claim | true), specificity =
            # P(silent | false), estimated over each provenance's items.
            true_claimed, true_total = expected(posteriors)
            false_claimed, false_total = expected(1.0 - posteriors)
            new_sens = (true_claimed + strength * sens_prior) / (true_total + strength)
            new_spec = (false_total - false_claimed + strength * spec_prior) / (
                false_total + strength
            )
            return posteriors, (new_sens, new_spec)

        result, _state = fuse_rounds(
            self.name, cols, config,
            (np.full(n_provs, sens_prior), np.full(n_provs, spec_prior)), step,
        )
        result.diagnostics["functionality"] = functionality
        return result
