"""Direction 4: hierarchical value spaces.

§5.4: "values can be hierarchically structured … a triple with object CA
partially supports that San Francisco is a true object … if several cities
in CA are provided as conflicting values for a data item, although we may
predict a low probability for each of these cities, we may predict a high
probability for CA."

This fuser reweights the vote counts of hierarchical-predicate items:

- a claim of value ``v`` contributes weight 1 to ``v`` itself;
- weight ``LAMBDA_UP**d`` to each ancestor at distance ``d`` (several
  conflicting cities in one state agree on the state);
- weight ``LAMBDA_DOWN**d`` to each descendant at distance ``d`` (a state
  claim is weak evidence for any one of its cities).

Weighted ACCU votes then score the observed values (non-hierarchical items
fall through to plain ACCU behaviour).  The per-item probabilities no
longer need to sum to 1 across a containment chain — (Steve Jobs,
birth place, USA) and (…, California) may both be scored high, resolving
the specific/general false negatives of Figure 17.
"""

from __future__ import annotations

import numpy as np

from repro.fusion import kernels
from repro.fusion.base import (
    DEFAULT_ACCURACY,
    N_FALSE_VALUES,
    Fuser,
    FusionConfig,
    FusionResult,
)
from repro.fusion.extensions.rounds import fuse_rounds
from repro.fusion.observations import ColumnarClaims, FusionInput
from repro.kb.hierarchy import ValueHierarchy
from repro.kb.schema import Schema
from repro.kb.triples import Triple
from repro.kb.values import EntityRef

__all__ = ["HierarchicalFuser"]


class HierarchicalFuser(Fuser):
    """ACCU with support propagation along a value hierarchy."""

    #: Support a claim lends each ancestor, per level up: several
    #: conflicting cities in one state agree on the state.
    LAMBDA_UP = 0.6
    #: Support a claim lends each descendant, per level down: a state claim
    #: is weak evidence for any one of its cities.
    LAMBDA_DOWN = 0.15

    def __init__(
        self,
        schema: Schema,
        hierarchy: ValueHierarchy,
        config: FusionConfig | None = None,
        gold_labels=None,
    ) -> None:
        super().__init__(config, gold_labels)
        self.schema = schema
        self.hierarchy = hierarchy

    @property
    def name(self) -> str:
        return "HIERACCU"

    # ------------------------------------------------------------------
    def _support_weight(self, claimed: Triple, candidate: Triple) -> float:
        """How much a claim of ``claimed`` supports ``candidate``."""
        if claimed.obj == candidate.obj:
            return 1.0
        predicate = self.schema.predicates.get(claimed.predicate)
        if predicate is None or not predicate.hierarchical:
            return 0.0
        if not isinstance(claimed.obj, EntityRef) or not isinstance(
            candidate.obj, EntityRef
        ):
            return 0.0
        claimed_id = claimed.obj.entity_id
        candidate_id = candidate.obj.entity_id
        if self.hierarchy.is_ancestor(candidate_id, claimed_id):
            distance = self.hierarchy.ancestors(claimed_id).index(candidate_id) + 1
            return self.LAMBDA_UP**distance
        if self.hierarchy.is_ancestor(claimed_id, candidate_id):
            distance = self.hierarchy.ancestors(candidate_id).index(claimed_id) + 1
            return self.LAMBDA_DOWN**distance
        return 0.0

    def support(
        self, cols: ColumnarClaims
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(candidate row, claimed row, weight)`` for every pair of rows
        of one data item where a claim of the second supports the first
        (weight > 0; every row supports itself at weight 1)."""
        triples = cols.triples
        item_ptr = cols.item_ptr.tolist()
        candidates: list[int] = []
        claimed: list[int] = []
        weights: list[float] = []
        for j in range(cols.n_items):
            rows = range(item_ptr[j], item_ptr[j + 1])
            for candidate in rows:
                for row in rows:
                    weight = self._support_weight(triples[row], triples[candidate])
                    if weight > 0.0:
                        candidates.append(candidate)
                        claimed.append(row)
                        weights.append(weight)
        return (
            np.array(candidates, dtype=np.int64),
            np.array(claimed, dtype=np.int64),
            np.array(weights, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        # executor accepted per the Fuser contract; this fuser runs in-process.
        config = self.config
        cols = fusion_input.claims(config.granularity)
        candidate, claimed, weight = self.support(cols)
        n_false = N_FALSE_VALUES

        def step(state):
            (accuracies,) = state
            # Each candidate's vote count accumulates τ(S) from every
            # claim, scaled by the hierarchy support weight; the posterior
            # is a logistic over its votes against N uniformly-likely
            # false values, which deliberately does *not* normalise across
            # candidates (a chain of compatible values may all be true).
            row_votes = kernels._segment_sum(
                kernels.accu_claim_votes(cols, accuracies, n_false), cols.row_ptr
            )
            votes = np.bincount(candidate, weight * row_votes[claimed], cols.n_rows)
            posteriors = 1.0 / (1.0 + n_false * np.exp(-votes))
            means = kernels._segment_sum(
                posteriors[cols.prov_rows], cols.prov_ptr
            ) / np.diff(cols.prov_ptr)
            return posteriors, (means,)

        result, (accuracies,) = fuse_rounds(
            self.name, cols, config,
            (np.full(len(cols.provenances), DEFAULT_ACCURACY),), step,
        )
        result.accuracies = dict(zip(cols.provenances, accuracies.tolist()))
        return result
