"""The §5 extension fusers as they were: the dict round loops, verbatim.

Until the four fusers of :mod:`repro.fusion.extensions` became array steps
over the claim columns, each carried a private dict round loop over the
``ClaimMatrix`` dict views.  Those implementations moved here unchanged
(class bodies verbatim from ``src/repro/fusion/extensions/`` at 344e2b2;
the one edit is where the views come from —
:func:`tests.oracle.columns.dict_claims` instead of
``fusion_input.claims(...)``) and are the comparand of
``tests/fusion/test_extensions_oracle.py``: every probability, accuracy and
learned factor of the column fusers must sit within 1e-9 of these, with
identical ``rounds`` / ``converged``.

They sum floats over ``set`` iteration, so their last bits depend on
``PYTHONHASHSEED`` — one of the two reasons they are the oracle and not the
product (the other: they cannot read bare columns).
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict

from repro.fusion.accu import accu_item_posteriors
from repro.fusion.base import Fuser, FusionConfig, FusionResult
from repro.fusion.observations import FusionInput, ProvKey
from repro.fusion.popaccu import PopAccu
from repro.fusion.provenance import provenance_key
from repro.kb.hierarchy import ValueHierarchy
from repro.kb.schema import Schema
from repro.kb.triples import DataItem, Triple
from repro.kb.values import EntityRef
from tests.oracle.columns import dict_claims

__all__ = [
    "ConfidenceWeightedFuser",
    "HierarchicalFuser",
    "MultiTruthFuser",
    "SplitQualityFuser",
]

_EPS = 1e-3


def _clamp(x: float) -> float:
    return min(max(x, _EPS), 1.0 - _EPS)


# ---------------------------------------------------------------------------
# Verbatim from src/repro/fusion/extensions/split_quality.py at 344e2b2
# ---------------------------------------------------------------------------


class SplitQualityFuser(Fuser):
    """Factored extractor × source accuracy model.

    ``extractor_prior_strength`` / ``site_prior_strength`` are the
    pseudo-counts of the shrinkage toward the default accuracy.
    """

    def __init__(
        self,
        config: FusionConfig | None = None,
        gold_labels=None,
        extractor_prior_strength: float = 1.0,
        site_prior_strength: float = 2.0,
    ) -> None:
        super().__init__(config, gold_labels)
        self.extractor_prior_strength = extractor_prior_strength
        self.site_prior_strength = site_prior_strength

    @property
    def name(self) -> str:
        return "SPLITQ"

    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        # executor accepted per the Fuser contract; this fuser runs in-process.
        config = self.config
        # Claims: (item, triple, extractor, site), deduplicated.
        claims: set[tuple[DataItem, Triple, str, str]] = set()
        for record in fusion_input.records:
            claims.add(
                (record.triple.data_item, record.triple, record.extractor, record.site)
            )
        by_item: dict[DataItem, dict[Triple, set[tuple[str, str]]]] = defaultdict(
            lambda: defaultdict(set)
        )
        ext_triples: dict[str, set[tuple[Triple, str]]] = defaultdict(set)
        site_triples: dict[str, set[tuple[Triple, str]]] = defaultdict(set)
        for item, triple, extractor, site in claims:
            by_item[item][triple].add((extractor, site))
            ext_triples[extractor].add((triple, site))
            site_triples[site].add((triple, extractor))

        q = {extractor: config.default_accuracy for extractor in ext_triples}
        a = {site: config.default_accuracy for site in site_triples}

        posteriors: dict[Triple, float] = {}
        rounds = 0
        converged = False
        for _round in range(config.max_rounds):
            # Stage I: per-item posteriors with factored accuracies.  The
            # pair accuracy q·a plays the per-provenance accuracy role in
            # the standard ACCU posterior.
            posteriors = {}
            for item, triple_map in by_item.items():
                pair_accuracy = {
                    pair: _clamp(q[pair[0]] * a[pair[1]])
                    for pairs in triple_map.values()
                    for pair in pairs
                }
                item_posteriors = accu_item_posteriors(
                    {t: set(pairs) for t, pairs in triple_map.items()},
                    pair_accuracy,
                    config.n_false_values,
                )
                posteriors.update(item_posteriors)
            # Stage II: re-estimate the factors, cross-weighted and shrunk
            # toward the prior (see module docstring).
            prior = config.default_accuracy
            delta = 0.0
            new_q = {}
            for extractor, observations in ext_triples.items():
                weight_total = self.extractor_prior_strength
                weighted = self.extractor_prior_strength * prior
                for triple, site in observations:
                    weight = a[site]
                    weighted += weight * posteriors[triple]
                    weight_total += weight
                new_q[extractor] = weighted / weight_total
            new_a = {}
            for site, observations in site_triples.items():
                weight_total = self.site_prior_strength
                weighted = self.site_prior_strength * prior
                for triple, extractor in observations:
                    weight = q[extractor]
                    weighted += weight * posteriors[triple]
                    weight_total += weight
                new_a[site] = weighted / weight_total
            for extractor, value in new_q.items():
                delta = max(delta, abs(value - q[extractor]))
                q[extractor] = value
            for site, value in new_a.items():
                delta = max(delta, abs(value - a[site]))
                a[site] = value
            rounds += 1
            if delta < config.convergence_tol:
                converged = True
                break

        result = FusionResult(
            method=self.name,
            probabilities=posteriors,
            accuracies={("ext", e): v for e, v in q.items()}
            | {("site", s): v for s, v in a.items()},
            rounds=rounds,
            converged=converged,
            diagnostics={
                "extractor_quality": dict(q),
                "site_accuracy": dict(a),
                "n_items": len(by_item),
            },
        )
        result.validate()
        return result


# ---------------------------------------------------------------------------
# Verbatim from src/repro/fusion/extensions/functionality.py at 344e2b2
# ---------------------------------------------------------------------------


class MultiTruthFuser(Fuser):
    """Latent-truth fusion with learned per-predicate functionality."""

    @property
    def name(self) -> str:
        return "MULTITRUTH"

    def learned_functionality(
        self, fusion_input: FusionInput
    ) -> dict[str, float]:
        """Expected #true values per data item, per predicate.

        Estimated from the bootstrap POPACCU posteriors: the sum of value
        posteriors of an item is its expected truth count; predicates
        average over their items ("most people only have a single spouse,
        but most actors participate in many movies").
        """
        bootstrap = PopAccu(self.config, gold_labels=self.gold_labels).fuse(
            fusion_input
        )
        per_item: dict = defaultdict(float)
        for triple, probability in bootstrap.probabilities.items():
            per_item[triple.data_item] += probability
        by_predicate: dict[str, list[float]] = defaultdict(list)
        for item, expected in per_item.items():
            by_predicate[item.predicate].append(expected)
        return {
            predicate: max(sum(values) / len(values), 0.05)
            for predicate, values in by_predicate.items()
        }

    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        # executor accepted per the Fuser contract; this fuser runs in-process.
        config = self.config
        functionality = self.learned_functionality(fusion_input)
        matrix = dict_claims(fusion_input, config.granularity)

        # Per-item structures: which provenances claim which triple.
        items = matrix.items
        prov_triples = matrix.prov_triples

        # Priors: an item with k observed values and expected f truths has
        # per-value prior ~ f/k (clamped into (0,1)).
        prior: dict[Triple, float] = {}
        for item, triple_map in items.items():
            f = functionality.get(item.predicate, 1.0)
            k = max(len(triple_map), 1)
            pi = _clamp(f / k)
            for triple in triple_map:
                prior[triple] = pi

        # Smoothing: sens/spec shrink toward their priors (0.7 / 0.9) with
        # pseudo-count 2.  A flat 0.5-mean smoothing would be fatal here:
        # items whose values are *all* true leave the specificity estimate
        # dataless, and a 0.5 specificity makes claims uninformative.
        sens_prior, spec_prior, strength = 0.7, 0.9, 2.0
        sens = {prov: sens_prior for prov in prov_triples}
        spec = {prov: spec_prior for prov in prov_triples}
        probabilities: dict[Triple, float] = dict(prior)

        import math

        rounds = 0
        converged = False
        for _round in range(config.max_rounds):
            new_probabilities: dict[Triple, float] = {}
            for item, triple_map in items.items():
                item_provs = {
                    prov for provs in triple_map.values() for prov in provs
                }
                for triple, provs in triple_map.items():
                    log_true = math.log(prior[triple])
                    log_false = math.log(1.0 - prior[triple])
                    for prov in item_provs:
                        s = _clamp(sens[prov])
                        c = _clamp(spec[prov])
                        if prov in provs:
                            log_true += math.log(s)
                            log_false += math.log(1.0 - c)
                        else:
                            log_true += math.log(1.0 - s)
                            log_false += math.log(c)
                    peak = max(log_true, log_false)
                    numerator = math.exp(log_true - peak)
                    new_probabilities[triple] = numerator / (
                        numerator + math.exp(log_false - peak)
                    )
            # M-step: sensitivity = P(claim | true), specificity =
            # P(silent | false), estimated over each provenance's items.
            delta = 0.0
            for prov, claimed in prov_triples.items():
                expected_true_claimed = 0.0
                expected_true_total = 0.0
                expected_false_claimed = 0.0
                expected_false_total = 0.0
                seen_items = {t.data_item for t in claimed}
                for item in seen_items:
                    for triple in items[item]:
                        p = new_probabilities[triple]
                        claimed_here = prov in items[item][triple]
                        expected_true_total += p
                        expected_false_total += 1.0 - p
                        if claimed_here:
                            expected_true_claimed += p
                            expected_false_claimed += 1.0 - p
                new_sens = (expected_true_claimed + strength * sens_prior) / (
                    expected_true_total + strength
                )
                new_spec = (
                    expected_false_total
                    - expected_false_claimed
                    + strength * spec_prior
                ) / (expected_false_total + strength)
                delta = max(delta, abs(new_sens - sens[prov]), abs(new_spec - spec[prov]))
                sens[prov] = new_sens
                spec[prov] = new_spec
            probabilities = new_probabilities
            rounds += 1
            if delta < config.convergence_tol:
                converged = True
                break

        result = FusionResult(
            method=self.name,
            probabilities=probabilities,
            rounds=rounds,
            converged=converged,
            diagnostics={
                "functionality": functionality,
                "n_items": len(items),
            },
        )
        result.validate()
        return result


# ---------------------------------------------------------------------------
# Verbatim from src/repro/fusion/extensions/hierarchy.py at 344e2b2
# ---------------------------------------------------------------------------


class HierarchicalFuser(Fuser):
    """ACCU with support propagation along a value hierarchy."""

    def __init__(
        self,
        schema: Schema,
        hierarchy: ValueHierarchy,
        config: FusionConfig | None = None,
        gold_labels=None,
        lambda_up: float = 0.6,
        lambda_down: float = 0.15,
    ) -> None:
        super().__init__(config, gold_labels)
        self.schema = schema
        self.hierarchy = hierarchy
        self.lambda_up = lambda_up
        self.lambda_down = lambda_down

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
            return self.lambda_up**distance
        if self.hierarchy.is_ancestor(claimed_id, candidate_id):
            distance = self.hierarchy.ancestors(candidate_id).index(claimed_id) + 1
            return self.lambda_down**distance
        return 0.0

    def _item_posteriors(
        self,
        claims: dict[Triple, set[ProvKey]],
        accuracies: dict[ProvKey, float],
    ) -> dict[Triple, float]:
        """Weighted-vote posteriors over the observed values.

        Each candidate's vote count accumulates τ(S) from every claim,
        scaled by the hierarchy support weight; the posterior for a
        candidate is a logistic over its votes against the unobserved-value
        baseline, which deliberately does *not* normalise across candidates
        (a chain of compatible values may all be true).
        """
        n_false = self.config.n_false_values
        posteriors: dict[Triple, float] = {}
        for candidate in claims:
            votes = 0.0
            for claimed, provs in claims.items():
                weight = self._support_weight(claimed, candidate)
                if weight <= 0.0:
                    continue
                for prov in provs:
                    accuracy = _clamp(accuracies[prov])
                    votes += weight * math.log(
                        n_false * accuracy / (1.0 - accuracy)
                    )
            # Logistic against N uniformly-likely false values.
            posteriors[candidate] = 1.0 / (1.0 + n_false * math.exp(-votes))
        return posteriors

    # ------------------------------------------------------------------
    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        # executor accepted per the Fuser contract; this fuser runs in-process.
        config = self.config
        matrix = dict_claims(fusion_input, config.granularity)
        accuracies = {
            prov: config.default_accuracy for prov in matrix.prov_triples
        }

        posteriors: dict[Triple, float] = {}
        rounds = 0
        converged = False
        for _round in range(config.max_rounds):
            posteriors = {}
            for item, triple_map in matrix.items.items():
                posteriors.update(
                    self._item_posteriors(
                        {t: set(p) for t, p in triple_map.items()}, accuracies
                    )
                )
            delta = 0.0
            by_prov: dict[ProvKey, list[float]] = defaultdict(list)
            for item, triple_map in matrix.items.items():
                for triple, provs in triple_map.items():
                    for prov in provs:
                        by_prov[prov].append(posteriors[triple])
            for prov, values in by_prov.items():
                new_accuracy = sum(values) / len(values)
                delta = max(delta, abs(new_accuracy - accuracies[prov]))
                accuracies[prov] = new_accuracy
            rounds += 1
            if delta < config.convergence_tol:
                converged = True
                break

        result = FusionResult(
            method=self.name,
            probabilities=posteriors,
            accuracies=accuracies,
            rounds=rounds,
            converged=converged,
            diagnostics={"n_items": len(matrix.items)},
        )
        result.validate()
        return result


# ---------------------------------------------------------------------------
# Verbatim from src/repro/fusion/extensions/confidence.py at 344e2b2
# ---------------------------------------------------------------------------


class ConfidenceWeightedFuser(Fuser):
    """ACCU with per-extractor rank-normalised confidence weights."""

    @property
    def name(self) -> str:
        return "CONFACCU"

    def _normalised_weights(
        self, fusion_input: FusionInput
    ) -> dict[tuple[Triple, tuple], float]:
        """Weight per (triple, provenance) claim in [0.05, 1.0]."""
        by_extractor: dict[str, list[float]] = defaultdict(list)
        for record in fusion_input.records:
            if record.confidence is not None:
                by_extractor[record.extractor].append(record.confidence)
        sorted_confidences = {
            extractor: sorted(values) for extractor, values in by_extractor.items()
        }
        weights: dict[tuple[Triple, tuple], float] = {}
        for record in fusion_input.records:
            key = (record.triple, provenance_key(record, self.config.granularity))
            if record.confidence is None:
                weight = 0.5
            else:
                ranks = sorted_confidences[record.extractor]
                position = bisect.bisect_right(ranks, record.confidence)
                weight = max(0.05, position / len(ranks))
            # A claim backed by several records keeps its best weight.
            weights[key] = max(weights.get(key, 0.0), weight)
        return weights

    def fuse(self, fusion_input: FusionInput, executor=None) -> FusionResult:
        # executor accepted per the Fuser contract; this fuser runs in-process.
        config = self.config
        matrix = dict_claims(fusion_input, config.granularity)
        weights = self._normalised_weights(fusion_input)
        accuracies = {prov: config.default_accuracy for prov in matrix.prov_triples}
        n_false = config.n_false_values

        def item_posteriors(
            item: DataItem, triple_map
        ) -> dict[Triple, float]:
            vote_counts: dict[Triple, float] = {}
            for triple, provs in triple_map.items():
                votes = 0.0
                for prov in provs:
                    accuracy = _clamp(accuracies[prov])
                    weight = weights.get((triple, prov), 0.5)
                    votes += weight * math.log(
                        n_false * accuracy / (1.0 - accuracy)
                    )
                vote_counts[triple] = votes
            k = len(vote_counts)
            peak = max(max(vote_counts.values()), 0.0)
            denominator = sum(
                math.exp(v - peak) for v in vote_counts.values()
            ) + max(n_false + 1 - k, 0) * math.exp(-peak)
            return {
                triple: math.exp(v - peak) / denominator
                for triple, v in vote_counts.items()
            }

        posteriors: dict[Triple, float] = {}
        rounds = 0
        converged = False
        for _round in range(config.max_rounds):
            posteriors = {}
            for item, triple_map in matrix.items.items():
                posteriors.update(item_posteriors(item, triple_map))
            delta = 0.0
            sums: dict = defaultdict(float)
            totals: dict = defaultdict(float)
            for prov, triples in matrix.prov_triples.items():
                for triple in triples:
                    weight = weights.get((triple, prov), 0.5)
                    sums[prov] += weight * posteriors[triple]
                    totals[prov] += weight
            for prov in matrix.prov_triples:
                if totals[prov] > 0:
                    new_accuracy = sums[prov] / totals[prov]
                    delta = max(delta, abs(new_accuracy - accuracies[prov]))
                    accuracies[prov] = new_accuracy
            rounds += 1
            if delta < config.convergence_tol:
                converged = True
                break

        result = FusionResult(
            method=self.name,
            probabilities=posteriors,
            accuracies=accuracies,
            rounds=rounds,
            converged=converged,
            diagnostics={"n_items": len(matrix.items)},
        )
        result.validate()
        return result
