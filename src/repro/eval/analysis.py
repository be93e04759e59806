"""Automated error analysis (the paper's §4.4 / Figure 17).

The paper manually inspected 20 false positives and 20 false negatives of
POPACCU+.  The synthetic scenario knows the true cause of every error, so
the same categorisation is computed exhaustively:

False positives (high predicted probability, gold says false):

- ``common_extraction_error`` — the triple is false in the world and its
  records carry injected extraction errors (sub-categorised into triple
  identification / entity linkage / predicate linkage);
- ``source_error`` — the triple is false but was genuinely asserted by
  pages (the paper found only 4% of these among sampled false triples);
- ``closed_world_assumption`` — the triple is *true* in the world but
  Freebase lacks it: an additional correct value for a non-functional
  item;
- ``more_specific_value`` / ``more_general_value`` — true value related to
  Freebase's stored value through the containment hierarchy;
- ``wrong_value_in_freebase`` — the triple matches the world but Freebase
  stores an outright wrong value for the item.

False negatives (low predicted probability, gold says true):

- ``multiple_truths`` — the data item has several true values and the
  single-truth assumption gave the mass to a sibling;
- ``specific_general`` — a hierarchy-related sibling took the mass;
- ``low_support`` — everything else (too few provenances to win).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.datasets.scenario import Scenario
from repro.errors import EvaluationError
from repro.extract.records import ErrorKind
from repro.kb.triples import Triple
from repro.kb.values import EntityRef

__all__ = ["ErrorBreakdown", "analyze_errors"]


@dataclass
class ErrorBreakdown:
    """Categorised false positives and false negatives."""

    fp_threshold: float
    fn_threshold: float
    n_false_positives: int
    n_false_negatives: int
    fp_categories: Counter = field(default_factory=Counter)
    fp_extraction_kinds: Counter = field(default_factory=Counter)
    fn_categories: Counter = field(default_factory=Counter)
    fp_examples: dict[str, Triple] = field(default_factory=dict)
    fn_examples: dict[str, Triple] = field(default_factory=dict)

    def fp_shares(self) -> dict[str, float]:
        total = sum(self.fp_categories.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in sorted(self.fp_categories.items())}

    def fn_shares(self) -> dict[str, float]:
        total = sum(self.fn_categories.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in sorted(self.fn_categories.items())}


def _categorize_fp(
    scenario: Scenario, triple: Triple, kinds: list[int]
) -> tuple[str, ErrorKind | None]:
    """``kinds``: the error-kind codes of ``triple``'s records, in record order."""
    world = scenario.world
    freebase = scenario.freebase
    if world.is_true_exact(triple) or world.is_generalization(triple):
        stored = freebase.values_for(triple.data_item)
        truths = set(world.truth_values(triple.data_item))
        if stored and not (set(stored) & truths):
            # Freebase's value(s) for this item are not world truths at all.
            stored_general = any(
                isinstance(v, EntityRef)
                and any(
                    isinstance(t, EntityRef)
                    and world.hierarchy.is_ancestor(v.entity_id, t.entity_id)
                    for t in truths
                )
                for v in stored
            )
            if not stored_general:
                return "wrong_value_in_freebase", None
        if isinstance(triple.obj, EntityRef):
            for value in stored:
                if isinstance(value, EntityRef):
                    if world.hierarchy.is_ancestor(
                        value.entity_id, triple.obj.entity_id
                    ):
                        return "more_specific_value", None
                    if world.hierarchy.is_ancestor(
                        triple.obj.entity_id, value.entity_id
                    ):
                        return "more_general_value", None
        return "closed_world_assumption", None
    # Genuinely false in the world: extraction or source error?
    if kinds:
        top_kind = Counter(kinds).most_common(1)[0][0]
        return "common_extraction_error", tuple(ErrorKind)[top_kind]
    return "source_error", None


def _categorize_fn(scenario: Scenario, triple: Triple, gold_true_siblings) -> str:
    world = scenario.world
    siblings = [t for t in gold_true_siblings if t != triple]
    if isinstance(triple.obj, EntityRef):
        for sibling in siblings:
            if isinstance(sibling.obj, EntityRef) and world.hierarchy.related(
                triple.obj.entity_id, sibling.obj.entity_id
            ):
                return "specific_general"
    if siblings or world.truth_count(triple.data_item) > 1:
        return "multiple_truths"
    return "low_support"


def analyze_errors(
    scenario: Scenario,
    probabilities: dict[Triple, float],
    fp_threshold: float = 0.9,
    fn_threshold: float = 0.1,
) -> ErrorBreakdown:
    """Categorise every false positive / negative of ``probabilities``.

    A false positive is a triple predicted ≥ ``fp_threshold`` whose gold
    label is False; a false negative is predicted ≤ ``fn_threshold`` with
    gold label True (the paper sampled p=1.0 and p=0.0 triples; thresholds
    generalise that to non-degenerate sets).
    """
    if not 0.0 <= fn_threshold <= fp_threshold <= 1.0:
        raise EvaluationError(
            f"thresholds must satisfy 0 <= fn <= fp <= 1, got "
            f"({fn_threshold}, {fp_threshold})"
        )
    gold = scenario.gold
    # Each triple's records' extraction-error kinds, in record order.
    cols = scenario.records.columns
    rows = cols.has_debug & (cols.error_kind >= 0)
    triples = scenario.records.triple_objects()
    kinds_by_triple = defaultdict(list)
    for code, kind in zip(cols.codes[rows, 0].tolist(), cols.error_kind[rows].tolist()):
        kinds_by_triple[triples[code]].append(kind)
    gold_true_by_item: dict = defaultdict(list)
    for triple, label in gold.items():
        if label:
            gold_true_by_item[triple.data_item].append(triple)

    breakdown = ErrorBreakdown(
        fp_threshold=fp_threshold,
        fn_threshold=fn_threshold,
        n_false_positives=0,
        n_false_negatives=0,
    )
    for triple, probability in probabilities.items():
        label = gold.get(triple)
        if label is None:
            continue
        if probability >= fp_threshold and not label:
            breakdown.n_false_positives += 1
            category, kind = _categorize_fp(scenario, triple, kinds_by_triple[triple])
            breakdown.fp_categories[category] += 1
            if kind is not None:
                breakdown.fp_extraction_kinds[kind.value] += 1
            breakdown.fp_examples.setdefault(category, triple)
        elif probability <= fn_threshold and label:
            breakdown.n_false_negatives += 1
            category = _categorize_fn(
                scenario, triple, gold_true_by_item[triple.data_item]
            )
            breakdown.fn_categories[category] += 1
            breakdown.fn_examples.setdefault(category, triple)
    return breakdown
