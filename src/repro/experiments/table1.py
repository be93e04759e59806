"""Table 1 — overview of extracted knowledge.

Headline counts (#triples, #subjects, #predicates, #objects, #data items,
#types) plus the skew rows (mean / median / min / max of triples per type,
per entity, per predicate, per data item, and predicates per entity).
The paper's point is the *skew* — median far below mean everywhere — which
the synthetic corpus must reproduce for the sampling tricks (L) to matter.
"""

from __future__ import annotations

from collections import Counter

from repro.datasets.scenario import Scenario
from repro.eval.stats import skew_summary
from repro.experiments.registry import ExperimentResult
from repro.report import format_table

EXPERIMENT_ID = "table1"
TITLE = "Table 1: overview of extracted knowledge"


def run(scenario: Scenario) -> ExperimentResult:
    unique = scenario.unique_triples()
    subjects = {t.subject for t in unique}
    predicates = {t.predicate for t in unique}
    objects = {t.obj for t in unique}
    items = {t.data_item for t in unique}
    type_of = {
        e.entity_id: e.primary_type for e in scenario.world.entities
    }
    types = {type_of[s] for s in subjects if s in type_of}

    per_type = Counter(type_of.get(t.subject, "unknown") for t in unique)
    per_entity = Counter(t.subject for t in unique)
    per_predicate = Counter(t.predicate for t in unique)
    per_item = Counter(t.data_item for t in unique)
    # Distinct predicates per subject = data items per subject: one pass.
    preds_per_entity = Counter(item.subject for item in items)

    counts_rows = [
        ("#Extracted records", len(scenario.records)),
        ("#Triples (unique)", len(unique)),
        ("#Subjects (entities)", len(subjects)),
        ("#Predicates", len(predicates)),
        ("#Objects", len(objects)),
        ("#Data-items", len(items)),
        ("#Types", len(types)),
    ]
    skews = {
        "#Triples/type": skew_summary(list(per_type.values())),
        "#Triples/entity": skew_summary(list(per_entity.values())),
        "#Triples/predicate": skew_summary(list(per_predicate.values())),
        "#Triples/data-item": skew_summary(list(per_item.values())),
        "#Predicates/entity": skew_summary(list(preds_per_entity.values())),
    }
    skew_rows = [
        (name, s["mean"], s["median"], s["min"], s["max"])
        for name, s in skews.items()
    ]
    text = "\n\n".join(
        [
            format_table(("quantity", "value"), counts_rows, title=TITLE),
            format_table(
                ("distribution", "mean", "median", "min", "max"),
                skew_rows,
                float_digits=1,
            ),
        ]
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={
            "counts": dict(counts_rows),
            "skews": skews,
        },
    )


CHECKS = {
    "over_1000_unique_triples": lambda d: d["counts"]["#Triples (unique)"] > 1000,
    # The paper's hallmark: median far below mean (heavy head, long tail).
    "triples_per_entity_skewed": lambda d: (
        d["skews"]["#Triples/entity"]["median"] < d["skews"]["#Triples/entity"]["mean"]
    ),
}
