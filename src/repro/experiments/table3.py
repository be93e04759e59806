"""Table 3 — functional vs. non-functional predicates.

The paper: 72% of predicates (76% of data items, 68% of triples) are
non-functional, with accuracy 0.25 vs 0.18 for functional ones — the
evidence that the single-truth assumption is formally wrong for most of
the data, yet (per Figure 20) rarely harmful.
"""

from __future__ import annotations

from repro.datasets.scenario import Scenario
from repro.experiments.common import unique_triple_accuracy
from repro.experiments.registry import ExperimentResult
from repro.report import format_table

EXPERIMENT_ID = "table3"
TITLE = "Table 3: functional vs non-functional predicates"


def run(scenario: Scenario) -> ExperimentResult:
    schema = scenario.world.schema
    unique = scenario.unique_triples()

    def bucket(functional: bool) -> dict:
        pids = {
            pid
            for pid, predicate in schema.predicates.items()
            if predicate.functional is functional
        }
        triples = [t for t in unique if t.predicate in pids]
        items = {t.data_item for t in triples}
        _n, accuracy = unique_triple_accuracy(triples, scenario.gold)
        return {
            "predicates": len(pids),
            "data_items": len(items),
            "triples": len(triples),
            "accuracy": accuracy,
        }

    functional = bucket(True)
    non_functional = bucket(False)
    total = {
        key: functional[key] + non_functional[key]
        for key in ("predicates", "data_items", "triples")
    }

    def share(row: dict, key: str) -> float:
        return row[key] / total[key] if total[key] else 0.0

    rows = []
    for label, row in (("Functional", functional), ("Non-functional", non_functional)):
        rows.append(
            (
                label,
                f"{share(row, 'predicates'):.0%}",
                f"{share(row, 'data_items'):.0%}",
                f"{share(row, 'triples'):.0%}",
                f"{row['accuracy']:.2f}" if row["accuracy"] is not None else "-",
            )
        )
    text = format_table(
        ("type", "predicates", "data items", "triples", "accuracy"),
        rows,
        title=TITLE,
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"functional": functional, "non_functional": non_functional},
    )


CHECKS = {
    "mostly_non_functional": lambda d: (
        d["non_functional"]["predicates"] > d["functional"]["predicates"]
    ),
}
