"""Figure 4 — the distribution of per-predicate accuracy.

"44% of the predicates have very low accuracy (below 0.3), while 13% of
the predicates have fairly high accuracy (above 0.7)."  We histogram the
accuracy of each predicate's labelled unique triples into deciles.
"""

from __future__ import annotations

from collections import defaultdict

from repro.datasets.scenario import Scenario
from repro.experiments.common import unique_triple_accuracy
from repro.experiments.registry import ExperimentResult
from repro.report import format_series

EXPERIMENT_ID = "fig4"
TITLE = "Figure 4: distribution of predicate accuracy"

MIN_LABELLED = 5


def run(scenario: Scenario) -> ExperimentResult:
    by_predicate: dict[str, set] = defaultdict(set)
    for triple in scenario.unique_triples():
        by_predicate[triple.predicate].add(triple)

    accuracies: dict[str, float] = {}
    for predicate, triples in by_predicate.items():
        n, accuracy = unique_triple_accuracy(triples, scenario.gold)
        if accuracy is not None and n >= MIN_LABELLED:
            accuracies[predicate] = accuracy

    buckets = [0] * 11
    for accuracy in accuracies.values():
        buckets[min(int(accuracy * 10), 10)] += 1
    total = max(1, len(accuracies))
    points = [(f"{i / 10:.1f}", buckets[i] / total) for i in range(11)]
    low = sum(1 for a in accuracies.values() if a < 0.3) / total
    high = sum(1 for a in accuracies.values() if a > 0.7) / total

    text = (
        format_series(TITLE, points, "accuracy bucket", "share of predicates")
        + f"\n\npredicates with accuracy < 0.3: {low:.0%} (paper: 44%)"
        + f"\npredicates with accuracy > 0.7: {high:.0%} (paper: 13%)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={
            "per_predicate": accuracies,
            "histogram": points,
            "share_low": low,
            "share_high": high,
        },
    )


CHECKS = {
    "share_low_is_proper": lambda d: 0.0 < d["share_low"] < 1.0,
    "histogram_sums_to_one": lambda d: (
        abs(sum(share for _bucket, share in d["histogram"]) - 1.0) < 1e-9
    ),
}
