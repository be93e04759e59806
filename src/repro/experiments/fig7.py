"""Figure 7 — triple accuracy by the number of URLs.

Accuracy rises with the number of distinct URLs a triple is extracted
from, but fluctuates: common errors by the same extractor across many
sources produce well-supported false triples (the paper's dip at
[1K, 1.1K) URLs).  At laptop scale the URL counts are smaller, so the
buckets are geometric rather than width-100.
"""

from __future__ import annotations

from collections import defaultdict

from repro.datasets.scenario import Scenario
from repro.experiments.registry import ExperimentResult
from repro.report import format_table

EXPERIMENT_ID = "fig7"
TITLE = "Figure 7: triple accuracy by #URLs"

BUCKETS = (1, 2, 3, 4, 5, 8, 12, 20, 40, 80)


def run(scenario: Scenario) -> ExperimentResult:
    support = scenario.records.triple_support
    groups: dict[int, list[bool]] = defaultdict(list)
    for text, label in scenario.gold.items():
        if text not in support:
            continue
        urls = support[text]["urls"]
        bucket = BUCKETS[0]
        for edge in BUCKETS:
            if urls >= edge:
                bucket = edge
        groups[bucket].append(label)

    rows = []
    points = []
    for edge in BUCKETS:
        labels = groups.get(edge, [])
        if not labels:
            continue
        accuracy = sum(labels) / len(labels)
        rows.append((f">={edge}", len(labels), accuracy))
        points.append((edge, len(labels), accuracy))
    single = groups.get(1, [])
    single_accuracy = sum(single) / len(single) if single else None

    text = format_table(("#URLs bucket", "#triples", "accuracy"), rows, title=TITLE)
    if single_accuracy is not None:
        text += (
            f"\n\naccuracy of single-URL triples: {single_accuracy:.2f} (paper: ~0.3)"
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"points": points, "single_url_accuracy": single_accuracy},
    )


CHECKS = {
    "single_url_unreliable": lambda d: d["points"][0][2] < 0.6,
    "more_urls_more_accurate": lambda d: (
        max(a for _e, _n, a in d["points"]) > d["points"][0][2]
    ),
}
