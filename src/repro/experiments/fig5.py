"""Figure 5 — accuracy gap between best and worst extractor per page.

"We consider an extractor for a Web source only if it extracts at least 5
triples from that source … for a Web page the difference between the
accuracy of the best extractor and that of the worst one is 0.32 on
average, and above 0.5 for 21% of the Web pages."
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.datasets.scenario import Scenario
from repro.eval.stats import triple_labels
from repro.experiments.registry import ExperimentResult
from repro.report import format_series

EXPERIMENT_ID = "fig5"
TITLE = "Figure 5: best-vs-worst extractor accuracy gap per page"

MIN_TRIPLES = 5
BUCKETS = ((0.0, "0"), (0.0001, "0-.1"), (0.1, ".1-.2"), (0.2, ".2-.3"),
           (0.3, ".3-.4"), (0.4, ".4-.5"), (0.5, ">.5"))


def run(scenario: Scenario) -> ExperimentResult:
    cols = scenario.records.columns
    truth = triple_labels(scenario.records, scenario.gold)[cols.codes[:, 0]]
    labelled = truth >= 0
    per_page: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    url, extractor = cols.codes[labelled, 2].tolist(), cols.codes[labelled, 1].tolist()
    for page, name, label in zip(url, extractor, truth[labelled].tolist()):
        per_page[page][name].append(label)

    gaps: list[float] = []
    for by_extractor in per_page.values():
        accuracies = [
            sum(labels) / len(labels)
            for labels in by_extractor.values()
            if len(labels) >= MIN_TRIPLES
        ]
        if len(accuracies) >= 2:
            gaps.append(max(accuracies) - min(accuracies))

    shares = {label: 0 for _edge, label in BUCKETS}
    for gap in gaps:
        chosen = BUCKETS[0][1]
        for edge, label in BUCKETS:
            if gap >= edge:
                chosen = label
        if gap == 0.0:
            chosen = "0"
        shares[chosen] += 1
    total = max(1, len(gaps))
    points = [(label, count / total) for label, count in shares.items()]
    mean_gap = float(np.mean(gaps)) if gaps else 0.0
    above_half = sum(1 for g in gaps if g > 0.5) / total

    text = (
        format_series(TITLE, points, "accuracy difference", "share of pages")
        + f"\n\npages compared: {len(gaps)}"
        + f"\nmean gap: {mean_gap:.2f} (paper: 0.32)"
        + f"\ngap > 0.5: {above_half:.0%} (paper: 21%)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={
            "gaps": gaps,
            "histogram": points,
            "mean_gap": mean_gap,
            "share_above_half": above_half,
        },
    )


CHECKS = {
    "mean_gap_above_tenth": lambda d: d["mean_gap"] > 0.1,  # paper: 0.32
    "some_gap_above_half": lambda d: d["share_above_half"] > 0.0,  # paper: 21%
}
