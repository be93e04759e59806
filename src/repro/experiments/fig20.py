"""Figure 20 — number of gold-standard truths per data item.

"For 70% of data items, all extracted triples are false; for 25% data
items, a single extracted triple is correct; and for only 3% data items
are two extracted triples correct" — the reason the single-truth
assumption does not hurt much in practice.
"""

from __future__ import annotations

from collections import Counter

from repro.datasets.scenario import Scenario
from repro.eval.stats import truth_count_distribution
from repro.experiments.registry import ExperimentResult
from repro.kb.triples import item_text
from repro.report import format_series

EXPERIMENT_ID = "fig20"
TITLE = "Figure 20: #truths per data item in the gold standard"


def run(scenario: Scenario) -> ExperimentResult:
    true_counts: Counter = Counter()
    labelled_items = set()
    for text, label in scenario.gold.items():
        item = item_text(text)
        labelled_items.add(item)
        if label:
            true_counts[item] += 1
    counts = [true_counts.get(item, 0) for item in labelled_items]
    distribution = truth_count_distribution(counts)
    text = format_series(TITLE, distribution, "#truths", "share of data items")
    zero = dict(distribution).get("0", 0.0)
    one = dict(distribution).get("1", 0.0)
    text += (
        f"\n\nitems with 0 truths: {zero:.0%} (paper: 70%)"
        f"\nitems with exactly 1 truth: {one:.0%} (paper: 25%)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"distribution": distribution, "share_zero": zero, "share_one": one},
    )


CHECKS = {
    # Items with 0 or 1 truths dominate (paper: 95%).
    "few_truths_dominate": lambda d: (
        dict(d["distribution"])["0"] + dict(d["distribution"])["1"] > 0.8
    ),
}
