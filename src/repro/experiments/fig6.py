"""Figure 6 — triple accuracy by the number of extractors.

Accuracy rises with the number of distinct extractors supporting a triple,
with occasional dips caused by correlated extractors making the same
mistake (the paper sees a drop from 8 to 9 extractors).
"""

from __future__ import annotations

from repro.datasets.scenario import Scenario
from repro.eval.stats import accuracy_by_int, triple_support
from repro.experiments.registry import ExperimentResult
from repro.report import format_table

EXPERIMENT_ID = "fig6"
TITLE = "Figure 6: triple accuracy by #extractors"


def run(scenario: Scenario) -> ExperimentResult:
    support = triple_support(scenario.records)
    pairs = [
        (support[triple]["extractors"], label)
        for triple, label in scenario.gold.items()
        if triple in support
    ]
    points = accuracy_by_int(pairs, max_exact=9)
    rows = [(int(p.x), p.n, p.accuracy) for p in points]
    text = format_table(("#extractors", "#triples", "accuracy"), rows, title=TITLE)
    single = next((p.accuracy for p in points if p.x == 1), None)
    if single is not None:
        text += f"\n\naccuracy of single-extractor triples: {single:.2f} (paper: ~0.3)"
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"points": [(p.x, p.n, p.accuracy) for p in points]},
    )


def _four_extractors_beat_one(data: dict) -> bool:
    lows = [a for x, _n, a in data["points"] if x == 1]
    highs = [a for x, _n, a in data["points"] if x >= 4]
    return not highs or not lows or max(highs) > lows[0]


CHECKS = {
    "has_points": lambda d: bool(d["points"]),
    "four_extractors_beat_one": _four_extractors_beat_one,
}
