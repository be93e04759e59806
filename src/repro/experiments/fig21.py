"""Figure 21 — coverage and accuracy by extraction confidence.

Four example extractors (TXT1, DOM2, TBL1, ANO) showing very different
confidence behaviour: DOM2/ANO assign extreme confidences, TXT1 clusters
around 0.5; TXT1/DOM2 confidences correlate with accuracy, ANO's do not,
and TBL1's accuracy peaks at *medium* confidence.
"""

from __future__ import annotations

from repro.datasets.scenario import Scenario
from repro.errors import EvaluationError
from repro.eval.stats import confidence_accuracy_curve, confidence_coverage_curve
from repro.experiments.registry import ExperimentResult
from repro.report import format_table

EXPERIMENT_ID = "fig21"
TITLE = "Figure 21: coverage and accuracy by extraction confidence"

EXTRACTORS = ("TXT1", "DOM2", "TBL1", "ANO")


def run(scenario: Scenario) -> ExperimentResult:
    data = {}
    coverage_rows = []
    accuracy_rows = []
    for name in EXTRACTORS:
        try:
            coverage = confidence_coverage_curve(scenario.records, name)
        except EvaluationError:
            # Tiny corpora may render no content for a niche extractor.
            data[name] = {"coverage": [], "accuracy": []}
            grid_size = 11
            coverage_rows.append((name, *["-"] * grid_size))
            accuracy_rows.append((name, *["-"] * (grid_size - 1)))
            continue
        accuracy = confidence_accuracy_curve(scenario.records, scenario.gold, name)
        data[name] = {
            "coverage": coverage,
            "accuracy": [(p.x, p.n, p.accuracy) for p in accuracy],
        }
        coverage_rows.append(
            (name, *[f"{share:.2f}" for _x, share in coverage])
        )
        accuracy_by_x = {p.x: p.accuracy for p in accuracy}
        accuracy_rows.append(
            (
                name,
                *[
                    f"{accuracy_by_x[x]:.2f}" if x in accuracy_by_x else "-"
                    for x in [i / 10 for i in range(10)]
                ],
            )
        )
    grid = [f"{i / 10:.1f}" for i in range(11)]
    text = "\n\n".join(
        [
            format_table(
                ("extractor", *grid),
                coverage_rows,
                title=TITLE + " — cumulative coverage (share with conf <= x)",
            ),
            format_table(
                ("extractor", *grid[:10]),
                accuracy_rows,
                title="accuracy by confidence bucket",
            ),
        ]
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data=data
    )


CHECKS = {
    "four_extractors": lambda d: set(d) == {"TXT1", "DOM2", "TBL1", "ANO"},
    # DOM2 reports extremes: most confidences at the edges.
    "dom2_reports_extremes": lambda d: dict(d["DOM2"]["coverage"])[0.1] > 0.3,
}
