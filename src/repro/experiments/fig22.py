"""Figure 22 — triple coverage when filtering by confidence.

"even using a threshold as low as 0.1, we already lose 15% of the
extracted triples" — the reason simple confidence filtering is not a
substitute for fusion.
"""

from __future__ import annotations

from repro.datasets.scenario import Scenario
from repro.eval.stats import coverage_by_confidence_threshold
from repro.experiments.registry import ExperimentResult
from repro.report import format_series

EXPERIMENT_ID = "fig22"
TITLE = "Figure 22: coverage by confidence threshold"


def run(scenario: Scenario) -> ExperimentResult:
    points = coverage_by_confidence_threshold(scenario.records)
    text = format_series(TITLE, points, "confidence threshold", "coverage")
    at_01 = dict(points).get(0.1)
    if at_01 is not None:
        text += f"\n\ncoverage at threshold 0.1: {at_01:.0%} (paper: ~85%)"
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"points": points},
    )


CHECKS = {
    # Even theta = 0.1 already loses triples.
    "low_theta_loses_triples": lambda d: dict(d["points"])[0.1] < 1.0,
    "higher_theta_loses_more": lambda d: (
        dict(d["points"])[0.9] < dict(d["points"])[0.1]
    ),
}
