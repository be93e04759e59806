"""Figure 9 — calibration of the three basic fusion methods.

Deviation / weighted deviation / AUC-PR for VOTE, ACCU and POPACCU at
(Extractor, URL) granularity, plus the two degenerate POPACCU flattenings
the paper diagnoses: provenance = extractor pattern only ("Only ext") and
provenance = URL only ("Only src").  Calibration-curve points are included
in the data for plotting.
"""

from __future__ import annotations

from dataclasses import replace

from repro.datasets.scenario import Scenario
from repro.eval.calibration import calibration_curve
from repro.experiments.common import metrics_for, standard_fusion_results
from repro.experiments.registry import ExperimentResult
from repro.fusion import FusionConfig, Granularity, popaccu
from repro.report import format_table

EXPERIMENT_ID = "fig9"
TITLE = "Figure 9: calibration of the basic fusion methods"


def run(scenario: Scenario) -> ExperimentResult:
    fusion_input = scenario.fusion_input()
    standard = standard_fusion_results(scenario)
    runs = {
        "VOTE": standard["VOTE"],
        "ACCU": standard["ACCU"],
        "POPACCU": standard["POPACCU"],
        "POPACCU (only ext)": popaccu(
            replace(FusionConfig(), granularity=Granularity.EXTRACTOR_PATTERN_ONLY)
        ).fuse(fusion_input),
        "POPACCU (only src)": popaccu(
            replace(FusionConfig(), granularity=Granularity.URL_ONLY)
        ).fuse(fusion_input),
    }
    rows = []
    data = {}
    for name, result in runs.items():
        metrics = metrics_for(result.probabilities, scenario.gold, result.coverage())
        curve = calibration_curve(result.probabilities, scenario.gold)
        rows.append((name, metrics.dev, metrics.wdev, metrics.auc_pr))
        data[name] = {
            "dev": metrics.dev,
            "wdev": metrics.wdev,
            "auc_pr": metrics.auc_pr,
            "calibration_points": curve.points(),
        }
    text = format_table(
        ("method", "Dev.", "WDev.", "AUC-PR"), rows, title=TITLE, float_digits=4
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data=data
    )


CHECKS = {
    "vote_lowest_auc_pr": lambda d: (
        d["VOTE"]["auc_pr"] == min(d[m]["auc_pr"] for m in ("VOTE", "ACCU", "POPACCU"))
    ),
}
