"""Figure 11 — provenance selection (filtering).

POPACCU with no filtering, with the coverage filter (ByCov), and with
coverage + accuracy filtering at θ ∈ {0.1, 0.3, 0.5, 0.7, 0.9}
(ByCovAccu).  The paper: ByCov smooths the calibration curve but leaves
8.2% of triples unpredicted; θ=0.1 already improves weighted deviation,
and beyond θ=0.5 even AUC-PR drops.
"""

from __future__ import annotations

from dataclasses import replace

from repro.datasets.scenario import Scenario
from repro.experiments.common import metrics_for
from repro.experiments.registry import ExperimentResult
from repro.fusion import FusionConfig, popaccu
from repro.report import format_table

EXPERIMENT_ID = "fig11"
TITLE = "Figure 11: provenance selection by coverage and accuracy"

THETAS = (0.1, 0.3, 0.5, 0.7, 0.9)


def run(scenario: Scenario) -> ExperimentResult:
    fusion_input = scenario.fusion_input()
    configs = [("NOFILTERING", FusionConfig())]
    configs.append(("BYCOV", replace(FusionConfig(), filter_by_coverage=True)))
    for theta in THETAS:
        configs.append(
            (
                f"BYCOVACCU (theta={theta})",
                replace(
                    FusionConfig(), filter_by_coverage=True, min_accuracy=theta
                ),
            )
        )
    rows = []
    data = {}
    for label, config in configs:
        result = popaccu(config).fuse(fusion_input)
        metrics = metrics_for(result, scenario.gold, result.coverage())
        rows.append(
            (label, metrics.dev, metrics.wdev, metrics.auc_pr, result.coverage())
        )
        data[label] = {
            "dev": metrics.dev,
            "wdev": metrics.wdev,
            "auc_pr": metrics.auc_pr,
            "predicted_share": result.coverage(),
        }
    text = format_table(
        ("selection", "Dev.", "WDev.", "AUC-PR", "predicted"),
        rows,
        title=TITLE,
        float_digits=4,
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data=data
    )


CHECKS = {
    "bycov_filters_some": lambda d: d["BYCOV"]["predicted_share"] < 1.0,
    "nofiltering_predicts_all": lambda d: d["NOFILTERING"]["predicted_share"] == 1.0,
}
