"""§5 direction 5 — votes weighted by the extractors' confidences.

CONFACCU weights each claim by its extraction confidence; ACCU counts
every claim alike.
"""

from __future__ import annotations

from repro.datasets.scenario import Scenario
from repro.experiments.common import metrics_for, standard_fusion_results
from repro.experiments.registry import ExperimentResult
from repro.fusion import FusionConfig
from repro.fusion.extensions import ConfidenceWeightedFuser
from repro.report import format_table

EXPERIMENT_ID = "ext_conf"
TITLE = EXPERIMENT_ID


def run(scenario: Scenario) -> ExperimentResult:
    conf = ConfidenceWeightedFuser(FusionConfig()).fuse(scenario.fusion_input())
    baseline = standard_fusion_results(scenario)["ACCU"]
    metrics = {
        "CONFACCU": metrics_for(conf.probabilities, scenario.gold),
        "ACCU": metrics_for(baseline.probabilities, scenario.gold),
    }
    text = format_table(
        ("model", "Dev.", "WDev.", "AUC-PR"),
        [(name, *m.row()) for name, m in metrics.items()],
        title=TITLE,
        float_digits=4,
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"auc_pr": {name: m.auc_pr for name, m in metrics.items()}},
    )


CHECKS = {
    "confaccu_near_accu": lambda d: (
        d["auc_pr"]["CONFACCU"] > d["auc_pr"]["ACCU"] - 0.05
    ),
}
