"""Figure 13 — the cumulative refinements of §4.3.4.

POPACCU, then adding one change at a time: I. filter by coverage;
II. (Extractor, Site, Predicate, Pattern) granularity; III. filter by
accuracy (θ=0.5); IV. gold-standard initialisation.  The last row is
POPACCU+; the one before it is POPACCU+(unsup).
"""

from __future__ import annotations

from dataclasses import replace

from repro.datasets.scenario import Scenario
from repro.eval.calibration import calibration_curve
from repro.experiments.common import metrics_for
from repro.experiments.registry import ExperimentResult
from repro.fusion import FusionConfig, Granularity, PopAccu
from repro.report import format_table

EXPERIMENT_ID = "fig13"
TITLE = "Figure 13: cumulative refinements (POPACCU -> POPACCU+)"


def run(scenario: Scenario) -> ExperimentResult:
    fusion_input = scenario.fusion_input()
    base = FusionConfig()
    step2 = replace(base, filter_by_coverage=True)
    step3 = replace(
        step2, granularity=Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN
    )
    step4 = replace(step3, min_accuracy=0.5)
    steps = [
        ("POPACCU", base, None),
        ("+FilterByCov", step2, None),
        ("+AccuGranularity", step3, None),
        ("+FilterByAccu", step4, None),
        ("+GoldStandard", step4, scenario.gold),
    ]
    rows = []
    data = {}
    for label, config, gold in steps:
        result = PopAccu(config, gold_labels=gold).fuse(fusion_input)
        metrics = metrics_for(result.probabilities, scenario.gold, result.coverage())
        rows.append(
            (label, metrics.dev, metrics.wdev, metrics.auc_pr, result.coverage())
        )
        data[label] = {
            "dev": metrics.dev,
            "wdev": metrics.wdev,
            "auc_pr": metrics.auc_pr,
            "predicted_share": result.coverage(),
            "calibration_points": calibration_curve(
                result.probabilities, scenario.gold
            ).points(),
        }
    text = format_table(
        ("model", "Dev.", "WDev.", "AUC-PR", "predicted"),
        rows,
        title=TITLE,
        float_digits=4,
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data=data
    )


CHECKS = {
    "gold_lowers_wdev": lambda d: d["+GoldStandard"]["wdev"] < d["POPACCU"]["wdev"],
    "gold_raises_auc_pr": lambda d: (
        d["+GoldStandard"]["auc_pr"] > d["POPACCU"]["auc_pr"]
    ),
}
