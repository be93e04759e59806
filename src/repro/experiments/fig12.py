"""Figure 12 — leveraging the gold standard for initial accuracies.

POPACCU with provenance accuracies initialised from the LCWA gold standard
at sample rates 10/20/50/100% (vs the default-accuracy baseline).  The
paper: full-gold initialisation cuts weighted deviation by 21% and lifts
AUC-PR by 18%, and more gold is monotonically better.
"""

from __future__ import annotations

from dataclasses import replace

from repro.datasets.scenario import Scenario
from repro.eval.calibration import calibration_curve
from repro.experiments.common import metrics_for
from repro.experiments.registry import ExperimentResult
from repro.fusion import FusionConfig, PopAccu
from repro.report import format_table

EXPERIMENT_ID = "fig12"
TITLE = "Figure 12: initialising accuracies from the gold standard"

SAMPLE_RATES = (0.1, 0.2, 0.5, 1.0)


def run(scenario: Scenario) -> ExperimentResult:
    fusion_input = scenario.fusion_input()
    rows = []
    data = {}
    baseline = PopAccu(FusionConfig()).fuse(fusion_input)
    metrics = metrics_for(baseline, scenario.gold)
    rows.append(("POPACCU (default init)", metrics.dev, metrics.wdev, metrics.auc_pr))
    data["default"] = {
        "dev": metrics.dev,
        "wdev": metrics.wdev,
        "auc_pr": metrics.auc_pr,
        "calibration_points": calibration_curve(
            baseline, scenario.gold
        ).points(),
    }
    for rate in SAMPLE_RATES:
        config = replace(FusionConfig(), gold_sample_rate=rate)
        result = PopAccu(config, gold_labels=scenario.gold).fuse(fusion_input)
        metrics = metrics_for(result, scenario.gold)
        label = f"INITACCU ({rate:.0%})"
        rows.append((label, metrics.dev, metrics.wdev, metrics.auc_pr))
        data[f"{rate:.0%}"] = {
            "dev": metrics.dev,
            "wdev": metrics.wdev,
            "auc_pr": metrics.auc_pr,
            "gold_initialized": result.diagnostics["gold_initialized"],
            "calibration_points": calibration_curve(
                result, scenario.gold
            ).points(),
        }
    text = format_table(
        ("initialisation", "Dev.", "WDev.", "AUC-PR"),
        rows,
        title=TITLE,
        float_digits=4,
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data=data
    )


CHECKS = {
    "full_gold_beats_default": lambda d: d["100%"]["auc_pr"] > d["default"]["auc_pr"],
}
