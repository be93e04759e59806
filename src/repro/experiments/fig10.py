"""Figure 10 — provenance granularity sweep.

POPACCU at the four provenance granularities of §4.3.1: (Extractor, URL),
(Extractor, Site), (Extractor, Site, Predicate), (Extractor, Site,
Predicate, Pattern).  The paper finds the finest granularity best
(weighted deviation down 13%, AUC-PR up 5% vs the default).
"""

from __future__ import annotations

from dataclasses import replace

from repro.datasets.scenario import Scenario
from repro.eval.calibration import calibration_curve
from repro.experiments.common import metrics_for
from repro.experiments.registry import ExperimentResult
from repro.fusion import FusionConfig, Granularity, popaccu
from repro.report import format_table

EXPERIMENT_ID = "fig10"
TITLE = "Figure 10: provenance granularity"

LEVELS = (
    ("(Extractor, URL)", Granularity.EXTRACTOR_URL),
    ("(Extractor, Site)", Granularity.EXTRACTOR_SITE),
    ("(Ext, Site, Pred)", Granularity.EXTRACTOR_SITE_PREDICATE),
    ("(Ext, Site, Pred, Pattern)", Granularity.EXTRACTOR_SITE_PREDICATE_PATTERN),
)


def run(scenario: Scenario) -> ExperimentResult:
    fusion_input = scenario.fusion_input()
    rows = []
    data = {}
    for label, granularity in LEVELS:
        result = popaccu(replace(FusionConfig(), granularity=granularity)).fuse(
            fusion_input
        )
        metrics = metrics_for(result, scenario.gold, result.coverage())
        curve = calibration_curve(result, scenario.gold)
        rows.append((label, metrics.dev, metrics.wdev, metrics.auc_pr))
        data[label] = {
            "dev": metrics.dev,
            "wdev": metrics.wdev,
            "auc_pr": metrics.auc_pr,
            "n_provenances": result.diagnostics["n_provenances"],
            "calibration_points": curve.points(),
        }
    text = format_table(
        ("granularity", "Dev.", "WDev.", "AUC-PR"), rows, title=TITLE, float_digits=4
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data=data
    )


CHECKS = {
    "four_granularities": lambda d: len(d) == 4,
    "granularity_changes_provenances": lambda d: (
        d["(Ext, Site, Pred, Pattern)"]["n_provenances"]
        != d["(Extractor, URL)"]["n_provenances"]
    ),
}
