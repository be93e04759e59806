"""Figure 15 — PR curves for the five models.

VOTE, ACCU, POPACCU, POPACCU+(unsup) and POPACCU+; the paper's finding is
that POPACCU+ dominates, with the unsupervised variant close behind.
"""

from __future__ import annotations

from repro.datasets.scenario import Scenario
from repro.eval.pr import auc_pr, pr_curve
from repro.experiments.common import standard_fusion_results
from repro.experiments.registry import ExperimentResult
from repro.report import format_table

EXPERIMENT_ID = "fig15"
TITLE = "Figure 15: PR curves for the five models"

SAMPLE_POINTS = 11


def run(scenario: Scenario) -> ExperimentResult:
    results = standard_fusion_results(scenario)
    rows = []
    data = {}
    for name, result in results.items():
        curve = pr_curve(result, scenario.gold)
        area = auc_pr(curve)
        # Downsample the curve at fixed recall grid for the report.
        sampled = []
        points = curve.points()
        for i in range(SAMPLE_POINTS):
            target = i / (SAMPLE_POINTS - 1)
            best = min(points, key=lambda rp: abs(rp[0] - target))
            sampled.append((round(best[0], 3), round(best[1], 3)))
        rows.append((name, area))
        data[name] = {"auc_pr": area, "curve": points, "sampled": sampled}
    text = format_table(("method", "AUC-PR"), rows, title=TITLE, float_digits=4)
    text += "\n\nrecall -> precision (sampled):"
    for name in data:
        pairs = ", ".join(f"{r:.2f}->{p:.2f}" for r, p in data[name]["sampled"])
        text += f"\n  {name}: {pairs}"
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data=data
    )


CHECKS = {
    "popaccu_plus_best_auc_pr": lambda d: (
        d["POPACCU+"]["auc_pr"] == max(m["auc_pr"] for m in d.values())
    ),
}
