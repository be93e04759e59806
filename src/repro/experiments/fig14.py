"""Figure 14 — convergence and the speed-up knobs.

Left: weighted deviation round by round, for default accuracy
initialisation vs gold-standard initialisation — the paper observes a big
move after round 1 with default init, near-flatness with gold init.
Right: the (L, R) table — sampling L=1K instead of 1M and terminating at
R=5 instead of 25 barely changes the measures.

The ``L`` row is vacuous at ``tiny`` and ``small``: L=1K draws only for a
data item with more than 1,000 claims, and the largest ``small`` item
holds 526, so ``L=1K, R=5`` prints the ``L=1M, R=5`` numbers.  Sampling
first engages at ``--scale medium`` (an item there holds 1,557 claims).
"""

from __future__ import annotations

from dataclasses import replace

from repro.datasets.scenario import Scenario
from repro.eval.calibration import calibration_curve, weighted_deviation
from repro.experiments.common import metrics_for
from repro.experiments.registry import ExperimentResult
from repro.fusion import FusionConfig
from repro.fusion.popaccu import PopAccuKernel
from repro.fusion.runner import run_bayesian_fusion
from repro.report import format_table

EXPERIMENT_ID = "fig14"
TITLE = "Figure 14: weighted deviation by round; sampling and round caps"


def _tracked_run(scenario, config, gold):
    return run_bayesian_fusion(
        fusion_input=scenario.fusion_input(),
        config=config,
        item_posterior_fn=PopAccuKernel(),
        method_name="POPACCU",
        gold_labels=gold,
        track_rounds=True,
    )


def run(scenario: Scenario) -> ExperimentResult:
    base = replace(FusionConfig(), convergence_tol=0.0)  # force all R rounds
    runs = {
        "DefaultAccu": _tracked_run(scenario, base, None),
        "InitAccuByGold": _tracked_run(scenario, base, scenario.gold),
    }
    round_rows = []
    per_round = {}
    for name, result in runs.items():
        wdevs = []
        for round_probs in result.diagnostics["round_probabilities"]:
            curve = calibration_curve(round_probs, scenario.gold)
            wdevs.append(weighted_deviation(curve))
        per_round[name] = wdevs
    for round_index in range(max(len(v) for v in per_round.values())):
        row = [round_index + 1]
        for name in runs:
            values = per_round[name]
            row.append(values[round_index] if round_index < len(values) else "-")
        round_rows.append(tuple(row))

    # The (L, R) table.
    lr_settings = [
        ("L=1M, R=5", replace(FusionConfig(), sample_limit=1_000_000, max_rounds=5)),
        ("L=1K, R=5", replace(FusionConfig(), sample_limit=1_000, max_rounds=5)),
        ("L=1M, R=25", replace(FusionConfig(), sample_limit=1_000_000, max_rounds=25)),
    ]
    lr_rows = []
    lr_data = {}
    for label, config in lr_settings:
        result = run_bayesian_fusion(
            fusion_input=scenario.fusion_input(),
            config=config,
            item_posterior_fn=PopAccuKernel(),
            method_name="POPACCU",
        )
        metrics = metrics_for(result.probabilities, scenario.gold)
        lr_rows.append((label, metrics.dev, metrics.wdev, metrics.auc_pr))
        lr_data[label] = {
            "dev": metrics.dev,
            "wdev": metrics.wdev,
            "auc_pr": metrics.auc_pr,
            "rounds_run": result.rounds,
        }

    text = "\n\n".join(
        [
            format_table(
                ("round", *runs.keys()), round_rows, title=TITLE, float_digits=4
            ),
            format_table(
                ("setting", "Dev.", "WDev.", "AUC-PR"), lr_rows, float_digits=4
            ),
        ]
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"per_round_wdev": per_round, "lr_table": lr_data},
    )


CHECKS = {
    "five_default_rounds": lambda d: len(d["per_round_wdev"]["DefaultAccu"]) == 5,
    "sampling_keeps_wdev": lambda d: (
        abs(d["lr_table"]["L=1K, R=5"]["wdev"] - d["lr_table"]["L=1M, R=5"]["wdev"])
        < 0.02
    ),
}
