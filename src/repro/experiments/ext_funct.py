"""§5 direction 3 — non-functional predicates may have several truths.

MULTITRUTH learns how functional each predicate is and drops the
single-truth assumption where it does not hold; POPACCU keeps it.  The
report compares the two, and their recall of the world's true values of
non-functional predicates.
"""

from __future__ import annotations

from repro.datasets.scenario import Scenario
from repro.experiments.common import metrics_for, standard_fusion_results
from repro.experiments.registry import ExperimentResult
from repro.fusion import FusionConfig
from repro.fusion.extensions import MultiTruthFuser
from repro.report import format_table

EXPERIMENT_ID = "ext_funct"
TITLE = EXPERIMENT_ID


def run(scenario: Scenario) -> ExperimentResult:
    world = scenario.world
    multi = MultiTruthFuser(FusionConfig(max_rounds=3)).fuse(scenario.fusion_input())
    baseline = standard_fusion_results(scenario)["POPACCU"]

    def non_functional_recall(probabilities) -> float:
        hits = total = 0
        for triple, probability in probabilities.items():
            predicate = world.schema.predicates.get(triple.predicate)
            if predicate is None or predicate.functional:
                continue
            if world.is_true_exact(triple):
                total += 1
                hits += probability > 0.5
        return hits / total if total else 0.0

    recall = {
        "MULTITRUTH": non_functional_recall(multi.probabilities),
        "POPACCU": non_functional_recall(baseline.probabilities),
    }
    functionality = multi.diagnostics["functionality"]
    rows = [
        ("MULTITRUTH", *metrics_for(multi.probabilities, scenario.gold).row()),
        ("POPACCU", *metrics_for(baseline.probabilities, scenario.gold).row()),
    ]
    text = (
        format_table(
            ("model", "Dev.", "WDev.", "AUC-PR"), rows, title=TITLE, float_digits=4
        )
        + "\nrecall of true non-functional values at p>0.5 (vs world truth): "
        + f"MULTITRUTH={recall['MULTITRUTH']:.3f} POPACCU={recall['POPACCU']:.3f}\n"
        + "learned functionality (top 3): "
        + ", ".join(
            f"{pid.rsplit('/', 1)[-1]}={v:.2f}"
            for pid, v in sorted(functionality.items(), key=lambda kv: -kv[1])[:3]
        )
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"recall": recall, "functionality": dict(functionality)},
    )


CHECKS = {
    # Dropping single-truth must not lose truths.
    "multitruth_keeps_recall": lambda d: (
        d["recall"]["MULTITRUTH"] >= d["recall"]["POPACCU"]
    ),
}
