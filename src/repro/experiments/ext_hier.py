"""§5 direction 4 — hierarchical value spaces.

HIERACCU lets a claim of a value partly support its ancestors and
descendants in the value hierarchy; ACCU treats them as rivals.  Recall
is scored against world truth: LCWA labels a true-but-general value
false, the very artifact this direction fixes.
"""

from __future__ import annotations

from repro.datasets.scenario import Scenario
from repro.experiments.common import metrics_for, standard_fusion_results
from repro.experiments.registry import ExperimentResult
from repro.fusion import FusionConfig
from repro.fusion.extensions import HierarchicalFuser
from repro.report import format_table

EXPERIMENT_ID = "ext_hier"
TITLE = EXPERIMENT_ID


def run(scenario: Scenario) -> ExperimentResult:
    world = scenario.world
    hier = HierarchicalFuser(
        world.schema, world.hierarchy, FusionConfig(max_rounds=3)
    ).fuse(scenario.fusion_input())
    baseline = standard_fusion_results(scenario)["ACCU"]

    def hierarchical_recall(probabilities) -> float:
        hits = total = 0
        for triple, probability in probabilities.items():
            predicate = world.schema.predicates.get(triple.predicate)
            if predicate is None or not predicate.hierarchical:
                continue
            if world.is_true(triple):  # exact or true generalisation
                total += 1
                hits += probability > 0.5
        return hits / total if total else 0.0

    recall = {
        "HIERACCU": hierarchical_recall(hier.probabilities),
        "ACCU": hierarchical_recall(baseline.probabilities),
    }
    rows = [
        ("HIERACCU", *metrics_for(hier, scenario.gold).row()),
        ("ACCU", *metrics_for(baseline, scenario.gold).row()),
    ]
    text = (
        format_table(
            ("model", "Dev.", "WDev.", "AUC-PR"), rows, title=TITLE, float_digits=4
        )
        + "\nrecall of true (incl. generalised) hierarchical values at p>0.5: "
        + f"HIERACCU={recall['HIERACCU']:.3f} ACCU={recall['ACCU']:.3f}"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data={"recall": recall}
    )


CHECKS = {
    "hieraccu_keeps_recall": lambda d: d["recall"]["HIERACCU"] >= d["recall"]["ACCU"],
}
