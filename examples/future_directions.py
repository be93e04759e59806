"""The §5 future directions, implemented and measured.

Runs the four extension fusers next to the paper's POPACCU+ on one
scenario and reports the same metrics, plus each extension's headline
diagnostic:

- SPLITQ: the per-extractor quality factors it learned (compare Table 2);
- MULTITRUTH: learned predicate functionality (spouse ~1, actor >> 1);
- HIERACCU: how many hierarchy-related value pairs both score high;
- CONFACCU: effect of confidence weighting vs plain ACCU.

Run:  python examples/future_directions.py
"""

from repro.datasets import build_scenario, tiny_config
from repro.experiments.common import metrics_for, standard_fusion_results
from repro.fusion import FusionConfig, accu
from repro.fusion.extensions import (
    ConfidenceWeightedFuser,
    HierarchicalFuser,
    MultiTruthFuser,
    SplitQualityFuser,
)
from repro.report import format_table


def main() -> None:
    scenario = build_scenario(tiny_config(seed=0))
    fusion_input = scenario.fusion_input()
    gold = scenario.gold

    runs = {}
    runs["POPACCU+"] = standard_fusion_results(scenario)["POPACCU+"]
    runs["ACCU"] = accu().fuse(fusion_input)
    runs["SPLITQ"] = SplitQualityFuser(FusionConfig()).fuse(fusion_input)
    runs["MULTITRUTH"] = MultiTruthFuser(FusionConfig(max_rounds=3)).fuse(
        fusion_input
    )
    runs["HIERACCU"] = HierarchicalFuser(
        scenario.world.schema, scenario.world.hierarchy, FusionConfig(max_rounds=3)
    ).fuse(fusion_input)
    runs["CONFACCU"] = ConfidenceWeightedFuser(FusionConfig()).fuse(fusion_input)

    rows = []
    for name, result in runs.items():
        metrics = metrics_for(result, gold)
        rows.append((name, metrics.dev, metrics.wdev, metrics.auc_pr))
    print(
        format_table(
            ("model", "Dev.", "WDev.", "AUC-PR"),
            rows,
            title="Future-direction fusers vs the paper's models",
            float_digits=4,
        )
    )

    quality = runs["SPLITQ"].diagnostics["extractor_quality"]
    print("\nSPLITQ learned extractor quality (direction 1):")
    for extractor, value in sorted(quality.items(), key=lambda kv: -kv[1]):
        print(f"  {extractor:6} {value:.2f}")

    functionality = runs["MULTITRUTH"].diagnostics["functionality"]
    print("\nMULTITRUTH learned functionality — expected #truths (direction 3):")
    interesting = sorted(functionality.items(), key=lambda kv: -kv[1])
    for pid, value in interesting[:5]:
        print(f"  {pid.rsplit('/', 1)[-1]:20} {value:.2f}")
    print("  ...")
    for pid, value in interesting[-3:]:
        print(f"  {pid.rsplit('/', 1)[-1]:20} {value:.2f}")

    # Direction 4: count items where a specific value and its ancestor both
    # end up plausible under the hierarchical fuser.
    both_high = 0
    by_item: dict = {}
    for triple, probability in runs["HIERACCU"].probabilities.items():
        by_item.setdefault(triple.data_item, []).append((triple, probability))
    hierarchy = scenario.world.hierarchy
    from repro.kb import EntityRef

    for item, scored in by_item.items():
        entities = [
            (t.obj.entity_id, p)
            for t, p in scored
            if isinstance(t.obj, EntityRef) and p > 0.5
        ]
        for i in range(len(entities)):
            for j in range(len(entities)):
                if i != j and hierarchy.is_ancestor(entities[i][0], entities[j][0]):
                    both_high += 1
    print(
        f"\nHIERACCU items where a value AND its ancestor both score > 0.5: "
        f"{both_high} (single-truth fusers force these to compete)"
    )


if __name__ == "__main__":
    main()
