"""The full knowledge-fusion pipeline at laptop scale.

Recreates the paper's end-to-end flow on a synthetic web:

1. generate a ground-truth world and a Freebase-like snapshot;
2. generate a web corpus (sites, pages, source errors, copying);
3. run all 12 extractors over the rendered content;
4. build the LCWA gold standard;
5. fuse with the five models of the paper (VOTE, ACCU, POPACCU,
   POPACCU+(unsup), POPACCU+) and report calibration and AUC-PR;
6. show a slice of the calibration curve for the best model.

Run:  python examples/knowledge_vault_pipeline.py [--scale tiny|small]
"""

import argparse
import time

from repro.datasets import build_scenario, small_config, tiny_config
from repro.eval.calibration import calibration_curve
from repro.experiments.common import metrics_for, standard_fusion_results
from repro.report import format_table


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", choices=("tiny", "small"), default="tiny")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = (tiny_config if args.scale == "tiny" else small_config)(seed=args.seed)
    started = time.time()
    scenario = build_scenario(config)
    stats = scenario.extraction_stats()
    print(
        f"scenario built in {time.time() - started:.1f}s: "
        f"{stats['extracted_records']} extraction records, "
        f"{stats['unique_triples']} unique triples, "
        f"{stats['data_items']} data items"
    )
    print(
        f"gold standard: {stats['gold_coverage']:.0%} of triples labelled, "
        f"{stats['gold_accuracy']:.0%} of labelled triples true "
        f"(paper: 40% / ~30%)\n"
    )

    results = standard_fusion_results(scenario)
    rows = []
    for name, result in results.items():
        metrics = metrics_for(result, scenario.gold)
        rows.append(
            (name, metrics.dev, metrics.wdev, metrics.auc_pr, result.coverage())
        )
    print(
        format_table(
            ("method", "Dev.", "WDev.", "AUC-PR", "predicted"),
            rows,
            title="Fusion quality (cf. paper Figures 9/13/15)",
            float_digits=4,
        )
    )

    best = results["POPACCU+"]
    curve = calibration_curve(best, scenario.gold)
    print("\nPOPACCU+ calibration (predicted -> real, non-empty buckets):")
    for bucket in curve.buckets:
        if bucket.count:
            bar = "#" * round(bucket.real * 30)
            print(
                f"  [{bucket.low:4.2f},{bucket.high:4.2f})  "
                f"n={bucket.count:5d}  pred={bucket.predicted:.2f}  "
                f"real={bucket.real:.2f}  {bar}"
            )


if __name__ == "__main__":
    main()
