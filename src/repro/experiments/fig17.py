"""Figure 17 — categorised reasons for POPACCU+ errors.

The paper manually categorised 20 false positives (8 common extraction
errors, 10 closed-world artifacts, 1 wrong Freebase value, 1 hard to
judge) and 20 false negatives (13 multiple truths, 7 specific/general
values).  The synthetic scenario knows the cause of every error, so the
categorisation here is exhaustive rather than sampled.
"""

from __future__ import annotations

from repro.datasets.scenario import Scenario
from repro.eval.analysis import analyze_errors
from repro.experiments.common import standard_fusion_results
from repro.experiments.registry import ExperimentResult
from repro.report import format_table

EXPERIMENT_ID = "fig17"
TITLE = "Figure 17: error categorisation for POPACCU+"


def run(scenario: Scenario) -> ExperimentResult:
    result = standard_fusion_results(scenario)["POPACCU+"]
    breakdown = analyze_errors(scenario, result.probabilities)

    fp_rows = [
        (category, count, f"{share:.0%}")
        for (category, count), share in zip(
            sorted(breakdown.fp_categories.items(), key=lambda kv: -kv[1]),
            [
                v
                for _k, v in sorted(
                    breakdown.fp_shares().items(),
                    key=lambda kv: -breakdown.fp_categories[kv[0]],
                )
            ],
        )
    ]
    fn_rows = [
        (category, count, f"{share:.0%}")
        for (category, count), share in zip(
            sorted(breakdown.fn_categories.items(), key=lambda kv: -kv[1]),
            [
                v
                for _k, v in sorted(
                    breakdown.fn_shares().items(),
                    key=lambda kv: -breakdown.fn_categories[kv[0]],
                )
            ],
        )
    ]
    kind_rows = [
        (kind, count)
        for kind, count in sorted(
            breakdown.fp_extraction_kinds.items(), key=lambda kv: -kv[1]
        )
    ]
    text = "\n\n".join(
        [
            format_table(
                ("false-positive cause", "count", "share"), fp_rows, title=TITLE
            ),
            format_table(("extraction-error kind", "count"), kind_rows),
            format_table(("false-negative cause", "count", "share"), fn_rows),
        ]
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={
            "n_false_positives": breakdown.n_false_positives,
            "n_false_negatives": breakdown.n_false_negatives,
            "fp_categories": dict(breakdown.fp_categories),
            "fp_extraction_kinds": dict(breakdown.fp_extraction_kinds),
            "fn_categories": dict(breakdown.fn_categories),
        },
    )


CHECKS = {
    "has_false_positives": lambda d: d["n_false_positives"] > 0,
    "has_false_negatives": lambda d: d["n_false_negatives"] > 0,
    "multiple_truths_explain_false_negatives": lambda d: (
        "multiple_truths" in d["fn_categories"]
    ),
}
