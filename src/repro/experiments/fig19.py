"""Figure 19 — Kappa correlation between extractor pairs.

Eq. (1) over every pair of the 12 extractors, split into pairs targeting
the same type of web content vs different types.  The paper: 53% of pairs
independent, a few weakly positive (shared techniques), 40% negatively
correlated — mostly cross-content pairs.
"""

from __future__ import annotations

from itertools import combinations

from repro.datasets.profiles import EXTRACTOR_PROFILES
from repro.datasets.scenario import Scenario
from repro.eval.kappa import kappa
from repro.eval.stats import triple_sets
from repro.experiments.registry import ExperimentResult
from repro.report import format_table

EXPERIMENT_ID = "fig19"
TITLE = "Figure 19: Kappa measure between extractor pairs"

INDEPENDENCE_BAND = 0.01


def run(scenario: Scenario) -> ExperimentResult:
    triples_by_extractor = triple_sets(scenario.records, 1)
    universe = range(len(scenario.records.columns.triples))
    primary_content = {
        profile.name: profile.content_types[0]
        for profile in EXTRACTOR_PROFILES
    }

    rows = []
    same_type: list[float] = []
    cross_type: list[float] = []
    pair_values: dict[str, float] = {}
    for a, b in combinations(sorted(triples_by_extractor), 2):
        value = kappa(
            triples_by_extractor[a], triples_by_extractor[b], universe
        )
        pair_values[f"{a}/{b}"] = value
        same = primary_content.get(a) == primary_content.get(b)
        (same_type if same else cross_type).append(value)
        rows.append((f"{a}/{b}", "same" if same else "different", value))

    def summarize(values: list[float]) -> dict[str, float]:
        if not values:
            return {"n": 0, "positive": 0, "negative": 0, "independent": 0}
        return {
            "n": len(values),
            "positive": sum(1 for v in values if v > INDEPENDENCE_BAND),
            "negative": sum(1 for v in values if v < -INDEPENDENCE_BAND),
            "independent": sum(1 for v in values if abs(v) <= INDEPENDENCE_BAND),
        }

    same_summary = summarize(same_type)
    cross_summary = summarize(cross_type)
    summary_rows = [
        ("same content type", same_summary["n"], same_summary["positive"],
         same_summary["negative"], same_summary["independent"]),
        ("different content type", cross_summary["n"], cross_summary["positive"],
         cross_summary["negative"], cross_summary["independent"]),
    ]
    text = "\n\n".join(
        [
            format_table(
                ("group", "#pairs", "positive", "negative", "independent"),
                summary_rows,
                title=TITLE,
            ),
            format_table(("pair", "content", "kappa"), rows, float_digits=4),
        ]
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={
            "pairs": pair_values,
            "same_type": same_summary,
            "cross_type": cross_summary,
        },
    )


CHECKS = {
    "counts_partition_pairs": lambda d: (
        d["same_type"]["n"] + d["cross_type"]["n"] == len(d["pairs"])
    ),
    "some_cross_type_negative": lambda d: d["cross_type"]["negative"] > 0,
}
