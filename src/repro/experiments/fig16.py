"""Figure 16 — distribution of predicted probabilities under POPACCU+.

The paper: "most of the triples have very high or very low probabilities:
70% triples are predicted with a probability of lower than 0.1, while 10%
triples are predicted with a probability of over 0.9."
"""

from __future__ import annotations

from repro.datasets.scenario import Scenario
from repro.eval.stats import probability_histogram
from repro.experiments.common import standard_fusion_results
from repro.experiments.registry import ExperimentResult
from repro.report import format_series

EXPERIMENT_ID = "fig16"
TITLE = "Figure 16: distribution of predicted probabilities (POPACCU+)"


def run(scenario: Scenario) -> ExperimentResult:
    result = standard_fusion_results(scenario)["POPACCU+"]
    histogram = probability_histogram(result.probabilities, n_buckets=10)
    low = sum(
        share for bucket, share in histogram if bucket < 0.1
    )
    high = sum(share for bucket, share in histogram if bucket >= 0.9)
    text = (
        format_series(TITLE, histogram, "probability bucket", "share of triples")
        + f"\n\nshare with p < 0.1: {low:.0%} (paper: 70%)"
        + f"\nshare with p >= 0.9: {high:.0%} (paper: 10%)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"histogram": histogram, "share_low": low, "share_high": high},
    )


CHECKS = {
    # The paper sees 80% of triples below 0.1 or above 0.9; polarisation
    # is weaker at laptop scale (fewer provenances per item), so the
    # check asserts the direction, not the paper's magnitude.
    "polarised": lambda d: d["share_low"] + d["share_high"] > 0.3,
    "low_outweighs_high": lambda d: d["share_low"] > d["share_high"],
}
