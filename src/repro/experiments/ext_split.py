"""§5 direction 1 — extractor quality factored apart from source quality.

SPLITQ models a claim's accuracy as extractor fidelity × source accuracy,
where ACCU learns one accuracy per (extractor, URL) provenance.  The
report compares the two and lists the learned extractor qualities.
"""

from __future__ import annotations

from repro.datasets.scenario import Scenario
from repro.experiments.common import metrics_for, standard_fusion_results
from repro.experiments.registry import ExperimentResult
from repro.fusion import FusionConfig
from repro.fusion.extensions import SplitQualityFuser
from repro.report import format_table

EXPERIMENT_ID = "ext_split"
TITLE = EXPERIMENT_ID


def run(scenario: Scenario) -> ExperimentResult:
    split = SplitQualityFuser(FusionConfig()).fuse(scenario.fusion_input())
    baseline = standard_fusion_results(scenario)["ACCU"]
    quality = split.diagnostics["extractor_quality"]
    rows = [
        ("SPLITQ", *metrics_for(split.probabilities, scenario.gold).row()),
        ("ACCU", *metrics_for(baseline.probabilities, scenario.gold).row()),
    ]
    text = (
        format_table(
            ("model", "Dev.", "WDev.", "AUC-PR"), rows, title=TITLE, float_digits=4
        )
        + "\nlearned extractor quality: "
        + ", ".join(
            f"{k}={v:.2f}" for k, v in sorted(quality.items(), key=lambda kv: -kv[1])
        )
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"extractor_quality": dict(quality)},
    )


CHECKS = {
    # The factored model must at least rank the sloppy extractor below
    # the careful ones.
    "dom2_below_dom3": lambda d: (
        d["extractor_quality"]["DOM2"] < d["extractor_quality"]["DOM3"]
    ),
    "dom2_below_txt4": lambda d: (
        d["extractor_quality"]["DOM2"] < d["extractor_quality"]["TXT4"]
    ),
}
