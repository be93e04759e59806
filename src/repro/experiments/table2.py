"""Table 2 — per-extractor volume and quality.

For each of the 12 extractors: #records, #unique triples, #pages
extracted from, #patterns (pattern-based extractors only), accuracy of its
labelled unique triples, and accuracy restricted to extractions with
confidence ≥ 0.7 — the paper's signature spread from 0.09 (DOM2) to 0.78
(TXT4).
"""

from __future__ import annotations

from collections import defaultdict

from repro.datasets.profiles import EXTRACTOR_PROFILES
from repro.datasets.scenario import Scenario
from repro.experiments.common import unique_triple_accuracy
from repro.experiments.registry import ExperimentResult
from repro.report import format_table

EXPERIMENT_ID = "table2"
TITLE = "Table 2: extractor volume and extraction quality"

CONFIDENCE_THRESHOLD = 0.7


def run(scenario: Scenario) -> ExperimentResult:
    by_extractor: dict[str, list] = defaultdict(list)
    for record in scenario.records:
        by_extractor[record.extractor].append(record)

    rows = []
    data = {}
    order = [p.name for p in EXTRACTOR_PROFILES]
    for name in order:
        records = by_extractor.get(name, [])
        triples = {r.triple for r in records}
        pages = {r.url for r in records}
        extractor = scenario.pipeline.by_name(name)
        n_patterns = getattr(extractor, "n_patterns", None)
        _n, accuracy = unique_triple_accuracy(triples, scenario.gold)
        confident = {
            r.triple
            for r in records
            if r.confidence is not None and r.confidence >= CONFIDENCE_THRESHOLD
        }
        _n_conf, conf_accuracy = unique_triple_accuracy(confident, scenario.gold)
        has_conf = any(r.confidence is not None for r in records)
        rows.append(
            (
                name,
                len(records),
                len(triples),
                len(pages),
                n_patterns if n_patterns is not None else "no pat.",
                f"{accuracy:.2f}" if accuracy is not None else "-",
                (
                    f"{conf_accuracy:.2f}"
                    if conf_accuracy is not None
                    else ("no conf." if not has_conf else "-")
                ),
            )
        )
        data[name] = {
            "records": len(records),
            "unique_triples": len(triples),
            "pages": len(pages),
            "patterns": n_patterns,
            "accuracy": accuracy,
            "accuracy_confident": conf_accuracy,
        }
    text = format_table(
        (
            "extractor",
            "#records",
            "#triples",
            "#pages",
            "#patterns",
            "accu",
            f"accu(conf>={CONFIDENCE_THRESHOLD})",
        ),
        rows,
        title=TITLE,
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data=data
    )


CHECKS = {
    "twelve_extractors": lambda d: len(d) == 12,
    # The quality spread: careful extractors far above sloppy ones.
    "txt4_far_above_dom2": lambda d: (
        d["TXT4"]["accuracy"] > d["DOM2"]["accuracy"] + 0.3
    ),
    # Volume ordering: DOM1 is the largest contributor, as in the paper.
    "dom1_contributes_most": lambda d: (
        d["DOM1"]["records"] == max(e["records"] for e in d.values())
    ),
}
