"""Table 2 — per-extractor volume and quality.

For each of the 12 extractors: #records, #unique triples, #pages
extracted from, #patterns (pattern-based extractors only), accuracy of its
labelled unique triples, and accuracy restricted to extractions with
confidence ≥ 0.7 — the paper's signature spread from 0.09 (DOM2) to 0.78
(TXT4).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.profiles import EXTRACTOR_PROFILES
from repro.datasets.scenario import Scenario
from repro.experiments.common import unique_triple_accuracy
from repro.experiments.registry import ExperimentResult
from repro.report import format_table

EXPERIMENT_ID = "table2"
TITLE = "Table 2: extractor volume and extraction quality"

CONFIDENCE_THRESHOLD = 0.7


def run(scenario: Scenario) -> ExperimentResult:
    cols = scenario.records.columns
    triple, extractor, url = cols.codes[:, :3].T
    triples = scenario.records.triple_objects()
    confident = cols.has_confidence & (cols.confidence >= CONFIDENCE_THRESHOLD)
    code_of = {name: code for code, name in enumerate(cols.strings)}

    def accuracy_of(rows) -> float | None:
        unique = map(triples.__getitem__, np.unique(triple[rows]).tolist())
        return unique_triple_accuracy(unique, scenario.gold)[1]

    rows = []
    data = {}
    for name in [p.name for p in EXTRACTOR_PROFILES]:
        mine = extractor == code_of.get(name, -1)
        n_records = int(np.count_nonzero(mine))
        n_triples = len(np.unique(triple[mine]))
        n_pages = len(np.unique(url[mine]))
        n_patterns = getattr(scenario.pipeline.by_name(name), "n_patterns", None)
        accuracy = accuracy_of(mine)
        conf_accuracy = accuracy_of(mine & confident)
        has_conf = bool(cols.has_confidence[mine].any())
        rows.append(
            (
                name,
                n_records,
                n_triples,
                n_pages,
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
            "records": n_records,
            "unique_triples": n_triples,
            "pages": n_pages,
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
