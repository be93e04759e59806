"""Figure 3 — contributions and overlaps of the four content types.

Unique triples per content type (DOM dominates, then TXT, then ANO, then
TBL) and every pairwise overlap; the paper's observation is that the
overlaps are *small* relative to the contributions.
"""

from __future__ import annotations

from itertools import combinations

from repro.datasets.scenario import Scenario
from repro.eval.stats import triple_sets
from repro.experiments.registry import ExperimentResult
from repro.report import format_table

EXPERIMENT_ID = "fig3"
TITLE = "Figure 3: triple contribution and overlap by content type"

CONTENT_TYPES = ("TXT", "DOM", "TBL", "ANO")


def run(scenario: Scenario) -> ExperimentResult:
    triples_by_type = triple_sets(scenario.records, 4)

    contribution_rows = []
    contributions = {}
    total = len(scenario.records.columns.triples)
    for content_type in CONTENT_TYPES:
        count = len(triples_by_type.get(content_type, set()))
        contributions[content_type] = count
        contribution_rows.append(
            (content_type, count, f"{count / total:.1%}" if total else "-")
        )

    overlap_rows = []
    overlaps = {}
    for a, b in combinations(CONTENT_TYPES, 2):
        overlap = len(triples_by_type.get(a, set()) & triples_by_type.get(b, set()))
        overlaps[f"{a}&{b}"] = overlap
        overlap_rows.append((f"{a} & {b}", overlap))

    text = "\n\n".join(
        [
            format_table(
                ("content type", "#unique triples", "share"),
                contribution_rows,
                title=TITLE,
            ),
            format_table(("pair", "#overlapping triples"), overlap_rows),
        ]
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={"contributions": contributions, "overlaps": overlaps, "total": total},
    )


CHECKS = {
    "dom_contributes_most": lambda d: (
        d["contributions"]["DOM"] == max(d["contributions"].values())
    ),
    "tbl_contributes_least": lambda d: (
        d["contributions"]["TBL"] == min(d["contributions"].values())
    ),
    # Overlaps are small relative to contributions.
    "overlaps_below_half_of_dom": lambda d: (
        max(d["overlaps"].values()) < d["contributions"]["DOM"] * 0.5
    ),
}
