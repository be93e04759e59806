"""Figure 18 — accuracy by #provenances, stratified by #extractors.

The paper's future-direction-1 evidence: at a fixed number of provenances,
triples extracted by many extractors are far more accurate than triples
extracted by a single extractor — a signal the provenance cross-product
buries.  At paper scale the strata are 1 vs ≥8 extractors; at laptop scale
the high stratum is ≥4.
"""

from __future__ import annotations

from collections import defaultdict

from repro.datasets.scenario import Scenario
from repro.eval.stats import triple_support
from repro.experiments.registry import ExperimentResult
from repro.report import format_table

EXPERIMENT_ID = "fig18"
TITLE = "Figure 18: accuracy by #provenances and #extractors"

PROV_BUCKETS = (1, 2, 3, 5, 8, 12, 20, 40)
HIGH_STRATUM = 4  # ">= this many extractors" (paper used 8 at web scale)


def _bucket(value: int) -> int:
    chosen = PROV_BUCKETS[0]
    for edge in PROV_BUCKETS:
        if value >= edge:
            chosen = edge
    return chosen


def run(scenario: Scenario) -> ExperimentResult:
    support = triple_support(scenario.records)
    strata = {
        "any #extractors": lambda n: True,
        "1 extractor": lambda n: n == 1,
        f">={HIGH_STRATUM} extractors": lambda n: n >= HIGH_STRATUM,
    }
    groups: dict[str, dict[int, list[bool]]] = {
        name: defaultdict(list) for name in strata
    }
    for triple, label in scenario.gold.items():
        if triple not in support:
            continue
        n_prov = support[triple]["provenances"]
        n_ext = support[triple]["extractors"]
        for name, predicate in strata.items():
            if predicate(n_ext):
                groups[name][_bucket(n_prov)].append(label)

    rows = []
    data: dict[str, list] = {name: [] for name in strata}
    for edge in PROV_BUCKETS:
        row: list = [f">={edge}"]
        for name in strata:
            labels = groups[name].get(edge, [])
            if labels:
                accuracy = sum(labels) / len(labels)
                row.append(f"{accuracy:.2f} (n={len(labels)})")
                data[name].append((edge, len(labels), accuracy))
            else:
                row.append("-")
        rows.append(tuple(row))
    text = format_table(("#provenances", *strata.keys()), rows, title=TITLE)

    # Headline: mean accuracy gap between the strata at shared buckets.
    single = dict((e, a) for e, _n, a in data["1 extractor"])
    multi = dict((e, a) for e, _n, a in data[f">={HIGH_STRATUM} extractors"])
    shared = sorted(set(single) & set(multi))
    if shared:
        gaps = [multi[e] - single[e] for e in shared]
        text += (
            f"\n\nmean accuracy gain of >={HIGH_STRATUM}-extractor triples over "
            f"single-extractor triples at equal #provenances: "
            f"{sum(gaps) / len(gaps):+.2f} (paper: ~+70% relative)"
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data=data
    )


def _more_extractors_more_accurate(data: dict) -> bool:
    single = {e: a for e, _n, a in data["1 extractor"]}
    multi_key = next(k for k in data if k.startswith(">="))
    multi = {e: a for e, _n, a in data[multi_key]}
    gaps = [multi[e] - single[e] for e in set(single) & set(multi)]
    return bool(gaps) and sum(gaps) / len(gaps) > 0


CHECKS = {
    # Some #extractions bucket is in both series, and on those buckets
    # more extractors mean higher accuracy on average.
    "more_extractors_more_accurate": _more_extractors_more_accurate,
}
