"""Shared helpers for experiment runners.

The expensive artifacts — the five standard fusion runs — are cached *on
the scenario object*, because many experiments consume the same runs
(Figures 9, 13, 15, 16, 17 all look at POPACCU+ output).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.scenario import Scenario
from repro.eval.calibration import (
    calibration_from_arrays,
    deviation,
    labelled_arrays,
    weighted_deviation,
)
from repro.eval.pr import auc_pr, pr_from_arrays
from repro.fusion import (
    FusionResult,
    accu,
    popaccu,
    popaccu_plus,
    popaccu_plus_unsup,
    vote,
)
from repro.kb.triples import Triple

__all__ = ["standard_fusion_results", "Metrics", "metrics_for", "unique_triple_accuracy"]

_CACHE_ATTR = "_experiment_fusion_cache"

STANDARD_METHODS = ("VOTE", "ACCU", "POPACCU", "POPACCU+(unsup)", "POPACCU+")


def standard_fusion_results(scenario: Scenario) -> dict[str, FusionResult]:
    """The five standard fusion runs, computed once per scenario."""
    cache = getattr(scenario, _CACHE_ATTR, None)
    if cache is not None:
        return cache
    fusion_input = scenario.fusion_input()
    results = {}
    for fuser in (
        vote(),
        accu(),
        popaccu(),
        popaccu_plus_unsup(),
        popaccu_plus(scenario.gold),
    ):
        results[fuser.name] = fuser.fuse(fusion_input)
    setattr(scenario, _CACHE_ATTR, results)
    return results


@dataclass(frozen=True)
class Metrics:
    """The paper's three headline measures for one method, plus the
    fraction of its labelled predictions on the right side of p = 0.5."""

    dev: float
    wdev: float
    auc_pr: float
    coverage: float
    gold_accuracy: float
    n_labelled: int

    def row(self) -> tuple[float, float, float]:
        return (self.dev, self.wdev, self.auc_pr)


def metrics_for(
    result: FusionResult | dict[Triple, float],
    gold: dict[str, bool],
    coverage: float = 1.0,
) -> Metrics:
    """All measures from one ``(p, y)`` pass over a fusion result (its
    posterior column and the gold row column) or a ``{triple:
    probability}`` dict (:func:`repro.eval.calibration.labelled_arrays`)."""
    p, y = labelled_arrays(result, gold)
    curve = calibration_from_arrays(p, y)
    pr = pr_from_arrays(p, y)  # raises unless p has labelled entries
    return Metrics(
        dev=deviation(curve),
        wdev=weighted_deviation(curve),
        auc_pr=auc_pr(pr),
        coverage=coverage,
        gold_accuracy=int(np.count_nonzero((p >= 0.5) == y)) / p.size,
        n_labelled=p.size,
    )


def unique_triple_accuracy(
    texts, gold: dict[str, bool]
) -> tuple[int, float | None]:
    """(#labelled, accuracy) over unique triples, given by canonical text."""
    labelled = [gold[t] for t in texts if t in gold]
    if not labelled:
        return 0, None
    return len(labelled), sum(labelled) / len(labelled)
