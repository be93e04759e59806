"""The headline metrics as dict loops: calibration and PR as they were.

Until :mod:`repro.eval` computed its metrics over ``(p, y)`` arrays, the
calibration buckets and the PR curve were Python loops over the
``{triple: probability}`` dict, probing gold once per triple per metric.
Those loops moved here verbatim (bodies unchanged from
``src/repro/eval/{calibration,pr}.py`` at fc42308; they build the same
``CalibrationCurve`` / ``PRCurve`` values; the one edit since: gold is
probed by the triple's canonical text, its key) and are the comparand of
``tests/property/test_prop_metrics.py``: the array core must equal them
exactly — every bucket, every curve point and the AUC, float for float.
:func:`auc_pr` is the left-to-right trapezoid loop the ``cumsum`` in
``src/repro/eval/pr.py`` replaced (``tests/eval/test_pr.py`` pins the two
equal bit for bit).
"""

from __future__ import annotations

from repro.errors import EvaluationError
from repro.eval.calibration import CalibrationBucket, CalibrationCurve
from repro.eval.pr import PRCurve
from repro.kb.triples import Triple

__all__ = ["auc_pr", "calibration_curve", "pr_curve"]

DEFAULT_BUCKETS = 20


# ---------------------------------------------------------------------------
# Verbatim from src/repro/eval/calibration.py at fc42308
# ---------------------------------------------------------------------------


def calibration_curve(
    probabilities: dict[Triple, float],
    gold: dict[str, bool],
    n_buckets: int = DEFAULT_BUCKETS,
) -> CalibrationCurve:
    """Bucket ``probabilities`` against ``gold`` labels.

    Buckets 0..n-1 cover ``[i/n, (i+1)/n)``; bucket n holds exactly 1.0.
    """
    if n_buckets < 1:
        raise EvaluationError(f"n_buckets must be >= 1, got {n_buckets}")
    sums = [0.0] * (n_buckets + 1)
    trues = [0] * (n_buckets + 1)
    counts = [0] * (n_buckets + 1)
    for triple, probability in probabilities.items():
        label = gold.get(triple.canonical())
        if label is None:
            continue
        if not 0.0 <= probability <= 1.0:
            raise EvaluationError(
                f"probability out of range for {triple.canonical()}: {probability}"
            )
        if probability >= 1.0:
            index = n_buckets
        else:
            index = int(probability * n_buckets)
        counts[index] += 1
        sums[index] += probability
        trues[index] += int(label)
    buckets = []
    for index in range(n_buckets + 1):
        low = index / n_buckets if index < n_buckets else 1.0
        high = (index + 1) / n_buckets if index < n_buckets else 1.0
        count = counts[index]
        buckets.append(
            CalibrationBucket(
                low=low,
                high=high,
                count=count,
                predicted=(sums[index] / count) if count else (low + high) / 2,
                real=(trues[index] / count) if count else 0.0,
            )
        )
    return CalibrationCurve(buckets=tuple(buckets), n_labelled=sum(counts))


# ---------------------------------------------------------------------------
# Verbatim from src/repro/eval/pr.py at fc42308
# ---------------------------------------------------------------------------


def pr_curve(
    probabilities: dict[Triple, float], gold: dict[str, bool]
) -> PRCurve:
    """PR curve of ``probabilities`` against ``gold``."""
    scored = [
        (probability, gold[triple.canonical()])
        for triple, probability in probabilities.items()
        if triple.canonical() in gold
    ]
    if not scored:
        raise EvaluationError("no labelled triples to build a PR curve from")
    n_true = sum(1 for _p, label in scored if label)
    if n_true == 0:
        raise EvaluationError("no true triples in the gold standard slice")
    scored.sort(key=lambda pair: -pair[0])

    recalls: list[float] = []
    precisions: list[float] = []
    seen = 0
    seen_true = 0
    index = 0
    while index < len(scored):
        # Consume a whole tie-block at once.
        threshold = scored[index][0]
        while index < len(scored) and scored[index][0] == threshold:
            seen += 1
            seen_true += int(scored[index][1])
            index += 1
        recalls.append(seen_true / n_true)
        precisions.append(seen_true / seen)
    return PRCurve(
        recalls=tuple(recalls),
        precisions=tuple(precisions),
        n_true=n_true,
        n_labelled=len(scored),
    )


def auc_pr(curve: PRCurve) -> float:
    """Trapezoid area under the PR curve (anchored at recall 0)."""
    recalls = (0.0, *curve.recalls)
    precisions = (curve.precisions[0], *curve.precisions)
    area = 0.0
    for i in range(1, len(recalls)):
        width = recalls[i] - recalls[i - 1]
        area += width * (precisions[i] + precisions[i - 1]) / 2.0
    return area
