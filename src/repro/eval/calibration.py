"""Calibration curves, deviation and weighted deviation (§4.2).

The paper buckets triples by predicted probability — ``l = 20`` equal-width
buckets ``[i/l, (i+1)/l)`` plus a dedicated bucket for probability exactly
1.0 — and compares each bucket's *real probability* (fraction of gold-true
triples) to its predicted centre:

- **deviation**: mean squared (predicted − real) over non-empty buckets;
- **weighted deviation**: the same, weighting each bucket by its triple
  count — "essentially the average square loss of each predicted
  probability".

Only gold-labelled triples participate; unlabelled triples are invisible to
the metric, exactly as in the paper's gold-standard protocol.

The metrics are computed over arrays: :func:`labelled_arrays` turns a
fusion result (its posterior column and the claim columns' gold row
column) or a ``{triple: probability}`` dict (one gold probe per triple,
by its canonical text) into ``(p, y)``, and the ``*_from_arrays``
functions here and in :mod:`repro.eval.pr` read only those.  The curve
entry points are adapters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.errors import EvaluationError
from repro.kb.triples import Triple

if TYPE_CHECKING:
    from repro.fusion.base import FusionResult

#: What the metrics read: a fusion result, or ``{triple: probability}``.
Predictions = Union["FusionResult", dict[Triple, float]]

__all__ = [
    "CalibrationBucket",
    "CalibrationCurve",
    "calibration_curve",
    "calibration_from_arrays",
    "deviation",
    "labelled_arrays",
    "weighted_deviation",
]

DEFAULT_BUCKETS = 20


@dataclass(frozen=True)
class CalibrationBucket:
    """One probability bucket.

    ``predicted`` is the mean predicted probability of the bucket's triples
    (the paper plots bucket centres; the mean is strictly more faithful to
    the data and converges to the centre for dense buckets).
    """

    low: float
    high: float
    count: int
    predicted: float
    real: float


@dataclass(frozen=True)
class CalibrationCurve:
    """All buckets of one method's predictions."""

    buckets: tuple[CalibrationBucket, ...]
    n_labelled: int

    def points(self) -> list[tuple[float, float]]:
        """(predicted, real) pairs for non-empty buckets — the plotted curve."""
        return [(b.predicted, b.real) for b in self.buckets if b.count > 0]


def labelled_arrays(
    probabilities: Predictions, gold: dict[str, bool]
) -> tuple[np.ndarray, np.ndarray]:
    """``(p, y)`` over the gold-labelled keys of ``probabilities``, in its
    iteration order: float64 probabilities and bool labels — the input of
    every metric here and in :mod:`repro.eval.pr`.

    A :class:`~repro.fusion.base.FusionResult` reads its own columns
    (:meth:`~repro.fusion.base.FusionResult.labelled_arrays`).  A dict
    costs one gold probe per key (by its canonical text), and a labelled
    probability outside [0, 1] raises, naming the first such triple.
    """
    if not isinstance(probabilities, dict):
        return probabilities.labelled_arrays(gold)
    n = len(probabilities)
    texts = map(Triple.canonical, probabilities)
    label = np.fromiter(map(gold.get, texts, repeat(-1)), np.int8, n)
    p = np.fromiter(probabilities.values(), np.float64, n)
    labelled = label >= 0
    bad = np.flatnonzero(labelled & ~((p >= 0.0) & (p <= 1.0)))
    if bad.size:
        triple = next(islice(probabilities, int(bad[0]), None))
        raise EvaluationError(
            f"probability out of range for {triple.canonical()}: {float(p[bad[0]])}"
        )
    return p[labelled], label[labelled] == 1


def calibration_curve(
    probabilities: Predictions,
    gold: dict[str, bool],
    n_buckets: int = DEFAULT_BUCKETS,
) -> CalibrationCurve:
    """Bucket ``probabilities`` against ``gold`` labels."""
    if n_buckets < 1:
        raise EvaluationError(f"n_buckets must be >= 1, got {n_buckets}")
    return calibration_from_arrays(*labelled_arrays(probabilities, gold), n_buckets)


def calibration_from_arrays(
    p: np.ndarray, y: np.ndarray, n_buckets: int = DEFAULT_BUCKETS
) -> CalibrationCurve:
    """Bucket labelled probabilities ``p`` (labels ``y``, see
    :func:`labelled_arrays`).

    Buckets 0..n-1 cover ``[i/n, (i+1)/n)``; bucket n holds exactly 1.0.
    A weighted ``bincount`` adds in input order, so each bucket's sum is
    the same float a sequential loop over ``p`` gives.
    """
    bucket = np.where(p >= 1.0, n_buckets, (p * n_buckets).astype(np.int64))
    counts = np.bincount(bucket, minlength=n_buckets + 1).tolist()
    sums = np.bincount(bucket, weights=p, minlength=n_buckets + 1).tolist()
    trues = np.bincount(bucket[y], minlength=n_buckets + 1).tolist()
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


def deviation(curve: CalibrationCurve) -> float:
    """Mean squared bucket error over non-empty buckets."""
    populated = [b for b in curve.buckets if b.count > 0]
    if not populated:
        raise EvaluationError("calibration curve has no labelled triples")
    total = 0.0  # left to right: 3.12's builtin sum() would compensate
    for b in populated:
        total += (b.predicted - b.real) ** 2
    return total / len(populated)


def weighted_deviation(curve: CalibrationCurve) -> float:
    """Triple-count-weighted mean squared bucket error."""
    populated = [b for b in curve.buckets if b.count > 0]
    if not populated:
        raise EvaluationError("calibration curve has no labelled triples")
    loss = 0.0  # left to right, as in deviation()
    for b in populated:
        loss += b.count * (b.predicted - b.real) ** 2
    return loss / sum(b.count for b in populated)
