"""Precision-recall curves and AUC-PR (§4.2).

"We order the triples in decreasing order of the predicted probability.
As we gradually add new triples, we plot the precision versus the recall
of the considered triples."  Ties in predicted probability are handled as
one block (the curve gains a single point per distinct threshold), and the
area is the trapezoid integral over recall — the standard treatment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EvaluationError
from repro.eval.calibration import Predictions, labelled_arrays

__all__ = ["PRCurve", "pr_curve", "pr_from_arrays", "auc_pr"]


@dataclass(frozen=True)
class PRCurve:
    """Precision/recall points in threshold order (recall increasing)."""

    recalls: tuple[float, ...]
    precisions: tuple[float, ...]
    n_true: int
    n_labelled: int

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.recalls, self.precisions))


def pr_curve(probabilities: Predictions, gold: dict[str, bool]) -> PRCurve:
    """PR curve of ``probabilities`` against ``gold``."""
    return pr_from_arrays(*labelled_arrays(probabilities, gold))


def pr_from_arrays(p: np.ndarray, y: np.ndarray) -> PRCurve:
    """PR curve of labelled probabilities ``p`` with labels ``y`` (see
    :func:`repro.eval.calibration.labelled_arrays`).

    A stable sort by decreasing ``p``; each block of equal probabilities
    ends at a change of value and adds one point, from the running true
    count at the block's end.
    """
    if p.size == 0:
        raise EvaluationError("no labelled triples to build a PR curve from")
    n_true = int(np.count_nonzero(y))
    if n_true == 0:
        raise EvaluationError("no true triples in the gold standard slice")
    order = np.argsort(-p, kind="stable")
    ranked = p[order]
    block_end = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    seen_true = np.cumsum(y[order])[block_end]
    return PRCurve(
        recalls=tuple((seen_true / n_true).tolist()),
        precisions=tuple((seen_true / (block_end + 1)).tolist()),
        n_true=n_true,
        n_labelled=int(p.size),
    )


def auc_pr(curve: PRCurve) -> float:
    """Trapezoid area under the PR curve (anchored at recall 0).

    The trapezoids are added left to right: ``np.add.accumulate`` (one
    ``cumsum``, whose last element is the area) adds sequentially, where
    ``np.sum`` adds pairwise and would move the last bits of every
    committed AUC-PR.
    """
    recalls = np.array((0.0, *curve.recalls))
    precisions = np.array((curve.precisions[0], *curve.precisions))
    terms = (recalls[1:] - recalls[:-1]) * (precisions[1:] + precisions[:-1]) / 2.0
    return float(np.cumsum(terms)[-1])
