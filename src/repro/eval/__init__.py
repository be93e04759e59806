"""Evaluation: metrics and analyses from §4.2 and §4.4.

- :mod:`repro.eval.calibration` — calibration curves, deviation, weighted
  deviation (the paper's primary quality measure);
- :mod:`repro.eval.pr` — precision-recall curves and AUC-PR;
- :mod:`repro.eval.kappa` — the extractor-correlation Kappa measure of
  Eq. (1) / Figure 19;
- :mod:`repro.eval.stats` — the accuracy-by-X curves behind Figures 4-7,
  16, 18, 20-22 and the skew summaries of Table 1;
- :mod:`repro.eval.analysis` — automated error categorisation (Figure 17),
  possible here because the scenario knows the true cause of every error.
"""

from repro.eval.calibration import (
    CalibrationCurve,
    calibration_curve,
    deviation,
    weighted_deviation,
)
from repro.eval.pr import PRCurve, pr_curve, auc_pr
from repro.eval.kappa import kappa
from repro.eval.analysis import ErrorBreakdown, analyze_errors

__all__ = [
    "CalibrationCurve",
    "calibration_curve",
    "deviation",
    "weighted_deviation",
    "PRCurve",
    "pr_curve",
    "auc_pr",
    "kappa",
    "ErrorBreakdown",
    "analyze_errors",
]
