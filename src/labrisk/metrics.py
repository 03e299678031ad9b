"""ROC/AUC, precision-recall and average precision of a scored cohort.

Thresholds sweep the cohort's distinct scores in descending order, counted
by ScoredCohort.at_or_above from the cohort's one sort, as every curve is;
AUC is the trapezoidal integral (equivalent to the half-credit rank
convention of the Mann-Whitney statistic), and average precision is the
recall-increment-weighted sum of precisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import LabriskError
from .likelihood import ScoredCohort


@dataclass
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass
class PrCurve:
    recall: np.ndarray
    precision: np.ndarray
    ap: float


def roc(cohort: ScoredCohort) -> RocCurve:
    """ROC curve from (0,0) to (1,1) with trapezoidal AUC."""
    n_pos = cohort.n_pos
    n_neg = len(cohort) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise LabriskError("roc requires both classes present")
    n, tp = cohort.at_or_above(cohort.distinct_scores)
    tpr = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], (n - tp) / n_neg])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


def pr_curve(cohort: ScoredCohort) -> PrCurve:
    """Precision and recall at descending-score thresholds, ties grouped;
    AP = sum over them of (recall_i - recall_{i-1}) * precision_i."""
    n_pos = cohort.n_pos
    if n_pos == 0:
        raise LabriskError("pr_curve requires at least one positive")
    n, tp = cohort.at_or_above(cohort.distinct_scores)
    recall = tp / n_pos
    precision = tp / n
    prev = np.concatenate([[0.0], recall[:-1]])
    ap = float(np.sum((recall - prev) * precision))
    return PrCurve(recall=recall, precision=precision, ap=ap)
