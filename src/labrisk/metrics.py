"""ROC/AUC, precision-recall and average precision.

Thresholds sweep the distinct scores in descending order with ties grouped;
AUC is the trapezoidal integral (equivalent to the half-credit rank
convention of the Mann-Whitney statistic), and average precision is the
recall-increment-weighted sum of precisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import LabriskError


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


def _tie_grouped_counts(scores, labels):
    """Cumulative true and false positives at the end of each tie block of
    the scores in descending order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise LabriskError("scores/labels length mismatch")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order].astype(np.float64)
    # Indices where a tie block ends.
    distinct = np.flatnonzero(np.diff(s)) if s.size > 1 else np.array([], int)
    block_ends = np.append(distinct, s.size - 1)
    cum_tp = np.cumsum(y)[block_ends]
    cum_fp = (block_ends + 1) - cum_tp
    return cum_tp, cum_fp


def roc(scores, labels) -> RocCurve:
    """ROC curve from (0,0) to (1,1) with trapezoidal AUC."""
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise LabriskError("roc requires both classes present")
    cum_tp, cum_fp = _tie_grouped_counts(scores, labels)
    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


def pr_curve(scores, labels) -> PrCurve:
    """Precision and recall at descending-score thresholds, ties grouped;
    AP = sum over them of (recall_i - recall_{i-1}) * precision_i."""
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise LabriskError("pr_curve requires at least one positive")
    cum_tp, cum_fp = _tie_grouped_counts(scores, labels)
    recall = cum_tp / n_pos
    precision = cum_tp / (cum_tp + cum_fp)
    prev = np.concatenate([[0.0], recall[:-1]])
    ap = float(np.sum((recall - prev) * precision))
    return PrCurve(recall=recall, precision=precision, ap=ap)
