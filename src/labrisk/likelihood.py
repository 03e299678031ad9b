"""Likelihood ratios from risk scores.

The pre-test odds come from the full development cohort prevalence; the
post-test odds from a subgroup (either everyone above a risk threshold, for
LR-vs-threshold curves, or the CI-based similar-score cohort, for per-patient
reports). Degenerate all-positive/all-negative subgroups get a 0.5/0.5
continuity correction and are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import LabriskError
from .catalog import EncounterRecord, MarkerCatalog
from .model import RiskAssessment


# How many fallback rows ScoredCohort._similar takes at a time. Each row's
# min_n fallback builds several (rows, 2 * min_n) arrays, so this bounds
# their memory on stacks where most rows fall back; a served explain
# request's stack (about 90 fallback rows) stays one block.
FALLBACK_BLOCK = 1024


def odds(p: float) -> float:
    if not 0.0 <= p < 1.0:
        raise LabriskError(f"odds needs p in [0, 1), got {p}")
    return p / (1.0 - p)


def lr_from_counts(pos_sub, n_sub, pos_all: int, n_all: int):
    """LR of count-defined subgroups vs the full cohort.

    Elementwise over arrays of (pos_sub, n_sub). Returns (lr, corrected):
    when a subgroup is all-positive or all-negative, 0.5 is added to both
    cells and the result is flagged. Scalar counts give a float and a bool.
    """
    pos_sub = np.asarray(pos_sub, dtype=np.int64)
    n_sub = np.asarray(n_sub, dtype=np.int64)
    if np.any(n_sub <= 0):
        raise LabriskError("empty subgroup")
    if not 0 < pos_all < n_all:
        raise LabriskError("cohort must contain both classes")
    pre = odds(pos_all / n_all)
    neg_sub = n_sub - pos_sub
    corrected = (pos_sub == 0) | (neg_sub == 0)
    post = np.where(corrected, (pos_sub + 0.5) / (neg_sub + 0.5),
                    pos_sub / np.where(corrected, 1, neg_sub))
    # A subgroup that is the whole cohort has an LR of exactly 1.
    whole = (pos_sub == pos_all) & (n_sub == n_all)
    lr = np.where(whole, 1.0, post / pre)
    corrected &= ~whole
    if lr.ndim == 0:
        return float(lr), bool(corrected)
    return lr, corrected


@dataclass
class ScoredCohort:
    index: np.ndarray  # int64: each entry's index in the original cohort
    scores: np.ndarray
    labels: np.ndarray

    @classmethod
    def from_arrays(cls, scores, labels) -> "ScoredCohort":
        """The cohort of `scores` and their `labels`, indexed 0..n-1."""
        scores = np.asarray(scores, dtype=np.float64)
        labels = np.asarray(labels).astype(np.int64)
        if scores.size != labels.size:
            raise LabriskError("scored cohort length mismatch")
        if scores.size == 0:
            raise LabriskError("empty scored cohort")
        if not np.isfinite(scores).all():
            raise LabriskError("scored cohort has non-finite scores")
        return cls(index=np.arange(scores.size, dtype=np.int64),
                   scores=scores, labels=labels)

    def __len__(self) -> int:
        return self.scores.size

    @property
    def n_pos(self) -> int:
        return int(self.labels.sum())

    @property
    def prevalence(self) -> float:
        return self.n_pos / len(self)

    def subset(self, idx) -> "ScoredCohort":
        idx = np.asarray(idx)
        return ScoredCohort(index=self.index[idx], scores=self.scores[idx],
                            labels=self.labels[idx])

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, sorted scores, prefix sums of the labels in that order).
        The sort is stable: equal scores keep ascending original index."""
        order = np.argsort(self.scores, kind="stable")
        cum_pos = np.zeros(order.size + 1, dtype=np.int64)
        cum_pos[1:] = np.cumsum(self.labels[order])
        return order, self.scores[order], cum_pos

    def similar_counts(self, mean, lo, hi,
                       min_n: int) -> tuple[np.ndarray, np.ndarray]:
        """(n_pos, n) of the similar-score cohort of every (mean, lo, hi),
        as similar_cohort defines it; the arguments broadcast together."""
        mean, lo, hi = np.broadcast_arrays(
            *(np.asarray(a, dtype=np.float64) for a in (mean, lo, hi)))
        start, stop, tie_row, tie_idx = self._similar(
            mean.ravel(), lo.ravel(), hi.ravel(), min_n)
        cum_pos = self._sorted[2]
        n_pos = cum_pos[stop] - cum_pos[start]
        n = stop - start
        np.add.at(n_pos, tie_row, self.labels[tie_idx])
        np.add.at(n, tie_row, 1)
        return n_pos.reshape(mean.shape), n.reshape(mean.shape)

    def _similar(self, mean, lo, hi, min_n):
        """Members of the similar-score cohort of each (mean, lo, hi) row:
        a range [start, stop) of sorted positions per row, plus members
        given as flat (row, original index) pairs.

        A row takes the scores inside [lo, hi] if there are at least min_n.
        Otherwise it takes the k = min(min_n, n) first scores in the order
        (|score - mean|, original index), as np.lexsort gives it. Along the
        sorted scores that distance falls, then rises, so these are every
        score nearer than the k-th smallest distance d, which all lie within
        k positions of the mean, and the lowest original indices among the
        scores at exactly d. Duplicated scores, and distinct scores whose
        distances round alike, can put scores at d further out, so their
        run is found by bisection.
        """
        s = self._sorted[1]
        start = np.searchsorted(s, lo, side="left")
        stop = np.maximum(np.searchsorted(s, hi, side="right"), start)
        fb = np.flatnonzero(stop - start < min_n)
        ties = [(np.empty(0, dtype=np.intp),) * 2] + [
            self._nearest(mean, start, stop, fb[at:at + FALLBACK_BLOCK], min_n)
            for at in range(0, fb.size, FALLBACK_BLOCK)]
        tie_row, tie_idx = map(np.concatenate, zip(*ties))
        return start, stop, tie_row, tie_idx

    def _nearest(self, mean, start, stop, fb, min_n):
        """The k-nearest fallback of _similar for the rows `fb`: sets their
        start and stop, and gives their (row, original index) pairs."""
        order, s, _ = self._sorted
        n_all = s.size
        k = min(min_n, n_all)
        mu = mean[fb]
        p = np.searchsorted(s, mu, side="left")  # s[:p] < mu <= s[p:]
        pos = p[:, None] + np.arange(-k, k)
        near = np.where((pos >= 0) & (pos < n_all),
                        np.abs(s[np.clip(pos, 0, n_all - 1)] - mu[:, None]),
                        np.inf)
        d = np.partition(near, k - 1, axis=1)[:, k - 1]
        lt_lo = p - (near[:, :k] < d[:, None]).sum(axis=1)
        lt_hi = p + (near[:, k:] < d[:, None]).sum(axis=1)
        le_lo = _bisect(lambda i: np.abs(s[i] - mu) <= d,
                        np.zeros_like(p), p)
        le_hi = _bisect(lambda i: np.abs(s[i] - mu) > d,
                        p, np.full_like(p, n_all))
        need = k - (lt_hi - lt_lo)  # members to take from the scores at d
        every = (lt_lo - le_lo) + (le_hi - lt_hi) == need
        start[fb] = np.where(every, le_lo, lt_lo)
        stop[fb] = np.where(every, le_hi, lt_hi)
        part = np.flatnonzero(~every)
        if not part.size:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        # Scores at d on both sides of the window, lowest index first.
        row, at = _ranges(np.tile(np.arange(part.size), 2),
                          np.r_[le_lo[part], lt_hi[part]],
                          np.r_[lt_lo[part], le_hi[part]])
        idx = order[at]
        by = np.lexsort((idx, row))
        row, idx = row[by], idx[by]
        rank = np.arange(row.size) - np.searchsorted(row, row)
        keep = rank < need[part][row]
        return fb[part][row[keep]], idx[keep]


def _bisect(pred, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, the smallest i in [lo, hi) where pred(i) holds, else hi.
    pred maps an index per row to a bool per row and must be False, then
    True, along each row's range."""
    while True:
        todo = lo < hi
        if not todo.any():
            return lo
        mid = np.where(todo, (lo + hi) // 2, 0)
        ok = todo & pred(mid)
        hi = np.where(ok, mid, hi)
        lo = np.where(todo & ~ok, mid + 1, lo)


def _ranges(row: np.ndarray, start: np.ndarray,
            stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (row, position) pairs covering each range [start, stop)."""
    lens = stop - start
    offset = np.repeat(start - (np.cumsum(lens) - lens), lens)
    return np.repeat(row, lens), np.arange(lens.sum()) + offset


def similar_cohort(dev: ScoredCohort, assessment: RiskAssessment,
                   min_n: int) -> ScoredCohort:
    """Development entries with scores inside the assessment CI, expanded to
    the min_n nearest neighbors by |score - mean| (ties to the lower index)
    when too few fall inside."""
    lo, hi = assessment.ci
    start, stop, _, tie_idx = dev._similar(
        np.array([assessment.mean]), np.array([lo]), np.array([hi]), min_n)
    members = np.concatenate([dev._sorted[0][start[0]:stop[0]], tie_idx])
    return dev.subset(np.sort(members))


@dataclass
class LRCurve:
    thresholds: np.ndarray
    lr: np.ndarray
    n_above: np.ndarray
    n_pos_above: np.ndarray
    corrected: np.ndarray
    truncated_at: float | None = None  # first threshold with empty subgroup


def lr_curve(cohort: ScoredCohort, thresholds=None) -> LRCurve:
    """LR(t) for subgroups {score >= t}. LR at the all-inclusive threshold is
    exactly 1; the curve is truncated when a subgroup becomes empty."""
    thresholds = np.array(np.linspace(0.0, 1.0, 101) if thresholds is None
                          else thresholds, dtype=np.float64)
    _, s, cum_pos = cohort._sorted
    start = np.searchsorted(s, thresholds, side="left")  # s[start:] >= t
    stop = np.append(np.flatnonzero(start == s.size), thresholds.size)[0]
    n_above = s.size - start[:stop]
    n_pos_above = cum_pos[-1] - cum_pos[start[:stop]]
    lr, corrected = (lr_from_counts(n_pos_above, n_above, cohort.n_pos,
                                    len(cohort)) if stop
                     else (np.empty(0), np.empty(0, dtype=bool)))
    return LRCurve(thresholds=thresholds[:stop], lr=lr, n_above=n_above,
                   n_pos_above=n_pos_above, corrected=corrected,
                   truncated_at=(float(thresholds[stop])
                                 if stop < thresholds.size else None))


# --- baselines ---------------------------------------------------------------

def oor_score(record: EncounterRecord,
              catalog: MarkerCatalog) -> tuple[float, bool]:
    """Fraction of measured, range-bearing markers outside their reference
    range. Returns (score, no_ranged_markers_flag)."""
    measured = 0
    out = 0
    for mid, v in record.measurements.items():
        rr = catalog.get(mid).reference_range if mid in catalog else None
        if rr is None:
            continue
        measured += 1
        if not rr[0] <= v <= rr[1]:
            out += 1
    if measured == 0:
        return 0.0, True
    return out / measured, False


def single_marker_scores(mid: str, dev: np.ndarray, val: np.ndarray,
                         flip: bool) -> np.ndarray:
    """`val` min-max scaled over `dev` (marker `mid`'s values, NaN where
    absent), clamped as min(1.0, max(0.0, s)), flipped for low-is-risk."""
    dev = dev[~np.isnan(dev)]
    if dev.size < 2 or dev.min() == dev.max():
        raise LabriskError(f"cannot fit single-marker scaler for {mid!r}")
    s = (val - dev.min()) / (dev.max() - dev.min())
    s = np.where(s <= 0.0, 0.0, np.where(s >= 1.0, 1.0, s))
    return 1.0 - s if flip else s


def age_score(age: float) -> float:
    """Age normalized between 40 and 85 years, clamped to [0, 1]."""
    return min(1.0, max(0.0, (age - 40.0) / (85.0 - 40.0)))


# --- per-patient report ------------------------------------------------------

@dataclass
class LRReport:
    """A per-patient report; its fields are the keys of report.json."""
    patient_id: str
    cancer_type: str
    risk_score: float
    risk_ci: tuple[float, float]
    similar_cohort_size: int
    pre_test_probability: float
    post_test_probability: float
    pre_test_odds: float
    post_test_odds: float
    likelihood_ratio: float
    continuity_corrected: bool
    per_member_scores: list[float] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"Risk assessment for patient {self.patient_id} "
            f"({self.cancer_type} cancer, 12-month horizon)",
            f"  Ensemble risk score : {self.risk_score:.3f} "
            f"(CI {self.risk_ci[0]:.3f} - {self.risk_ci[1]:.3f})",
            f"  Similar-score cohort: {self.similar_cohort_size} patients",
            f"  Pre-test probability : {self.pre_test_probability:.4f} "
            f"(odds {self.pre_test_odds:.4f})",
            f"  Post-test probability: {self.post_test_probability:.4f} "
            f"(odds {self.post_test_odds:.4f})",
            f"  Likelihood ratio     : {self.likelihood_ratio:.2f}"
            + ("  [continuity corrected]" if self.continuity_corrected
               else ""),
        ]
        return "\n".join(lines)


def build_report(patient_id: str, cancer_type: str,
                 assessment: RiskAssessment, dev: ScoredCohort,
                 min_n: int) -> LRReport:
    similar = similar_cohort(dev, assessment, min_n=min_n)
    pos_sub, n_sub = similar.n_pos, len(similar)
    lr, corrected = lr_from_counts(pos_sub, n_sub, dev.n_pos, len(dev))
    pre_p = dev.prevalence
    post_p = pos_sub / n_sub
    post_odds = ((pos_sub + 0.5) / (n_sub - pos_sub + 0.5) if corrected
                 else odds(post_p))
    return LRReport(
        patient_id=patient_id, cancer_type=cancer_type,
        risk_score=assessment.mean, risk_ci=assessment.ci,
        similar_cohort_size=n_sub,
        pre_test_probability=pre_p, post_test_probability=post_p,
        pre_test_odds=odds(pre_p), post_test_odds=post_odds,
        likelihood_ratio=lr, continuity_corrected=corrected,
        per_member_scores=assessment.per_member_scores)
