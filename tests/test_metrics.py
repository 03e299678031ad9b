"""ROC/PR metrics against brute-force oracles and the tie-grouped
reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labrisk import LabriskError, metrics
from labrisk.likelihood import ScoredCohort

import oracles
from oracles import average_precision
from test_likelihood import lr_curve_cases


def roc(scores, labels):
    return metrics.roc(ScoredCohort.from_arrays(scores, labels))


def mann_whitney_auc(scores, labels):
    """Tie-corrected Mann-Whitney U statistic, computed pair by pair."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def brute_force_ap(scores, labels):
    """AP by direct threshold enumeration over distinct scores."""
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]
    n_pos = labels.sum()
    ap, prev_recall = 0.0, 0.0
    for t in sorted(set(scores), reverse=True):
        sel = scores >= t
        tp = labels[sel].sum()
        precision = tp / sel.sum()
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def random_set(rng, ties=False):
    n = int(rng.integers(5, 60))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    if ties:
        scores = rng.integers(0, 6, size=n).astype(float) / 5.0
    else:
        scores = rng.random(n)
    return scores, labels.astype(float)


@pytest.mark.parametrize("ties", [False, True])
def test_auc_matches_mann_whitney(ties):
    rng = np.random.default_rng(0 if ties else 1)
    for _ in range(50):
        scores, labels = random_set(rng, ties)
        assert roc(scores, labels).auc == pytest.approx(
            mann_whitney_auc(scores, labels), abs=1e-12)


@pytest.mark.parametrize("ties", [False, True])
def test_ap_matches_brute_force(ties):
    rng = np.random.default_rng(2 if ties else 3)
    for _ in range(50):
        scores, labels = random_set(rng, ties)
        assert average_precision(scores, labels) == pytest.approx(
            brute_force_ap(scores, labels), abs=1e-12)


def test_roc_endpoints_and_extremes():
    labels = np.array([0, 0, 1, 1], dtype=float)
    perfect = roc(np.array([0.1, 0.2, 0.8, 0.9]), labels)
    assert perfect.auc == 1.0
    assert (perfect.fpr[0], perfect.tpr[0]) == (0.0, 0.0)
    assert (perfect.fpr[-1], perfect.tpr[-1]) == (1.0, 1.0)
    reversed_ = roc(np.array([0.9, 0.8, 0.2, 0.1]), labels)
    assert reversed_.auc == 0.0
    constant = roc(np.zeros(4), labels)
    assert constant.auc == 0.5


def test_pr_curve_matches_average_precision():
    rng = np.random.default_rng(4)
    scores, labels = random_set(rng, ties=True)
    pr = metrics.pr_curve(ScoredCohort.from_arrays(scores, labels))
    assert pr.ap == pytest.approx(average_precision(scores, labels))
    assert np.all((pr.precision >= 0) & (pr.precision <= 1))
    assert np.all(np.diff(pr.recall) >= 0)


def test_single_class_rejected():
    with pytest.raises(LabriskError, match="roc requires both classes"):
        roc(np.array([0.1, 0.2]), np.array([1.0, 1.0]))
    with pytest.raises(LabriskError, match="at least one positive"):
        average_precision(np.array([0.1, 0.2]), np.array([0.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    scores, labels = random_set(rng, ties=bool(seed % 2))
    base = roc(scores, labels).auc
    transformed = roc(np.exp(3.0 * scores), labels).auc
    assert transformed == pytest.approx(base, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_auc_flips_under_negation(seed):
    rng = np.random.default_rng(seed)
    scores, labels = random_set(rng)
    assert roc(-scores, labels).auc == pytest.approx(
        1.0 - roc(scores, labels).auc, abs=1e-12)


@settings(max_examples=400, deadline=None)
@given(lr_curve_cases())
def test_roc_and_pr_match_the_tie_grouped_reference(case):
    """The curves counted from the cohort's one sort have the bits of the
    curves counted from their own descending sort."""
    scores, labels, _ = case
    cohort = ScoredCohort.from_arrays(scores, labels)
    for got, want in ((metrics.roc(cohort), oracles.roc(scores, labels)),
                      (metrics.pr_curve(cohort),
                       oracles.pr_curve(scores, labels))):
        for name, value in vars(want).items():
            a, b = np.asarray(getattr(got, name)), np.asarray(value)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
