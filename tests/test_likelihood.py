"""Likelihood-ratio arithmetic, subgroup curves, and baseline scores."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labrisk import LabriskError, defaults, likelihood
from labrisk.catalog import EncounterRecord
from labrisk.model import RiskAssessment
from labrisk.preprocess import NormalizationParams

import datetime


def likelihood_ratio(post_p, pre_p):
    """Oracle: post-test odds over pre-test odds."""
    return likelihood.odds(post_p) / likelihood.odds(pre_p)


def similar_oracle(scores, mean, lo, hi, min_n):
    """Oracle: sorted member indices of the similar-score cohort, straight
    from its definition (scores inside [lo, hi], else the min_n nearest by
    |score - mean| with ties to the lower index)."""
    inside = np.flatnonzero((scores >= lo) & (scores <= hi))
    if inside.size >= min_n:
        return inside
    k = min(min_n, scores.size)
    dist = np.abs(scores - mean)
    return np.sort(np.lexsort((np.arange(scores.size), dist))[:k])


def test_odds_and_lr_basics():
    assert likelihood.odds(0.5) == 1.0
    assert likelihood.odds(0.2) == pytest.approx(0.25)
    assert likelihood_ratio(0.5, 0.2) == pytest.approx(4.0)


def test_hand_example_lr_six():
    # Pre-test 2 of 10, post-test 3 of 5: (3/2) / (2/8) = 6.
    lr, corrected = likelihood.lr_from_counts(3, 5, 2, 10)
    assert lr == pytest.approx(6.0, abs=1e-12)
    assert not corrected


def test_continuity_correction_flagged():
    lr, corrected = likelihood.lr_from_counts(0, 5, 2, 10)
    assert corrected
    assert lr > 0.0
    lr2, corrected2 = likelihood.lr_from_counts(5, 5, 2, 10)
    assert corrected2
    assert np.isfinite(lr2)


def cohort_from(rng, n=400, prevalence=0.25):
    labels = (rng.random(n) < prevalence).astype(float)
    scores = np.clip(rng.normal(0.4 + 0.2 * labels, 0.15), 0, 1)
    return likelihood.ScoredCohort.from_arrays(scores, labels)


def test_lr_curve_starts_at_exactly_one():
    cohort = cohort_from(np.random.default_rng(0))
    curve = likelihood.lr_curve(cohort)
    assert curve.thresholds[0] == 0.0
    assert curve.lr[0] == 1.0  # exact: subgroup == whole cohort


def test_lr_curve_truncates_on_empty_subgroup():
    cohort = likelihood.ScoredCohort.from_arrays(
        np.array([0.1, 0.2, 0.3, 0.4]), np.array([0, 1, 0, 1]))
    curve = likelihood.lr_curve(cohort, np.linspace(0, 1, 11))
    assert curve.truncated_at == pytest.approx(0.5)
    assert curve.thresholds[-1] == pytest.approx(0.4)


def test_lr_curve_matches_manual_counts():
    cohort = cohort_from(np.random.default_rng(1))
    curve = likelihood.lr_curve(cohort, np.array([0.0, 0.5]))
    sel = cohort.scores >= 0.5
    lr, _ = likelihood.lr_from_counts(int(cohort.labels[sel].sum()),
                                      int(sel.sum()),
                                      int(cohort.labels.sum()), len(cohort))
    assert curve.lr[1] == pytest.approx(lr, abs=1e-12)


def lr_curve_oracle(cohort, thresholds=None):
    """Oracle: the threshold-at-a-time loop lr_curve replaced."""
    if thresholds is None:
        thresholds = np.linspace(0.0, 1.0, 101)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n_all = len(cohort)
    pos_all = cohort.n_pos
    ts, lrs, n_ab, np_ab, corr = [], [], [], [], []
    truncated_at = None
    for t in thresholds:
        sel = cohort.scores >= t
        n_sub = int(sel.sum())
        if n_sub == 0:
            truncated_at = float(t)
            break
        pos_sub = int(cohort.labels[sel].sum())
        lr, corrected = likelihood.lr_from_counts(pos_sub, n_sub, pos_all,
                                                  n_all)
        ts.append(float(t))
        lrs.append(lr)
        n_ab.append(n_sub)
        np_ab.append(pos_sub)
        corr.append(corrected)
    return likelihood.LRCurve(
        thresholds=np.array(ts), lr=np.array(lrs), n_above=np.array(n_ab),
        n_pos_above=np.array(np_ab), corrected=np.array(corr, dtype=bool),
        truncated_at=truncated_at)


@st.composite
def lr_curve_cases(draw):
    # Scores from a small pool tie often; thresholds include every score,
    # values above the maximum and come in any order.
    scores = draw(st.lists(st.sampled_from(SCORE_POOL) | st.floats(0.0, 1.0),
                           min_size=2, max_size=40))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(scores),
                           max_size=len(scores)))
    labels[0], labels[1] = 0, 1  # both classes
    point = (st.sampled_from(scores) | st.sampled_from(SCORE_POOL)
             | st.floats(-0.5, 1.5))
    thresholds = draw(st.none() | st.lists(point, max_size=30))
    return np.array(scores), np.array(labels), thresholds


@settings(max_examples=400, deadline=None)
@given(lr_curve_cases())
def test_lr_curve_matches_threshold_loop(case):
    scores, labels, thresholds = case
    cohort = likelihood.ScoredCohort.from_arrays(scores, labels)
    got = likelihood.lr_curve(cohort, thresholds)
    want = lr_curve_oracle(cohort, thresholds)
    for name in ("thresholds", "lr", "n_above", "n_pos_above", "corrected"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.tobytes() == b.tobytes(), name
        assert a.size == 0 or a.dtype == b.dtype, name
    assert got.truncated_at == want.truncated_at


def test_lr_curve_of_one_class_cohort_truncated_at_once():
    cohort = likelihood.ScoredCohort.from_arrays([0.2, 0.3], [1, 1])
    curve = likelihood.lr_curve(cohort, [0.5, 0.1])
    assert curve.truncated_at == 0.5 and curve.lr.size == 0


def test_permutation_null_lr_band():
    """With labels shuffled, LR(t) stays inside the simulated 95% band."""
    rng = np.random.default_rng(2)
    n, prevalence = 600, 0.3
    labels = (rng.random(n) < prevalence).astype(float)
    scores = rng.random(n)
    thresholds = np.linspace(0.0, 0.8, 9)
    # Simulate the null distribution of LR(t) under label permutation.
    sims = np.empty((200, len(thresholds)))
    for s in range(sims.shape[0]):
        perm = rng.permutation(labels)
        c = likelihood.ScoredCohort.from_arrays(scores, perm)
        sims[s] = likelihood.lr_curve(c, thresholds).lr
    lo = np.quantile(sims, 0.025, axis=0)
    hi = np.quantile(sims, 0.975, axis=0)
    observed = likelihood.lr_curve(
        likelihood.ScoredCohort.from_arrays(scores, labels), thresholds).lr
    assert np.all(observed >= lo - 1e-12)
    assert np.all(observed <= hi + 1e-12)


def test_similar_cohort_ci_filter_and_expansion():
    scores = np.linspace(0, 1, 101)
    labels = (scores > 0.5).astype(float)
    dev = likelihood.ScoredCohort.from_arrays(scores, labels)
    wide = RiskAssessment(per_member_scores=[0.5], mean=0.5, std=0.2,
                          ci=(0.3, 0.7))
    sub = likelihood.similar_cohort(dev, wide, min_n=10)
    assert np.all((sub.scores >= 0.3) & (sub.scores <= 0.7))
    narrow = RiskAssessment(per_member_scores=[0.5], mean=0.5, std=0.001,
                            ci=(0.499, 0.501))
    expanded = likelihood.similar_cohort(dev, narrow, min_n=25)
    assert len(expanded) == 25
    # Expansion picks the nearest scores to the ensemble mean.
    assert np.abs(expanded.scores - 0.5).max() <= 0.13


# A small pool of scores forces duplicates. The 1e-17-scale values and the
# neighbouring floats after 0.1 are distinct scores whose distances to most
# means round to the same double.
_after = np.nextafter(0.1, 1.0)
SCORE_POOL = [0.0, 1e-17, 2e-17, 0.1, _after, np.nextafter(_after, 1.0),
              0.25, 0.5, 0.75, 0.9, 1.0]


@st.composite
def similar_cases(draw):
    score = st.sampled_from(SCORE_POOL) | st.floats(0.0, 1.0)
    scores = draw(st.lists(score, min_size=1, max_size=40))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(scores),
                           max_size=len(scores)))
    # Means and CI bounds that land exactly on dev scores, plus lo == hi.
    point = (st.sampled_from(scores) | st.sampled_from(SCORE_POOL)
             | st.floats(-0.5, 1.5))
    query = (st.tuples(point, point, point)
             | st.tuples(point, point).map(lambda t: (t[0], t[1], t[1])))
    queries = draw(st.lists(query, min_size=1, max_size=8))
    min_n = draw(st.integers(0, len(scores) + 3))  # up to beyond len(dev)
    return np.array(scores), np.array(labels), queries, min_n


@settings(max_examples=400, deadline=None)
@given(similar_cases())
def test_similar_cohort_matches_brute_force_oracle(case):
    scores, labels, queries, min_n = case
    dev = likelihood.ScoredCohort.from_arrays(scores, labels)
    mean, lo, hi = (np.array(c) for c in zip(*queries))
    n_pos, n = dev.similar_counts(mean, lo, hi, min_n)
    for i, (m, a, b) in enumerate(queries):
        members = similar_oracle(scores, m, a, b, min_n)
        assert (n_pos[i], n[i]) == (labels[members].sum(), members.size)
        got = likelihood.similar_cohort(
            dev, RiskAssessment([m], m, 0.0, (a, b)), min_n)
        assert got.index.tolist() == members.tolist()


def test_lr_from_counts_arrays_match_scalars():
    pos = np.array([0, 3, 5, 2, 1])
    n = np.array([5, 5, 5, 10, 4])
    lr, corrected = likelihood.lr_from_counts(pos, n, 2, 10)
    for i in range(pos.size):
        assert (lr[i], corrected[i]) == likelihood.lr_from_counts(
            int(pos[i]), int(n[i]), 2, 10)
    assert lr[3] == 1.0 and not corrected[3]  # the whole cohort
    with pytest.raises(LabriskError, match="empty subgroup"):
        likelihood.lr_from_counts(np.array([1, 0]), np.array([2, 0]), 2, 10)


def _record(measurements, age=60.0, sex="female"):
    return EncounterRecord(patient_id="p1", encounter_id="e1",
                           date=datetime.date(2020, 1, 1), age_years=age,
                           sex=sex, measurements=measurements)


def test_oor_score_counts_out_of_range():
    cat = defaults.default_catalog()
    alb = cat.get("albumin").reference_range
    rec = _record({"albumin": alb[0] - 1.0, "calcium": 9.5, "sodium": 140.0})
    score, flagged = likelihood.oor_score(rec, cat)
    assert score == pytest.approx(1.0 / 3.0)
    rec_ok = _record({"albumin": 4.0, "calcium": 9.5})
    assert likelihood.oor_score(rec_ok, cat)[0] == 0.0


def test_age_score_clamps():
    assert likelihood.age_score(40.0) == 0.0
    assert likelihood.age_score(85.0) == 1.0
    assert likelihood.age_score(100.0) == 1.0
    assert likelihood.age_score(62.5) == pytest.approx(0.5)


def test_single_marker_scaler_flips_low_is_risk():
    cat = defaults.default_catalog()
    rng = np.random.default_rng(3)
    dev = [_record({"albumin": float(v), "alp": float(a)})
           for v, a in zip(rng.uniform(3.0, 5.0, 50),
                           rng.uniform(50, 300, 50))]
    feats = ("albumin", "alp")
    params = NormalizationParams(
        median={f: 0.0 for f in feats}, iqd={f: 1.0 for f in feats},
        log_transform={"albumin": False, "alp": True},
        detection_limit={f: 1e-3 for f in feats}, feature_order=feats,
        fitted_on="development", scale_demographics=True)
    # Albumin: low values signal risk, so lower raw value -> higher score.
    scaler = likelihood.SingleMarkerScaler.fit(dev, "albumin", cat, params)
    low = scaler.score(_record({"albumin": 3.1}), cat, params)
    high = scaler.score(_record({"albumin": 4.9}), cat, params)
    assert low > high
    # ALP: high values signal risk.
    scaler2 = likelihood.SingleMarkerScaler.fit(dev, "alp", cat, params)
    assert scaler2.score(_record({"alp": 290.0}), cat, params) > \
        scaler2.score(_record({"alp": 60.0}), cat, params)
    # Missing marker -> no score.
    assert scaler.score(_record({"alp": 100.0}), cat, params) is None


def test_build_report_round_trip():
    rng = np.random.default_rng(4)
    dev = cohort_from(rng, n=500)
    assessment = RiskAssessment(per_member_scores=[0.7, 0.75, 0.72],
                                mean=0.72, std=0.02, ci=(0.70, 0.74))
    report = likelihood.build_report("p9", "liver", assessment, dev, min_n=50)
    d = asdict(report)
    assert d["patient_id"] == "p9"
    assert d["likelihood_ratio"] == pytest.approx(
        likelihood_ratio(d["post_test_probability"],
                         d["pre_test_probability"]))
    text = report.to_text()
    assert "p9" in text and "liver" in text
