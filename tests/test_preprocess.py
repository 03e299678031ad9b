"""Derived-marker completion, percentiles, and normalization."""

import dataclasses
import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labrisk import LabriskError, config_from_json, defaults
from labrisk.catalog import EncounterRecord
from labrisk.preprocess import (NormalizationParams, complete_derived,
                                fit_normalization, normalize_value,
                                percentile, vectorize, vectorize_many)


def _record(measurements, age=60.0, sex="female", pid="p1"):
    return EncounterRecord(patient_id=pid, encounter_id=f"{pid}e1",
                           date=datetime.date(2020, 1, 1), age_years=age,
                           sex=sex, measurements=measurements)


def test_complete_derived_ratio_and_percent():
    rec = _record({"bun": 20.0, "creatinine": 0.8, "wbc": 8.0,
                   "lymphocytes": 2.0, "basophils_pct": 1.0})
    done = complete_derived(rec).measurements
    assert done["bun_creatinine_ratio"] == pytest.approx(25.0)
    assert done["lymphocytes_pct"] == pytest.approx(25.0)
    assert done["basophils"] == pytest.approx(0.08)


def test_complete_derived_never_overwrites():
    rec = _record({"bun": 20.0, "creatinine": 0.8,
                   "bun_creatinine_ratio": 99.0})
    assert complete_derived(rec).measurements["bun_creatinine_ratio"] == 99.0


def test_complete_derived_zero_division_leaves_absent():
    rec = _record({"bun": 20.0, "creatinine": 0.0,
                   "wbc": 0.0, "lymphocytes": 2.0})
    done = complete_derived(rec).measurements
    assert "bun_creatinine_ratio" not in done
    assert "lymphocytes_pct" not in done


def test_complete_derived_does_not_mutate_input():
    rec = _record({"bun": 20.0, "creatinine": 0.8})
    complete_derived(rec)
    assert "bun_creatinine_ratio" not in rec.measurements


def test_percentile_hand_oracle():
    assert percentile([1, 2, 3, 4], 0.25) == pytest.approx(1.75)
    assert percentile([1, 2, 3, 4], 0.75) == pytest.approx(3.25)
    assert percentile([5], 0.5) == 5.0
    with pytest.raises(LabriskError, match="percentile of empty sequence"):
        percentile([], 0.5)
    with pytest.raises(LabriskError, match=r"quantile 1.5 out of \[0, 1\]"):
        percentile([1.0], 1.5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.floats(0.0, 1.0))
def test_percentile_matches_numpy_linear(values, q):
    values = sorted(values)
    assert percentile(values, q) == pytest.approx(
        float(np.percentile(values, 100 * q, method="linear")),
        rel=1e-9, abs=1e-9)


def full_records(n=60, seed=0):
    """Records covering every catalog marker so normalization can fit."""
    cat = defaults.default_catalog()
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(n):
        m = {}
        for marker in cat.lab_markers:
            mean, sd = marker.class_distributions["no_cancer"]
            if sd == 0:
                sd = max(0.1 * abs(mean), 0.05)
            m[marker.id] = float(abs(rng.normal(mean, sd)) + 1e-3)
        recs.append(_record(m, age=float(rng.uniform(41, 88)),
                            sex="male" if i % 2 else "female",
                            pid=f"p{i}"))
    return cat, recs


def test_fit_normalization_log_and_median():
    cat, recs = full_records()
    params = fit_normalization(recs, cat, True)
    assert params.log_transform["alt"] is True
    assert params.log_transform["albumin"] is False
    vals = sorted(r.measurements["albumin"] for r in recs)
    assert params.median["albumin"] == pytest.approx(percentile(vals, 0.5))
    logged = sorted(math.log10(r.measurements["alt"]) for r in recs)
    assert params.median["alt"] == pytest.approx(percentile(logged, 0.5))
    assert params.iqd["alt"] == pytest.approx(
        percentile(logged, 0.75) - percentile(logged, 0.25))
    # Detection limit: half the smallest positive development value.
    smallest = min(r.measurements["alt"] for r in recs)
    assert params.detection_limit["alt"] == pytest.approx(smallest / 2)


def test_fit_normalization_zero_iqd_names_marker():
    cat, recs = full_records(n=10)
    recs = [r.with_measurements({**r.measurements, "sodium": 140.0})
            for r in recs]
    with pytest.raises(LabriskError, match="sodium"):
        fit_normalization(recs, cat, True)


def test_normalization_round_trip():
    cat, recs = full_records(n=30, seed=1)
    params = fit_normalization(recs, cat, True)
    again = config_from_json(NormalizationParams, dataclasses.asdict(params),
                             "normalization")
    assert again == params


def test_vectorize_missing_markers_zero_filled():
    cat, recs = full_records(n=30, seed=2)
    params = fit_normalization(recs, cat, True)
    partial = _record({"albumin": recs[0].measurements["albumin"]})
    vec = vectorize(partial, params)
    i = params.feature_order.index("albumin")
    assert vec.mask[i] == 1.0
    j = params.feature_order.index("alt")
    assert vec.mask[j] == 0.0 and vec.values[j] == 0.0
    # Demographics are always observed.
    assert vec.mask[params.feature_order.index("age")] == 1.0
    assert vec.mask[params.feature_order.index("sex")] == 1.0


def test_vectorize_median_maps_to_zero():
    cat, recs = full_records(n=31, seed=3)
    params = fit_normalization(recs, cat, True)
    med_raw = 10.0 ** params.median["alt"]
    assert normalize_value(med_raw, "alt", params) == pytest.approx(0.0,
                                                                    abs=1e-9)


def test_vectorize_log_clamp_below_detection_limit():
    cat, recs = full_records(n=30, seed=4)
    params = fit_normalization(recs, cat, True)
    tiny = normalize_value(1e-12, "alt", params)
    at_limit = normalize_value(params.detection_limit["alt"], "alt", params)
    assert tiny == pytest.approx(at_limit)


def test_vectorize_many_shapes():
    cat, recs = full_records(n=20, seed=5)
    params = fit_normalization(recs, cat, True)
    V, M = vectorize_many(recs, params)
    assert V.shape == M.shape == (20, len(params.feature_order))
    assert np.all(M[:, -2:] == 1.0)  # age, sex
    V0, M0 = vectorize_many([], params)
    assert V0.shape == (0, len(params.feature_order))
