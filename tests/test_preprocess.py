"""Derived-marker completion, percentiles, and normalization."""

import dataclasses
import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labrisk import LabriskError, config_from_json, defaults, likelihood
from labrisk.catalog import EncounterRecord, MarkerCatalog
from labrisk.preprocess import (NormalizationParams, complete_derived,
                                feature_columns, fit_normalization,
                                percentile, vectorize, vectorize_many)

import oracles


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


def test_fit_normalization_without_a_positive_detection_limit_names_marker():
    """Half the smallest subnormal rounds to 0, which is no detection limit:
    the clamp would take log10(0) of the value 0."""
    cat, recs = full_records(n=10)
    recs[0].measurements["alt"] = 5e-324
    recs[1].measurements["alt"] = 0.0
    with pytest.raises(LabriskError, match="'alt': no positive detection"):
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
    values, mask = np.split(vectorize(partial, params), 2)
    i = params.feature_order.index("albumin")
    assert mask[i] == 1.0
    j = params.feature_order.index("alt")
    assert mask[j] == 0.0 and values[j] == 0.0
    # Demographics are always observed.
    assert mask[params.feature_order.index("age")] == 1.0
    assert mask[params.feature_order.index("sex")] == 1.0


def test_vectorize_median_maps_to_zero():
    cat, recs = full_records(n=31, seed=3)
    params = fit_normalization(recs, cat, True)
    med_raw = 10.0 ** params.median["alt"]
    values, _ = np.split(vectorize(_record({"alt": med_raw}), params), 2)
    assert values[params.feature_order.index("alt")] == pytest.approx(
        0.0, abs=1e-9)


def test_vectorize_log_clamp_below_detection_limit():
    cat, recs = full_records(n=30, seed=4)
    params = fit_normalization(recs, cat, True)
    values, _ = np.split(vectorize_many(
        [_record({"alt": 1e-12}),
         _record({"alt": params.detection_limit["alt"]})], params), 2, axis=1)
    i = params.feature_order.index("alt")
    assert values[0, i] == pytest.approx(values[1, i])


def test_vectorize_many_shapes():
    cat, recs = full_records(n=20, seed=5)
    params = fit_normalization(recs, cat, True)
    V, M = np.split(vectorize_many(recs, params), 2, axis=1)
    assert V.shape == M.shape == (20, len(params.feature_order))
    assert np.all(M[:, -2:] == 1.0)  # age, sex
    V0, M0 = np.split(vectorize_many([], params), 2, axis=1)
    assert V0.shape == (0, len(params.feature_order))


# The columnar path against the scalar one of tests/oracles.py, bit for bit,
# on a catalog of a raw and a log-flagged marker of each risk direction.
SMALL_CATALOG = MarkerCatalog(tuple(
    m for m in defaults.default_catalog()
    if m.id in ("albumin", "alt", "lymphocytes", "monocytes", "age", "sex")))
# Values whose numpy log10 differs from math.log10 by an ulp on an AVX-512
# host (one log-normal draw in eight there); the columnar path must give
# math.log10's bits.
LOG10_DISAGREES = (0.5350256572448024, 0.9658998954456265, 1.6868778776535684,
                   1.7094321488831303, 6.728455915363802, 7.2395025573468335,
                   12.62312027170285, 52.24791928185807)
MEASURED = (st.sampled_from(LOG10_DISAGREES)
            | st.sampled_from([0.0, -0.0, 1e-300, 3.0, 3.0000000000000004])
            | st.floats(-5.0, 1e4, allow_nan=False))


def _near_limits(params):
    """Values at, just below, far below and just above each log-flagged
    marker's detection limit."""
    return st.sampled_from([
        v for limit in params.detection_limit.values()
        for v in (limit, math.nextafter(limit, 0.0), 0.5 * limit,
                  math.nextafter(limit, math.inf))])


@st.composite
def records(draw, values, n_min, n_max):
    """Encounters of SMALL_CATALOG, each marker absent or drawn from
    `values`."""
    return [
        _record({m: v for m in SMALL_CATALOG.lab_ids
                 if (v := draw(st.none() | values)) is not None},
                age=draw(st.floats(0.0, 130.0)),
                sex=draw(st.sampled_from(["female", "male"])), pid=f"p{i}")
        for i in range(draw(st.integers(n_min, n_max)))]


def _same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _alike(call, reference):
    """reference()'s result and call()'s, or (None, None) after checking
    that both raise a LabriskError of the same message."""
    try:
        expected = reference()
    except LabriskError as e:
        with pytest.raises(LabriskError) as got:
            call()
        assert str(got.value) == str(e)
        return None, None
    return call(), expected


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans())
def test_columnar_features_match_the_scalar_oracle(data, scale_demographics):
    """fit_normalization, vectorize_many and the single-marker scores give
    the scalar path's bits, or its error: absent markers, values at, below
    and above the detection limit, and values whose numpy log10 rounds
    differently."""
    dev = data.draw(records(MEASURED, 2, 24))
    params, expected = _alike(
        lambda: fit_normalization(dev, SMALL_CATALOG, scale_demographics),
        lambda: oracles.fit_normalization(dev, SMALL_CATALOG,
                                          scale_demographics))
    if params is None:
        return
    # repr tells 0.0 from -0.0 and a float from a numpy scalar.
    assert repr(dataclasses.asdict(params)) == \
        repr(dataclasses.asdict(expected))
    val = data.draw(records(MEASURED | _near_limits(params), 1, 12))
    got, expected = _alike(lambda: vectorize_many(val, params),
                           lambda: oracles.vectorize_many(val, params))
    if got is not None:
        _same_bits(got, expected)
    dev_raw, dev_normalized = feature_columns(dev, params)
    val_raw, val_normalized = feature_columns(val, params)
    for i, mid in enumerate(SMALL_CATALOG.lab_ids):
        marker = SMALL_CATALOG.get(mid)
        dev_col, val_col = ((dev_normalized, val_normalized)
                            if marker.log_transform else (dev_raw, val_raw))
        got, scaler = _alike(
            lambda: likelihood.single_marker_scores(
                mid, dev_col[:, i], val_col[:, i],
                marker.risk_direction == "low_is_risk"),
            lambda: oracles.SingleMarkerScaler.fit(dev, mid, SMALL_CATALOG,
                                                   params))
        if scaler is None:
            continue
        expected = [scaler.score(r, SMALL_CATALOG, params) for r in val]
        assert np.isnan(got).tolist() == [s is None for s in expected]
        _same_bits(got[~np.isnan(got)],
                   np.array([s for s in expected if s is not None]))
