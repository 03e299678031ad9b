"""Catalog validation, record serialization, and cohort synthesis."""

import dataclasses
import datetime
import json

import numpy as np
import pytest

from labrisk import LabriskError, config_from_json, defaults
from labrisk.catalog import (ClaimCode, EncounterRecord, MarkerCatalog,
                             MarkerDef, catalog_to_dict,
                             record_from_dict, record_to_dict)
from labrisk.synth import SynthConfig, build_correlation, synthesize_cohort


def marker(mid="albumin", **kw):
    base = dict(id=mid, display_name=mid, unit="g/dL", panel="CMP",
                reference_range=(3.5, 5.5), log_transform=False,
                risk_direction="low_is_risk",
                class_distributions={"no_cancer": (4.5, 0.4),
                                     "colorectal": (4.2, 0.5),
                                     "liver": (4.0, 0.6),
                                     "lung": (4.2, 0.5)})
    base.update(kw)
    return MarkerDef(**base)


def test_catalog_rejects_duplicate_ids():
    with pytest.raises(LabriskError, match="duplicate marker id"):
        MarkerCatalog(markers=(marker(), marker()), version="t")


def test_marker_rejects_inverted_range():
    with pytest.raises(LabriskError, match="inverted reference range"):
        marker(reference_range=(5.5, 3.5)).validate()


def test_marker_requires_all_classes():
    with pytest.raises(LabriskError, match="missing class distributions"):
        marker(class_distributions={"no_cancer": (4.5, 0.4)}).validate()


def test_default_catalog_is_valid_and_complete():
    cat = defaults.default_catalog()
    assert len(cat.lab_markers) == 32
    assert cat.feature_order[-2:] == ("age", "sex")
    for m in cat.lab_markers:
        m.validate()
    # Log transform follows the fixed marker list.
    assert cat.get("alt").log_transform
    assert not cat.get("albumin").log_transform


def test_catalog_json_round_trip():
    cat = defaults.default_catalog()
    again = config_from_json(MarkerCatalog,
                             json.loads(json.dumps(catalog_to_dict(cat))),
                             "catalog")
    assert again.feature_order == cat.feature_order
    assert again.get("alp").class_distributions == \
        cat.get("alp").class_distributions


def test_record_round_trip():
    rec = EncounterRecord(
        patient_id="p1", encounter_id="e1", date=datetime.date(2020, 5, 4),
        age_years=63.0, sex="male", measurements={"albumin": 4.2},
        codes=[ClaimCode("C22.0", "ICD10", datetime.date(2020, 6, 1))])
    again = record_from_dict(json.loads(json.dumps(record_to_dict(rec))))
    assert again == rec


def test_record_validation():
    with pytest.raises(LabriskError, match="age_years -1.0 out of"):
        EncounterRecord(patient_id="p1", encounter_id="e1",
                        date=datetime.date(2020, 1, 1), age_years=-1.0,
                        sex="male", measurements={"albumin": 4.0}).validate()
    with pytest.raises(LabriskError, match="bad sex 'other'"):
        EncounterRecord(patient_id="p1", encounter_id="e1",
                        date=datetime.date(2020, 1, 1), age_years=60.0,
                        sex="other", measurements={"albumin": 4.0}).validate()


def test_correlation_matrix_is_valid():
    cat = defaults.default_catalog()
    corr = build_correlation(cat.lab_ids)
    np.testing.assert_allclose(corr, corr.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(corr), 1.0)
    eigs = np.linalg.eigvalsh(corr)
    assert eigs.min() > 0
    i = cat.lab_ids.index("hemoglobin")
    j = cat.lab_ids.index("hematocrit")
    assert corr[i, j] > 0.9


def synth(n_ctrl=12000, n_liver=2000, seed=0, **kw):
    cat = defaults.default_catalog()
    cfg = SynthConfig(n_per_class={"no_cancer": n_ctrl, "liver": n_liver},
                      seed=seed, **kw)
    return cat, synthesize_cohort(cat, cfg)


def by_class(records):
    """Split encounters by generated class using the injected ICD codes."""
    classes = {"no_cancer": [], "liver": []}
    cancer_pids = set()
    for r in records:
        if any(c.code.startswith("C22") for c in r.codes):
            cancer_pids.add(r.patient_id)
    for r in records:
        key = "liver" if r.patient_id in cancer_pids else "no_cancer"
        classes[key].append(r)
    return classes


def test_synthesis_calibration_means_within_3_se():
    cat, records = synth()
    classes = by_class(records)
    assert len(classes["no_cancer"]) == 12000
    assert len(classes["liver"]) == 2000
    for cls in ("no_cancer", "liver"):
        for mid in ("albumin", "alp", "hemoglobin", "platelets",
                    "eosinophils", "ast"):
            mean, sd = cat.get(mid).class_distributions[cls]
            vals = np.array([r.measurements[mid] for r in classes[cls]
                             if mid in r.measurements])
            se = sd / np.sqrt(len(vals))
            assert abs(vals.mean() - mean) < 3 * se + 1e-9, (cls, mid)


def test_synthesis_preserves_spreads_roughly():
    cat, records = synth(seed=1)
    classes = by_class(records)
    for mid in ("albumin", "alp"):
        for cls in ("no_cancer", "liver"):
            _, sd = cat.get(mid).class_distributions[cls]
            vals = np.array([r.measurements[mid] for r in classes[cls]
                             if mid in r.measurements])
            # Heavy-tailed lognormal markers (e.g. liver ALP, CV near 1)
            # make the sample SD noisy; allow a wide but honest band.
            assert abs(vals.std() - sd) / sd < 0.25, (cls, mid)


def test_synthesis_physiologic_couplings():
    _, records = synth(n_ctrl=8000, n_liver=0, seed=2)
    pairs = [(r.measurements["hemoglobin"], r.measurements["hematocrit"])
             for r in records
             if "hemoglobin" in r.measurements
             and "hematocrit" in r.measurements]
    arr = np.array(pairs)
    rho = np.corrcoef(arr[:, 0], arr[:, 1])[0, 1]
    assert rho > 0.9


def test_synthesis_deterministic():
    _, a = synth(n_ctrl=300, n_liver=60, seed=42)
    _, b = synth(n_ctrl=300, n_liver=60, seed=42)
    assert [record_to_dict(r) for r in a] == [record_to_dict(r) for r in b]
    _, c = synth(n_ctrl=300, n_liver=60, seed=43)
    assert [record_to_dict(r) for r in a] != [record_to_dict(r) for r in c]


def test_cancer_patients_get_diagnosis_after_last_visit():
    _, records = synth(n_ctrl=0, n_liver=400, seed=3)
    by_pid = {}
    for r in records:
        by_pid.setdefault(r.patient_id, []).append(r)
    for pid, recs in by_pid.items():
        last_visit = max(r.date for r in recs)
        dx_dates = [c.date for r in recs for c in r.codes
                    if c.system == "ICD10" and c.code.startswith("C22")]
        assert dx_dates, pid
        assert min(dx_dates) > last_visit


def test_control_screening_rate_near_config():
    _, records = synth(n_ctrl=6000, n_liver=0, seed=4,
                       screening_prob=0.6)
    by_pid = {}
    for r in records:
        by_pid.setdefault(r.patient_id, []).extend(r.codes)
    screened = 0
    liver_codes = (set(defaults.SCREENING_PROCEDURE_CODES["liver"])
                   | set(defaults.SCREENING_ENCOUNTER_CODES["liver"]))
    for codes in by_pid.values():
        if any(c.code in liver_codes for c in codes):
            screened += 1
    rate = screened / len(by_pid)
    assert 0.55 < rate < 0.65


def test_marker_values_positive():
    _, records = synth(n_ctrl=3000, n_liver=500, seed=5)
    for r in records:
        for mid, v in r.measurements.items():
            assert v >= 0.0, (mid, v)


def test_synth_config_validation():
    with pytest.raises(LabriskError, match="unknown class 'nope'"):
        SynthConfig(n_per_class={"nope": 10}).validate()
    with pytest.raises(LabriskError, match="negative count"):
        SynthConfig(n_per_class={"no_cancer": -5}).validate()


@pytest.mark.parametrize("synth, named", [
    ({"panel_dropout": True}, "panel_dropout"),  # a bool is not a number
    ({"n_per_class": {"no_cancer": "x"}}, "n_per_class"),
    ({"missingness": [0.2]}, "missingness"),
    ({"class_missingness_bias": {"liver": None}}, "class_missingness_bias"),
    ({"bogus": 1}, "bogus"),
    ([], "synth"),
])
def test_synth_config_from_json_names_the_bad_key(synth, named):
    with pytest.raises(LabriskError, match=named):
        config_from_json(SynthConfig, synth if isinstance(synth, list) else
                         {"n_per_class": {"no_cancer": 10}, **synth},
                         "run.json: synth")


def test_synth_config_from_json_keeps_valid_values():
    doc = {"n_per_class": {"no_cancer": 10, "liver": 2},
           "class_missingness_bias": None, "screening_prob": 1, "seed": 3}
    assert config_from_json(SynthConfig, doc, "synth") == SynthConfig(**doc)
