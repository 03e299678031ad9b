"""Cohort construction logic: labeling, filters, and the dev/val split."""

import datetime
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labrisk import LabriskError, defaults
from labrisk.catalog import ClaimCode, EncounterRecord, record_from_dict
from labrisk.cohort import (WINDOW_DAYS, CohortSpec, LabeledEncounter,
                            assign_label, exclude_acute_infection,
                            filter_encounters, group_by_patient,
                            labeled_from_dict, labeled_to_dict,
                            marker_count, qualifies_as_control,
                            run_cohort_pipeline, select_screening_population,
                            split_dev_val)
from labrisk.synth import SynthConfig, synthesize_cohort

SPEC = CohortSpec.for_cancer("liver")
BASE = datetime.date(2020, 1, 1)
MARKERS = [m.id for m in defaults.default_catalog().lab_markers]


def rec(pid, eid, day, age=60.0, n_markers=20, codes=(), sex="female"):
    msr = {MARKERS[i]: 1.0 + i for i in range(n_markers)}
    return EncounterRecord(
        patient_id=pid, encounter_id=eid,
        date=BASE + datetime.timedelta(days=day), age_years=age, sex=sex,
        measurements=msr, codes=list(codes))


def code(c, day, system="ICD10"):
    return ClaimCode(c, system, BASE + datetime.timedelta(days=day))


# --- labeling -----------------------------------------------------------------

def test_for_cancer_overrides_are_checked_json():
    spec = CohortSpec.for_cancer("liver", {"age_range": [50, 80],
                                           "min_markers": 10})
    assert spec.age_range == (50, 80) and spec.min_markers == 10
    assert spec.screening_codes == SPEC.screening_codes
    for overrides, named in (({"age_range": [50]}, "age_range"),
                             ({"age_range": [50, "x"]}, r"age_range\[1\]"),
                             ({"screening_codes": [1]}, "screening_codes"),
                             ({"min_markers": True}, "min_markers"),
                             ({"bogus": 1}, "bogus")):
        with pytest.raises(LabriskError, match=named):
            CohortSpec.for_cancer("liver", overrides)


def test_label_requires_confirmation_after_first_dx():
    # Diagnosis alone: not a confirmed case.
    records = [rec("p", "e1", 0, codes=[code("C22.0", 10)])]
    assert assign_label(records, SPEC) == (False, None)
    # Therapy code strictly after the diagnosis confirms it.
    records = [rec("p", "e1", 0,
                   codes=[code("C22.0", 10), code("Z51.11", 40)])]
    label, dx = assign_label(records, SPEC)
    assert label and dx == BASE + datetime.timedelta(days=10)
    # Confirmation on the same date does not count (strictly after).
    records = [rec("p", "e1", 0,
                   codes=[code("C22.0", 10), code("Z51.11", 10)])]
    assert assign_label(records, SPEC) == (False, None)
    # A second diagnosis code later also confirms.
    records = [rec("p", "e1", 0,
                   codes=[code("C22.0", 10), code("C22.1", 50)])]
    assert assign_label(records, SPEC)[0]


def test_screening_population_selection():
    by_patient = group_by_patient([
        rec("a", "e1", 0, codes=[code("76700", 0, "CPT")]),   # screening
        rec("b", "e1", 0, codes=[code("Z1289", 0)]),           # encounter
        rec("c", "e1", 0, codes=[code("47000", 0, "CPT")]),    # diagnostic
        rec("d", "e1", 0, codes=[code("99213", 0, "CPT")]),    # unrelated
    ])
    spec = CohortSpec.for_cancer("liver")
    assert select_screening_population(by_patient, spec) == {"a", "b", "c"}


def test_qualifies_as_control():
    assert qualifies_as_control([rec("p", "e1", 0)], SPEC)
    assert not qualifies_as_control(
        [rec("p", "e1", 0, codes=[code("C22.9", 500)])], SPEC)


# --- encounter filters ---------------------------------------------------------

def test_positive_window_is_strict():
    dx = BASE + datetime.timedelta(days=400)
    records = [
        rec("p", "early", 400 - WINDOW_DAYS, n_markers=20),   # on boundary: out
        rec("p", "in1", 400 - WINDOW_DAYS + 1, n_markers=20),  # just inside
        rec("p", "at_dx", 400, n_markers=20),                  # inclusive end
        rec("p", "late", 401, n_markers=20),                   # after dx: out
    ]
    kept = filter_encounters(records, True, dx, SPEC)
    assert [e.record.encounter_id for e in kept] == ["in1", "at_dx"]


def test_negative_requires_subsequent_record():
    records = [rec("p", "e1", 0), rec("p", "e2", 100), rec("p", "e3", 200)]
    kept = filter_encounters(records, False, None, SPEC)
    assert [e.record.encounter_id for e in kept] == ["e1", "e2"]


def test_age_filter_bounds():
    records = [rec("p", "young", 0, age=39.9), rec("p", "lo", 1, age=40.0),
               rec("p", "hi", 2, age=89.0), rec("p", "old", 3, age=89.1),
               rec("p", "last", 4, age=60.0)]
    kept = filter_encounters(records, False, None, SPEC)
    assert [e.record.encounter_id for e in kept] == ["lo", "hi"]


def test_marker_count_uses_derived_completion():
    # 17 raw markers + wbc + lymphocytes gives lymphocytes_pct -> 20 total.
    msr = {MARKERS[i]: 1.0 + i for i in range(17)}
    msr.update({"wbc": 8.0, "lymphocytes": 2.0})
    r = EncounterRecord(patient_id="p", encounter_id="e", date=BASE,
                        age_years=60.0, sex="male", measurements=msr)
    assert len(r.measurements) == 19
    assert marker_count(r) == 20


def test_min_marker_filter():
    records = [rec("p", "thin", 0, n_markers=17),
               rec("p", "ok", 1, n_markers=18),
               rec("p", "last", 2, n_markers=30)]
    kept = filter_encounters(records, False, None, SPEC)
    assert [e.record.encounter_id for e in kept] == ["ok"]


def test_infection_exclusion_window():
    sick_day = 50
    records = [rec("p", "e1", sick_day - 31),
               rec("p", "e2", sick_day - 30),
               rec("p", "e3", sick_day + 30),
               rec("p", "e4", sick_day + 31),
               rec("p", "e5", sick_day + 200,
                   codes=[code("R65.20", sick_day)])]
    by_patient = group_by_patient(records)
    kept = filter_encounters(records, False, None, SPEC)
    kept = exclude_acute_infection(kept, by_patient, SPEC)
    assert [e.record.encounter_id for e in kept] == ["e1", "e4"]


# --- split ---------------------------------------------------------------------

def labeled_population(rng, n_patients):
    encounters = []
    for i in range(n_patients):
        pid = f"p{i}"
        label = rng.random() < 0.3
        age = float(rng.uniform(40, 89))
        sex = "male" if rng.random() < 0.5 else "female"
        n_enc = int(rng.integers(1, 4))
        records = [rec(pid, f"{pid}e{j}", j * 30 + int(rng.integers(0, 10)),
                       age=age, sex=sex) for j in range(n_enc)]
        if label:
            dx = BASE + datetime.timedelta(days=n_enc * 30 + 40)
            encounters.extend(filter_encounters(records, True, dx, SPEC))
        else:
            records.append(rec(pid, f"{pid}elast", 900, age=age, sex=sex))
            encounters.extend(filter_encounters(records, False, None, SPEC))
    return encounters


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=30, max_value=200))
def test_split_patients_never_straddle(seed, n_patients):
    rng = np.random.default_rng(seed)
    encounters = labeled_population(rng, n_patients)
    split = split_dev_val(encounters, seed % 1000)
    by_pid = {}
    for e in split:
        by_pid.setdefault(e.record.patient_id, set()).add(e.split)
    for pid, splits in by_pid.items():
        assert len(splits) == 1, pid
        assert splits <= {"development", "validation"}


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_split_ratio_within_stratum(seed):
    rng = np.random.default_rng(seed)
    encounters = labeled_population(rng, 300)
    split = split_dev_val(encounters, 7)
    # Per (age-bin, sex, label) stratum of size >= 3, the patient-level
    # dev:val ratio is 2:1 with rounding, i.e. n_dev = round(2/3 * n).
    strata = {}
    for e in split:
        pid = e.record.patient_id
        key = (int(e.record.age_years // 5), e.record.sex, e.label)
        strata.setdefault(key, {})[pid] = (e.split, e.split_fallback)
    for key, members in strata.items():
        if any(fb for _, fb in members.values()):
            continue  # globally assigned fallback patients
        n = len(members)
        n_dev = sum(1 for s, _ in members.values() if s == "development")
        assert abs(n_dev - round(2 * n / 3)) <= 1, (key, n, n_dev)


def test_split_small_stratum_flagged_as_fallback():
    # Twelve patients share one stratum; one patient sits alone in another.
    crowd = []
    for i in range(12):
        crowd.extend(filter_encounters(
            [rec(f"c{i}", f"c{i}e1", 0, age=52.0),
             rec(f"c{i}", f"c{i}e2", 500, age=53.0)],
            False, None, SPEC))
    lone = filter_encounters(
        [rec("lonely", "le1", 0, age=88.0, sex="male"),
         rec("lonely", "le2", 500, age=88.5, sex="male")],
        False, None, SPEC)
    split = split_dev_val(crowd + lone, 1)
    lonely = [e for e in split if e.record.patient_id == "lonely"]
    assert lonely and all(e.split_fallback for e in lonely)
    others = [e for e in split if e.record.patient_id != "lonely"]
    assert others and not any(e.split_fallback for e in others)


def test_split_deterministic():
    encounters = labeled_population(np.random.default_rng(6), 120)
    a = split_dev_val(list(encounters), 3)
    b = split_dev_val(list(encounters), 3)
    assert [(e.record.encounter_id, e.split) for e in a] == \
        [(e.record.encounter_id, e.split) for e in b]


# --- the labeled.jsonl line ----------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
CLAIM_CODES = st.builds(ClaimCode, st.text(min_size=1, max_size=6),
                        st.sampled_from(["ICD10", "CPT"]), st.dates())
RECORDS = st.builds(
    EncounterRecord, st.text(max_size=6), st.text(max_size=6), st.dates(),
    st.floats(0.0, 130.0), st.sampled_from(["male", "female"]),
    st.dictionaries(st.text(max_size=6), FINITE, max_size=4),
    st.lists(CLAIM_CODES, max_size=3))
LABELED = st.builds(
    LabeledEncounter, RECORDS, st.booleans(),
    st.sampled_from(sorted(defaults.DIAGNOSIS_ICD_PREFIXES)),
    st.none() | st.dates(),
    st.sampled_from(["development", "validation", "unassigned"]),
    st.booleans())


@settings(max_examples=50, deadline=None)
@given(LABELED)
def test_labeled_line_round_trips_through_json(e):
    line = json.dumps(labeled_to_dict(e), sort_keys=True)
    assert labeled_from_dict(json.loads(line), "labeled.jsonl:1") == e


def test_decoded_encounters_share_marker_name_keys():
    """Encounters decoded from different lines point at one key string per
    marker, through record_from_dict and labeled_from_dict alike."""
    lines = [json.dumps(labeled_to_dict(LabeledEncounter(
        rec(f"p{i}", f"e{i}", i), False, "liver"))) for i in range(2)]
    for decode in (lambda d: record_from_dict(d, "cohort.jsonl:1"),
                   lambda d: labeled_from_dict(d, "labeled.jsonl:1").record):
        first, second = (decode(json.loads(line)).measurements
                         for line in lines)
        assert list(first) == list(second) == MARKERS[:20]
        assert all(a is b for a, b in zip(first, second))


# --- end-to-end over synthetic data --------------------------------------------

@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pipeline_invariants_on_random_cohorts(seed):
    cat = defaults.default_catalog()
    cfg = SynthConfig(n_per_class={"no_cancer": 400, "liver": 80}, seed=seed)
    records = synthesize_cohort(cat, cfg)
    labeled, flow = run_cohort_pipeline(records, SPEC, seed, True)
    assert flow[-1].n_encounters == len(labeled)
    for e in labeled:
        assert SPEC.age_range[0] <= e.record.age_years <= SPEC.age_range[1]
        assert marker_count(e.record) >= SPEC.min_markers
        assert e.split in ("development", "validation")
        if e.label:
            assert e.diagnosis_date is not None
            delta = (e.diagnosis_date - e.record.date).days
            assert 0 <= delta < WINDOW_DAYS
    by_pid = {}
    for e in labeled:
        by_pid.setdefault(e.record.patient_id, set()).add(e.split)
    assert all(len(s) == 1 for s in by_pid.values())
