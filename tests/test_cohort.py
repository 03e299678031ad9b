"""Cohort construction logic: labeling, filters, and the dev/val split."""

import datetime
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labrisk import LabriskError, defaults
from labrisk.catalog import ClaimCode, EncounterRecord, record_from_dict
from labrisk.cohort import (WINDOW_DAYS, CohortSpec, LabeledEncounter,
                            filter_encounters, group_by_patient,
                            labeled_from_dict, labeled_to_dict,
                            marker_count, read_claims, run_cohort_pipeline,
                            split_dev_val)
from labrisk.synth import SynthConfig, synthesize_cohort

import oracles

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
    def label(*codes):
        claims = read_claims([rec("p", "e1", 0, codes=codes)], SPEC)
        return claims.label, claims.first_dx
    dx = BASE + datetime.timedelta(days=10)
    # Diagnosis alone: not a confirmed case.
    assert label(code("C22.0", 10)) == (False, dx)
    # Therapy code strictly after the diagnosis confirms it.
    assert label(code("C22.0", 10), code("Z51.11", 40)) == (True, dx)
    # Confirmation on the same date does not count (strictly after).
    assert label(code("C22.0", 10), code("Z51.11", 10)) == (False, dx)
    # A second diagnosis code later also confirms, as does a diagnostic
    # procedure.
    assert label(code("C22.0", 10), code("C22.1", 50)) == (True, dx)
    assert label(code("C22.0", 10), code("47000", 50, "CPT")) == (True, dx)
    # An earlier diagnosis code moves the first diagnosis date.
    assert label(code("C22.1", 50), code("C22.0", 10)) == (True, dx)


def test_screening_population_selection():
    by_patient = group_by_patient([
        rec("a", "e1", 0, codes=[code("76700", 0, "CPT")]),   # screening
        rec("b", "e1", 0, codes=[code("Z1289", 0)]),           # encounter
        rec("c", "e1", 0, codes=[code("47000", 0, "CPT")]),    # diagnostic
        rec("d", "e1", 0, codes=[code("99213", 0, "CPT")]),    # unrelated
    ])
    spec = CohortSpec.for_cancer("liver")
    assert {pid for pid, recs in by_patient.items()
            if read_claims(recs, spec).screened} == {"a", "b", "c"}


def test_qualifies_as_control():
    """A control has no cancer-diagnosis ICD-10 code at any time; with
    enrichment, an unscreened control joins the cohort as a negative."""
    control = [rec("p", "e1", 0), rec("p", "e2", 100)]
    assert read_claims(control, SPEC).first_dx is None
    labeled, _ = run_cohort_pipeline(control, SPEC, 0, True)
    assert [(e.record.encounter_id, e.label) for e in labeled] == \
        [("e1", False)]
    diagnosed = [rec("p", "e1", 0, codes=[code("C22.9", 500)])]
    assert read_claims(diagnosed, SPEC).first_dx is not None
    assert read_claims(  # a diagnosis is an ICD-10 code
        [rec("p", "e1", 0, codes=[code("C22.9", 500, "CPT")])],
        SPEC).first_dx is None


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
    records = [rec("p", "e1", sick_day - 31,
                   codes=[code("76700", 0, "CPT")]),  # screened
               rec("p", "e2", sick_day - 30),
               rec("p", "e3", sick_day + 30),
               rec("p", "e4", sick_day + 31),
               rec("p", "e5", sick_day + 200,
                   codes=[code("R65.20", sick_day)])]
    labeled, flow = run_cohort_pipeline(records, SPEC, 0, False)
    assert [e.record.encounter_id for e in labeled] == ["e1", "e4"]
    assert [row.n_encounters for row in flow] == [4, 2, 2]


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


# --- the consort flow against the oracle ---------------------------------------

# Days on a 10-day grid, so that windows' edges are often hit exactly; a
# claim code's day is an offset from its encounter's.
DAYS = st.integers(-10, 100).map(lambda k: 10 * k)
OFFSETS = st.integers(-40, 40).map(lambda k: 10 * k)


def _screening_codes(cancer_type):
    return (defaults.SCREENING_PROCEDURE_CODES[cancer_type]
            + defaults.SCREENING_ENCOUNTER_CODES[cancer_type]
            + defaults.DIAGNOSTIC_PROCEDURE_CODES[cancer_type])


def _dx_codes(cancer_type):
    return [p + s for p in defaults.DIAGNOSIS_ICD_PREFIXES[cancer_type]
            for s in ("", ".0", ".9")]


def _histories(cancer_type):
    """(cancer_type, patients' encounters) whose claim codes are drawn a
    category at a time: the cancer type's screening, screening-encounter
    and diagnostic codes, its diagnosis-prefixed codes, therapy codes,
    infection codes, and unrelated ones (other cancer types' codes and
    near-misses); each with either system."""
    others = [t for t in defaults.DIAGNOSIS_ICD_PREFIXES if t != cancer_type]
    categories = [
        _screening_codes(cancer_type), _dx_codes(cancer_type),
        [c for c, _ in defaults.CONFIRMATION_CODES],
        [p + s for p in defaults.ACUTE_INFECTION_CODES for s in ("", "0")],
        [*(c for t in others
           for c in (*_screening_codes(t), *_dx_codes(t))),
         "99213", "E11.9", "K74.60", "C2", "R65"]]
    codes = st.lists(st.tuples(
        st.sampled_from(categories).flatmap(st.sampled_from),
        st.sampled_from(["ICD10", "CPT"]), OFFSETS), max_size=3)
    encounter = st.tuples(DAYS, st.sampled_from([35.0, 40.0, 60.0, 89.5]),
                          st.sampled_from([5, 17, 18, 20, 30]),
                          st.sampled_from(["male", "female"]), codes)
    return st.tuples(st.just(cancer_type), st.lists(
        st.lists(encounter, min_size=1, max_size=4), min_size=4, max_size=16))


def _history_records(histories):
    return [rec(f"p{i}", f"p{i}e{j}", day, age=age, n_markers=n, sex=sex,
                codes=[code(c, day + offset, system)
                       for c, system, offset in codes])
            for i, encounters in enumerate(histories)
            for j, (day, age, n, sex, codes) in enumerate(encounters)]


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(sorted(defaults.DIAGNOSIS_ICD_PREFIXES)).flatmap(
           _histories), DAYS.map(abs), st.integers(1, 25),
       st.integers(0, 1000))
def test_consort_flow_matches_the_oracle(histories, window, min_markers,
                                         seed):
    """run_cohort_pipeline reads each patient's codes once and gives the
    encounters and counts of the flow that scans them per question, with
    confirmation required or not and enrichment on or off."""
    cancer_type, histories = histories
    records = _history_records(histories)
    for confirm, enrich in itertools.product((True, False), repeat=2):
        spec = CohortSpec.for_cancer(cancer_type, {
            "confirmation_required": confirm,
            "infection_window_days": window, "min_markers": min_markers})
        labeled, flow = run_cohort_pipeline(records, spec, seed, enrich)
        want, want_flow = oracles.run_cohort_pipeline(records, spec, seed,
                                                      enrich)
        assert [labeled_to_dict(e) for e in labeled] == \
            [labeled_to_dict(e) for e in want]
        assert flow == want_flow
