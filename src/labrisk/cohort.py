"""Consort-flow cohort selection: screening-population selection by claim
codes, label assignment with confirmation, window/visit/age filters, acute
infection exclusion, control enrichment, and the stratified 2:1
development/validation split at patient level."""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from . import LabriskError, config_from_json, decode_fields, defaults
from .catalog import EncounterRecord, record_from_dict, record_to_dict
from .preprocess import complete_derived

WINDOW_DAYS = 365  # "12 months" (label horizon and lookback)
SPLIT_RATIO = (2, 1)  # development : validation patients
AGE_BIN_YEARS = 5  # width of the split's age strata
# The widest infection window: a century, wider than any patient's history.
MAX_INFECTION_WINDOW_DAYS = 36500


@dataclass
class CohortSpec:
    cancer_type: str
    screening_codes: frozenset[str]
    encounter_codes: frozenset[str]
    diagnostic_codes: frozenset[str]
    diagnosis_icd_prefixes: tuple[str, ...]
    therapy_codes: frozenset[str] = frozenset(
        c for c, _ in defaults.CONFIRMATION_CODES)
    infection_codes: tuple[str, ...] = defaults.ACUTE_INFECTION_CODES
    confirmation_required: bool = True
    min_markers: int = 18
    age_range: tuple[float, float] = (40.0, 89.0)
    infection_window_days: int = 30

    def __post_init__(self):
        if self.min_markers < 1:
            raise LabriskError("min_markers must be >= 1")
        if not 0 <= self.infection_window_days <= MAX_INFECTION_WINDOW_DAYS:
            raise LabriskError(
                "infection_window_days must be in "
                f"[0, {MAX_INFECTION_WINDOW_DAYS}], "
                f"got {self.infection_window_days}")
        if not self.age_range[0] < self.age_range[1]:
            raise LabriskError("age_range must be increasing")

    @classmethod
    def for_cancer(cls, cancer_type: str, overrides: dict | None = None,
                   where: str = "cohort") -> "CohortSpec":
        if cancer_type not in defaults.DIAGNOSIS_ICD_PREFIXES:
            raise LabriskError(f"unknown cancer type {cancer_type!r}")
        if "cancer_type" in (overrides or {}):
            raise LabriskError(f"{where}: cancer_type: set by the run's "
                               "cancer_type, not by an override")
        kwargs = dict(
            cancer_type=cancer_type,
            screening_codes=frozenset(
                defaults.SCREENING_PROCEDURE_CODES[cancer_type]),
            encounter_codes=frozenset(
                defaults.SCREENING_ENCOUNTER_CODES[cancer_type]),
            diagnostic_codes=frozenset(
                defaults.DIAGNOSTIC_PROCEDURE_CODES[cancer_type]),
            diagnosis_icd_prefixes=defaults.DIAGNOSIS_ICD_PREFIXES[cancer_type],
        )
        return config_from_json(cls, {**kwargs, **(overrides or {})}, where)


@dataclass
class LabeledEncounter:
    record: EncounterRecord
    label: bool
    cancer_type: str
    diagnosis_date: datetime.date | None = None
    split: str = "unassigned"  # development | validation | unassigned
    split_fallback: bool = False  # stratum too small, globally assigned


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _cancer_type(value) -> str:
    if value not in defaults.DIAGNOSIS_ICD_PREFIXES:
        raise ValueError(f"unknown cancer type {value!r}")
    return value


def _split_name(value) -> str:
    if value not in ("development", "validation", "unassigned"):
        raise ValueError(f"unknown split {value!r}")
    return value


def _date_or_none(value) -> datetime.date | None:
    return None if value is None else datetime.date.fromisoformat(value)


# A labeled.jsonl line is the encounter's record fields plus these.
LABEL_FIELDS = {
    "label": _flag,
    "cancer_type": _cancer_type,
    "split": _split_name,
    "diagnosis_date": _date_or_none,
    "split_fallback": _flag,
}


def labeled_to_dict(e: LabeledEncounter) -> dict:
    return {**record_to_dict(e.record), "label": e.label,
            "cancer_type": e.cancer_type, "split": e.split,
            "diagnosis_date": (e.diagnosis_date.isoformat()
                               if e.diagnosis_date else None),
            "split_fallback": e.split_fallback}


def labeled_from_dict(d: dict, where: str) -> LabeledEncounter:
    """Decode and validate one labeled.jsonl line, every label field
    required; LabriskError names `where` and a bad field."""
    record = record_from_dict(d, where)
    return LabeledEncounter(record, **decode_fields(d, where, LABEL_FIELDS))


def group_by_patient(records) -> dict[str, list[EncounterRecord]]:
    out: dict[str, list[EncounterRecord]] = {}
    for r in records:
        out.setdefault(r.patient_id, []).append(r)
    for recs in out.values():
        recs.sort(key=lambda r: (r.date, r.encounter_id))
    return out


def patient_codes(records: list[EncounterRecord]):
    return [c for r in records for c in r.codes]


def select_screening_population(by_patient: dict, spec: CohortSpec) -> set[str]:
    """Patients with at least one screening or screening-encounter code; a
    diagnostic procedure code qualifies as fallback."""
    selected = set()
    primary = spec.screening_codes | spec.encounter_codes
    for pid, recs in by_patient.items():
        codes = {c.code for c in patient_codes(recs)}
        if codes & primary or codes & spec.diagnostic_codes:
            selected.add(pid)
    return selected


def _matches_dx(code: str, prefixes) -> bool:
    return any(code.startswith(p) for p in prefixes)


def _dx_codes(records: list[EncounterRecord], spec: CohortSpec) -> list:
    """The patient's ICD-10 codes with a cancer-diagnosis prefix."""
    return [c for c in patient_codes(records) if c.system == "ICD10"
            and _matches_dx(c.code, spec.diagnosis_icd_prefixes)]


def assign_label(records: list[EncounterRecord],
                 spec: CohortSpec) -> tuple[bool, datetime.date | None]:
    """Label is positive iff a diagnosis-prefixed ICD-10 code exists and,
    when confirmation is required, at least one additional qualifying code
    (therapy, diagnostic procedure, or another diagnosis code) occurs
    strictly after the first diagnosis date."""
    dx = _dx_codes(records, spec)
    if not dx:
        return False, None
    first = min(c.date for c in dx)
    if not spec.confirmation_required:
        return True, first
    for c in patient_codes(records):
        if c.date <= first:
            continue
        if (c.code in spec.therapy_codes or c.code in spec.diagnostic_codes
                or _matches_dx(c.code, spec.diagnosis_icd_prefixes)):
            return True, first
    return False, None


def marker_count(record: EncounterRecord) -> int:
    """Measurement count used by the >= min_markers filter, taken after
    derived-marker completion."""
    return len(complete_derived(record).measurements)


def filter_encounters(records: list[EncounterRecord], label: bool,
                      diagnosis_date: datetime.date | None,
                      spec: CohortSpec) -> list[LabeledEncounter]:
    """Window, visit, age, marker-count, and prior-cancer filters for one
    patient's encounters."""
    kept = []
    last_date = max(r.date for r in records)
    for r in records:
        if label:
            lo = diagnosis_date - datetime.timedelta(days=WINDOW_DAYS)
            if not (lo < r.date <= diagnosis_date):
                continue
        else:
            if r.date >= last_date:  # negatives need a subsequent record
                continue
        if diagnosis_date is not None and r.date > diagnosis_date:
            continue  # no encounters after a cancer history
        if not spec.age_range[0] <= r.age_years <= spec.age_range[1]:
            continue
        if marker_count(r) < spec.min_markers:
            continue
        kept.append(LabeledEncounter(
            record=r, label=label, cancer_type=spec.cancer_type,
            diagnosis_date=diagnosis_date))
    return kept


def exclude_acute_infection(encounters: list[LabeledEncounter],
                            by_patient: dict,
                            spec: CohortSpec) -> list[LabeledEncounter]:
    """Drop encounters whose patient carries a SIRS/sepsis/septic-shock code
    within +/- infection_window_days of the encounter date."""
    window = datetime.timedelta(days=spec.infection_window_days)
    kept = []
    for e in encounters:
        recs = by_patient.get(e.record.patient_id, [])
        hit = any(
            c.code.startswith(p)
            for c in patient_codes(recs)
            for p in spec.infection_codes
            if abs((c.date - e.record.date).days) <= window.days)
        if not hit:
            kept.append(e)
    return kept


def split_dev_val(encounters: list[LabeledEncounter],
                  seed: int) -> list[LabeledEncounter]:
    """Assign each patient (all their encounters together) to development or
    validation in SPLIT_RATIO, stratified by (age bin, sex, label). Strata
    with fewer than 3 patients fall back to a single global stratum and are
    flagged."""
    by_pid: dict[str, list[LabeledEncounter]] = {}
    for e in encounters:
        by_pid.setdefault(e.record.patient_id, []).append(e)

    def stratum(es: list[LabeledEncounter]):
        first = min(es, key=lambda e: e.record.date)
        age_bin = int(first.record.age_years // AGE_BIN_YEARS)
        return (age_bin, first.record.sex, first.label)

    strata: dict[tuple, list[str]] = {}
    for pid, es in by_pid.items():
        strata.setdefault(stratum(es), []).append(pid)

    rng = np.random.default_rng(seed)
    dev_n, val_n = SPLIT_RATIO
    frac = dev_n / (dev_n + val_n)
    fallback_pool = []
    assignments: dict[str, tuple[str, bool]] = {}

    def assign(pids: list[str], fallback: bool) -> None:
        order = rng.permutation(len(pids))
        n_dev = int(round(frac * len(pids)))
        for rank, i in enumerate(order):
            split = "development" if rank < n_dev else "validation"
            assignments[pids[i]] = (split, fallback)

    for key in sorted(strata, key=repr):
        pids = sorted(strata[key])
        if len(pids) < 3:
            fallback_pool.extend(pids)
        else:
            assign(pids, False)
    if fallback_pool:
        assign(sorted(fallback_pool), True)

    for e in encounters:
        split, flagged = assignments[e.record.patient_id]
        e.split = split
        e.split_fallback = flagged
    return encounters


def qualifies_as_control(records: list[EncounterRecord],
                         spec: CohortSpec) -> bool:
    """No cancer-diagnosis ICD code at any time (history or within the
    12-month label horizon of any encounter)."""
    return not _dx_codes(records, spec)


def enrich_controls(encounters: list[LabeledEncounter],
                    extra_by_patient: dict, spec: CohortSpec,
                    seed: int) -> list[LabeledEncounter]:
    """Append qualifying extra control encounters (age/marker filters
    applied). Unconfirmed-screening cancer patients among the extras are
    added to the development split only."""
    existing = {e.record.patient_id for e in encounters}
    added = []
    for pid in sorted(extra_by_patient):
        if pid in existing:
            continue
        recs = extra_by_patient[pid]
        if qualifies_as_control(recs, spec):
            added.extend(filter_encounters(recs, False, None, spec))
        elif not assign_label(recs, spec)[0]:
            # Patient has an unconfirmed diagnosis trail or screening-less
            # cancer codes; usable for development only.
            first = min(c.date for c in _dx_codes(recs, spec))
            dev_only = filter_encounters(recs, True, first, spec)
            for e in dev_only:
                e.split = "development"
                e.split_fallback = True
            encounters = encounters + dev_only
    if added:
        added = split_dev_val(added, seed)
        encounters = encounters + added
    return encounters


@dataclass
class ConsortStage:
    stage: str
    n_patients: int
    n_encounters: int
    n_positive_patients: int


def consort_row(stage: str, encounters: list[LabeledEncounter]) -> ConsortStage:
    pids = {e.record.patient_id for e in encounters}
    pos = {e.record.patient_id for e in encounters if e.label}
    return ConsortStage(stage=stage, n_patients=len(pids),
                        n_encounters=len(encounters),
                        n_positive_patients=len(pos))


def run_cohort_pipeline(records: list[EncounterRecord], spec: CohortSpec,
                        seed: int, enrich: bool
                        ) -> tuple[list[LabeledEncounter], list[ConsortStage]]:
    """Full consort flow over a raw record set, split with `seed` and, if
    `enrich`, with unscreened controls added. Returns the labeled, split
    encounters and the per-stage count table."""
    by_patient = group_by_patient(records)
    screened = select_screening_population(by_patient, spec)
    flow = []

    labeled: list[LabeledEncounter] = []
    for pid in sorted(screened):
        recs = by_patient[pid]
        label, dx_date = assign_label(recs, spec)
        labeled.extend(filter_encounters(recs, label, dx_date, spec))
    flow.append(consort_row("screening_population_filtered", labeled))

    labeled = exclude_acute_infection(labeled, by_patient, spec)
    flow.append(consort_row("after_infection_exclusion", labeled))

    labeled = split_dev_val(labeled, seed)

    if enrich:
        extras = {pid: recs for pid, recs in by_patient.items()
                  if pid not in screened}
        labeled = enrich_controls(labeled, extras, spec, seed)
    flow.append(consort_row("after_enrichment", labeled))
    return labeled, flow
