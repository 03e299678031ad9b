"""Consort-flow cohort selection. `read_claims` reads each patient's claim
codes once. Screened patients' encounters pass the window, visit, age,
marker-count and acute infection filters, then a stratified 2:1
development/validation split by patient. Enrichment adds the unscreened by
id: those with an unconfirmed diagnosis join development as positives, and
the controls are split like the screened ones, with the same seed."""

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


@dataclass
class Claims:
    """What a patient's claim codes decide; first_dx is None without a
    diagnosis, and infections are the dates of acute infection codes."""
    screened: bool
    first_dx: datetime.date | None
    label: bool
    infections: list[datetime.date]


def read_claims(records: list[EncounterRecord], spec: CohortSpec) -> Claims:
    """One pass over the patient's codes. A diagnosis is an ICD-10 code with
    a diagnosis prefix; a confirmation is a therapy, diagnostic or
    diagnosis-prefixed code of any system dated after the first diagnosis."""
    screening = (spec.screening_codes | spec.encounter_codes
                 | spec.diagnostic_codes)
    screened, dx, confirming, infections = False, [], [], []
    for c in (c for r in records for c in r.codes):
        screened = screened or c.code in screening
        if c.code.startswith(spec.diagnosis_icd_prefixes):
            confirming.append(c.date)
            if c.system == "ICD10":
                dx.append(c.date)
        elif c.code in spec.therapy_codes or c.code in spec.diagnostic_codes:
            confirming.append(c.date)
        if c.code.startswith(spec.infection_codes):
            infections.append(c.date)
    first_dx = min(dx, default=None)
    label = bool(dx) and (not spec.confirmation_required
                          or max(confirming) > first_dx)
    return Claims(screened, first_dx, label, infections)


def marker_count(record: EncounterRecord) -> int:
    """Measurement count used by the >= min_markers filter, taken after
    derived-marker completion."""
    return len(complete_derived(record).measurements)


def filter_encounters(records: list[EncounterRecord], label: bool,
                      diagnosis_date: datetime.date | None,
                      spec: CohortSpec) -> list[LabeledEncounter]:
    """Window, visit, age and marker-count filters for one patient's
    encounters: a positive's lie in the WINDOW_DAYS up to diagnosis_date,
    and a negative's (diagnosis_date None) need a later record."""
    kept = []
    last_date = max(r.date for r in records)
    for r in records:
        if label:
            lo = diagnosis_date - datetime.timedelta(days=WINDOW_DAYS)
            if not (lo < r.date <= diagnosis_date):
                continue
        elif r.date >= last_date:  # negatives need a subsequent record
            continue
        if not spec.age_range[0] <= r.age_years <= spec.age_range[1]:
            continue
        if marker_count(r) < spec.min_markers:
            continue
        kept.append(LabeledEncounter(
            record=r, label=label, cancer_type=spec.cancer_type,
            diagnosis_date=diagnosis_date))
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
    frac = SPLIT_RATIO[0] / sum(SPLIT_RATIO)
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
        e.split, e.split_fallback = assignments[e.record.patient_id]
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
    `enrich`, with unscreened patients added (see the module docstring).
    Returns the labeled, split encounters and the per-stage count table."""
    by_patient = group_by_patient(records)
    claims = {pid: read_claims(by_patient[pid], spec)
              for pid in sorted(by_patient)}
    flow = []

    labeled = [e for pid, c in claims.items() if c.screened
               for e in filter_encounters(by_patient[pid], c.label,
                                          c.first_dx if c.label else None,
                                          spec)]
    flow.append(consort_row("screening_population_filtered", labeled))

    labeled = [e for e in labeled if not any(
        abs((date - e.record.date).days) <= spec.infection_window_days
        for date in claims[e.record.patient_id].infections)]
    flow.append(consort_row("after_infection_exclusion", labeled))

    labeled = split_dev_val(labeled, seed)

    if enrich:
        unscreened = [(by_patient[pid], c) for pid, c in claims.items()
                      if not c.screened]
        dev_only = [e for recs, c in unscreened
                    if c.first_dx is not None and not c.label
                    for e in filter_encounters(recs, True, c.first_dx, spec)]
        for e in dev_only:
            e.split, e.split_fallback = "development", True
        controls = [e for recs, c in unscreened if c.first_dx is None
                    for e in filter_encounters(recs, False, None, spec)]
        labeled += dev_only + split_dev_val(controls, seed)
    flow.append(consort_row("after_enrichment", labeled))
    return labeled, flow
