"""Synthetic EHR cohort generator.

Generates patient encounters whose per-class marker distributions match the
catalog's calibration targets. Values are drawn through a Gaussian copula:
a latent correlated normal vector is pushed through each marker's marginal
(moment-matched log-normal for log-scale or high-dispersion markers,
otherwise normal), so marginal means/sds match the catalog exactly while a
small set of physiologic couplings (hemoglobin-hematocrit, differential
counts vs WBC, BUN vs BUN-creatinine ratio) is preserved for the derived
marker completion logic to exercise.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field

import numpy as np

from . import LabriskError, defaults
from .catalog import (CANCER_CLASSES, ClaimCode, EncounterRecord,
                      MarkerCatalog, MarkerDef)


@dataclass
class SynthConfig:
    n_per_class: dict[str, int]
    missingness: dict[str, float] = field(
        default_factory=lambda: {"CMP": 0.2, "CBC": 0.15})
    panel_dropout: float = 0.03
    visits_per_patient: int = 2
    screening_prob: float = 0.6
    chronic_fraction: float = 0.10
    infection_fraction: float = 0.01
    comorbidity_prevalence: dict[str, dict[str, float]] = field(
        default_factory=lambda: dict(defaults.DEFAULT_COMORBIDITY_PREVALENCE))
    # Leakage mode for robustness testing only: per-class multiplier on
    # marker missingness. None keeps masks independent of the label.
    class_missingness_bias: dict[str, float] | None = None
    seed: int = 0
    start_date: str = "2019-01-01"

    def validate(self) -> None:
        known = {"no_cancer"} | set(defaults.DIAGNOSIS_ICD_PREFIXES)
        for cls, n in self.n_per_class.items():
            if cls not in known:
                raise LabriskError(f"unknown class {cls!r}")
            if n < 0:
                raise LabriskError(f"negative count for class {cls!r}")
        for panel, p in self.missingness.items():
            if not 0.0 <= p <= 1.0:
                raise LabriskError(f"missingness[{panel}] out of [0,1]")
        for p, name in ((self.panel_dropout, "panel_dropout"),
                        (self.screening_prob, "screening_prob"),
                        (self.chronic_fraction, "chronic_fraction"),
                        (self.infection_fraction, "infection_fraction")):
            if not 0.0 <= p <= 1.0:
                raise LabriskError(f"{name} out of [0,1]")
        if self.visits_per_patient < 1:
            raise LabriskError("visits_per_patient must be >= 1")
        if self.seed < 0:
            raise LabriskError(f"seed must be >= 0, got {self.seed}")
        try:
            start = datetime.date.fromisoformat(self.start_date)
        except ValueError as e:
            raise LabriskError(f"start_date: {e}") from None
        # Keeps every drawn date, before or after start, in date's range.
        if not 1900 <= start.year <= 2100:
            raise LabriskError(f"start_date must be in the years 1900 to "
                               f"2100, got {self.start_date!r}")


# Latent-space couplings used by the copula. Values are correlations of the
# latent normals; marginals are unaffected.
COUPLINGS = {
    ("hemoglobin", "hematocrit"): 0.97,
    ("wbc", "neutrophils"): 0.80,
    ("wbc", "lymphocytes"): 0.50,
    ("wbc", "monocytes"): 0.45,
    ("wbc", "eosinophils"): 0.30,
    ("wbc", "basophils"): 0.25,
    ("lymphocytes", "lymphocytes_pct"): 0.60,
    ("eosinophils", "eosinophils_pct"): 0.80,
    ("basophils", "basophils_pct"): 0.80,
    ("bun", "bun_creatinine_ratio"): 0.70,
    ("creatinine", "bun_creatinine_ratio"): -0.35,
    ("bun", "creatinine"): 0.30,
    ("mch", "mcv"): 0.85,
    ("mch", "mchc"): 0.50,
}


def build_correlation(lab_ids: tuple[str, ...]) -> np.ndarray:
    """Correlation matrix over lab markers; guaranteed positive definite."""
    idx = {m: i for i, m in enumerate(lab_ids)}
    c = np.eye(len(lab_ids))
    for (a, b), rho in COUPLINGS.items():
        if a in idx and b in idx:
            c[idx[a], idx[b]] = c[idx[b], idx[a]] = rho
    # Clip eigenvalues if the hand-specified couplings are not jointly PSD.
    w, v = np.linalg.eigh(c)
    if w.min() < 1e-8:
        w = np.clip(w, 1e-8, None)
        c = v @ np.diag(w) @ v.T
        d = np.sqrt(np.diag(c))
        c = c / np.outer(d, d)
    return c


def _marginal(marker: MarkerDef, cls: str):
    """Pick `marker`'s sampler for class `cls`: ('lognormal', mu, sigma) |
    ('normal', m, s) | ('constant', m, 0).

    Log-flagged markers are log-normal by design. High-dispersion markers
    (mean < 3 sd) also use a moment-matched log-normal: a zero-truncated
    normal cannot reproduce their mean without bias, and lab values must be
    non-negative.
    """
    mean, sd = marker.class_distributions[cls]
    if sd <= 0:
        return ("constant", mean, 0.0)
    if (marker.log_transform or mean < 3.0 * sd) and mean > 0:
        try:
            sigma2 = math.log(1.0 + (sd / mean) ** 2)
        except OverflowError:
            raise LabriskError(
                f"marker {marker.id!r}: class {cls!r}: distribution "
                f"({mean}, {sd}) overflows a log-normal") from None
        mu = math.log(mean) - 0.5 * sigma2
        return ("lognormal", mu, math.sqrt(sigma2))
    return ("normal", mean, sd)


def _transform_column(z: np.ndarray, kind: str, p1: float, p2: float) -> np.ndarray:
    if kind == "lognormal":
        return np.exp(p1 + p2 * z)
    if kind == "normal":
        return np.maximum(p1 + p2 * z, 0.0)
    return np.full_like(z, p1)


def _claim_codes(cls: str, date: datetime.date,
                 diagnosis_date: datetime.date | None,
                 rng: np.random.Generator,
                 screening_prob: float) -> list[ClaimCode]:
    """Screening/diagnosis claim codes of an encounter on `date` for the
    given cohort class.

    Cancer classes receive one screening or diagnostic procedure code, the
    matching ICD-10 diagnosis code at the diagnosis date, and at least one
    post-diagnosis confirmation code. Controls receive screening codes only,
    probabilistically and independently per cancer type.
    """
    codes = []
    if cls in CANCER_CLASSES:
        pool = (defaults.SCREENING_PROCEDURE_CODES[cls]
                + defaults.SCREENING_ENCOUNTER_CODES[cls]
                + defaults.DIAGNOSTIC_PROCEDURE_CODES[cls])
        proc = pool[int(rng.integers(len(pool)))]
        system = "ICD10" if proc.startswith("Z") else "CPT"
        codes.append(ClaimCode(proc, system, date))
        icd = defaults.DIAGNOSIS_ICD_PREFIXES[cls]
        dx = icd[int(rng.integers(len(icd)))]
        codes.append(ClaimCode(dx, "ICD10", diagnosis_date))
        n_conf = 1 + int(rng.integers(2))
        for _ in range(n_conf):
            code, csys = defaults.CONFIRMATION_CODES[
                int(rng.integers(len(defaults.CONFIRMATION_CODES)))]
            offset = int(rng.integers(10, 90))
            codes.append(ClaimCode(
                code, csys, diagnosis_date + datetime.timedelta(days=offset)))
    else:
        for cancer in CANCER_CLASSES:
            if rng.random() < screening_prob:
                pool = (defaults.SCREENING_PROCEDURE_CODES[cancer]
                        + defaults.SCREENING_ENCOUNTER_CODES[cancer])
                proc = pool[int(rng.integers(len(pool)))]
                system = "ICD10" if proc.startswith("Z") else "CPT"
                codes.append(ClaimCode(proc, system, date))
    return codes


def synthesize_cohort(catalog: MarkerCatalog,
                      config: SynthConfig) -> list[EncounterRecord]:
    """Generate encounter records for every requested class.

    Deterministic given the seed. Counts in ``n_per_class`` are encounter
    counts; each patient receives ``visits_per_patient`` encounters.
    """
    config.validate()
    lab = catalog.lab_markers
    lab_ids = catalog.lab_ids
    for mid in ("age", "sex"):
        if mid not in catalog:
            raise LabriskError(f"no {mid!r} marker to draw the {mid} from")
    for cls in config.n_per_class:
        for m in (*lab, catalog.get("age"), catalog.get("sex")):
            if cls not in m.class_distributions:
                raise LabriskError(
                    f"class {cls!r} has no distribution for marker {m.id!r}")

    rng = np.random.default_rng(config.seed)
    corr = build_correlation(lab_ids)
    chol = np.linalg.cholesky(corr)
    start = datetime.date.fromisoformat(config.start_date)
    panels = np.array([m.panel for m in lab])
    base_miss = np.array([config.missingness.get(m.panel, 0.0) for m in lab])

    records: list[EncounterRecord] = []
    patient_counter = 0
    for cls, n_enc in config.n_per_class.items():
        if n_enc == 0:
            continue
        visits = config.visits_per_patient
        n_pat = math.ceil(n_enc / visits)
        marginals = [_marginal(m, cls) for m in lab]
        age_mean, age_sd = catalog.get("age").class_distributions[cls]
        male_frac = catalog.get("sex").class_distributions[cls][0]
        miss = base_miss
        if config.class_missingness_bias:
            miss = np.clip(
                base_miss * config.class_missingness_bias.get(cls, 1.0), 0, 1)

        # One correlated latent draw per encounter, transformed per marker.
        n_total = n_pat * visits
        z = rng.standard_normal((n_total, len(lab))) @ chol.T
        values = np.empty_like(z)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for j, (kind, p1, p2) in enumerate(marginals):
                values[:, j] = _transform_column(z[:, j], kind, p1, p2)
        infinite = ~np.isfinite(values).all(axis=0)
        if infinite.any():
            raise LabriskError(
                f"marker {lab_ids[infinite.argmax()]!r}: class {cls!r}: "
                "distribution draws values too large for a float")

        absent = rng.random((n_total, len(lab))) < miss
        for panel in ("CMP", "CBC"):
            drop = rng.random(n_total) < config.panel_dropout
            absent[np.ix_(drop, panels == panel)] = True
        # Every encounter keeps at least one measurement.
        empty = np.flatnonzero(absent.all(axis=1))
        if empty.size:
            absent[empty, rng.integers(0, len(lab), size=empty.size)] = False

        row = 0
        emitted = 0
        for _ in range(n_pat):
            patient_counter += 1
            pid = f"p{patient_counter:07d}"
            age = float(np.clip(rng.normal(age_mean, age_sd), 18.0, 110.0))
            sex = "male" if rng.random() < male_frac else "female"
            t0 = start + datetime.timedelta(days=int(rng.integers(0, 365)))
            interval = int(rng.integers(45, 120))
            dates = [t0 + datetime.timedelta(days=i * interval)
                     for i in range(visits)]
            diagnosis_date = None
            if cls in CANCER_CLASSES:
                diagnosis_date = dates[-1] + datetime.timedelta(
                    days=int(rng.integers(15, 60)))

            patient_records = []
            for i in range(visits):
                present = ~absent[row]
                measurements = {lab_ids[j]: float(values[row, j])
                                for j in np.flatnonzero(present)}
                rec = EncounterRecord(
                    patient_id=pid,
                    encounter_id=f"{pid}e{i + 1}",
                    date=dates[i],
                    age_years=round(age + i * interval / 365.25, 1),
                    sex=sex,
                    measurements=measurements,
                )
                row += 1
                patient_records.append(rec)

            # Claims history lives on the first encounter of the patient.
            codes = _claim_codes(cls, dates[0], diagnosis_date, rng,
                                 config.screening_prob)
            for code, prevs in config.comorbidity_prevalence.items():
                if rng.random() < prevs.get(cls, 0.0):
                    back = int(rng.integers(30, 400))
                    codes.append(ClaimCode(
                        code, "ICD10", t0 - datetime.timedelta(days=back)))
            if cls == "no_cancer" and rng.random() < config.chronic_fraction:
                code = defaults.CHRONIC_DISEASE_CODES[
                    int(rng.integers(len(defaults.CHRONIC_DISEASE_CODES)))]
                codes.append(ClaimCode(
                    code, "ICD10",
                    t0 - datetime.timedelta(days=int(rng.integers(30, 400)))))
            if rng.random() < config.infection_fraction:
                code = defaults.ACUTE_INFECTION_CODES[
                    int(rng.integers(len(defaults.ACUTE_INFECTION_CODES)))]
                visit = int(rng.integers(visits))
                codes.append(ClaimCode(code, "ICD10", dates[visit]))
            patient_records[0].codes = codes

            remaining = n_enc - emitted
            take = min(visits, remaining)
            records.extend(patient_records[:take])
            emitted += take
            if emitted >= n_enc:
                break
    return records
