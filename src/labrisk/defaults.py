"""Shipped default marker catalog and claims-code tables.

Per-class distributions are calibrated to published cohort statistics for the
15 CMP and 17 CBC markers plus age and sex. Reference ranges are standard
adult clinical intervals; they are data, not code, and can be overridden by
loading a different catalog file.
"""

from __future__ import annotations

from .catalog import LOG_MARKERS, MarkerCatalog, MarkerDef

CATALOG_VERSION = "labrisk-catalog-1"

# id: (display, unit, panel, ref_range, risk_direction,
#      {class: (mean, sd) in native units})
# Basophil absolute counts are reported as 0.0 +/- 0.0 at the published
# precision; a small positive stand-in keeps the distribution non-degenerate.
_MARKER_TABLE = {
    # --- CMP ---
    "albumin": ("Albumin", "g/dL", "CMP", (3.5, 5.0), "low_is_risk",
                {"no_cancer": (4.5, 0.3), "colorectal": (4.2, 0.4),
                 "liver": (4.0, 0.6), "lung": (4.2, 0.4)}),
    "alp": ("ALP", "U/L", "CMP", (44.0, 147.0), "high_is_risk",
            {"no_cancer": (80.8, 45.0), "colorectal": (96.5, 52.4),
             "liver": (166.0, 169.0), "lung": (103.0, 77.0)}),
    "alt": ("ALT", "U/L", "CMP", (7.0, 56.0), "high_is_risk",
            {"no_cancer": (24.6, 24.2), "colorectal": (28.0, 24.8),
             "liver": (44.8, 74.9), "lung": (21.6, 18.1)}),
    "ast": ("AST", "U/L", "CMP", (10.0, 40.0), "high_is_risk",
            {"no_cancer": (24.0, 23.4), "colorectal": (29.4, 20.6),
             "liver": (46.7, 54.6), "lung": (24.2, 18.6)}),
    "bilirubin": ("Bilirubin", "mg/dL", "CMP", (0.1, 1.2), "high_is_risk",
                  {"no_cancer": (0.5, 0.4), "colorectal": (0.5, 0.3),
                   "liver": (1.0, 2.0), "lung": (0.4, 0.4)}),
    "bun": ("BUN", "mg/dL", "CMP", (7.0, 20.0), "high_is_risk",
            {"no_cancer": (16.4, 8.3), "colorectal": (16.2, 12.0),
             "liver": (15.9, 7.3), "lung": (17.7, 9.9)}),
    "bun_creatinine_ratio": ("BUN-Creatinine Ratio", "ratio", "CMP",
                             (10.0, 20.0), "high_is_risk",
                             {"no_cancer": (17.6, 5.6), "colorectal": (17.3, 6.0),
                              "liver": (18.1, 6.0), "lung": (18.0, 6.3)}),
    "calcium": ("Calcium", "mg/dL", "CMP", (8.6, 10.2), "low_is_risk",
                {"no_cancer": (9.4, 0.4), "colorectal": (9.3, 0.5),
                 "liver": (9.2, 0.6), "lung": (9.3, 0.6)}),
    "chloride": ("Chloride", "mEq/L", "CMP", (96.0, 106.0), "low_is_risk",
                 {"no_cancer": (102.0, 3.0), "colorectal": (102.0, 3.0),
                  "liver": (101.0, 4.0), "lung": (101.0, 4.0)}),
    "creatinine": ("Creatinine", "mg/dL", "CMP", (0.6, 1.3), "unsigned",
                   {"no_cancer": (1.0, 0.7), "colorectal": (1.0, 0.7),
                    "liver": (0.9, 0.4), "lung": (1.0, 0.6)}),
    "glucose": ("Glucose", "mg/dL", "CMP", (70.0, 110.0), "high_is_risk",
                {"no_cancer": (109.0, 44.0), "colorectal": (120.0, 46.0),
                 "liver": (126.0, 55.0), "lung": (119.0, 51.0)}),
    "potassium": ("Potassium", "mEq/L", "CMP", (3.5, 5.1), "unsigned",
                  {"no_cancer": (4.4, 0.4), "colorectal": (4.4, 0.5),
                   "liver": (4.4, 0.5), "lung": (4.4, 0.6)}),
    "sodium": ("Sodium", "mEq/L", "CMP", (135.0, 145.0), "low_is_risk",
               {"no_cancer": (140.0, 3.0), "colorectal": (140.0, 3.0),
                "liver": (139.0, 4.0), "lung": (140.0, 4.0)}),
    "total_co2": ("Total CO2", "mEq/L", "CMP", (22.0, 29.0), "unsigned",
                  {"no_cancer": (24.0, 2.9), "colorectal": (23.9, 3.2),
                   "liver": (24.3, 3.2), "lung": (24.1, 3.1)}),
    "total_protein": ("Total protein", "g/dL", "CMP", (6.0, 8.3), "low_is_risk",
                      {"no_cancer": (7.2, 0.5), "colorectal": (6.9, 0.6),
                       "liver": (7.1, 0.7), "lung": (7.0, 0.6)}),
    # --- CBC ---
    "basophils": ("Basophils", "10^3/uL", "CBC", (0.0, 0.2), "unsigned",
                  {"no_cancer": (0.04, 0.02), "colorectal": (0.04, 0.02),
                   "liver": (0.04, 0.02), "lung": (0.04, 0.02)}),
    "basophils_pct": ("Basophils %", "%", "CBC", (0.0, 2.0), "unsigned",
                      {"no_cancer": (0.6, 0.4), "colorectal": (0.5, 0.4),
                       "liver": (0.5, 0.4), "lung": (0.5, 0.4)}),
    "eosinophils": ("Eosinophils", "10^3/uL", "CBC", (0.0, 0.5), "unsigned",
                    {"no_cancer": (0.2, 0.2), "colorectal": (0.2, 0.2),
                     "liver": (0.2, 0.2), "lung": (0.2, 0.2)}),
    "eosinophils_pct": ("Eosinophil %", "%", "CBC", (0.0, 6.0), "unsigned",
                        {"no_cancer": (2.8, 2.4), "colorectal": (3.1, 3.0),
                         "liver": (2.7, 2.7), "lung": (2.6, 3.0)}),
    "hematocrit": ("Hematocrit", "%", "CBC", (36.0, 50.0), "low_is_risk",
                   {"no_cancer": (40.9, 4.7), "colorectal": (38.1, 5.8),
                    "liver": (37.7, 6.0), "lung": (38.0, 5.7)}),
    "hemoglobin": ("Hemoglobin", "g/dL", "CBC", (12.0, 17.5), "low_is_risk",
                   {"no_cancer": (13.5, 1.7), "colorectal": (12.5, 2.1),
                    "liver": (12.5, 2.2), "lung": (12.5, 2.0)}),
    "hba1c": ("Hemoglobin A1c %", "%", "CBC", (4.0, 5.6), "high_is_risk",
              {"no_cancer": (6.1, 1.2), "colorectal": (6.4, 1.5),
               "liver": (6.5, 1.5), "lung": (6.4, 1.4)}),
    "lymphocytes": ("Lymphocytes", "10^3/uL", "CBC", (1.0, 4.8), "low_is_risk",
                    {"no_cancer": (2.0, 0.8), "colorectal": (1.7, 0.8),
                     "liver": (1.7, 1.0), "lung": (1.8, 1.4)}),
    "lymphocytes_pct": ("Lymphocytes %", "%", "CBC", (20.0, 40.0), "low_is_risk",
                        {"no_cancer": (31.7, 9.4), "colorectal": (27.4, 11.7),
                         "liver": (26.0, 11.8), "lung": (25.8, 12.2)}),
    "neutrophils": ("Neutrophils", "10^3/uL", "CBC", (1.8, 7.7), "high_is_risk",
                    {"no_cancer": (3.7, 1.7), "colorectal": (4.5, 3.5),
                     "liver": (4.3, 3.1), "lung": (4.7, 3.1)}),
    "mch": ("MCH", "pg", "CBC", (27.0, 33.0), "unsigned",
            {"no_cancer": (29.7, 2.6), "colorectal": (29.5, 3.3),
             "liver": (30.0, 3.0), "lung": (29.9, 2.5)}),
    "mchc": ("MCHC", "g/dL", "CBC", (32.0, 36.0), "unsigned",
             {"no_cancer": (33.0, 1.2), "colorectal": (33.0, 1.5),
              "liver": (33.0, 1.5), "lung": (32.8, 1.2)}),
    "mcv": ("MCV", "fL", "CBC", (80.0, 100.0), "unsigned",
            {"no_cancer": (89.8, 6.3), "colorectal": (89.3, 7.7),
             "liver": (90.5, 7.0), "lung": (90.9, 6.2)}),
    "monocytes": ("Monocytes", "10^3/uL", "CBC", (0.2, 0.8), "high_is_risk",
                  {"no_cancer": (0.5, 0.2), "colorectal": (0.6, 0.3),
                   "liver": (0.6, 0.3), "lung": (0.6, 0.3)}),
    "platelets": ("Platelets", "10^3/uL", "CBC", (150.0, 450.0), "unsigned",
                  {"no_cancer": (248.0, 72.0), "colorectal": (256.0, 118.0),
                   "liver": (223.0, 103.0), "lung": (259.0, 110.0)}),
    "rdw": ("RDW", "%", "CBC", (11.5, 14.5), "high_is_risk",
            {"no_cancer": (13.6, 1.4), "colorectal": (14.5, 2.0),
             "liver": (14.6, 2.0), "lung": (14.5, 2.1)}),
    "wbc": ("WBC", "10^3/uL", "CBC", (4.5, 11.0), "high_is_risk",
            {"no_cancer": (6.5, 2.3), "colorectal": (6.9, 3.6),
             "liver": (6.9, 3.5), "lung": (7.4, 3.8)}),
}

AGE_DISTRIBUTIONS = {
    "no_cancer": (61.38, 12.28),
    "colorectal": (63.11, 10.82),
    "liver": (64.05, 11.21),
    "lung": (67.48, 10.03),
}

# Fraction of male patients per class.
MALE_FRACTION = {
    "no_cancer": 8473 / 17390,
    "colorectal": 196 / 387,
    "liver": 434 / 751,
    "lung": 384 / 752,
}

# Screening / diagnosis claims codes used for cohort selection and label
# assignment, by cancer type.
SCREENING_PROCEDURE_CODES = {
    "colorectal": ("G0105", "G0120", "G0121", "G2204",
                   "45378", "45388", "45330", "45381"),
    "liver": ("76700", "76705", "78215"),
    "lung": ("G0296", "71271", "71045", "71046", "71047", "71048"),
}
SCREENING_ENCOUNTER_CODES = {
    "colorectal": ("Z1211", "Z1212", "Z1213"),
    "liver": ("Z1289",),
    "lung": ("Z122",),
}
DIAGNOSTIC_PROCEDURE_CODES = {
    "colorectal": ("45380", "45382", "45384", "45385", "45390"),
    "liver": ("47000", "74176", "74177", "74148"),
    "lung": ("71250",),
}
DIAGNOSIS_ICD_PREFIXES = {
    "colorectal": ("C18", "C19", "C20"),
    "liver": ("C22",),
    "lung": ("C34",),
}

# Single-marker LR baselines of the lr command, by cancer type.
SINGLE_MARKERS = {
    "colorectal": ("rdw", "hemoglobin", "mcv", "neutrophils", "mch"),
    "liver": ("platelets", "alp", "ast", "albumin", "total_protein"),
    "lung": ("rdw", "hemoglobin", "lymphocytes_pct", "alt", "calcium"),
}

# Post-diagnosis confirmation codes (chemotherapy / radiation / encounter for
# antineoplastic therapy).
CONFIRMATION_CODES = (
    ("96413", "CPT"), ("96415", "CPT"), ("77427", "CPT"),
    ("Z51.11", "ICD10"), ("Z51.0", "ICD10"),
)

# SIRS / sepsis / septic shock exclusion codes. The conditions are named in
# the source material; this default code list is overridable data.
ACUTE_INFECTION_CODES = ("R65.1", "R65.2", "A41")

# Chronic kidney / liver disease codes used for control-cohort enrichment.
CHRONIC_DISEASE_CODES = ("N18.3", "N18.4", "K74.60", "K70.30", "B18.2")

# Background comorbidity prevalence per class, used by the synthetic
# generator so comorbidity analysis has signal to find.
DEFAULT_COMORBIDITY_PREVALENCE = {
    # code: {class: prevalence}
    "K59.9": {"no_cancer": 0.03, "colorectal": 0.12, "liver": 0.04, "lung": 0.03},
    "D12.6": {"no_cancer": 0.02, "colorectal": 0.10, "liver": 0.02, "lung": 0.02},
    "K62.5": {"no_cancer": 0.01, "colorectal": 0.08, "liver": 0.01, "lung": 0.01},
    "R19.5": {"no_cancer": 0.01, "colorectal": 0.07, "liver": 0.01, "lung": 0.01},
    "K74.60": {"no_cancer": 0.02, "colorectal": 0.02, "liver": 0.18, "lung": 0.02},
    "B18.2": {"no_cancer": 0.01, "colorectal": 0.01, "liver": 0.12, "lung": 0.01},
    "F17.210": {"no_cancer": 0.10, "colorectal": 0.12, "liver": 0.12, "lung": 0.35},
    "J44.9": {"no_cancer": 0.05, "colorectal": 0.05, "liver": 0.05, "lung": 0.20},
    "E11.9": {"no_cancer": 0.15, "colorectal": 0.18, "liver": 0.20, "lung": 0.17},
    "I10": {"no_cancer": 0.30, "colorectal": 0.33, "liver": 0.33, "lung": 0.35},
    "N18.3": {"no_cancer": 0.04, "colorectal": 0.05, "liver": 0.05, "lung": 0.05},
}

# Demo ICD-10 prefix -> phecode mapping covering the codes the synthetic
# generator emits. Full phecode tables are third-party artifacts; the loader
# accepts them when provided in the same two/three-column format.
DEMO_PHECODE_MAP = (
    ("K59", "564", "Other disorders of intestine"),
    ("D12", "208", "Benign neoplasm of colon"),
    ("K62.5", "562", "Hemorrhage of rectum and anus"),
    ("R19.5", "578.8", "Blood in stool"),
    ("K74", "571.5", "Cirrhosis of liver"),
    ("B18", "070.3", "Chronic viral hepatitis"),
    ("F17", "318", "Tobacco use disorder"),
    ("J44", "496", "Chronic obstructive pulmonary disease"),
    ("E11", "250.2", "Type 2 diabetes"),
    ("I10", "401.1", "Essential hypertension"),
    ("N18", "585.3", "Chronic kidney disease"),
    ("K70", "571.2", "Alcoholic liver damage"),
)


def default_catalog() -> MarkerCatalog:
    entries = []
    for mid, (name, unit, panel, rr, direction, dists) in _MARKER_TABLE.items():
        entries.append(MarkerDef(
            id=mid, display_name=name, unit=unit, panel=panel,
            reference_range=rr, log_transform=mid in LOG_MARKERS,
            risk_direction=direction, class_distributions=dists,
        ))
    entries.append(MarkerDef(
        id="age", display_name="Age", unit="years", panel="demographic",
        reference_range=None, log_transform=False, risk_direction="high_is_risk",
        class_distributions=AGE_DISTRIBUTIONS,
    ))
    entries.append(MarkerDef(
        id="sex", display_name="Sex", unit="male=1", panel="demographic",
        reference_range=None, log_transform=False, risk_direction="unsigned",
        class_distributions={k: (v, 0.0) for k, v in MALE_FRACTION.items()},
    ))
    return MarkerCatalog(markers=tuple(entries), version=CATALOG_VERSION)
