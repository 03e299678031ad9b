"""Marker catalog and patient encounter data model.

The catalog defines the universe of laboratory markers: identifiers, units,
panels, clinical reference ranges, log-transform flags, risk orientation, and
per-class synthesis distributions. Catalog order is load-bearing: it defines
feature-vector indices everywhere downstream.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import asdict, dataclass, field, replace

from . import LabriskError, config_from_json, decode_fields, read_json

PANELS = ("CMP", "CBC", "demographic")
RISK_DIRECTIONS = ("high_is_risk", "low_is_risk", "unsigned")
REQUIRED_CLASSES = ("no_cancer", "colorectal", "liver", "lung")
CANCER_CLASSES = ("colorectal", "liver", "lung")

# Markers whose distributions are shifted to log10 scale before normalization.
LOG_MARKERS = frozenset({
    "alt", "alp", "ast", "bilirubin", "creatinine", "rdw", "glucose",
    "wbc", "lymphocytes", "neutrophils", "bun",
})


@dataclass(frozen=True)
class MarkerDef:
    id: str
    display_name: str
    unit: str
    panel: str
    reference_range: tuple[float, float] | None
    log_transform: bool
    risk_direction: str
    class_distributions: dict[str, tuple[float, float]]

    def validate(self) -> None:
        if not self.id:
            raise LabriskError("marker id must be non-empty")
        if self.panel not in PANELS:
            raise LabriskError(f"{self.id}: unknown panel {self.panel!r}")
        if self.risk_direction not in RISK_DIRECTIONS:
            raise LabriskError(
                f"{self.id}: unknown risk_direction {self.risk_direction!r}")
        if self.reference_range is not None:
            lo, hi = self.reference_range
            if not (lo < hi):
                raise LabriskError(
                    f"{self.id}: inverted reference range ({lo}, {hi})")
        if self.panel != "demographic":
            missing = [c for c in REQUIRED_CLASSES
                       if c not in self.class_distributions]
            if missing:
                raise LabriskError(
                    f"{self.id}: missing class distributions for {missing}")
        for cls, (mean, sd) in self.class_distributions.items():
            if not (math.isfinite(mean) and math.isfinite(sd)) or sd < 0:
                raise LabriskError(
                    f"{self.id}: bad distribution for class {cls!r}")


@dataclass(frozen=True)
class MarkerCatalog:
    entries: tuple[MarkerDef, ...]
    version: str

    def __post_init__(self) -> None:
        by_id = {}
        for m in self.entries:
            m.validate()
            if m.id in by_id:
                raise LabriskError(f"duplicate marker id {m.id!r}")
            by_id[m.id] = m
        object.__setattr__(self, "_by_id", by_id)  # the dataclass is frozen

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, marker_id: str) -> bool:
        return marker_id in self._by_id

    def get(self, marker_id: str) -> MarkerDef:
        return self._by_id[marker_id]

    @property
    def lab_markers(self) -> tuple[MarkerDef, ...]:
        return tuple(m for m in self.entries if m.panel != "demographic")

    @property
    def lab_ids(self) -> tuple[str, ...]:
        return tuple(m.id for m in self.lab_markers)

    @property
    def feature_order(self) -> tuple[str, ...]:
        """Lab markers in catalog order, with age and sex appended."""
        return self.lab_ids + ("age", "sex")


@dataclass(frozen=True)
class ClaimCode:
    code: str
    system: str  # "ICD10" | "CPT"
    date: datetime.date

    def __post_init__(self) -> None:
        if not self.code:
            raise LabriskError("claim code must be non-empty")
        if self.system not in ("ICD10", "CPT"):
            raise LabriskError(f"unknown code system {self.system!r}")


@dataclass
class EncounterRecord:
    patient_id: str
    encounter_id: str
    date: datetime.date
    age_years: float
    sex: str  # "male" | "female"
    measurements: dict[str, float]
    codes: list[ClaimCode] = field(default_factory=list)

    def validate(self, where: str | None = None) -> None:
        """Sex, age range and finite measurements; LabriskError names
        `where` (default: the encounter id)."""
        where = where or self.encounter_id
        if self.sex not in ("male", "female"):
            raise LabriskError(f"{where}: bad sex {self.sex!r}")
        if not (0 <= self.age_years <= 130):
            raise LabriskError(
                f"{where}: age_years {self.age_years} out of [0, 130]")
        for mid, v in self.measurements.items():
            if not math.isfinite(v):
                raise LabriskError(f"{where}: measurement {mid!r} is {v}")

    def with_measurements(self, measurements: dict[str, float]) -> "EncounterRecord":
        return replace(self, measurements=measurements)


# --- serialization -----------------------------------------------------------

def catalog_to_dict(catalog: MarkerCatalog) -> dict:
    return {
        "version": catalog.version,
        "markers": [asdict(m) for m in catalog.entries],
    }


def catalog_from_dict(d: dict, where: str = "catalog") -> MarkerCatalog:
    if not isinstance(d, dict) or not isinstance(d.get("markers"), list):
        raise LabriskError(
            f"{where}: expected an object with a 'markers' list")
    return MarkerCatalog(
        entries=tuple(config_from_json(MarkerDef, m, f"{where}: markers[{i}]")
                      for i, m in enumerate(d["markers"])),
        version=str(d.get("version", "unversioned")))


def load_marker_catalog(path) -> MarkerCatalog:
    """Load and validate a marker catalog from a JSON document."""
    return catalog_from_dict(read_json(path), str(path))


def record_to_dict(r: EncounterRecord) -> dict:
    return {
        "patient_id": r.patient_id,
        "encounter_id": r.encounter_id,
        "date": r.date.isoformat(),
        "age_years": r.age_years,
        "sex": r.sex,
        "measurements": r.measurements,
        "codes": [{"code": c.code, "system": c.system,
                   "date": c.date.isoformat()} for c in r.codes],
    }


RECORD_FIELDS = {
    "patient_id": str, "encounter_id": str,
    "date": datetime.date.fromisoformat, "age_years": float, "sex": str,
    "measurements": lambda m: {k: float(v) for k, v in m.items()},
    "codes": lambda codes: [ClaimCode(str(c["code"]), c["system"],
                                      datetime.date.fromisoformat(c["date"]))
                            for c in codes],
}


def record_from_dict(d: dict, where: str = "record") -> EncounterRecord:
    """Decode and validate one encounter; LabriskError names `where` and a
    bad field."""
    record = EncounterRecord(**decode_fields(d, where, RECORD_FIELDS,
                                             ("codes",)))
    record.validate(where)
    return record
