"""Marker catalog and patient encounter data model.

The catalog defines the universe of laboratory markers: identifiers, units,
panels, clinical reference ranges, log-transform flags, risk orientation, and
per-class synthesis distributions. Catalog order is load-bearing: it defines
feature-vector indices everywhere downstream.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field, replace

from . import LabriskError, decode_fields, read_json

PANELS = ("CMP", "CBC", "demographic")
RISK_DIRECTIONS = ("high_is_risk", "low_is_risk", "unsigned")
REQUIRED_CLASSES = ("no_cancer", "colorectal", "liver", "lung")
CANCER_CLASSES = ("colorectal", "liver", "lung")

# Markers whose distributions are shifted to log10 scale before normalization.
LOG_MARKERS = frozenset({
    "alt", "alp", "ast", "bilirubin", "creatinine", "rdw", "glucose",
    "wbc", "lymphocytes", "neutrophils", "bun",
})


class CatalogError(LabriskError):
    """Malformed or inconsistent marker catalog."""


class RecordError(LabriskError):
    """Malformed encounter record."""


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
            raise CatalogError("marker id must be non-empty")
        if self.panel not in PANELS:
            raise CatalogError(f"{self.id}: unknown panel {self.panel!r}")
        if self.risk_direction not in RISK_DIRECTIONS:
            raise CatalogError(
                f"{self.id}: unknown risk_direction {self.risk_direction!r}")
        if self.reference_range is not None:
            lo, hi = self.reference_range
            if not (lo < hi):
                raise CatalogError(
                    f"{self.id}: inverted reference range ({lo}, {hi})")
        if self.panel != "demographic":
            missing = [c for c in REQUIRED_CLASSES
                       if c not in self.class_distributions]
            if missing:
                raise CatalogError(
                    f"{self.id}: missing class distributions for {missing}")
        for cls, (mean, sd) in self.class_distributions.items():
            if not (math.isfinite(mean) and math.isfinite(sd)) or sd < 0:
                raise CatalogError(
                    f"{self.id}: bad distribution for class {cls!r}")


@dataclass(frozen=True)
class MarkerCatalog:
    entries: tuple[MarkerDef, ...]
    version: str

    def __post_init__(self) -> None:
        seen = set()
        for m in self.entries:
            m.validate()
            if m.id in seen:
                raise CatalogError(f"duplicate marker id {m.id!r}")
            seen.add(m.id)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, marker_id: str) -> bool:
        return any(m.id == marker_id for m in self.entries)

    def get(self, marker_id: str) -> MarkerDef:
        for m in self.entries:
            if m.id == marker_id:
                return m
        raise KeyError(marker_id)

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
            raise RecordError("claim code must be non-empty")
        if self.system not in ("ICD10", "CPT"):
            raise RecordError(f"unknown code system {self.system!r}")


@dataclass
class EncounterRecord:
    patient_id: str
    encounter_id: str
    date: datetime.date
    age_years: float
    sex: str  # "male" | "female"
    measurements: dict[str, float]
    codes: list[ClaimCode] = field(default_factory=list)

    def validate(self, known: set[str] | None = None,
                 where: str | None = None) -> None:
        """Sex, age range, finite measurements and, given the `known` marker
        ids, no unknown marker; RecordError names `where` (default: the
        encounter id)."""
        where = where or self.encounter_id
        if self.sex not in ("male", "female"):
            raise RecordError(f"{where}: bad sex {self.sex!r}")
        if not (0 <= self.age_years <= 130):
            raise RecordError(
                f"{where}: age_years {self.age_years} out of [0, 130]")
        for mid, v in self.measurements.items():
            if not math.isfinite(v):
                raise RecordError(f"{where}: measurement {mid!r} is {v}")
        if known is not None and not known.issuperset(self.measurements):
            raise RecordError(
                f"{where}: measurements has markers not in the model's "
                f"catalog: {sorted(set(self.measurements) - known)}")

    def with_measurements(self, measurements: dict[str, float]) -> "EncounterRecord":
        return replace(self, measurements=measurements)


# --- serialization -----------------------------------------------------------

def marker_to_dict(m: MarkerDef) -> dict:
    return {
        "id": m.id,
        "display_name": m.display_name,
        "unit": m.unit,
        "panel": m.panel,
        "reference_range": list(m.reference_range) if m.reference_range else None,
        "log_transform": m.log_transform,
        "risk_direction": m.risk_direction,
        "class_distributions": {k: list(v)
                                for k, v in m.class_distributions.items()},
    }


_MARKER_FIELDS = {
    "id": str, "display_name": str, "unit": str, "panel": str,
    "reference_range": lambda rr: tuple(rr) if rr is not None else None,
    "log_transform": bool, "risk_direction": str,
    "class_distributions": lambda cd: {k: (float(v[0]), float(v[1]))
                                       for k, v in cd.items()},
}


def marker_from_dict(d: dict, where: str = "marker") -> MarkerDef:
    return MarkerDef(**decode_fields(d, where, CatalogError, _MARKER_FIELDS))


def catalog_to_dict(catalog: MarkerCatalog) -> dict:
    return {
        "version": catalog.version,
        "markers": [marker_to_dict(m) for m in catalog.entries],
    }


def catalog_from_dict(d: dict, where: str = "catalog") -> MarkerCatalog:
    if not isinstance(d, dict) or not isinstance(d.get("markers"), list):
        raise CatalogError(f"{where}: expected an object with a 'markers' list")
    return MarkerCatalog(
        entries=tuple(marker_from_dict(m, f"{where}: markers[{i}]")
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
    """Decode one encounter; RecordError names `where` and a bad field."""
    return EncounterRecord(**decode_fields(d, where, RecordError,
                                           RECORD_FIELDS, ("codes",)))
