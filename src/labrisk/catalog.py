"""Marker catalog and patient encounter data model.

The catalog defines the universe of laboratory markers: identifiers, units,
panels, clinical reference ranges, log-transform flags, risk orientation, and
per-class synthesis distributions. Catalog order is load-bearing: it defines
feature-vector indices everywhere downstream.
"""

from __future__ import annotations

import datetime
import math
import sys
from dataclasses import asdict, dataclass, field, replace

from . import LabriskError, config_from_json, decode_fields, parse_json

LAB_PANELS = ("CMP", "CBC")
PANELS = (*LAB_PANELS, "demographic")
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
    """A catalog; its fields are the keys of a catalog JSON document."""
    markers: tuple[MarkerDef, ...]
    version: str = "unversioned"

    def __post_init__(self) -> None:
        by_id = {}
        for m in self.markers:
            m.validate()
            if m.id in by_id:
                raise LabriskError(f"markers: duplicate marker id {m.id!r}")
            by_id[m.id] = m
        object.__setattr__(self, "_by_id", by_id)  # the dataclass is frozen

    def __iter__(self):
        return iter(self.markers)

    def __len__(self) -> int:
        return len(self.markers)

    def __contains__(self, marker_id: str) -> bool:
        return marker_id in self._by_id

    def get(self, marker_id: str) -> MarkerDef:
        return self._by_id[marker_id]

    @property
    def lab_markers(self) -> tuple[MarkerDef, ...]:
        return tuple(m for m in self.markers if m.panel != "demographic")

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
        "markers": [asdict(m) for m in catalog.markers],
    }


def load_marker_catalog(data: bytes, where: str) -> MarkerCatalog:
    """Load and validate a marker catalog from the JSON document `data`."""
    return config_from_json(MarkerCatalog, parse_json(data, where), where)


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


def _text(value) -> str:
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


# The types json.loads gives a JSON number; bool, an int subclass, is not one.
NUMBERS = frozenset({int, float})


def _number(value) -> float:
    if type(value) not in NUMBERS:
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _measurements(measurements: dict) -> dict[str, float]:
    """{marker id: value} of a JSON object of numbers, in one pass."""
    # Interned, so every decoded encounter shares one key string per marker
    # (json.loads shares keys only within one call, and reads one line).
    try:
        out = {sys.intern(mid): float(v) for mid, v in measurements.items()
               if type(v) in NUMBERS}
    except OverflowError:  # a JSON integer beyond float range
        out = {}
    if len(out) != len(measurements):  # name the first bad marker
        for mid, v in measurements.items():
            try:
                _number(v)
            except (TypeError, OverflowError) as e:
                raise type(e)(f"measurement {mid!r}: {e}") from None
    return out


def _list(value) -> list:
    if type(value) is not list:
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _code(value) -> str:
    if not _text(value):
        raise ValueError("expected a non-empty string")
    return value


def _code_system(value) -> str:
    if _text(value) not in ("ICD10", "CPT"):
        raise ValueError(f"unknown code system {value!r}")
    return value


# age_years and the measurements take JSON numbers only, and the ids, sex
# and claim codes JSON strings only: none of them converts a value of
# another type. codes is a list of objects of CODE_FIELDS.
RECORD_FIELDS = {
    "patient_id": _text, "encounter_id": _text,
    "date": datetime.date.fromisoformat, "age_years": _number, "sex": _text,
    "measurements": _measurements, "codes": _list,
}
CODE_FIELDS = {"code": _code, "system": _code_system,
               "date": datetime.date.fromisoformat}


def record_from_dict(d: dict, where: str = "record") -> EncounterRecord:
    """Decode and validate one encounter; LabriskError names `where` and a
    bad field, a bad claim code as `where: codes[i]`."""
    fields = decode_fields(d, where, RECORD_FIELDS, ("codes",))
    fields["codes"] = [
        ClaimCode(**decode_fields(c, f"{where}: codes[{i}]", CODE_FIELDS))
        for i, c in enumerate(fields.get("codes", ()))]
    record = EncounterRecord(**fields)
    record.validate(where)
    return record
