"""Feature preparation: derived-marker completion, log10 transforms, and
median/IQD normalization fitted on the development split only."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import LabriskError
from .catalog import EncounterRecord, MarkerCatalog


# Derived-marker relations completed when the inputs are reported.
RATIO_MARKER = ("bun_creatinine_ratio", "bun", "creatinine")
PERCENT_PAIRS = (
    ("lymphocytes", "lymphocytes_pct"),
    ("basophils", "basophils_pct"),
    ("eosinophils", "eosinophils_pct"),
)


def complete_derived(record: EncounterRecord) -> EncounterRecord:
    """Fill derived markers from their components. Never overwrites reported
    values; division by zero leaves the derived value absent."""
    m = dict(record.measurements)
    ratio, num, den = RATIO_MARKER
    if ratio not in m and num in m and den in m and m[den] != 0:
        m[ratio] = m[num] / m[den]
    for absolute, pct in PERCENT_PAIRS:
        if "wbc" not in m:
            continue
        wbc = m["wbc"]
        if pct not in m and absolute in m and wbc != 0:
            m[pct] = 100.0 * m[absolute] / wbc
        if absolute not in m and pct in m:
            m[absolute] = m[pct] * wbc / 100.0
    return record.with_measurements(m)


def percentile(sorted_values, q: float) -> float:
    """Quantile by linear interpolation between closest ranks.

    The input must be sorted ascending. position = q * (n - 1); the result
    interpolates linearly between the two bracketing order statistics.
    """
    if not 0.0 <= q <= 1.0:
        raise LabriskError(f"quantile {q} out of [0, 1]")
    n = len(sorted_values)
    if n == 0:
        raise LabriskError("percentile of empty sequence")
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return float(sorted_values[lo])
    w = pos - lo
    return float(sorted_values[lo]) * (1 - w) + float(sorted_values[hi]) * w


@dataclass
class NormalizationParams:
    """Per-feature median/IQD (computed after the log10 transform where
    flagged), in catalog feature order with age and sex appended."""
    median: dict[str, float]
    iqd: dict[str, float]
    log_transform: dict[str, bool]
    detection_limit: dict[str, float]  # log-clamp floor for log markers
    feature_order: tuple[str, ...]
    fitted_on: str = "development"
    scale_demographics: bool = True

    def validate(self) -> None:
        """Every feature has a finite median, a finite positive iqd and a
        log_transform flag, and every log-flagged one a finite positive
        detection_limit: what normalize_value reads."""
        for feat in self.feature_order:
            for name in ("median", "iqd", "log_transform"):
                if feat not in getattr(self, name):
                    raise LabriskError(f"{name}.{feat}: missing; every "
                                       "feature_order entry needs one")
            if not math.isfinite(self.median[feat]):
                raise LabriskError(f"median.{feat}: not finite "
                                   f"({self.median[feat]})")
            if not (math.isfinite(self.iqd[feat]) and self.iqd[feat] > 0):
                raise LabriskError(f"iqd.{feat}: must be finite and positive, "
                                   f"got {self.iqd[feat]}")
            limit = self.detection_limit.get(feat)
            if self.log_transform[feat] and not (
                    limit is not None and math.isfinite(limit) and limit > 0):
                raise LabriskError(
                    f"detection_limit.{feat}: a log-transformed feature "
                    f"needs a finite positive detection limit, got {limit}")


def _feature_value(record: EncounterRecord, feature: str) -> float | None:
    if feature == "age":
        return record.age_years
    if feature == "sex":
        return 1.0 if record.sex == "male" else 0.0
    return record.measurements.get(feature)


def fit_normalization(dev_records: list[EncounterRecord],
                      catalog: MarkerCatalog,
                      scale_demographics: bool) -> NormalizationParams:
    """Fit per-feature median and inter-quartile distance on development
    records. Log-flagged markers are moved to log10 scale first."""
    if not dev_records:
        raise LabriskError("development split is empty")
    order = catalog.feature_order
    log_flags = {m.id: m.log_transform for m in catalog.lab_markers}
    log_flags["age"] = log_flags["sex"] = False

    median, iqd, limits = {}, {}, {}
    for feat in order:
        raw = [v for r in dev_records
               if (v := _feature_value(r, feat)) is not None]
        if len(raw) < 2:
            raise LabriskError(f"marker {feat!r}: fewer than 2 observations")
        if log_flags[feat]:
            positive = [v for v in raw if v > 0]
            if not positive:
                raise LabriskError(f"marker {feat!r}: no positive values")
            limit = 0.5 * min(positive)
            limits[feat] = limit
            vals = sorted(math.log10(max(v, limit)) for v in raw)
        else:
            vals = sorted(raw)
        med = percentile(vals, 0.5)
        spread = percentile(vals, 0.75) - percentile(vals, 0.25)
        if spread <= 0:
            raise LabriskError(
                f"marker {feat!r}: zero inter-quartile distance "
                "(degenerate distribution)")
        median[feat] = med
        iqd[feat] = spread
    if not scale_demographics:
        for feat in ("age", "sex"):
            median[feat] = 0.0
            iqd[feat] = 1.0
    return NormalizationParams(
        median=median, iqd=iqd, log_transform=log_flags,
        detection_limit=limits, feature_order=order,
        scale_demographics=scale_demographics)


@dataclass
class FeatureVector:
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=np.float64)
        if self.values.shape != self.mask.shape:
            raise LabriskError("values/mask shape mismatch")
        if not np.isfinite(self.values).all():
            raise LabriskError("non-finite feature values")
        if np.any((self.mask == 0) & (self.values != 0)):
            raise LabriskError("masked-out entries must be zero-filled")


def normalize_value(value: float, feature: str,
                    params: NormalizationParams) -> float:
    v = value
    if params.log_transform[feature]:
        v = math.log10(max(v, params.detection_limit[feature]))
    return (v - params.median[feature]) / params.iqd[feature]


def vectorize(record: EncounterRecord,
              params: NormalizationParams) -> FeatureVector:
    """Normalized dense feature vector with a presence mask. Absent markers
    are zero-filled (the development median) with mask 0."""
    d = len(params.feature_order)
    values = np.zeros(d)
    mask = np.zeros(d)
    for i, feat in enumerate(params.feature_order):
        raw = _feature_value(record, feat)
        if raw is None:
            continue
        values[i] = normalize_value(raw, feat, params)
        mask[i] = 1.0
    return FeatureVector(values=values, mask=mask)


def vectorize_many(records: list[EncounterRecord],
                   params: NormalizationParams) -> tuple[np.ndarray, np.ndarray]:
    vecs = [vectorize(r, params) for r in records]
    if not vecs:
        d = len(params.feature_order)
        return np.zeros((0, d)), np.zeros((0, d))
    return (np.stack([v.values for v in vecs]),
            np.stack([v.mask for v in vecs]))
