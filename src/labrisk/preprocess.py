"""Feature preparation: derived-marker completion, log10 transforms, and
median/IQD normalization fitted on the development split only. Features are
columns: fit_normalization and feature_columns (for vectorize_many and lr's
baselines) take a raw_features matrix through log_scaled's one clamp."""

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
    fitted_on: str
    scale_demographics: bool

    def validate(self) -> None:
        """Every feature has a finite median, a finite positive iqd and a
        log_transform flag, and every log-flagged one a finite positive
        detection_limit: what feature_columns reads."""
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


def raw_features(records: list[EncounterRecord],
                 order: tuple[str, ...]) -> np.ndarray:
    """(records, features) raw values in `order`, NaN where absent; age is
    age_years, and sex 1.0 for male and 0.0 for female."""
    return np.array(
        [[cells.get(f, math.nan) for f in order]
         for r in records
         for cells in ({**r.measurements, "age": r.age_years,
                        "sex": 1.0 if r.sex == "male" else 0.0},)],
        dtype=np.float64).reshape(len(records), len(order))


def log_scaled(raw: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """`raw` with log-flagged columns at log10(max(v, detection limit)),
    through math.log10: numpy's log10 rounds some values differently."""
    order = params.feature_order
    out, logged = raw.copy(), [i for i, f in enumerate(order)
                               if params.log_transform[f]]
    out[:, logged] = np.frompyfunc(math.log10, 1, 1)(np.maximum(
        raw[:, logged], [params.detection_limit[order[i]] for i in logged]))
    return out


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
    raw = raw_features(dev_records, order)
    # The clamp's floor is half the smallest positive value. NaN, which the
    # clamp keeps, marks a marker without one (no positive value, or half
    # the smallest subnormal) until the loop rejects it in feature order.
    half = 0.5 * np.where(raw > 0, raw, np.inf).min(axis=0)
    params = NormalizationParams(
        median={}, iqd={}, log_transform=log_flags, feature_order=order,
        detection_limit={f: float(h) if 0 < h < np.inf else math.nan
                         for f, h in zip(order, half) if log_flags[f]},
        fitted_on="development", scale_demographics=scale_demographics)
    for feat, column, scaled in zip(order, raw.T, log_scaled(raw, params).T):
        observed = ~np.isnan(column)
        if observed.sum() < 2:
            raise LabriskError(f"marker {feat!r}: fewer than 2 observations")
        if math.isnan(params.detection_limit.get(feat, 0.0)):
            raise LabriskError(f"marker {feat!r}: no positive detection limit "
                               "(half the smallest positive value)")
        vals = np.sort(scaled[observed], kind="stable")
        spread = percentile(vals, 0.75) - percentile(vals, 0.25)
        if spread <= 0:
            raise LabriskError(
                f"marker {feat!r}: zero inter-quartile distance "
                "(degenerate distribution)")
        params.median[feat] = percentile(vals, 0.5)
        params.iqd[feat] = spread
    if not scale_demographics:
        params.median.update(age=0.0, sex=0.0)
        params.iqd.update(age=1.0, sex=1.0)
    return params


def feature_columns(records: list[EncounterRecord], params: NormalizationParams
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The raw and the normalized (records, features) matrices, NaN where
    absent; a value is normalized as (v - median) / iqd on its fit scale."""
    raw = raw_features(records, params.feature_order)
    median, iqd = ([d[f] for f in params.feature_order]
                   for d in (params.median, params.iqd))
    with np.errstate(over="ignore"):  # vectorize_many checks finiteness
        return raw, (log_scaled(raw, params) - median) / iqd


def vectorize_many(records: list[EncounterRecord],
                   params: NormalizationParams) -> tuple[np.ndarray, np.ndarray]:
    """Normalized dense feature rows with presence masks, one row per
    record. Absent markers are zero-filled (the development median) with
    mask 0. LabriskError if a value is not finite."""
    raw, normalized = feature_columns(records, params)
    present = ~np.isnan(raw)
    values = np.where(present, normalized, 0.0)
    if not np.isfinite(values).all():
        raise LabriskError("non-finite feature values")
    return values, present.astype(np.float64)


def vectorize(record: EncounterRecord,
              params: NormalizationParams) -> tuple[np.ndarray, np.ndarray]:
    """vectorize_many of the one record: its (values, mask) row."""
    values, mask = vectorize_many([record], params)
    return values[0], mask[0]
