"""Reference helpers the tests check labrisk against: layer parameter
lists, layers over new arrays and a member's initial state built from them,
the plain-numpy expressions the layer kernels must match bit for bit,
central-difference gradient checks, ROC and precision-recall curves from
their own descending sort, average precision, the Shapley efficiency
residual, the longest-prefix phecode scan, eval scoring
through the unfolded layers, features and single-marker scores one
value at a time, and the consort flow that scans each patient's claim
codes once per question."""

import datetime
import math
from dataclasses import dataclass

import numpy as np

from labrisk import LabriskError, metrics, nn
from labrisk.likelihood import ScoredCohort
from labrisk.cohort import (consort_row, filter_encounters, group_by_patient,
                            split_dev_val)
from labrisk.model import RiskModel, _architecture, state_layout
from labrisk.preprocess import NormalizationParams, percentile


def params(layer):
    """The layer's trainable arrays, in `param_names` order."""
    return [getattr(layer, n) for n in layer.param_names]


def grads(layer):
    """The gradients of `params(layer)` (the gradient of `x` is `dx`)."""
    return [getattr(layer, "d" + n) for n in layer.param_names]


# Layers over arrays of their own, allocated as the layer constructors once
# allocated them, and a member's initial state as RiskModel once built it.

def linear_layer(in_dim, out_dim, rng):
    """An nn.Linear over new arrays: weights drawn uniform in +-1 /
    sqrt(in_dim) from `rng`, zero bias and gradients."""
    bound = 1.0 / np.sqrt(in_dim)
    weight = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    return nn.Linear(weight, np.zeros(out_dim), np.zeros_like(weight),
                     np.zeros(out_dim))


def batchnorm_layer(dim):
    """An nn.BatchNorm over new arrays: gamma and running variance one,
    the rest zero."""
    return nn.BatchNorm(np.ones(dim), np.zeros(dim), np.zeros(dim),
                        np.ones(dim), np.zeros(dim), np.zeros(dim))


def pack(arrays):
    """The arrays copied into one flat buffer, in order."""
    return np.concatenate([np.ravel(a) for a in arrays])


def initial_state(config, rng):
    """model.initial_state as the layers built it: each layer allocated its
    arrays in network order, each Linear drawing its weights from `rng`,
    then pack copied every array into one buffer in state_layout order."""
    layers = {}
    for name, kind, n_in, n_out in _architecture(
            config.n_features, config.hidden_width, config.latent_dim):
        if kind is nn.Linear:
            layers[name] = linear_layer(n_in, n_out, rng)
        elif kind is nn.BatchNorm:
            layers[name] = batchnorm_layer(n_out)
    return pack([getattr(layers[layer], name) for layer, _, name in (
        key.rpartition(".") for key in state_layout(config))])


# The layer kernels as plain numpy expressions. nn computes the same float
# operations in fewer passes; these are the bytes it must reproduce.

def leaky_relu(x, slope: float = 0.2):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, slope * x)


def leaky_relu_backward(x, dy, slope: float = 0.2):
    return np.where(x > 0, dy, slope * dy)


def linear(x, weight, bias):
    return x @ weight.T + bias


def batchnorm(x, layer):
    """(output, xhat, inv_std, running_mean, running_var) of a BatchNorm
    training forward from the layer's current state, which is left
    unchanged."""
    mean, var = x.mean(axis=0), x.var(axis=0)
    running_mean = ((1 - layer.momentum) * layer.running_mean
                    + layer.momentum * mean)
    running_var = ((1 - layer.momentum) * layer.running_var
                   + layer.momentum * var)
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    xhat = (x - mean) * inv_std
    return (layer.gamma * xhat + layer.beta, xhat, inv_std, running_mean,
            running_var)


def fold_batchnorm(weight, bias, layer):
    """The (weight, bias) of a Linear followed by `layer`'s eval forward,
    `gamma * (y - running_mean) / sqrt(running_var + eps) + beta`."""
    s = layer.gamma / np.sqrt(layer.running_var + layer.eps)
    return weight * s[:, None], (bias - layer.running_mean) * s + layer.beta


def finite_difference_gradient(f, arrays: list[np.ndarray],
                               step: float = 1e-5) -> list[np.ndarray]:
    """Central differences of a scalar function of a parameter list."""
    out = []
    for p in arrays:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f()
            flat[i] = orig - step
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        out.append(g)
    return out


def grad_check(f, arrays: list[np.ndarray], analytic: list[np.ndarray],
               step: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central finite
    differences of f() taken over the given parameter arrays."""
    numeric = finite_difference_gradient(f, arrays, step)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        # The 1e-6 floor keeps central-difference truncation noise (~1e-11
        # absolute) from dominating entries whose true gradient is zero.
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


# metrics.roc and metrics.pr_curve as they once counted a cohort: their own
# descending sort and label cumsum. They must give these bits.

def tie_grouped_counts(scores, labels):
    """Cumulative true and false positives at the end of each tie block of
    the scores in descending order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order].astype(np.float64)
    # Indices where a tie block ends.
    distinct = np.flatnonzero(np.diff(s)) if s.size > 1 else np.array([], int)
    block_ends = np.append(distinct, s.size - 1)
    cum_tp = np.cumsum(y)[block_ends]
    cum_fp = (block_ends + 1) - cum_tp
    return cum_tp, cum_fp


def roc(scores, labels):
    labels = np.asarray(labels)
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    cum_tp, cum_fp = tie_grouped_counts(scores, labels)
    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    return metrics.RocCurve(fpr=fpr, tpr=tpr,
                            auc=float(np.trapezoid(tpr, fpr)))


def pr_curve(scores, labels):
    n_pos = int(np.sum(np.asarray(labels) == 1))
    cum_tp, cum_fp = tie_grouped_counts(scores, labels)
    recall = cum_tp / n_pos
    precision = cum_tp / (cum_tp + cum_fp)
    prev = np.concatenate([[0.0], recall[:-1]])
    return metrics.PrCurve(recall=recall, precision=precision,
                           ap=float(np.sum((recall - prev) * precision)))


def average_precision(scores, labels) -> float:
    return metrics.pr_curve(ScoredCohort.from_arrays(scores, labels)).ap


def efficiency_residual(result) -> float:
    """fx minus the base value and the attributions of a ShapResult."""
    return float(result.fx - (result.base_value + result.phi.sum()))


def phecode_match(pmap, code):
    """PhecodeMap.match as a scan of every prefix in the map, keeping the
    longest that `code` starts with."""
    best, best_len = None, -1
    for prefix, phecode in pmap.prefix_to_phecode.items():
        if code.startswith(prefix) and len(prefix) > best_len:
            best, best_len = phecode, len(prefix)
    return best


# The CSV tables as the CLI wrote them with f-strings (roc.csv and pr.csv,
# lr_curve.csv, lr_baselines.csv, report/lr_ribbon.csv); ioutil.write_table
# must give the same bytes.

def curve_csv(header, xs, ys):
    """roc.csv ("fpr,tpr") and pr.csv ("recall,precision")."""
    return header + "\n" + "".join(
        f"{f:.10g},{t:.10g}\n" for f, t in zip(xs, ys))


def lr_curve_csv(thresholds, lr, n_above, n_pos_above, corrected):
    return "threshold,lr,n_above,n_pos_above,corrected\n" + "".join(
        f"{t:.10g},{l:.10g},{n},{p},{int(c)}\n"
        for t, l, n, p, c in zip(thresholds, lr, n_above, n_pos_above,
                                 corrected))


def lr_baselines_csv(rows):
    return "series,threshold,lr\n" + "".join(
        f"{n},{t:.10g},{l:.10g}\n" for n, t, l in rows)


def lr_ribbon(stack):
    """(mean, std, min, max) of each column of a (members, thresholds)
    stack, one column at a time."""
    return tuple([getattr(stack[:, i], stat)() for i in range(stack.shape[1])]
                 for stat in ("mean", "std", "min", "max"))


def lr_ribbon_csv(thresholds, stack):
    return "threshold,lr_mean,lr_std,lr_min,lr_max\n" + "".join(
        f"{t:.10g},{mean:.10g},{std:.10g},{lo:.10g},{hi:.10g}\n"
        for t, mean, std, lo, hi in zip(thresholds, *lr_ribbon(stack)))


def unfolded_scores(ensemble, rows):
    """(..., members) eval scores of feature rows through the unfolded
    layers, in the float operations scoring ran before each eval BatchNorm
    was folded into its Linear: per member, each encoder Linear, its
    BatchNorm on the running statistics and LeakyReLU(0.2), then the mu head,
    the classifier and the sigmoid."""
    x = np.atleast_2d(rows)
    scores = []
    for state in ensemble.states:
        model = RiskModel(ensemble.config, state)
        h = x
        for linear, norm in zip(model.encoder[::3], model.encoder[1::3]):
            h = h @ linear.weight.T
            h += linear.bias
            h = h - norm.running_mean
            h *= 1.0 / np.sqrt(norm.running_var + norm.eps)
            h *= norm.gamma
            h += norm.beta
            h = h * np.maximum(h > 0, 0.2)
        for head in (model.mu_head, model.classifier):
            h = h @ head.weight.T
            h += head.bias
        scores.append(nn.sigmoid(h[..., 0]))
    return np.stack(scores, axis=-1)


# Features one value at a time: preprocess's columnar path and
# likelihood.single_marker_scores must give these bits.

def feature_value(record, feature):
    """A record's raw value of `feature`, or None if absent."""
    if feature == "age":
        return record.age_years
    if feature == "sex":
        return 1.0 if record.sex == "male" else 0.0
    return record.measurements.get(feature)


def normalize_value(value, feature, params):
    v = value
    if params.log_transform[feature]:
        v = math.log10(max(v, params.detection_limit[feature]))
    return (v - params.median[feature]) / params.iqd[feature]


def fit_normalization(dev_records, catalog, scale_demographics):
    """preprocess.fit_normalization as a loop over features and records."""
    if not dev_records:
        raise LabriskError("development split is empty")
    order = catalog.feature_order
    log_flags = {m.id: m.log_transform for m in catalog.lab_markers}
    log_flags["age"] = log_flags["sex"] = False

    median, iqd, limits = {}, {}, {}
    for feat in order:
        raw = [v for r in dev_records
               if (v := feature_value(r, feat)) is not None]
        if len(raw) < 2:
            raise LabriskError(f"marker {feat!r}: fewer than 2 observations")
        if log_flags[feat]:
            # Half the smallest subnormal rounds to 0: no limit either.
            limit = 0.5 * min((v for v in raw if v > 0), default=0.0)
            if not limit > 0:
                raise LabriskError(f"marker {feat!r}: no positive detection "
                                   "limit (half the smallest positive value)")
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
        fitted_on="development", scale_demographics=scale_demographics)


def vectorize_many(records, params):
    """preprocess.vectorize_many one cell at a time: values, then mask."""
    order = params.feature_order
    values = np.zeros((len(records), len(order)))
    mask = np.zeros_like(values)
    for n, record in enumerate(records):
        for i, feat in enumerate(order):
            raw = feature_value(record, feat)
            if raw is not None:
                values[n, i] = normalize_value(raw, feat, params)
                mask[n, i] = 1.0
    if not np.isfinite(values).all():
        raise LabriskError("non-finite feature values")
    return np.concatenate([values, mask], axis=1)


def compose(values, mask, coalition, bg_values, bg_mask):
    """explain._compose over separate value and mask arrays: the sample's
    features inside the coalition, the background's outside, one np.where
    per array, then the two joined into feature rows."""
    v = np.where(coalition, values, bg_values)
    m = np.where(coalition, mask, bg_mask)
    return np.concatenate([v, m], axis=-1)


@dataclass
class SingleMarkerScaler:
    """Min-max scaling of a single marker over the development cohort, with
    the orientation flipped for low-is-risk markers; a log-flagged marker is
    scaled on its normalized value, any other on its raw one."""
    marker_id: str
    low: float
    high: float
    flip: bool

    @classmethod
    def fit(cls, dev_records, marker_id, catalog, params):
        marker = catalog.get(marker_id)
        vals = []
        for r in dev_records:
            v = r.measurements.get(marker_id)
            if v is not None:
                vals.append(normalize_value(v, marker_id, params)
                            if marker.log_transform else v)
        if len(vals) < 2 or min(vals) == max(vals):
            raise LabriskError(
                f"cannot fit single-marker scaler for {marker_id!r}")
        return cls(marker_id=marker_id, low=min(vals), high=max(vals),
                   flip=marker.risk_direction == "low_is_risk")

    def score(self, record, catalog, params):
        """The record's score, or None if it lacks the marker."""
        v = record.measurements.get(self.marker_id)
        if v is None:
            return None
        if catalog.get(self.marker_id).log_transform:
            v = normalize_value(v, self.marker_id, params)
        s = (v - self.low) / (self.high - self.low)
        s = min(1.0, max(0.0, s))
        return 1.0 - s if self.flip else s


# The consort flow with one scan of the patient's claim codes per question:
# cohort.run_cohort_pipeline must give the same encounters and counts.

def patient_codes(records):
    return [c for r in records for c in r.codes]


def select_screening_population(by_patient, spec):
    """Patients with at least one screening or screening-encounter code; a
    diagnostic procedure code qualifies as fallback."""
    selected = set()
    primary = spec.screening_codes | spec.encounter_codes
    for pid, recs in by_patient.items():
        codes = {c.code for c in patient_codes(recs)}
        if codes & primary or codes & spec.diagnostic_codes:
            selected.add(pid)
    return selected


def matches_dx(code, prefixes):
    return any(code.startswith(p) for p in prefixes)


def dx_codes(records, spec):
    """The patient's ICD-10 codes with a cancer-diagnosis prefix."""
    return [c for c in patient_codes(records) if c.system == "ICD10"
            and matches_dx(c.code, spec.diagnosis_icd_prefixes)]


def assign_label(records, spec):
    """(label, first diagnosis date or None): positive iff a diagnosis
    exists and, when confirmation is required, a therapy, diagnostic
    procedure or diagnosis-prefixed code occurs strictly after the first
    diagnosis date."""
    dx = dx_codes(records, spec)
    if not dx:
        return False, None
    first = min(c.date for c in dx)
    if not spec.confirmation_required:
        return True, first
    for c in patient_codes(records):
        if c.date <= first:
            continue
        if (c.code in spec.therapy_codes or c.code in spec.diagnostic_codes
                or matches_dx(c.code, spec.diagnosis_icd_prefixes)):
            return True, first
    return False, None


def exclude_acute_infection(encounters, by_patient, spec):
    """Drop encounters whose patient carries an infection code within
    +/- infection_window_days of the encounter date."""
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


def qualifies_as_control(records, spec):
    """No cancer-diagnosis ICD code at any time."""
    return not dx_codes(records, spec)


def enrich_controls(encounters, extra_by_patient, spec, seed):
    """Append the extra patients' control encounters, split, after the
    development-only encounters of those with an unconfirmed diagnosis."""
    existing = {e.record.patient_id for e in encounters}
    added = []
    for pid in sorted(extra_by_patient):
        if pid in existing:
            continue
        recs = extra_by_patient[pid]
        if qualifies_as_control(recs, spec):
            added.extend(filter_encounters(recs, False, None, spec))
        elif not assign_label(recs, spec)[0]:
            first = min(c.date for c in dx_codes(recs, spec))
            dev_only = filter_encounters(recs, True, first, spec)
            for e in dev_only:
                e.split = "development"
                e.split_fallback = True
            encounters = encounters + dev_only
    if added:
        added = split_dev_val(added, seed)
        encounters = encounters + added
    return encounters


def run_cohort_pipeline(records, spec, seed, enrich):
    """cohort.run_cohort_pipeline through the helpers above."""
    by_patient = group_by_patient(records)
    screened = select_screening_population(by_patient, spec)
    flow = []
    labeled = []
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
