"""Shapley-value attribution of the normalized likelihood ratio.

The attributed function is the full reporting pipeline: feature row ->
ensemble risk score -> similar-cohort likelihood ratio against the
development cohort -> logistic squashing (mean 5, scale 0.5) so extreme LRs
do not dominate. A feature "absent from a coalition" has its value and its
mask bit (a feature row holds d values, then d mask bits) replaced from a
background row, so missingness itself is expressible to the model.

Exact subset enumeration is used when the number of features is small;
otherwise permutation sampling with antithetic pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import LabriskError
# similar_cohort stays reachable as explain.similar_cohort, the name under
# which perfbench/spans.py wraps it.
from .likelihood import ScoredCohort, lr_from_counts, similar_cohort  # noqa: F401
from .model import RiskEnsemble, score_summary
from .nn import sigmoid

MAX_EXACT = 12  # enumerate coalitions exactly up to this many features
MIN_WATERFALL_MARKERS = 24  # observed markers a waterfall needs
TOP_K_WATERFALL = 9  # waterfall items before the aggregated remainder
MIN_SUMMARY_SAMPLES = 10  # samples a cohort summary needs
# The most permutation walks per attribution: sampling scores all of them in
# one stack of (walks, features + 1, 2 · features) rows, so they bound its
# memory.
MAX_PERMUTATIONS = 10_000


def normalize_lr(lr) -> float | np.ndarray:
    """Logistic squashing of a likelihood ratio: 1/(1+exp(-(lr-5)/0.5))."""
    out = sigmoid((np.asarray(lr, dtype=np.float64) - 5.0) / 0.5)
    return float(out) if out.ndim == 0 else out


class NormalizedLrFn:
    """The attributed value function: feature rows -> normalized LR.

    Maps (..., 2d) rows to (...) normalized LRs in (0, 1), with the same
    bits for a row whatever stack it arrives in. Each row is scored
    by the ensemble, summarized to a mean and CI, matched to its
    similar-score development cohort, and its LR is squashed by
    normalize_lr.
    """

    def __init__(self, ensemble: RiskEnsemble, dev: ScoredCohort,
                 min_n: int):
        self.ensemble = ensemble
        self.dev = dev
        self.min_n = min_n

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        scores = self.ensemble.predict_batch(rows)
        mean, _, lo, hi = score_summary(scores, self.ensemble.config.ci_scale)
        pos_sub, n_sub = self.dev.similar_counts(mean, lo, hi, self.min_n)
        lr, _ = lr_from_counts(pos_sub, n_sub, self.dev.n_pos, len(self.dev))
        return normalize_lr(lr)


@dataclass
class ShapResult:
    phi: np.ndarray
    base_value: float
    fx: float
    method: str  # exact_enumeration | permutation_sampling
    n_samples: int
    seed: int
    ci99: np.ndarray | None = None  # per-feature 99% MC half-width


def shap_provenance(results: list[ShapResult], seed: int) -> dict:
    """How a set of attributions was computed, for a run manifest: method,
    value-function samples per attribution, seed, and the widest per-feature
    99% Monte-Carlo half-width (None for exact enumeration)."""
    widths = [float(r.ci99.max()) for r in results
              if r.ci99 is not None and r.ci99.size]
    return {"method": results[0].method,
            "n_samples": results[0].n_samples,
            "seed": seed,
            "max_ci99_half_width": max(widths) if widths else None}


def _compose(row, coalition, background):
    """The row's value and mask bit for a feature inside the coalition, the
    background's outside; broadcasts over leading axes."""
    return np.where(np.concatenate([coalition, coalition], axis=-1), row,
                    background)


def _shap_exact(fn, row, background, seed) -> ShapResult:
    d = row.size // 2
    n_sub = 1 << d
    # Coalition s holds feature j when bit j of s is set.
    subsets = np.arange(n_sub)
    bits = (subsets[:, None] >> np.arange(d)) & 1
    coalitions = bits.astype(bool)
    # Value of every coalition, averaged over the background set; one call
    # per coalition keeps the batch at the background size.
    v_of = np.array([np.mean(fn(_compose(row, c, background)))
                     for c in coalitions])
    # Shapley weights by coalition size.
    fact = [math.factorial(i) for i in range(d + 1)]
    weight = np.array([fact[k] * fact[d - k - 1] / fact[d] for k in range(d)])
    size = bits.sum(axis=1)
    phi = np.zeros(d)
    for j in range(d):
        without = subsets[bits[:, j] == 0]
        terms = weight[size[without]] * (v_of[without | 1 << j] - v_of[without])
        # Summed in subset order, left to right, like a scalar loop.
        phi[j] = np.cumsum(terms)[-1]
    return ShapResult(phi=phi, base_value=float(v_of[0]),
                      fx=float(v_of[n_sub - 1]),
                      method="exact_enumeration", n_samples=n_sub, seed=seed)


def _shap_sampling(fn, row, background, n_permutations, seed) -> ShapResult:
    rng = np.random.default_rng(seed)
    d = row.size // 2
    n_bg = background.shape[0]
    n_pairs = max(1, n_permutations // 2)
    perms = np.empty((n_pairs, d), dtype=np.intp)
    draws = np.empty(n_pairs, dtype=np.intp)
    for pair in range(n_pairs):
        perms[pair] = rng.permutation(d)
        draws[pair] = rng.integers(n_bg)
    # Walk 2i follows permutation i, walk 2i + 1 its reverse (antithetic).
    n_walks = 2 * n_pairs
    # added[w, t]: the feature added at step t + 1 of walk w.
    added = np.stack([perms, perms[:, ::-1]], axis=1).reshape(n_walks, d)
    b = np.repeat(draws, 2)
    walk = np.arange(n_walks)[:, None]
    # step[w, f]: the step of walk w that adds feature f (never: d + 1).
    step = np.full((n_walks, d), d + 1)
    step[walk, added] = np.arange(1, d + 1)
    coalitions = step[:, None, :] <= np.arange(d + 1)[:, None]
    f = fn(_compose(row, coalitions, background[b, None, :]))  # (walks, d+1)
    contribs = np.zeros((n_walks, d))
    contribs[walk, added] = f[:, 1:] - f[:, :-1]
    phi = contribs.mean(axis=0)
    se = contribs.std(axis=0, ddof=1) / math.sqrt(n_walks)
    return ShapResult(phi=phi, base_value=float(f[:, 0].mean()),
                      fx=float(f[-1, -1]), method="permutation_sampling",
                      n_samples=n_walks, seed=seed, ci99=2.576 * se)


def shap_values(fn, row: np.ndarray, background: np.ndarray,
                n_permutations: int, seed: int) -> ShapResult:
    """Per-feature Shapley attributions of fn at the feature row `row` (d
    values, then d mask bits) against background rows: exact up to
    MAX_EXACT features, else `n_permutations` antithetic permutation walks.
    Deterministic per seed.

    fn maps (..., 2d) rows to (...) outputs, one per row, and must give a
    row the same value whatever its leading axes; NormalizedLrFn is the
    pipeline's. Exact enumeration calls it on (n_background, 2d) rows per
    coalition; permutation sampling calls it once on every walk stacked,
    (n_samples, d + 1, 2d), where row t of a walk holds its first t
    features.
    """
    row = np.asarray(row, dtype=np.float64)
    background = np.atleast_2d(np.asarray(background, dtype=np.float64))
    if background.shape[0] == 0:
        raise LabriskError("empty background set")
    if row.size // 2 <= MAX_EXACT:
        return _shap_exact(fn, row, background, seed)
    return _shap_sampling(fn, row, background, n_permutations, seed)


@dataclass
class CohortShapSummary:
    feature_names: list[str]
    phi: np.ndarray  # (n_samples, d)
    feature_values: np.ndarray  # normalized values, (n_samples, d)
    ranking: list[int]  # feature indices by descending mean |phi|
    top_k: int
    results: list[ShapResult] = field(repr=False, default_factory=list)

    def top_features(self) -> list[str]:
        return [self.feature_names[i] for i in self.ranking[:self.top_k]]


def cohort_summary(fn, rows: np.ndarray, background: np.ndarray,
                   feature_names: list[str], n_permutations: int, seed: int,
                   top_k: int) -> CohortShapSummary:
    """Per-sample attributions of feature rows, ranked by mean |phi| for a
    beeswarm-style top-k summary."""
    n = rows.shape[0]
    if n < MIN_SUMMARY_SAMPLES:
        raise LabriskError(
            f"need at least {MIN_SUMMARY_SAMPLES} samples, got {n}")
    # Sample-index-derived seeds keep results schedule-independent.
    results = [shap_values(fn, rows[i], background, n_permutations,
                           seed * 1_000_003 + i) for i in range(n)]
    phis = np.array([res.phi for res in results])
    mean_abs = np.abs(phis).mean(axis=0)
    ranking = list(np.lexsort((np.arange(mean_abs.size), -mean_abs)))
    return CohortShapSummary(feature_names=list(feature_names), phi=phis,
                             feature_values=rows[:, :rows.shape[1] // 2],
                             ranking=ranking, top_k=top_k, results=results)


@dataclass
class WaterfallItem:
    feature: str
    phi: float
    normalized_value: float | None  # None for the aggregated remainder


@dataclass
class Waterfall:
    base_value: float
    fx: float
    items: list[WaterfallItem]
    result: ShapResult = field(repr=False, default=None)


def waterfall(fn, row: np.ndarray, background: np.ndarray,
              feature_names: list[str], n_permutations: int,
              seed: int) -> Waterfall:
    """The TOP_K_WATERFALL largest contributions for one feature row,
    remainder aggregated. Requires MIN_WATERFALL_MARKERS observed markers."""
    observed = int(row[row.size // 2:].sum())  # the mask bits
    if observed < MIN_WATERFALL_MARKERS:
        raise LabriskError(
            f"waterfall requires >= {MIN_WATERFALL_MARKERS} observed "
            f"markers, sample has {observed}")
    res = shap_values(fn, row, background, n_permutations, seed)
    order = np.lexsort((np.arange(res.phi.size), -np.abs(res.phi)))
    top = order[:TOP_K_WATERFALL]
    rest = order[TOP_K_WATERFALL:]
    items = [WaterfallItem(feature=feature_names[i], phi=float(res.phi[i]),
                           normalized_value=float(row[i]))
             for i in top]
    if rest.size:
        items.append(WaterfallItem(
            feature=f"other ({rest.size} markers)",
            phi=float(res.phi[rest].sum()), normalized_value=None))
    return Waterfall(base_value=res.base_value, fx=res.fx, items=items,
                     result=res)
