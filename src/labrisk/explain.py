"""Shapley-value attribution of the normalized likelihood ratio.

The attributed function is the full reporting pipeline: feature vector ->
ensemble risk score -> similar-cohort likelihood ratio against the
development cohort -> logistic squashing (mean 5, scale 0.5) so extreme LRs
do not dominate. A feature "absent from a coalition" has its value and its
mask bit replaced from a background draw, so missingness itself is
expressible to the model.

Exact subset enumeration is used when the number of active features is
small; otherwise permutation sampling with antithetic pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# similar_cohort stays reachable as explain.similar_cohort, the name under
# which perfbench/spans.py wraps it.
from .likelihood import ScoredCohort, lr_from_counts, similar_cohort  # noqa: F401
from .model import RiskEnsemble, score_summary


class ExplainError(ValueError):
    pass


def normalize_lr(lr) -> float | np.ndarray:
    """Logistic squashing of a likelihood ratio: 1/(1+exp(-(lr-5)/0.5))."""
    x = (np.asarray(lr, dtype=np.float64) - 5.0) / 0.5
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if out.ndim == 0 else out


class NormalizedLrFn:
    """The attributed value function: (values, mask) -> normalized LR.

    Maps (..., d) values and mask to (...) normalized LRs in (0, 1), with
    the same bits for a row whatever stack it arrives in. Each row is scored
    by the ensemble, summarized to a mean and CI, matched to its
    similar-score development cohort, and its LR is squashed by
    normalize_lr.
    """

    def __init__(self, ensemble: RiskEnsemble, dev: ScoredCohort,
                 min_n: int = 50):
        self.ensemble = ensemble
        self.dev = dev
        self.min_n = min_n

    def __call__(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        scores = self.ensemble.predict_batch(values, mask)
        mean, _, lo, hi = score_summary(scores, self.ensemble.config.ci_scale)
        pos_sub, n_sub = self.dev.similar_counts(mean, lo, hi, self.min_n)
        lr, _ = lr_from_counts(pos_sub, n_sub, self.dev.n_pos, len(self.dev))
        return normalize_lr(lr)


@dataclass
class ShapConfig:
    max_exact: int = 12  # enumerate exactly up to this many active features
    n_permutations: int = 200  # antithetic pairs count as two
    background_size: int = 256
    seed: int = 0
    min_waterfall_markers: int = 24
    top_k_summary: int = 15
    top_k_waterfall: int = 9
    min_summary_samples: int = 10


@dataclass
class ShapResult:
    phi: np.ndarray
    base_value: float
    fx: float
    method: str  # exact_enumeration | permutation_sampling
    n_samples: int
    seed: int
    ci99: np.ndarray | None = None  # per-feature 99% MC half-width

    @property
    def efficiency_residual(self) -> float:
        return float(self.fx - (self.base_value + self.phi.sum()))


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


def _compose(values, mask, coalition, bg_values, bg_mask):
    """Sample features inside the coalition, background features outside;
    broadcasts over leading axes."""
    v = np.where(coalition, values, bg_values)
    m = np.where(coalition, mask, bg_mask)
    return v, m


def _shap_exact(fn, values, mask, bg_v, bg_m, active, seed) -> ShapResult:
    d = active.size
    n_sub = 1 << d
    # Coalition s holds active feature j when bit j of s is set.
    subsets = np.arange(n_sub)
    bits = (subsets[:, None] >> np.arange(d)) & 1
    coalitions = np.zeros((n_sub, values.size), dtype=bool)
    coalitions[:, active] = bits.astype(bool)
    # Value of every coalition, averaged over the background set; one call
    # per coalition keeps the batch at the background size.
    v_of = np.array([np.mean(fn(*_compose(values, mask, c, bg_v, bg_m)))
                     for c in coalitions])
    # Shapley weights by coalition size.
    fact = [math.factorial(i) for i in range(d + 1)]
    weight = np.array([fact[k] * fact[d - k - 1] / fact[d] for k in range(d)])
    size = bits.sum(axis=1)
    phi = np.zeros(values.size)
    for j in range(d):
        without = subsets[bits[:, j] == 0]
        terms = weight[size[without]] * (v_of[without | 1 << j] - v_of[without])
        # Summed in subset order, left to right, like a scalar loop.
        phi[active[j]] = np.cumsum(terms)[-1]
    return ShapResult(phi=phi, base_value=float(v_of[0]),
                      fx=float(v_of[n_sub - 1]),
                      method="exact_enumeration", n_samples=n_sub, seed=seed)


def _shap_sampling(fn, values, mask, bg_v, bg_m, active,
                   n_permutations, seed) -> ShapResult:
    rng = np.random.default_rng(seed)
    d = active.size
    n_bg = bg_v.shape[0]
    n_pairs = max(1, n_permutations // 2)
    perms = np.empty((n_pairs, d), dtype=np.intp)
    draws = np.empty(n_pairs, dtype=np.intp)
    for pair in range(n_pairs):
        perms[pair] = rng.permutation(d)
        draws[pair] = rng.integers(n_bg)
    # Walk 2i follows permutation i, walk 2i + 1 its reverse (antithetic).
    n_walks = 2 * n_pairs
    added = active[np.stack([perms, perms[:, ::-1]], axis=1).reshape(
        n_walks, d)]  # feature added at each step of each walk
    b = np.repeat(draws, 2)
    walk = np.arange(n_walks)[:, None]
    # step[w, f]: the step of walk w that adds feature f (never: d + 1).
    step = np.full((n_walks, values.size), d + 1)
    step[walk, added] = np.arange(1, d + 1)
    coalitions = step[:, None, :] <= np.arange(d + 1)[:, None]
    walk_v, walk_m = _compose(values, mask, coalitions,
                              bg_v[b, None, :], bg_m[b, None, :])
    f = fn(walk_v, walk_m)  # (walks, d + 1)
    contribs = np.zeros((n_walks, values.size))
    contribs[walk, added] = f[:, 1:] - f[:, :-1]
    phi = contribs.mean(axis=0)
    se = contribs.std(axis=0, ddof=1) / math.sqrt(n_walks)
    return ShapResult(phi=phi, base_value=float(f[:, 0].mean()),
                      fx=float(f[-1, -1]), method="permutation_sampling",
                      n_samples=n_walks, seed=seed, ci99=2.576 * se)


def shap_values(fn, values: np.ndarray, mask: np.ndarray,
                bg_values: np.ndarray, bg_mask: np.ndarray,
                config: ShapConfig | None = None,
                seed: int | None = None) -> ShapResult:
    """Per-feature Shapley attributions of fn at (values, mask) against a
    background set. Deterministic per seed.

    fn maps (..., d) values and mask to (...) outputs, one per row, and must
    give a row the same value whatever its leading axes; NormalizedLrFn is
    the pipeline's. Exact enumeration calls it on (n_background, d) per
    coalition; permutation sampling calls it once on every walk stacked,
    (n_samples, d + 1, d), where row t of a walk holds its first t
    features.
    """
    config = config or ShapConfig()
    if seed is None:
        seed = config.seed
    values = np.asarray(values, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    bg_values = np.atleast_2d(np.asarray(bg_values, dtype=np.float64))
    bg_mask = np.atleast_2d(np.asarray(bg_mask, dtype=np.float64))
    if bg_values.shape[0] == 0:
        raise ExplainError("empty background set")
    active = np.arange(values.size)
    if active.size <= config.max_exact:
        return _shap_exact(fn, values, mask, bg_values, bg_mask, active, seed)
    return _shap_sampling(fn, values, mask, bg_values, bg_mask, active,
                          config.n_permutations, seed)


def draw_background(dev_values: np.ndarray, dev_mask: np.ndarray,
                    dev_labels: np.ndarray, size: int,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Label-stratified background draw from the development cohort."""
    rng = np.random.default_rng(seed)
    n = dev_values.shape[0]
    if n == 0:
        raise ExplainError("empty development set for background")
    size = min(size, n)
    pos = np.flatnonzero(dev_labels == 1)
    neg = np.flatnonzero(dev_labels == 0)
    n_pos = min(len(pos), max(1, round(size * len(pos) / n))) if len(pos) else 0
    n_neg = size - n_pos
    idx = []
    if n_pos:
        idx.append(rng.choice(pos, size=n_pos, replace=False))
    if n_neg:
        idx.append(rng.choice(neg, size=min(n_neg, len(neg)), replace=False))
    idx = np.sort(np.concatenate(idx))
    return dev_values[idx], dev_mask[idx]


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


def cohort_summary(fn, values: np.ndarray, mask: np.ndarray,
                   bg_values: np.ndarray, bg_mask: np.ndarray,
                   feature_names: list[str],
                   config: ShapConfig | None = None) -> CohortShapSummary:
    """Per-sample attributions, ranked by mean |phi| for a beeswarm-style
    top-k summary."""
    config = config or ShapConfig()
    n = values.shape[0]
    if n < config.min_summary_samples:
        raise ExplainError(
            f"need at least {config.min_summary_samples} samples, got {n}")
    # Sample-index-derived seeds keep results schedule-independent.
    results = [shap_values(fn, values[i], mask[i], bg_values, bg_mask,
                           config, seed=config.seed * 1_000_003 + i)
               for i in range(n)]
    phis = np.array([res.phi for res in results])
    mean_abs = np.abs(phis).mean(axis=0)
    ranking = list(np.lexsort((np.arange(mean_abs.size), -mean_abs)))
    return CohortShapSummary(feature_names=list(feature_names), phi=phis,
                             feature_values=values, ranking=ranking,
                             top_k=config.top_k_summary, results=results)


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


def waterfall(fn, values: np.ndarray, mask: np.ndarray,
              bg_values: np.ndarray, bg_mask: np.ndarray,
              feature_names: list[str],
              config: ShapConfig | None = None) -> Waterfall:
    """Top contributions for one sample, remainder aggregated. Requires the
    configured minimum number of observed markers."""
    config = config or ShapConfig()
    observed = int(np.asarray(mask).sum())
    if observed < config.min_waterfall_markers:
        raise ExplainError(
            f"waterfall requires >= {config.min_waterfall_markers} observed "
            f"markers, sample has {observed}")
    res = shap_values(fn, values, mask, bg_values, bg_mask, config)
    order = np.lexsort((np.arange(res.phi.size), -np.abs(res.phi)))
    top = order[:config.top_k_waterfall]
    rest = order[config.top_k_waterfall:]
    items = [WaterfallItem(feature=feature_names[i], phi=float(res.phi[i]),
                           normalized_value=float(values[i]))
             for i in top]
    if rest.size:
        items.append(WaterfallItem(
            feature=f"other ({rest.size} markers)",
            phi=float(res.phi[rest].sum()), normalized_value=None))
    return Waterfall(base_value=res.base_value, fx=res.fx, items=items,
                     result=res)
