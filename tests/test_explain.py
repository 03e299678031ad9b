"""Shapley attribution: exact enumeration, sampling, and report assembly."""

import itertools
import math

import numpy as np
import pytest

from labrisk import LabriskError
from labrisk.explain import (TOP_K_WATERFALL, _compose, _shap_sampling,
                             cohort_summary, normalize_lr, shap_values,
                             waterfall)
from labrisk.model import draw_background

import oracles
from oracles import efficiency_residual


def joined(values, mask):
    """Feature rows: the values, then the mask."""
    return np.concatenate([values, mask], axis=-1)


def on_rows(f):
    """A value function of feature rows from one of (values, mask)."""
    def fn(rows):
        return f(*np.split(np.asarray(rows), 2, axis=-1))
    return fn


def brute_force_shap(fn, x, m, bg_v, bg_m, active):
    """Direct Shapley sum over all subsets, independent oracle."""
    d = x.size
    phi = np.zeros(d)
    k = len(active)

    def value(subset):
        coalition = np.zeros(d, dtype=bool)
        coalition[list(subset)] = True
        v = np.where(coalition, x, bg_v)
        mm = np.where(coalition, m, bg_m)
        return fn(joined(v, mm)).mean()

    for i in active:
        others = [j for j in active if j != i]
        for r in range(k):
            for subset in itertools.combinations(others, r):
                w = (math.factorial(r) * math.factorial(k - r - 1)
                     / math.factorial(k))
                phi[i] += w * (value(subset + (i,)) - value(subset))
    return phi


def batched(f):
    """Lifts a one-row function of (values, mask) to the value-function
    contract: (..., 2d) rows to (...)."""
    def wrapper(v, mm):
        rows = [f(a, b) for a, b in zip(v.reshape(-1, v.shape[-1]),
                                        mm.reshape(-1, mm.shape[-1]))]
        return np.array(rows).reshape(v.shape[:-1])
    return on_rows(wrapper)


def nonlinear_fn(w, u):
    def f(v, mm):
        return float(np.tanh(v @ w) + (v * v * mm) @ u)
    return batched(f)


def test_exact_matches_brute_force():
    rng = np.random.default_rng(0)
    d = 6
    fn = nonlinear_fn(rng.normal(size=d), rng.normal(size=d) * 0.3)
    x = rng.normal(size=d)
    m = np.ones(d)
    bg_v = rng.normal(size=(8, d))
    bg_m = (rng.random((8, d)) < 0.8).astype(float)
    res = shap_values(fn, joined(x, m), joined(bg_v, bg_m), 200, seed=1)
    assert res.method == "exact_enumeration"
    oracle = brute_force_shap(fn, x, m, bg_v, bg_m, list(range(d)))
    np.testing.assert_allclose(res.phi, oracle, atol=1e-9)
    assert abs(efficiency_residual(res)) <= 1e-9


def test_linear_model_closed_form():
    rng = np.random.default_rng(1)
    d = 7
    w = rng.normal(size=d)

    @on_rows
    def fn(v, mm):
        return np.atleast_2d(v) @ w

    x = rng.normal(size=d)
    m = np.ones(d)
    bg_v = rng.normal(size=(16, d))
    bg_m = np.ones((16, d))
    res = shap_values(fn, joined(x, m), joined(bg_v, bg_m), 200, seed=2)
    np.testing.assert_allclose(res.phi, w * (x - bg_v.mean(axis=0)),
                               atol=1e-12)


def test_sampling_within_its_own_ci_of_exact():
    rng = np.random.default_rng(2)
    d = 9
    fn = nonlinear_fn(rng.normal(size=d), rng.normal(size=d) * 0.2)
    x = rng.normal(size=d)
    m = np.ones(d)
    bg_v = rng.normal(size=(12, d))
    bg_m = np.ones((12, d))
    exact = shap_values(fn, joined(x, m), joined(bg_v, bg_m), 200, seed=3)
    assert exact.method == "exact_enumeration"
    sampled = _shap_sampling(fn, joined(x, m), joined(bg_v, bg_m), 600, seed=3)
    assert sampled.method == "permutation_sampling"
    assert sampled.ci99 is not None
    # Allow a tiny slack on top of the 99% CI for the CI estimate itself.
    assert np.all(np.abs(sampled.phi - exact.phi)
                  <= sampled.ci99 + 1e-3)
    assert abs(efficiency_residual(sampled)) <= 1e-9


def test_masked_feature_gets_zero_attribution_when_background_masked():
    """A feature absent in both x and every background row is a dummy."""
    rng = np.random.default_rng(3)
    d = 5

    @on_rows
    def fn(v, mm):
        return (v * mm).sum(axis=-1)

    x = rng.normal(size=d)
    m = np.ones(d)
    x[2], m[2] = 0.0, 0.0
    bg_v = rng.normal(size=(6, d))
    bg_m = np.ones((6, d))
    bg_v[:, 2], bg_m[:, 2] = 0.0, 0.0
    res = shap_values(fn, joined(x, m), joined(bg_v, bg_m), 200, seed=4)
    assert res.phi[2] == pytest.approx(0.0, abs=1e-12)


def test_mask_bit_participates_in_coalitions():
    """Attribution can flow through presence/absence alone."""
    d = 3

    @on_rows
    def fn(v, mm):
        return np.asarray(mm).sum(axis=-1)

    x = np.zeros(d)
    m = np.zeros(d)  # nothing observed for this sample
    bg_v = np.zeros((4, d))
    bg_m = np.ones((4, d))  # background has everything observed
    res = shap_values(fn, joined(x, m), joined(bg_v, bg_m), 200, seed=5)
    np.testing.assert_allclose(res.phi, [-1.0, -1.0, -1.0], atol=1e-12)


def test_normalize_lr_monotone_and_bounded():
    lrs = np.array([0.0, 1.0, 5.0, 10.0, 100.0])
    out = normalize_lr(lrs)
    assert np.all(np.diff(out) >= 0)
    assert np.all((out >= 0) & (out <= 1))  # saturates in float at LR >> 10
    assert normalize_lr(5.0) == pytest.approx(0.5)


def test_draw_background_stratified_and_deterministic():
    rng = np.random.default_rng(6)
    v = rng.normal(size=(500, 4))
    m = np.ones((500, 4))
    y = np.r_[np.ones(100), np.zeros(400)]
    b1_v, b1_m = np.split(draw_background(joined(v, m), y, 64, seed=7), 2,
                          axis=1)
    b2_v, b2_m = np.split(draw_background(joined(v, m), y, 64, seed=7), 2,
                          axis=1)
    np.testing.assert_array_equal(b1_v, b2_v)
    assert b1_v.shape == (64, 4)
    # Label stratification: roughly 20% of rows come from the positives.
    pos_rows = sum(1 for row in b1_v if any(
        np.array_equal(row, v[i]) for i in range(100)))
    assert 5 <= pos_rows <= 25


def line_names(d):
    return [f"f{i}" for i in range(d)]


def test_waterfall_requires_enough_markers():
    d = 30

    @on_rows
    def fn(v, mm):
        return np.asarray(v).sum(axis=-1)

    rng = np.random.default_rng(8)
    x = rng.normal(size=d)
    m = np.ones(d)
    m[:10] = 0.0
    x[:10] = 0.0
    bg_v = rng.normal(size=(4, d))
    bg_m = np.ones((4, d))
    with pytest.raises(LabriskError, match="waterfall requires >= "):
        waterfall(fn, joined(x, m), joined(bg_v, bg_m), line_names(d), 200,
                  seed=9)


def test_waterfall_top_k_plus_aggregate():
    d = 30

    @on_rows
    def fn(v, mm):
        return np.asarray(v).sum(axis=-1)

    rng = np.random.default_rng(10)
    x = rng.normal(size=d)
    m = np.ones(d)
    bg_v = rng.normal(size=(4, d))
    bg_m = np.ones((4, d))
    wf = waterfall(fn, joined(x, m), joined(bg_v, bg_m), line_names(d), 200,
                   seed=11)
    assert wf.result.method == "permutation_sampling"
    assert len(wf.items) == TOP_K_WATERFALL + 1
    assert "other" in wf.items[-1].feature
    total = sum(item.phi for item in wf.items)
    assert wf.base_value + total == pytest.approx(wf.fx, abs=1e-9)


def test_cohort_summary_ranking_and_determinism():
    rng = np.random.default_rng(12)
    d, n = 6, 12
    w = np.zeros(d)
    w[3] = 5.0  # one dominant feature

    @on_rows
    def fn(v, mm):
        return np.atleast_2d(v) @ w

    values = rng.normal(size=(n, d))
    mask = np.ones((n, d))
    bg_v = rng.normal(size=(8, d))
    bg_m = np.ones((8, d))
    args = (fn, joined(values, mask), joined(bg_v, bg_m), line_names(d),
            200, 13, 3)
    s1 = cohort_summary(*args)
    s2 = cohort_summary(*args)
    np.testing.assert_array_equal(s1.phi, s2.phi)
    assert s1.top_features()[0] == "f3"
    assert len(s1.top_features()) == 3


@pytest.mark.parametrize("seed", range(4))
def test_compose_matches_the_two_array_oracle(seed):
    """_compose's one np.where over feature rows gives the bytes of two
    np.where passes over values and mask joined after: all-in and all-out
    coalitions, random ones against the background (n_background, d), and
    the sampler's stacked walks (walks, d + 1, d)."""
    rng = np.random.default_rng(seed)
    d, n_bg, walks = 7, 5, 6
    x, m = rng.normal(size=d), (rng.random(d) < 0.7).astype(float)
    bg_v = rng.normal(size=(n_bg, d))
    bg_m = (rng.random((n_bg, d)) < 0.7).astype(float)
    cases = [(c, bg_v, bg_m) for c in (np.ones(d, bool), np.zeros(d, bool),
                                        rng.random(d) < 0.5,
                                        rng.random((n_bg, d)) < 0.5)]
    b = rng.integers(n_bg, size=walks)
    cases.append((rng.random((walks, d + 1, d)) < 0.5, bg_v[b, None, :],
                  bg_m[b, None, :]))
    for coalition, v, mm in cases:
        got = _compose(joined(x, m), coalition, joined(v, mm))
        expected = oracles.compose(x, m, coalition, v, mm)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
