"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion. Criteria 5-7 share a module-scoped planted-signal pipeline run."""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from labrisk import cli, comorbid, defaults, ioutil, likelihood, metrics, nn
from labrisk.cohort import labeled_from_dict
from labrisk.explain import _shap_sampling, shap_values
from labrisk.model import RiskModel, RiskModelConfig, load_model
from labrisk.preprocess import complete_derived, vectorize_many

from oracles import (average_precision, efficiency_residual, grad_check,
                     grads, params)

MASTER_SEED = 20260826


# --- criterion 1: gradient checks ----------------------------------------------

def test_criterion_1_gradient_checks_under_one_minute():
    start = time.time()
    rng = np.random.default_rng(0)
    cases = 0

    # Layers and losses, randomized shapes, smooth ops held to 1e-6.
    for _ in range(30):
        n, din, dout = (int(rng.integers(2, 9)) for _ in range(3))
        layer = nn.Linear(din + 1, dout + 1, rng)
        x = rng.normal(size=(n, din + 1))
        w = rng.normal(size=(n, dout + 1))
        layer.forward(x)
        layer.backward(w)
        err = grad_check(lambda: float((layer.forward(x) * w).sum()),
                         params(layer), grads(layer))
        assert err < 1e-6
        cases += 1

    for _ in range(20):
        n, d = int(rng.integers(3, 9)), int(rng.integers(2, 7))
        bn = nn.BatchNorm(d)
        x = rng.normal(size=(n, d)) * 2
        w = rng.normal(size=(n, d))
        bn.forward(x)
        bn.backward(w)
        err = grad_check(
            lambda: float((bn.forward(x) * w).sum()),
            params(bn), grads(bn))
        assert err < 1e-6
        cases += 1

    for _ in range(20):
        n, d = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        recon = rng.normal(size=(n, d))
        target = rng.normal(size=(n, d))
        mask = (rng.random((n, d)) < 0.7).astype(float)
        _, grad = nn.masked_mse(recon, target, mask)
        assert grad_check(
            lambda: nn.masked_mse(recon, target, mask)[0],
            [recon], [grad]) < 1e-6
        cases += 1

    for _ in range(20):
        n, k = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        mu = rng.normal(size=(n, k))
        logvar = rng.normal(size=(n, k)) * 0.4
        _, dmu, dlv = nn.kl_divergence(mu, logvar)
        assert grad_check(
            lambda: nn.kl_divergence(mu, logvar)[0],
            [mu, logvar], [dmu, dlv]) < 1e-6
        cases += 1

    for _ in range(20):
        n = int(rng.integers(2, 20))
        logits = rng.normal(size=n) * 2
        y = (rng.random(n) < 0.5).astype(float)
        _, grad = nn.bce_with_logits(logits, y)
        assert grad_check(
            lambda: nn.bce_with_logits(logits, y)[0],
            [logits], [grad]) < 1e-6
        cases += 1

    # Full profiler losses on a tiny model, 1e-4 (batchnorm + leaky relu
    # kinks make these only piecewise smooth).
    for seed in range(6):
        r = np.random.default_rng(1000 + seed)
        cfg = RiskModelConfig(n_features=4, hidden_width=5, latent_dim=3,
                              batch_size=4, seed=seed)
        model = RiskModel(cfg, rng=r)
        values = r.normal(size=(6, 4))
        mask = (r.random((6, 4)) < 0.8).astype(float)
        keep = mask * (r.random((6, 4)) < 0.75)
        noise = r.normal(size=(6, 3))
        labels = (r.random(6) < 0.5).astype(float)

        def pre():
            return model.pretrain_loss_and_grads(values, mask, keep, noise)[0]

        pre()
        assert grad_check(pre, [model.params],
                             [model.grads.copy()]) < 1e-4

        rows = np.concatenate([values, mask], axis=1)

        def fine():
            return model.finetune_loss_and_grads(rows, labels, noise)[0]

        fine()
        assert grad_check(fine, [model.params],
                             [model.grads.copy()]) < 1e-4
        cases += 2

    assert cases >= 100
    assert time.time() - start < 60.0


# --- criterion 2: exact statistics oracles --------------------------------------

def _enumerate_fisher(a, b, c, d):
    row1, row2, col1 = a + b, c + d, a + c
    n = row1 + row2

    def point(x):
        return (math.comb(row1, x) * math.comb(row2, col1 - x)
                / math.comb(n, col1))

    p_obs = point(a)
    total = sum(point(x)
                for x in range(max(0, col1 - row2), min(row1, col1) + 1)
                if point(x) <= p_obs * (1 + 1e-7))
    return min(1.0, total)


def _mann_whitney(scores, labels):
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = sum(1.0 if p > n else (0.5 if p == n else 0.0)
               for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def _brute_ap(scores, labels):
    n_pos = labels.sum()
    ap, prev = 0.0, 0.0
    for t in sorted(set(scores), reverse=True):
        sel = scores >= t
        tp = labels[sel].sum()
        ap += (tp / n_pos - prev) * (tp / sel.sum())
        prev = tp / n_pos
    return ap


def test_criterion_2_exact_statistics_oracles_under_two_minutes():
    start = time.time()
    # Every 2x2 table with N <= 40 and non-degenerate rows.
    n_tables = 0
    for n in range(2, 41):
        for a in range(n + 1):
            for b in range(n + 1 - a):
                for c in range(n + 1 - a - b):
                    d = n - a - b - c
                    if (a + b) == 0 or (c + d) == 0:
                        continue
                    p = comorbid.fisher_exact(a, b, c, d)
                    assert abs(p - _enumerate_fisher(a, b, c, d)) <= 1e-12, \
                        (a, b, c, d)
                    n_tables += 1
    assert n_tables > 10_000

    rng = np.random.default_rng(2)
    for i in range(200):
        n = int(rng.integers(6, 80))
        labels = rng.integers(0, 2, size=n).astype(float)
        labels[0], labels[1] = 0.0, 1.0
        scores = (rng.integers(0, 8, size=n) / 7.0 if i % 2
                  else rng.random(n))
        assert abs(metrics.roc(scores, labels).auc
                   - _mann_whitney(scores, labels)) <= 1e-12
        assert abs(average_precision(scores, labels)
                   - _brute_ap(scores, labels)) <= 1e-12
    assert time.time() - start < 120.0


# --- criterion 3: Shapley correctness -------------------------------------------

def test_criterion_3_shapley_sampling_exact_and_linear_under_two_minutes():
    start = time.time()
    rng = np.random.default_rng(3)
    inside = 0
    total = 0
    for trial in range(8):
        d = int(rng.integers(5, 11))  # d <= 10
        w1 = rng.normal(size=d)
        w2 = rng.normal(size=d) * 0.3

        def fn(rows):
            v, mm = np.split(np.atleast_2d(rows), 2, axis=-1)
            return np.tanh(v @ w1) + (v * v * mm) @ w2

        x = rng.normal(size=d)
        m = (rng.random(d) < 0.85).astype(float)
        x = x * m
        bg_v = rng.normal(size=(10, d))
        bg_m = (rng.random((10, d)) < 0.9).astype(float)
        bg_v = bg_v * bg_m
        row = np.concatenate([x, m])
        background = np.concatenate([bg_v, bg_m], axis=1)

        exact = shap_values(fn, row, background, 200, seed=trial)
        assert exact.method == "exact_enumeration"
        assert abs(efficiency_residual(exact)) <= 1e-9

        sampled = _shap_sampling(fn, row, background, 400, seed=trial)
        assert sampled.method == "permutation_sampling"
        # Sampling estimates fall within their own 99% MC CI of exact.
        # A 99% CI legitimately misses ~1% of the time, so the gate is the
        # coverage rate over all (trial, feature) comparisons, with a hard
        # cap of twice the CI on any single excursion.
        diff = np.abs(sampled.phi - exact.phi)
        inside += int(np.sum(diff <= sampled.ci99 + 1e-9))
        total += diff.size
        assert np.all(diff <= 2.0 * sampled.ci99 + 1e-9)

    assert inside / total >= 0.95, (inside, total)

    # Linear closed form, exactly.
    d = 8
    w = rng.normal(size=d)

    def lin(rows):
        return np.atleast_2d(rows)[..., :d] @ w

    x = rng.normal(size=d)
    m = np.ones(d)
    bg_v = rng.normal(size=(32, d))
    bg_m = np.ones((32, d))
    res = shap_values(lin, np.concatenate([x, m]),
                      np.concatenate([bg_v, bg_m], axis=1), 200, seed=0)
    np.testing.assert_allclose(res.phi, w * (x - bg_v.mean(axis=0)),
                               atol=1e-12)
    assert time.time() - start < 120.0


# --- criterion 4: likelihood-ratio arithmetic -----------------------------------

def test_criterion_4_lr_arithmetic_under_one_minute():
    start = time.time()
    # Hand example: pre-test 2/10, post-test 3/5 -> LR = 6.0 exactly.
    lr, corrected = likelihood.lr_from_counts(3, 5, 2, 10)
    assert lr == 6.0 and not corrected

    rng = np.random.default_rng(4)
    for _ in range(5):
        labels = (rng.random(500) < 0.3).astype(float)
        scores = np.clip(rng.normal(0.4 + 0.25 * labels, 0.12), 0, 1)
        curve = likelihood.lr_curve(
            likelihood.ScoredCohort.from_arrays(scores, labels))
        assert curve.lr[0] == 1.0  # LR(t=0) exact

    # Permutation-null cohorts: LR(t) within the simulated 95% band of 1.
    labels = (rng.random(800) < 0.25).astype(float)
    scores = rng.random(800)
    thresholds = np.linspace(0.0, 0.85, 18)
    sims = np.empty((300, len(thresholds)))
    for s in range(sims.shape[0]):
        c = likelihood.ScoredCohort.from_arrays(scores,
                                                rng.permutation(labels))
        sims[s] = likelihood.lr_curve(c, thresholds).lr
    lo = np.quantile(sims, 0.025, axis=0)
    hi = np.quantile(sims, 0.975, axis=0)
    observed = likelihood.lr_curve(
        likelihood.ScoredCohort.from_arrays(scores, labels), thresholds).lr
    assert np.all((observed >= lo - 1e-12) & (observed <= hi + 1e-12))
    assert np.all(lo <= 1.0 + 1e-12) and np.all(hi >= 1.0 - 1e-12)
    assert time.time() - start < 60.0


# --- criteria 5-7: planted-signal pipeline --------------------------------------

@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    base = tmp_path_factory.mktemp("planted")
    runs = {}
    for tag in ("first", "repeat"):
        out = base / tag
        config = {
            "paths": {"output_dir": str(out)},
            "master_seed": MASTER_SEED,
            "cancer_type": "liver",
            "synth": {"n_per_class": {"no_cancer": 8000, "liver": 800}},
            "train": {"pretrain_epochs": 15, "finetune_epochs": 30,
                      "n_members": 10},
        }
        cfg_path = base / f"config_{tag}.json"
        cfg_path.write_text(json.dumps(config))
        t0 = time.time()
        for cmd in ("synth", "cohort", "prepare", "train", "evaluate"):
            assert cli.main([cmd, "--config", str(cfg_path)]) == 0, cmd
        runs[tag] = {"out": out, "seconds": time.time() - t0}
    return runs


def _validation_data(out):
    path = out / "model.json"
    ensemble, _ = load_model(path.read_bytes(), str(path))
    rows, _ = ioutil.read_records_jsonl(out / "labeled.jsonl",
                                        labeled_from_dict)
    labeled = [e for e in rows if e.split == "validation"]
    val = [complete_derived(e.record) for e in labeled]
    labels = np.array([int(e.label) for e in labeled])
    return ensemble, val, vectorize_many(val, ensemble.normalization), labels


def test_criterion_5_planted_signal_end_to_end(planted):
    run = planted["first"]
    assert run["seconds"] < 600.0, "pipeline exceeded 10 minutes"
    out = run["out"]
    summary = json.loads((out / "metrics.json").read_text())
    assert summary["auc"] >= 0.80, summary

    ensemble, val, features, labels = _validation_data(out)
    scores = ensemble.predict_batch(features).mean(axis=1)
    curve = likelihood.lr_curve(
        likelihood.ScoredCohort.from_arrays(scores, labels))

    def lr_at(t):
        i = int(np.argmin(np.abs(curve.thresholds - t)))
        assert abs(curve.thresholds[i] - t) < 1e-9, \
            f"LR curve truncated before t={t}"
        return curve.lr[i]

    assert lr_at(0.8) >= 2.0 * lr_at(0.2), (lr_at(0.8), lr_at(0.2))

    cat = defaults.default_catalog()
    oor = np.array([likelihood.oor_score(r, cat)[0] for r in val])
    oor_auc = metrics.roc(oor, labels).auc
    assert summary["auc"] >= oor_auc + 0.05, (summary["auc"], oor_auc)


def test_criterion_6_missingness_robustness(planted):
    ensemble, _, features, labels = _validation_data(
        planted["first"]["out"])
    base_auc = metrics.roc(
        ensemble.predict_batch(features).mean(axis=1), labels).auc
    values, mask = np.split(features, 2, axis=1)
    rng = np.random.default_rng(MASTER_SEED + 1)
    drop = (rng.random(mask.shape) < 0.30) & (mask == 1.0)
    mask2 = mask.copy()
    values2 = values.copy()
    mask2[drop] = 0.0
    values2[drop] = 0.0
    degraded_auc = metrics.roc(
        ensemble.predict_batch(np.concatenate([values2, mask2], axis=1)
                               ).mean(axis=1), labels).auc
    assert abs(base_auc - degraded_auc) < 0.08, (base_auc, degraded_auc)


def test_criterion_7_bit_identical_reproducibility(planted):
    a = planted["first"]["out"]
    b = planted["repeat"]["out"]
    for name in ("model.json", "roc.csv", "pr.csv", "lr_curve.csv",
                 "metrics.json", "normalization.json", "labeled.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# --- criterion 8: cohort-logic property tests ------------------------------------

def test_criterion_8_cohort_logic_property_suite():
    """The binding property tests live in test_cohort.py; this runs them as
    one gate so the acceptance log carries a single line for the criterion."""
    rc = pytest.main(["-q", "--no-header", "-p", "no:cacheprovider",
                      os.path.join(os.path.dirname(__file__),
                                   "test_cohort.py")])
    assert rc == 0
