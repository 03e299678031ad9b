"""Model construction, training oracles, and serialization round trips."""

import base64
import hashlib
import json
import os
import re

import numpy as np
import pytest

from labrisk import LabriskError, nn
from labrisk.model import (RiskAssessment, RiskEnsemble, RiskModel,
                           RiskModelConfig, finetune, load_model, pretrain,
                           save_model, train_ensemble)
from labrisk.preprocess import NormalizationParams

from oracles import grad_check, params


def tiny_config(d=5, **kw):
    base = dict(n_features=d, hidden_width=6, latent_dim=3,
                pretrain_epochs=2, finetune_epochs=2, batch_size=4, seed=0)
    base.update(kw)
    return RiskModelConfig(**base)


def dummy_params(d):
    names = tuple(f"m{i}" for i in range(d))
    return NormalizationParams(
        median={n: 0.0 for n in names}, iqd={n: 1.0 for n in names},
        log_transform={n: False for n in names},
        detection_limit={n: 0.0 for n in names},
        feature_order=names, fitted_on="development",
        scale_demographics=True)


def test_parameter_count():
    cfg = tiny_config(d=5)
    model = RiskModel(cfg, rng=np.random.default_rng(0))
    # encoder: Linear(10,6)+BN(6), Linear(6,6)+BN(6) x2; heads 6->3 x2;
    # decoder: Linear(3,6)+BN(6), Linear(6,6)+BN(6) x2, Linear(6,5); cls 3->1.
    expected = ((10 * 6 + 6) + (6 * 6 + 6) * 2 + 12 * 3  # encoder + BN gammas/betas
                + 2 * (6 * 3 + 3)                         # mu/logvar heads
                + (3 * 6 + 6) + (6 * 6 + 6) * 2 + 12 * 3  # decoder stack + BN
                + (6 * 5 + 5)                             # final projection
                + (3 * 1 + 1))                            # classifier
    assert model.params.size == model.grads.size == expected
    assert model.state.size == expected + 2 * 6 * 6  # 6 BNs: mean + var


@pytest.mark.parametrize("seed", range(3))
def test_pretrain_loss_gradient_check(seed):
    rng = np.random.default_rng(seed)
    cfg = tiny_config(d=4)
    model = RiskModel(cfg, rng=rng)
    values = rng.normal(size=(6, 4))
    mask = (rng.random((6, 4)) < 0.8).astype(float)
    keep = mask * (rng.random((6, 4)) < 0.75)
    noise = rng.normal(size=(6, cfg.latent_dim))

    def loss():
        return model.pretrain_loss_and_grads(values, mask, keep, noise)[0]

    total, (l_rec, l_kl) = model.pretrain_loss_and_grads(values, mask, keep,
                                                         noise)
    assert total == cfg.w_recon * l_rec + cfg.w_kl * l_kl
    # Pretraining leaves the classifier untrained.
    assert not model.classifier.dweight.any()
    assert not model.classifier.dbias.any()
    analytic = [model.grads.copy()]
    assert grad_check(loss, [model.params], analytic) < 1e-4


@pytest.mark.parametrize("seed", range(3))
def test_finetune_loss_gradient_check(seed):
    rng = np.random.default_rng(100 + seed)
    cfg = tiny_config(d=4)
    model = RiskModel(cfg, rng=rng)
    values = rng.normal(size=(6, 4))
    mask = (rng.random((6, 4)) < 0.8).astype(float)
    labels = (rng.random(6) < 0.5).astype(float)
    noise = rng.normal(size=(6, cfg.latent_dim))

    def loss():
        return model.finetune_loss_and_grads(values, mask, labels, noise)[0]

    total, (l_rec, l_kl, l_cls) = model.finetune_loss_and_grads(
        values, mask, labels, noise)
    assert total == cfg.w_recon * l_rec + cfg.w_kl * l_kl + cfg.w_cls * l_cls
    assert model.classifier.dweight.any()
    analytic = [model.grads.copy()]
    assert grad_check(loss, [model.params], analytic) < 1e-4


def separable_data(n=120, d=5, seed=0):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(float)
    x = rng.normal(size=(n, d)) + 2.5 * y[:, None]
    mask = np.ones((n, d))
    return x, mask, y


def test_finetune_separates_easy_classes():
    x, mask, y = separable_data()
    cfg = tiny_config(d=5, pretrain_epochs=5, finetune_epochs=60, lr=1e-2)
    rng = np.random.default_rng(1)
    model = RiskModel(cfg, rng=rng)
    pretrain(model, x, mask, rng)
    finetune(model, x, mask, y, rng)
    ensemble = RiskEnsemble(states=model.state[None],
                            normalization=dummy_params(5), config=cfg)
    scores = ensemble.predict_batch(x, mask)[:, 0]
    # Training AUC on linearly separable data should be near perfect.
    from labrisk.metrics import roc
    assert roc(scores, y).auc > 0.95


def test_pretrain_reduces_reconstruction_loss():
    x, mask, _ = separable_data(seed=3)
    cfg = tiny_config(d=5, pretrain_epochs=40, lr=1e-2)
    rng = np.random.default_rng(2)
    model = RiskModel(cfg, rng=rng)
    history = pretrain(model, x, mask, rng)
    losses = [h["loss"] for h in history]
    assert losses[-1] < losses[0]


def test_finetune_rejects_single_class():
    x, mask, _ = separable_data(n=20)
    cfg = tiny_config(d=5)
    rng = np.random.default_rng(0)
    model = RiskModel(cfg, rng=rng)
    with pytest.raises(LabriskError, match="single-class training set"):
        finetune(model, x, mask, np.zeros(20), rng)


def test_risk_assessment_clamps_ci():
    a = RiskAssessment.from_scores(np.array([0.95, 0.99, 1.0, 0.97]),
                                   ci_scale=3.0)
    assert 0.0 <= a.ci[0] <= a.ci[1] <= 1.0
    assert a.std == pytest.approx(
        np.std([0.95, 0.99, 1.0, 0.97]))  # population std


def trained_ensemble(seed=0, n_members=3):
    """An ensemble with its development scores and a background set, as the
    train command leaves it, and its training data."""
    x, mask, y = separable_data(n=90, seed=seed)
    pids = [f"p{i // 3}" for i in range(90)]  # 3 encounters per patient
    cfg = tiny_config(d=5, pretrain_epochs=2, finetune_epochs=4, seed=seed)
    ens = train_ensemble(x, mask, y, pids, dummy_params(5), cfg,
                         n_members=n_members)
    ens.dev_scores = ens.predict_batch(x, mask).mean(axis=1)
    ens.dev_labels = y
    ens.background_values, ens.background_mask = x[::9], mask[::9]
    return ens, (x, mask, y)


def model_document(path):
    """(header, payload) of a model file."""
    head, payload = path.read_text().split("\n", 1)
    return json.loads(head), json.loads(payload)


def member_model(ens, member):
    """An eval RiskModel holding row `member` of the ensemble's states."""
    model = RiskModel(ens.config, None)
    model.state[...] = ens.states[member]
    return model


def state_bytes(model):
    """A member's parameters, then its BatchNorm running statistics, in
    `_stacks()` order, as little-endian float64 bytes."""
    layers = model._stacks()
    arrays = [p for layer in layers for p in params(layer)]
    arrays += [s for layer in layers if isinstance(layer, nn.BatchNorm)
               for s in (layer.running_mean, layer.running_var)]
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                    for a in arrays)


# Digests of the seed-5 ensemble after a save/load round trip. Any change to
# the float arithmetic of initialization, training, serialization or scoring
# changes them; a change that does so on purpose re-baselines them and says
# why.
GOLDEN_STATE_SHA256 = (
    "f92026bb3d39a4b9e1bd90be5cc104f682d5ef4f2658c6a275f23ead124c7d8c")
GOLDEN_SCORES_SHA256 = (
    "f83740c965fd4c8b83d11751f6e047c8bfb0c86d998239aec4157217532f6f86")


def test_golden_weights_and_scores(tmp_path):
    ens, (x, mask, _) = trained_ensemble(seed=5)
    save_model(ens, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    state = np.ascontiguousarray(loaded.states, dtype="<f8").tobytes()
    assert hashlib.sha256(state).hexdigest() == GOLDEN_STATE_SHA256
    scores = np.ascontiguousarray(loaded.predict_batch(x, mask), dtype="<f8")
    assert hashlib.sha256(scores.tobytes()).hexdigest() == GOLDEN_SCORES_SHA256


def test_ensemble_prediction_shape_and_range():
    ens, (x, mask, _) = trained_ensemble()
    scores = ens.predict_batch(x, mask)
    assert scores.shape == (90, 3)
    assert np.all((scores >= 0) & (scores <= 1))
    a = ens.predict(x[0], mask[0])
    assert len(a.per_member_scores) == 3
    assert a.ci[0] <= a.mean <= a.ci[1]


def test_ensemble_members_differ():
    ens, (x, mask, _) = trained_ensemble()
    scores = ens.predict_batch(x, mask)
    assert not np.allclose(scores[:, 0], scores[:, 1])


def test_train_ensemble_deterministic(tmp_path):
    for name in ("a.json", "b.json"):
        save_model(trained_ensemble(seed=5)[0], tmp_path / name)
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_save_load_round_trip(tmp_path):
    ens, (x, mask, _) = trained_ensemble(seed=7)
    path = tmp_path / "model.json"
    save_model(ens, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.predict_batch(x, mask),
                                  ens.predict_batch(x, mask))
    for name in ("dev_scores", "dev_labels", "background_values",
                 "background_mask"):
        assert np.array_equal(getattr(loaded, name), getattr(ens, name))
        assert getattr(loaded, name).dtype == np.float64
    assert (loaded.catalog_version, loaded.member_subsets) == \
        (ens.catalog_version, ens.member_subsets)


def test_load_detects_corruption(tmp_path):
    ens, _ = trained_ensemble(seed=8)
    path = tmp_path / "model.json"
    save_model(ens, path)
    head, payload = model_document(path)
    raw = bytearray(base64.b64decode(payload["states"]))
    raw[0] ^= 1
    payload["states"] = base64.b64encode(raw).decode()
    path.write_text(json.dumps(head) + "\n" + json.dumps(payload))
    with pytest.raises(LabriskError, match="sha256"):
        load_model(path)


def test_overflowing_weights_name_the_model_file_only_when_loaded(tmp_path):
    ens, (x, mask, _) = trained_ensemble(seed=8)
    ens.states[...] = 1e300
    with pytest.raises(nn.NumericsError):  # a runtime fault: exit 4
        ens.predict_batch(x, mask)
    path = tmp_path / "model.json"
    save_model(ens, path)
    with pytest.raises(LabriskError, match=re.escape(f"{path}: states: ")):
        load_model(path).predict_batch(x, mask)


def test_header_checksums_the_payload_bytes_as_written(tmp_path):
    ens, _ = trained_ensemble(seed=7)
    path = tmp_path / "model.json"
    save_model(ens, path)
    head, _, payload = path.read_bytes().partition(b"\n")
    assert json.loads(head) == {"format": "labrisk-ensemble-v3",
                                "sha256": hashlib.sha256(payload).hexdigest()}


def test_member_blob_is_the_state_in_stacks_order(tmp_path):
    ens, _ = trained_ensemble(seed=7)
    save_model(ens, tmp_path / "model.json")
    states = base64.b64decode(model_document(tmp_path / "model.json")[1][
        "states"])
    members = [member_model(ens, i) for i in range(len(ens.states))]
    assert states == b"".join(state_bytes(m) for m in members)
    for member in members:
        assert state_bytes(member) == member.state.tobytes()


def _fail_partway(monkeypatch, ens):
    """Make the model file's write fail after its first bytes."""
    real_fdopen = os.fdopen

    class Failing:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[:100])
            raise OSError("disk full")

    monkeypatch.setattr(os, "fdopen",
                        lambda *a, **kw: Failing(real_fdopen(*a, **kw)))


def _unencodable(monkeypatch, ens):
    ens.catalog_version = object()


@pytest.mark.parametrize("fail, error", [
    (_fail_partway, OSError), (_unencodable, TypeError),
], ids=["write-fails-partway", "unencodable-payload"])
def test_failed_save_leaves_existing_model_intact(tmp_path, monkeypatch,
                                                  fail, error):
    ens, _ = trained_ensemble(seed=8)
    path = tmp_path / "model.json"
    save_model(ens, path)
    before = path.read_bytes()
    fail(monkeypatch, ens)
    with pytest.raises(error):
        save_model(ens, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_load_builds_at_most_one_risk_model(tmp_path, monkeypatch):
    ens, _ = trained_ensemble(seed=7)
    save_model(ens, tmp_path / "model.json")
    built = []
    init = RiskModel.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RiskModel, "__init__", counted)
    loaded = load_model(tmp_path / "model.json")
    assert len(built) <= 1
    assert loaded.states.dtype == np.float64
    assert np.array_equal(loaded.states, ens.states)


def test_eval_scores_skip_logvar_head(monkeypatch):
    ens, (x, mask, _) = trained_ensemble(seed=5)
    model = member_model(ens, 0)

    def reference(values, mask):
        h = np.concatenate([values, mask], axis=-1)
        for layer in model.encoder:
            h = layer.forward(h, False)
        mu = model.mu_head.forward(h, False)
        model.logvar_head.forward(h, False)
        return nn.sigmoid(model.classifier.forward(mu, False)[..., 0])

    expected = reference(x, mask)
    calls = []
    forward = nn.Linear.forward

    def counted(self, *args, **kwargs):
        calls.append(self)
        return forward(self, *args, **kwargs)

    # Per member: three encoder layers, the mu head and the classifier.
    monkeypatch.setattr(nn.Linear, "forward", counted)
    assert np.array_equal(ens.predict_batch(x, mask)[:, 0], expected)
    assert len(calls) == 5 * len(ens.states)
    calls.clear()
    assert np.array_equal(
        ens.predict_batch(x[:2][None], mask[:2][None])[..., 0],
        expected[None, :2])
    assert len(calls) == 5 * len(ens.states)


def test_config_validation():
    with pytest.raises(LabriskError, match="dimensions must be positive"):
        tiny_config(d=0).validate()
    with pytest.raises(LabriskError, match="mask_fraction must be in"):
        tiny_config(mask_fraction=1.0).validate()
    with pytest.raises(LabriskError, match="batch_size must be >= 2"):
        tiny_config(batch_size=1).validate()
