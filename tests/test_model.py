"""Model construction, training oracles, and serialization round trips."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from labrisk import LabriskError, nn
from labrisk import model as model_module
from labrisk.model import (ARRAYS, MAX_WIDTH, RiskAssessment, RiskEnsemble,
                           RiskModel, RiskModelConfig, finetune, initial_state,
                           load_model, pretrain, save_model, train_ensemble)
from labrisk.preprocess import NormalizationParams

import oracles
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


# The development-cohort fields of an ensemble built only to score.
UNSCORED = dict(dev_scores=np.empty(0), dev_labels=np.empty(0),
                background=np.empty((0, 0)))


def new_model(config, rng):
    """A RiskModel over a new member's initial state drawn from `rng`."""
    return RiskModel(config, initial_state(config, rng))


def test_parameter_count():
    cfg = tiny_config(d=5)
    model = new_model(cfg, np.random.default_rng(0))
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
    model = new_model(cfg, rng)
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
    model = new_model(cfg, rng)
    values = rng.normal(size=(6, 4))
    mask = (rng.random((6, 4)) < 0.8).astype(float)
    rows = np.concatenate([values, mask], axis=1)
    labels = (rng.random(6) < 0.5).astype(float)
    noise = rng.normal(size=(6, cfg.latent_dim))

    def loss():
        return model.finetune_loss_and_grads(rows, labels, noise)[0]

    total, (l_rec, l_kl, l_cls) = model.finetune_loss_and_grads(
        rows, labels, noise)
    assert total == cfg.w_recon * l_rec + cfg.w_kl * l_kl + cfg.w_cls * l_cls
    assert model.classifier.dweight.any()
    analytic = [model.grads.copy()]
    assert grad_check(loss, [model.params], analytic) < 1e-4


def separable_data(n=120, d=5, seed=0):
    """(rows, labels): every value observed, so the mask half is all ones."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(float)
    x = rng.normal(size=(n, d)) + 2.5 * y[:, None]
    mask = np.ones((n, d))
    return np.concatenate([x, mask], axis=1), y


def test_finetune_separates_easy_classes():
    rows, y = separable_data()
    cfg = tiny_config(d=5, pretrain_epochs=5, finetune_epochs=60, lr=1e-2)
    rng = np.random.default_rng(1)
    model = new_model(cfg, rng)
    pretrain(model, rows, rng)
    finetune(model, rows, y, rng)
    ensemble = RiskEnsemble(
        states=model.state[None], normalization=dummy_params(5), config=cfg,
        catalog_version="t", **UNSCORED)
    scores = ensemble.predict_batch(rows)[:, 0]
    # Training AUC on linearly separable data should be near perfect.
    from labrisk.metrics import roc
    assert roc(scores, y).auc > 0.95


def test_pretrain_reduces_reconstruction_loss():
    rows, _ = separable_data(seed=3)
    cfg = tiny_config(d=5, pretrain_epochs=40, lr=1e-2)
    rng = np.random.default_rng(2)
    model = new_model(cfg, rng)
    history = pretrain(model, rows, rng)
    losses = [h["loss"] for h in history]
    assert losses[-1] < losses[0]


def test_finetune_rejects_single_class():
    rows, _ = separable_data(n=20)
    cfg = tiny_config(d=5)
    rng = np.random.default_rng(0)
    model = new_model(cfg, rng)
    with pytest.raises(LabriskError, match="single-class training set"):
        finetune(model, rows, np.zeros(20), rng)


def test_training_does_not_import_numpy_ma():
    """numpy.ma stays unloaded: its import takes ~9 ms, and made in the
    middle of training it leaves a process that goes on serving ~2 MB
    larger."""
    code = ("import sys\n"
            "import numpy as np\n"
            "from labrisk.model import (RiskModel, RiskModelConfig, finetune,"
            " initial_state)\n"
            "cfg = RiskModelConfig(n_features=3, hidden_width=4, latent_dim=2,"
            " finetune_epochs=1, batch_size=4)\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.normal(size=(8, 3))\n"
            "rows = np.concatenate([x, np.ones_like(x)], axis=1)\n"
            "model = RiskModel(cfg, initial_state(cfg, rng))\n"
            "finetune(model, rows, np.arange(8) % 2.0, rng)\n"
            "assert 'numpy.ma' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(model_module.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_risk_assessment_clamps_ci():
    a = RiskAssessment.from_scores(np.array([0.95, 0.99, 1.0, 0.97]),
                                   ci_scale=3.0)
    assert 0.0 <= a.ci[0] <= a.ci[1] <= 1.0
    assert a.std == pytest.approx(
        np.std([0.95, 0.99, 1.0, 0.97]))  # population std


def trained_ensemble(seed=0, n_members=3):
    """An ensemble as train_ensemble leaves it, and its training data."""
    rows, y = separable_data(n=90, seed=seed)
    pids = [f"p{i // 3}" for i in range(90)]  # 3 encounters per patient
    cfg = tiny_config(d=5, pretrain_epochs=2, finetune_epochs=4, seed=seed)
    ens = train_ensemble(rows, y, pids, dummy_params(5), cfg,
                         n_members=n_members, subsample=0.8,
                         background_size=10, background_seed=seed,
                         catalog_version="t")
    return ens, (rows, y)


def load_file(path):
    """The ensemble in the model file at `path`, errors naming the path."""
    return load_model(path.read_bytes(), str(path))[0]


def model_document(path):
    """(header, line 2, the array bytes between line 2 and the checksum
    trailer) of a model file."""
    head, line, arrays = path.read_bytes()[:-64].split(b"\n", 2)
    return json.loads(head), json.loads(line), arrays


def member_model(ens, member):
    """A RiskModel holding a copy of row `member` of the ensemble's
    states."""
    return RiskModel(ens.config, ens.states[member].copy())


def state_bytes(model):
    """A member's parameters, then its BatchNorm running statistics, in
    network order, as little-endian float64 bytes."""
    layers = list(model.layers.values())
    arrays = [p for layer in layers for p in params(layer)]
    arrays += [s for layer in layers if isinstance(layer, nn.BatchNorm)
               for s in (layer.running_mean, layer.running_var)]
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                    for a in arrays)


# Digests of the seed-5 ensemble after a save/load round trip. Any change to
# the float arithmetic of initialization, training, serialization or scoring
# changes them; a change that does so on purpose re-baselines them and says
# why. UNFOLDED_SCORES_SHA256 is the scores digest of scoring before each eval
# BatchNorm was folded into its Linear, which the unfolded oracle keeps.
GOLDEN_STATE_SHA256 = (
    "f92026bb3d39a4b9e1bd90be5cc104f682d5ef4f2658c6a275f23ead124c7d8c")
GOLDEN_SCORES_SHA256 = (
    "ab4188bd46072ea87a78e3185546f52757dc59cf28683c071577fcbbef738c87")
UNFOLDED_SCORES_SHA256 = (
    "f83740c965fd4c8b83d11751f6e047c8bfb0c86d998239aec4157217532f6f86")


def _digest(array):
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def test_golden_weights_and_scores(tmp_path):
    ens, (rows, _) = trained_ensemble(seed=5)
    save_model(ens, tmp_path / "model.json")
    loaded = load_file(tmp_path / "model.json")
    assert _digest(loaded.states) == GOLDEN_STATE_SHA256
    assert _digest(loaded.predict_batch(rows)) == GOLDEN_SCORES_SHA256
    assert _digest(oracles.unfolded_scores(loaded, rows)) == \
        UNFOLDED_SCORES_SHA256


# Folding moves each score by a few units in the last place (ulps) of the
# score: 3 to 9 on these ensembles, 26 at most on a 10-member model of the
# acceptance width. The bound leaves room for other BLAS kernels, and is far
# below what a layout or fold error gives.
MAX_FOLD_ULPS = 64


@pytest.mark.parametrize("seed", range(6))
def test_folded_scores_are_within_ulps_of_the_unfolded_oracle(seed):
    ens, (rows, _) = trained_ensemble(seed=seed, n_members=4)
    expected = oracles.unfolded_scores(ens, rows)
    got = ens.predict_batch(rows)
    assert got.shape == expected.shape == (90, 4)
    ulps = np.abs(got - expected) / np.spacing(expected)
    assert ulps.max() <= MAX_FOLD_ULPS, ulps.max()
    # The walk stacks that explain scores: (walks, rows, features).
    stack = ens.predict_batch(rows.reshape(6, 15, 10))
    assert np.array_equal(stack, np.stack(
        [ens.predict_batch(rows[i:i + 15])
         for i in range(0, 90, 15)]))


def test_ensemble_prediction_shape_and_range():
    ens, (rows, _) = trained_ensemble()
    scores = ens.predict_batch(rows)
    assert scores.shape == (90, 3)
    assert np.all((scores >= 0) & (scores <= 1))
    a = ens.predict(rows[0])
    assert len(a.per_member_scores) == 3
    assert a.ci[0] <= a.mean <= a.ci[1]


def test_predict_batch_rejects_values_without_their_mask():
    """A (..., d) input of values alone is not a feature row: LabriskError
    naming the 2 · d columns a row has and the d it got."""
    ens, (rows, _) = trained_ensemble()
    for values in (rows[:, :5], rows[:3, :5][None], rows[0, :5]):
        with pytest.raises(LabriskError, match=re.escape(
                "expected rows of 10 columns (the values and presence mask "
                "of 5 features), got 5")):
            ens.predict_batch(values)
    with pytest.raises(LabriskError, match="expected rows of 10 columns"):
        ens.predict(rows[0, :5])


def test_ensemble_members_differ():
    ens, (rows, _) = trained_ensemble()
    scores = ens.predict_batch(rows)
    assert not np.allclose(scores[:, 0], scores[:, 1])


def test_train_ensemble_deterministic(tmp_path):
    for name in ("a.json", "b.json"):
        save_model(trained_ensemble(seed=5)[0], tmp_path / name)
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_trained_ensemble_saves_a_file_that_loads(tmp_path):
    """train_ensemble scores the development set and draws the background
    itself, so its ensemble saves as it is."""
    ens, (rows, y) = trained_ensemble(seed=7)
    np.testing.assert_array_equal(ens.dev_scores,
                                  ens.predict_batch(rows).mean(axis=1))
    assert np.array_equal(ens.dev_labels, y)
    assert ens.background.shape == (10, 10)
    save_model(ens, tmp_path / "model.json")
    loaded = load_file(tmp_path / "model.json")
    assert np.array_equal(loaded.dev_scores, ens.dev_scores)


def test_save_load_round_trip(tmp_path):
    ens, (rows, _) = trained_ensemble(seed=7)
    path = tmp_path / "model.json"
    save_model(ens, path)
    loaded = load_file(path)
    np.testing.assert_array_equal(loaded.predict_batch(rows),
                                  ens.predict_batch(rows))
    for name in ("dev_scores", "dev_labels", "background"):
        assert np.array_equal(getattr(loaded, name), getattr(ens, name))
        assert getattr(loaded, name).dtype == np.float64
    assert (loaded.catalog_version, loaded.member_subsets) == \
        (ens.catalog_version, ens.member_subsets)


def test_loaded_arrays_are_read_only_views_of_the_file_bytes(tmp_path):
    """No array is copied out of the file's bytes, nor the bytes before the
    checksum trailer sliced into a copy; no array can be written."""
    ens, _ = trained_ensemble(seed=7)
    save_model(ens, tmp_path / "model.json")
    data = (tmp_path / "model.json").read_bytes()
    file_bytes = np.frombuffer(data, np.uint8)
    loaded, _ = load_model(data, "model.json")
    for name in ARRAYS:
        array = getattr(loaded, name)
        assert np.shares_memory(array, file_bytes), name
        assert not array.flags.writeable, name


def test_save_load_save_gives_the_same_bytes(tmp_path):
    ens, _ = trained_ensemble(seed=7)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(ens, first)
    save_model(load_file(first), second)
    assert second.read_bytes() == first.read_bytes()
    # Line 2 states each array's shape, and the arrays' bytes fill the rest
    # up to the checksum trailer.
    _, line, arrays = model_document(first)
    assert [line[name] for name in ARRAYS] == [
        list(getattr(ens, name).shape) for name in ARRAYS]
    assert len(arrays) == 8 * sum(math.prod(line[name]) for name in ARRAYS)


def test_one_row_scores_do_not_depend_on_where_the_arrays_lie(tmp_path):
    """A catalog_version of 1 to 8 characters puts the arrays at each byte
    offset modulo 8 of the model file; each file gives every row, scored
    alone, the same bits."""
    ens, (rows, _) = trained_ensemble(seed=5)
    scores = []
    for n in range(1, 9):
        path = tmp_path / f"model-{n}.json"
        save_model(dataclasses.replace(ens, catalog_version="v" * n), path)
        loaded = load_file(path)
        scores.append(np.stack([loaded.predict_batch(rows[i:i + 1])
                                for i in range(len(rows))]))
    for n, got in enumerate(scores[1:], 2):
        assert got.tobytes() == scores[0].tobytes(), n


def test_load_detects_corruption(tmp_path):
    ens, _ = trained_ensemble(seed=8)
    path = tmp_path / "model.json"
    save_model(ens, path)
    raw = bytearray(path.read_bytes())
    raw[-64 - len(model_document(path)[2])] ^= 1  # the first of `states`
    path.write_bytes(bytes(raw))
    with pytest.raises(LabriskError, match="sha256"):
        load_file(path)


def test_overflowing_weights_name_the_model_file_only_when_loaded(tmp_path):
    ens, (rows, _) = trained_ensemble(seed=8)
    ens.states[1] = 1e300  # finite weights whose logits overflow
    fault = "non-finite values in member 1's logits"
    with pytest.raises(nn.NumericsError,  # a runtime fault: exit 4
                       match=re.escape(fault)):
        ens.predict_batch(rows)
    path = tmp_path / "model.json"
    save_model(ens, path)
    with pytest.raises(LabriskError, match=re.escape(
            f"{path}: states: the stored weights give {fault}")):
        load_file(path).predict_batch(rows)


# Edits of member 1's state that give non-finite scores, as {state_layout key:
# value}.
NON_FINITE_STATES = {
    # running_var + eps is 0: the fold divides by zero.
    "zero-variance": {"encoder.1.running_var": -nn.BatchNorm.eps},
    # running_var + eps is negative: its square root is NaN.
    "negative-variance": {"encoder.4.running_var": -1.0},
    # The fold stays finite, and the layers' sums overflow.
    "huge-weights": {f"{layer}.weight": 1e300 for layer in (
        "encoder.0", "encoder.3", "encoder.6", "mu_head", "classifier")},
}


def with_member_1_arrays(states, config, values):
    """A copy of `states` with every entry of each `state_layout` array named
    in `values` of member 1 set to its value."""
    layout = model_module.state_layout(config)
    states = states.copy()
    for key, value in values.items():
        states[1, layout[key][0]] = value
    return states


@pytest.mark.parametrize("case", NON_FINITE_STATES)
def test_states_giving_non_finite_scores_name_the_member(tmp_path, case):
    """Reported as member 1's non-finite logits without a numpy warning:
    NumericsError (exit 4) for a trained ensemble, LabriskError naming the
    file and `states` (exit 3) for a loaded one."""
    ens, (rows, _) = trained_ensemble(seed=4)
    bad = dataclasses.replace(ens, states=with_member_1_arrays(
        ens.states, ens.config, NON_FINITE_STATES[case]))
    with np.errstate(all="ignore"):
        folded = model_module._scoring_layers(bad.states, bad.config)
        assert all(np.isfinite(a).all() for pair in folded for a in pair) \
            == (case == "huge-weights")
    path = tmp_path / "model.json"
    save_model(bad, path)
    fault = "non-finite values in member 1's logits"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nn.NumericsError, match=re.escape(fault)):
            bad.predict_batch(rows)
        with pytest.raises(LabriskError, match=re.escape(
                f"{path}: states: the stored weights give {fault}")):
            load_file(path).predict_batch(rows)


def test_state_layout_is_built_once_per_network_size_and_read_only():
    layout = model_module.state_layout(tiny_config())
    assert model_module.state_layout(tiny_config(lr=0.5, seed=3)) is layout
    assert model_module.state_layout(tiny_config(d=6)) is not layout
    with pytest.raises(TypeError):
        layout["encoder.0.weight"] = (slice(0, 1), (1,))


def test_state_layout_locates_every_layer_array():
    """RiskModel's layer arrays are the views of `state` that state_layout
    names, each parameter's gradient the view of `grads` at the same place,
    and the layout covers the state once, in order: the parameters, which
    `params` and `grads` span, then the running statistics."""
    model = new_model(tiny_config(), np.random.default_rng(0))
    model.grads[...] = np.arange(model.grads.size)
    layers = model.layers
    assert list(layers.values()) == (
        model.encoder + [model.mu_head, model.logvar_head] + model.decoder
        + [model.classifier])
    layout = model_module.state_layout(model.config)
    start = 0
    for key, (where, shape) in layout.items():
        layer, _, name = key.rpartition(".")
        assert where.start == start
        array = getattr(layers[layer], name)
        assert array.shape == shape
        assert np.shares_memory(array, model.state)
        assert np.array_equal(array.ravel(), model.state[where])
        if name in layers[layer].param_names:
            assert where.stop <= model.grads.size
            grad = getattr(layers[layer], "d" + name)
            assert grad.shape == shape
            assert np.shares_memory(grad, model.grads)
            assert np.array_equal(grad.ravel(), model.grads[where])
        else:
            assert where.start >= model.grads.size
        start = where.stop
    assert start == model.state.size == model_module.state_size(model.config)
    assert np.shares_memory(model.params, model.state)
    assert model.params.size == model.grads.size


@pytest.mark.parametrize("config", [
    tiny_config(), tiny_config(d=1, hidden_width=1, latent_dim=1),
    tiny_config(d=7, hidden_width=9, latent_dim=4),
    RiskModelConfig(n_features=34, hidden_width=32, latent_dim=16)],
    ids=["tiny", "one-wide", "odd", "acceptance"])
@pytest.mark.parametrize("seed", [0, 3, 2**40])
def test_initial_state_is_the_layers_allocation_packed(config, seed):
    """initial_state gives the bytes, and leaves `rng` where, the layers
    allocating their own arrays and drawing in network order, then packed
    into one buffer, gave and left them."""
    rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
    state = initial_state(config, rng)
    expected = oracles.initial_state(config, reference_rng)
    assert state.dtype == np.float64 and state.flags.c_contiguous
    assert state.tobytes() == expected.tobytes()
    assert rng.random() == reference_rng.random()


def test_members_train_in_their_row_of_the_ensemble_states(monkeypatch):
    """Each member's RiskModel wraps its row of the returned `states`, so
    training writes the ensemble's array and nothing copies it after."""
    built = []
    init = RiskModel.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(RiskModel, "__init__", recording)
    ens, _ = trained_ensemble(seed=2, n_members=3)
    assert len(built) == 3
    for member, model in enumerate(built):
        row = ens.states[member]
        assert model.state.shape == row.shape
        assert model.state.__array_interface__["data"][0] == \
            row.__array_interface__["data"][0]
        assert np.shares_memory(model.params, row)


def test_trailer_checksums_every_byte_before_it_as_written(tmp_path):
    """The header line names the format only; the file ends with the sha256
    of every byte before it, header line included, and load_model gives the
    whole file's sha256."""
    ens, _ = trained_ensemble(seed=7)
    path = tmp_path / "model.json"
    save_model(ens, path)
    data = path.read_bytes()
    head, _, _ = data.partition(b"\n")
    assert json.loads(head) == {"format": "labrisk-ensemble-v6"}
    # Padded so that each array's offset modulo 8 is line 2's alone.
    assert len(head + b"\n") == 40
    assert data[-64:] == hashlib.sha256(data[:-64]).hexdigest().encode()
    assert load_model(data, str(path))[1] == hashlib.sha256(data).hexdigest()


def test_member_blob_is_the_state_in_stacks_order(tmp_path):
    ens, _ = trained_ensemble(seed=7)
    save_model(ens, tmp_path / "model.json")
    _, line, arrays = model_document(tmp_path / "model.json")
    assert line["states"] == list(ens.states.shape)
    members = [member_model(ens, i) for i in range(len(ens.states))]
    assert arrays[:8 * ens.states.size] == b"".join(state_bytes(m)
                                                     for m in members)
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

        def write(self, data):
            self.f.write(data[:100])
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
    """Loading and scoring build no RiskModel: the load sizes `states` from
    the config's state layout, and scoring folds the layers it needs from
    `states`."""
    ens, (rows, _) = trained_ensemble(seed=7)
    save_model(ens, tmp_path / "model.json")
    built = []
    init = RiskModel.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RiskModel, "__init__", counted)
    loaded = load_file(tmp_path / "model.json")
    assert loaded.states.dtype == np.float64
    assert np.array_equal(loaded.states, ens.states)
    for _ in range(2):
        loaded.predict_batch(rows[:1])
    assert built == []


def test_eval_scores_skip_logvar_head(monkeypatch):
    """Scoring calls no layer's forward and reads only the encoder, the mu
    head and the classifier: NaN in every logvar-head and decoder array
    changes no score's bits."""
    ens, (rows, _) = trained_ensemble(seed=5)
    expected = ens.predict_batch(rows)
    states = ens.states.copy()
    for key, (where, _) in model_module.state_layout(ens.config).items():
        if key.startswith(("logvar_head.", "decoder.")):
            states[:, where] = math.nan
    poisoned = dataclasses.replace(ens, states=states)

    def no_forward(self, *args):
        raise AssertionError(f"{type(self).__name__}.forward called")

    for kind in (nn.Linear, nn.BatchNorm, nn.LeakyReLU):
        monkeypatch.setattr(kind, "forward", no_forward)
    assert np.array_equal(poisoned.predict_batch(rows), expected)
    assert np.array_equal(
        poisoned.predict_batch(rows[:2][None]),
        expected[None, :2])


def test_config_validation():
    with pytest.raises(LabriskError, match="dimensions must be positive"):
        tiny_config(d=0).validate()
    with pytest.raises(LabriskError, match="mask_fraction must be in"):
        tiny_config(mask_fraction=1.0).validate()
    with pytest.raises(LabriskError, match="batch_size must be >= 2"):
        tiny_config(batch_size=1).validate()
    for name in ("hidden_width", "latent_dim"):
        tiny_config(**{name: MAX_WIDTH}).validate()
        with pytest.raises(LabriskError, match=f"{name} must be at most"):
            tiny_config(**{name: MAX_WIDTH + 1}).validate()


def array_slots(layers):
    """(index in `layers`, attribute) of every parameter and BatchNorm
    running statistic."""
    return [(i, name) for i, layer in enumerate(layers)
            for name in layer.param_names + layer.stat_names]


def inject_during_training(monkeypatch, stage, layer, name, value,
                           member=1, epoch=1):
    """Make train_ensemble set the first entry of array `name` of layer
    number `layer` to `value` before the first batch of `stage`'s `epoch`
    of `member`."""
    fit, fits = model_module._fit, []

    def injecting_fit(model, fit_stage, epochs, n, rng, batch_loss):
        fits.append(fit_stage)  # members fit pretrain, then finetune
        size = model.config.batch_size
        per_epoch = sum(1 for i in range(0, n, size) if min(size, n - i) >= 2)
        batches = []

        def injecting_loss(idx):
            if (len(fits) - 1) // 2 == member and fit_stage == stage \
                    and len(batches) == epoch * per_epoch:
                getattr(list(model.layers.values())[layer],
                        name).flat[0] = value
            batches.append(idx)
            return batch_loss(idx)
        return fit(model, fit_stage, epochs, n, rng, injecting_loss)

    monkeypatch.setattr(model_module, "_fit", injecting_fit)


@pytest.mark.parametrize("stage", ["pretrain", "finetune"])
@pytest.mark.parametrize("value", [math.nan, 1e300])
def test_non_finite_training_names_member_stage_and_epoch(monkeypatch, stage,
                                                          value):
    """A NaN in any parameter or running statistic, or 1e300 in any weight,
    is caught by the one check after the optimizer step it spoils."""
    net = new_model(tiny_config(), np.random.default_rng(0))
    for layer, name in array_slots(list(net.layers.values())):
        target = list(net.layers.values())[layer]
        expected = f"member 1: {stage} epoch 1: "
        if value == 1e300 and (name.startswith("running_") or name == "bias"
                               and target is not net.decoder[-1]):
            # Huge but finite values that stay finite: training never reads
            # running statistics, the next BatchNorm subtracts a huge bias
            # away, and the classifier's only shifts a logit whose loss grows
            # linearly.
            continue
        if value == 1e300 and stage == "pretrain" and target is net.classifier:
            # Pretraining leaves the classifier out; finetuning reads it.
            expected = "member 1: finetune epoch 0: "
        inject_during_training(monkeypatch, stage, layer, name, value)
        with pytest.raises(nn.NumericsError, match=re.escape(expected)):
            trained_ensemble(seed=3, n_members=2)
        monkeypatch.undo()


def scoring_layers(model):
    """The layers eval scoring runs: the encoder, the mu head and the
    classifier."""
    return model.encoder + [model.mu_head, model.classifier]


def with_member_value(ens, member, layer, name, value):
    """A copy of `ens` with the first entry of the `name` array of scoring
    layer `layer` of `member` set to `value`."""
    net = member_model(ens, member)
    getattr(scoring_layers(net)[layer], name).flat[0] = value
    states = ens.states.copy()
    states[member] = net.state
    return dataclasses.replace(ens, states=states)


SCORING_LAYERS = scoring_layers(new_model(tiny_config(),
                                          np.random.default_rng(0)))


@pytest.mark.parametrize("layer", [i for i, l in enumerate(SCORING_LAYERS)
                                   if l.param_names])
def test_non_finite_logits_name_the_member(tmp_path, layer):
    """A NaN in any array of a scoring layer reaches the logits, which are
    checked once per member: NumericsError (exit 4) for a trained ensemble.
    A model file holding it is rejected as it loads (exit 3), naming the
    file and `states`."""
    ens, (rows, _) = trained_ensemble(seed=4)
    path = tmp_path / "model.json"
    layer_type = SCORING_LAYERS[layer]
    for name in layer_type.param_names + layer_type.stat_names:
        bad = with_member_value(ens, 1, layer, name, math.nan)
        with pytest.raises(nn.NumericsError, match=re.escape(
                "non-finite values in member 1's logits")):
            bad.predict_batch(rows)
        save_model(bad, path)
        with pytest.raises(LabriskError, match=re.escape(f"{path}: states")):
            load_file(path).predict_batch(rows)
