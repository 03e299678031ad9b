"""Gradient and numerics checks for the hand-written network layers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from labrisk import model as model_module
from labrisk import nn
from labrisk.model import (RiskEnsemble, RiskModel, RiskModelConfig,
                           initial_state)

import oracles
from oracles import (batchnorm_layer, grad_check, grads, leaky_relu,
                     linear_layer, params)
from test_model import UNSCORED, new_model


def _rng(seed):
    return np.random.default_rng(seed)


def bce(p, y) -> float:
    """Binary cross entropy on probabilities (clipped for finiteness)."""
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1 - y) * np.log1p(-p))))


def test_linear_forward_matches_manual():
    rng = _rng(0)
    layer = linear_layer(4, 3, rng)
    x = rng.normal(size=(5, 4))
    np.testing.assert_allclose(layer.forward(x), x @ layer.weight.T + layer.bias)


@pytest.mark.parametrize("seed", range(10))
def test_linear_grad_check(seed):
    rng = _rng(seed)
    layer = linear_layer(6, 4, rng)
    x = rng.normal(size=(7, 6))
    w = rng.normal(size=(7, 4))  # fixed projection so the loss is scalar

    def loss():
        return float((layer.forward(x) * w).sum())

    layer.forward(x)
    layer.backward(w)
    err = grad_check(loss, params(layer), grads(layer))
    assert err < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_batchnorm_grad_check(seed):
    rng = _rng(seed)
    layer = batchnorm_layer(5)
    x = rng.normal(size=(8, 5)) * 2.0 + 1.0
    w = rng.normal(size=(8, 5))

    def loss():
        return float((layer.forward(x.copy()) * w).sum())

    layer.forward(x.copy())
    layer.backward(w)
    err = grad_check(loss, params(layer), grads(layer))
    assert err < 1e-6


def test_batchnorm_input_gradient():
    rng = _rng(3)
    layer = batchnorm_layer(4)
    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(6, 4))
    layer.forward(x)
    dx = layer.backward(w)
    num = np.zeros_like(x)
    step = 1e-6
    for i in range(x.size):
        pert = x.copy().reshape(-1)
        pert[i] += step
        hi = float((nn_forward_fresh(layer, pert.reshape(x.shape)) * w).sum())
        pert[i] -= 2 * step
        lo = float((nn_forward_fresh(layer, pert.reshape(x.shape)) * w).sum())
        num.reshape(-1)[i] = (hi - lo) / (2 * step)
    np.testing.assert_allclose(dx, num, rtol=1e-5, atol=1e-7)


def nn_forward_fresh(layer, x):
    """Forward pass that leaves running statistics untouched."""
    saved = (layer.running_mean.copy(), layer.running_var.copy())
    out = layer.forward(x)
    layer.running_mean, layer.running_var = saved
    return out


def _first_block(model):
    """The folded (weight, bias) of the model's first encoder block, as eval
    scoring applies them."""
    weight, bias = model_module._scoring_layers(model.state[None],
                                                model.config)[0]
    return weight[0], bias[0]


def test_batchnorm_eval_uses_running_stats():
    rng = _rng(4)
    model = new_model(RiskModelConfig(n_features=2, hidden_width=3,
                                      latent_dim=2), rng)
    linear, norm = model.encoder[:2]
    for _ in range(200):
        norm.forward(rng.normal(loc=2.0, scale=3.0, size=(32, 3)))
    # The Linear outputs the running mean's neighbourhood for every input,
    # which the folded block normalizes near zero -> output near beta.
    linear.weight[...] = 0.0
    linear.bias[...] = 2.0
    weight, bias = _first_block(model)
    out = rng.normal(size=(2, 4)) @ weight.T + bias
    np.testing.assert_allclose(out, np.broadcast_to(norm.beta, (2, 3)),
                               atol=0.15)


def test_batchnorm_rejects_single_row_training():
    layer = batchnorm_layer(3)
    with pytest.raises(nn.ShapeError):
        layer.forward(np.zeros((1, 3)))


def test_activations():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(nn.LeakyReLU(0.2).forward(x), leaky_relu(x))
    np.testing.assert_allclose(nn.LeakyReLU(0.0).forward(x),
                               leaky_relu(x, 0.0))
    assert nn.sigmoid(np.array([0.0]))[0] == 0.5
    # Stability at extreme logits: finite and correctly saturated.
    big = nn.sigmoid(np.array([1000.0, -1000.0]))
    assert big[0] == 1.0 and big[1] == 0.0


def test_masked_mse_grad_zero_where_masked():
    rng = _rng(5)
    recon = rng.normal(size=(4, 6))
    target = rng.normal(size=(4, 6))
    mask = (rng.random((4, 6)) < 0.5).astype(float)
    loss, grad = nn.masked_mse(recon, target, mask)
    assert np.all(grad[mask == 0] == 0.0)
    k = max(1.0, mask.sum())
    expected = float((((recon - target) * mask) ** 2).sum() / k)
    assert loss == pytest.approx(expected, rel=1e-12)

    def f():
        return nn.masked_mse(recon, target, mask)[0]

    assert grad_check(f, [recon], [grad]) < 1e-6


def test_kl_divergence_grad_check():
    rng = _rng(6)
    mu = rng.normal(size=(5, 4))
    logvar = rng.normal(size=(5, 4)) * 0.3
    loss, dmu, dlv = nn.kl_divergence(mu, logvar)
    assert loss >= 0.0

    def f():
        return nn.kl_divergence(mu, logvar)[0]

    assert grad_check(f, [mu, logvar], [dmu, dlv]) < 1e-6


def test_kl_zero_at_standard_normal():
    mu = np.zeros((3, 2))
    logvar = np.zeros((3, 2))
    loss, dmu, dlv = nn.kl_divergence(mu, logvar)
    assert loss == 0.0
    assert np.all(dmu == 0.0) and np.all(dlv == 0.0)


def test_bce_with_logits_matches_plain_bce_and_grad():
    rng = _rng(7)
    logits = rng.normal(size=12) * 3
    y = (rng.random(12) < 0.5).astype(float)
    loss, grad = nn.bce_with_logits(logits, y)
    assert loss == pytest.approx(bce(nn.sigmoid(logits), y), rel=1e-10)

    def f():
        return nn.bce_with_logits(logits, y)[0]

    assert grad_check(f, [logits], [grad]) < 1e-6


def test_bce_with_logits_stable_at_extremes():
    loss, grad = nn.bce_with_logits(np.array([500.0, -500.0]),
                                    np.array([1.0, 0.0]))
    assert 0.0 <= loss < 1e-100
    assert np.all(np.isfinite(grad))


def test_reparameterize_deterministic_given_noise():
    mu = np.array([[1.0, -1.0]])
    logvar = np.array([[0.0, np.log(4.0)]])
    noise = np.array([[2.0, -1.0]])
    z = nn.reparameterize(mu, logvar, noise)
    np.testing.assert_allclose(z, [[3.0, -3.0]])


def test_adam_minimizes_quadratic():
    p = np.array([5.0, -3.0])
    opt = nn.Adam(p, lr=0.1)
    for _ in range(500):
        opt.step(2 * p)
    assert np.abs(p).max() < 1e-3


def adam_per_tensor(params, grads_per_step, lr, beta1=0.9, beta2=0.999,
                    eps=1e-8):
    """Reference Adam stepping each tensor of a list on its own."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, 1):
        bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
        for p, g, mt, vt in zip(params, grads, m, v):
            mt *= beta1
            mt += (1 - beta1) * g
            vt *= beta2
            vt += (1 - beta2) * g * g
            p -= lr * (mt / bc1) / (np.sqrt(vt / bc2) + eps)


def test_flat_adam_matches_per_tensor_reference_bit_for_bit():
    rng = _rng(9)
    shapes = [(4, 3), (4,), (1, 4), (1,)]
    tensors = [rng.normal(size=s) for s in shapes]
    steps = [[rng.normal(size=s) * 10.0**rng.integers(-6, 3) for s in shapes]
             for _ in range(25)]
    flat = np.concatenate([t.ravel() for t in tensors])
    opt = nn.Adam(flat, lr=3e-3)
    for grads in steps:
        opt.step(np.concatenate([g.ravel() for g in grads]))
    adam_per_tensor(tensors, steps, lr=3e-3)
    assert np.array_equal(flat, np.concatenate([t.ravel() for t in tensors]))


def test_adam_rejects_gradient_of_another_shape():
    opt = nn.Adam(np.zeros(3), 1e-4)
    with pytest.raises(nn.ShapeError):
        opt.step(np.zeros(4))


def test_layers_train_the_arrays_they_are_given_in_place():
    """A layer holds the arrays it is given, so its forward and backward
    read and write the caller's buffers."""
    rng = _rng(10)
    state, grads_buf = rng.normal(size=8), np.zeros(8)
    layer = nn.Linear(state[:6].reshape(2, 3), state[6:],
                      grads_buf[:6].reshape(2, 3), grads_buf[6:])
    x, dy = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    np.testing.assert_allclose(
        layer.forward(x), x @ state[:6].reshape(2, 3).T + state[6:])
    layer.backward(dy)
    assert np.array_equal(grads_buf, np.concatenate([(dy.T @ x).ravel(),
                                                     dy.sum(axis=0)]))
    state[:] = 0.0
    assert not layer.weight.any() and not layer.bias.any()
    stats, norm_grads = np.zeros(12), np.zeros(6)
    norm = nn.BatchNorm(*stats.reshape(4, 3), *norm_grads.reshape(2, 3))
    norm.gamma[...] = 1.0
    norm.forward(rng.normal(size=(5, 3)))
    norm.backward(rng.normal(size=(5, 3)))
    assert stats[6:9].any() and stats[9:].any()  # the running statistics
    assert norm_grads.all()


def test_check_finite_raises():
    """The scoring check: a member whose weights give a NaN logit raises
    NumericsError naming it, where the layers themselves check nothing."""
    cfg = RiskModelConfig(n_features=2, hidden_width=3, latent_dim=2)
    states = np.stack([initial_state(cfg, _rng(8)) for _ in range(2)])
    RiskModel(cfg, states[1]).encoder[0].weight[0, 0] = np.nan
    ensemble = RiskEnsemble(states=states, normalization=None, config=cfg,
                            catalog_version="t", **UNSCORED)
    with pytest.raises(nn.NumericsError, match="member 1's logits"):
        ensemble.predict_batch(np.ones((3, 4)))


LAYERS = {"linear": lambda: linear_layer(3, 3, _rng(11)),
          "batchnorm": lambda: batchnorm_layer(3),
          "leaky-relu": lambda: nn.LeakyReLU(0.2),
          "relu": lambda: nn.LeakyReLU(0.0)}


@pytest.mark.parametrize("make", LAYERS.values(), ids=LAYERS)
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_layers_pass_non_finite_values_on(make, train, bad, monkeypatch):
    """A non-finite activation comes out of every layer kind non-finite
    (inf * 0 is NaN, and NaN propagates), so the one check on the loss or
    the logits after the last layer sees a fault of any layer. Eval scoring
    runs each kind folded into the first encoder block: an input times a
    zero weight, a non-finite running mean, or a whole block of non-finite
    activations (ReLU turns -inf into NaN, not 0)."""
    x = _rng(12).normal(size=(4, 3))
    layer = make()
    if train:
        x[1, 2] = bad
        if isinstance(layer, nn.Linear):
            layer.weight[:, 2] = 0.0  # inf * 0
        with np.errstate(invalid="ignore"):
            y = layer.forward(x)
        assert not np.isfinite(y).all()
        return
    cfg = RiskModelConfig(n_features=3, hidden_width=3, latent_dim=2)
    model = new_model(cfg, _rng(8))
    linear, norm = model.encoder[:2]
    if isinstance(layer, nn.BatchNorm):
        norm.running_mean[0] = bad
    else:
        x[1, 2] = bad
        # Column 2 of the values ++ mask input is value 2.
        linear.weight[:, 2] = 0.0 if isinstance(layer, nn.Linear) else 1.0
    if isinstance(layer, nn.LeakyReLU):
        monkeypatch.setattr(model_module, "SLOPE", layer.slope)
    ensemble = RiskEnsemble(states=model.state[None].copy(),
                            normalization=None, config=cfg,
                            catalog_version="t", **UNSCORED)
    with pytest.raises(nn.NumericsError, match="member 0's logits"):
        ensemble.predict_batch(np.concatenate([x, np.ones_like(x)], axis=1))



# The layer kernels give the bytes of the plain expressions in oracles.py.
# Shapes are a batch (n, w) and a stack of batches
# (stacks, n, w). NaNs are quiet, as float arithmetic produces them.

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, math.inf,
           -math.inf, math.nan, -math.nan]
SHAPES = st.one_of(hnp.array_shapes(min_dims=2, max_dims=2, min_side=2,
                                    max_side=9),
                   hnp.array_shapes(min_dims=3, max_dims=3, min_side=1,
                                    max_side=6))


def _arrays(shape, elements):
    return hnp.arrays(np.float64, shape, elements=elements)


ANY_FLOAT = st.floats(allow_nan=False) | st.sampled_from(SPECIAL)
FINITE = (st.floats(-1e3, 1e3) | st.sampled_from(SPECIAL[:6])
          | st.floats(-1e-300, 1e-300))


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), slope=st.sampled_from([0.2, 0.0]))
def test_activation_kernels_match_where_oracle_bytes(data, slope):
    shape = data.draw(SHAPES)
    x = data.draw(_arrays(shape, ANY_FLOAT))
    dy = data.draw(_arrays(shape, ANY_FLOAT))
    layer = nn.LeakyReLU(slope)
    with np.errstate(invalid="ignore"):  # 0 * inf
        assert _same_bytes(layer.forward(x), oracles.leaky_relu(x, slope))
        assert _same_bytes(layer.backward(dy),
                           oracles.leaky_relu_backward(x, dy, slope))


@st.composite
def batchnorm_cases(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=2,
                                  max_side=9))
    w = shape[-1]
    layer = batchnorm_layer(w)
    layer.momentum = draw(st.sampled_from([0.1, 0.3]))
    layer.gamma[...] = draw(_arrays(w, st.floats(-4, 4)))
    layer.beta[...] = draw(_arrays(w, st.floats(-4, 4)))
    layer.running_mean[...] = draw(_arrays(w, st.floats(-4, 4)))
    layer.running_var[...] = draw(_arrays(w, st.floats(0, 16)))
    return layer, draw(_arrays(shape, FINITE))


@settings(max_examples=300, deadline=None)
@given(case=batchnorm_cases())
def test_batchnorm_train_forward_matches_var_oracle_bytes(case):
    layer, x = case
    y, xhat, inv_std, running_mean, running_var = oracles.batchnorm(x, layer)
    assert _same_bytes(layer.forward(x), y)
    got_xhat, got_inv_std, n = layer._cache
    assert (_same_bytes(got_xhat, xhat) and _same_bytes(got_inv_std, inv_std)
            and n == x.shape[0])
    assert _same_bytes(layer.running_mean, running_mean)
    assert _same_bytes(layer.running_var, running_var)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_batchnorm_eval_forward_matches_oracle_bytes(data):
    """Eval scoring's first encoder block is its Linear with the eval
    BatchNorm folded in, in the bytes of oracles.fold_batchnorm."""
    d, w = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    model = new_model(RiskModelConfig(n_features=d, hidden_width=w,
                                      latent_dim=2), _rng(data.draw(
                                          st.integers(0, 99))))
    linear, norm = model.encoder[:2]
    for array, elements in ((linear.bias, st.floats(-4, 4)),
                            (norm.gamma, st.floats(-4, 4)),
                            (norm.beta, st.floats(-4, 4)),
                            (norm.running_mean, st.floats(-4, 4)),
                            (norm.running_var, st.floats(0, 16))):
        array[...] = data.draw(_arrays(array.shape, elements))
    weight, bias = _first_block(model)
    want_weight, want_bias = oracles.fold_batchnorm(linear.weight,
                                                    linear.bias, norm)
    assert _same_bytes(weight, want_weight) and _same_bytes(bias, want_bias)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_linear_forward_matches_oracle_bytes(data):
    shape = data.draw(SHAPES)
    layer = linear_layer(shape[-1], data.draw(st.integers(1, 9)),
                         np.random.default_rng(data.draw(st.integers(0, 99))))
    layer.bias[...] = data.draw(_arrays(layer.bias.shape, st.floats(-4, 4)))
    x = data.draw(_arrays(shape, FINITE))
    assert _same_bytes(layer.forward(x),
                       oracles.linear(x, layer.weight, layer.bias))
