"""Minimal deterministic neural-network core.

Dense layers, batch normalization, activations, VAE losses and Adam.
Everything is float64 and operates on plain numpy arrays; a layer is given
its arrays (model.RiskModel gives it views of a member's state) and caches
its last forward inputs for the matching backward call. No hidden global
state.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    pass


class NumericsError(FloatingPointError):
    pass


class Layer:
    """Trainable arrays are named in `param_names` (the gradient of `x` is
    `dx`), other saved state in `stat_names`. A layer allocates none of them:
    it is given them in that order, then the gradients, as Linear(weight,
    bias, dweight, dbias), and writes them in place."""

    param_names: tuple[str, ...] = ()
    stat_names: tuple[str, ...] = ()

    def __init__(self, *arrays: np.ndarray):
        names = (*self.param_names, *self.stat_names,
                 *("d" + name for name in self.param_names))
        for name, array in zip(names, arrays, strict=True):
            setattr(self, name, array)


class Linear(Layer):
    """y = x @ W.T + b, of a weight (out, in) and a bias (out,)."""

    param_names = ("weight", "bias")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(..., in) -> (..., out), keeping x for backward, which takes
        (n, in) batches."""
        if x.ndim == 0 or x.shape[-1] != self.weight.shape[1]:
            raise ShapeError(
                f"linear expects (..., {self.weight.shape[1]}), got {x.shape}")
        self._x = x
        y = x @ self.weight.T
        y += self.bias
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        self.dweight[...] = dy.T @ x
        self.dbias[...] = dy.sum(axis=0)
        return dy @ self.weight


class BatchNorm(Layer):
    """Per-feature batch normalization of training batches, keeping running
    statistics (eval scoring folds them into the Linear before it)."""

    param_names = ("gamma", "beta")
    stat_names = ("running_mean", "running_var")
    momentum = 0.1
    eps = 1e-5

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The arithmetic of `gamma * (x - mean) / sqrt(var + eps) + beta`
        with `x.var`'s population variance, in fewer passes."""
        n = x.shape[0]
        if n < 2:
            raise ShapeError("batchnorm train mode needs batch size >= 2")
        mean = x.mean(axis=0)
        xhat = x - mean
        var = (xhat * xhat).sum(axis=0) / n  # what x.var(axis=0) computes
        self.running_mean[...] = ((1 - self.momentum) * self.running_mean
                                  + self.momentum * mean)
        self.running_var[...] = ((1 - self.momentum) * self.running_var
                                 + self.momentum * var)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std
        self._cache = (xhat, inv_std, n)
        y = xhat * self.gamma
        y += self.beta
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, inv_std, n = self._cache
        self.dgamma[...] = (dy * xhat).sum(axis=0)
        self.dbeta[...] = dy.sum(axis=0)
        dxhat = dy * self.gamma
        return (inv_std / n) * (
            n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))


class LeakyReLU(Layer):
    """x where x > 0, else slope * x, as one multiplication by a factor of
    1.0 or slope: no data-dependent branch, and the same bits for every
    input, signed zeros, infinities and quiet NaNs included. A slope of 0
    is a ReLU."""

    def __init__(self, slope: float):
        self.slope = slope
        self._factor = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._factor = np.maximum(x > 0, self.slope)
        return x * self._factor

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._factor


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reparameterize(mu: np.ndarray, logvar: np.ndarray,
                   noise: np.ndarray) -> np.ndarray:
    """z = mu + exp(logvar / 2) * noise; noise is caller-supplied so
    sampling stays deterministic and testable."""
    if mu.shape != logvar.shape or mu.shape != noise.shape:
        raise ShapeError("reparameterize shape mismatch")
    return mu + np.exp(0.5 * logvar) * noise


def masked_mse(recon: np.ndarray, target: np.ndarray,
               mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over observed entries only.

    Returns (loss, d loss / d recon); the gradient is exactly zero at
    masked-out positions.
    """
    if recon.shape != target.shape or recon.shape != mask.shape:
        raise ShapeError("masked_mse shape mismatch")
    k = max(1.0, float(mask.sum()))
    diff = (recon - target) * mask
    loss = float((diff * diff).sum() / k)
    grad = 2.0 * diff / k
    return loss, grad


def kl_divergence(mu: np.ndarray,
                  logvar: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """KL(q(z|x) || N(0, I)) averaged over the batch. Returns the loss and
    its gradients with respect to mu and logvar."""
    if mu.shape != logvar.shape:
        raise ShapeError("kl_divergence shape mismatch")
    n = max(1, mu.shape[0]) if mu.ndim == 2 else 1
    loss = float(-0.5 * np.sum(1.0 + logvar - mu**2 - np.exp(logvar)) / n)
    dmu = mu / n
    dlogvar = -0.5 * (1.0 - np.exp(logvar)) / n
    return loss, dmu, dlogvar


def bce_with_logits(logits: np.ndarray,
                    y: np.ndarray) -> tuple[float, np.ndarray]:
    """Numerically stable sigmoid + BCE. Returns (loss, d loss / d logits)."""
    logits = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if logits.shape != y.shape:
        raise ShapeError("bce_with_logits shape mismatch")
    n = max(1, logits.size)
    # log(1 + exp(-|x|)) + max(x, 0) - x*y is the standard stable form.
    loss = float(np.sum(np.maximum(logits, 0.0) - logits * y
                        + np.log1p(np.exp(-np.abs(logits)))) / n)
    grad = (sigmoid(logits) - y) / n
    return loss, grad


class Adam:
    """Bias-corrected Adam over one flat parameter array (updated in
    place)."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: np.ndarray, lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, grads: np.ndarray) -> None:
        if grads.shape != self.params.shape:
            raise ShapeError("adam: gradient shape mismatch")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        self.m *= self.beta1
        self.m += (1 - self.beta1) * grads
        self.v *= self.beta2
        self.v += (1 - self.beta2) * grads * grads
        self.params -= (self.lr * (self.m / bc1)
                        / (np.sqrt(self.v / bc2) + self.eps))

