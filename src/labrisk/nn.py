"""Minimal deterministic neural-network core.

Dense layers, batch normalization, activations, VAE losses, Adam, and a
central-finite-difference gradient checker. Everything is float64 and
operates on plain numpy arrays; each layer caches its last forward inputs
for the matching backward call. No hidden global state.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    pass


class NumericsError(FloatingPointError):
    pass


def _check_finite(x: np.ndarray, where: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericsError(f"non-finite values in {where}")
    return x


class Linear:
    """y = x @ W.T + b with uniform fan-in initialization."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        if in_dim <= 0 or out_dim <= 0:
            raise ShapeError(f"bad linear dims ({in_dim}, {out_dim})")
        bound = 1.0 / np.sqrt(in_dim)
        self.weight = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        self.bias = np.zeros(out_dim)
        self._x = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """(..., in) -> (..., out). numpy multiplies a stack of batches one
        batch at a time, so each gets the bits it would get alone. Only
        train mode keeps x for backward, which takes (n, in) batches."""
        if x.ndim == 0 or x.shape[-1] != self.weight.shape[1]:
            raise ShapeError(
                f"linear expects (..., {self.weight.shape[1]}), got {x.shape}")
        if train:
            self._x = x
        return _check_finite(x @ self.weight.T + self.bias, "linear forward")

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        self.dweight = dy.T @ x
        self.dbias = dy.sum(axis=0)
        return dy @ self.weight

    def params(self):
        return [self.weight, self.bias]

    def grads(self):
        return [self.dweight, self.dbias]


class BatchNorm:
    """Per-feature batch normalization with running statistics. Eval mode
    keeps nothing for backward."""

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.momentum = momentum
        self.eps = eps
        self._cache = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if train:
            if x.shape[0] < 2:
                raise ShapeError("batchnorm train mode needs batch size >= 2")
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv_std
        if train:
            self._cache = (xhat, inv_std, x.shape[0])
        return _check_finite(self.gamma * xhat + self.beta, "batchnorm forward")

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, inv_std, n = self._cache
        self.dgamma = (dy * xhat).sum(axis=0)
        self.dbeta = dy.sum(axis=0)
        dxhat = dy * self.gamma
        return (inv_std / n) * (
            n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))

    def params(self):
        return [self.gamma, self.beta]

    def grads(self):
        return [self.dgamma, self.dbeta]


class LeakyReLU:
    def __init__(self, slope: float = 0.2):
        self.slope = slope
        self._x = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            self._x = x
        return np.where(x > 0, x, self.slope * x)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return np.where(self._x > 0, dy, self.slope * dy)

    def params(self):
        return []

    def grads(self):
        return []


class ReLU(LeakyReLU):
    def __init__(self):
        super().__init__(slope=0.0)


def leaky_relu(x, slope: float = 0.2):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, slope * x)


def relu(x):
    return leaky_relu(x, 0.0)


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


def bce(p, y) -> float:
    """Binary cross entropy on probabilities (clipped for finiteness)."""
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1 - y) * np.log1p(-p))))


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
    """Bias-corrected Adam over a fixed list of parameter arrays (updated
    in place)."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ShapeError("adam: gradient list length mismatch")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def finite_difference_gradient(f, params: list[np.ndarray],
                               step: float = 1e-5) -> list[np.ndarray]:
    """Central differences of a scalar function of a parameter list."""
    grads = []
    for p in params:
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
        grads.append(g)
    return grads


def grad_check(f, params: list[np.ndarray], analytic: list[np.ndarray],
               step: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central finite
    differences of f() taken over the given parameter arrays."""
    numeric = finite_difference_gradient(f, params, step)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        # The 1e-6 floor keeps central-difference truncation noise (~1e-11
        # absolute) from dominating entries whose true gradient is zero.
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
