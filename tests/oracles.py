"""Reference helpers the tests check labrisk against: layer parameter
lists, the plain-numpy expressions the layer kernels must match bit for bit,
central-difference gradient checks, average precision, the Shapley
efficiency residual, the longest-prefix phecode scan and eval scoring
through the unfolded layers."""

import numpy as np

from labrisk import metrics, nn
from labrisk.model import RiskModel


def params(layer):
    """The layer's trainable arrays, in `param_names` order."""
    return [getattr(layer, n) for n in layer.param_names]


def grads(layer):
    """The gradients of `params(layer)` (the gradient of `x` is `dx`)."""
    return [getattr(layer, "d" + n) for n in layer.param_names]


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


def average_precision(scores, labels) -> float:
    return metrics.pr_curve(scores, labels).ap


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


def lr_ribbon_csv(thresholds, stack):
    return "threshold,lr_mean,lr_std,lr_min,lr_max\n" + "".join(
        f"{thresholds[i]:.10g},{stack[:, i].mean():.10g},"
        f"{stack[:, i].std():.10g},{stack[:, i].min():.10g},"
        f"{stack[:, i].max():.10g}\n" for i in range(stack.shape[1]))


def unfolded_scores(ensemble, values, mask):
    """(..., members) eval scores through the unfolded layers, in the float
    operations scoring ran before each eval BatchNorm was folded into its
    Linear: per member, each encoder Linear, its BatchNorm on the running
    statistics and LeakyReLU(0.2), then the mu head, the classifier and the
    sigmoid."""
    model = RiskModel(ensemble.config, np.random.default_rng(0))
    x = np.concatenate(np.atleast_2d(values, mask), axis=-1)
    scores = []
    for state in ensemble.states:
        model.state[...] = state
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
