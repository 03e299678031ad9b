"""Risk model assembly and training.

The network is a VAE with a classifier head: an encoder of three
Linear-BatchNorm-LeakyReLU(0.2) blocks reads preprocess.vectorize_many's
feature rows whole (zero-filled values, then the presence mask), mu/logvar
heads project to the latent space, a decoder of three Linear-BatchNorm-ReLU
blocks plus an output linear reconstructs the features, and a single-logit
classifier reads mu.

Training runs in two stages: masked-imputation pretraining (a random
fraction of observed entries is additionally hidden from the encoder and the
decoder is trained to reconstruct all originally-observed values), then
full-network fine-tuning with the combined reconstruction + KL + binary
cross entropy loss. Classification always uses mu, never a sampled z.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import types
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field

import numpy as np

from . import LabriskError, config_from_json, ioutil, nn, parse_json
from .preprocess import NormalizationParams

MODEL_FORMAT = "labrisk-ensemble-v5"
# The largest hidden_width and latent_dim: a member's network and state are
# sized from the config before any array is read, so their size must be
# bounded.
MAX_WIDTH = 1024


@dataclass
class RiskModelConfig:
    n_features: int
    hidden_width: int = 32
    latent_dim: int = 16
    w_recon: float = 1.0
    w_kl: float = 0.1
    w_cls: float = 1.0
    pretrain_epochs: int = 50
    finetune_epochs: int = 100
    batch_size: int = 64
    mask_fraction: float = 0.25
    lr: float = 1e-4
    seed: int = 0
    ci_scale: float = 1.0

    def validate(self) -> None:
        if self.n_features <= 0 or self.hidden_width <= 0 or self.latent_dim <= 0:
            raise LabriskError("network dimensions must be positive")
        for name in ("hidden_width", "latent_dim"):
            if getattr(self, name) > MAX_WIDTH:
                raise LabriskError(f"{name} must be at most {MAX_WIDTH}, "
                                   f"got {getattr(self, name)}")
        if not 0.0 <= self.mask_fraction < 1.0:
            raise LabriskError("mask_fraction must be in [0, 1)")
        if not all(w >= 0 for w in (self.w_recon, self.w_kl, self.w_cls)):
            raise LabriskError("w_recon, w_kl and w_cls must be >= 0")
        if self.batch_size < 2:
            raise LabriskError("batch_size must be >= 2 (batchnorm)")
        if self.pretrain_epochs < 0 or self.finetune_epochs < 1:
            raise LabriskError(
                "pretrain_epochs must be >= 0 and finetune_epochs >= 1")
        if not 0 < self.lr < math.inf:
            raise LabriskError("lr must be finite and > 0")
        if not 0 <= self.ci_scale < math.inf:
            raise LabriskError("ci_scale must be finite and >= 0")
        if self.seed < 0:
            raise LabriskError("seed must be >= 0")


SLOPE = 0.2  # the encoder's LeakyReLU slope


def _architecture(d: int, w: int, k: int):
    """Each layer of a member with `d` features, hidden width `w` and latent
    dimension `k`, in network order, as (name, class, in width, out width):
    three encoder blocks, the mu and logvar heads, three decoder blocks and
    the decoder's output, then the classifier."""

    def blocks(part, first, activation):
        return [(f"{part}.{3 * i + j}", kind, n if j == 0 else w, w)
                for i, n in enumerate((first, w, w))
                for j, kind in enumerate((nn.Linear, nn.BatchNorm,
                                          activation))]

    return (blocks("encoder", 2 * d, nn.LeakyReLU)  # values ++ presence mask
            + [("mu_head", nn.Linear, w, k), ("logvar_head", nn.Linear, w, k)]
            + blocks("decoder", k, nn.ReLU)
            + [("decoder.9", nn.Linear, w, d), ("classifier", nn.Linear, k, 1)])


def state_layout(
        config: RiskModelConfig) -> Mapping[str, tuple[slice, tuple]]:
    """Where each array of a member's state lies: `layer.array` (such as
    `encoder.0.weight`) -> (slice of the state, shape). Every layer's
    parameters come first, in network order, then every BatchNorm's running
    statistics. Read-only, and built once per network size."""
    return _state_layout(config.n_features, config.hidden_width,
                         config.latent_dim)


@functools.lru_cache(maxsize=8)
def _state_layout(d: int, w: int, k: int) -> Mapping[str, tuple[slice, tuple]]:
    layout, start = {}, 0
    for names in ("param_names", "stat_names"):
        for layer, kind, n_in, n_out in _architecture(d, w, k):
            for name in getattr(kind, names):
                shape = (n_out, n_in) if name == "weight" else (n_out,)
                end = start + math.prod(shape)
                layout[f"{layer}.{name}"] = (slice(start, end), shape)
                start = end
    return types.MappingProxyType(layout)


class RiskModel:
    """One ensemble member. `layers` maps each layer's name to it, in
    network order. `params` and `grads` are flat buffers of one layout;
    `state` is `params` then the BatchNorm running statistics, in
    `state_layout` order; layer arrays are views of them."""

    def __init__(self, config: RiskModelConfig, rng: np.random.Generator):
        config.validate()
        self.config = config
        self.layers = layers = {}  # built in order, so the draws keep theirs
        for name, kind, n_in, n_out in _architecture(
                config.n_features, config.hidden_width, config.latent_dim):
            if kind is nn.Linear:
                layers[name] = kind(n_in, n_out, rng)
            elif kind is nn.BatchNorm:
                layers[name] = kind(n_out)
            else:
                layers[name] = kind(SLOPE) if kind is nn.LeakyReLU else kind()
        self.encoder, self.decoder = (
            [layer for name, layer in layers.items() if name.startswith(part)]
            for part in ("encoder.", "decoder."))
        self.mu_head, self.logvar_head, self.classifier = (
            layers["mu_head"], layers["logvar_head"], layers["classifier"])
        slots = [(layers[key.rpartition(".")[0]], key.rpartition(".")[2])
                 for key in state_layout(config)]
        self.state = nn.pack(slots)
        self.grads = nn.pack([(layer, "d" + name) for layer, name in slots
                              if name in layer.param_names])
        self.params = self.state[:self.grads.size]

    # --- losses ---

    def _loss_and_grads(self, seen, values, mask, labels, noise):
        """One training pass, filling `grads`: the encoder reads the rows
        `seen`, the decoder reconstructs the observed `values`, and the
        classifier's BCE on mu is added if `labels` are given (else its
        gradients are zero). Returns (loss, component losses)."""
        cfg = self.config
        h = seen
        for layer in self.encoder:
            h = layer.forward(h)
        mu, logvar = self.mu_head.forward(h), self.logvar_head.forward(h)
        h = nn.reparameterize(mu, logvar, noise)
        for layer in self.decoder:
            h = layer.forward(h)
        l_rec, drecon = nn.masked_mse(h, values, mask)
        l_kl, dmu_kl, dlv_kl = nn.kl_divergence(mu, logvar)
        loss = cfg.w_recon * l_rec + cfg.w_kl * l_kl
        dz = cfg.w_recon * drecon
        for layer in reversed(self.decoder):
            dz = layer.backward(dz)
        dmu = dz + cfg.w_kl * dmu_kl
        if labels is None:
            self.classifier.dweight[...] = 0.0
            self.classifier.dbias[...] = 0.0
            components = (l_rec, l_kl)
        else:
            logits = self.classifier.forward(mu)[:, 0]
            l_cls, dlogits = nn.bce_with_logits(logits, labels)
            loss = loss + cfg.w_cls * l_cls
            dmu = dmu + self.classifier.backward(
                (cfg.w_cls * dlogits)[:, None])
            components = (l_rec, l_kl, l_cls)
        dlogvar = dz * noise * 0.5 * np.exp(0.5 * logvar) + cfg.w_kl * dlv_kl
        dh = self.mu_head.backward(dmu) + self.logvar_head.backward(dlogvar)
        for layer in reversed(self.encoder):
            dh = layer.backward(dh)
        return loss, components

    def pretrain_loss_and_grads(self, values, mask, keep, noise):
        """Masked-imputation loss: encoder sees only `keep`-retained entries,
        reconstruction is scored on all originally-observed entries."""
        seen = np.concatenate([values * keep, keep], axis=-1)
        return self._loss_and_grads(seen, values, mask, None, noise)

    def finetune_loss_and_grads(self, rows, labels, noise):
        """Combined loss: reconstruction + KL + BCE(classifier(mu), label)."""
        return self._loss_and_grads(rows, *np.split(rows, 2, axis=1), labels,
                                    noise)


def _fit(model: RiskModel, stage: str, epochs: int, n: int,
         rng: np.random.Generator, batch_loss) -> list[dict]:
    """Adam over `model.params` for `epochs` shuffled passes over n rows;
    batch_loss(idx) fills `model.grads` and returns the batch's loss."""
    if n == 0:
        raise LabriskError("empty training set")
    opt = nn.Adam(model.params, model.config.lr)
    size = model.config.batch_size
    history = []
    # The step's finite check reports an overflow, so numpy's warning would
    # only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            total, count = 0.0, 0
            order = rng.permutation(n)
            for idx in (order[i:i + size] for i in range(0, n, size)):
                if idx.size < 2:  # batchnorm train mode needs >= 2 rows
                    continue
                total += batch_loss(idx) * idx.size
                opt.step(model.grads)
                # `total` sums the batch losses (none is -inf, so a non-finite
                # one stays visible), Adam's v covers every gradient and the
                # state every parameter and BatchNorm running statistic.
                if not (math.isfinite(total) and np.isfinite(opt.v).all()
                        and np.isfinite(model.state).all()):
                    raise nn.NumericsError(f"{stage} epoch {epoch}: non-finite"
                                           " loss, Adam moments or state")
                count += idx.size
            history.append({"stage": stage, "epoch": epoch,
                            "loss": total / max(1, count)})
    return history


def pretrain(model: RiskModel, rows: np.ndarray,
             rng: np.random.Generator) -> list[dict]:
    """Masked-imputation pretraining. Returns the per-epoch loss history."""
    cfg = model.config

    def batch_loss(idx):
        v, m = np.split(rows[idx], 2, axis=1)
        hide = (rng.random(m.shape) < cfg.mask_fraction) * m
        keep = m * (1.0 - hide)
        noise = rng.standard_normal((idx.size, cfg.latent_dim))
        return model.pretrain_loss_and_grads(v, m, keep, noise)[0]

    return _fit(model, "pretrain", cfg.pretrain_epochs, rows.shape[0], rng,
                batch_loss)


def finetune(model: RiskModel, rows: np.ndarray, labels: np.ndarray,
             rng: np.random.Generator) -> list[dict]:
    """Fine-tune the full network with the combined loss."""
    # Not np.unique, which imports numpy.ma to look for a masked array.
    if labels.size == 0 or labels.min() == labels.max():
        raise LabriskError("single-class training set; BCE is degenerate")
    cfg = model.config

    def batch_loss(idx):
        noise = rng.standard_normal((idx.size, cfg.latent_dim))
        return model.finetune_loss_and_grads(rows[idx], labels[idx], noise)[0]

    return _fit(model, "finetune", cfg.finetune_epochs, rows.shape[0], rng,
                batch_loss)


def score_summary(scores, ci_scale: float):
    """Ensemble summary over the last (member) axis: (mean, std, lo, hi),
    with the population std and the CI mean +- ci_scale * std clipped to
    [0, 1]."""
    scores = np.asarray(scores, dtype=np.float64)
    mean = scores.mean(axis=-1)
    std = scores.std(axis=-1)  # population convention
    lo = np.maximum(0.0, mean - ci_scale * std)
    hi = np.minimum(1.0, mean + ci_scale * std)
    return mean, std, lo, hi


@dataclass
class RiskAssessment:
    per_member_scores: list[float]
    mean: float
    std: float
    ci: tuple[float, float]

    @classmethod
    def from_scores(cls, scores: np.ndarray,
                    ci_scale: float) -> "RiskAssessment":
        mean, std, lo, hi = score_summary(scores, ci_scale)
        return cls(per_member_scores=[float(s) for s in scores],
                   mean=float(mean), std=float(std),
                   ci=(float(lo), float(hi)))


def _scoring_layers(states: np.ndarray, config: RiskModelConfig):
    """The five (weight, bias) pairs, stacked over members as (M, out, in)
    and (M, out), that eval scoring applies: each encoder Linear with the
    eval BatchNorm after it folded in, then copies of the mu head and the
    classifier, aligned wherever the file holds them, so BLAS gets all five.
    Folding `gamma * (y - mean) / sqrt(var + eps) + beta` of `y = x @ W.T +
    b` gives `W' = W * s` by row and `b' = (b - mean) * s + beta`, with `s =
    gamma / sqrt(var + eps)`."""
    layout = state_layout(config)

    def array(key):
        where, shape = layout[key]
        return states[:, where].reshape(len(states), *shape)

    layers = []
    for block in range(3):
        linear, norm = f"encoder.{3 * block}.", f"encoder.{3 * block + 1}."
        s = array(norm + "gamma") / np.sqrt(array(norm + "running_var")
                                            + nn.BatchNorm.eps)
        layers.append((array(linear + "weight") * s[..., None],
                       (array(linear + "bias") - array(norm + "running_mean"))
                       * s + array(norm + "beta")))
    return layers + [(array(f"{head}.weight").copy(),
                      array(f"{head}.bias").copy())
                     for head in ("mu_head", "classifier")]


@dataclass
class RiskEnsemble:
    # (members, state size): each member's RiskModel.state, in member order.
    states: np.ndarray
    normalization: NormalizationParams
    config: RiskModelConfig
    catalog_version: str
    # The development cohort's mean ensemble scores and 0/1 labels, which
    # per-patient LRs are read from, and the two halves of the explanation
    # background rows.
    dev_scores: np.ndarray
    dev_labels: np.ndarray
    background_values: np.ndarray
    background_mask: np.ndarray
    member_subsets: list[dict] = field(default_factory=list)
    history: list[dict] = field(default_factory=list)
    # The model file the ensemble was loaded from; None if trained here.
    source: str | None = None

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        """Eval-mode scores of every member: (..., 2 · n_features) feature
        rows give (..., n_members); a single 1-D row gives (1, n_members).
        Each member runs the mu path through its folded layers. Non-finite
        folded layers or logits raise NumericsError, or LabriskError if
        loaded from a file."""
        x = np.atleast_2d(rows)
        d = self.config.n_features
        if x.shape[-1] != 2 * d:
            raise LabriskError(
                f"expected rows of {2 * d} columns (the values and presence "
                f"mask of {d} features), got {x.shape[-1]}")
        logits = []
        # The finite checks report an overflow or a zero variance, so numpy's
        # warnings would only repeat them.
        with np.errstate(all="ignore"):
            layers = _scoring_layers(self.states, self.config)
            # A non-finite folded array makes every row's logits non-finite.
            finite = np.logical_and.reduce([
                np.isfinite(a).reshape(len(a), -1).all(axis=1)
                for pair in layers[:3] for a in pair])
            for member in range(len(self.states)):
                h = x
                for i, (weight, bias) in enumerate(layers):
                    h = h @ weight[member].T
                    h += bias[member]
                    if i < 3:  # an encoder block's LeakyReLU
                        np.maximum(h, SLOPE * h, out=h)
                # Checked before the sigmoid, which maps +-inf to 0 or 1.
                if not (finite[member] and np.isfinite(h).all()):
                    fault = f"non-finite values in member {member}'s logits"
                    if self.source is None:
                        raise nn.NumericsError(fault)
                    raise LabriskError(f"{self.source}: states: the stored "
                                       f"weights give {fault}")
                logits.append(h[..., 0])
        return nn.sigmoid(np.stack(logits, axis=-1))

    def predict(self, row: np.ndarray) -> RiskAssessment:
        scores = self.predict_batch(row)[0]
        return RiskAssessment.from_scores(scores, self.config.ci_scale)


def draw_background(dev_rows: np.ndarray, dev_labels: np.ndarray, size: int,
                    seed: int) -> np.ndarray:
    """Label-stratified background rows drawn from the development cohort."""
    rng = np.random.default_rng(seed)
    n = dev_rows.shape[0]
    if n == 0:
        raise LabriskError("empty development set for background")
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
    return dev_rows[idx]


def train_ensemble(rows: np.ndarray, labels: np.ndarray,
                   patient_ids: list[str], normalization: NormalizationParams,
                   config: RiskModelConfig, n_members: int, subsample: float,
                   background_size: int, background_seed: int,
                   catalog_version: str) -> RiskEnsemble:
    """Train an ensemble of independently seeded models, each on a
    label-stratified subsample of patients, and score the whole development
    set with it; the ensemble also holds a background of `background_size`
    development rows drawn with `background_seed`."""
    patients = {}
    for i, pid in enumerate(patient_ids):
        patients.setdefault(pid, []).append(i)
    pids = sorted(patients)
    pos_p = [p for p in pids if labels[patients[p]].max() > 0]
    neg_p = [p for p in pids if labels[patients[p]].max() == 0]

    states, subsets, history = [], [], []
    for member in range(n_members):
        ss = np.random.SeedSequence(config.seed, spawn_key=(member,))
        rng = np.random.default_rng(ss)
        chosen = []
        for group in (pos_p, neg_p):
            k = max(1, int(round(subsample * len(group)))) if group else 0
            if k:
                idx = rng.choice(len(group), size=k, replace=False)
                chosen += [group[i] for i in sorted(idx)]
        subset = np.array(sorted(i for p in chosen for i in patients[p]))
        if subset.size == 0 or labels[subset].max() == 0:
            raise LabriskError(
                f"member {member}: subsample lost all positives")
        model = RiskModel(config, rng)
        try:
            history += [
                dict(h, member=member)
                for h in (pretrain(model, rows[subset], rng)
                          + finetune(model, rows[subset], labels[subset],
                                     rng))]
        except nn.NumericsError as e:
            raise nn.NumericsError(f"member {member}: {e}") from None
        states.append(model.state)
        subsets.append({"member": member, "n_rows": int(subset.size),
                        "n_patients": len(chosen)})
    bg_values, bg_mask = np.split(draw_background(
        rows, labels, background_size, background_seed), 2, axis=1)
    ensemble = RiskEnsemble(
        states=np.stack(states), normalization=normalization, config=config,
        catalog_version=catalog_version,
        dev_scores=np.empty(0), dev_labels=labels,
        background_values=bg_values, background_mask=bg_mask,
        member_subsets=subsets, history=history)
    # The development scores are the ensemble's own, so it scores them.
    ensemble.dev_scores = ensemble.predict_batch(rows).mean(axis=1)
    return ensemble


# --- serialization -----------------------------------------------------------
# model.json is a header line {"format"}, then one line, a JSON object in
# which each array's key holds the array's shape, then the arrays as
# little-endian float64 bytes, back to back in ARRAYS order. The file ends with
# a trailer: the 64 lowercase hex digits of the sha256 of every byte before it.
# The header line is padded with spaces to a multiple of 8 bytes. No score
# depends on where the arrays lie: scoring multiplies by folded copies and
# plain copies of the stored weights, never by views of the file's bytes,
# which numpy would hand to BLAS only if they were 8-byte aligned.

ARRAYS = ("states", "dev_scores", "dev_labels", "background_values",
          "background_mask")


@dataclass
class _Payload:
    config: RiskModelConfig
    normalization: NormalizationParams
    catalog_version: str
    member_subsets: list[dict]
    states: tuple[int, ...]  # (members, state size): each RiskModel.state
    dev_scores: tuple[int, ...]  # (n_dev,)
    dev_labels: tuple[int, ...]  # (n_dev,), 0 or 1
    background_values: tuple[int, ...]  # (n_background, n_features)
    background_mask: tuple[int, ...]  # (n_background, n_features), 0 or 1


def save_model(ensemble: RiskEnsemble, path) -> str:
    arrays = [np.ascontiguousarray(getattr(ensemble, name), dtype="<f8")
              for name in ARRAYS]
    header = json.dumps({"format": MODEL_FORMAT})
    chunks = [(header + " " * (-(len(header) + 1) % 8) + "\n").encode(),
              json.dumps({
                  "config": asdict(ensemble.config),
                  "normalization": asdict(ensemble.normalization),
                  "catalog_version": ensemble.catalog_version,
                  "member_subsets": ensemble.member_subsets,
                  **{name: array.shape for name, array in zip(ARRAYS, arrays)},
              }).encode() + b"\n", *arrays]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return ioutil.atomic_write_text(path, [*chunks, digest.hexdigest()])


def load_model(data: bytes, where: str) -> tuple[RiskEnsemble, str]:
    """The ensemble in the model file `data`, its arrays read-only views of
    those bytes, and the sha256 of the whole file; LabriskError names
    `where` and the field at fault. The file's bytes are hashed once."""
    # Each line ends after its newline, or at the end of the file.
    body = data.find(b"\n") + 1 or len(data)
    header = parse_json(data[:body], f"{where}: header line")
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != MODEL_FORMAT:
        raise LabriskError(f"{where}: format: unsupported model format "
                           f"{fmt!r}, expected {MODEL_FORMAT!r}; older model "
                           "files must be retrained")
    end = len(data) - 64  # where the checksum trailer starts
    if end < body:
        raise LabriskError(f"{where}: sha256: the file ends before its "
                           "64-digit checksum trailer")
    digest = hashlib.sha256(memoryview(data)[:end])
    if digest.hexdigest().encode() != data[end:]:
        raise LabriskError(f"{where}: sha256: checksum mismatch "
                           "(corrupt file)")
    digest.update(memoryview(data)[end:])
    at = data.find(b"\n", body, end) + 1 or end
    doc = config_from_json(_Payload, parse_json(data[body:at], where), where)
    n_order = len(doc.normalization.feature_order)
    if n_order != doc.config.n_features:
        raise LabriskError(
            f"{where}: normalization.feature_order has {n_order} features, "
            f"config.n_features is {doc.config.n_features}")
    state_size = sum(math.prod(shape)
                     for _, shape in state_layout(doc.config).values())
    arrays = {}
    # Each array's stated shape against the one it must have, a None
    # standing for any positive row count.
    for name, want in (("states", (None, state_size)),
                       ("dev_scores", (None,)),
                       ("dev_labels", doc.dev_scores),
                       ("background_values", (None, doc.config.n_features)),
                       ("background_mask", doc.background_values)):
        shape, label = getattr(doc, name), f"{where}: {name}"
        if len(shape) != len(want) or shape[0] < 1 or any(
                w not in (None, s) for s, w in zip(shape, want)):
            raise LabriskError(f"{label} holds shape {list(shape)}, not ("
                               + ", ".join("rows" if w is None else str(w)
                                           for w in want) + ")")
        size = math.prod(shape)
        if end - at < 8 * size:
            raise LabriskError(f"{label} holds {end - at} bytes, too "
                               f"few for shape {list(shape)}")
        array = arrays[name] = np.frombuffer(data, "<f8", size,
                                             at).reshape(shape)
        at += 8 * size
        if not np.isfinite(array).all():
            raise LabriskError(f"{label} holds non-finite values")
        if name in ("dev_labels", "background_mask") and not (
                (array == 0) | (array == 1)).all():
            raise LabriskError(f"{label} holds values other than 0 and 1")
    if at != end:
        raise LabriskError(f"{where}: background_mask is followed by "
                           f"{end - at} trailing bytes")
    if not ((arrays["dev_scores"] >= 0) & (arrays["dev_scores"] <= 1)).all():
        raise LabriskError(f"{where}: dev_scores holds values outside [0, 1]")
    return RiskEnsemble(
        **arrays, normalization=doc.normalization, config=doc.config,
        catalog_version=doc.catalog_version,
        member_subsets=doc.member_subsets, source=where), digest.hexdigest()
