"""Risk model assembly and training.

The network is a VAE with a classifier head: an encoder of three
Linear-BatchNorm-LeakyReLU(0.2) blocks reads the zero-filled feature values
concatenated with the presence mask, mu/logvar heads project to the latent
space, a decoder of three Linear-BatchNorm-ReLU blocks plus an output linear
reconstructs the features, and a single-logit classifier reads mu.

Training runs in two stages: masked-imputation pretraining (a random
fraction of observed entries is additionally hidden from the encoder and the
decoder is trained to reconstruct all originally-observed values), then
full-network fine-tuning with the combined reconstruction + KL + binary
cross entropy loss. Classification always uses mu, never a sampled z.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import (LabriskError, config_from_json, ioutil, nn, parse_json,
               read_bytes)
from .preprocess import NormalizationParams

MODEL_FORMAT = "labrisk-ensemble-v3"


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
        if not 0.0 <= self.mask_fraction < 1.0:
            raise LabriskError("mask_fraction must be in [0, 1)")
        if min(self.w_recon, self.w_kl, self.w_cls) < 0:
            raise LabriskError("loss weights must be non-negative")
        if self.batch_size < 2:
            raise LabriskError("batch_size must be >= 2 (batchnorm)")


class RiskModel:
    """One ensemble member. `params` and `grads` are flat buffers of one
    layout; `state` is `params` then the BatchNorm running statistics, in
    `_stacks()` order; layer arrays are views of them. rng=None builds a
    zero model to load a state into."""

    def __init__(self, config: RiskModelConfig,
                 rng: np.random.Generator | None):
        config.validate()
        self.config = config
        d, w, k = config.n_features, config.hidden_width, config.latent_dim
        self.encoder = []
        in_dim = 2 * d  # values ++ presence mask
        for _ in range(3):
            self.encoder += [nn.Linear(in_dim, w, rng), nn.BatchNorm(w),
                             nn.LeakyReLU(0.2)]
            in_dim = w
        self.mu_head = nn.Linear(w, k, rng)
        self.logvar_head = nn.Linear(w, k, rng)
        self.decoder = []
        in_dim = k
        for _ in range(3):
            self.decoder += [nn.Linear(in_dim, w, rng), nn.BatchNorm(w),
                             nn.ReLU()]
            in_dim = w
        self.decoder.append(nn.Linear(w, d, rng))
        self.classifier = nn.Linear(k, 1, rng)
        layers = self._stacks()
        params = [(layer, n) for layer in layers for n in layer.param_names]
        self.state = nn.pack(params + [(layer, n) for layer in layers
                                       for n in layer.stat_names])
        self.grads = nn.pack([(layer, "d" + n) for layer, n in params])
        self.params = self.state[:self.grads.size]

    def _stacks(self):
        return (self.encoder + [self.mu_head, self.logvar_head]
                + self.decoder + [self.classifier])

    def _scores(self, h: np.ndarray) -> np.ndarray:
        """Eval-mode risk scores in [0, 1] (mu path, running batch stats) of
        the (..., 2d) rows `h`, values then mask: (...) scores. logvar_head
        is not run."""
        for layer in self.encoder + [self.mu_head, self.classifier]:
            h = layer.forward(h, False)
        return nn.sigmoid(h[..., 0])

    # --- losses ---

    def _loss_and_grads(self, seen, seen_mask, values, mask, labels, noise):
        """One training pass, filling `grads`: the encoder reads `(seen,
        seen_mask)`, the decoder reconstructs the observed `values`, and the
        classifier's BCE on mu is added if `labels` are given (else its
        gradients are zero). Returns (loss, component losses)."""
        cfg = self.config
        h = np.concatenate([seen, seen_mask], axis=-1)
        for layer in self.encoder:
            h = layer.forward(h, True)
        mu, logvar = self.mu_head.forward(h), self.logvar_head.forward(h)
        h = nn.reparameterize(mu, logvar, noise)
        for layer in self.decoder:
            h = layer.forward(h, True)
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
        return self._loss_and_grads(values * keep, keep, values, mask, None,
                                    noise)

    def finetune_loss_and_grads(self, values, mask, labels, noise):
        """Combined loss: reconstruction + KL + BCE(classifier(mu), label)."""
        return self._loss_and_grads(values, mask, values, mask, labels, noise)


def _fit(model: RiskModel, stage: str, epochs: int, n: int,
         rng: np.random.Generator, batch_loss) -> list[dict]:
    """Adam over `model.params` for `epochs` shuffled passes over n rows;
    batch_loss(idx) fills `model.grads` and returns the batch's loss."""
    if n == 0:
        raise LabriskError("empty training set")
    opt = nn.Adam(model.params, lr=model.config.lr)
    size = model.config.batch_size
    history = []
    for epoch in range(epochs):
        total, count = 0.0, 0
        order = rng.permutation(n)
        for idx in (order[i:i + size] for i in range(0, n, size)):
            if idx.size < 2:  # batchnorm train mode needs >= 2 rows
                continue
            total += batch_loss(idx) * idx.size
            opt.step(model.grads)
            count += idx.size
        history.append({"stage": stage, "epoch": epoch,
                        "loss": total / max(1, count)})
    return history


def pretrain(model: RiskModel, values: np.ndarray, mask: np.ndarray,
             rng: np.random.Generator) -> list[dict]:
    """Masked-imputation pretraining. Returns the per-epoch loss history."""
    cfg = model.config

    def batch_loss(idx):
        v, m = values[idx], mask[idx]
        hide = (rng.random(m.shape) < cfg.mask_fraction) * m
        keep = m * (1.0 - hide)
        noise = rng.standard_normal((idx.size, cfg.latent_dim))
        return model.pretrain_loss_and_grads(v, m, keep, noise)[0]

    return _fit(model, "pretrain", cfg.pretrain_epochs, values.shape[0], rng,
                batch_loss)


def finetune(model: RiskModel, values: np.ndarray, mask: np.ndarray,
             labels: np.ndarray, rng: np.random.Generator) -> list[dict]:
    """Fine-tune the full network with the combined loss."""
    if len(np.unique(labels)) < 2:
        raise LabriskError("single-class training set; BCE is degenerate")
    cfg = model.config

    def batch_loss(idx):
        noise = rng.standard_normal((idx.size, cfg.latent_dim))
        return model.finetune_loss_and_grads(
            values[idx], mask[idx], labels[idx], noise)[0]

    return _fit(model, "finetune", cfg.finetune_epochs, values.shape[0], rng,
                batch_loss)


def score_summary(scores, ci_scale: float = 1.0):
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
                    ci_scale: float = 1.0) -> "RiskAssessment":
        mean, std, lo, hi = score_summary(scores, ci_scale)
        return cls(per_member_scores=[float(s) for s in scores],
                   mean=float(mean), std=float(std),
                   ci=(float(lo), float(hi)))


@dataclass
class RiskEnsemble:
    # (members, state size): each member's RiskModel.state, in member order.
    states: np.ndarray
    normalization: NormalizationParams
    config: RiskModelConfig
    catalog_version: str = "unversioned"
    member_subsets: list[dict] = field(default_factory=list)
    history: list[dict] = field(default_factory=list)
    # The development cohort's mean ensemble scores and 0/1 labels, which
    # per-patient LRs are read from, and the explanation background rows.
    dev_scores: np.ndarray = field(default_factory=lambda: np.empty(0))
    dev_labels: np.ndarray = field(default_factory=lambda: np.empty(0))
    background_values: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0)))
    background_mask: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0)))
    # The model file the ensemble was loaded from; None if trained here.
    source: str | None = None

    def predict_batch(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Eval-mode scores of every member: (..., n_features) rows give
        (..., n_members); a single 1-D row gives (1, n_members). Weights
        loaded from a file that overflow raise LabriskError naming it."""
        values, mask = np.atleast_2d(values, mask)
        if values.shape[-1] != self.config.n_features:
            raise LabriskError(
                f"expected {self.config.n_features} features, "
                f"got {values.shape[-1]}")
        h = np.concatenate([values, mask], axis=-1)
        model = RiskModel(self.config, None)
        scores = []
        try:
            # Each layer's finite check reports an overflow, so numpy's
            # warning would only repeat it.
            with np.errstate(over="ignore", invalid="ignore"):
                for state in self.states:
                    model.state[...] = state
                    scores.append(model._scores(h))
        except nn.NumericsError as e:
            if self.source is None:
                raise
            raise LabriskError(f"{self.source}: states: the stored weights "
                               f"give {e}") from None
        return np.stack(scores, axis=-1)

    def predict(self, values: np.ndarray, mask: np.ndarray) -> RiskAssessment:
        scores = self.predict_batch(values, mask)[0]
        return RiskAssessment.from_scores(scores, self.config.ci_scale)


def train_ensemble(values: np.ndarray, mask: np.ndarray, labels: np.ndarray,
                   patient_ids: list[str], normalization: NormalizationParams,
                   config: RiskModelConfig, n_members: int = 10,
                   subsample: float = 0.8,
                   catalog_version: str = "unversioned") -> RiskEnsemble:
    """Train an ensemble of independently seeded models, each on a
    label-stratified subsample of patients."""
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
        rows = np.array(sorted(i for p in chosen for i in patients[p]))
        if rows.size == 0 or labels[rows].max() == 0:
            raise LabriskError(
                f"member {member}: subsample lost all positives")
        model = RiskModel(config, rng)
        history += [
            dict(h, member=member)
            for h in (pretrain(model, values[rows], mask[rows], rng)
                      + finetune(model, values[rows], mask[rows],
                                 labels[rows], rng))]
        states.append(model.state)
        subsets.append({"member": member, "n_rows": int(rows.size),
                        "n_patients": len(chosen)})
    return RiskEnsemble(states=np.stack(states), normalization=normalization,
                        config=config, catalog_version=catalog_version,
                        member_subsets=subsets, history=history)


# --- serialization -----------------------------------------------------------
# model.json is a header line {"format", "sha256"}, the sha256 covering the
# bytes after that line exactly as written, then the payload: one JSON object
# in which every array is one base64 blob of little-endian float64. The blobs
# carry no shapes or names; their layout follows from `config`.

@dataclass
class _Payload:
    config: RiskModelConfig
    normalization: NormalizationParams
    catalog_version: str
    member_subsets: list[dict]
    states: str  # (members, state size): each member's RiskModel.state
    dev_scores: str  # (n_dev,)
    dev_labels: str  # (n_dev,), 0 or 1
    background_values: str  # (n_background, n_features)
    background_mask: str  # (n_background, n_features), 0 or 1


def _blob(array) -> str:
    return base64.b64encode(
        np.ascontiguousarray(array, dtype="<f8").tobytes()).decode()


def _array(blob: str, where: str, shape: tuple, binary: bool = False):
    """The blob as a finite array of `shape`, a leading None standing for
    any positive row count, holding only 0 and 1 if `binary`; LabriskError
    names `where`."""
    try:
        raw = base64.b64decode(blob, validate=True)
    except ValueError as e:
        raise LabriskError(f"{where} is not base64 ({e})") from None
    row_bytes = 8 * math.prod(shape[1:])
    rows = len(raw) // row_bytes if shape[0] is None else shape[0]
    if rows < 1 or len(raw) != rows * row_bytes:
        raise LabriskError(f"{where} holds {len(raw)} bytes, not "
                           f"{shape[0] or 'a positive number of'} rows of "
                           f"{row_bytes} bytes")
    array = np.frombuffer(raw, dtype="<f8").reshape(rows, *shape[1:])
    if not np.isfinite(array).all():
        raise LabriskError(f"{where} holds non-finite values")
    if binary and not ((array == 0) | (array == 1)).all():
        raise LabriskError(f"{where} holds values other than 0 and 1")
    return array


def save_model(ensemble: RiskEnsemble, path) -> None:
    payload = json.dumps({
        "config": asdict(ensemble.config),
        "normalization": asdict(ensemble.normalization),
        "catalog_version": ensemble.catalog_version,
        "member_subsets": ensemble.member_subsets,
        "states": _blob(ensemble.states),
        **{name: _blob(getattr(ensemble, name)) for name in (
            "dev_scores", "dev_labels", "background_values",
            "background_mask")},
    })
    header = json.dumps({"format": MODEL_FORMAT, "sha256": hashlib.sha256(
        payload.encode()).hexdigest()})
    ioutil.atomic_write_text(path, f"{header}\n{payload}")


def load_model(path) -> RiskEnsemble:
    """The ensemble in the model file at `path`; LabriskError names the file
    and the field at fault."""
    head, _, body = read_bytes(path).partition(b"\n")
    header = parse_json(head, f"{path}: header line")
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != MODEL_FORMAT:
        raise LabriskError(f"{path}: format: unsupported model format "
                           f"{fmt!r}, expected {MODEL_FORMAT!r}; older model "
                           "files must be retrained")
    if header.get("sha256") != hashlib.sha256(body).hexdigest():
        raise LabriskError(f"{path}: sha256: checksum mismatch "
                           "(corrupt file)")
    doc = config_from_json(_Payload, parse_json(body, path), str(path))
    n_order = len(doc.normalization.feature_order)
    if n_order != doc.config.n_features:
        raise LabriskError(
            f"{path}: normalization.feature_order has {n_order} features, "
            f"config.n_features is {doc.config.n_features}")
    states = _array(doc.states, f"{path}: states",
                    (None, RiskModel(doc.config, None).state.size))
    dev_scores = _array(doc.dev_scores, f"{path}: dev_scores", (None,))
    if not ((dev_scores >= 0) & (dev_scores <= 1)).all():
        raise LabriskError(f"{path}: dev_scores holds values outside [0, 1]")
    background_values = _array(doc.background_values,
                               f"{path}: background_values",
                               (None, doc.config.n_features))
    return RiskEnsemble(
        states=states, normalization=doc.normalization, config=doc.config,
        catalog_version=doc.catalog_version,
        member_subsets=doc.member_subsets, dev_scores=dev_scores,
        dev_labels=_array(doc.dev_labels, f"{path}: dev_labels",
                          dev_scores.shape, binary=True),
        background_values=background_values,
        background_mask=_array(doc.background_mask,
                               f"{path}: background_mask",
                               background_values.shape, binary=True),
        source=str(path))
