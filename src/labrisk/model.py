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

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn
from .preprocess import NormalizationParams

MODEL_FORMAT = "labrisk-ensemble-v1"


class ModelError(ValueError):
    pass


class ModelIOError(ValueError):
    pass


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
            raise ModelError("network dimensions must be positive")
        if not 0.0 <= self.mask_fraction < 1.0:
            raise ModelError("mask_fraction must be in [0, 1)")
        if min(self.w_recon, self.w_kl, self.w_cls) < 0:
            raise ModelError("loss weights must be non-negative")
        if self.batch_size < 2:
            raise ModelError("batch_size must be >= 2 (batchnorm)")


class RiskModel:
    def __init__(self, config: RiskModelConfig,
                 rng: np.random.Generator | None = None):
        config.validate()
        self.config = config
        if rng is None:
            rng = np.random.default_rng(config.seed)
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

    # --- plumbing ---

    def _stacks(self):
        return (self.encoder + [self.mu_head, self.logvar_head]
                + self.decoder + [self.classifier])

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self._stacks() for p in layer.params()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self._stacks() for g in layer.grads()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # --- forward pieces ---

    def encode(self, values: np.ndarray, mask: np.ndarray, train: bool):
        h = np.concatenate([values, mask], axis=-1)
        for layer in self.encoder:
            h = layer.forward(h, train)
        return (self.mu_head.forward(h, train),
                self.logvar_head.forward(h, train))

    def decode(self, z: np.ndarray, train: bool) -> np.ndarray:
        h = z
        for layer in self.decoder:
            h = layer.forward(h, train)
        return h

    def _backward_decoder(self, drecon: np.ndarray) -> np.ndarray:
        g = drecon
        for layer in reversed(self.decoder):
            g = layer.backward(g)
        return g

    def _backward_encoder(self, dmu: np.ndarray, dlogvar: np.ndarray) -> None:
        dh = self.mu_head.backward(dmu) + self.logvar_head.backward(dlogvar)
        for layer in reversed(self.encoder):
            dh = layer.backward(dh)

    def predict_scores(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Eval-mode risk scores in [0, 1] (mu path, running batch stats):
        (..., d) rows give (...) scores."""
        mu, _ = self.encode(np.atleast_2d(values), np.atleast_2d(mask),
                            train=False)
        logit = self.classifier.forward(mu, train=False)[..., 0]
        return nn.sigmoid(logit)

    # --- losses ---

    def pretrain_loss_and_grads(self, values, mask, keep, noise):
        """Masked-imputation loss: encoder sees only `keep`-retained entries,
        reconstruction is scored on all originally-observed entries."""
        cfg = self.config
        mu, logvar = self.encode(values * keep, keep, train=True)
        z = nn.reparameterize(mu, logvar, noise)
        recon = self.decode(z, train=True)
        l_rec, drecon = nn.masked_mse(recon, values, mask)
        l_kl, dmu_kl, dlv_kl = nn.kl_divergence(mu, logvar)
        loss = cfg.w_recon * l_rec + cfg.w_kl * l_kl
        dz = self._backward_decoder(cfg.w_recon * drecon)
        dmu = dz + cfg.w_kl * dmu_kl
        dlogvar = dz * noise * 0.5 * np.exp(0.5 * logvar) + cfg.w_kl * dlv_kl
        self._backward_encoder(dmu, dlogvar)
        # Classifier gradients are identically zero during pretraining.
        self.classifier.dweight = np.zeros_like(self.classifier.weight)
        self.classifier.dbias = np.zeros_like(self.classifier.bias)
        return loss, (l_rec, l_kl)

    def finetune_loss_and_grads(self, values, mask, labels, noise):
        """Combined loss: reconstruction + KL + BCE(classifier(mu), label)."""
        cfg = self.config
        mu, logvar = self.encode(values, mask, train=True)
        z = nn.reparameterize(mu, logvar, noise)
        recon = self.decode(z, train=True)
        l_rec, drecon = nn.masked_mse(recon, values, mask)
        l_kl, dmu_kl, dlv_kl = nn.kl_divergence(mu, logvar)
        logits = self.classifier.forward(mu)[:, 0]
        l_cls, dlogits = nn.bce_with_logits(logits, labels)
        loss = cfg.w_recon * l_rec + cfg.w_kl * l_kl + cfg.w_cls * l_cls
        dz = self._backward_decoder(cfg.w_recon * drecon)
        dmu_cls = self.classifier.backward(
            (cfg.w_cls * dlogits)[:, None])
        dmu = dz + cfg.w_kl * dmu_kl + dmu_cls
        dlogvar = dz * noise * 0.5 * np.exp(0.5 * logvar) + cfg.w_kl * dlv_kl
        self._backward_encoder(dmu, dlogvar)
        return loss, (l_rec, l_kl, l_cls)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        if idx.size >= 2:  # batchnorm train mode needs >= 2 rows
            yield idx


def pretrain(model: RiskModel, values: np.ndarray, mask: np.ndarray,
             rng: np.random.Generator) -> list[dict]:
    """Masked-imputation pretraining. Returns the per-epoch loss history."""
    if values.shape[0] == 0:
        raise ModelError("empty training set")
    cfg = model.config
    opt = nn.Adam(model.parameters(), lr=cfg.lr)
    history = []
    for epoch in range(cfg.pretrain_epochs):
        total, count = 0.0, 0
        for idx in _batches(values.shape[0], cfg.batch_size, rng):
            v, m = values[idx], mask[idx]
            hide = (rng.random(m.shape) < cfg.mask_fraction) * m
            keep = m * (1.0 - hide)
            noise = rng.standard_normal((idx.size, cfg.latent_dim))
            loss, _ = model.pretrain_loss_and_grads(v, m, keep, noise)
            opt.step(model.gradients())
            total += loss * idx.size
            count += idx.size
        history.append({"stage": "pretrain", "epoch": epoch,
                        "loss": total / max(1, count)})
    return history


def finetune(model: RiskModel, values: np.ndarray, mask: np.ndarray,
             labels: np.ndarray, rng: np.random.Generator) -> list[dict]:
    """Fine-tune the full network with the combined loss."""
    if values.shape[0] == 0:
        raise ModelError("empty training set")
    if len(np.unique(labels)) < 2:
        raise ModelError("single-class training set; BCE is degenerate")
    cfg = model.config
    opt = nn.Adam(model.parameters(), lr=cfg.lr)
    history = []
    for epoch in range(cfg.finetune_epochs):
        total, count = 0.0, 0
        for idx in _batches(values.shape[0], cfg.batch_size, rng):
            noise = rng.standard_normal((idx.size, cfg.latent_dim))
            loss, _ = model.finetune_loss_and_grads(
                values[idx], mask[idx], labels[idx], noise)
            opt.step(model.gradients())
            total += loss * idx.size
            count += idx.size
        history.append({"stage": "finetune", "epoch": epoch,
                        "loss": total / max(1, count)})
    return history


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
        scores = np.asarray(scores, dtype=np.float64)
        mean, std, lo, hi = score_summary(scores, ci_scale)
        return cls(per_member_scores=[float(s) for s in scores],
                   mean=float(mean), std=float(std),
                   ci=(float(lo), float(hi)))


@dataclass
class RiskEnsemble:
    members: list[RiskModel]
    normalization: NormalizationParams
    config: RiskModelConfig
    catalog_version: str = "unversioned"
    member_subsets: list[dict] = field(default_factory=list)
    history: list[dict] = field(default_factory=list)

    def predict_batch(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Eval-mode scores of every member: (..., n_features) rows give
        (..., n_members); a single 1-D row gives (1, n_members)."""
        values = np.atleast_2d(values)
        mask = np.atleast_2d(mask)
        if values.shape[-1] != self.config.n_features:
            raise ModelError(
                f"expected {self.config.n_features} features, "
                f"got {values.shape[-1]}")
        return np.stack(
            [m.predict_scores(values, mask) for m in self.members], axis=-1)

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

    members, subsets, history = [], [], []
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
            raise ModelError(f"member {member}: subsample lost all positives")
        model = RiskModel(config, rng=rng)
        history += pretrain(model, values[rows], mask[rows], rng)
        history += finetune(model, values[rows], mask[rows], labels[rows], rng)
        members.append(model)
        subsets.append({"member": member, "n_rows": int(rows.size),
                        "n_patients": len(chosen)})
    return RiskEnsemble(members=members, normalization=normalization,
                        config=config, catalog_version=catalog_version,
                        member_subsets=subsets, history=history)


# --- serialization -----------------------------------------------------------

def _model_to_dict(model: RiskModel) -> dict:
    tensors = []
    for layer in model._stacks():
        if isinstance(layer, nn.Linear):
            tensors.append({"kind": "linear",
                            "weight": layer.weight.tolist(),
                            "bias": layer.bias.tolist()})
        elif isinstance(layer, nn.BatchNorm):
            tensors.append({"kind": "batchnorm",
                            "gamma": layer.gamma.tolist(),
                            "beta": layer.beta.tolist(),
                            "running_mean": layer.running_mean.tolist(),
                            "running_var": layer.running_var.tolist()})
    return {"tensors": tensors}


def _model_from_dict(d: dict, config: RiskModelConfig) -> RiskModel:
    model = RiskModel(config)
    tensors = iter(d["tensors"])
    for layer in model._stacks():
        if isinstance(layer, nn.Linear):
            t = next(tensors)
            layer.weight = np.array(t["weight"], dtype=np.float64)
            layer.bias = np.array(t["bias"], dtype=np.float64)
        elif isinstance(layer, nn.BatchNorm):
            t = next(tensors)
            layer.gamma = np.array(t["gamma"], dtype=np.float64)
            layer.beta = np.array(t["beta"], dtype=np.float64)
            layer.running_mean = np.array(t["running_mean"], dtype=np.float64)
            layer.running_var = np.array(t["running_var"], dtype=np.float64)
    return model


def ensemble_to_dict(ensemble: RiskEnsemble, extras: dict | None = None) -> dict:
    payload = {
        "format": MODEL_FORMAT,
        "config": asdict(ensemble.config),
        "normalization": ensemble.normalization.to_dict(),
        "catalog_version": ensemble.catalog_version,
        "member_subsets": ensemble.member_subsets,
        "members": [_model_to_dict(m) for m in ensemble.members],
    }
    if extras:
        payload["extras"] = extras
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode()).hexdigest()
    return {"payload": payload, "checksum": checksum}


def ensemble_from_dict(doc: dict) -> tuple[RiskEnsemble, dict]:
    if "payload" not in doc or "checksum" not in doc:
        raise ModelIOError("not a model file (missing payload/checksum)")
    payload = doc["payload"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(canonical.encode()).hexdigest() != doc["checksum"]:
        raise ModelIOError("model file checksum mismatch (corrupt file)")
    if payload.get("format") != MODEL_FORMAT:
        raise ModelIOError(
            f"unsupported model format {payload.get('format')!r}")
    config = RiskModelConfig(**payload["config"])
    ensemble = RiskEnsemble(
        members=[_model_from_dict(m, config) for m in payload["members"]],
        normalization=NormalizationParams.from_dict(payload["normalization"]),
        config=config,
        catalog_version=payload["catalog_version"],
        member_subsets=payload["member_subsets"],
    )
    return ensemble, payload.get("extras", {})


def save_model(ensemble: RiskEnsemble, path, extras: dict | None = None) -> None:
    doc = ensemble_to_dict(ensemble, extras)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def load_model(path) -> tuple[RiskEnsemble, dict]:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ModelIOError(f"{path}: truncated or invalid ({e})") from None
    return ensemble_from_dict(doc)
