"""Command-line pipeline driver.

One JSON run configuration drives every stage; flags override config fields.
Stages read their inputs from, and write their outputs atomically into, the
configured output directory, each leaving a machine-readable manifest.

Exit codes: 0 success, 2 usage, 3 validation, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import LabriskError, config_from_json, parse_json, read_bytes
from . import comorbid as comorbid_mod
from . import defaults, ioutil, likelihood, metrics, svg
from .catalog import (catalog_to_dict, load_marker_catalog, record_from_dict,
                      record_to_dict)
from .cohort import (CohortSpec, labeled_from_dict, labeled_to_dict,
                     run_cohort_pipeline)
from .explain import (MAX_PERMUTATIONS, MIN_SUMMARY_SAMPLES, NormalizedLrFn,
                      cohort_summary, shap_provenance, waterfall)
from .model import RiskModelConfig, load_model, save_model, train_ensemble
from .preprocess import (NormalizationParams, complete_derived,
                         feature_columns, fit_normalization, vectorize,
                         vectorize_many)
from .synth import SynthConfig, synthesize_cohort

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_RUNTIME = 0, 2, 3, 4


# The run configuration. The synth and cohort sections and the train model
# settings are decoded by their stage, because their defaults depend on
# master_seed, cancer_type or the feature count.

@dataclass
class SplitConfig:
    """cohort: the split keys, and the CohortSpec keys in `spec`."""
    split_seed: int | None = None  # None: master_seed
    enrich: bool = True
    spec: dict = field(default_factory=dict, metadata={"rest": True})

    def validate(self) -> None:
        if self.split_seed is not None and self.split_seed < 0:
            raise LabriskError(
                f"split_seed must be >= 0, got {self.split_seed}")


@dataclass
class PrepareConfig:
    scale_demographics: bool = True


@dataclass
class EnsembleConfig:
    """train: the ensemble keys, and the RiskModelConfig keys in `model`."""
    n_members: int = 10
    subsample: float = 0.8
    model: dict = field(default_factory=dict, metadata={"rest": True})

    def validate(self) -> None:
        if self.n_members < 1:
            raise LabriskError(f"n_members must be >= 1, got {self.n_members}")
        if not 0 < self.subsample <= 1:
            raise LabriskError(f"subsample must be in (0, 1], "
                               f"got {self.subsample}")


@dataclass
class PredictConfig:
    min_n: int = 50  # smallest similar-score cohort

    def validate(self) -> None:
        if self.min_n < 1:
            raise LabriskError(f"min_n must be >= 1, got {self.min_n}")


@dataclass
class LrConfig:
    single_markers: tuple[str, ...] | None = None  # None: per cancer type


@dataclass
class ExplainConfig:
    n_samples: int = 40
    n_permutations: int = 100
    background_size: int = 256
    top_k: int = 15

    def validate(self) -> None:
        if self.n_samples < MIN_SUMMARY_SAMPLES:
            raise LabriskError(f"n_samples must be at least "
                               f"{MIN_SUMMARY_SAMPLES}, got {self.n_samples}")
        if self.background_size < 1:
            raise LabriskError(
                f"background_size must be >= 1, got {self.background_size}")
        if not 2 <= self.n_permutations <= MAX_PERMUTATIONS:
            raise LabriskError(f"n_permutations must be in [2, "
                               f"{MAX_PERMUTATIONS}], got {self.n_permutations}")
        if self.top_k < 1:
            raise LabriskError(f"top_k must be >= 1, got {self.top_k}")


@dataclass
class ComorbidConfig:
    min_each: int = 50

    def validate(self) -> None:
        if self.min_each < 0:
            raise LabriskError(f"min_each must be >= 0, got {self.min_each}")


@dataclass
class RunConfig:
    paths: dict[str, str] = field(default_factory=dict)
    master_seed: int = 0
    cancer_type: str = "liver"
    synth: dict = field(default_factory=dict)
    cohort: SplitConfig = field(default_factory=SplitConfig)
    prepare: PrepareConfig = field(default_factory=PrepareConfig)
    train: EnsembleConfig = field(default_factory=EnsembleConfig)
    predict: PredictConfig = field(default_factory=PredictConfig)
    lr: LrConfig = field(default_factory=LrConfig)
    explain: ExplainConfig = field(default_factory=ExplainConfig)
    comorbid: ComorbidConfig = field(default_factory=ComorbidConfig)

    def validate(self) -> None:
        if self.cancer_type not in defaults.DIAGNOSIS_ICD_PREFIXES:
            raise LabriskError(f"unknown cancer_type {self.cancer_type!r}")
        if self.master_seed < 0:
            raise LabriskError(
                f"master_seed must be >= 0, got {self.master_seed}")


def load_run_config(path, args) -> tuple[dict, RunConfig]:
    """The config file at `path` with the --output-dir, --seed and
    --cancer-type flags applied: its JSON, for the manifest, and RunConfig."""
    doc = parse_json(read_bytes(path), path)
    if isinstance(doc, dict):
        if args.output_dir and isinstance(doc.get("paths", {}), dict):
            doc["paths"] = {**doc.get("paths", {}),
                            "output_dir": args.output_dir}
        if args.seed is not None:
            doc["master_seed"] = args.seed
        if args.cancer_type:
            doc["cancer_type"] = args.cancer_type
    return doc, config_from_json(RunConfig, doc, path)


class Stage:
    """The files one command reads and writes. A command resolves every path
    through its Stage and reads (model.json through _load_model) and writes
    each file through it, once; it records the sha256 that the reader or the
    writer took of the bytes it moved. cli.main writes the manifest from
    that record once the command has succeeded, at `manifest` in the output
    directory (<command>_manifest.json unless the command names another)."""

    def __init__(self, paths: dict, command: str):
        self.paths = paths
        self.dir = paths.get("output_dir") or "labrisk_run"
        self.manifest = f"{command}_manifest.json"
        self.inputs: dict[str, str] = {}  # path: sha256 of the bytes read
        self.outputs: dict[str, str] = {}  # path: sha256 of the bytes written
        self.details: dict = {}  # stage-specific manifest fields

    def read(self, path: str) -> bytes:
        """The bytes of `path`, a file the command reads whole."""
        data = read_bytes(path)
        self.inputs[path] = ioutil.sha256_of_bytes(data)
        return data

    def records(self, path: str, decode) -> list:
        """The decoded lines of `path`, a JSON Lines file the command reads."""
        rows, self.inputs[path] = ioutil.read_records_jsonl(path, decode)
        return rows

    def input(self, name: str, key: str | None = None,
              made_by: str | None = None) -> str | None:
        """paths.<key> (default: `name` in the output directory), which the
        command reads. If it does not exist: LabriskError naming the stage
        `made_by` that writes it, or None when no stage is named."""
        path = self.paths.get(key) or os.path.join(self.dir, name)
        if not os.path.exists(path):
            if made_by is None:
                return None
            raise LabriskError(f"{path} not found; run '{made_by}' first")
        return path

    def write(self, name: str, write, *args, key: str | None = None) -> str:
        """paths.<key> (default: `name` in the output directory, which is
        created), written by write(path, *args), which gives the sha256 of
        the bytes it wrote."""
        path = self.paths.get(key) or self.place(name)
        self.outputs[path] = write(path, *args)
        return path

    def place(self, name: str) -> str:
        """`name` in the output directory, its directory created."""
        path = os.path.join(self.dir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path


def _catalog(stage):
    path = stage.paths.get("catalog")
    return (load_marker_catalog(stage.read(path), path) if path
            else defaults.default_catalog())


def _labeled(stage):
    return stage.records(stage.input("labeled.jsonl", "labeled", "cohort"),
                         labeled_from_dict)


def _split(labeled, split):
    """The `split` encounters of labeled.jsonl: (records with derived markers
    completed, labels)."""
    chosen = [e for e in labeled if e.split == split]
    if not chosen:
        raise LabriskError(f"no {split} encounters; check the cohort stage")
    return ([complete_derived(e.record) for e in chosen],
            np.array([int(e.label) for e in chosen]))


def _load_model(stage):
    """The ensemble in model.json. load_model checks the file's checksum
    trailer and gives the file's sha256, so its bytes are hashed once."""
    path = stage.input("model.json", "model", "train")
    ensemble, stage.inputs[path] = load_model(read_bytes(path), path)
    return ensemble


def _patient(stage, path, params):
    """The --patient encounter, decoded and checked like every record, and
    its feature row. LabriskError names the file and any marker the model
    does not know."""
    record = record_from_dict(parse_json(stage.read(path), path), path)
    unknown = set(record.measurements) - set(params.feature_order)
    if unknown:
        raise LabriskError(f"{path}: measurements has markers not in the "
                           f"model's catalog: {sorted(unknown)}")
    return record, vectorize(complete_derived(record), params)


def _validation_scores(stage, ensemble):
    """Validation labels and per-member scores."""
    val, labels = _split(_labeled(stage), "validation")
    return labels, ensemble.predict_batch(
        vectorize_many(val, ensemble.normalization))


def _curves(scores, labels):
    """ROC and PR curves of `scores`, and the metrics.json summary."""
    roc_curve = metrics.roc(scores, labels)
    pr = metrics.pr_curve(scores, labels)
    return roc_curve, pr, {"auc": roc_curve.auc, "ap": pr.ap,
                           "n_validation": int(labels.size),
                           "prevalence": float(labels.mean())}


# --- stages -------------------------------------------------------------------

def cmd_synth(cfg, args, stage) -> None:
    catalog = _catalog(stage)
    config = config_from_json(SynthConfig, {
        "seed": cfg.master_seed,
        "n_per_class": {"no_cancer": 2000, cfg.cancer_type: 200},
        **cfg.synth}, f"{args.config}: synth")
    try:
        records = synthesize_cohort(catalog, config)
    except LabriskError as e:  # config_from_json checked the config
        raise LabriskError(f"{stage.paths.get('catalog') or 'default catalog'}"
                           f": {e}") from None
    out = stage.write("cohort.jsonl", ioutil.write_records_jsonl,
                      map(record_to_dict, records), key="cohort")
    stage.write("catalog.json", ioutil.atomic_write_json,
                catalog_to_dict(catalog))
    print(f"synth: wrote {len(records)} encounters to {out}")


def cmd_cohort(cfg, args, stage) -> None:
    records = stage.records(stage.input("cohort.jsonl", "cohort", "synth"),
                            record_from_dict)
    split = cfg.cohort
    spec = CohortSpec.for_cancer(cfg.cancer_type, split.spec,
                                 f"{args.config}: cohort")
    seed = cfg.master_seed if split.split_seed is None else split.split_seed
    labeled, flow = run_cohort_pipeline(records, spec, seed, split.enrich)
    if not labeled:
        raise LabriskError(
            f"{args.config}: cohort: no encounter passes the filters; check "
            f"min_markers ({spec.min_markers}) and age_range "
            f"({list(spec.age_range)})")
    out = stage.write("labeled.jsonl", ioutil.write_records_jsonl,
                      (labeled_to_dict(e) for e in labeled), key="labeled")
    stage.write(
        "consort.tsv", ioutil.write_table,
        ["stage", "n_patients", "n_encounters", "n_positive_patients"],
        [[s.stage, s.n_patients, s.n_encounters, s.n_positive_patients]
         for s in flow])
    print(f"cohort: {len(labeled)} labeled encounters "
          f"({sum(1 for e in labeled if e.label)} positive) -> {out}")


def cmd_prepare(cfg, args, stage) -> None:
    catalog = _catalog(stage)
    dev = _split(_labeled(stage), "development")[0]
    params = fit_normalization(dev, catalog,
                               cfg.prepare.scale_demographics)
    out = stage.write("normalization.json", ioutil.atomic_write_json,
                      asdict(params), key="normalization")
    print(f"prepare: normalization fitted on {len(dev)} encounters -> {out}")


def cmd_train(cfg, args, stage) -> None:
    if "n_features" in cfg.train.model:
        raise LabriskError(f"{args.config}: train: n_features: set by the "
                           "normalization's feature count, not by the config")
    catalog = _catalog(stage)
    norm = stage.input("normalization.json", "normalization", "prepare")
    params = config_from_json(NormalizationParams,
                              parse_json(stage.read(norm), norm), norm)
    config = config_from_json(RiskModelConfig, {
        "seed": cfg.master_seed, **cfg.train.model,
        "n_features": len(params.feature_order)}, f"{args.config}: train")
    dev, labels = _split(_labeled(stage), "development")
    rows = vectorize_many(dev, params)
    ensemble = train_ensemble(
        rows, labels, [r.patient_id for r in dev], params, config,
        n_members=cfg.train.n_members, subsample=cfg.train.subsample,
        background_size=cfg.explain.background_size,
        background_seed=cfg.master_seed, catalog_version=catalog.version)
    out = stage.write("model.json", lambda path: save_model(ensemble, path),
                      key="model")
    stage.write("train_log.tsv", ioutil.write_table,
                ["member", "stage", "epoch", "loss"],
                [[h["member"], h["stage"], h["epoch"], h["loss"]]
                 for h in ensemble.history])
    print(f"train: {cfg.train.n_members}-member ensemble on {rows.shape[0]} "
          f"encounters -> {out}")


def cmd_predict(cfg, args, stage) -> None:
    if not args.patient:
        raise LabriskError("predict requires --patient <encounter json>")
    ensemble = _load_model(stage)
    dev = likelihood.ScoredCohort.from_arrays(ensemble.dev_scores,
                                              ensemble.dev_labels)
    record, row = _patient(stage, args.patient, ensemble.normalization)
    assessment = ensemble.predict(row)
    report = likelihood.build_report(
        record.patient_id, cfg.cancer_type, assessment, dev,
        min_n=cfg.predict.min_n)
    stage.write("report.json", ioutil.atomic_write_json, asdict(report))
    stage.write("report.txt", ioutil.atomic_write_text,
                report.to_text() + "\n")
    print(report.to_text())


def cmd_evaluate(cfg, args, stage) -> None:
    ensemble = _load_model(stage)
    labels, member_scores = _validation_scores(stage, ensemble)
    scores = member_scores.mean(axis=1)
    roc_curve, pr, summary = _curves(scores, labels)
    cohort = likelihood.ScoredCohort.from_arrays(scores, labels)
    lrc = likelihood.lr_curve(cohort)
    stage.write("roc.csv", ioutil.write_table, ["fpr", "tpr"],
                zip(roc_curve.fpr, roc_curve.tpr))
    stage.write("pr.csv", ioutil.write_table, ["recall", "precision"],
                zip(pr.recall, pr.precision))
    stage.write(
        "lr_curve.csv", ioutil.write_table,
        ["threshold", "lr", "n_above", "n_pos_above", "corrected"],
        zip(lrc.thresholds, lrc.lr, lrc.n_above, lrc.n_pos_above,
            lrc.corrected.astype(int)))
    stage.write("metrics.json", ioutil.atomic_write_json, summary)
    if args.svg:
        stage.write("roc.svg", svg.svg_line_plot,
                    [(f"AUC={roc_curve.auc:.3f}",
                      roc_curve.fpr.tolist(), roc_curve.tpr.tolist())],
                    "ROC", "false positive rate", "true positive rate")
        stage.write("pr.svg", svg.svg_line_plot,
                    [(f"AP={pr.ap:.3f}", pr.recall.tolist(),
                      pr.precision.tolist())],
                    "Precision-recall", "recall", "precision")
    print(f"evaluate: AUC={roc_curve.auc:.4f} AP={pr.ap:.4f} "
          f"on {labels.size} validation encounters")


def cmd_lr(cfg, args, stage) -> None:
    """LR-vs-threshold curves for the model and the baselines."""
    catalog = _catalog(stage)
    markers = (defaults.SINGLE_MARKERS[cfg.cancer_type]
               if cfg.lr.single_markers is None else cfg.lr.single_markers)
    ensemble = _load_model(stage)
    params = ensemble.normalization
    unknown = set(markers) - ({m.id for m in catalog.lab_markers}
                              & set(params.feature_order))
    if unknown:
        raise LabriskError(f"{args.config}: lr: single_markers: "
                           f"{sorted(unknown)} are not lab markers of both "
                           "the catalog and the model in "
                           f"{stage.input('model.json', 'model')}")
    labeled = _labeled(stage)
    val, labels = _split(labeled, "validation")
    dev_recs = _split(labeled, "development")[0]
    series = {
        "model": (ensemble.predict_batch(
            vectorize_many(val, params)).mean(axis=1), labels),
        "oor": ([likelihood.oor_score(r, catalog)[0] for r in val], labels),
        "age": ([likelihood.age_score(r.age_years) for r in val], labels)}
    # Only the markers' columns are kept: holding every feature's until the
    # command returns left ~3 MB of heap untrimmed in a process that goes on
    # to serve requests.
    idx = [params.feature_order.index(mid) for mid in markers]
    columns = [[c[:, idx] for c in feature_columns(recs, params)]
               for recs in (dev_recs, val)]
    for i, marker in enumerate(map(catalog.get, markers)):
        # A log-flagged marker is scored on its normalized (log10) value,
        # any other on its raw one: column pair (raw, normalized).
        dev, val_values = (pair[int(marker.log_transform)][:, i]
                           for pair in columns)
        s = likelihood.single_marker_scores(
            marker.id, dev, val_values, marker.risk_direction == "low_is_risk")
        present = ~np.isnan(s)
        y = labels[present]
        if y.size >= 10 and y.any() and not y.all():
            series[f"marker:{marker.id}"] = (s[present], y)
    curves = {name: likelihood.lr_curve(likelihood.ScoredCohort.from_arrays(
        s, y)) for name, (s, y) in series.items()}
    rows = [[name, float(t), float(l)] for name, c in curves.items()
            for t, l in zip(c.thresholds, c.lr)]
    out = stage.write("lr_baselines.csv", ioutil.write_table,
                      ["series", "threshold", "lr"], rows)
    if args.svg:
        stage.write(
            "lr_baselines.svg", svg.svg_line_plot,
            [(name, c.thresholds.tolist(), c.lr.tolist())
             for name, c in curves.items()],
            "Likelihood ratio vs risk threshold", "risk threshold", "LR")
    print(f"lr: wrote {len(curves)} LR curves -> {out}")


def cmd_explain(cfg, args, stage) -> None:
    ensemble = _load_model(stage)
    params = ensemble.normalization
    background = np.concatenate([ensemble.background_values,
                                 ensemble.background_mask], axis=1)
    n_permutations, seed = cfg.explain.n_permutations, cfg.master_seed
    fn = NormalizedLrFn(ensemble, likelihood.ScoredCohort.from_arrays(
        ensemble.dev_scores, ensemble.dev_labels), min_n=cfg.predict.min_n)
    if args.patient:
        # A cohort summary's manifest must not replace the waterfall's.
        stage.manifest = "explain_patient_manifest.json"
        record, row = _patient(stage, args.patient, params)
        wf = waterfall(fn, row, background, list(params.feature_order),
                       n_permutations, seed)
        out = stage.write("waterfall.json", ioutil.atomic_write_json, {
            "patient_id": record.patient_id,
            "base_value": wf.base_value, "fx": wf.fx,
            "items": [{"feature": i.feature, "phi": i.phi,
                       "normalized_value": i.normalized_value}
                      for i in wf.items]})
        results = [wf.result]
        print(f"explain: waterfall for {record.patient_id} -> {out}")
    else:
        val = _split(_labeled(stage), "validation")[0]
        n = min(cfg.explain.n_samples, len(val))
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(len(val), size=n, replace=False))
        rows = vectorize_many([val[i] for i in idx], params)
        summary = cohort_summary(fn, rows, background,
                                 list(params.feature_order), n_permutations,
                                 seed, cfg.explain.top_k)
        out = stage.write("shap_summary.json", ioutil.atomic_write_json, {
            "top_features": summary.top_features(),
            "mean_abs_phi": np.abs(summary.phi).mean(axis=0).tolist(),
            "feature_names": summary.feature_names,
            "n_samples": int(n)})
        rows = []
        for fi in summary.ranking[:summary.top_k]:
            for si in range(summary.phi.shape[0]):
                rows.append([summary.feature_names[fi],
                             float(summary.phi[si, fi]),
                             float(summary.feature_values[si, fi])])
        stage.write("shap_beeswarm.tsv", ioutil.write_table,
                    ["feature", "phi", "normalized_value"], rows)
        results = summary.results
        print(f"explain: top features {summary.top_features()[:5]} -> {out}")
    stage.details["shapley"] = shap_provenance(results, seed)


def cmd_comorbid(cfg, args, stage) -> None:
    labeled = _labeled(stage)
    map_path = stage.paths.get("phecode_map")
    pmap = (comorbid_mod.load_phecode_map(stage.read(map_path), map_path)
            if map_path else comorbid_mod.default_phecode_map())
    by_pid: dict[str, dict] = {}
    for e in labeled:
        entry = by_pid.setdefault(e.record.patient_id, {
            "codes": [], "label": False, "dx": None})
        entry["codes"].extend(e.record.codes)
        if e.label:
            entry["label"] = True
            if e.diagnosis_date:
                entry["dx"] = e.diagnosis_date
    cancer_sets, control_sets = [], []
    unmapped = 0
    for entry in by_pid.values():
        phecodes, miss = comorbid_mod.map_patient_phecodes(
            entry["codes"], entry["dx"] if entry["label"] else None, pmap)
        unmapped += miss
        (cancer_sets if entry["label"] else control_sets).append(phecodes)
    rows = comorbid_mod.build_comorbidity_table(cancer_sets, control_sets,
                                                pmap)
    ranked = comorbid_mod.rank_comorbidities(
        rows, min_each=cfg.comorbid.min_each)
    table = stage.write(
        "comorbidity.tsv", ioutil.write_table,
        ["phecode", "label", "n_cancer_with", "n_control_with", "odds_ratio",
         "p_value", "neg_log10_p", "cancer_prevalence", "control_prevalence"],
        [[r.phecode, r.label, r.n_cancer_with, r.n_control_with,
          r.odds_ratio, r.p_value, r.neg_log10_p, r.cancer_prevalence,
          r.control_prevalence] for r in ranked])
    stage.write("comorbidity.json", ioutil.atomic_write_json, {
        "ranked": [r.__dict__ for r in ranked],
        "n_cancer_patients": len(cancer_sets),
        "n_control_patients": len(control_sets),
        "unmapped_codes": unmapped})
    print(f"comorbid: {len(ranked)} ranked comorbidities -> {table}")


def cmd_report(cfg, args, stage) -> None:
    """Assemble curve tables plus ensemble LR ribbons into one bundle."""
    def bundle(name, write, *data):
        return stage.write(os.path.join("report", name), write, *data)

    # report keeps its whole bundle, manifest included, in report/.
    stage.manifest = os.path.join("report", "report_manifest.json")

    ensemble = _load_model(stage)
    labels, member_scores = _validation_scores(stage, ensemble)
    member_curves = [likelihood.lr_curve(likelihood.ScoredCohort.from_arrays(
        member_scores[:, j], labels)) for j in range(member_scores.shape[1])]
    # Every curve is a prefix of one threshold grid; keep the shortest.
    thresholds = min((c.thresholds for c in member_curves), key=len)
    n_common = thresholds.size
    stack = np.vstack([c.lr[:n_common] for c in member_curves])
    bundle(
        "lr_ribbon.csv", ioutil.write_table,
        ["threshold", "lr_mean", "lr_std", "lr_min", "lr_max"],
        [[thresholds[i], stack[:, i].mean(), stack[:, i].std(),
          stack[:, i].min(), stack[:, i].max()] for i in range(n_common)])
    index = {**_curves(member_scores.mean(axis=1), labels)[2],
             "files": ["lr_ribbon.csv"]}
    for name in ("roc.csv", "pr.csv", "lr_curve.csv", "lr_baselines.csv",
                 "shap_summary.json", "comorbidity.tsv"):
        src = stage.input(name)
        if src is not None:
            bundle(name, ioutil.atomic_write_text, stage.read(src))
            index["files"].append(name)
    if args.svg:
        bundle(
            "lr_ribbon.svg", svg.svg_line_plot,
            [("mean", thresholds.tolist(), stack.mean(axis=0).tolist()),
             ("min", thresholds.tolist(), stack.min(axis=0).tolist()),
             ("max", thresholds.tolist(), stack.max(axis=0).tolist())],
            "Ensemble LR ribbon", "risk threshold", "LR")
        index["files"].append("lr_ribbon.svg")
    out = bundle("report.json", ioutil.atomic_write_json, index)
    print(f"report: bundle with {len(index['files'])} files -> "
          f"{os.path.dirname(out)}")


COMMANDS = {
    "synth": cmd_synth,
    "cohort": cmd_cohort,
    "prepare": cmd_prepare,
    "train": cmd_train,
    "predict": cmd_predict,
    "lr": cmd_lr,
    "evaluate": cmd_evaluate,
    "explain": cmd_explain,
    "comorbid": cmd_comorbid,
    "report": cmd_report,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once. --config has no default: main
    reads LABRISK_CONFIG on every call."""
    parser = argparse.ArgumentParser(
        prog="labrisk",
        description="Lab-panel cancer risk pipeline: synthetic cohorts, "
                    "VAE risk ensembles, likelihood ratios, explanations.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="run configuration JSON "
                                         "(or env LABRISK_CONFIG)")
    parser.add_argument("--output-dir", help="override paths.output_dir")
    parser.add_argument("--seed", type=int, help="override master_seed")
    parser.add_argument("--cancer-type", help="override cancer_type")
    parser.add_argument("--patient", help="patient encounter JSON "
                                          "(predict / explain)")
    parser.add_argument("--svg", action="store_true",
                        help="also render SVG plots")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.config is None:
        args.config = os.environ.get("LABRISK_CONFIG")
    try:
        if not args.config:
            raise LabriskError("--config (or LABRISK_CONFIG) is required")
        doc, cfg = load_run_config(args.config, args)
        stage = Stage(cfg.paths, args.command)
        start = time.perf_counter()
        COMMANDS[args.command](cfg, args, stage)
        wall_s = time.perf_counter() - start
        ioutil.write_manifest(
            stage.place(stage.manifest), args.command, doc, stage.inputs,
            stage.outputs,
            {"wall_s": wall_s,
             "peak_rss_mb":
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
             **stage.details})
        return EXIT_OK
    except LabriskError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
