"""Command-line pipeline driver.

One JSON run configuration drives every stage; flags override config fields.
Stages read their inputs from, and write their outputs atomically into, the
configured output directory, each leaving a machine-readable manifest.

Exit codes: 0 success, 2 usage, 3 validation, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import comorbid as comorbid_mod
from . import defaults, ioutil, likelihood, metrics, svg
from .catalog import (CatalogError, RecordError, load_marker_catalog,
                      record_from_dict, save_marker_catalog)
from .cohort import CohortSpec, SplitParams, run_cohort_pipeline
from .explain import (ExplainError, NormalizedLrFn, ShapConfig,
                      cohort_summary, draw_background, shap_provenance,
                      waterfall)
from .model import (ModelError, ModelIOError, RiskModelConfig, load_model,
                    save_model, train_ensemble)
from .preprocess import (NormalizationParams, PreprocessError,
                         complete_derived, fit_normalization, vectorize,
                         vectorize_many)
from .synth import SynthConfig, SynthError, synthesize_cohort

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_RUNTIME = 0, 2, 3, 4

DEFAULT_SINGLE_MARKERS = {
    "colorectal": ["rdw", "hemoglobin", "mcv", "neutrophils", "mch"],
    "liver": ["platelets", "alp", "ast", "albumin", "total_protein"],
    "lung": ["rdw", "hemoglobin", "lymphocytes_pct", "alt", "calcium"],
}


class ConfigError(ValueError):
    pass


def load_run_config(path) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
    cfg.setdefault("paths", {})
    cfg.setdefault("master_seed", 0)
    cfg.setdefault("cancer_type", "liver")
    if cfg["cancer_type"] not in defaults.DIAGNOSIS_ICD_PREFIXES:
        raise ConfigError(f"unknown cancer_type {cfg['cancer_type']!r}")
    return cfg


def _out_dir(cfg) -> str:
    d = cfg["paths"].get("output_dir", "labrisk_run")
    os.makedirs(d, exist_ok=True)
    return d


def _path(cfg, key, default_name) -> str:
    p = cfg["paths"].get(key)
    if p is None:
        p = os.path.join(_out_dir(cfg), default_name)
    return p


def _catalog(cfg):
    path = cfg["paths"].get("catalog")
    if path:
        return load_marker_catalog(path)
    return defaults.default_catalog()


def _load_labeled(cfg):
    path = _path(cfg, "labeled", "labeled.jsonl")
    if not os.path.exists(path):
        raise ConfigError(
            f"{path} not found; run the 'cohort' stage first")
    records, extras = ioutil.read_records_jsonl(path)
    return records, extras


def _split_rows(records, extras, split):
    recs, labels, pids = [], [], []
    for r, e in zip(records, extras):
        if e.get("split") == split:
            recs.append(complete_derived(r))
            labels.append(1 if e.get("label") else 0)
            pids.append(r.patient_id)
    return recs, np.array(labels), pids


def _load_norm(cfg) -> NormalizationParams:
    path = _path(cfg, "normalization", "normalization.json")
    if not os.path.exists(path):
        raise ConfigError(f"{path} not found; run 'prepare' first")
    with open(path, encoding="utf-8") as f:
        return NormalizationParams.from_dict(json.load(f))


# --- stages -------------------------------------------------------------------

def cmd_synth(cfg, args) -> int:
    catalog = _catalog(cfg)
    synth_cfg = dict(cfg.get("synth", {}))
    synth_cfg.setdefault("seed", cfg["master_seed"])
    synth_cfg.setdefault("n_per_class", {"no_cancer": 2000,
                                         cfg["cancer_type"]: 200})
    config = SynthConfig(**synth_cfg)
    records = synthesize_cohort(catalog, config)
    out = _path(cfg, "cohort", "cohort.jsonl")
    ioutil.write_records_jsonl(out, records)
    catalog_out = os.path.join(_out_dir(cfg), "catalog.json")
    save_marker_catalog(catalog, catalog_out)
    ioutil.write_manifest(os.path.join(_out_dir(cfg), "synth_manifest.json"),
                          "synth", cfg, [], [out, catalog_out])
    print(f"synth: wrote {len(records)} encounters to {out}")
    return EXIT_OK


def cmd_cohort(cfg, args) -> int:
    src = _path(cfg, "cohort", "cohort.jsonl")
    if not os.path.exists(src):
        raise ConfigError(f"{src} not found; run 'synth' first")
    records, _ = ioutil.read_records_jsonl(src)
    ccfg = dict(cfg.get("cohort", {}))
    split_seed = ccfg.pop("split_seed", cfg["master_seed"])
    enrich = ccfg.pop("enrich", True)
    if "age_range" in ccfg:
        ccfg["age_range"] = tuple(ccfg["age_range"])
    spec = CohortSpec.for_cancer(cfg["cancer_type"], **ccfg)
    labeled, flow = run_cohort_pipeline(
        records, spec, SplitParams(seed=split_seed),
        enrich_unscreened_controls=enrich)
    out = _path(cfg, "labeled", "labeled.jsonl")
    extras = [{"label": e.label, "split": e.split,
               "cancer_type": e.cancer_type,
               "diagnosis_date": (e.diagnosis_date.isoformat()
                                  if e.diagnosis_date else None),
               "split_fallback": e.split_fallback}
              for e in labeled]
    ioutil.write_records_jsonl(out, [e.record for e in labeled], extras)
    consort = os.path.join(_out_dir(cfg), "consort.tsv")
    ioutil.write_table(
        consort,
        ["stage", "n_patients", "n_encounters", "n_positive_patients"],
        [[s.stage, s.n_patients, s.n_encounters, s.n_positive_patients]
         for s in flow])
    ioutil.write_manifest(os.path.join(_out_dir(cfg), "cohort_manifest.json"),
                          "cohort", cfg, [src], [out, consort])
    print(f"cohort: {len(labeled)} labeled encounters "
          f"({sum(1 for e in labeled if e.label)} positive) -> {out}")
    return EXIT_OK


def cmd_prepare(cfg, args) -> int:
    catalog = _catalog(cfg)
    records, extras = _load_labeled(cfg)
    dev, _, _ = _split_rows(records, extras, "development")
    if not dev:
        raise ConfigError("no development encounters; check the cohort stage")
    params = fit_normalization(dev, catalog,
                               cfg.get("prepare", {}).get(
                                   "scale_demographics", True))
    out = _path(cfg, "normalization", "normalization.json")
    ioutil.atomic_write_json(out, params.to_dict())
    ioutil.write_manifest(os.path.join(_out_dir(cfg), "prepare_manifest.json"),
                          "prepare", cfg,
                          [_path(cfg, "labeled", "labeled.jsonl")], [out])
    print(f"prepare: normalization fitted on {len(dev)} encounters -> {out}")
    return EXIT_OK


def cmd_train(cfg, args) -> int:
    catalog = _catalog(cfg)
    params = _load_norm(cfg)
    records, extras = _load_labeled(cfg)
    dev, labels, pids = _split_rows(records, extras, "development")
    if not dev:
        raise ConfigError("no development encounters")
    values, mask = vectorize_many(dev, params)
    tcfg = dict(cfg.get("train", {}))
    n_members = tcfg.pop("n_members", 10)
    subsample = tcfg.pop("subsample", 0.8)
    tcfg.setdefault("seed", cfg["master_seed"])
    tcfg["n_features"] = values.shape[1]
    config = RiskModelConfig(**tcfg)
    ensemble = train_ensemble(values, mask, labels, pids, params, config,
                              n_members=n_members, subsample=subsample,
                              catalog_version=catalog.version)
    # Self-contained report support: dev scores + explanation background.
    dev_scores = ensemble.predict_batch(values, mask).mean(axis=1)
    bg_v, bg_m = draw_background(values, mask, labels,
                                 cfg.get("explain", {}).get(
                                     "background_size", 256),
                                 cfg["master_seed"])
    extras_payload = {
        "dev_scores": {
            "encounter_ids": [r.encounter_id for r in dev],
            "scores": dev_scores.tolist(),
            "labels": labels.tolist(),
        },
        "background": {"values": bg_v.tolist(), "mask": bg_m.tolist()},
    }
    out = _path(cfg, "model", "model.json")
    save_model(ensemble, out, extras_payload)
    log = os.path.join(_out_dir(cfg), "train_log.tsv")
    ioutil.write_table(log, ["member", "stage", "epoch", "loss"],
                       [[i // max(1, len(ensemble.history) // n_members),
                         h["stage"], h["epoch"], h["loss"]]
                        for i, h in enumerate(ensemble.history)])
    ioutil.write_manifest(os.path.join(_out_dir(cfg), "train_manifest.json"),
                          "train", cfg,
                          [_path(cfg, "labeled", "labeled.jsonl")],
                          [out, log])
    print(f"train: {n_members}-member ensemble on {values.shape[0]} "
          f"encounters -> {out}")
    return EXIT_OK


def _model_extra(extras: dict, path, key: str, fields: tuple) -> dict:
    """extras[key] of a model file, checked to hold every field."""
    entry = extras.get(key) if isinstance(extras, dict) else None
    if not isinstance(entry, dict):
        raise ModelIOError(f"{path}: model file has no extras.{key}")
    for name in fields:
        if name not in entry:
            raise ModelIOError(
                f"{path}: model file has no extras.{key}.{name}")
    return entry


def _load_model_and_dev(cfg):
    path = _path(cfg, "model", "model.json")
    if not os.path.exists(path):
        raise ConfigError(f"{path} not found; run 'train' first")
    ensemble, extras = load_model(path)
    ds = _model_extra(extras, path, "dev_scores",
                      ("scores", "labels", "encounter_ids"))
    dev = likelihood.ScoredCohort.from_arrays(
        ds["scores"], ds["labels"], ds["encounter_ids"])
    return ensemble, dev, extras


def cmd_predict(cfg, args) -> int:
    if not args.patient:
        raise ConfigError("predict requires --patient <encounter json>")
    ensemble, dev, _ = _load_model_and_dev(cfg)
    params = ensemble.normalization
    with open(args.patient, encoding="utf-8") as f:
        record = record_from_dict(json.load(f))
    known = set(params.feature_order)
    for mid in record.measurements:
        if mid not in known:
            raise ConfigError(
                f"patient file has unknown marker {mid!r} "
                "(not in the model's catalog)")
    vec = vectorize(complete_derived(record), params)
    assessment = ensemble.predict(vec.values, vec.mask)
    report = likelihood.build_report(
        record.patient_id, cfg["cancer_type"], assessment, dev,
        min_n=cfg.get("predict", {}).get("min_n", 50))
    out = os.path.join(_out_dir(cfg), "report.json")
    ioutil.atomic_write_json(out, report.to_dict())
    txt = os.path.join(_out_dir(cfg), "report.txt")
    ioutil.atomic_write_text(txt, report.to_text() + "\n")
    ioutil.write_manifest(os.path.join(_out_dir(cfg), "predict_manifest.json"),
                          "predict", cfg, [args.patient], [out, txt])
    print(report.to_text())
    return EXIT_OK


def _validation_scores(cfg, ensemble):
    params = ensemble.normalization
    records, extras = _load_labeled(cfg)
    val, labels, _ = _split_rows(records, extras, "validation")
    if not val:
        raise ConfigError("no validation encounters")
    values, mask = vectorize_many(val, params)
    member_scores = ensemble.predict_batch(values, mask)
    return val, values, mask, labels, member_scores


def cmd_evaluate(cfg, args) -> int:
    ensemble, dev, _ = _load_model_and_dev(cfg)
    val, values, mask, labels, member_scores = _validation_scores(cfg, ensemble)
    scores = member_scores.mean(axis=1)
    out_dir = _out_dir(cfg)
    roc_curve = metrics.roc(scores, labels)
    pr = metrics.pr_curve(scores, labels)
    cohort = likelihood.ScoredCohort.from_arrays(scores, labels)
    lrc = likelihood.lr_curve(cohort)
    roc_path = os.path.join(out_dir, "roc.csv")
    ioutil.atomic_write_text(roc_path, "fpr,tpr\n" + "".join(
        f"{f:.10g},{t:.10g}\n" for f, t in zip(roc_curve.fpr, roc_curve.tpr)))
    pr_path = os.path.join(out_dir, "pr.csv")
    ioutil.atomic_write_text(pr_path, "recall,precision\n" + "".join(
        f"{r:.10g},{p:.10g}\n" for r, p in zip(pr.recall, pr.precision)))
    lr_path = os.path.join(out_dir, "lr_curve.csv")
    ioutil.atomic_write_text(
        lr_path, "threshold,lr,n_above,n_pos_above,corrected\n" + "".join(
            f"{t:.10g},{l:.10g},{n},{p},{int(c)}\n"
            for t, l, n, p, c in zip(lrc.thresholds, lrc.lr, lrc.n_above,
                                     lrc.n_pos_above, lrc.corrected)))
    summary = {"auc": roc_curve.auc, "ap": pr.ap,
               "n_validation": int(labels.size),
               "prevalence": float(labels.mean())}
    summary_path = os.path.join(out_dir, "metrics.json")
    ioutil.atomic_write_json(summary_path, summary)
    if args.svg:
        svg.svg_line_plot(os.path.join(out_dir, "roc.svg"),
                          [(f"AUC={roc_curve.auc:.3f}",
                            roc_curve.fpr.tolist(), roc_curve.tpr.tolist())],
                          "ROC", "false positive rate", "true positive rate")
        svg.svg_line_plot(os.path.join(out_dir, "pr.svg"),
                          [(f"AP={pr.ap:.3f}", pr.recall.tolist(),
                            pr.precision.tolist())],
                          "Precision-recall", "recall", "precision")
    ioutil.write_manifest(os.path.join(out_dir, "evaluate_manifest.json"),
                          "evaluate", cfg,
                          [_path(cfg, "model", "model.json")],
                          [roc_path, pr_path, lr_path, summary_path])
    print(f"evaluate: AUC={roc_curve.auc:.4f} AP={pr.ap:.4f} "
          f"on {labels.size} validation encounters")
    return EXIT_OK


def cmd_lr(cfg, args) -> int:
    """LR-vs-threshold curves for the model and the baselines."""
    catalog = _catalog(cfg)
    ensemble, dev, _ = _load_model_and_dev(cfg)
    params = ensemble.normalization
    records, extras = _load_labeled(cfg)
    val, labels, _ = _split_rows(records, extras, "validation")
    dev_recs, _, _ = _split_rows(records, extras, "development")
    if not val:
        raise ConfigError("no validation encounters")
    values, mask = vectorize_many(val, params)
    scores = ensemble.predict_batch(values, mask).mean(axis=1)

    out_dir = _out_dir(cfg)
    rows = []
    curves = {}

    def add(name, s, y):
        cohort = likelihood.ScoredCohort.from_arrays(np.asarray(s), y)
        c = likelihood.lr_curve(cohort)
        curves[name] = c
        for t, l in zip(c.thresholds, c.lr):
            rows.append([name, float(t), float(l)])

    add("model", scores, labels)
    oor = np.array([likelihood.oor_score(r, catalog)[0] for r in val])
    add("oor", oor, labels)
    add("age", np.array([likelihood.age_score(r.age_years) for r in val]),
        labels)
    markers = cfg.get("lr", {}).get(
        "single_markers", DEFAULT_SINGLE_MARKERS[cfg["cancer_type"]])
    for mid in markers:
        scaler = likelihood.SingleMarkerScaler.fit(dev_recs, mid, catalog,
                                                   params)
        pairs = [(scaler.score(r, catalog, params), y)
                 for r, y in zip(val, labels)]
        pairs = [(s, y) for s, y in pairs if s is not None]
        if len(pairs) >= 10 and any(y for _, y in pairs) \
                and any(not y for _, y in pairs):
            add(f"marker:{mid}", [s for s, _ in pairs],
                np.array([y for _, y in pairs]))
    out = os.path.join(out_dir, "lr_baselines.csv")
    ioutil.atomic_write_text(out, "series,threshold,lr\n" + "".join(
        f"{n},{t:.10g},{l:.10g}\n" for n, t, l in rows))
    if args.svg:
        svg.svg_line_plot(
            os.path.join(out_dir, "lr_baselines.svg"),
            [(name, c.thresholds.tolist(), c.lr.tolist())
             for name, c in curves.items()],
            "Likelihood ratio vs risk threshold", "risk threshold", "LR")
    ioutil.write_manifest(os.path.join(out_dir, "lr_manifest.json"),
                          "lr", cfg, [_path(cfg, "model", "model.json")],
                          [out])
    print(f"lr: wrote {len(curves)} LR curves -> {out}")
    return EXIT_OK


def cmd_explain(cfg, args) -> int:
    ensemble, dev, extras = _load_model_and_dev(cfg)
    params = ensemble.normalization
    ecfg = cfg.get("explain", {})
    shap_cfg = ShapConfig(
        n_permutations=ecfg.get("n_permutations", 100),
        seed=cfg["master_seed"],
        top_k_summary=ecfg.get("top_k", 15))
    bg = _model_extra(extras, _path(cfg, "model", "model.json"),
                      "background", ("values", "mask"))
    bg_v = np.array(bg["values"])
    bg_m = np.array(bg["mask"])
    fn = NormalizedLrFn(ensemble, dev,
                        min_n=cfg.get("predict", {}).get("min_n", 50))
    out_dir = _out_dir(cfg)
    outputs = []
    if args.patient:
        with open(args.patient, encoding="utf-8") as f:
            record = record_from_dict(json.load(f))
        vec = vectorize(complete_derived(record), params)
        wf = waterfall(fn, vec.values, vec.mask, bg_v, bg_m,
                       list(params.feature_order), shap_cfg)
        out = os.path.join(out_dir, "waterfall.json")
        ioutil.atomic_write_json(out, {
            "patient_id": record.patient_id,
            "base_value": wf.base_value, "fx": wf.fx,
            "items": [{"feature": i.feature, "phi": i.phi,
                       "normalized_value": i.normalized_value}
                      for i in wf.items]})
        outputs.append(out)
        results = [wf.result]
        print(f"explain: waterfall for {record.patient_id} -> {out}")
    else:
        records, rec_extras = _load_labeled(cfg)
        val, labels, _ = _split_rows(records, rec_extras, "validation")
        n = min(ecfg.get("n_samples", 40), len(val))
        if n < shap_cfg.min_summary_samples:
            raise ConfigError("too few validation encounters to summarize")
        rng = np.random.default_rng(cfg["master_seed"])
        idx = np.sort(rng.choice(len(val), size=n, replace=False))
        values, mask = vectorize_many([val[i] for i in idx], params)
        summary = cohort_summary(fn, values, mask, bg_v, bg_m,
                                 list(params.feature_order), shap_cfg)
        out = os.path.join(out_dir, "shap_summary.json")
        ioutil.atomic_write_json(out, {
            "top_features": summary.top_features(),
            "mean_abs_phi": np.abs(summary.phi).mean(axis=0).tolist(),
            "feature_names": summary.feature_names,
            "n_samples": int(n)})
        beeswarm = os.path.join(out_dir, "shap_beeswarm.tsv")
        rows = []
        for fi in summary.ranking[:summary.top_k]:
            for si in range(summary.phi.shape[0]):
                rows.append([summary.feature_names[fi],
                             float(summary.phi[si, fi]),
                             float(summary.feature_values[si, fi])])
        ioutil.write_table(beeswarm, ["feature", "phi", "normalized_value"],
                           rows)
        outputs += [out, beeswarm]
        results = summary.results
        print(f"explain: top features {summary.top_features()[:5]} -> {out}")
    ioutil.write_manifest(os.path.join(out_dir, "explain_manifest.json"),
                          "explain", cfg,
                          [_path(cfg, "model", "model.json")], outputs,
                          {"shapley": shap_provenance(results,
                                                      shap_cfg.seed)})
    return EXIT_OK


def cmd_comorbid(cfg, args) -> int:
    records, extras = _load_labeled(cfg)
    map_path = cfg["paths"].get("phecode_map")
    pmap = (comorbid_mod.load_phecode_map(map_path) if map_path
            else comorbid_mod.default_phecode_map())
    by_pid: dict[str, dict] = {}
    for r, e in zip(records, extras):
        entry = by_pid.setdefault(r.patient_id, {
            "codes": [], "label": False, "dx": None})
        entry["codes"].extend(r.codes)
        if e.get("label"):
            entry["label"] = True
            if e.get("diagnosis_date"):
                entry["dx"] = datetime.date.fromisoformat(e["diagnosis_date"])
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
        rows, min_each=cfg.get("comorbid", {}).get("min_each", 50))
    out_dir = _out_dir(cfg)
    table = os.path.join(out_dir, "comorbidity.tsv")
    ioutil.write_table(
        table,
        ["phecode", "label", "n_cancer_with", "n_control_with", "odds_ratio",
         "p_value", "neg_log10_p", "cancer_prevalence", "control_prevalence"],
        [[r.phecode, r.label, r.n_cancer_with, r.n_control_with,
          r.odds_ratio, r.p_value, r.neg_log10_p, r.cancer_prevalence,
          r.control_prevalence] for r in ranked])
    js = os.path.join(out_dir, "comorbidity.json")
    ioutil.atomic_write_json(js, {
        "ranked": [r.__dict__ for r in ranked],
        "n_cancer_patients": len(cancer_sets),
        "n_control_patients": len(control_sets),
        "unmapped_codes": unmapped})
    ioutil.write_manifest(os.path.join(out_dir, "comorbid_manifest.json"),
                          "comorbid", cfg,
                          [_path(cfg, "labeled", "labeled.jsonl")],
                          [table, js])
    print(f"comorbid: {len(ranked)} ranked comorbidities -> {table}")
    return EXIT_OK


def cmd_report(cfg, args) -> int:
    """Assemble curve tables plus ensemble LR ribbons into one bundle."""
    ensemble, dev, _ = _load_model_and_dev(cfg)
    val, values, mask, labels, member_scores = _validation_scores(cfg, ensemble)
    out_dir = os.path.join(_out_dir(cfg), "report")
    os.makedirs(out_dir, exist_ok=True)
    thresholds = np.linspace(0.0, 1.0, 101)
    member_curves = []
    for j in range(member_scores.shape[1]):
        cohort = likelihood.ScoredCohort.from_arrays(member_scores[:, j],
                                                     labels)
        member_curves.append(likelihood.lr_curve(cohort, thresholds))
    n_common = min(c.lr.size for c in member_curves)
    stack = np.vstack([c.lr[:n_common] for c in member_curves])
    ribbon = os.path.join(out_dir, "lr_ribbon.csv")
    ioutil.atomic_write_text(
        ribbon, "threshold,lr_mean,lr_std,lr_min,lr_max\n" + "".join(
            f"{thresholds[i]:.10g},{stack[:, i].mean():.10g},"
            f"{stack[:, i].std():.10g},{stack[:, i].min():.10g},"
            f"{stack[:, i].max():.10g}\n" for i in range(n_common)))
    scores = member_scores.mean(axis=1)
    roc_curve = metrics.roc(scores, labels)
    pr = metrics.pr_curve(scores, labels)
    index = {
        "auc": roc_curve.auc,
        "ap": pr.ap,
        "n_validation": int(labels.size),
        "prevalence": float(labels.mean()),
        "files": ["lr_ribbon.csv"],
    }
    for name in ("roc.csv", "pr.csv", "lr_curve.csv", "lr_baselines.csv",
                 "shap_summary.json", "comorbidity.tsv"):
        src = os.path.join(_out_dir(cfg), name)
        if os.path.exists(src):
            with open(src, encoding="utf-8") as f:
                ioutil.atomic_write_text(os.path.join(out_dir, name),
                                         f.read())
            index["files"].append(name)
    if args.svg:
        svg.svg_line_plot(
            os.path.join(out_dir, "lr_ribbon.svg"),
            [("mean", thresholds[:n_common].tolist(),
              stack.mean(axis=0).tolist()),
             ("min", thresholds[:n_common].tolist(),
              stack.min(axis=0).tolist()),
             ("max", thresholds[:n_common].tolist(),
              stack.max(axis=0).tolist())],
            "Ensemble LR ribbon", "risk threshold", "LR")
        index["files"].append("lr_ribbon.svg")
    ioutil.atomic_write_json(os.path.join(out_dir, "report.json"), index)
    ioutil.write_manifest(os.path.join(out_dir, "report_manifest.json"),
                          "report", cfg,
                          [_path(cfg, "model", "model.json")],
                          [os.path.join(out_dir, f) for f in index["files"]])
    print(f"report: bundle with {len(index['files'])} files -> {out_dir}")
    return EXIT_OK


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labrisk",
        description="Lab-panel cancer risk pipeline: synthetic cohorts, "
                    "VAE risk ensembles, likelihood ratios, explanations.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=os.environ.get("LABRISK_CONFIG"),
                        help="run configuration JSON "
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.config:
            raise ConfigError("--config (or LABRISK_CONFIG) is required")
        cfg = load_run_config(args.config)
        if args.output_dir:
            cfg["paths"]["output_dir"] = args.output_dir
        if args.seed is not None:
            cfg["master_seed"] = args.seed
        if args.cancer_type:
            cfg["cancer_type"] = args.cancer_type
            if cfg["cancer_type"] not in defaults.DIAGNOSIS_ICD_PREFIXES:
                raise ConfigError(
                    f"unknown cancer_type {cfg['cancer_type']!r}")
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, CatalogError, RecordError, SynthError,
            PreprocessError, ModelError, ModelIOError, ExplainError,
            likelihood.LikelihoodError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
