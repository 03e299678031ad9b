"""End-to-end CLI pipeline on a small cohort, plus error-path exit codes."""

import base64
import hashlib
import json

import numpy as np
import pytest

from labrisk import cli, ioutil, likelihood
from labrisk.catalog import record_to_dict
from labrisk.explain import (NormalizedLrFn, ShapConfig, normalize_lr,
                             shap_values)
from labrisk.model import RiskAssessment, load_model
from labrisk.preprocess import complete_derived, vectorize_many

from test_likelihood import similar_oracle


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    out = base / "out"
    config = {
        "paths": {"output_dir": str(out)},
        "master_seed": 99,
        "cancer_type": "liver",
        "synth": {"n_per_class": {"no_cancer": 1200, "liver": 240}},
        "train": {"pretrain_epochs": 3, "finetune_epochs": 6,
                  "n_members": 2},
        "explain": {"n_samples": 12, "n_permutations": 30,
                    "background_size": 64},
    }
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(config))
    for cmd in ("synth", "cohort", "prepare", "train"):
        assert cli.main([cmd, "--config", str(cfg_path)]) == 0, cmd
    return cfg_path, out


def test_pipeline_outputs_exist(run):
    _, out = run
    for name in ("cohort.jsonl", "labeled.jsonl", "normalization.json",
                 "model.json", "synth_manifest.json", "train_manifest.json",
                 "consort.tsv"):
        assert (out / name).exists(), name


def test_evaluate_and_report(run):
    cfg_path, out = run
    assert cli.main(["evaluate", "--config", str(cfg_path), "--svg"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["auc"] <= 1.0
    lr_lines = (out / "lr_curve.csv").read_text().strip().splitlines()
    first = lr_lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    assert (out / "roc.svg").exists()
    assert cli.main(["report", "--config", str(cfg_path)]) == 0
    index = json.loads((out / "report" / "report.json").read_text())
    assert "lr_ribbon.csv" in index["files"]


def test_lr_baselines(run):
    cfg_path, out = run
    assert cli.main(["lr", "--config", str(cfg_path)]) == 0
    body = (out / "lr_baselines.csv").read_text()
    assert "model," in body and "oor," in body and "age," in body


def test_predict_and_explain_patient(run, tmp_path):
    cfg_path, out = run
    records, extras = ioutil.read_records_jsonl(out / "labeled.jsonl")
    target = next(r for r, e in zip(records, extras)
                  if e["split"] == "validation")
    patient = tmp_path / "patient.json"
    patient.write_text(json.dumps(record_to_dict(target)))
    assert cli.main(["predict", "--config", str(cfg_path),
                     "--patient", str(patient)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["likelihood_ratio"] > 0
    assert (out / "report.txt").read_text().startswith("Risk assessment")
    assert cli.main(["explain", "--config", str(cfg_path),
                     "--patient", str(patient)]) == 0
    wf = json.loads((out / "waterfall.json").read_text())
    assert len(wf["items"]) == 10  # top 9 + aggregated remainder
    shapley = json.loads((out / "explain_manifest.json").read_text())[
        "shapley"]
    assert shapley["method"] == "permutation_sampling"
    assert shapley["n_samples"] == 30 and shapley["seed"] == 99
    assert shapley["max_ci99_half_width"] > 0


def test_explain_cohort_summary(run):
    cfg_path, out = run
    assert cli.main(["explain", "--config", str(cfg_path)]) == 0
    summary = json.loads((out / "shap_summary.json").read_text())
    assert len(summary["top_features"]) == 15
    shapley = json.loads((out / "explain_manifest.json").read_text())[
        "shapley"]
    assert shapley["method"] == "permutation_sampling"
    assert shapley["max_ci99_half_width"] > 0


def test_comorbid_stage(run):
    cfg_path, out = run
    assert cli.main(["comorbid", "--config", str(cfg_path)]) == 0
    assert (out / "comorbidity.tsv").exists()
    doc = json.loads((out / "comorbidity.json").read_text())
    assert doc["n_cancer_patients"] > 0


def test_predict_rejects_unknown_marker(run, tmp_path):
    cfg_path, out = run
    records, _ = ioutil.read_records_jsonl(out / "labeled.jsonl")
    doc = record_to_dict(records[0])
    doc["measurements"]["mystery_marker"] = 1.0
    patient = tmp_path / "bad.json"
    patient.write_text(json.dumps(doc))
    assert cli.main(["predict", "--config", str(cfg_path),
                     "--patient", str(patient)]) == 3


def _patient_file(out, path, keep_markers=None):
    records, extras = ioutil.read_records_jsonl(out / "labeled.jsonl")
    doc = record_to_dict(next(r for r, e in zip(records, extras)
                              if e["split"] == "validation"))
    if keep_markers is not None:
        doc["measurements"] = dict(
            list(doc["measurements"].items())[:keep_markers])
    path.write_text(json.dumps(doc))
    return path


def test_explain_too_few_markers_is_validation_error(run, tmp_path, capsys):
    cfg_path, out = run
    patient = _patient_file(out, tmp_path / "sparse.json", keep_markers=5)
    assert cli.main(["explain", "--config", str(cfg_path),
                     "--patient", str(patient)]) == 3
    assert "observed markers" in capsys.readouterr().err


def _assert_model_rejected(run, tmp_path, capsys, edit, commands, field,
                           rechecksum=True):
    """Apply `edit` to the payload of the run's model.json, give it a
    matching checksum unless `rechecksum` is false, and check that every
    command exits 3 naming the file and the field, without a traceback."""
    _, out = run
    doc = json.loads((out / "model.json").read_text())
    edit(doc["payload"])
    if rechecksum:
        canonical = json.dumps(doc["payload"], sort_keys=True,
                               separators=(",", ":"))
        doc["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    config = {"paths": {"output_dir": str(tmp_path / "o"),
                        "model": str(model)},
              "master_seed": 99, "cancer_type": "liver"}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    patient = _patient_file(out, tmp_path / "patient.json")
    for command in commands:
        assert cli.main([command, "--config", str(cfg),
                         "--patient", str(patient)]) == 3, command
        err = capsys.readouterr().err
        assert str(model) in err and field in err, err
        assert "Traceback" not in err


@pytest.mark.parametrize("drop, commands, field", [
    ("extras", ("predict", "explain"), "extras.dev_scores"),
    ("background", ("explain",), "extras.background"),
])
def test_model_without_extras_is_validation_error(run, tmp_path, capsys,
                                                  drop, commands, field):
    def edit(payload):
        if drop == "extras":
            del payload["extras"]
        else:
            del payload["extras"][drop]

    _assert_model_rejected(run, tmp_path, capsys, edit, commands, field)


def _flip_bit(blob):
    raw = bytearray(base64.b64decode(blob))
    raw[3] ^= 0x10
    return base64.b64encode(raw).decode()


@pytest.mark.parametrize("edit, rechecksum, field", [
    (lambda p: p.update(format="labrisk-ensemble-v1"), True,
     "payload.format"),
    (lambda p: p["members"].__setitem__(1, p["members"][1][:-8]), True,
     "payload.members[1] holds"),
    (lambda p: p["members"].__setitem__(0, "not*base64"), True,
     "payload.members[0] is not base64"),
    (lambda p: p["members"].__setitem__(1, 17), True,
     "payload.members[1] is not base64"),
    (lambda p: p["members"].__setitem__(0, _flip_bit(p["members"][0])),
     False, "checksum"),
], ids=["v1-format", "truncated-blob", "not-base64", "not-a-string",
        "bit-flip"])
def test_bad_model_file_is_validation_error(run, tmp_path, capsys, edit,
                                            rechecksum, field):
    _assert_model_rejected(run, tmp_path, capsys, edit,
                           ("predict", "explain"), field, rechecksum)


def reference_value_fn(ensemble, dev, values, mask, min_n):
    """Row-at-a-time value function: one predict_batch call per walk, then
    per row the ensemble summary, the oracle similar-score cohort, its LR
    and the squashing."""
    out = np.empty(values.shape[:-1])
    for w in np.ndindex(values.shape[:-2]):
        scores = ensemble.predict_batch(values[w], mask[w])
        for i in range(scores.shape[0]):
            a = RiskAssessment.from_scores(scores[i], ensemble.config.ci_scale)
            members = similar_oracle(dev.scores, a.mean, *a.ci, min_n)
            lr, _ = likelihood.lr_from_counts(
                int(dev.labels[members].sum()), members.size, dev.n_pos,
                len(dev))
            out[w + (i,)] = normalize_lr(lr)
    return out


def test_stacked_value_function_is_bit_exact(run):
    _, out = run
    ensemble, extras = load_model(out / "model.json")
    ds = extras["dev_scores"]
    dev = likelihood.ScoredCohort.from_arrays(ds["scores"], ds["labels"])
    bg_v = np.array(extras["background"]["values"])
    bg_m = np.array(extras["background"]["mask"])
    records, rec_extras = ioutil.read_records_jsonl(out / "labeled.jsonl")
    val = [complete_derived(r) for r, e in zip(records, rec_extras)
           if e["split"] == "validation"][:3]
    values, mask = vectorize_many(val, ensemble.normalization)
    fn = NormalizedLrFn(ensemble, dev, min_n=50)
    stacks = []

    def spy(v, m):
        stacks.append((v, m))
        return fn(v, m)

    def per_walk(v, m):
        return np.stack([fn(v[w], m[w]) for w in range(v.shape[0])])

    cfg = ShapConfig(seed=5, n_permutations=30)
    for x, m in zip(values, mask):
        stacked = shap_values(spy, x, m, bg_v, bg_m, cfg)
        walk_v, walk_m = stacks.pop()
        assert walk_v.shape == (30, x.size + 1, x.size)
        np.testing.assert_array_equal(
            fn(walk_v, walk_m),
            reference_value_fn(ensemble, dev, walk_v, walk_m, 50))
        looped = shap_values(per_walk, x, m, bg_v, bg_m, cfg)
        assert np.array_equal(stacked.phi, looped.phi)
        assert np.array_equal(stacked.ci99, looped.ci99)
        assert stacked.base_value == looped.base_value
        assert stacked.fx == looped.fx


def test_predict_requires_patient_flag(run):
    cfg_path, _ = run
    assert cli.main(["predict", "--config", str(cfg_path)]) == 3


def test_missing_or_bad_config_is_validation_error(tmp_path):
    assert cli.main(["synth"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["synth", "--config", str(bad)]) == 3


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2


def test_stage_order_enforced(tmp_path):
    config = {"paths": {"output_dir": str(tmp_path / "fresh")},
              "master_seed": 1, "cancer_type": "liver"}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(cfg_path)]) == 3


def test_unknown_cancer_type_rejected(tmp_path):
    config = {"paths": {"output_dir": str(tmp_path / "o")},
              "master_seed": 1, "cancer_type": "pancreatic"}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["synth", "--config", str(cfg_path)]) == 3


def test_malformed_phecode_map_is_validation_error(run, tmp_path, capsys):
    _, out = run
    pmap = tmp_path / "phecodes.tsv"
    pmap.write_text("# icd10\tphecode\nC22\t155\nK70\n")
    config = {"paths": {"output_dir": str(tmp_path / "o"),
                        "labeled": str(out / "labeled.jsonl"),
                        "phecode_map": str(pmap)},
              "master_seed": 99, "cancer_type": "liver"}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["comorbid", "--config", str(cfg)]) == 3
    assert f"{pmap}:3:" in capsys.readouterr().err


def test_train_log_carries_member_index(run):
    _, out = run
    rows = (out / "train_log.tsv").read_text().splitlines()[1:]
    members = [int(r.split("\t")[0]) for r in rows]
    assert members == [0] * 9 + [1] * 9  # 3 pretrain + 6 finetune epochs


def test_manifest_checksums_match_files(run):
    """Runs last, so it sees the manifest of every stage run above."""
    _, out = run
    manifests = sorted(out.glob("**/*_manifest.json"))
    names = {m.name for m in manifests}
    assert {"synth_manifest.json", "cohort_manifest.json",
            "prepare_manifest.json", "train_manifest.json"} <= names
    for path in manifests:
        manifest = json.loads(path.read_text())
        files = set(manifest["inputs"]) | set(manifest["outputs"])
        assert set(manifest["sha256"]) == files, path
        for name, digest in manifest["sha256"].items():
            assert ioutil.sha256_of_file(name) == digest, (path, name)
