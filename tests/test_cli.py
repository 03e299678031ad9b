"""End-to-end CLI pipeline on a small cohort, plus error-path exit codes."""

import base64
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import stat
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labrisk import LabriskError, cli, defaults, ioutil, likelihood, nn, svg
from labrisk.catalog import (load_marker_catalog, record_from_dict,
                             record_to_dict)
from labrisk.cohort import CohortSpec, labeled_from_dict
from labrisk.explain import (MAX_PERMUTATIONS, NormalizedLrFn, normalize_lr,
                             shap_values)
from labrisk.model import (ARRAYS, MAX_WIDTH, RiskAssessment,
                           RiskModelConfig, load_model, save_model)
from labrisk.preprocess import complete_derived, vectorize_many
from labrisk.synth import MAX_N_PER_CLASS, SynthConfig, synthesize_cohort

import oracles
from test_likelihood import similar_oracle
from test_model import NON_FINITE_STATES, with_member_1_arrays


def _small_run_config(base, cancer_type):
    """A small run's config, writing to base/out; returns its path."""
    config = {
        "paths": {"output_dir": str(base / "out")},
        "master_seed": 99,
        "cancer_type": cancer_type,
        "synth": {"n_per_class": {"no_cancer": 1200, cancer_type: 240}},
        "train": {"pretrain_epochs": 3, "finetune_epochs": 6,
                  "n_members": 2},
        "explain": {"n_samples": 12, "n_permutations": 30,
                    "background_size": 64},
    }
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg_path = _small_run_config(base, "liver")
    for cmd in ("synth", "cohort", "prepare", "train"):
        assert cli.main([cmd, "--config", str(cfg_path)]) == 0, cmd
    return cfg_path, base / "out"


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
    """lr_baselines.csv holds, byte for byte, the curves of every series as
    the scalar oracle scores them: the model, OoR, age and each default
    single marker, on the raw or (log-flagged) normalized value."""
    cfg_path, out = run
    assert cli.main(["lr", "--config", str(cfg_path)]) == 0
    catalog = defaults.default_catalog()
    ensemble, _ = load_model((out / "model.json").read_bytes(), "model.json")
    params = ensemble.normalization
    labeled, _ = ioutil.read_records_jsonl(out / "labeled.jsonl",
                                           labeled_from_dict)
    dev = [complete_derived(e.record) for e in labeled
           if e.split == "development"]
    val = [complete_derived(e.record) for e in labeled
           if e.split == "validation"]
    labels = np.array([int(e.label) for e in labeled
                       if e.split == "validation"])
    series = [
        ("model", ensemble.predict_batch(
            oracles.vectorize_many(val, params)).mean(axis=1), labels),
        ("oor", [likelihood.oor_score(r, catalog)[0] for r in val], labels),
        ("age", [likelihood.age_score(r.age_years) for r in val], labels)]
    markers = defaults.SINGLE_MARKERS["liver"]
    for mid in markers:
        scaler = oracles.SingleMarkerScaler.fit(dev, mid, catalog, params)
        scored = [(s, y) for r, y in zip(val, labels)
                  if (s := scaler.score(r, catalog, params)) is not None]
        series.append((f"marker:{mid}", *map(np.array, zip(*scored))))
    rows = []
    for name, scores, y in series:
        curve = likelihood.lr_curve(
            likelihood.ScoredCohort.from_arrays(scores, y))
        rows += [(name, t, l) for t, l in zip(curve.thresholds, curve.lr)]
    # Every marker has at least 10 scored encounters of both classes, so
    # every series is drawn.
    assert all(y.size >= 10 and 0 < y.sum() < y.size
               for _, _, y in series[3:])
    assert (out / "lr_baselines.csv").read_text() == \
        oracles.lr_baselines_csv(rows)


def test_predict_and_explain_patient(run, tmp_path):
    cfg_path, out = run
    labeled, _ = ioutil.read_records_jsonl(out / "labeled.jsonl",
                                           labeled_from_dict)
    target = next(e.record for e in labeled if e.split == "validation")
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
    shapley = json.loads((out / "explain_patient_manifest.json").read_text())[
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


def test_explain_modes_keep_separate_manifests(run, tmp_path):
    """A cohort summary run after a waterfall leaves the waterfall's
    manifest, and its Shapley provenance, in place."""
    _, out = run
    cfg = _config(tmp_path, {k: str(out / v) for k, v in SCORE_INPUTS},
                  explain={"n_samples": 10, "n_permutations": 10})
    patient = _patient_file(out, tmp_path / "patient.json")
    assert cli.main(["explain", "--config", cfg, "--patient",
                     str(patient)]) == 0
    assert cli.main(["explain", "--config", cfg]) == 0
    o = tmp_path / "o"
    for manifest, output in (("explain_patient_manifest.json",
                              "waterfall.json"),
                             ("explain_manifest.json", "shap_summary.json")):
        doc = json.loads((o / manifest).read_text())
        assert str(o / output) in doc["outputs"], manifest
        assert doc["shapley"]["n_samples"] == 10, manifest


def test_comorbid_stage(run):
    cfg_path, out = run
    assert cli.main(["comorbid", "--config", str(cfg_path)]) == 0
    assert (out / "comorbidity.tsv").exists()
    doc = json.loads((out / "comorbidity.json").read_text())
    assert doc["n_cancer_patients"] > 0


def test_predict_rejects_unknown_marker(run, tmp_path):
    cfg_path, out = run
    records, _ = ioutil.read_records_jsonl(out / "labeled.jsonl",
                                           record_from_dict)
    doc = record_to_dict(records[0])
    doc["measurements"]["mystery_marker"] = 1.0
    patient = tmp_path / "bad.json"
    patient.write_text(json.dumps(doc))
    assert cli.main(["predict", "--config", str(cfg_path),
                     "--patient", str(patient)]) == 3


def _patient_file(out, path, keep_markers=None):
    doc = _validation_doc(out)
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


def _model_document(out):
    """The header line, line 2 and the arrays of the run's model.json, the
    arrays as {name: float64 array} in file order; the checksum trailer is
    left out."""
    head, line, raw = (out / "model.json").read_bytes()[:-64].split(b"\n", 2)
    line, arrays, at = json.loads(line), {}, 0
    for name in ARRAYS:
        size = math.prod(line[name])
        arrays[name] = np.frombuffer(raw, "<f8", size, at).reshape(line[name])
        at += 8 * size
    assert at == len(raw)
    return json.loads(head), line, arrays


def _model_bytes(header, line, arrays):
    """A model file: the header line, padded to a multiple of 8 bytes, line
    2, then the bytes of every entry of `arrays` (arrays or bytes) in its
    order, and a trailer that is the sha256 of all of them."""
    head = json.dumps(header)
    data = b"".join([(head + " " * (-(len(head) + 1) % 8)).encode(), b"\n",
                     json.dumps(line).encode(), b"\n", *arrays.values()])
    return data + hashlib.sha256(data).hexdigest().encode()


def _rechecksummed_model(out, path, edit, rechecksum=True):
    """Write the run's model.json to `path` with `edit(header, line,
    arrays)` applied, ending in a trailer that checksums the edited bytes,
    or, if `rechecksum` is false, in the run's own trailer. An edit that
    returns text or bytes writes those instead."""
    header, line, arrays = _model_document(out)
    text = edit(header, line, arrays)
    if text is None:
        text = _model_bytes(header, line, arrays)
        if not rechecksum:
            text = text[:-64] + (out / "model.json").read_bytes()[-64:]
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    return path


@contextlib.contextmanager
def no_runtime_warning():
    """Fail if numpy warns inside the block: the finite checks report
    overflows, and a warning would only print its text on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]


def _assert_model_rejected(run, tmp_path, capsys, edit, commands, field,
                           rechecksum=True):
    """Apply `edit` to the run's model.json, give it a matching checksum
    unless `rechecksum` is false, and check that every command exits 3
    naming the file and the field, without a traceback."""
    _, out = run
    model = _rechecksummed_model(out, tmp_path / "model.json", edit,
                                 rechecksum)
    config = {"paths": {"output_dir": str(tmp_path / "o"),
                        "model": str(model)},
              "master_seed": 99, "cancer_type": "liver"}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    patient = _patient_file(out, tmp_path / "patient.json")
    for command in commands:
        with no_runtime_warning():
            assert cli.main([command, "--config", str(cfg),
                             "--patient", str(patient)]) == 3, command
        err = capsys.readouterr().err
        assert str(model) in err and field in err, err
        assert "Traceback" not in err


def _reblob(key, change):
    """An edit that replaces the `key` array by change(the array) and states
    the new array's shape."""
    def edit(header, line, arrays):
        arrays[key] = np.ascontiguousarray(change(arrays[key]), dtype="<f8")
        line[key] = list(arrays[key].shape)
    return edit


def _flip_bit(header, line, arrays):
    raw = bytearray(arrays["states"].tobytes())
    raw[3] ^= 0x10
    arrays["states"] = bytes(raw)


def _ends_in_states(header, line, arrays):
    """The file cut one value short of the end of `states`."""
    arrays.update(states=arrays["states"].ravel()[:-1],
                  **{name: b"" for name in ARRAYS[1:]})


def _v5_file(header, line, arrays):
    """The run's model as a v5 file: the background stored as two arrays,
    its values and its mask."""
    header.update(format="labrisk-ensemble-v5")
    background = arrays.pop("background")
    del line["background"]
    for name, half in zip(("background_values", "background_mask"),
                          np.split(background, 2, axis=1)):
        arrays[name] = np.ascontiguousarray(half)
        line[name] = list(half.shape)


def _v4_file(header, line, arrays):
    """The run's model as a v4 file: a header line {"format", "sha256"}
    checksumming the bytes after it, and no trailer."""
    body = _model_bytes(header, line, arrays)[:-64].split(b"\n", 1)[1]
    return json.dumps({"format": "labrisk-ensemble-v4", "sha256":
                       hashlib.sha256(body).hexdigest()}).encode() \
        + b"\n" + body


def _tab_in_header(header, line, arrays):
    """A space of the header line changed to a tab, so that the line still
    reads as the same JSON: only the trailer, which covers it, tells."""
    data = _model_bytes(header, line, arrays)
    return data.replace(b'"format": ', b'"format":\t', 1)


def _flipped_trailer(header, line, arrays):
    data = bytearray(_model_bytes(header, line, arrays))
    data[-1] ^= 0x01  # one hex digit for another
    return bytes(data)


def _short_file(header, line, arrays):
    """The header line and fewer than 64 bytes after it."""
    return json.dumps(header) + "\n" + "0" * 20


def _v2_file(header, line, arrays):
    return json.dumps({"payload": dict(line, format="labrisk-ensemble-v2"),
                       "checksum": "0" * 64})


def _v3_file(header, line, arrays):
    """The run's model as a v3 file: a payload of base64 arrays."""
    payload = json.dumps({**line, **{
        name: base64.b64encode(array.tobytes()).decode()
        for name, array in arrays.items()}})
    return json.dumps({"format": "labrisk-ensemble-v3", "sha256":
                       hashlib.sha256(payload.encode()).hexdigest()}) \
        + "\n" + payload


# Edits of a normalization document, and the field.feature the error must
# name. Each is run on normalization.json under train and on a model file's
# copy under predict and explain.
NORMALIZATION_EDITS = {
    "log-flag-string": (lambda n: n["log_transform"].update(albumin="false"),
                        "log_transform.albumin"),
    "feature-order-string": (lambda n: n.update(feature_order="age"),
                             "feature_order"),
    "iqd-entry-missing": (lambda n: n["iqd"].__delitem__("albumin"),
                          "iqd.albumin"),
    "iqd-zero": (lambda n: n["iqd"].update(albumin=0.0), "iqd.albumin"),
    "detection-limit-missing": (
        lambda n: n["detection_limit"].__delitem__("alt"),
        "detection_limit.alt"),
    "fitted-on-missing": (lambda n: n.__delitem__("fitted_on"),
                          "missing field 'fitted_on'"),
    "scale-demographics-missing": (
        lambda n: n.__delitem__("scale_demographics"),
        "missing field 'scale_demographics'"),
}


@pytest.mark.parametrize("edit, rechecksum, field", [
    (lambda h, line, a: h.update(format="labrisk-ensemble-v1"), True,
     "format"),
    (_ends_in_states, True, "states holds"),
    (lambda h, line, a: line.update(states=[line["states"][0], 1.5]), True,
     "states[1]: expected int"),
    (lambda h, line, a: line.update(states=[10**6, line["states"][1]]), True,
     "too few for shape [1000000, "),
    (lambda h, line, a: a.update(tail=bytes(8)), True,
     "background is followed by 8 trailing bytes"),
    (_reblob("states", lambda s: np.c_[s, s[:, :1]]), True,
     "states holds shape"),
    (_flip_bit, False, "sha256"),
    (_v2_file, True, "format"),
    (_v3_file, True,
     "format: unsupported model format 'labrisk-ensemble-v3'"),
    (_v4_file, True,
     "format: unsupported model format 'labrisk-ensemble-v4', expected "
     "'labrisk-ensemble-v6'; older model files must be retrained"),
    (_v5_file, True,
     "format: unsupported model format 'labrisk-ensemble-v5', expected "
     "'labrisk-ensemble-v6'; older model files must be retrained"),
    (_tab_in_header, True, "sha256: checksum mismatch"),
    (_flipped_trailer, True, "sha256: checksum mismatch"),
    (lambda h, line, a: _model_bytes(h, line, a)[:-1], True,
     "sha256: checksum mismatch"),
    (_short_file, True,
     "sha256: the file ends before its 64-digit checksum trailer"),
    (_reblob("dev_labels", lambda a: np.r_[7.0, a[1:]]), True,
     "dev_labels holds values other than 0 and 1"),
    *[(_reblob("dev_labels", lambda a, label=label: np.full_like(a, label)),
       True, "dev_labels holds one class only") for label in (0.0, 1.0)],
    (lambda h, line, a: line.update(dev_scores="2818"), True,
     "dev_scores: expected tuple"),
    (_reblob("dev_scores", lambda a: np.r_[np.nan, a[1:]]), True,
     "dev_scores holds non-finite values"),
    (_reblob("dev_scores", lambda a: a + 7), True,
     "dev_scores holds values outside [0, 1]"),
    (_reblob("background", lambda a: a.ravel()[:-1]), True,
     "background holds shape"),
    # The values without their mask.
    (_reblob("background", lambda a: a[:, :a.shape[1] // 2]), True,
     "background holds shape"),
    (_reblob("background", lambda a: np.c_[a[:, :a.shape[1] // 2],
                                           a[:, a.shape[1] // 2:] * 0.5]),
     True, "background: the mask half holds values other than 0 and 1"),
    (_reblob("dev_labels", lambda a: a[:-1]), True, "dev_labels holds"),
    (lambda h, line, a: line.update(catalog_version=5), True,
     "catalog_version: expected str"),
    (lambda h, line, a: line.update(member_subsets="zz"), True,
     "member_subsets: expected list"),
    (lambda h, line, a: line.__delitem__("dev_scores"), True,
     "missing field 'dev_scores'"),
    (lambda h, line, a: line.__delitem__("background"), True,
     "missing field 'background'"),
    (_reblob("states", lambda a: np.full_like(a, 1e300)), True,
     "states: the stored weights give non-finite values"),
    *[(lambda h, line, a, key=key: line["config"].update({key: MAX_WIDTH + 1}),
       True, f"config: {key} must be at most {MAX_WIDTH}")
      for key in ("hidden_width", "latent_dim")],
    *[(lambda h, line, a, edit=edit: edit(line["normalization"]), True,
       f"normalization: {field}")
      for edit, field in NORMALIZATION_EDITS.values()],
], ids=["v1-format", "truncated-blob", "shape-not-ints",
        "shape-overruns-file", "trailing-bytes", "states-width", "bit-flip",
        "v2-file", "v3-file", "v4-file", "v5-file", "tab-in-header",
        "flipped-trailer", "truncated-trailer", "shorter-than-trailer",
        "label-7", "labels-all-0", "labels-all-1", "string-score",
        "nan-score", "score-out-of-range",
        "ragged-background", "narrow-background", "mask-not-binary",
        "short-labels", "catalog-version-number", "member-subsets-string",
        "missing-dev-scores", "missing-background", "extreme-states",
        "hidden-width-over-limit", "latent-dim-over-limit",
        *[f"normalization-{name}" for name in NORMALIZATION_EDITS]])
def test_bad_model_file_is_validation_error(run, tmp_path, capsys, edit,
                                            rechecksum, field):
    _assert_model_rejected(run, tmp_path, capsys, edit,
                           ("predict", "explain"), field, rechecksum)


def _member_1_arrays(values):
    """An edit that sets every entry of each `state_layout` array named in
    `values` of member 1's state to its value."""
    def edit(header, line, arrays):
        arrays["states"] = with_member_1_arrays(
            arrays["states"], RiskModelConfig(**line["config"]), values)
    return edit


@pytest.mark.parametrize("case", NON_FINITE_STATES)
def test_states_giving_non_finite_scores_exit_3_and_print_only_that(
        run, tmp_path, capsys, case):
    _, out = run
    model = _rechecksummed_model(out, tmp_path / "model.json",
                                 _member_1_arrays(NON_FINITE_STATES[case]))
    cfg = _config(tmp_path, {"model": str(model)})
    patient = _patient_file(out, tmp_path / "patient.json")
    for command in ("predict", "explain"):
        with no_runtime_warning():
            assert cli.main([command, "--config", cfg,
                             "--patient", str(patient)]) == 3, command
        assert capsys.readouterr().err == (
            f"error: {model}: states: the stored weights give non-finite "
            "values in member 1's logits\n")


def reference_value_fn(ensemble, dev, rows, min_n):
    """Row-at-a-time value function: one predict_batch call per walk, then
    per row the ensemble summary, the oracle similar-score cohort, its LR
    and the squashing."""
    out = np.empty(rows.shape[:-1])
    for w in np.ndindex(rows.shape[:-2]):
        scores = ensemble.predict_batch(rows[w])
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
    ensemble, _ = load_model((out / "model.json").read_bytes(), "model.json")
    dev = likelihood.ScoredCohort.from_arrays(ensemble.dev_scores,
                                              ensemble.dev_labels)
    background = ensemble.background
    labeled, _ = ioutil.read_records_jsonl(out / "labeled.jsonl",
                                           labeled_from_dict)
    val = [complete_derived(e.record) for e in labeled
           if e.split == "validation"][:3]
    rows = vectorize_many(val, ensemble.normalization)
    d = ensemble.config.n_features
    fn = NormalizedLrFn(ensemble, dev, min_n=50)
    stacks = []

    def spy(walks):
        stacks.append(walks)
        return fn(walks)

    def per_walk(walks):
        return np.stack([fn(walks[w]) for w in range(walks.shape[0])])

    for row in rows:
        stacked = shap_values(spy, row, background, 30, seed=5)
        walks = stacks.pop()
        assert walks.shape == (30, d + 1, 2 * d)
        np.testing.assert_array_equal(
            fn(walks), reference_value_fn(ensemble, dev, walks, 50))
        looped = shap_values(per_walk, row, background, 30, seed=5)
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


def test_labrisk_config_is_read_on_every_call(tmp_path, monkeypatch,
                                             capsys):
    """LABRISK_CONFIG names the config when --config is not given, read
    afresh by each call in one process; --config overrides it."""
    configs = []
    for name in ("a.json", "b.json", "c.json"):
        configs.append(_write(tmp_path / name, json.dumps(
            {"paths": {"output_dir": str(tmp_path / "o")},
             "cancer_type": "pancreatic"})))
    monkeypatch.delenv("LABRISK_CONFIG", raising=False)
    assert cli.main(["synth"]) == 3
    assert "--config (or LABRISK_CONFIG) is required" in \
        capsys.readouterr().err
    for path in configs[:2]:
        monkeypatch.setenv("LABRISK_CONFIG", path)
        assert cli.main(["synth"]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: unknown cancer_type 'pancreatic'\n")
    assert cli.main(["synth", "--config", configs[2]]) == 3
    assert capsys.readouterr().err == (
        f"error: {configs[2]}: unknown cancer_type 'pancreatic'\n")


class _CountingSha256:
    """hashlib.sha256 that adds the size of each buffer it hashes to
    `hashed`."""
    real = hashlib.sha256
    hashed = 0

    def __init__(self, data=b""):
        self.h = self.real()
        self.update(data)

    def update(self, data):
        type(self).hashed += memoryview(data).nbytes
        self.h.update(data)

    def hexdigest(self):
        return self.h.hexdigest()


@pytest.mark.parametrize("command, manifest", [
    ("predict", "predict_manifest.json"),
    ("explain", "explain_patient_manifest.json")])
def test_a_patient_request_hashes_each_file_once(run, tmp_path, monkeypatch,
                                                 command, manifest):
    """Every byte a predict or explain --patient request reads or writes,
    model.json's and the manifest's included, goes through sha256 once, and
    the manifest's model.json digest is the file's sha256."""
    _, out = run
    model = str(out / "model.json")
    cfg = _config(tmp_path, {"model": model, "labeled":
                             str(out / "labeled.jsonl")},
                  explain={"n_permutations": 10})
    patient = _patient_file(out, tmp_path / "patient.json")
    monkeypatch.setattr(_CountingSha256, "hashed", 0)
    monkeypatch.setattr(hashlib, "sha256", _CountingSha256)
    assert cli.main([command, "--config", cfg, "--patient",
                     str(patient)]) == 0
    hashed = _CountingSha256.hashed
    monkeypatch.undo()
    doc = json.loads((tmp_path / "o" / manifest).read_text())
    assert model in doc["inputs"]
    config_json = json.dumps(doc["config"], sort_keys=True,
                             separators=(",", ":")).encode()
    assert hashed == len(config_json) + sum(
        os.path.getsize(p) for p in doc["inputs"] + doc["outputs"]
        + [tmp_path / "o" / manifest])
    assert doc["sha256"][model] == hashlib.sha256(
        (out / "model.json").read_bytes()).hexdigest()


def test_malformed_phecode_map_is_validation_error(run, tmp_path, capsys):
    """A line of one column, or with an empty phecode column, is exit 3
    naming the file and the line."""
    _, out = run
    pmap = tmp_path / "phecodes.tsv"
    config = {"paths": {"output_dir": str(tmp_path / "o"),
                        "labeled": str(out / "labeled.jsonl"),
                        "phecode_map": str(pmap)},
              "master_seed": 99, "cancer_type": "liver"}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    for line, fault in (("K70", "expected at least two tab-separated columns"),
                        ("C22\t \tlabel", "empty phecode for prefix 'C22'")):
        pmap.write_text(f"# icd10\tphecode\nK70\t155\n{line}\n")
        assert cli.main(["comorbid", "--config", str(cfg)]) == 3
        assert f"{pmap}:3: {fault}" in capsys.readouterr().err


def _validation_doc(out):
    labeled, _ = ioutil.read_records_jsonl(out / "labeled.jsonl",
                                           labeled_from_dict)
    return record_to_dict(next(e.record for e in labeled
                               if e.split == "validation"))


def _write(path, text):
    path.write_text(text)
    return str(path)


def _config(tmp, paths=None, **sections):
    """A run config whose outputs go to tmp/o; returns its path."""
    config = {"paths": {"output_dir": str(tmp / "o"), **(paths or {})},
              "master_seed": 99, "cancer_type": "liver", **sections}
    return _write(tmp / "c.json", json.dumps(config))


def _patient_case(make_text, command, named=()):
    def case(run, tmp):
        _, out = run
        patient = tmp / "patient.json"
        text = make_text(_validation_doc(out))
        if text is not None:
            patient.write_text(text)
        cfg = _config(tmp, {"model": str(out / "model.json")})
        return [command, "--config", cfg, "--patient", str(patient)], \
            [str(patient), *named]
    return case


def _edited(doc, **fields):
    return json.dumps(dict(doc, **fields))


def _measured(doc, **measurements):
    return _edited(doc, measurements={**doc["measurements"], **measurements})


def _claim(doc, **fields):
    """A claim code on the document's date, `fields` replacing its own."""
    return {"code": "C22.0", "system": "ICD10", "date": doc["date"], **fields}


def _coded(doc, **fields):
    return _edited(doc, codes=[_claim(doc, **fields)])


# Patient file texts from a valid document, and what the error must name
# besides the file. Each is run under predict and explain --patient.
PATIENT_TEXTS = {
    "not-json": (lambda doc: "{not json", ()),
    "missing": (lambda doc: None, ()),
    "bad-date": (lambda doc: _edited(doc, date="2020-13-45"), ()),
    "measurements-list": (lambda doc: _edited(doc, measurements=[1, 2]), ()),
    "top-level-list": (lambda doc: json.dumps([doc]), ()),
    "sex-number": (lambda doc: _edited(doc, sex=5), ("sex",)),
    "age-out-of-range": (lambda doc: _edited(doc, age_years=1e300),
                         ("age_years",)),
    "unknown-marker": (lambda doc: _measured(doc, mystery_marker=1.0),
                       ("mystery_marker",)),
    "nan-measurement": (lambda doc: _measured(doc, albumin="nan"),
                        ("albumin",)),
    # json.dumps writes a bare NaN, which json.loads reads as a float.
    "nan-literal-measurement": (lambda doc: _measured(doc, albumin=math.nan),
                                ("albumin",)),
    # A number must be a JSON number, and a string a JSON string.
    "measurement-bool": (lambda doc: _measured(doc, albumin=True),
                         ("measurements", "albumin")),
    "age-string": (lambda doc: _edited(doc, age_years="55"), ("age_years",)),
    "patient-id-number": (lambda doc: _edited(doc, patient_id=123),
                          ("patient_id",)),
    # JSON integers beyond float range.
    "measurement-huge-int": (lambda doc: _measured(doc, albumin=10**400),
                             ("measurements", "albumin")),
    "age-huge-int": (lambda doc: _edited(doc, age_years=10**400),
                     ("age_years",)),
    # A claim code's code is a non-empty JSON string, its system ICD10 or
    # CPT.
    "code-number": (lambda doc: _coded(doc, code=123),
                    ("codes[0]", "'code'")),
    "code-system-unknown": (lambda doc: _coded(doc, system="FOO"),
                            ("codes[0]", "'system'")),
    "code-empty": (lambda doc: _coded(doc, code=""), ("codes[0]", "'code'")),
}


def _bad_labeled_line(run, tmp):
    _, out = run
    lines = (out / "labeled.jsonl").read_text().splitlines()[:5]
    lines[2] = lines[2][:-7]  # cut short: line 3 is not JSON
    labeled = _write(tmp / "labeled.jsonl", "\n".join(lines) + "\n")
    return (["prepare", "--config", _config(tmp, {"labeled": labeled})],
            [f"{labeled}:3"])


def _unknown_model_config_key(run, tmp):
    _, out = run
    model = _rechecksummed_model(
        out, tmp / "model.json",
        lambda h, line, a: line["config"].update(bogus=1))
    cfg = _config(tmp, {"model": str(model)})
    patient = _write(tmp / "patient.json", json.dumps(_validation_doc(out)))
    return (["predict", "--config", cfg, "--patient", patient],
            [str(model), "config", "bogus"])


def _lr_marker_the_model_lacks(run, tmp):
    """lr for alt, with the default catalog, on a model trained on a
    catalog without alt."""
    _, out = run
    doc = json.loads((out / "catalog.json").read_text())
    _without_marker("alt")(doc)
    paths = {"labeled": str(out / "labeled.jsonl"),
             "catalog": _write(tmp / "catalog.json", json.dumps(doc))}
    cfg = _config(tmp, paths, train={"pretrain_epochs": 0,
                                     "finetune_epochs": 1, "n_members": 1})
    for command in ("prepare", "train"):
        assert cli.main([command, "--config", cfg]) == 0, command
    del paths["catalog"]
    cfg = _config(tmp, paths, lr={"single_markers": ["alt"]})
    model = str(tmp / "o" / "model.json")
    return ["lr", "--config", cfg], [cfg, "lr: single_markers", "'alt'", model]


def _section_case(command, section, body, inputs=(), patient=False):
    """`command` on a config whose `section` is `body`, reading `inputs`
    (paths key, file of the run) and, if `patient`, a valid --patient."""
    def case(run, tmp):
        _, out = run
        cfg = _config(tmp, {k: str(out / v) for k, v in inputs},
                      **{section: body})
        flags = ["--patient", _write(tmp / "patient.json", json.dumps(
            _validation_doc(out)))] if patient else []
        return [command, "--config", cfg, *flags], [cfg, section, *body]
    return case


def _normalization_case(edit, field):
    """train on the run's normalization.json with `edit` applied."""
    def case(run, tmp):
        _, out = run
        doc = json.loads((out / "normalization.json").read_text())
        edit(doc)
        norm = _write(tmp / "normalization.json", json.dumps(doc))
        cfg = _config(tmp, {"normalization": norm,
                            "labeled": str(out / "labeled.jsonl")})
        return ["train", "--config", cfg], [f"{norm}: {field}"]
    return case


def _catalog_case(edit, field):
    """synth on the run's catalog.json with `edit` applied to albumin's
    entry, markers[i]."""
    def case(run, tmp):
        _, out = run
        doc = json.loads((out / "catalog.json").read_text())
        i = [m["id"] for m in doc["markers"]].index("albumin")
        edit(doc["markers"][i])
        catalog = _write(tmp / "catalog.json", json.dumps(doc))
        return (["synth", "--config", _config(tmp, {"catalog": catalog})],
                [f"{catalog}: markers[{i}]: {field}"])
    return case


def _synth_catalog_case(edit, *named):
    """synth on the run's catalog.json with `edit` applied to the document;
    the error names the catalog file and `named`."""
    def case(run, tmp):
        _, out = run
        doc = json.loads((out / "catalog.json").read_text())
        edit(doc)
        catalog = _write(tmp / "catalog.json", json.dumps(doc))
        return (["synth", "--config", _config(tmp, {"catalog": catalog})],
                [catalog, *named])
    return case


def _without_marker(mid):
    def edit(doc):
        doc["markers"] = [m for m in doc["markers"] if m["id"] != mid]
    return edit


def _no_cancer_distribution(mid, distribution):
    def edit(doc):
        marker = next(m for m in doc["markers"] if m["id"] == mid)
        marker["class_distributions"]["no_cancer"] = distribution
    return edit


def _cohort_nan_measurement(run, tmp):
    """cohort on the run's cohort.jsonl with line 3's albumin NaN."""
    _, out = run
    lines = (out / "cohort.jsonl").read_text().splitlines()
    lines[2] = _measured(json.loads(lines[2]), albumin=math.nan)
    cohort = _write(tmp / "cohort.jsonl", "\n".join(lines) + "\n")
    return (["cohort", "--config", _config(tmp, {"cohort": cohort})],
            [f"{cohort}:3", "'albumin'"])


def _cohort_unknown_code_system(run, tmp):
    """cohort on the run's cohort.jsonl with line 3's second claim code in
    an unknown system."""
    _, out = run
    lines = (out / "cohort.jsonl").read_text().splitlines()
    doc = json.loads(lines[2])
    lines[2] = _edited(doc, codes=[_claim(doc), _claim(doc, system="FOO")])
    cohort = _write(tmp / "cohort.jsonl", "\n".join(lines) + "\n")
    return (["cohort", "--config", _config(tmp, {"cohort": cohort})],
            [f"{cohort}:3", "codes[1]", "'FOO'"])


def _directory_case(command, key):
    """`command` with the pipeline file paths.<key> a directory."""
    def case(run, tmp):
        directory = tmp / "a-directory"
        directory.mkdir()
        return ([command, "--config", _config(tmp, {key: str(directory)})],
                [f"{directory}: cannot read"])
    return case


def _report_bundled_directory(run, tmp):
    """report with the roc.csv it bundles a directory."""
    bundled = tmp / "o" / "roc.csv"
    bundled.mkdir(parents=True)
    cfg = _config(tmp, {k: str(run[1] / v) for k, v in SCORE_INPUTS})
    return ["report", "--config", cfg], [f"{bundled}: cannot read"]


TRAIN_INPUTS = [("normalization", "normalization.json"),
                ("labeled", "labeled.jsonl")]
SCORE_INPUTS = [("model", "model.json"), ("labeled", "labeled.jsonl")]


MALFORMED_INPUTS = {
    **{f"{prefix}-{name}": _patient_case(make_text, command, named)
       for prefix, command in (("patient", "predict"),
                               ("explain-patient", "explain"))
       for name, (make_text, named) in PATIENT_TEXTS.items()},
    "config-missing": lambda run, tmp: (
        ["synth", "--config", str(tmp / "absent.json")],
        [str(tmp / "absent.json")]),
    "config-top-level-list": lambda run, tmp: (
        ["synth", "--config", _write(tmp / "c.json", "[1, 2]")],
        [str(tmp / "c.json")]),
    "config-n-per-class-string": lambda run, tmp: (
        ["synth", "--config", _config(tmp, synth={"n_per_class": "x"})],
        [str(tmp / "c.json"), "synth", "n_per_class"]),
    "config-catalog-missing": lambda run, tmp: (
        ["synth", "--config",
         _config(tmp, {"catalog": str(tmp / "absent-catalog.json")})],
        [str(tmp / "absent-catalog.json")]),
    "config-unknown-synth-key": _section_case("synth", "synth", {"bogus": 1}),
    "config-unknown-train-key": _section_case(
        "train", "train", {"bogus": 1},
        [("normalization", "normalization.json"),
         ("labeled", "labeled.jsonl")]),
    "config-unknown-cohort-key": _section_case(
        "cohort", "cohort", {"bogus": 1}, [("cohort", "cohort.jsonl")]),
    # The run's top-level cancer_type is the only one: a cohort override
    # would relabel encounters chosen by another cancer's diagnosis codes.
    "config-cohort-cancer-type": _section_case(
        "cohort", "cohort", {"cancer_type": "lung"},
        [("cohort", "cohort.jsonl")]),
    # The feature count is the normalization's: a train.n_features would be
    # overwritten by it.
    "config-train-n-features": _section_case(
        "train", "train", {"n_features": 5}, TRAIN_INPUTS),
    "normalization-empty": lambda run, tmp: (
        ["train", "--config",
         _config(tmp, {"normalization": _write(tmp / "norm.json", "{}"),
                       "labeled": str(run[1] / "labeled.jsonl")})],
        [str(tmp / "norm.json"), "median"]),
    "labeled-bad-line": _bad_labeled_line,
    "model-unknown-config-key": _unknown_model_config_key,
    "config-path-not-string": lambda run, tmp: (
        ["synth", "--config", _config(tmp, {"output_dir": 5})],
        [str(tmp / "c.json"), "paths.output_dir"]),
    "config-master-seed-bool": lambda run, tmp: (
        ["synth", "--config", _config(tmp, master_seed=True)],
        [str(tmp / "c.json"), "master_seed"]),
    "config-master-seed-string": lambda run, tmp: (
        ["synth", "--config", _config(tmp, master_seed="7")],
        [str(tmp / "c.json"), "master_seed"]),
    "config-split-seed-float": _section_case(
        "cohort", "cohort", {"split_seed": 1.5}, [("cohort", "cohort.jsonl")]),
    "config-enrich-int": _section_case(
        "cohort", "cohort", {"enrich": 1}, [("cohort", "cohort.jsonl")]),
    "config-train-batch-size-1": _section_case(
        "train", "train", {"batch_size": 1},
        [("normalization", "normalization.json"),
         ("labeled", "labeled.jsonl")]),
    # One row per section key that was read unchecked or checked without
    # naming the config file and section.
    "config-explain-n-samples-string": _section_case(
        "explain", "explain", {"n_samples": "x"}, SCORE_INPUTS),
    "config-explain-n-samples-too-few": _section_case(
        "explain", "explain", {"n_samples": 3}, SCORE_INPUTS),
    "config-explain-n-permutations-string": _section_case(
        "explain", "explain", {"n_permutations": "x"}, SCORE_INPUTS, True),
    "config-explain-top-k-string": _section_case(
        "explain", "explain", {"top_k": "x"}, SCORE_INPUTS),
    "config-explain-background-size-0": _section_case(
        "train", "explain", {"background_size": 0}, TRAIN_INPUTS),
    "config-explain-background-size-string": _section_case(
        "train", "explain", {"background_size": "x"}, TRAIN_INPUTS),
    "config-predict-min-n-string": _section_case(
        "predict", "predict", {"min_n": "x"}, SCORE_INPUTS, True),
    "config-predict-min-n-0": _section_case(
        "explain", "predict", {"min_n": 0}, SCORE_INPUTS, True),
    "config-comorbid-min-each-string": _section_case(
        "comorbid", "comorbid", {"min_each": "x"}, SCORE_INPUTS),
    "config-lr-single-markers-unknown": _section_case(
        "lr", "lr", {"single_markers": ["bogus"]}, SCORE_INPUTS),
    "config-lr-single-markers-string": _section_case(
        "lr", "lr", {"single_markers": "rdw"}, SCORE_INPUTS),
    "config-lr-single-marker-not-in-model": _lr_marker_the_model_lacks,
    "config-prepare-scale-demographics-string": _section_case(
        "prepare", "prepare", {"scale_demographics": "no"}, SCORE_INPUTS),
    "config-unknown-prepare-key": _section_case(
        "prepare", "prepare", {"bogus": 1}, SCORE_INPUTS),
    "config-unknown-predict-key": _section_case(
        "predict", "predict", {"bogus": 1}, SCORE_INPUTS, True),
    "config-train-n-members-0": _section_case(
        "train", "train", {"n_members": 0}, TRAIN_INPUTS),
    "config-train-subsample-string": _section_case(
        "train", "train", {"subsample": "x"}, TRAIN_INPUTS),
    # Right-typed values out of range.
    "config-synth-start-date-garbage": _section_case(
        "synth", "synth", {"start_date": "garbage"}),
    "config-synth-start-date-year-9999": _section_case(
        "synth", "synth", {"start_date": "9999-12-01"}),
    "config-synth-seed-negative": _section_case(
        "synth", "synth", {"seed": -1}),
    "config-master-seed-negative": lambda run, tmp: (
        ["synth", "--config", _config(tmp, master_seed=-1)],
        [str(tmp / "c.json"), "master_seed"]),
    "config-split-seed-negative": _section_case(
        "cohort", "cohort", {"split_seed": -1}, [("cohort", "cohort.jsonl")]),
    "config-infection-window-too-wide": _section_case(
        "cohort", "cohort", {"infection_window_days": 1000000000},
        [("cohort", "cohort.jsonl")]),
    # No encounter has 999 markers, so the cohort would be empty.
    "config-cohort-min-markers-999": _section_case(
        "cohort", "cohort", {"min_markers": 999},
        [("cohort", "cohort.jsonl")]),
    "config-train-seed-negative": _section_case(
        "train", "train", {"seed": -1}, TRAIN_INPUTS),
    "config-train-lr-negative": _section_case(
        "train", "train", {"lr": -1}, TRAIN_INPUTS),
    "config-train-pretrain-epochs-negative": _section_case(
        "train", "train", {"pretrain_epochs": -1}, TRAIN_INPUTS),
    "config-train-finetune-epochs-0": _section_case(
        "train", "train", {"finetune_epochs": 0}, TRAIN_INPUTS),
    "config-train-ci-scale-negative": _section_case(
        "train", "train", {"ci_scale": -1}, TRAIN_INPUTS),
    "config-train-w-kl-nan": _section_case(
        "train", "train", {"w_kl": math.nan}, TRAIN_INPUTS),
    "config-train-lr-huge-int": _section_case(
        "train", "train", {"lr": 10**400}, TRAIN_INPUTS),
    "config-synth-visits-per-patient-too-many": _section_case(
        "synth", "synth", {"visits_per_patient": 80000}),
    # One above the limit only: validate rejects it before synth allocates.
    "config-synth-n-per-class-above-limit": lambda run, tmp: (
        ["synth", "--config", _config(tmp, synth={
            "n_per_class": {"no_cancer": MAX_N_PER_CLASS + 1}})],
        [str(tmp / "c.json"), "synth: n_per_class"]),
    "config-synth-missingness-not-a-lab-panel": _section_case(
        "synth", "synth", {"missingness": {"demographic": 0.1}}),
    **{f"config-synth-class-missingness-bias-{name}": _section_case(
        "synth", "synth", {"class_missingness_bias": bias})
       for name, bias in (("negative", {"liver": -1}),
                          ("huge", {"liver": 1e9}),
                          ("unknown-class", {"pancreas": 1.0}))},
    **{f"config-synth-comorbidity-prevalence-{name}": _section_case(
        "synth", "synth", {"comorbidity_prevalence": prevalence})
       for name, prevalence in (("2", {"E11": {"liver": 2.0}}),
                                ("unknown-class", {"E11": {"pancreas": 0.1}}))},
    **{f"config-explain-n-permutations-{n}": _section_case(
        "explain", "explain", {"n_permutations": n}, SCORE_INPUTS)
       for n in (0, 1, -4, MAX_PERMUTATIONS + 1)},
    "config-explain-top-k-negative": _section_case(
        "explain", "explain", {"top_k": -1}, SCORE_INPUTS),
    "config-comorbid-min-each-negative": _section_case(
        "comorbid", "comorbid", {"min_each": -1}, SCORE_INPUTS),
    **{f"normalization-{name}": _normalization_case(edit, field)
       for name, (edit, field) in NORMALIZATION_EDITS.items()},
    "catalog-range-of-three": _catalog_case(
        lambda m: m.update(reference_range=[3.5, 5.0, 6.0]),
        "reference_range"),
    "catalog-log-flag-string": _catalog_case(
        lambda m: m.update(log_transform="false"), "log_transform"),
    # The catalog document is decoded like a config: a duplicate id names
    # the file and markers, and version must be a string.
    "catalog-duplicate-id": _synth_catalog_case(
        lambda doc: doc["markers"].append(doc["markers"][0]),
        "markers: duplicate marker id"),
    "catalog-version-number": _synth_catalog_case(
        lambda doc: doc.update(version=7), "version"),
    "catalog-unknown-key": _synth_catalog_case(
        lambda doc: doc.update(bogus=1), "'bogus'"),
    # synth needs age and sex markers, and distributions whose draws fit a
    # float.
    "synth-catalog-without-age": _synth_catalog_case(_without_marker("age"),
                                                     "'age'"),
    "synth-catalog-without-sex": _synth_catalog_case(_without_marker("sex"),
                                                     "'sex'"),
    "synth-catalog-overflowing-log-normal": _synth_catalog_case(
        _no_cancer_distribution("alt", [5.0, 1e308]), "'alt'",
        "'no_cancer'"),
    "synth-catalog-infinite-draws": _synth_catalog_case(
        _no_cancer_distribution("alt", [1e308, 1e308]), "'alt'",
        "'no_cancer'"),
    "cohort-nan-measurement": _cohort_nan_measurement,
    "cohort-unknown-code-system": _cohort_unknown_code_system,
    "cohort-directory": _directory_case("cohort", "cohort"),
    "prepare-labeled-directory": _directory_case("prepare", "labeled"),
    "comorbid-labeled-directory": _directory_case("comorbid", "labeled"),
    "report-bundled-directory": _report_bundled_directory,
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_exits_3_naming_file_and_field(run, tmp_path, capsys,
                                                       case):
    argv, named = MALFORMED_INPUTS[case](run, tmp_path)
    with no_runtime_warning():
        assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for text in named:
        assert text in err, (text, err)


# The commands that read labeled.jsonl.
LABELED_COMMANDS = ("prepare", "train", "evaluate", "lr", "explain",
                    "comorbid", "report")


# What the error names besides file:line, where that is not repr(field).
RECORD_CHECKS = {"measurements": "'albumin' is nan",
                 "age_years": "age_years inf", "sex": "sex 'other'"}


@pytest.mark.parametrize("field, value", [
    ("label", 1), ("split", "test"), ("diagnosis_date", "bogus"),
    ("cancer_type", 5), ("split_fallback", "no"),
    pytest.param("measurements", {"albumin": math.nan},
                 id="measurements-albumin-nan"),
    ("age_years", math.inf), ("sex", "other"), ("patient_id", 123)])
def test_malformed_labeled_field_exits_3(run, tmp_path, capsys, field,
                                         value):
    named = RECORD_CHECKS.get(field, repr(field))
    _, out = run
    lines = (out / "labeled.jsonl").read_text().splitlines()
    lines[2] = json.dumps(dict(json.loads(lines[2]), **{field: value}))
    labeled = _write(tmp_path / "labeled.jsonl", "\n".join(lines) + "\n")
    cfg = _config(tmp_path, {"labeled": labeled,
                             "normalization": str(out / "normalization.json"),
                             "model": str(out / "model.json")})
    for command in LABELED_COMMANDS:
        assert cli.main([command, "--config", cfg]) == 3, command
        err = capsys.readouterr().err
        assert f"{labeled}:3" in err and named in err, (command, err)
        assert "Traceback" not in err


def test_training_overflow_exits_4_naming_member_and_stage(run, tmp_path,
                                                          capsys):
    """w_cls 1e308 overflows Adam's second moment in the first finetune
    step: the step's finite check reports it before numpy can warn."""
    argv, _ = _section_case("train", "train", {"w_cls": 1e308},
                            TRAIN_INPUTS)(run, tmp_path)
    with no_runtime_warning():
        assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert "member 0: finetune epoch 0: " in err and "Adam moments" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("error", [nn.ShapeError("bad shape"),
                                   nn.NumericsError("non-finite"),
                                   TypeError("a bug")])
def test_internal_faults_exit_4(monkeypatch, tmp_path, capsys, error):
    def fail(cfg, args, stage):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "synth", fail)
    assert cli.main(["synth", "--config", _config(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("runtime error:")


def test_synth_catalog_round_trips_with_cohort_mode(run):
    _, out = run
    assert load_marker_catalog((out / "catalog.json").read_bytes(),
                               "catalog.json") == defaults.default_catalog()
    assert os.stat(out / "catalog.json").st_mode == \
        os.stat(out / "cohort.jsonl").st_mode


# --- fuzzing: malformed inputs exit 0 or 3, never 4 ----------------------------

JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
                | st.floats(allow_nan=False) | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=4)
NOT_OBJECTS = JSON_SCALARS | st.lists(JSON_VALUES, max_size=2)
NOT_NUMBERS = (st.none() | st.booleans() | st.text(max_size=4)
               | st.lists(JSON_VALUES, max_size=2)
               | st.dictionaries(st.text(max_size=3), JSON_VALUES,
                                 max_size=2))
FUZZ = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(argv):
    """cli.main's exit code; it must be 0 or 3 and print no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


@st.composite
def patient_texts(draw, doc):
    doc = json.loads(json.dumps(doc))
    doc["codes"] = [{"code": "K74.60", "system": "ICD10",
                     "date": "2020-01-01"}] + doc["codes"]
    kind = draw(st.sampled_from(["truncate", "drop", "top", "measurement",
                                 "code"]))
    if kind == "truncate":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "top":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON_VALUES)
    elif kind == "measurement":
        doc["measurements"][draw(st.sampled_from(
            sorted(doc["measurements"])))] = draw(NOT_NUMBERS)
    else:
        doc["codes"][draw(st.integers(0, len(doc["codes"]) - 1))] = \
            draw(JSON_VALUES)
    return json.dumps(doc)


@FUZZ
@given(data=st.data())
def test_fuzzed_patient_file_never_exits_4(run, fuzz_dir, data):
    _, out = run
    patient = fuzz_dir / "patient.json"
    patient.write_text(data.draw(patient_texts(_validation_doc(out))))
    cfg = _config(fuzz_dir, {"model": str(out / "model.json")})
    _exit_code(["predict", "--config", cfg, "--patient", str(patient)])


@st.composite
def blob_edits(draw):
    """A re-checksummed edit of one array's raw section: its bytes cut or
    extended, one value replaced, every value set to one finite value
    (extreme ones included), or its shape on line 2 replaced by a list of
    integers or by another JSON value."""
    key = draw(st.sampled_from(ARRAYS))
    how = draw(st.sampled_from(["cut", "extend", "value", "fill", "shape",
                                "json"]))
    if how in ("shape", "json"):
        value = draw(st.lists(st.integers(-2, 2**70), max_size=3)
                     if how == "shape" else JSON_VALUES)
        return lambda h, line, a: line.update({key: value})
    if how == "value":
        new = draw(st.floats())
        at = draw(st.integers(0, 10**6))

        def replace(a):
            a = a.copy()
            a.flat[at % a.size] = new
            return a
        return _reblob(key, replace)
    if how == "fill":
        new = draw(st.floats(allow_nan=False, allow_infinity=False)
                   | st.sampled_from([1e300, -1e300, 1e154, 1e-300]))
        return _reblob(key, lambda a: np.full_like(a, new))
    n = draw(st.integers(1, 16))
    raw_edit = ((lambda raw: raw[:-n]) if how == "cut"
                else (lambda raw: raw + bytes(n)))
    return lambda h, line, a: a.update({key: raw_edit(a[key].tobytes())})


@st.composite
def model_edits(draw, line):
    """(kind, edit of the header, line 2 and arrays or None, byte index to
    truncate or flip)."""
    kind = draw(st.sampled_from(["truncate", "flip", "flip-header",
                                 "flip-trailer", "cut-trailer", "short",
                                 "drop", "drop-config", "unknown-config",
                                 "config-type", "blob"]))
    if kind in ("truncate", "flip", "flip-header", "flip-trailer",
                "cut-trailer", "short"):
        return kind, None, draw(st.integers(0, 10**9))
    if kind == "blob":
        return kind, draw(blob_edits()), None
    config = line["config"]
    if kind == "drop":
        key = draw(st.sampled_from(sorted(line)))
        return kind, lambda h, line, a: line.__delitem__(key), None
    key = draw(st.sampled_from(sorted(config)))
    if kind == "drop-config":
        return kind, lambda h, line, a: line["config"].__delitem__(key), None
    if kind == "unknown-config":
        key = draw(st.text(min_size=1, max_size=8).filter(
            lambda k: k not in config))
        return kind, lambda h, line, a: line["config"].update({key: 1}), None
    value = draw(NOT_NUMBERS)
    return kind, lambda h, line, a: line["config"].update({key: value}), None


@FUZZ
@given(data=st.data())
def test_fuzzed_model_file_never_exits_4(run, fuzz_dir, data):
    _, out = run
    kind, edit, at = data.draw(model_edits(_model_document(out)[1]))
    model = fuzz_dir / "model.json"
    if edit is not None:
        _rechecksummed_model(out, model, edit)
    else:
        raw = bytearray((out / "model.json").read_bytes())
        if kind == "truncate":
            raw = raw[:at % len(raw)]
        elif kind == "cut-trailer":
            raw = raw[:-1 - at % 64]
        elif kind == "short":
            raw = raw[:at % 64]
        else:
            start, end = {"flip": (0, len(raw)),
                          "flip-header": (0, raw.index(b"\n") + 1),
                          "flip-trailer": (len(raw) - 64, len(raw))}[kind]
            raw[start + at % (end - start)] ^= data.draw(st.integers(1, 255))
        model.write_bytes(bytes(raw))
    cfg = _config(fuzz_dir, {"model": str(model)})
    patient = _write(fuzz_dir / "patient.json",
                     json.dumps(_validation_doc(out)))
    _exit_code(["predict", "--config", cfg, "--patient", patient])


FLOAT_CELLS = st.floats(width=64).map(np.float64)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_write_table_gives_the_f_string_csv_bytes(fuzz_dir, data):
    n = data.draw(st.integers(0, 5))

    def column(cells):
        return data.draw(st.lists(cells, min_size=n, max_size=n))

    xs, ys = column(FLOAT_CELLS), column(FLOAT_CELLS)
    n_above = column(st.integers(0, 2**62).map(np.int64))
    n_pos_above = column(st.integers(0, 2**62))
    corrected = np.array(column(st.booleans()), dtype=bool)
    rows = [[name, float(x), float(y)] for name, x, y in zip(
        column(st.text("abz:_", min_size=1)), xs, ys)]
    stack = np.array(data.draw(st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
        min_size=1, max_size=3)))
    thresholds = np.linspace(0.0, 1.0, n)
    path = fuzz_dir / "table.csv"
    for header, cells, expected in [
            (["fpr", "tpr"], zip(xs, ys),
             oracles.curve_csv("fpr,tpr", xs, ys)),
            (["threshold", "lr", "n_above", "n_pos_above", "corrected"],
             zip(xs, ys, n_above, n_pos_above, corrected.astype(int)),
             oracles.lr_curve_csv(xs, ys, n_above, n_pos_above, corrected)),
            (["series", "threshold", "lr"], rows,
             oracles.lr_baselines_csv(rows)),
            (["threshold", "lr_mean", "lr_std", "lr_min", "lr_max"],
             [[thresholds[i], stack[:, i].mean(), stack[:, i].std(),
               stack[:, i].min(), stack[:, i].max()] for i in range(n)],
             oracles.lr_ribbon_csv(thresholds, stack))]:
        ioutil.write_table(path, header, cells)
        assert path.read_text() == expected


def test_write_records_jsonl_gives_the_joined_lines(tmp_path):
    rows = [{"b": 1.5, "a": "\u00e9"}, {"codes": [], "x": [1, None]}]
    path = tmp_path / "rows.jsonl"
    ioutil.write_records_jsonl(path, iter(rows))
    lines = [json.dumps(d, sort_keys=True) for d in rows]
    assert path.read_text() == "\n".join(lines) + "\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    ioutil.write_records_jsonl(path, iter([]))
    assert path.read_bytes() == b""


def _saved_model(path, out):
    return save_model(load_model((out / "model.json").read_bytes(),
                                 "model.json")[0], path)


# (id, write(path, the run's output directory)): every writer of the
# package, and atomic_write_text with each kind of data it takes.
WRITERS = [
    ("text-str", lambda path, out: ioutil.atomic_write_text(
        path, "caf\u00e9\n")),
    ("text-bytes", lambda path, out: ioutil.atomic_write_text(
        path, b"\xff\xfe\x00\n")),
    ("text-chunks", lambda path, out: ioutil.atomic_write_text(
        path, iter(["a,b\n", b"\xff\n", "", "\u00e9" * 70000]))),
    ("json", lambda path, out: ioutil.atomic_write_json(
        path, {"b": [1.5, None], "a": "\u00e9"})),
    ("jsonl", lambda path, out: ioutil.write_records_jsonl(
        path, iter([{"b": 1.5}, {"a": "\u00e9"}]))),
    ("table", lambda path, out: ioutil.write_table(
        path, ["x", "y"], [[0.1, 2], ["z", 1e-300]])),
    ("model", _saved_model),
    ("svg", lambda path, out: svg.svg_line_plot(
        path, [("s", [0.0, 1.0], [2.0, 3.0])], "title", "x", "y")),
]


@pytest.mark.parametrize("write", [w for _, w in WRITERS],
                         ids=[name for name, _ in WRITERS])
def test_writers_give_the_sha256_of_the_bytes_written(run, tmp_path, write):
    path = tmp_path / "written"
    digest = write(path, run[1])
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("write, item", [
    (ioutil.atomic_write_text, lambda i: f"{i:010d}" * 1000 + "\n"),
    (ioutil.write_records_jsonl, lambda i: {"line": f"{i:010d}" * 1000})],
    ids=["atomic_write_text", "write_records_jsonl"])
def test_a_failed_streamed_write_keeps_the_old_bytes(tmp_path, write, item):
    """Chunks that raise after ~30 kB (past the file buffer, so bytes
    reached the temp file) leave the target's old bytes and no temp file."""
    path = tmp_path / "cohort.jsonl"
    path.write_bytes(b"old bytes\n")

    def chunks():
        for i in range(3):
            yield item(i)
        raise RuntimeError("the source failed")

    with pytest.raises(RuntimeError, match="the source failed"):
        write(path, chunks())
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cohort.jsonl"]


def test_write_records_jsonl_holds_no_copy_of_the_file(tmp_path):
    """Writing ~2000 synthesized encounters allocates at its peak less than a
    quarter of the file it writes: each line is written as it is encoded."""
    records = synthesize_cohort(defaults.default_catalog(), SynthConfig(
        n_per_class={"no_cancer": 1800, "liver": 200}, seed=5))
    rows = [record_to_dict(r) for r in records]
    assert len(rows) >= 1800
    path = tmp_path / "cohort.jsonl"
    tracemalloc.start()
    try:
        ioutil.write_records_jsonl(path, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4, (peak, path.stat().st_size)


@settings(max_examples=15, deadline=None)
@given(raw=st.binary(max_size=60) | st.text(alphabet="C2K7.0\t\n# x",
                                            max_size=60).map(str.encode))
def test_fuzzed_phecode_map_never_exits_4(run, fuzz_dir, raw):
    _, out = run
    pmap = fuzz_dir / "phecodes.tsv"
    pmap.write_bytes(raw)
    cfg = _config(fuzz_dir, {"labeled": str(out / "labeled.jsonl"),
                             "phecode_map": str(pmap)})
    _exit_code(["comorbid", "--config", cfg])


TRAIN_SECTION = {"hidden_width": 8, "latent_dim": 4, "w_recon": 1.0,
                 "w_kl": 0.1, "w_cls": 1.0, "pretrain_epochs": 1,
                 "finetune_epochs": 1, "batch_size": 64,
                 "mask_fraction": 0.25, "lr": 1e-3, "seed": 1,
                 "ci_scale": 1.0, "n_members": 1, "subsample": 0.8}
KNOWN_SECTION_KEYS = {f.name for cls in (SynthConfig, CohortSpec,
                                          RiskModelConfig, cli.PrepareConfig,
                                          cli.PredictConfig, cli.LrConfig,
                                          cli.ExplainConfig,
                                          cli.ComorbidConfig)
                      for f in dataclasses.fields(cls)} | {
    "n_members", "subsample", "split_seed", "enrich"}
LAB_MARKERS = {m.id for m in defaults.default_catalog().lab_markers}
NOT_INTS = NOT_NUMBERS | st.floats(allow_nan=False)
NOT_BOOLS = JSON_VALUES.filter(lambda v: not isinstance(v, bool))
# Values of the wrong type for each typed key of the sections read by
# commands (the train model keys are drawn from TRAIN_SECTION).
WRONG_TYPED = {
    ("cohort", "split_seed"): NOT_INTS.filter(lambda v: v is not None),
    ("cohort", "enrich"): NOT_BOOLS,
    ("prepare", "scale_demographics"): NOT_BOOLS,
    ("train", "n_members"): NOT_INTS,
    ("train", "subsample"): NOT_NUMBERS,
    ("predict", "min_n"): NOT_INTS,
    ("lr", "single_markers"):
        JSON_SCALARS.filter(lambda v: v is not None)
        | st.lists(JSON_VALUES, min_size=1, max_size=2).filter(
            lambda v: not all(isinstance(x, str) and x in LAB_MARKERS
                              for x in v)),
    **{("explain", key): NOT_INTS for key in (
        "n_samples", "n_permutations", "background_size", "top_k")},
    ("comorbid", "min_each"): NOT_INTS,
}
# Right-typed values out of range for each key with a range check. No size
# that allocates is drawn large: visits_per_patient stays below 10**5.
BELOW_ZERO = st.integers(-10**9, -1)
NOT_FINITE = st.sampled_from([math.nan, math.inf])
CLASSES = st.sampled_from(["no_cancer", "colorectal", "liver", "lung"])
UNKNOWN_CLASS = st.text(max_size=6).filter(
    lambda k: k not in ("no_cancer", "colorectal", "liver", "lung"))
OUT_OF_RANGE = {
    ("train", "seed"): BELOW_ZERO,
    ("train", "lr"): st.floats(max_value=0.0) | NOT_FINITE,
    ("train", "pretrain_epochs"): BELOW_ZERO,
    ("train", "finetune_epochs"): st.integers(-10**9, 0),
    ("train", "ci_scale"): st.floats(max_value=-1e-300) | NOT_FINITE,
    **{("train", key): st.floats(max_value=-1e-300) | st.just(math.nan)
       for key in ("w_recon", "w_kl", "w_cls")},
    ("synth", "visits_per_patient"): st.integers(-10**9, 0)
    | st.integers(1001, 10**5),
    # One above the limit only, which validate rejects before synth
    # allocates.
    ("synth", "n_per_class"): st.dictionaries(
        CLASSES, st.just(MAX_N_PER_CLASS + 1), min_size=1),
    # One above the limit only: a larger count allocates without bound.
    ("explain", "n_permutations"): st.integers(-10**9, 1)
    | st.just(MAX_PERMUTATIONS + 1),
    ("explain", "top_k"): st.integers(-10**9, 0),
    ("comorbid", "min_each"): BELOW_ZERO,
    # One above the limit only: a larger network allocates without bound.
    **{("train", key): st.just(MAX_WIDTH + 1)
       for key in ("hidden_width", "latent_dim")},
    # An encounter has at most one value per lab marker, so a min_markers
    # above the catalog's lab marker count leaves the cohort empty.
    ("cohort", "min_markers"): st.integers(-10**9, 0)
    | st.integers(len(LAB_MARKERS) + 1, 10**9),
    ("synth", "missingness"): st.dictionaries(
        st.text(max_size=6).filter(lambda k: k not in ("CMP", "CBC")),
        st.floats(0.0, 1.0), min_size=1),
    ("synth", "class_missingness_bias"): st.dictionaries(
        UNKNOWN_CLASS, st.floats(0.0, 1.0), min_size=1)
    | st.dictionaries(CLASSES, st.floats(max_value=-1e-300)
                      | st.floats(min_value=5.01) | NOT_FINITE, min_size=1),
    ("synth", "comorbidity_prevalence"): st.dictionaries(
        st.text("ABEIK0129.", min_size=1, max_size=6),
        st.dictionaries(UNKNOWN_CLASS, st.floats(0.0, 1.0), min_size=1)
        | st.dictionaries(CLASSES, st.floats(max_value=-1e-300)
                          | st.floats(min_value=1.0, exclude_min=True)
                          | st.just(math.nan), min_size=1), min_size=1),
}
SECTION_COMMANDS = {"paths": "synth", "synth": "synth", "cohort": "cohort",
                    "prepare": "prepare", "train": "train",
                    "predict": "predict", "lr": "lr", "explain": "explain",
                    "comorbid": "comorbid"}


@FUZZ
@given(data=st.data())
def test_fuzzed_run_config_never_exits_4(run, fuzz_dir, data):
    _, out = run
    inputs = {k: str(out / v) for k, v in [
        ("cohort", "cohort.jsonl"), ("labeled", "labeled.jsonl"),
        ("normalization", "normalization.json"), ("model", "model.json")]}
    config = {"paths": {"output_dir": str(fuzz_dir / "o"), **inputs},
              "master_seed": 99, "cancer_type": "liver",
              "train": dict(TRAIN_SECTION)}
    kind = data.draw(st.sampled_from(["top", "section", "unknown", "train",
                                      "typed", "ranged"]))
    command = "train"
    if kind == "top":
        config = data.draw(NOT_OBJECTS)
    elif kind == "section":
        section = data.draw(st.sampled_from(sorted(SECTION_COMMANDS)))
        command = SECTION_COMMANDS[section]
        config[section] = data.draw(NOT_OBJECTS)
    elif kind == "unknown":
        section = data.draw(st.sampled_from(sorted(
            SECTION_COMMANDS.keys() - {"paths"})))
        command = SECTION_COMMANDS[section]
        key = data.draw(st.text(min_size=1, max_size=8).filter(
            lambda k: k not in KNOWN_SECTION_KEYS))
        config.setdefault(section, {})[key] = 1
    elif kind == "train":
        config["train"][data.draw(st.sampled_from(sorted(TRAIN_SECTION)))] \
            = data.draw(NOT_NUMBERS)
    else:
        table = WRONG_TYPED if kind == "typed" else OUT_OF_RANGE
        section, key = data.draw(st.sampled_from(sorted(table)))
        command = SECTION_COMMANDS[section]
        config.setdefault(section, {})[key] = data.draw(table[section, key])
    cfg = _write(fuzz_dir / "c.json", json.dumps(config))
    # predict gets a valid patient, so only the config can be at fault.
    flags = ["--patient", _write(fuzz_dir / "patient.json", json.dumps(
        _validation_doc(out)))] if command == "predict" else []
    assert _exit_code([command, "--config", cfg, *flags]) == 3


def test_n_permutations_limit_is_inclusive():
    cli.ExplainConfig(n_permutations=MAX_PERMUTATIONS).validate()
    with pytest.raises(LabriskError, match=re.escape(
            f"n_permutations must be in [2, {MAX_PERMUTATIONS}], "
            f"got {MAX_PERMUTATIONS + 1}")):
        cli.ExplainConfig(n_permutations=MAX_PERMUTATIONS + 1).validate()


def test_train_log_carries_member_index(run):
    _, out = run
    rows = (out / "train_log.tsv").read_text().splitlines()[1:]
    members = [int(r.split("\t")[0]) for r in rows]
    assert members == [0] * 9 + [1] * 9  # 3 pretrain + 6 finetune epochs


def _assert_manifests_match_files(out):
    """Every manifest under `out` hashes each file it lists, and each
    digest is that of the file on disk."""
    for path in sorted(out.glob("**/*_manifest.json")):
        manifest = json.loads(path.read_text())
        files = set(manifest["inputs"]) | set(manifest["outputs"])
        assert set(manifest["sha256"]) == files, path
        for name, digest in manifest["sha256"].items():
            with open(name, "rb") as f:
                on_disk = hashlib.sha256(f.read()).hexdigest()
            assert on_disk == digest, (path, name)


def test_manifest_checksums_match_files(run):
    """Runs last, so it sees the manifest of every stage run above."""
    _, out = run
    names = {m.name for m in out.glob("**/*_manifest.json")}
    assert {"synth_manifest.json", "cohort_manifest.json",
            "prepare_manifest.json", "train_manifest.json"} <= names
    _assert_manifests_match_files(out)


@pytest.mark.parametrize("cancer_type", ["colorectal", "lung"])
def test_every_stage_runs_for_each_cancer_type(tmp_path, cancer_type):
    """The cancer types without planted-signal gates, at the run fixture's
    size: every stage exits 0 and every manifest's digests match the
    files."""
    cfg_path = str(_small_run_config(tmp_path, cancer_type))
    for cmd in ("synth", "cohort", "prepare", "train", "evaluate", "lr",
                "comorbid", "explain", "report"):
        assert _exit_code([cmd, "--config", cfg_path]) == 0, cmd
    assert len(list((tmp_path / "out").glob("**/*_manifest.json"))) == 9
    _assert_manifests_match_files(tmp_path / "out")


def test_report_copies_bundled_files_byte_for_byte(run, tmp_path):
    """A bundled file that is not UTF-8 is copied as it is, and its manifest
    digest is that of those bytes."""
    _, out = run
    raw = b"\xff\xfefpr,tpr\n0,0\n"
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / "roc.csv").write_bytes(raw)
    cfg = _config(tmp_path, {k: str(out / v) for k, v in SCORE_INPUTS})
    assert _exit_code(["report", "--config", cfg]) == 0
    bundle = tmp_path / "o" / "report"
    assert (bundle / "roc.csv").read_bytes() == raw
    digests = json.loads(
        (bundle / "report_manifest.json").read_text())["sha256"]
    assert digests[str(tmp_path / "o" / "roc.csv")] == \
        digests[str(bundle / "roc.csv")] == hashlib.sha256(raw).hexdigest()


# (command, the input's paths key or the output's name): inputs, then
# outputs.
REPLACED_FILES = [("predict", "model"), ("evaluate", "labeled"),
                  ("predict", "report.json"), ("evaluate", "metrics.json")]


@pytest.mark.parametrize("command, replaced", REPLACED_FILES)
def test_manifest_records_the_bytes_the_command_read(run, tmp_path,
                                                     monkeypatch, command,
                                                     replaced):
    """An input or an output replaced after the command has read or written
    it, but before its manifest is written, keeps the digest of the bytes
    the command read or wrote."""
    _, out = run
    inputs = {key: tmp_path / name for key, name in SCORE_INPUTS}
    for key, name in SCORE_INPUTS:
        shutil.copy(out / name, inputs[key])
    path = inputs.get(replaced, tmp_path / "o" / replaced)
    write_manifest = ioutil.write_manifest
    used = None

    def replacing_first(*args, **kwargs):
        nonlocal used
        used = hashlib.sha256(path.read_bytes()).hexdigest()
        path.write_bytes(b"replaced\n")
        return write_manifest(*args, **kwargs)

    monkeypatch.setattr(ioutil, "write_manifest", replacing_first)
    cfg = _config(tmp_path, {key: str(p) for key, p in inputs.items()})
    flags = ["--patient", str(_patient_file(out, tmp_path / "patient.json"))
             ] if command == "predict" else []
    assert _exit_code([command, "--config", cfg, *flags]) == 0
    manifest = json.loads(
        (tmp_path / "o" / f"{command}_manifest.json").read_text())
    assert manifest["sha256"][str(path)] == used


def test_manifests_record_wall_time_and_peak_rss(run):
    _, out = run
    manifests = sorted(out.glob("**/*_manifest.json"))
    assert len(manifests) >= 4
    for path in manifests:
        manifest = json.loads(path.read_text())
        for field in ("wall_s", "peak_rss_mb"):
            value = manifest[field]
            assert isinstance(value, float) and math.isfinite(value) \
                and value > 0, (path, field, value)


# --- manifest completeness: checked against what the process did --------------

class FileAudit:
    """An audit hook that records, apart for the command and for the
    manifest writer, the files opened for reading and the files renamed into
    place (os.replace raises os.rename)."""

    def __init__(self):
        self.phase = None  # "command", "manifest" or None: not recording
        self.files = {}  # (phase, "read" or "renamed"): [path]
        sys.addaudithook(self.hook)

    def hook(self, event, args):
        if self.phase is None:
            return
        if event == "open" and isinstance(args[0], str) \
                and args[2] & os.O_ACCMODE == os.O_RDONLY:
            self.files[self.phase, "read"].append(args[0])
        elif event == "os.rename":
            self.files[self.phase, "renamed"].append(args[1])

    def _recorded(self, fn, phase):
        def call(*args, **kwargs):
            was, self.phase = self.phase, phase
            try:
                return fn(*args, **kwargs)
            finally:
                self.phase = was
        return call

    def run(self, argv):
        """cli.main(argv) with the hook recording while the command runs and
        while its manifest is written, but not while main reads the config;
        returns (exit code and stderr, self.files)."""
        self.files = {(phase, kind): [] for phase in ("command", "manifest")
                      for kind in ("read", "renamed")}
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(cli.COMMANDS, argv[0],
                       self._recorded(cli.COMMANDS[argv[0]], "command"))
            mp.setattr(ioutil, "write_manifest",
                       self._recorded(ioutil.write_manifest, "manifest"))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
        return (code, err.getvalue()), self.files


# (id, command, extra flags, config): the test_cli run's commands, the plot
# flag, and the optional outside files.
AUDITED_RUNS = [
    ("synth", "synth", [], "plain"),
    ("cohort", "cohort", [], "plain"),
    ("prepare", "prepare", [], "plain"),
    ("train", "train", [], "plain"),
    ("evaluate", "evaluate", [], "plain"),
    ("lr", "lr", [], "plain"),
    ("comorbid", "comorbid", [], "plain"),
    ("predict", "predict", ["--patient"], "plain"),
    ("explain-patient", "explain", ["--patient"], "plain"),
    ("explain-summary", "explain", [], "plain"),
    ("report", "report", [], "plain"),
    ("evaluate-svg", "evaluate", ["--svg"], "plain"),
    ("lr-svg", "lr", ["--svg"], "plain"),
    ("report-svg", "report", ["--svg"], "plain"),
    ("synth-catalog", "synth", [], "catalog"),
    ("prepare-catalog", "prepare", [], "catalog"),
    ("train-catalog", "train", [], "catalog"),
    ("lr-catalog", "lr", [], "catalog"),
    ("comorbid-phecode-map", "comorbid", [], "phecode_map"),
]


# The runs whose manifest is not <command>_manifest.json.
MANIFESTS = {"explain-patient": "explain_patient_manifest.json",
             "report": "report/report_manifest.json",
             "report-svg": "report/report_manifest.json"}


@pytest.fixture(scope="module")
def audited(run, tmp_path_factory):
    """Each of AUDITED_RUNS, in order, in a fresh output directory under the
    audit: {id: ((exit code, stderr), manifest, FileAudit.files)}."""
    cfg_path, run_out = run
    base = tmp_path_factory.mktemp("audit")
    out = base / "out"
    patient = _write(base / "patient.json",
                     json.dumps(_validation_doc(run_out)))
    shutil.copy(run_out / "catalog.json", base / "catalog.json")
    (base / "phecodes.tsv").write_text("C22\t155\nK70\t317\n")
    config = json.loads(cfg_path.read_text())
    configs = {}
    for name, paths in (("plain", {}),
                        ("catalog", {"catalog": str(base / "catalog.json")}),
                        ("phecode_map",
                         {"phecode_map": str(base / "phecodes.tsv")})):
        config["paths"] = {"output_dir": str(out), **paths}
        configs[name] = _write(base / f"config-{name}.json",
                               json.dumps(config))
    audit = FileAudit()
    results = {}
    for run_id, command, flags, config_name in AUDITED_RUNS:
        argv = [command, "--config", configs[config_name], *flags]
        if "--patient" in flags:
            argv.append(patient)
        code, files = audit.run(argv)
        manifest = out / MANIFESTS.get(run_id, f"{command}_manifest.json")
        results[run_id] = (code, json.loads(manifest.read_text()), files)
    return results


@pytest.mark.parametrize("run_id", [r[0] for r in AUDITED_RUNS])
def test_manifest_lists_every_file_read_and_written(audited, tmp_path_factory,
                                                    run_id):
    code, manifest, files = audited[run_id]
    assert code == (0, ""), run_id
    root = os.path.realpath(tmp_path_factory.getbasetemp())

    def under_root(paths):
        return [p for p in map(os.path.realpath, paths)
                if p.startswith(root + os.sep)]

    inputs = set(map(os.path.realpath, manifest["inputs"]))
    outputs = set(map(os.path.realpath, manifest["outputs"]))
    assert inputs == set(under_root(files["command", "read"])), run_id
    assert outputs == set(under_root(files["command", "renamed"])), run_id
    # Each input is opened once, by the command; the manifest writer opens
    # no file.
    read = under_root(files["command", "read"])
    assert {p: read.count(p) for p in inputs} == dict.fromkeys(inputs, 1), \
        run_id
    assert files["manifest", "read"] == [], run_id
    assert set(manifest["inputs"]) | set(manifest["outputs"]) == \
        set(manifest["sha256"])
