"""Outside-in span tracer for the labrisk benchmark.

The tracer rebinds the names through which the benchmark's calls reach each
layer of ``src/labrisk`` (module attributes, class attributes and the CLI's
command table) to thin wrappers that record one span per call. Nothing under
``src/`` changes; ``uninstall`` restores every original binding.

Spans (name, start, end, parent, request, rows) live in flat in-memory
arrays, are written once by ``save`` and are reduced to total and self time
per name by ``summary``.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from labrisk import (catalog, cli, cohort, comorbid, explain, ioutil,
                     likelihood, metrics, model, nn, preprocess, svg, synth)

# (span name, bindings): every binding is a (namespace, attribute) pair the
# program looks the function up through. A function reached through two
# names (e.g. similar_cohort, bound in likelihood and in explain) lists both.
TRACED = [
    ("model.train_ensemble", [(cli, "train_ensemble"),
                              (model, "train_ensemble")]),
    ("model.pretrain", [(model, "pretrain")]),
    ("model.finetune", [(model, "finetune")]),
    ("model.RiskModel.pretrain_loss_and_grads",
     [(model.RiskModel, "pretrain_loss_and_grads")]),
    ("model.RiskModel.finetune_loss_and_grads",
     [(model.RiskModel, "finetune_loss_and_grads")]),
    ("model.save_model", [(cli, "save_model"), (model, "save_model")]),
    ("model.load_model", [(cli, "load_model"), (model, "load_model")]),
    ("model.RiskEnsemble.predict_batch",
     [(model.RiskEnsemble, "predict_batch")]),
    ("nn.Linear.forward", [(nn.Linear, "forward")]),
    ("nn.Linear.backward", [(nn.Linear, "backward")]),
    ("nn.BatchNorm.forward", [(nn.BatchNorm, "forward")]),
    ("nn.BatchNorm.backward", [(nn.BatchNorm, "backward")]),
    # nn.ReLU inherits both methods from LeakyReLU.
    ("nn.LeakyReLU.forward", [(nn.LeakyReLU, "forward")]),
    ("nn.LeakyReLU.backward", [(nn.LeakyReLU, "backward")]),
    ("nn.Adam.step", [(nn.Adam, "step")]),
    ("synth.synthesize_cohort", [(cli, "synthesize_cohort"),
                                 (synth, "synthesize_cohort")]),
    ("cohort.run_cohort_pipeline", [(cli, "run_cohort_pipeline"),
                                    (cohort, "run_cohort_pipeline")]),
    ("preprocess.fit_normalization", [(cli, "fit_normalization"),
                                      (preprocess, "fit_normalization")]),
    ("preprocess.vectorize_many", [(cli, "vectorize_many"),
                                   (preprocess, "vectorize_many")]),
    ("preprocess.vectorize", [(cli, "vectorize"),
                              (preprocess, "vectorize")]),
    ("ioutil.read_records_jsonl", [(ioutil, "read_records_jsonl")]),
    ("ioutil.write_records_jsonl", [(ioutil, "write_records_jsonl")]),
    ("ioutil.write_manifest", [(ioutil, "write_manifest")]),
    ("ioutil.atomic_write_text", [(ioutil, "atomic_write_text"),
                                  (svg, "atomic_write_text")]),
    ("catalog.record_from_dict", [(cli, "record_from_dict"),
                                  (ioutil, "record_from_dict"),
                                  (catalog, "record_from_dict")]),
    ("likelihood.build_report", [(likelihood, "build_report")]),
    ("likelihood.similar_cohort", [(likelihood, "similar_cohort"),
                                   (explain, "similar_cohort")]),
    ("likelihood.ScoredCohort.subset", [(likelihood.ScoredCohort, "subset")]),
    ("likelihood.lr_curve", [(likelihood, "lr_curve")]),
    ("explain.waterfall", [(cli, "waterfall"), (explain, "waterfall")]),
    ("explain.shap_values", [(explain, "shap_values")]),
    ("explain.NormalizedLrFn.__call__",
     [(explain.NormalizedLrFn, "__call__")]),
    ("metrics.roc", [(metrics, "roc")]),
    ("comorbid.build_comorbidity_table",
     [(comorbid, "build_comorbidity_table")]),
    ("svg.svg_line_plot", [(svg, "svg_line_plot")]),
]

# Spans whose first data argument is a batch: the span records its rows.
BATCHED = {"model.RiskEnsemble.predict_batch",
           "explain.NormalizedLrFn.__call__"}

STAGES = ["synth", "cohort", "prepare", "train", "evaluate", "lr",
          "comorbid", "report", "predict", "explain"]

# Every span name, in report order.
TIMED = [f"cli.{stage}" for stage in STAGES] + [name for name, _ in TRACED]

# Spans whose call count is reported: per-call costs an optimisation could
# remove or batch away.
COUNTED = {"model.RiskModel.pretrain_loss_and_grads",
           "model.RiskModel.finetune_loss_and_grads", "model.load_model",
           "model.RiskEnsemble.predict_batch", "nn.Linear.forward",
           "nn.Linear.backward", "nn.BatchNorm.forward",
           "nn.BatchNorm.backward", "nn.LeakyReLU.forward",
           "nn.LeakyReLU.backward", "nn.Adam.step", "preprocess.vectorize",
           "ioutil.read_records_jsonl", "ioutil.atomic_write_text",
           "catalog.record_from_dict", "likelihood.similar_cohort",
           "likelihood.ScoredCohort.subset",
           "explain.NormalizedLrFn.__call__"}


class Tracer:
    """Records spans of wrapped calls. Create one per run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.request = array("q")
        self.rows = array("q")
        self._stack = [-1]
        self._request = -1
        self.kinds: dict[int, str] = {}  # traced request -> kind
        self._patches: list[tuple[object, str, object]] = []
        self.similar_calls = 0
        self.similar_fallbacks = 0

    # --- recording ---

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def begin_request(self, request: int, kind: str) -> None:
        """Tag the spans that follow with `request`, an operation index of
        the given kind ("build", "predict" or "explain")."""
        self._request = request
        if self._patches:
            self.kinds[request] = kind

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        batched = name in BATCHED
        clock = time.perf_counter_ns
        spans_name, spans_parent = self.name, self.parent
        spans_start, spans_end = self.start, self.end
        spans_request, spans_rows, stack = self.request, self.rows, self._stack

        def traced(*args, **kwargs):
            i = len(spans_name)
            spans_name.append(nid)
            spans_parent.append(stack[-1])
            spans_request.append(self._request)
            # Methods receive self first; the batch is the next argument.
            spans_rows.append(np.atleast_2d(args[1]).shape[0] if batched
                              else 0)
            spans_end.append(0)
            stack.append(i)
            spans_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans_end[i] = clock()
                stack.pop()

        return traced

    def _count_similar(self, fn):
        """Counts similar_cohort calls that fall back to the min_n nearest
        neighbours because too few development scores lie inside the CI."""
        def counted(dev, assessment, min_n=50):
            result = fn(dev, assessment, min_n)
            self.similar_calls += 1
            if len(result) < min_n:
                self.similar_fallbacks += 1
            elif len(result) == min_n:
                lo, hi = assessment.ci
                inside = int(np.count_nonzero((dev.scores >= lo)
                                              & (dev.scores <= hi)))
                self.similar_fallbacks += inside < min_n
            return result
        return counted

    # --- installing ---

    def _patch(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, bindings in TRACED:
            for owner, attr in bindings:
                fn = owner.__dict__[attr]
                if name == "likelihood.similar_cohort":
                    fn = self._count_similar(fn)
                self._patch(owner, attr, self._wrap(fn, name))
        for stage in STAGES:
            self._patch(cli.COMMANDS, stage,
                        self._wrap(cli.COMMANDS[stage], f"cli.{stage}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # --- output ---

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.frombuffer(getattr(self, k), dtype=np.int64)
                for k in ("name", "parent", "start", "end", "request",
                          "rows")}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds, calls and rows."""
        a = self.arrays()
        dur = (a["end"] - a["start"]) / 1e9
        child = np.zeros(dur.size)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        k = len(self.names)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=k)
        calls = np.bincount(a["name"], minlength=k)
        rows = np.bincount(a["name"], weights=a["rows"], minlength=k)
        return {name: {"s": float(total[i]), "self_s": float(self_s[i]),
                       "calls": int(calls[i]), "rows": int(rows[i])}
                for i, name in enumerate(self.names)}

    def per_kind(self, name: str, kind: str) -> tuple[int, int, int]:
        """(calls, rows) of span `name` inside traced requests of `kind`,
        and the number of those requests."""
        requests = [r for r, k in self.kinds.items() if k == kind]
        a = self.arrays()
        if name not in self._name_id or not requests:
            return 0, 0, len(requests)
        sel = (a["name"] == self._name_id[name]) & np.isin(
            a["request"], np.array(requests, dtype=np.int64))
        return int(sel.sum()), int(a["rows"][sel].sum()), len(requests)
