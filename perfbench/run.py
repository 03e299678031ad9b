#!/usr/bin/env python3
"""labrisk benchmark: offline build, per-patient predict and explain.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):

- ``build``: the eight pipeline stages at the acceptance configuration,
  then a short predict and explain loop on the model it built.
- ``serve_predict``: set-up builds a model, then a closed loop of one client
  sends ``predict --patient`` requests for seeded validation patients, with a
  few ``explain --patient`` requests mixed in, for at least ``--seconds``.
- ``serve_explain``: the same set-up, then a closed loop of
  ``explain --patient`` requests for patients with >= 24 observed markers,
  with some predict requests mixed in, for at least ``--seconds``.

Every request goes through ``labrisk.cli.main`` in this process. Every output
is checked, and its sha256 is compared with earlier runs of the same code,
workload and seed in this checkout. With ``--trace 0`` the last stdout line is the JSON
result with the end-to-end metrics; with ``--trace 1`` the run wraps each
layer's functions from outside (see spans.py) and reports per-layer metrics
plus the tracer's own overhead. Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

N_PER_CLASS = {"no_cancer": 8000, "liver": 800}
# The acceptance configuration of the ROADMAP.
ACCEPTANCE_TRAIN = {"pretrain_epochs": 15, "finetune_epochs": 30,
                    "n_members": 10}
# The serve workloads' set-up model: same cohort, architecture and member
# count (so model.json and the development cohort have the acceptance sizes),
# trained for 4 instead of 45 epochs at a 10x learning rate to keep set-up
# short.
SERVE_TRAIN = {"pretrain_epochs": 1, "finetune_epochs": 3, "n_members": 10,
               "lr": 1e-3}
STAGES = ("synth", "cohort", "prepare", "train", "evaluate", "lr",
          "comorbid", "report")
SVG_STAGES = {"evaluate", "lr", "report"}
MIN_N = 50  # the CLI's default predict.min_n
MIN_WATERFALL_MARKERS = 24  # explain.ShapConfig.min_waterfall_markers
WATERFALL_ITEMS = 10  # top 9 plus the aggregated remainder
RECORD_KEYS = ("patient_id", "encounter_id", "date", "age_years", "sex",
               "measurements", "codes")


@dataclass(frozen=True)
class Workload:
    train: dict
    main: str  # the measured phase: "build", "predict" or "explain"
    # Distinct patients per request kind. Each is requested at least once per
    # run; the serve loops then cycle on until --seconds have passed.
    requests: dict
    # The same for each of the two loops (untraced, then traced) that give
    # the tracer's overhead on the serve workloads.
    traced: dict


WORKLOADS = {
    # Not in BENCHMARK.json: its short predict/explain loop is too unsteady
    # on a shared 2-vCPU host. Run it by hand for the acceptance build.
    "build": Workload(ACCEPTANCE_TRAIN, "build", {"predict": 20, "explain": 3},
                      {"predict": 20, "explain": 3}),
    # p90 needs >= 100 samples, ten beyond it. One explain follows every
    # fourth predict, so a run has at least 27 explains (a p75 of fewer than
    # 40 samples; explain_p75_ms belongs to serve_explain).
    "serve_predict": Workload(SERVE_TRAIN, "predict",
                              {"predict": 110, "explain": 27},
                              {"predict": 20, "explain": 3}),
    # p75 needs >= 40 samples, ten beyond it. One predict follows every
    # explain, so a run has at least 40 predicts (a p90 of fewer than 100
    # samples; predict_p90_ms belongs to serve_predict).
    "serve_explain": Workload(SERVE_TRAIN, "explain",
                              {"explain": 40, "predict": 40},
                              {"explain": 10, "predict": 5}),
}


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def auc(scores, labels) -> float:
    """Tie-aware ROC AUC (Mann-Whitney), independent of labrisk.metrics."""
    pairs = sorted(zip(scores, labels))
    rank_sum, i, n = 0.0, 0, len(pairs)
    while i < n:
        j = i
        while j < n and pairs[j][0] == pairs[i][0]:
            j += 1
        mid_rank = (i + j + 1) / 2.0  # 1-based mean rank of the tie group
        rank_sum += mid_rank * sum(y for _, y in pairs[i:j])
        i = j
    n_pos = sum(y for _, y in pairs)
    n_neg = n - n_pos
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def code_digest() -> str:
    """sha256 over the files that decide the outputs: the package under
    src/labrisk and this file (names and contents)."""
    pkg = os.path.join(SRC, "labrisk")
    paths = [os.path.abspath(__file__)]
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        paths += [os.path.join(dirpath, f) for f in filenames]
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: os.path.relpath(p, ROOT)):
        with open(path, "rb") as f:
            data = f.read()
        h.update(f"{os.path.relpath(path, ROOT)}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def rusage() -> tuple[float, float]:
    """(cpu seconds, peak RSS in MB), each of this process plus its
    waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (me.ru_maxrss + kids.ru_maxrss) / 1024.0


class Run:
    """One benchmark run: issues CLI operations, checks their outputs and
    keeps the determinism record."""

    def __init__(self, workload: str, seed: int, workdir: str, tracer=None):
        self.code = code_digest()
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Keyed by the code too: only runs of the same code must match.
        self.record_path = os.path.join(WORK, "records", self.code[:16],
                                        f"{workload}-seed{seed}.json")
        self.previous = {}
        if os.path.exists(self.record_path):
            with open(self.record_path, encoding="utf-8") as f:
                self.previous = json.load(f)
        self.record: dict[str, str] = {}
        # Per request kind: latency count, median and requests per second.
        self.requests: dict[str, dict] = {}

    # --- operations ---

    def op(self, kind: str, argv: list[str]) -> tuple[int, float]:
        """One in-process CLI call; returns (exit code, wall seconds)."""
        if self.tracer is not None:
            self.tracer.begin_request(self.attempted, kind)
        self.attempted += 1
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        return rc, time.perf_counter() - t0

    def fail(self, what: str, problems: list[str]) -> None:
        """Counts the operation as failed if any check found a problem."""
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def remember(self, key: str, digest: str) -> list[str]:
        """Record an output hash; a differing hash for the same key in this
        run or in an earlier run of this code, workload and seed is a
        failure."""
        seen = self.record.get(key, self.previous.get(key))
        self.record.setdefault(key, digest)
        if seen is not None and seen != digest:
            return [f"sha256 of {key} differs from an earlier run "
                    f"({digest[:12]} != {seen[:12]})"]
        return []

    def save_record(self) -> None:
        os.makedirs(os.path.dirname(self.record_path), exist_ok=True)
        merged = {**self.record, **self.previous}
        tmp = self.record_path + f".{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(merged, f, indent=0, sort_keys=True)
        os.replace(tmp, self.record_path)

    # --- build ---

    def write_config(self, name: str, train: dict) -> tuple[str, str]:
        """Writes a run configuration; returns (its path, output dir)."""
        out = os.path.join(self.workdir, name)
        cfg = {"paths": {"output_dir": out}, "master_seed": self.seed,
               "cancer_type": "liver",
               "synth": {"n_per_class": N_PER_CLASS}, "train": train}
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(cfg, f)
        return path, out

    def build(self, cfg_path: str, out: str) -> tuple[float, float]:
        """The eight stages; returns (wall seconds of the stage calls,
        validation AUC)."""
        total, val_auc = 0.0, float("nan")
        for stage in STAGES:
            argv = [stage, "--config", cfg_path]
            if stage in SVG_STAGES:
                argv.append("--svg")
            rc, dt = self.op("build", argv)
            total += dt
            problems = [] if rc == 0 else [f"exit code {rc}"]
            if rc == 0 and stage == "train":
                problems += self.remember(
                    "model.json", sha256(os.path.join(out, "model.json")))
            if rc == 0 and stage == "evaluate":
                with open(os.path.join(out, "metrics.json"),
                          encoding="utf-8") as f:
                    val_auc = json.load(f)["auc"]
                problems += planted_signal_gates(out, val_auc) \
                    if finite(val_auc) else [f"validation AUC {val_auc!r}"]
            self.fail(f"build {stage}", problems)
        return total, val_auc

    # --- requests ---

    def request(self, kind: str, cfg_path: str, out: str,
                patient: dict) -> float:
        rc, dt = self.op(kind, [kind, "--config", cfg_path,
                                "--patient", patient["path"]])
        if rc != 0:
            self.fail(f"{kind} {patient['id']}", [f"exit code {rc}"])
            return dt
        name = "report.json" if kind == "predict" else "waterfall.json"
        path = os.path.join(out, name)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        problems = (check_report(doc) if kind == "predict"
                    else check_waterfall(doc))
        problems += self.remember(f"{kind}:{patient['id']}", sha256(path))
        self.fail(f"{kind} {patient['id']}", problems)
        return dt

    def mixed_loop(self, cfg_path: str, out: str, main: tuple[str, list],
                   side: tuple[str, list],
                   seconds: float = 0.0) -> dict[str, list[float]]:
        """Closed loop of one client. `main` and `side` are (kind, patients).
        One side request follows every `every` main requests, so the side
        kind is spread evenly over the loop. Both patient lists are cycled
        until each patient has been requested and `seconds` have passed.
        Returns latencies per kind."""
        (kind, patients), (side_kind, side_patients) = main, side
        lat = {kind: [], side_kind: []}
        every = max(1, len(patients) // len(side_patients))
        t0 = time.perf_counter()
        i = 0
        while (len(lat[kind]) < len(patients)
               or len(lat[side_kind]) < len(side_patients)
               or time.perf_counter() - t0 < seconds):
            lat[kind].append(self.request(kind, cfg_path, out,
                                          patients[i % len(patients)]))
            i += 1
            if i % every == 0:
                lat[side_kind].append(self.request(
                    side_kind, cfg_path, out,
                    side_patients[(i // every - 1) % len(side_patients)]))
        return lat


# --- output checks -------------------------------------------------------------

def planted_signal_gates(out: str, val_auc: float) -> list[str]:
    """The ROADMAP's planted-signal gates on a finished build."""
    problems = []
    if not val_auc >= 0.80:
        problems.append(f"AUC {val_auc:.4f} < 0.80")
    lr_at = {}
    with open(os.path.join(out, "lr_curve.csv"), encoding="utf-8") as f:
        next(f)
        for line in f:
            t, lr = (float(x) for x in line.split(",")[:2])
            for want in (0.2, 0.8):
                if abs(t - want) < 1e-9:
                    lr_at[want] = lr
    if len(lr_at) < 2:
        problems.append("LR curve truncated before t=0.8")
    elif not lr_at[0.8] >= 2.0 * lr_at[0.2]:
        problems.append(f"LR(0.8)={lr_at[0.8]:.4g} < 2*LR(0.2)="
                        f"{2 * lr_at[0.2]:.4g}")
    recs, labels = [], []
    with open(os.path.join(out, "labeled.jsonl"), encoding="utf-8") as f:
        for line in f:
            d = json.loads(line)
            if d["split"] == "validation":
                recs.append(complete_derived(record_from_dict(d)))
                labels.append(int(d["label"]))
    catalog = default_catalog()
    oor_auc = auc([oor_score(r, catalog)[0] for r in recs], labels)
    if not val_auc >= oor_auc + 0.05:
        problems.append(f"AUC {val_auc:.4f} < OoR AUC {oor_auc:.4f} + 0.05")
    return problems


def check_report(doc: dict) -> list[str]:
    problems = []
    numbers = [doc.get(k) for k in (
        "risk_score", "pre_test_probability", "post_test_probability",
        "pre_test_odds", "post_test_odds", "likelihood_ratio",
        "similar_cohort_size")]
    numbers += list(doc.get("risk_ci") or [None])
    members = doc.get("per_member_scores") or []
    if not members or not all(finite(x) for x in numbers + members):
        return ["report has a missing or non-finite field"]
    if not doc["likelihood_ratio"] > 0:
        problems.append(f"likelihood_ratio {doc['likelihood_ratio']} <= 0")
    if doc["similar_cohort_size"] < MIN_N:
        problems.append(f"similar_cohort_size {doc['similar_cohort_size']} "
                        f"< {MIN_N}")
    mean = float(np.mean(members))
    if doc["risk_score"] != mean:
        problems.append(f"risk_score {doc['risk_score']!r} != mean of "
                        f"per_member_scores {mean!r}")
    return problems


def check_waterfall(doc: dict) -> list[str]:
    items = doc.get("items") or []
    if len(items) != WATERFALL_ITEMS:
        return [f"{len(items)} waterfall items, expected {WATERFALL_ITEMS}"]
    phis = [i.get("phi") for i in items]
    if not all(finite(x) for x in phis + [doc.get("base_value"),
                                          doc.get("fx")]):
        return ["waterfall has a missing or non-finite field"]
    residual = doc["base_value"] + math.fsum(phis) - doc["fx"]
    if abs(residual) > 1e-9:
        return [f"base_value + sum(phi) - fx = {residual:.3e}"]
    return []


# --- inputs --------------------------------------------------------------------

def draw_patients(out: str, dest: str, seed: int, n: int,
                  min_markers: int = 0) -> list[dict]:
    """Writes n patient files: one encounter each of n distinct validation
    patients drawn by seed, positives in the validation label mix."""
    rows = []
    with open(os.path.join(out, "labeled.jsonl"), encoding="utf-8") as f:
        for line in f:
            d = json.loads(line)
            if d["split"] == "validation":
                rows.append(d)
    prevalence = sum(1 for d in rows if d["label"]) / len(rows)
    rng = np.random.default_rng(seed)
    eligible = [rows[i] for i in rng.permutation(len(rows))
                if len(rows[i]["measurements"]) >= min_markers]
    firsts = {}
    for d in eligible:
        firsts.setdefault(d["patient_id"], d)
    pos = [d for d in firsts.values() if d["label"]]
    neg = [d for d in firsts.values() if not d["label"]]
    n_pos = min(len(pos), round(n * prevalence))
    chosen = pos[:n_pos] + neg[:n - n_pos]
    if len(chosen) < n:
        raise RuntimeError(
            f"only {len(chosen)} eligible validation patients")
    chosen = [chosen[i] for i in rng.permutation(len(chosen))]
    os.makedirs(dest, exist_ok=True)
    patients = []
    for d in chosen:
        path = os.path.join(dest, f"{d['encounter_id']}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({k: d[k] for k in RECORD_KEYS}, f)
        patients.append({"id": d["encounter_id"], "path": path})
    return patients


# --- workloads -----------------------------------------------------------------

def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, weighted by the Beta((n+1)q, (n+1)(1-q)) mass of their rank
    interval. On a shared host one run's latencies spread over a wide range
    with little mass near the median, so a single order statistic jumps from
    run to run; this weighted mean is far steadier."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 200 * n + 1)
    log_pdf = np.full(grid.shape, -np.inf)
    inner = grid[1:-1]
    log_pdf[1:-1] = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def run_workload(run: Run, w: Workload, seconds: float, tracer) -> dict:
    """Runs one workload; returns its end-to-end metrics (untraced) or the
    figures the traced report needs."""
    traced = tracer is not None
    t0 = time.perf_counter()
    cfg, out = run.write_config("out", w.train)
    setup_s = time.perf_counter() - t0
    if w.main == "build":
        if traced:  # untraced reference for the tracer's overhead
            ref, _ = run.build(*run.write_config("ref", w.train))
            tracer.install()
        builds = []
        t_loop = time.perf_counter()
        while not builds or time.perf_counter() - t_loop < seconds:
            builds.append(run.build(cfg, out))
        build_s = statistics.median(b[0] for b in builds)
        val_auc = builds[0][1]
    else:
        if traced:
            tracer.install()
        # Set-up counts the stage calls, not the output checks.
        build_s, val_auc = run.build(cfg, out)
        setup_s += build_s
    counts = w.traced if traced else w.requests
    t0 = time.perf_counter()
    pts = {"predict": draw_patients(out, os.path.join(run.workdir, "predict"),
                                    run.seed, counts["predict"]),
           "explain": draw_patients(out, os.path.join(run.workdir, "explain"),
                                    run.seed + 1, counts["explain"],
                                    MIN_WATERFALL_MARKERS)}
    setup_s += time.perf_counter() - t0
    model_bytes = os.path.getsize(os.path.join(out, "model.json"))
    main, side = (("explain", "predict") if w.main == "explain"
                  else ("predict", "explain"))
    if traced and w.main != "build":
        tracer.uninstall()
        ref = statistics.median(run.mixed_loop(
            cfg, out, (main, pts[main]), (side, pts[side]))[main]) * 1e3
        tracer.install()
    if not traced:
        # Warm-up, checked but not timed, so that one-off costs of the first
        # request of each kind after set-up stay out of the latencies.
        for kind in (main, side):
            run.request(kind, cfg, out, pts[kind][0])
    lat = run.mixed_loop(cfg, out, (main, pts[main]), (side, pts[side]),
                         seconds if w.main == main and not traced else 0.0)
    if traced:
        tracer.uninstall()
        now = (build_s if w.main == "build"
               else statistics.median(lat[main]) * 1e3)
        return {"overhead_share": now / ref - 1.0, "model_bytes": model_bytes}
    run.requests = {k: {"n": len(v), "p50_ms": quantile(v, 0.5) * 1e3,
                        "per_s": len(v) / sum(v)} for k, v in lat.items()}
    rss = rusage()[1]
    m = {"setup_s": metric(setup_s, "s")}
    if w.main == "build":
        # On the serve workloads the build is the set-up, which setup_s
        # reports; one ~8 s build per run is too short to be steady there.
        m["build_s"] = metric(build_s, "s")
    m["val_auc"] = metric(val_auc, "auc")
    # Tail latencies only: on a shared host a run's latencies mix a fast and
    # a slow state whose shares change from run to run. The median and the
    # mean move with those shares; p90 and p75 sit in the slow state. The
    # median and requests per second are printed in the `requests` line.
    m["predict_p90_ms"] = metric(quantile(lat["predict"], 0.9) * 1e3, "ms")
    m["explain_p75_ms"] = metric(quantile(lat["explain"], 0.75) * 1e3, "ms")
    m["peak_rss_mb"] = metric(rss, "MB")
    m["success_share"] = metric(
        (run.attempted - run.failed) / max(1, run.attempted), "ratio")
    return m


def layer_metrics(tracer, w: Workload, figures: dict) -> dict:
    """Per-layer metrics of a traced run."""
    summary = tracer.summary()
    m = {}
    for name in spans.TIMED:
        s = summary[name]
        m[f"{name}.s"] = metric(s["s"], "s")
        m[f"{name}.self_s"] = metric(s["self_s"], "s")
        if name in spans.COUNTED:
            m[f"{name}.calls"] = metric(s["calls"], "count")
    calls, rows, n = tracer.per_kind("explain.NormalizedLrFn.__call__",
                                     "explain")
    m["explain.value_fn.calls_per_request"] = metric(calls / n, "count")
    m["explain.value_fn.rows_per_request"] = metric(rows / n, "count")
    pb = "model.RiskEnsemble.predict_batch"
    m[f"{pb}.rows"] = metric(summary[pb]["rows"], "count")
    calls, rows, _ = tracer.per_kind(pb, w.main)
    m[f"{pb}.rows_per_call"] = metric(rows / calls, "count")
    m["likelihood.similar_cohort.fallback_share"] = metric(
        tracer.similar_fallbacks / tracer.similar_calls, "ratio")
    m["model_json.bytes"] = metric(figures["model_bytes"], "bytes")
    calls, _, n = tracer.per_kind("ioutil.read_records_jsonl", "build")
    m["ioutil.read_records_jsonl.calls_per_build"] = metric(
        calls * len(STAGES) / n, "count")
    m["cpu_s"] = metric(rusage()[0], "s")
    m["trace.overhead_share"] = metric(figures["overhead_share"], "ratio")
    m["trace.spans"] = metric(len(tracer.name), "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    workdir = os.path.join(WORK, f"run-{args.workload}-{args.seed}-"
                                 f"{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = Run(args.workload, args.seed, workdir, tracer)
    try:
        figures = run_workload(run, w, args.seconds, tracer)
        if tracer is not None:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            tracer.save(os.path.join(WORK, "traces", f"{args.workload}.npz"))
            metrics = layer_metrics(tracer, w, figures)
        else:
            metrics = figures
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    run.save_record()

    digest = hashlib.sha256(json.dumps(
        run.record, sort_keys=True).encode()).hexdigest()
    print("environment " + json.dumps(environment(), sort_keys=True))
    if run.requests:
        print("requests " + json.dumps(run.requests))
    print("record " + json.dumps({
        "code_sha256": run.code, "workload": args.workload, "seed": args.seed,
        "model.json": run.record.get("model.json"),
        "outputs": len(run.record), "outputs_sha256": digest}))
    for p in run.problems:
        print(f"FAILED {p}", file=sys.stderr)
    for name, v in metrics.items():
        print(f"{name:48s} {v['value']:>16.6f} {v['unit']}")
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if not os.path.isfile(os.path.join(SRC, "labrisk", "__init__.py")):
    sys.exit(f"error: {SRC}/labrisk not found; run from a labrisk checkout")
sys.path.insert(0, SRC)
# One client, one thread: multi-threaded BLAS on a small shared host is both
# slower and noisier for labrisk's small matrices. Set before numpy loads.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
import numpy as np  # noqa: E402

from labrisk import cli  # noqa: E402
from labrisk.catalog import record_from_dict  # noqa: E402
from labrisk.defaults import default_catalog  # noqa: E402
from labrisk.likelihood import oor_score  # noqa: E402
from labrisk.preprocess import complete_derived  # noqa: E402

import spans  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
