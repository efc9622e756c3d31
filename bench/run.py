"""Outside-in benchmark of the newstrend batch pipeline.

    python3 bench/run.py --workload wide|deep|lexicon|all [--seed 55]
                         [--seconds 40] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
`src/`, so nothing is installed or built. One repetition generates the
workload's inputs from the seed with `newstrend.synth` (timed as `setup_s`;
an untraced repetition does it SETUP_SAMPLES times) and then runs the seven
stages ingest .. evaluate one after another, each as its own
`python -m newstrend.cli <stage>` process, the way a user runs them.
Each stage process is reaped with `os.wait4`, which gives its CPU time and
peak RSS. Repetitions continue while another one fits in `--seconds`; every
metric is the median over the repetitions of the run.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
repetitions with traced ones, where each stage goes through
`bench/launcher.py` and the public functions of every module are wrapped in
spans; it prints the per-layer metrics, the tracing overhead and how much of
each stage's wall time the top-level spans cover.

Every repetition is checked: input digests against `bench/digests.json`
("workload changed" if they differ), stage exit codes, that `report.txt`
parses, that accuracy and MCC reach the workload's floor and, when traced,
that every trace target was found. A seed with no recorded digest is guarded
by regenerating the default seed's inputs once. A run also fails if the
stage processes would run more BLAS threads than `nproc`. The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. Stage logs, artifacts and a full result file (with the
environment record) are left under `.bench_work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

STAGES = ("ingest", "label", "pot", "train-extractor", "score", "train-summarizer", "evaluate")
INPUTS = ("news.jsonl", "prices.csv")
RHO = 0.9
DEFAULT_SEED = 55
RUN_LIMIT_S = 170.0  # every stage is killed by then, inside the 180 s a run may take
IMPORT_PROBES = 3
# set-up is short and noisy, so an untraced repetition times it this often
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    weeks: int
    articles_per_week: int
    filler_vocab: int
    config: dict


# Sizes are scaled so that one repetition takes about ten seconds on a
# 2-core machine. Each workload is many weeks of few articles: the extractor
# generalizes across weeks only when it is trained on many of them, and a
# long chronological test split keeps accuracy and MCC steady across seeds.
# wide and deep share the extractor layers (polarity vocabulary 128,
# hidden 512) and differ in what they do with them.
WORKLOADS = {
    # Inference-heavy: scores all 12 articles of each of ~320 weeks, 12 rows
    # per call sharing one week's polarity matrix, so `ExtractorModel.forward`
    # is the largest layer. Five epochs is the least training that keeps
    # accuracy steady across seeds.
    "wide": Workload(
        weeks=400, articles_per_week=12, filler_vocab=300,
        config={
            "polarity.vocab_size": 128,
            "extractor.max_weeks_per_class": 40,
            "extractor.epochs": 5,
            "summarizer.n_sample": 12,
            "summarizer.train_weeks": 40,
        },
    ),
    # Training-heavy: the same extractor layers run as forward + backward +
    # Adam update for ten epochs; scoring samples only 4 articles a week.
    "deep": Workload(
        weeks=300, articles_per_week=12, filler_vocab=300,
        config={
            "polarity.vocab_size": 128,
            "extractor.max_weeks_per_class": 35,
            "extractor.epochs": 10,
            "summarizer.n_sample": 4,
            "summarizer.train_weeks": 40,
        },
    ),
    # Corpus- and polarity-heavy: an 800-word filler vocabulary and 80
    # training weeks load TF-IDF ranking, on top of parsing, tokenizing and
    # week assignment, while the extractor is tiny and should read as idle.
    "lexicon": Workload(
        weeks=340, articles_per_week=12, filler_vocab=800,
        config={
            "polarity.vocab_size": 64,
            "extractor.dim": 32,
            "extractor.emb_dim": 32,
            "extractor.hidden": 64,
            "extractor.epochs": 6,
            "extractor.max_weeks_per_class": 40,
            "summarizer.n_sample": 10,
            "summarizer.train_weeks": 100,
        },
    ),
}
COMMON_CONFIG = {"labels.policy": "binary_asymmetric"}

# Planted-signal quality floors at rho 0.9: every workload scores 0.82 to
# 0.94 accuracy across seeds, chance is 0.5 and an MCC of 0.
MIN_ACCURACY = 0.65
MIN_MCC = 0.3

SKIP_REASONS = {
    "extractor train/dev week": "train_dev_week",
    "no articles": "no_articles",
    "no target week": "no_target_week",
    "target week outside policy bins": "outside_policy_bins",
}

# child process that reports what the stage processes will run with
ENV_PROBE = r"""
import ctypes, glob, json, os, platform
import numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libdirs = [os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs"),
           os.path.join(os.path.dirname(numpy.__file__), ".libs")]
for lib in sorted(p for d in libdirs for p in glob.glob(os.path.join(d, "*openblas*"))):
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
    if threads is not None:
        break
print(json.dumps({
    "nproc": len(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_threads": threads,
    "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS") if k in os.environ},
}))
"""


@dataclass
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Rep:
    traced: bool
    setup_s: list = field(default_factory=list)
    pipeline_s: float = 0.0
    total_s: float = 0.0
    stages: dict = field(default_factory=dict)
    accuracy: float | None = None
    mcc: float | None = None
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    def check(self, ok: bool, error: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(error)
        return ok


def child_env() -> dict:
    """The user's environment, with `src/` importable and no thread override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], cwd: Path, log_stem: Path, deadline: float) -> Proc:
    """Run one process to completion and read its resources with wait4."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - start, 1.0), _kill, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    # reaped by wait4, so tell Popen the exit code it can no longer collect
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def setup_inputs(workload: Workload, seed: int, workdir: Path) -> float:
    """Generate news.jsonl and prices.csv into `workdir`; returns seconds taken."""
    from newstrend import synth

    settings = synth.SynthSettings(
        weeks=workload.weeks, articles_per_week=workload.articles_per_week,
        rho=RHO, seed=seed, filler_vocab=workload.filler_vocab,
    )
    start = time.perf_counter()
    synth.write_outputs(settings, workdir / INPUTS[0], workdir / INPUTS[1])
    return time.perf_counter() - start


def input_digests(workdir: Path) -> dict:
    return {name: sha256_file(workdir / name) for name in INPUTS}


def parse_report(path: Path) -> tuple[float, float] | None:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    acc = re.search(r"^accuracy: (-?[0-9.]+)$", text, re.M)
    mcc = re.search(r"^mcc: (-?[0-9.]+)", text, re.M)
    if not text.startswith("evaluation report\n") or acc is None or mcc is None:
        return None
    return float(acc.group(1)), float(mcc.group(1))


def run_rep(name: str, workload: Workload, seed: int, expected: dict | None,
            traced: bool, index: int, deadline: float) -> Rep:
    rep_start = time.perf_counter()
    rep = Rep(traced=traced)
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "logs").mkdir(parents=True)
    (workdir / "config.json").write_text(
        json.dumps({**COMMON_CONFIG, **workload.config}, sort_keys=True), encoding="utf-8"
    )
    tracer = None
    if traced:
        from launcher import SYNTH_TARGETS, Tracer

        tracer = Tracer(f"{name}-{seed}-{index}-setup")
        tracer.install(SYNTH_TARGETS)
    try:
        rep.setup_s = [setup_inputs(workload, seed, workdir)
                       for _ in range(1 if traced else SETUP_SAMPLES)]
    finally:
        if tracer is not None:
            tracer.uninstall()
    if expected is not None and not rep.check(
        input_digests(workdir) == expected, "workload changed: input digests differ"
    ):
        return rep

    start = time.perf_counter()
    for stage in STAGES:
        cli_args = [stage, "--workdir", ".", "--config", "config.json"]
        if traced:
            spans = workdir / "logs" / f"{stage}.spans.json"
            cmd = [sys.executable, str(BENCH / "launcher.py"), str(spans),
                   f"{name}-{seed}-{index}-{stage}", *cli_args]
        else:
            cmd = [sys.executable, "-m", "newstrend.cli", *cli_args]
        proc = spawn(cmd, workdir, workdir / "logs" / stage, deadline)
        rep.stages[stage] = proc
        if not rep.check(proc.returncode == 0, f"{stage} exited with {proc.returncode}"):
            _print_tail(workdir / "logs" / f"{stage}.err")
            break
    rep.pipeline_s = time.perf_counter() - start

    scores = parse_report(workdir / "report.txt")
    if rep.check(scores is not None, "report.txt is missing or does not parse"):
        rep.accuracy, rep.mcc = scores
        rep.check(rep.accuracy >= MIN_ACCURACY, f"accuracy {rep.accuracy} below {MIN_ACCURACY}")
        rep.check(rep.mcc >= MIN_MCC, f"mcc {rep.mcc} below {MIN_MCC}")
    if traced and not rep.failed:
        rep.layers = layer_metrics(workdir, rep, tracer)
    rep.total_s = time.perf_counter() - rep_start
    return rep


def _print_tail(path: Path) -> None:
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    for line in lines[-10:]:
        print(f"  | {line}", file=sys.stderr)


class SpanStats:
    """Per-name totals over the spans of one traced repetition."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.durations: dict[str, list[int]] = {}
        self.attrs: dict[str, list[dict]] = {}

    def add(self, spans: list[list]) -> None:
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        for i, (name, start, end, _, attrs) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + (end - start)
            self.self_ns[name] = self.self_ns.get(name, 0) + (end - start - child_ns[i])
            self.durations.setdefault(name, []).append(end - start)
            if attrs:
                self.attrs.setdefault(name, []).append(attrs)

    def s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def attr_sum(self, name: str, key: str) -> int:
        return sum(a.get(key, 0) for a in self.attrs.get(name, []))


def _percentile(values: list[int], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    return sorted(values)[math.ceil(q * len(values)) - 1]


def layer_metrics(workdir: Path, rep: Rep, setup_tracer) -> dict:
    """Per-layer metrics of one traced repetition, from its span files."""
    every = SpanStats()
    every.add(setup_tracer.spans)
    per_stage = {}
    out: dict[str, float] = {}
    missing = set(setup_tracer.missing)
    for stage in STAGES:
        payload = json.loads((workdir / "logs" / f"{stage}.spans.json").read_text())
        missing.update(payload["missing"])
        spans = payload["spans"]
        every.add(spans)
        per_stage[stage] = stats = SpanStats()
        stats.add(spans)
        covered = sum(end - start for _, start, end, parent, _ in spans if parent is None)
        out[f"cli.{stage}.span_coverage"] = covered / 1e9 / rep.stages[stage].wall_s
    # a target that is gone would read as a layer taking no time
    from launcher import SYNTH_TARGETS, TARGETS

    for module_name, path, _ in (*SYNTH_TARGETS, *TARGETS):
        target = f"{module_name}.{path}"
        rep.check(target not in missing, f"trace target not found: {target}")

    with open(workdir / "corpus.jsonl", encoding="utf-8") as fh:
        n_records = sum(1 for _ in fh)
    fwd, lag = "extractor.ExtractorModel.forward", "extractor.ExtractorModel.loss_and_grads"
    dataset = "summarizer.build_summarizer_dataset"
    # Training runs forward too (inside loss_and_grads and on the dev split),
    # on shuffled batches from many weeks; the per-call forward figures are
    # those of scoring, where the rows of one call share a week.
    score = per_stage["score"]
    out.update({
        "corpus.ingest_news.s": every.s("corpus.ingest_news"),
        "corpus.ingest_news.calls": every.calls.get("corpus.ingest_news", 0),
        "corpus.tokenize.s": every.s("corpus.tokenize"),
        "corpus.tokenize.calls_per_record": every.calls.get("corpus.tokenize", 0) / n_records,
        "weeks.attach_news.s": every.s("weeks.attach_news"),
        "weeks.attach_news.calls": every.calls.get("weeks.attach_news", 0),
        "polarity.tfidf_difference_ranking.s": every.s("polarity.tfidf_difference_ranking"),
        "polarity.build_model_set.s": every.s("polarity.build_model_set"),
        "polarity.PolarityModelSet.save.s": every.s("polarity.PolarityModelSet.save"),
        "polarity.PolarityModelSet.save.bytes":
            every.attr_sum("polarity.PolarityModelSet.save", "bytes"),
        "polarity.PolarityModelSet.load.s": every.s("polarity.PolarityModelSet.load"),
        "polarity.PolarityModelSet.load.calls": every.calls.get("polarity.PolarityModelSet.load", 0),
        "polarity.PolarityModelSet.matrix.s": every.s("polarity.PolarityModelSet.matrix"),
        "polarity.PolarityModelSet.matrix.calls":
            every.calls.get("polarity.PolarityModelSet.matrix", 0),
        "extractor.forward.self_s": every.self_s(fwd),
        "extractor.forward.rows": score.attr_sum(fwd, "rows"),
        "extractor.forward.rows_per_week":
            score.attr_sum(fwd, "rows") / max(score.attr_sum(fwd, "weeks"), 1),
        "extractor.forward.median_ms": median(score.durations.get(fwd, [0])) / 1e6,
        "extractor.forward.p99_ms": _percentile(score.durations.get(fwd, []), 0.99) / 1e6,
        "extractor.forward.samples": score.calls.get(fwd, 0),
        "extractor.loss_and_grads.self_s": every.self_s(lag),
        "extractor.loss_and_grads.median_ms":
            median(every.durations.get(lag, [0])) / 1e6,
        "extractor.loss_and_grads.p99_ms": _percentile(every.durations.get(lag, []), 0.99) / 1e6,
        "extractor.loss_and_grads.samples": every.calls.get(lag, 0),
        "extractor.encoder.forward.s": every.s("extractor.ReferenceEncoder.forward"),
        "extractor.encoder.backward.s": every.s("extractor.ReferenceEncoder.backward"),
        "extractor.train_extractor.self_s": every.self_s("extractor.train_extractor"),
        "extractor.save_extractor.s": every.s("extractor.save_extractor"),
        "extractor.load_extractor.s": every.s("extractor.load_extractor"),
        "extractor.train.examples_per_s":
            every.attr_sum(lag, "rows") / max(every.s("extractor.train_extractor"), 1e-9),
        "extractor.score.articles_per_s":
            score.attr_sum(fwd, "rows") / max(score.s(dataset), 1e-9),
        "summarizer.build_summarizer_dataset.self_s": every.self_s(dataset),
        "summarizer.weeks_scored_ratio":
            every.attr_sum(dataset, "scored") / max(every.attr_sum(dataset, "eligible"), 1),
        "summarizer.train_summarizer.s": every.s("summarizer.train_summarizer"),
        "metrics.report.s": every.s("metrics.report"),
        "artifacts.write_manifest.s": every.s("artifacts.write_manifest"),
        "artifacts.write_manifest.calls": every.calls.get("artifacts.write_manifest", 0),
        "artifacts.sha256_file.bytes": every.attr_sum("artifacts.sha256_file", "bytes"),
        "synth.generate.s": every.s("synth.generate"),
        "synth.write_outputs.s": every.s("synth.write_outputs"),
    })
    skipped = {key: 0 for key in SKIP_REASONS.values()}
    for attrs in every.attrs.get(dataset, []):
        for why, count in attrs["skipped"].items():
            key = SKIP_REASONS.get(why, "other")
            skipped[key] = skipped.get(key, 0) + count
    out.update({f"summarizer.skipped.{k}": v for k, v in skipped.items()})
    return out


def environment_record() -> dict:
    out = subprocess.run([sys.executable, "-c", ENV_PROBE], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        return {"error": out.stderr.strip().splitlines()[-1:]}
    record = json.loads(out.stdout)
    threads = record.get("blas_threads")
    record["blas_threads_within_nproc"] = threads is None or threads <= record["nproc"]
    return record


def import_probe(deadline: float) -> float:
    """Median wall time of a process that only starts and imports the CLI."""
    logs = WORK / "import_probe"
    logs.mkdir(parents=True, exist_ok=True)
    walls = [
        spawn([sys.executable, "-c", "import newstrend.cli"], ROOT, logs / str(i), deadline).wall_s
        for i in range(IMPORT_PROBES)
    ]
    return median(walls)


def end_to_end_metrics(reps: list[Rep]) -> dict:
    return {
        "pipeline_s": median(r.pipeline_s for r in reps),
        "cpu_s": median(sum(p.cpu_s for p in r.stages.values()) for r in reps),
        "peak_rss_mb": median(max(p.rss_mb for p in r.stages.values()) for r in reps),
        "setup_s": median(t for r in reps for t in r.setup_s),
        "accuracy": median(r.accuracy for r in reps),
        "mcc": median(r.mcc for r in reps),
    }


def per_layer_metrics(reps: list[Rep], import_s: float) -> dict:
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    out: dict[str, float] = {"cli.import_s": import_s}
    for stage in STAGES:
        out[f"cli.{stage}.wall_s"] = median(r.stages[stage].wall_s for r in plain)
        out[f"cli.{stage}.cpu_s"] = median(r.stages[stage].cpu_s for r in plain)
        out[f"cli.{stage}.peak_rss_mb"] = median(r.stages[stage].rss_mb for r in plain)
    for key in traced[0].layers:
        out[key] = median(r.layers[key] for r in traced)
    traced_pipeline = median(r.pipeline_s for r in traced)
    out["trace.pipeline_s"] = traced_pipeline
    out["trace.overhead_s"] = traced_pipeline - median(r.pipeline_s for r in plain)
    return out


def metric_units(trace: bool) -> dict:
    """Name -> unit of every metric a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_start: float) -> dict:
    workload = WORKLOADS[name]
    deadline = run_start + RUN_LIMIT_S
    # run-level checks, counted like those of the repetitions
    checks = Rep(traced=False)
    env = environment_record()
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    checks.check(env.get("blas_threads_within_nproc", False),
                 "BLAS runs more threads than nproc, or the environment probe failed")
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    expected = recorded.get(name, {}).get(str(seed))
    if expected is not None:
        print(f"inputs: every repetition is checked against the digests recorded for "
              f"{name} seed {seed}")
    else:
        # no digest for this seed: guard the generator with the default seed's digests
        reference = recorded.get(name, {}).get(str(DEFAULT_SEED))
        refdir = WORK / "reference"
        shutil.rmtree(refdir, ignore_errors=True)
        refdir.mkdir(parents=True)
        setup_inputs(workload, DEFAULT_SEED, refdir)
        checks.check(reference is not None and input_digests(refdir) == reference,
                     f"workload changed: seed {DEFAULT_SEED} input digests differ")
        shutil.rmtree(refdir)
        print(f"inputs: no digests recorded for {name} seed {seed}; checked the "
              f"generator on seed {DEFAULT_SEED} instead")
    for error in checks.errors:
        print(f"FAILED: {error}", file=sys.stderr)

    import_s = import_probe(deadline) if trace else None
    start = time.perf_counter()
    reps: list[Rep] = []
    while not checks.failed:
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(name, workload, seed, expected, traced, len(reps), deadline)
        reps.append(rep)
        kind = "traced" if traced else "untraced"
        print(f"{name} rep {len(reps) - 1} ({kind}): setup {median(rep.setup_s):.3f} s, "
              f"pipeline {rep.pipeline_s:.3f} s, accuracy {rep.accuracy}, mcc {rep.mcc}")
        for error in rep.errors:
            print(f"FAILED: {error}", file=sys.stderr)
        if rep.failed:
            break
        elapsed = time.perf_counter() - start
        if trace and len(reps) < 2:
            continue
        if elapsed + max(r.total_s for r in reps) > seconds:
            break

    attempted = checks.attempted + sum(r.attempted for r in reps)
    failed = checks.failed + sum(r.failed for r in reps)
    metrics: dict[str, dict] = {}
    if not failed:
        values = per_layer_metrics(reps, import_s) if trace else end_to_end_metrics(reps)
        units = metric_units(trace)
        if set(units) - set(values):
            raise SystemExit(f"error: no value for {sorted(set(units) - set(values))}")
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    for key, entry in result["metrics"].items():
        print(f"{name:>8} {key:<48} {entry['value']:>14.6f} {entry['unit']}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "expected_inputs": expected, "errors": checks.errors,
        "reps": [
            {
                "traced": r.traced, "setup_s": r.setup_s, "pipeline_s": r.pipeline_s,
                "accuracy": r.accuracy, "mcc": r.mcc, "errors": r.errors,
                "stages": {s: vars(p) for s, p in r.stages.items()},
            }
            for r in reps
        ],
        **result,
    }
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return result


def main(argv: list[str] | None = None) -> int:
    run_start = time.perf_counter()
    # a terminated run still kills and reaps its running stage (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "newstrend" / "cli.py").is_file():
        print(f"error: {SRC / 'newstrend'} not found; run from a newstrend source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), run_start)
    else:
        parts = {}
        for name in WORKLOADS:
            parts[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                       time.perf_counter())
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{n}.{k}": v for n, p in parts.items() for k, v in p["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
