#!/usr/bin/env python3
"""End-to-end benchmark of the renalrisk pipeline.

Run from the repository root:

    python3 bench/run.py --workload reproduce_cold --seed 1 --seconds 20 --trace 0

The benchmark writes a config derived from configs/default.json (cohort size
cut, seed taken from --seed), prepares the workload's starting work directory,
then repeats the workload's job until --seconds have passed. The job runs the
six CLI stages, each as its own `python -m renalrisk.cli <stage>` child
process. Every repetition's outputs are checked. The last line of stdout is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the job
runs in this process with timing wrappers around each module's public
functions (bench/tracing.py) and the metrics are per layer. Everything the
benchmark writes goes under .bench_work/ in the repository root.
See bench/README.md for the workloads and metrics.
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
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing  # bench/tracing.py; this script's directory is on sys.path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASE_CONFIG = ROOT / "configs" / "default.json"
WORK = ROOT / ".bench_work"

STAGES = tracing.STAGES
TASKS = ("rrt", "dialysis", "transplant")

# Cohort: configs/default.json with three changes, each for a steady run:
# - 1,000 beneficiaries instead of 50,000, so one cold pipeline takes ~10 s and
#   the ~70 runs of a two-commit comparison fit in under an hour;
# - 20% 365-day onset prevalence instead of 1%, so the test split (about 100
#   beneficiaries) holds RRT positives for every seed. At 5% it holds 2 to 9
#   positive beneficiaries, and about one seed in 150 has none, so the rrt AUC
#   is undefined; at 20% it holds 7 to 21 over 46 seeds tried;
# - max_epochs 6 instead of 15. With patience 5, every seed then trains
#   exactly 6 epochs per task, as the 50k rrt model does (best epoch 0 plus 5
#   patience epochs). At 15, early stopping ends after 6 to 15 epochs
#   depending on the seed, and train time doubles from one seed to the next.
N_BENEFICIARIES = 1000
TARGET_PREVALENCE = 0.20
MAX_EPOCHS = 6

STAGE_TIMEOUT_S = 120.0
DEADLINE_S = 150.0  # start no repetition that would end after this
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median

# One BLAS thread in every stage process and in the traced run. The model's
# kernels are sparse and call no BLAS routine, but numpy's OpenBLAS starts one
# thread per core at import. On 2 shared cores those threads made each CLI
# start-up 30% slower (0.32 s against 0.25 s, median of 30) and its spread
# half as wide again, so the short stages measured the scheduler.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    """What a workload's job starts from, and which stages must do work."""

    name: str
    prepared: bool  # starts from a complete, up-to-date work directory
    reset: tuple[str, ...]  # file patterns removed before each repetition
    working: frozenset[str]  # stages that must run; the rest print "up to date"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reproduce_cold", False, ("*",), frozenset(STAGES)),
        Workload(
            "retrain",
            True,
            ("model_*.bin", "train_log_*.tsv", "predictions_*.tsv"),
            frozenset({"train", "predict"}),
        ),
        Workload("noop_rerun", True, (), frozenset()),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "workdir_mb": "MB",
    **{f"{stage}_s": "s" for stage in STAGES},
}


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ProcRun:
    """One child process: its wall time and its own rusage."""

    label: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    output: str


def run_child(args: list[str], label: str, log_path: Path) -> ProcRun:
    """Run `python <args>` with src/ on the path; wait4 gives this child's own rusage."""
    with open(log_path, "w+", encoding="utf-8") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no stage process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        output = log.read()
    return ProcRun(
        label,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        output,
    )


def run_stage_child(stage: str, config: Path, log_dir: Path) -> ProcRun:
    return run_child(
        ["-m", "renalrisk.cli", stage, "--config", str(config), "--workers", "1"],
        stage,
        log_dir / f"{stage}.log",
    )


def startup_probe(log_dir: Path) -> ProcRun:
    """Interpreter start plus `import renalrisk.cli`, as every stage process pays it."""
    return run_child(["-c", "import renalrisk.cli"], "startup", log_dir / "startup.log")


# ---------------------------------------------------------------------------
# Set-up


def write_config(run_dir: Path, seed: int) -> Path:
    raw = json.loads(BASE_CONFIG.read_text(encoding="utf-8"))
    raw["workdir"] = str(run_dir / "work")
    raw["seed"] = seed
    raw["synth"]["n_beneficiaries"] = N_BENEFICIARIES
    raw["synth"]["target_365d_prevalence"] = TARGET_PREVALENCE
    raw["train"]["hyperparams"]["max_epochs"] = MAX_EPOCHS
    path = run_dir / "config.json"
    path.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    return path


def reset_workdir(workdir: Path, patterns: tuple[str, ...]) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for pattern in patterns:
        for path in workdir.glob(pattern):
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()


@dataclass
class Setup:
    config: Path
    workdir: Path
    log_dir: Path
    setup_s: float
    ok: bool
    detail: str = ""


def set_up(workload: Workload, seed: int) -> Setup:
    """Build the workload's starting state SETUP_REPEATS times; time each, keep the median.

    A prepared workload's state is one `renalrisk reproduce`; a cold one's is
    the config and an empty work directory, plus one CLI start-up.
    """
    run_dir = WORK / workload.name
    log_dir = run_dir / "logs"
    workdir = run_dir / "work"
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        shutil.rmtree(run_dir, ignore_errors=True)
        log_dir.mkdir(parents=True)
        config = write_config(run_dir, seed)
        workdir.mkdir()
        if workload.prepared:
            run = run_child(
                ["-m", "renalrisk.cli", "reproduce", "--config", str(config), "--workers", "1"],
                "reproduce",
                log_dir / "setup.log",
            )
        else:
            run = startup_probe(log_dir)
        times.append(time.perf_counter() - started)
        if run.exit_code != 0:
            return Setup(config, workdir, log_dir, math.nan, False, run.output[-2000:])
    return Setup(config, workdir, log_dir, statistics.median(times), True)


# ---------------------------------------------------------------------------
# Output checks


def file_digests(workdir: Path) -> dict[str, str]:
    out = {}
    for path in sorted(workdir.iterdir()):
        if path.is_file():
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def file_stamps(workdir: Path) -> dict[str, tuple[str, int, int]]:
    """Content digest, mtime and size of every file, to prove a rerun touched nothing."""
    digests = file_digests(workdir)
    return {
        name: (digest, (workdir / name).stat().st_mtime_ns, (workdir / name).stat().st_size)
        for name, digest in digests.items()
    }


def _data_lines(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip() and not line.startswith("#"):
                yield line


def row_counts(workdir: Path) -> dict[str, float]:
    """Rows that moved through each stage, read back from the artifacts."""
    counts = {"beneficiaries": 0, "claims": 0}
    for line in _data_lines(workdir / "claims.tsv"):
        counts["beneficiaries" if line[0] == "B" else "claims"] += 1
    candidates = eligible = 0
    for line in _data_lines(workdir / "triggers.tsv"):
        candidates += 1
        eligible += line.split("\t", 3)[2] == "1"
    counts["trigger_candidates"] = candidates
    counts["trigger_eligible"] = eligible
    nnz = 0
    for split in ("train", "valid", "test"):
        rows = 0
        for line in _data_lines(workdir / f"features_{split}.tsv"):
            rows += 1
            cols = line.rstrip("\n").rsplit("\t", 1)[1]
            nnz += cols.count(",") + 1 if cols else 0
        counts[f"feature_rows_{split}"] = rows
    total_rows = sum(counts[f"feature_rows_{s}"] for s in ("train", "valid", "test"))
    counts["feature_nnz_per_row"] = nnz / total_rows if total_rows else 0.0
    counts["vocab_size"] = sum(1 for _ in _data_lines(workdir / "vocab.tsv"))
    return counts


def prediction_problems(workdir: Path) -> list[str]:
    """Every horizon probability row must be non-decreasing and within [0, 1]."""
    problems = []
    for task in TASKS:
        bad = 0
        n = 0
        for line in _data_lines(workdir / f"predictions_{task}.tsv"):
            p = [float(v) for v in line.rstrip("\n").split("\t")[3].split(",")]
            n += 1
            if any(b < a for a, b in zip(p, p[1:])) or p[-1] > 1.0 or p[0] < 0.0:
                bad += 1
        if n == 0 or bad:
            problems.append(f"predictions_{task}: {bad} bad rows of {n}")
    return problems


def rrt_cells(workdir: Path) -> list[dict]:
    """The rrt task's per-horizon cells of report.json."""
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    return report["performance"]["rrt"]


class Checks:
    """Counts attempted and failed operations: stage invocations plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_stage_outputs(checks: Checks, workload: Workload, outputs: dict[str, str]) -> None:
    for stage in STAGES:
        if stage not in outputs:
            continue
        fresh = f"{stage}: up to date" in outputs[stage]
        want_fresh = stage not in workload.working
        checks.check(
            fresh == want_fresh,
            f"{stage} {'did work' if want_fresh else 'printed up to date'} on {workload.name}",
        )


def check_results(checks: Checks, workdir: Path) -> dict[int, float]:
    """Prediction rows and the rrt AUCs; returns the AUC per horizon (NaN if undefined).

    The AUCs get no floor. At this cohort size a correct program can rank the
    test split near chance for some seeds (at 20% prevalence, 0.56 to 0.81 at
    365 days over seeds 201 to 210; at 5%, seed 16 gave 0.10 at 30 days), so
    any floor would fail runs of a correct program.
    """
    problems = prediction_problems(workdir)
    checks.check(not problems, "; ".join(problems))
    cells = rrt_cells(workdir)
    aucs = {c["horizon_days"]: math.nan if c["roc_auc"] is None else c["roc_auc"] for c in cells}
    undefined = [
        h for h, c in zip(aucs, cells) if 0 < c["n_pos"] < c["n"] and not math.isfinite(aucs[h])
    ]
    checks.check(not undefined, f"rrt AUC undefined at {undefined} days though both classes occur")
    checks.check(cells[-1]["n_pos"] > 0, "no rrt positive in the test split at the last horizon")
    checks.check(
        not any(p.name.endswith(".tmp") for p in workdir.iterdir()), "leftover .tmp file"
    )
    return aucs


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [BASE_CONFIG]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_golden(checks: Checks, config: Path, digests: dict[str, str], rows: dict) -> None:
    """Repeated runs of one config on one source tree must give identical artifacts."""
    raw = json.loads(config.read_text(encoding="utf-8"))
    del raw["workdir"]  # the same for every workload
    key = hashlib.sha256((source_digest() + json.dumps(raw, sort_keys=True)).encode()).hexdigest()
    path = WORK / "golden" / f"seed{raw['seed']}-{key[:16]}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"digests": digests, "rows": rows}
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        checks.check(previous == record, f"artifacts differ from an earlier run: {path.name}")
    else:
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, path)


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # a checkout that is not a repository must not report an enclosing one
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    import numpy

    return {
        "git_commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "thread_env": THREAD_ENV,
        "n_beneficiaries": N_BENEFICIARIES,
        "target_365d_prevalence": TARGET_PREVALENCE,
        "max_epochs": MAX_EPOCHS,
        "seed": seed,
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# Untraced run


@dataclass
class JobResult:
    runs: list[ProcRun]
    wall_s: float
    aucs: dict[int, float] = field(default_factory=dict)


def run_job(setup: Setup, workload: Workload, checks: Checks) -> JobResult:
    reset_workdir(setup.workdir, workload.reset)
    runs = []
    started = time.perf_counter()
    for stage in STAGES:
        run = run_stage_child(stage, setup.config, setup.log_dir)
        runs.append(run)
        detail = f"{stage} exited {run.exit_code}: {run.output[-500:]}"
        if not checks.check(run.exit_code == 0, detail):
            break
    wall = time.perf_counter() - started
    check_stage_outputs(checks, workload, {r.label: r.output for r in runs})
    aucs = check_results(checks, setup.workdir) if len(runs) == len(STAGES) else {}
    return JobResult(runs, wall, aucs)


def workdir_mb(workdir: Path) -> float:
    return sum(p.stat().st_size for p in workdir.iterdir() if p.is_file()) / 1e6


def untraced(workload: Workload, seed: int, seconds: int, checks: Checks, began: float):
    setup = set_up(workload, seed)
    if not checks.check(setup.ok, f"set-up failed: {setup.detail}"):
        return setup, [], {}
    baseline = file_digests(setup.workdir) if workload.prepared else None
    jobs = []
    record = {}
    measure_start = time.perf_counter()
    while True:
        before = None if workload.working else file_stamps(setup.workdir)
        job = run_job(setup, workload, checks)
        jobs.append(job)
        if checks.failed:
            break
        digests = file_digests(setup.workdir)
        if before is not None:
            checks.check(file_stamps(setup.workdir) == before, "no-op rerun changed an artifact")
        if baseline is not None:
            checks.check(digests == baseline, "artifacts differ from the set-up's")
        if len(jobs) == 1:
            record = {"digests": digests, "rows": row_counts(setup.workdir)}
            check_golden(checks, setup.config, record["digests"], record["rows"])
        else:
            checks.check(digests == record["digests"], "repetition changed the artifacts")
        now = time.perf_counter()
        if now - measure_start >= seconds or (now - began) + job.wall_s > DEADLINE_S:
            break
    return setup, jobs, record


def end_to_end_metrics(setup: Setup, jobs: list[JobResult]) -> dict[str, float]:
    med = statistics.median
    metrics = {
        "setup_s": setup.setup_s,
        "wall_s": med(j.wall_s for j in jobs),
        "cpu_s": med(sum(r.cpu_s for r in j.runs) for j in jobs),
        "peak_rss_mb": med(max(r.maxrss_mb for r in j.runs) for j in jobs),
        "workdir_mb": workdir_mb(setup.workdir),
    }
    for stage in STAGES:
        metrics[f"{stage}_s"] = med(
            next((r.wall_s for r in j.runs if r.label == stage), float("nan")) for j in jobs
        )
    return metrics


# ---------------------------------------------------------------------------
# Traced run


def run_inprocess_job(pipeline, cfg, setup: Setup, workload: Workload, checks: Checks, tracer=None):
    """The workload's job with every stage called through run_stage in this process."""
    reset_workdir(setup.workdir, workload.reset)
    outputs = {}
    stages_run = 0
    started = time.perf_counter()
    for stage in STAGES:
        buffer = io.StringIO()
        span = tracer.span(f"stage.{stage}") if tracer else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(buffer), span:
                stages_run += bool(pipeline.run_stage(cfg, stage))
            ok, detail = True, ""
        except Exception:  # a failed stage is counted, and the job stops there
            ok, detail = False, traceback.format_exc(limit=3)
        outputs[stage] = buffer.getvalue()
        if not checks.check(ok, f"{stage} raised: {detail}"):
            break
    wall = time.perf_counter() - started
    check_stage_outputs(checks, workload, outputs)
    if len(outputs) == len(STAGES) and ok:
        check_results(checks, setup.workdir)
    return wall, stages_run


def traced(workload: Workload, seed: int, checks: Checks):
    """Per-layer metrics from an in-process traced job, after the usual set-up."""
    setup = set_up(workload, seed)  # child processes, before any wrapper exists
    if not checks.check(setup.ok, f"set-up failed: {setup.detail}"):
        return {name: float("nan") for name in tracing.PER_LAYER_UNITS}, {}
    startup_s = statistics.median(startup_probe(setup.log_dir).wall_s for _ in range(SETUP_REPEATS))
    sys.path.insert(0, str(SRC))
    from renalrisk import pipeline

    cfg = pipeline.load_pipeline_config(setup.config, workers=1)
    # the first plain job warms the process up and gives the reference artifacts
    run_inprocess_job(pipeline, cfg, setup, workload, checks)
    digests = file_digests(setup.workdir)
    rows = row_counts(setup.workdir)
    check_golden(checks, setup.config, digests, rows)

    tracer = tracing.Tracer(f"{workload.name}-seed{seed}-{os.getpid()}-{time.time_ns()}")
    checks.check(not tracing.wrapped_attributes(), "wrappers installed before the traced job")
    with tracing.installed(tracer):
        _, stages_run = run_inprocess_job(pipeline, cfg, setup, workload, checks, tracer)
    checks.check(not tracing.wrapped_attributes(), "wrappers left installed after the traced job")
    checks.check(file_digests(setup.workdir) == digests, "tracing changed the artifacts")
    plain_s, _ = run_inprocess_job(pipeline, cfg, setup, workload, checks)
    spans_path = WORK / "trace" / f"{workload.name}-seed{seed}.json"
    tracer.dump(spans_path)
    print(f"spans: {spans_path}")
    metrics = tracing.layer_metrics(tracer, startup_s, rows, stages_run, plain_s)
    return metrics, {"digests": digests, "rows": rows}


# ---------------------------------------------------------------------------
# Entry point


def emit(checks: Checks, metrics: dict[str, float], units: dict[str, str], extra: dict) -> None:
    for name in units:
        print(f"{name:<40} {metrics[name]:>14.6g} {units[name]}")
    for horizon, auc in extra.get("rrt_auc", {}).items():
        print(f"{f'rrt_auc_{horizon}d':<40} {auc:>14.6g} ratio")
    failed_frac = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"{'failed_frac':<40} {failed_frac:>14.6g} ratio ({checks.failed}/{checks.attempted})")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    print(f"environment: {json.dumps(extra['environment'], sort_keys=True)}")
    record = dict(extra, failed_frac=failed_frac, failures=checks.failures, metrics=metrics)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = extra["environment"]
    name = f"{env['workload']}-seed{env['seed']}-trace{env['trace']}.json"
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    (results / name).write_text(text, encoding="utf-8")
    print(f"record: {results / name}")
    result = {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {
            name: {"value": _json_number(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)


def _json_number(value: float) -> float:
    return value if math.isfinite(value) else -1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "renalrisk" / "cli.py").is_file() or not BASE_CONFIG.is_file():
        print(f"error: no renalrisk source tree under {ROOT}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is imported here or in a stage process
    # a terminated run unwinds through run_child, which kills its stage process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    began = time.perf_counter()
    workload = WORKLOADS[args.workload]
    checks = Checks()
    extra = {"environment": environment(args.workload, args.seed, args.seconds, args.trace)}
    if args.trace:
        metrics, record = traced(workload, args.seed, checks)
        units = tracing.PER_LAYER_UNITS
        extra.update(record)
    else:
        setup, jobs, record = untraced(workload, args.seed, args.seconds, checks, began)
        metrics = (
            end_to_end_metrics(setup, jobs)
            if jobs
            else {name: float("nan") for name in END_TO_END_UNITS}
        )
        units = END_TO_END_UNITS
        extra.update(record, jobs=[{r.label: r.wall_s for r in j.runs} for j in jobs])
        if jobs:
            extra["rrt_auc"] = jobs[-1].aucs
    emit(checks, metrics, units, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
