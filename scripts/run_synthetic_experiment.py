#!/usr/bin/env python3
"""Run the synthetic experiment stage by stage and print each stage's cost.

Each stage runs as its own `python -m renalrisk.cli <stage>` child process,
as `renalrisk reproduce` would run it, with this repository's `src/` first
on the path and one BLAS thread. `os.wait4` gives the child's wall time, CPU
time (user + system) and peak RSS. With --out PATH the script also writes a
JSON record: the git commit, `nproc`, the config and the per-stage numbers.

    python scripts/run_synthetic_experiment.py                        # configs/default.json
    python scripts/run_synthetic_experiment.py --config configs/small.json --out small.json
    python scripts/run_synthetic_experiment.py --stages synth --workers 2 --out synth.json

A stage whose outputs are up to date is a no-op; delete the work directory
for a cold run. The script stops at the first stage that fails and exits
with its code.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from renalrisk.pipeline import STAGE_ORDER, artifact_paths, load_pipeline_config  # noqa: E402

# The model calls no BLAS routine, but numpy's OpenBLAS starts one thread per
# core at import, which slows and spreads every stage's start-up.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_stage(stage: str, args: argparse.Namespace) -> dict:
    """Run one stage in a child process; its wall time, own rusage and exit code."""
    command = [sys.executable, "-m", "renalrisk.cli", stage, "--config", args.config]
    command += ["--workers", str(args.workers)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    proc = subprocess.Popen(command, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),  # ru_maxrss is in KiB on Linux
        "exit_code": proc.returncode,
    }


def git_state() -> dict | None:
    """The commit of this checkout and whether its tracked files differ from it."""
    def git(*argv: str) -> str:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), *argv], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "-uno"))}
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=str(REPO_ROOT / "configs" / "default.json"))
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--stages", nargs="+", choices=STAGE_ORDER, default=list(STAGE_ORDER))
    parser.add_argument("--out", type=Path, help="write a JSON record of the run here")
    args = parser.parse_args()

    cfg = load_pipeline_config(args.config, seed_override=args.seed, workers=args.workers)
    stages = [s for s in STAGE_ORDER if s in args.stages and not (s == "synth" and cfg.synth is None)]
    results: dict[str, dict] = {}
    for stage in stages:
        results[stage] = run_stage(stage, args)
        if results[stage]["exit_code"] != 0:
            break

    print(f"\n{'stage':<10} {'wall s':>8} {'cpu s':>8} {'peak MB':>8}")
    for stage, r in results.items():
        print(f"{stage:<10} {r['wall_s']:8.2f} {r['cpu_s']:8.2f} {r['peak_rss_mb']:8.1f}")
    if args.out is not None:
        record = {
            "git": git_state(),
            "nproc": len(os.sched_getaffinity(0)),  # what `nproc` prints
            "python": platform.python_version(),
            "config_path": args.config,
            "config": json.loads(Path(args.config).read_text(encoding="utf-8")),
            "seed_override": args.seed,
            "workers": args.workers,
            "stages": results,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    failed = [r["exit_code"] for r in results.values() if r["exit_code"] != 0]
    if failed:
        return failed[0]

    report_path = artifact_paths(cfg)["report_json"]
    if "evaluate" in results and report_path.exists():
        report = json.loads(report_path.read_text())
        aucs = [c["roc_auc"] for c in report["performance"].get("rrt", [])]
        if aucs and all(a is not None for a in aucs):
            ordered = all(a >= b for a, b in zip(aucs, aucs[1:]))
            print(f"\nRRT ROC-AUC by horizon: {[round(a, 4) for a in aucs]} (non-increasing: {ordered})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
