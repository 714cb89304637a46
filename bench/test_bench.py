"""Self-test of the benchmark on a tiny cohort: every workload, traced and not.

    python3 -m pytest -q bench/test_bench.py

Each run must pass its correctness gate and emit exactly the metrics that
BENCHMARK.json names, each with its unit. Takes about a minute.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_runner():
    spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def runner(tmp_path, monkeypatch):
    module = _load_runner()
    monkeypatch.setattr(module, "WORK", tmp_path / ".bench_work")
    monkeypatch.setattr(module, "N_BENEFICIARIES", 600)
    monkeypatch.setattr(module, "SETUP_REPEATS", 1)
    return module


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes_its_gate(runner, capsys, workload, trace):
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    code = runner.main(args)
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], [line for line in out.splitlines() if line.startswith("FAILED")]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_refuses_a_tree_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "tracing.py"):
        (bench / name).write_text((HERE / name).read_text(encoding="utf-8"), encoding="utf-8")
    args = ["--workload", "noop_rerun", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
