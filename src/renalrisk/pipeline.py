"""Staged pipeline runner: synth -> triggers -> featurize -> train -> predict -> evaluate.

This module holds the artifact paths, their lineage, the freshness checks and
the runner; the stage bodies live in ``stages``.

Every artifact is a flat file under the configured work directory and starts
with a lineage line

    #! {"stage": ..., "stage_version": ..., "seed": ..., "config_sha256": ...,
        "inputs": {name: sha256-of-file, ...}}

(for binary model files the same record lives in the embedded header).
A stage is up to date when all its outputs exist and their lineage equals the
lineage recomputed from the current config and input files; rerunning it is
then a no-op. Each command walks the stages once, in order, working out each
stage's lineage once; a stage refuses to run on missing or stale upstream
artifacts.
Outputs are written to a temp file and renamed into place; a failed write
deletes its temp file.

At module level this imports the standard library and ``config`` alone.
The runner imports ``stages`` (and with it numpy) only once it finds a
stage stale, so a stage found up to date, and every config error, exits
without loading the bodies or the stage modules they call.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .config import (  # noqa: F401  (load_pipeline_config: a re-export)
    CODESETS_FIELDS,
    TASKS,
    PipelineConfig,
    load_pipeline_config,
    read_model_header,
)
from .errors import ConfigError, DataError


# ---------------------------------------------------------------------------
# Artifact paths and lineage


def artifact_paths(cfg: PipelineConfig) -> dict[str, Path]:
    w = cfg.workdir
    paths = {
        "claims": cfg.claims_path if cfg.claims_path else w / "claims.tsv",
        "ground_truth": w / "ground_truth.tsv",
        "triggers": w / "triggers.tsv",
        "trigger_summary": w / "trigger_summary.tsv",
        "split": w / "split.tsv",
        "vocab": w / "vocab.tsv",
        "features_train": w / "features_train.tsv",
        "features_valid": w / "features_valid.tsv",
        "features_test": w / "features_test.tsv",
        "report_json": w / "report.json",
        "report_text": w / "report.txt",
    }
    for task in TASKS:
        paths[f"model_{task}"] = w / f"model_{task}.bin"
        paths[f"train_log_{task}"] = w / f"train_log_{task}.tsv"
        paths[f"predictions_{task}"] = w / f"predictions_{task}.tsv"
    return paths


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _HashCache:
    def __init__(self):
        self._cache: dict[tuple[str, int, int], str] = {}

    def file_sha256(self, path: Path) -> str:
        stat = path.stat()
        key = (str(path), stat.st_mtime_ns, stat.st_size)
        if key not in self._cache:
            digest = hashlib.sha256()
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(block)
            self._cache[key] = digest.hexdigest()
        return self._cache[key]


LINEAGE_PREFIX = "#! "


def read_artifact_lineage(path: Path) -> dict | None:
    """The lineage an artifact carries; None when it is missing or has none."""
    try:
        if path.suffix == ".bin":
            return read_model_header(path).get("lineage")
        if path.suffix == ".json":
            return json.loads(path.read_text(encoding="utf-8")).get("lineage")
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
        if first.startswith(LINEAGE_PREFIX):
            return json.loads(first[len(LINEAGE_PREFIX) :])
    except (DataError, OSError, ValueError, AttributeError):
        pass
    return None


@contextmanager
def atomic_output(path: Path) -> Iterator[Path]:
    """Yield a temp path beside path; rename it into place on success, delete it on error."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _open_text_artifact(stack: ExitStack, path: Path, lineage: dict):
    """An atomic text output on the stack, its lineage line already written."""
    tmp = stack.enter_context(atomic_output(path))
    handle = stack.enter_context(open(tmp, "w", encoding="utf-8"))
    handle.write(LINEAGE_PREFIX + _canonical(lineage) + "\n")
    return handle


def write_text_artifact(path: Path, lineage: dict, body: Iterable[str]) -> None:
    """Write lineage line plus body lines atomically (temp file + rename)."""
    with ExitStack() as stack:
        handle = _open_text_artifact(stack, path, lineage)
        for line in body:
            handle.write(line)
            if not line.endswith("\n"):
                handle.write("\n")


# ---------------------------------------------------------------------------
# Stage registry


@dataclass(frozen=True)
class StageSpec:
    version: int
    config_subset: Callable[[PipelineConfig], dict]
    inputs: Callable[[PipelineConfig], list[str]]
    outputs: Callable[[PipelineConfig], list[str]]


def _synth_subset(cfg: PipelineConfig) -> dict:
    assert cfg.synth is not None
    d = asdict(cfg.synth)
    d["date_range"] = [x.isoformat() for x in cfg.synth.date_range]
    return d


def _codesets_blob(cfg: PipelineConfig) -> dict:
    return {
        name: sorted((s.value, c) for s, c in getattr(cfg.codesets, name).codes)
        for name in CODESETS_FIELDS
    }


def _triggers_subset(cfg: PipelineConfig) -> dict:
    return {
        "trigger_range": [d.isoformat() for d in cfg.trigger_range],
        "dataset_end": cfg.dataset_range[1].isoformat(),
        "codesets": _codesets_blob(cfg),
    }


def _featurize_subset(cfg: PipelineConfig) -> dict:
    return {
        "split_ratios": list(cfg.split_ratios),
        "split_seed": cfg.split_seed,
        "min_count": cfg.min_count,
    }


def _train_subset(cfg: PipelineConfig) -> dict:
    return {
        "tasks": list(cfg.tasks),
        "hyperparams": asdict(cfg.hyperparams) if cfg.hyperparams else None,
        "grid": [asdict(g) for g in cfg.grid] if cfg.grid else None,
    }


def _eval_subset(cfg: PipelineConfig) -> dict:
    return {
        "target_sensitivities": list(cfg.target_sensitivities),
        "tasks": list(cfg.tasks),
        "codesets": _codesets_blob(cfg),
    }


STAGES: dict[str, StageSpec] = {
    "synth": StageSpec(1, _synth_subset, lambda cfg: [], lambda cfg: ["claims", "ground_truth"]),
    "triggers": StageSpec(
        1, _triggers_subset, lambda cfg: ["claims"], lambda cfg: ["triggers", "trigger_summary"]
    ),
    "featurize": StageSpec(
        1,
        _featurize_subset,
        lambda cfg: ["claims", "triggers"],
        lambda cfg: ["split", "vocab", "features_train", "features_valid", "features_test"],
    ),
    "train": StageSpec(
        1,
        _train_subset,
        lambda cfg: ["vocab", "features_train", "features_valid"],
        lambda cfg: [f"model_{t}" for t in cfg.tasks] + [f"train_log_{t}" for t in cfg.tasks],
    ),
    "predict": StageSpec(
        1,
        lambda cfg: {"tasks": list(cfg.tasks)},
        lambda cfg: ["features_test", "vocab"] + [f"model_{t}" for t in cfg.tasks],
        lambda cfg: [f"predictions_{t}" for t in cfg.tasks],
    ),
    "evaluate": StageSpec(
        1,
        _eval_subset,
        lambda cfg: ["triggers", "features_test", "claims"]
        + [f"predictions_{t}" for t in cfg.tasks],
        lambda cfg: ["report_json", "report_text"],
    ),
}

STAGE_ORDER = tuple(STAGES)


def _stages_run(cfg: PipelineConfig) -> tuple[str, ...]:
    """The stages this config runs: with external claims, synth neither runs nor is checked."""
    return STAGE_ORDER if cfg.synth is not None else STAGE_ORDER[1:]


def expected_lineage(cfg: PipelineConfig, stage: str, cache: _HashCache) -> dict:
    spec = STAGES[stage]
    paths = artifact_paths(cfg)
    inputs = {}
    for name in spec.inputs(cfg):
        path = paths[name]
        if not path.exists():
            # the walk refuses a missing upstream output first: this is external claims
            raise DataError(f"{stage}: missing input {path} (provide the configured claims file)")
        inputs[name] = cache.file_sha256(path)
    return {
        "stage": stage,
        "stage_version": spec.version,
        "seed": cfg.seed,
        "config_sha256": _sha256_text(_canonical(spec.config_subset(cfg))),
        "inputs": inputs,
    }


def stage_is_fresh(cfg: PipelineConfig, stage: str, lineage: dict) -> bool:
    """Every output of the stage exists and carries this lineage."""
    paths = artifact_paths(cfg)
    return all(read_artifact_lineage(paths[name]) == lineage for name in STAGES[stage].outputs(cfg))


# ---------------------------------------------------------------------------
# Stage runner


def _walk(cfg: PipelineConfig, last: str, only_task: str | None = None) -> Iterator[tuple]:
    """Yield (stage, cfg, lineage, fresh) for each stage this config runs, in order, through last.

    A stage's lineage is worked out only when the caller advances to it, so it
    hashes what the stages before it have just written; one cache hashes each
    settled file once. With only_task, the last stage is fresh when that task's
    outputs are.
    """
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    cache = _HashCache()
    stages = _stages_run(cfg)
    for stage in stages[: stages.index(last) + 1]:
        task_cfg = replace(cfg, tasks=(only_task,)) if only_task and stage == last else cfg
        if stage == "evaluate":
            # A one-task report is stamped with its own task list, so a full
            # evaluate sees it as stale and replaces it.
            cfg = task_cfg
        lineage = expected_lineage(cfg, stage, cache)
        yield stage, cfg, lineage, stage_is_fresh(task_cfg, stage, lineage)


def _run(stage: str, cfg: PipelineConfig, lineage: dict, fresh: bool, only_task=None) -> bool:
    """Run the stage's body unless it is fresh; returns True when work was done."""
    if fresh:
        print(f"{stage}: up to date")
        return False
    from . import stages  # the bodies, and numpy with them, load only when there is work

    task_args = (only_task,) if stage in ("train", "predict") else ()
    stages.BODIES[stage](cfg, lineage, artifact_paths(cfg), *task_args)
    return True


def run_stage(cfg: PipelineConfig, stage: str, only_task: str | None = None) -> bool:
    """Run one stage if stale; returns True when work was done.

    Every stage this config runs before this one feeds it, directly or through
    another, so it refuses at the first of them that is not fresh: the error
    names the earliest missing artifact (e.g. the model file when evaluate runs
    before train).
    """
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    if stage not in _stages_run(cfg):
        raise ConfigError("synth stage requires a synth section in the config")
    if only_task is not None and only_task not in cfg.tasks:
        raise ConfigError(
            f"--task {only_task} is not a configured task (train.tasks: {', '.join(cfg.tasks)})"
        )
    paths = artifact_paths(cfg)
    for name, stage_cfg, lineage, fresh in _walk(cfg, stage, only_task):
        if name == stage:
            return _run(stage, stage_cfg, lineage, fresh, only_task)
        if not fresh:
            missing = [paths[n] for n in STAGES[name].outputs(cfg) if not paths[n].exists()]
            if missing:
                raise DataError(f"{stage}: missing {missing[0]} (run the {name} stage first)")
            raise DataError(
                f"{stage}: artifacts from the {name} stage are stale against the "
                f"current config/inputs; rerun that stage (or `reproduce`)"
            )


def run_reproduce(cfg: PipelineConfig) -> None:
    for step in _walk(cfg, STAGE_ORDER[-1]):
        _run(*step)
