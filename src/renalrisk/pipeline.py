"""Staged pipeline: synth -> triggers -> featurize -> train -> predict -> evaluate.

Every artifact is a flat file under the configured work directory and starts
with a lineage line

    #! {"stage": ..., "stage_version": ..., "seed": ..., "config_sha256": ...,
        "inputs": {name: sha256-of-file, ...}}

(for binary model files the same record lives in the embedded header).
A stage is up to date when all its outputs exist and their lineage equals the
lineage recomputed from the current config and input files; rerunning it is
then a no-op. Stages refuse to run on missing or stale upstream artifacts.
Outputs are written to a temp file and renamed into place; a failed write
deletes its temp file.

At module level this imports the standard library and ``config`` alone. Each
stage body imports numpy and the stage modules it calls, so a stage found up
to date, and every config error, exits without loading them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .config import (  # noqa: F401  (load_pipeline_config: a re-export)
    HORIZON_DAYS,
    N_CLASSES,
    TASKS,
    PipelineConfig,
    load_pipeline_config,
    read_model_header,
)
from .errors import ConfigError, DataError, ParseError, naming_file


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


def read_text_lineage(path: Path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
    except OSError:
        return None
    if not first.startswith(LINEAGE_PREFIX):
        return None
    try:
        return json.loads(first[len(LINEAGE_PREFIX) :])
    except json.JSONDecodeError:
        return None


def read_artifact_lineage(path: Path) -> dict | None:
    if path.suffix == ".bin":
        try:
            return read_model_header(path).get("lineage")
        except (DataError, OSError):
            return None
    if path.suffix == ".json":
        try:
            return json.loads(path.read_text(encoding="utf-8")).get("lineage")
        except (OSError, json.JSONDecodeError, AttributeError):
            return None
    return read_text_lineage(path)


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
    name: str
    version: int
    config_subset: Callable[[PipelineConfig], dict]
    inputs: Callable[[PipelineConfig], dict[str, str]]  # input name -> producing stage
    outputs: Callable[[PipelineConfig], list[str]]


def _synth_subset(cfg: PipelineConfig) -> dict:
    assert cfg.synth is not None
    d = asdict(cfg.synth)
    d["date_range"] = [x.isoformat() for x in cfg.synth.date_range]
    return d


def _codesets_blob(cfg: PipelineConfig) -> dict:
    return {
        name: sorted((s.value, c) for s, c in getattr(cfg.codesets, name).codes)
        for name in ("ckd", "dialysis", "transplant", "access_creation")
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


def _task_outputs(prefix: str):
    def fn(cfg: PipelineConfig) -> list[str]:
        return [f"{prefix}_{task}" for task in cfg.tasks] + (
            [f"train_log_{task}" for task in cfg.tasks] if prefix == "model" else []
        )

    return fn


STAGES: dict[str, StageSpec] = {
    "synth": StageSpec(
        "synth",
        1,
        _synth_subset,
        lambda cfg: {},
        lambda cfg: ["claims", "ground_truth"],
    ),
    "triggers": StageSpec(
        "triggers",
        1,
        _triggers_subset,
        lambda cfg: {"claims": "synth"},
        lambda cfg: ["triggers", "trigger_summary"],
    ),
    "featurize": StageSpec(
        "featurize",
        1,
        _featurize_subset,
        lambda cfg: {"claims": "synth", "triggers": "triggers"},
        lambda cfg: ["split", "vocab", "features_train", "features_valid", "features_test"],
    ),
    "train": StageSpec(
        "train",
        1,
        _train_subset,
        lambda cfg: {
            "vocab": "featurize",
            "features_train": "featurize",
            "features_valid": "featurize",
        },
        _task_outputs("model"),
    ),
    "predict": StageSpec(
        "predict",
        1,
        lambda cfg: {"tasks": list(cfg.tasks)},
        lambda cfg: {"features_test": "featurize", "vocab": "featurize"}
        | {f"model_{task}": "train" for task in cfg.tasks},
        _task_outputs("predictions"),
    ),
    "evaluate": StageSpec(
        "evaluate",
        1,
        _eval_subset,
        lambda cfg: {"triggers": "triggers", "features_test": "featurize", "claims": "synth"}
        | {f"predictions_{task}": "predict" for task in cfg.tasks},
        lambda cfg: ["report_json", "report_text"],
    ),
}

STAGE_ORDER = ("synth", "triggers", "featurize", "train", "predict", "evaluate")


def expected_lineage(cfg: PipelineConfig, stage: str, cache: _HashCache) -> dict:
    spec = STAGES[stage]
    paths = artifact_paths(cfg)
    inputs = {}
    for name, producer in spec.inputs(cfg).items():
        path = paths[name]
        if not path.exists():
            if producer == "synth" and cfg.synth is None:
                hint = "provide the configured claims file"
            else:
                hint = f"run the {producer} stage first"
            raise DataError(f"{stage}: missing input {path} ({hint})")
        inputs[name] = cache.file_sha256(path)
    return {
        "stage": stage,
        "stage_version": spec.version,
        "seed": cfg.seed,
        "config_sha256": _sha256_text(_canonical(spec.config_subset(cfg))),
        "inputs": inputs,
    }


def stage_is_fresh(cfg: PipelineConfig, stage: str, cache: _HashCache) -> bool:
    spec = STAGES[stage]
    paths = artifact_paths(cfg)
    try:
        want = expected_lineage(cfg, stage, cache)
    except DataError:
        return False
    for name in spec.outputs(cfg):
        have = read_artifact_lineage(paths[name])
        if have != want:
            return False
    return True


def _check_upstream(cfg: PipelineConfig, stage: str, cache: _HashCache) -> None:
    """Refuse to run on stale or missing upstream artifacts.

    Every earlier stage feeds this one, directly or through another, except
    synth when the claims are external. Walks them in pipeline order so the
    error names the earliest missing artifact (e.g. the model file when
    evaluate runs before train).
    """
    paths = artifact_paths(cfg)
    for upstream in STAGE_ORDER[: STAGE_ORDER.index(stage)]:
        if upstream == "synth" and cfg.synth is None:
            continue
        if stage_is_fresh(cfg, upstream, cache):
            continue
        missing = [
            paths[name] for name in STAGES[upstream].outputs(cfg) if not paths[name].exists()
        ]
        if missing:
            raise DataError(
                f"{stage}: missing {missing[0]} (run the {upstream} stage first)"
            )
        raise DataError(
            f"{stage}: artifacts from the {upstream} stage are stale against the "
            f"current config/inputs; rerun that stage (or `reproduce`)"
        )


# ---------------------------------------------------------------------------
# Stage bodies


def _run_synth(cfg: PipelineConfig, lineage: dict, paths: dict[str, Path]) -> None:
    from . import synth as synth_mod

    assert cfg.synth is not None
    with ExitStack() as stack:
        ch = _open_text_artifact(stack, paths["claims"], lineage)
        th = _open_text_artifact(stack, paths["ground_truth"], lineage)
        summary = synth_mod.generate(cfg.synth, ch, th, workers=cfg.workers)
    print(
        f"synth: {summary.n_beneficiaries} beneficiaries, {summary.n_claims} claims, "
        f"{summary.n_dialysis} dialysis / {summary.n_transplant} transplant onsets, "
        f"{summary.n_access} access procedures "
        f"(hazard multiplier {summary.hazard_multiplier:.3g}, "
        f"predicted 365d prevalence {summary.predicted_prevalence:.4f})"
    )


def _run_triggers(cfg: PipelineConfig, lineage: dict, paths: dict[str, Path]) -> None:
    import numpy as np

    from . import claims as claims_mod
    from . import evaluation as eval_mod
    from . import triggers as trig_mod

    mask_counts = np.zeros(trig_mod.N_REASON_MASKS, dtype=np.int64)
    class_counts = np.zeros((len(TASKS), N_CLASSES), dtype=np.int64)
    had_access: dict[str, bool] = {}
    dialysis, last_window = TASKS.index("dialysis"), len(HORIZON_DAYS) - 1

    def rows():
        for timeline in claims_mod.iter_timelines(paths["claims"]):
            block = trig_mod.enumerate_triggers(
                timeline, cfg.trigger_range, cfg.codesets, cfg.dataset_range[1]
            )
            counts = np.bincount(block.reason_masks, minlength=trig_mod.N_REASON_MASKS)
            mask_counts[:] += counts
            if counts[0]:
                classes = block.classes[:, block.reason_masks == 0]
                for task_counts, task_classes in zip(class_counts, classes):
                    task_counts += np.bincount(task_classes, minlength=N_CLASSES)
                # only these beneficiaries can be dialysis positives in evaluate
                if (classes[dialysis] <= last_window).any():
                    had_access[block.beneficiary_id] = bool(
                        eval_mod.access_before_onset(
                            timeline, cfg.codesets.dialysis, cfg.codesets.access_creation
                        )
                    )
            if len(block):
                yield "\n".join(block.lines())

    write_text_artifact(paths["triggers"], lineage, rows())
    summary = trig_mod.TriggerSummary(class_counts, mask_counts, had_access)
    write_text_artifact(paths["trigger_summary"], lineage, summary.lines())
    reasons = trig_mod.reason_counts(mask_counts)
    print(
        f"triggers: {int(mask_counts.sum())} candidates, {int(mask_counts[0])} eligible; "
        "ineligible by reason: " + ", ".join(f"{r.value} {n}" for r, n in reasons.items())
    )


def _run_featurize(cfg: PipelineConfig, lineage: dict, paths: dict[str, Path]) -> None:
    import numpy as np

    from . import claims as claims_mod
    from . import features as feat_mod
    from . import triggers as trig_mod

    # per beneficiary with an eligible trigger: its date grid, the eligible
    # positions on it and their classes (one column per trigger)
    eligible_by_bid: dict[str, tuple[trig_mod._DateGrid, np.ndarray, np.ndarray]] = {}
    all_ids: set[str] = set()
    for block in trig_mod.iter_trigger_rows(paths["triggers"]):
        if block.beneficiary_id in all_ids:
            raise DataError(
                f"{paths['triggers']}: the rows of beneficiary {block.beneficiary_id!r} "
                "are not contiguous"
            )
        all_ids.add(block.beneficiary_id)
        eligible = np.flatnonzero(block.reason_masks == 0)
        if eligible.size:
            classes = block.classes[:, eligible]
            eligible_by_bid[block.beneficiary_id] = (block.grid, eligible, classes)
    train_ids, valid_ids, test_ids = trig_mod.split_beneficiaries(
        all_ids, cfg.split_ratios, cfg.split_seed
    )
    if not any(bid in train_ids for bid in eligible_by_bid):
        raise DataError("featurize: no eligible training triggers to build a vocabulary from")

    def split_of(bid: str) -> str:
        if bid in train_ids:
            return "train"
        if bid in valid_ids:
            return "valid"
        return "test"

    write_text_artifact(
        paths["split"], lineage, (f"{bid}\t{split_of(bid)}" for bid in sorted(all_ids))
    )

    # single parse: keep the timelines that have at least one eligible trigger;
    # their pair ids all number pairs of this one read
    compiled: dict[str, feat_mod.CompiledTimeline] = {}
    for timeline in claims_mod.iter_timelines(paths["claims"]):
        pairs = timeline.pairs
        bid = timeline.beneficiary.id
        if bid in eligible_by_bid:
            compiled[bid] = feat_mod.CompiledTimeline(timeline)

    # training triggers per pair-bucket key; each active set holds a key once
    counts = np.zeros(len(pairs) * feat_mod.N_BUCKETS, dtype=np.int64)
    for bid, (grid, eligible, _) in eligible_by_bid.items():
        if bid in train_ids:
            for active in compiled[bid].active_pair_buckets(grid.ordinals[eligible]):
                counts[active] += 1
    vocab = feat_mod.vocabulary_from_counts(counts, pairs, cfg.min_count)
    vocab_hash = vocab.content_hash()
    write_text_artifact(paths["vocab"], lineage, vocab.lines())
    colmap = feat_mod.column_map(vocab, pairs)

    columns = [str(i) for i in range(len(vocab))]
    n_rows = {"train": 0, "valid": 0, "test": 0}
    with ExitStack() as stack:
        handles = {}
        for split in n_rows:
            handles[split] = _open_text_artifact(stack, paths[f"features_{split}"], lineage)
            handles[split].write(f"{feat_mod.VOCAB_HEADER}{vocab_hash}\n")
        for bid in sorted(eligible_by_bid):
            split = split_of(bid)
            out = handles[split]
            grid, eligible, classes = eligible_by_bid[bid]
            rows = compiled[bid].active_indices(
                grid.ordinals[eligible], grid.years[eligible], vocab, colmap
            )
            for i, triple, indices in zip(eligible.tolist(), classes.T.tolist(), rows):
                out.write(feat_mod.feature_row(bid, grid.iso[i], triple, indices, columns) + "\n")
            n_rows[split] += eligible.size
    print(
        f"featurize: vocab {len(vocab)} columns; rows "
        f"train={n_rows['train']} valid={n_rows['valid']} test={n_rows['test']}"
    )


def _run_train(cfg: PipelineConfig, lineage: dict, paths: dict[str, Path], only_task=None) -> None:
    import numpy as np

    from . import features as feat_mod
    from . import model as model_mod

    vocab = feat_mod.Vocabulary.from_file(paths["vocab"])
    width, vocab_hash = len(vocab), vocab.content_hash()
    train_matrix = feat_mod.read_feature_matrix(paths["features_train"], width, vocab_hash)
    valid_matrix = feat_mod.read_feature_matrix(paths["features_valid"], width, vocab_hash)
    started = time.monotonic()
    for ti, task in enumerate(cfg.tasks):
        if only_task and task != only_task:
            continue
        y_train = train_matrix.y[task]
        y_valid = valid_matrix.y[task]
        grid = tuple(replace(hp, seed=hp.seed + ti) for hp in cfg.grid or (cfg.hyperparams,))
        hp, result, _ = model_mod.tune(grid, train_matrix, y_train, valid_matrix, y_valid)
        with atomic_output(paths[f"model_{task}"]) as tmp:
            model_mod.save_model(tmp, result.params, hp, task, lineage)
        log_lines = ["epoch\tstep\tlearning_rate\ttrain_loss\tvalid_loss"]
        log_lines += [
            f"{s.epoch}\t{s.steps}\t{s.learning_rate!r}\t{s.train_loss!r}\t{s.valid_loss!r}"
            for s in result.log
        ]
        write_text_artifact(paths[f"train_log_{task}"], lineage, log_lines)
        nnz = int(np.count_nonzero(result.params.weights))
        print(
            f"train[{task}]: best epoch {result.best_epoch} "
            f"valid_ce {result.best_valid_loss:.5f}, {nnz} nonzero weights "
            f"({time.monotonic() - started:.1f}s elapsed)"
        )


def _run_predict(cfg: PipelineConfig, lineage: dict, paths: dict[str, Path], only_task=None) -> None:
    from . import features as feat_mod
    from . import model as model_mod

    vocab = feat_mod.Vocabulary.from_file(paths["vocab"])
    vocab_hash = vocab.content_hash()
    test_matrix = feat_mod.read_feature_matrix(paths["features_test"], len(vocab), vocab_hash)
    for task in cfg.tasks:
        if only_task and task != only_task:
            continue
        params, _, _ = model_mod.load_model(paths[f"model_{task}"], vocab_hash)
        s, p = model_mod.predict_matrix(params, test_matrix)

        def rows():
            for i, (bid, tdate) in enumerate(test_matrix.ids):
                s_txt = ",".join(repr(float(v)) for v in s[i])
                p_txt = ",".join(repr(float(v)) for v in p[i])
                yield f"{bid}\t{tdate}\t{s_txt}\t{p_txt}"

        write_text_artifact(paths[f"predictions_{task}"], lineage, rows())
        print(f"predict[{task}]: {len(test_matrix)} rows")


def read_predictions(path: Path) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    """Ids, window scores and horizon probabilities; a malformed row is a ParseError."""
    import numpy as np

    n_classes = N_CLASSES
    ids = []
    line_nos = []
    s_rows = []
    p_rows = []
    with naming_file(path):
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if line.startswith("#") or not line.strip():
                    continue
                try:
                    bid, tdate, s_txt, p_txt = line.rstrip("\n").split("\t")
                    s_rows.append([float(v) for v in s_txt.split(",")])
                    p_rows.append([float(v) for v in p_txt.split(",")])
                    if len(s_rows[-1]) != n_classes or len(p_rows[-1]) != n_classes - 1:
                        raise ValueError
                except ValueError:
                    raise ParseError(
                        line_no,
                        f"bad prediction row {line[:80]!r} (expected id, date, {n_classes} "
                        f"window scores and {n_classes - 1} horizon probabilities)",
                    )
                ids.append((bid, tdate))
                line_nos.append(line_no)
        s, p = np.asarray(s_rows), np.asarray(p_rows)
        finite = np.isfinite(s).all(axis=-1) & np.isfinite(p).all(axis=-1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ParseError(
                line_nos[i], f"non-finite score or probability for {ids[i][0]} at {ids[i][1]}"
            )
    return ids, s, p


def _run_evaluate(cfg: PipelineConfig, lineage: dict, paths: dict[str, Path]) -> None:
    from . import evaluation as eval_mod
    from . import features as feat_mod
    from . import triggers as trig_mod

    # the trigger table and the claims come in through their summary
    summary = trig_mod.read_trigger_summary(paths["trigger_summary"])
    prevalence = eval_mod.prevalence_table(dict(zip(TASKS, summary.class_counts)))

    # vocab.tsv gives the table's width and header hash; it is not a lineage input
    vocab = feat_mod.Vocabulary.from_file(paths["vocab"])
    test = feat_mod.read_feature_matrix(paths["features_test"], len(vocab), vocab.content_hash())
    if not len(test):
        raise DataError(
            f"evaluate: the test split is empty: {paths['features_test']} holds no eligible "
            "trigger to score (use a larger cohort or a larger test ratio)"
        )

    performance = {}
    dialysis_scores = None
    for task in cfg.tasks:
        ids, _, p = read_predictions(paths[f"predictions_{task}"])
        if ids != test.ids:
            raise DataError(
                f"predictions_{task} rows do not line up with features_test "
                "(stale artifact lineage?)"
            )
        performance[task] = eval_mod.horizon_metrics(p, test.y[task])
        if task == "dialysis":
            dialysis_scores = p[:, -1]

    impact_rows = None  # also when no test trigger is a dialysis positive
    positives = test.y["dialysis"] <= len(HORIZON_DAYS) - 1
    if dialysis_scores is not None and positives.any():
        impact = eval_mod.impact_analysis(
            [bid for bid, _ in test.ids],
            dialysis_scores,
            positives,
            summary.had_access,
            cfg.target_sensitivities,
        )
        impact_rows = [
            {
                "target_sensitivity": r.target_sensitivity,
                "threshold": r.operating_point.threshold,
                "sensitivity": r.operating_point.sensitivity,
                "specificity": r.operating_point.specificity,
                "n_identified": r.n_identified,
                "pct_without_prior_access": r.pct_without_prior_access,
            }
            for r in impact
        ]

    report = {
        "horizon_days": list(HORIZON_DAYS),
        "n_test_triggers": len(test),
        "prevalence": prevalence,
        "performance": performance,
        "impact": impact_rows,
        "lineage": lineage,
    }
    with atomic_output(paths["report_json"]) as tmp:
        tmp.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    text = eval_mod.render_report_text(report)
    write_text_artifact(paths["report_text"], lineage, [text])
    print(text)


# ---------------------------------------------------------------------------
# Stage runner


_BODIES = {
    "synth": _run_synth,
    "triggers": _run_triggers,
    "featurize": _run_featurize,
    "train": _run_train,
    "predict": _run_predict,
    "evaluate": _run_evaluate,
}


def run_stage(cfg: PipelineConfig, stage: str, only_task: str | None = None) -> bool:
    """Run one stage if stale; returns True when work was done."""
    return _run_stage(cfg, stage, only_task, _HashCache())


def _run_stage(cfg: PipelineConfig, stage: str, only_task: str | None, cache: _HashCache) -> bool:
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    if stage == "synth" and cfg.synth is None:
        raise ConfigError("synth stage requires a synth section in the config")
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    _check_upstream(cfg, stage, cache)
    if stage == "evaluate" and only_task:
        # A one-task report is stamped with its own task list, so a full
        # evaluate sees it as stale and replaces it.
        cfg = replace(cfg, tasks=tuple(t for t in cfg.tasks if t == only_task))
    lineage = expected_lineage(cfg, stage, cache)
    if stage_is_fresh(cfg, stage, cache):
        print(f"{stage}: up to date")
        return False
    paths = artifact_paths(cfg)
    body = _BODIES[stage]
    if stage in ("train", "predict"):
        body(cfg, lineage, paths, only_task)
    else:
        body(cfg, lineage, paths)
    return True


def run_reproduce(cfg: PipelineConfig) -> None:
    # one cache: a stage hashes only files that the stages before it have settled
    cache = _HashCache()
    for stage in STAGE_ORDER:
        if stage == "synth" and cfg.synth is None:
            continue
        _run_stage(cfg, stage, None, cache)
